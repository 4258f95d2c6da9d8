//! A real wire-protocol runtime for the fatih detection protocols.
//!
//! The simulator crates exercise Protocols Π2/Πk+2 and the Fatih system
//! against a discrete-event network. This crate runs the *same protocol
//! machinery* — segment monitors, maturity-windowed traffic validation,
//! timeout-as-accusation, signed alerts — over real byte streams and real
//! wall-clock time:
//!
//! * [`codec`] — the binary wire format: length-prefixed, version-byte
//!   framed, field-tagged messages with an HMAC-SHA256 trailer on every
//!   control frame (summaries, acks, alerts, accusations);
//! * [`transport`] — the [`Transport`] abstraction with an in-memory
//!   loopback implementation ([`LoopbackHub`]), a real UDP-over-localhost
//!   implementation ([`UdpNet`]), and a loss/duplication-injecting chaos
//!   shim ([`ChaosTransport`]);
//! * [`linkstate`] — origin-signed topology updates (segment convictions,
//!   join/leave, crash-restart incarnations, link flaps) flooded through
//!   the control plane to drive the conviction → reroute → reconverge
//!   loop;
//! * [`timer`] — a deadline-driven hashed timer wheel for round ticks,
//!   flow ticks and retransmit timeouts;
//! * [`reliable`] — the `ReliableConfig`/`ReliableLayer` names for
//!   `fatih_core::transport`'s retry machine (ack, capped exponential
//!   backoff, duplicate suppression), the one the simulator drives too;
//!   the runtime uses it directly and the perfbench harness imports it
//!   from here;
//! * [`runtime`] — the sharded live runtime: a small pool of worker
//!   threads, each multiplexing a shard of router event loops over
//!   non-blocking transports with one shared timer wheel per shard, plus
//!   the [`LiveDeployment`] harness that deploys
//!   a topology, injects traffic and droppers, and collects suspicions.
//!   Summary exchange optionally runs in reconciliation mode
//!   ([`SummaryMode::Reconcile`](runtime::SummaryMode)): ends swap
//!   fixed-size digests and decode the difference, falling back to full
//!   summaries only when it does not fit.
//!
//! # Examples
//!
//! Run a 6-router line over real UDP loopback sockets and catch a dropper:
//!
//! ```no_run
//! use fatih_net::runtime::{DropperSpec, FlowSpec, LiveConfig, LiveDeployment, LiveSpec};
//! use fatih_net::transport::UdpNet;
//! use fatih_topology::builtin;
//!
//! let topo = builtin::line(6);
//! let ids: Vec<_> = topo.routers().collect();
//! let spec = LiveSpec {
//!     flows: vec![FlowSpec::new(ids[0], ids[5], 1000, std::time::Duration::from_millis(3))],
//!     droppers: vec![DropperSpec { router: ids[3], rate: 0.3, seed: 1, active_from: 0 }],
//!     ..LiveSpec::default()
//! };
//! let cfg = LiveConfig::default();
//! let transports = UdpNet::bind_group(&ids).unwrap();
//! let outcome = LiveDeployment::run(&topo, &spec, &cfg, transports);
//! assert!(outcome.suspicions.iter().all(|s| s.segment.contains(ids[3])));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod linkstate;
pub mod reliable;
pub mod runtime;
pub mod timer;
pub mod transport;

pub use codec::{decode_frame, encode_frame, CodecError, Frame, MsgType, WireMessage};
pub use linkstate::{LinkStateUpdate, TopoUpdate};
pub use runtime::{
    ChurnAction, ChurnEvent, LiveConfig, LiveDeployment, LiveEvent, LiveOutcome, LiveSpec,
    SummaryMode,
};
pub use transport::{ChaosTransport, FlapWindow, LoopbackHub, NetError, Transport, UdpNet};
