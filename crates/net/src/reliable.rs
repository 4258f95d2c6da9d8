//! The reliable-delivery names the perfbench layer harness imports.
//!
//! The ack/retransmit/dedup state machine is
//! [`fatih_core::transport::RetryMachine`], shared with the simulator; the
//! runtime drives it directly. This module holds no logic of its own.

pub use fatih_core::transport::RetryPolicy as ReliableConfig;

/// The wire runtime's retry machine: outstanding frames are sealed frame
/// bytes.
pub type ReliableLayer = fatih_core::transport::RetryMachine<Vec<u8>>;
