//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <validate_mem|live_steady> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload from a seed for about `--seconds` seconds, checks
//! every verdict against the seeded ground truth, prints per-round series
//! and the host record, and ends with one JSON result line. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones. Exits 1
//! when any correctness gate fails, 2 on bad arguments. See README.md.

mod calib;
mod gen;
mod layers;
mod live;
mod mem;
mod metrics;
mod span;
mod sys;

use layers::median;
use metrics::{Outcome, PER_LAYER};
use span::Spans;
use std::time::{Duration, Instant};

/// The workloads; BENCHMARK.json and README.md say why each exists.
const WORKLOADS: &[&str] = &["validate_mem", "live_steady"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// The host and configuration every result is measured under.
fn host_line(args: &Args, mode: &str, tau: Option<Duration>) -> String {
    format!(
        "{{\"host\": {{\"nproc\": {}, \"shards\": {}, \"transport\": \"{}\", \
         \"summary_mode\": \"{mode}\", \"tau_ms\": {}, \"seed\": {}, \"rustc\": \"{}\"}}, \
         \"workload\": \"{}\", \"seconds\": {}, \"trace\": {}}}",
        sys::nproc(),
        if tau.is_some() { live::SHARDS } else { 0 },
        if tau.is_some() {
            "udp-loopback: traffic crossed the host's loopback interface, not a real link"
        } else {
            "none: in-memory tap tape"
        },
        tau.map_or("null".to_string(), |t| t.as_millis().to_string()),
        args.seed,
        env!("PERFBENCH_RUSTC"),
        args.workload,
        args.seconds,
        args.trace,
    )
}

fn spans_line(spans: &Spans) -> String {
    let body: Vec<String> = spans
        .summary()
        .iter()
        .map(|(name, s)| {
            format!(
                "\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                s.count, s.total_ns, s.self_ns
            )
        })
        .collect();
    format!(
        "{{\"spans\": {{{}}}, \"recorded\": {}, \"units\": {}}}",
        body.join(", "),
        spans.len(),
        spans.units()
    )
}

fn moves_line() -> String {
    let body: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, _, m)| format!("\"{n}\": \"{m}\""))
        .collect();
    format!("{{\"moves\": {{{}}}}}", body.join(", "))
}

/// Share by which traced units cost more than untraced ones.
fn overhead(traced: Vec<f64>, untraced: Vec<f64>) -> f64 {
    if traced.is_empty() || untraced.is_empty() {
        return 0.0;
    }
    median(traced) / median(untraced) - 1.0
}

fn run_mem(args: &Args) -> Outcome {
    // Set-up is repeated so its median is steady; the last copy is used.
    // Every CPU-bound figure of this workload is scaled to the reference
    // host speed measured just before it (see calib.rs).
    let mut setups = Vec::new();
    let mut setup = None;
    for _ in 0..5 {
        drop(setup.take());
        let speed = calib::speed();
        let t = Instant::now();
        setup = Some(mem::setup(args.seed));
        setups.push(t.elapsed().as_secs_f64() * speed);
    }
    let s = setup.expect("set up at least once");
    println!("{}", host_line(args, "in-memory reconcile", None));

    let reg = fatih_obs::MetricsRegistry::new();
    let mut spans = Spans::new(args.trace);
    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let mut rounds: Vec<mem::Round> = Vec::new();
    let mut speeds: Vec<f64> = Vec::new();
    let mut cpu_ref_s = 0.0;
    let mut traced_cost = Vec::new();
    let mut plain_cost = Vec::new();
    while rounds.len() < 2 * gen::INSTANCES || t0.elapsed() < budget {
        let r = rounds.len();
        spans.set_unit(r as u64);
        if args.trace {
            spans.set_on(r.is_multiple_of(2));
        }
        let on = spans.is_on();
        let speed = calib::speed();
        let cpu0 = sys::thread_cpu_s();
        let open = spans.begin("validate_mem.round");
        let round = mem::round(&s[r % s.len()], r, &reg, &mut spans);
        spans.end(open);
        cpu_ref_s += (sys::thread_cpu_s() - cpu0) * speed;
        let cost = round.pipeline.as_nanos() as f64 * speed / round.packets as f64;
        if on {
            traced_cost.push(cost);
        } else {
            plain_cost.push(cost);
        }
        rounds.push(round);
        speeds.push(speed);
    }

    let mut out = Outcome {
        attempted: rounds.iter().map(|r| r.verdicts).sum(),
        failed: rounds.iter().map(|r| r.wrong).sum(),
        ..Outcome::default()
    };
    let packets: usize = rounds.iter().map(|r| r.packets).sum();
    // Per-round pipeline time at the reference host speed.
    let ref_s: Vec<f64> = rounds
        .iter()
        .zip(&speeds)
        .map(|(r, speed)| r.pipeline.as_secs_f64() * speed)
        .collect();
    let pipeline_ref_s: f64 = ref_s.iter().sum();
    let raw_s: f64 = rounds.iter().map(|r| r.pipeline.as_secs_f64()).sum();
    let rate = |f: fn(&mem::Round) -> usize| -> Vec<f64> {
        rounds
            .iter()
            .zip(&ref_s)
            .map(|(r, t)| f(r) as f64 / t)
            .collect()
    };
    println!(
        "{{\"rounds\": {}, \"packets_per_round\": {}, \"drops_per_round\": {:?}, \
         \"segments\": {:?}, \"verdicts\": {}, \"wrong\": {}, \"fallbacks\": {}, \
         \"raw_validate_pps\": {:?}, \
         \"calibration_ref_ms\": {:?}, \"median_speed\": {:?}}}",
        rounds.len(),
        mem::packets_per_round(),
        s.iter().map(|i| i.drops).collect::<Vec<_>>(),
        s.iter().map(|i| i.segments.len()).collect::<Vec<_>>(),
        out.attempted,
        out.failed,
        rounds.iter().map(|r| r.fallbacks).sum::<u64>(),
        packets as f64 / raw_s,
        calib::REF_MS,
        median(speeds.clone()),
    );
    if !args.trace {
        // Totals over the whole run rather than per-round medians, so
        // slow and fast stretches of the host weigh by their length.
        let delivered: usize = rounds.iter().map(|r| r.delivered).sum();
        let digest_bytes: usize = rounds.iter().map(|r| r.digest_bytes).sum();
        out.set("validate_pps", packets as f64 / pipeline_ref_s);
        out.set("live_pps", delivered as f64 / pipeline_ref_s);
        out.set("delivered_ratio", delivered as f64 / packets as f64);
        out.set("cpu_us_per_pkt", cpu_ref_s * 1e6 / packets as f64);
        out.set("ctl_bytes_per_pkt", digest_bytes as f64 / packets as f64);
        out.set("peak_rss_mb", sys::peak_rss_mb());
        out.set("setup_s", median(setups));
        return out;
    }

    let sum = |i: usize| {
        rounds
            .iter()
            .map(|r| r.stages[i].as_nanos() as f64)
            .sum::<f64>()
    };
    let verdicts = out.attempted as f64;
    let events: f64 = rounds.iter().map(|r| r.events as f64).sum();
    let entries: f64 = rounds.iter().map(|r| r.entries as f64).sum();
    // Mean report length: four summaries (mature and full, both ends) per
    // segment verdict.
    let history = (entries / (4.0 * verdicts)).round() as usize;
    spans.set_on(true);
    let c = layers::measure(&s[0].inputs, &s[0].keys, history, &mut spans);
    let snap = reg.snapshot();
    let hits = snap.counter("monitor.fp_cache_hits") as f64;
    let misses = snap.counter("monitor.fp_cache_misses") as f64;
    let pipeline_ns: f64 = rounds.iter().map(|r| r.pipeline.as_nanos() as f64).sum();
    let stages_ns: f64 = (0..mem::STAGES.len()).map(sum).sum();
    let per_round_ns: Vec<f64> = rounds
        .iter()
        .map(|r| r.pipeline.as_nanos() as f64)
        .collect();
    let summarize = |r: &mem::Round| r.stages[1].as_nanos() as f64;
    let pps = rate(|r| r.packets);
    // The last round on the same instance as round 1 (round 0 warms up).
    let last = rounds.len() - 1 - (rounds.len() - 2) % gen::INSTANCES;

    common_layers(&mut out, &c);
    out.set("crypto.fingerprint_ns_per_pkt", c.fingerprint_ns_per_pkt);
    out.set("monitor.observe_ns_per_event", sum(0) / events);
    out.set("monitor.memo_hit_share", hits / (hits + misses).max(1.0));
    out.set("policy.tv_pair_ns", sum(4) / verdicts);
    out.set("validation.summarize_ns_per_pkt", sum(1) / entries);
    out.set(
        "validation.summarize_growth",
        summarize(&rounds[last]) / summarize(&rounds[1]),
    );
    out.set("validation.digest_ns", sum(2) / (4.0 * verdicts));
    out.set("validation.reconcile_ns", sum(3) / verdicts);
    out.set(
        "validation.fallback_share",
        rounds.iter().map(|r| r.fallbacks).sum::<u64>() as f64
            / rounds.iter().map(|r| r.exchanges).sum::<u64>().max(1) as f64,
    );
    out.set(
        "codec.summary_frame_bytes",
        layers::FrameModel::of(&s[0].inputs, &s[0].keys).summary_bytes(history as f64),
    );
    out.set("reliable.retransmit_share", 0.0);
    out.set("runtime.frames_per_pkt", 0.0);
    out.set("runtime.round_eval_mean_ns", median(per_round_ns.clone()));
    out.set(
        "runtime.round_eval_max_ns",
        per_round_ns.iter().copied().fold(0.0, f64::max),
    );
    out.set("runtime.round_decay", pps[last] / pps[1]);
    out.set(
        "runtime.budget_layer_us_per_pkt",
        stages_ns / 1e3 / packets as f64,
    );
    out.set(
        "runtime.budget_cpu_us_per_pkt",
        pipeline_ns / 1e3 / packets as f64,
    );
    out.set(
        "runtime.budget_residual_share",
        1.0 - stages_ns / pipeline_ns,
    );
    out.set("trace.overhead_share", overhead(traced_cost, plain_cost));
    println!("{}", spans_line(&spans));
    out
}

/// Layer costs both workloads report straight from the microbenchmarks.
fn common_layers(out: &mut Outcome, c: &layers::LayerCosts) {
    out.set("crypto.hmac_ns_per_frame", c.hmac_ns_per_frame);
    out.set("crypto.segment_key_ns", c.segment_key_ns);
    out.set("monitor.rebuild_ns", c.rebuild_ns);
    out.set("codec.encode_ns.data", c.data.encode_ns);
    out.set("codec.decode_ns.data", c.data.decode_ns);
    out.set("codec.encode_ns.digest", c.digest.encode_ns);
    out.set("codec.decode_ns.digest", c.digest.decode_ns);
    out.set("codec.encode_ns.summary", c.summary.encode_ns);
    out.set("codec.decode_ns.summary", c.summary.decode_ns);
    out.set("codec.encode_ns.link_state", c.link_state.encode_ns);
    out.set("codec.decode_ns.link_state", c.link_state.decode_ns);
    out.set("transport.send_ns", c.send_ns);
    out.set("transport.recv_ns", c.recv_ns);
    out.set("transport.empty_recv_ns", c.empty_recv_ns);
    out.set("reliable.track_ack_ns", c.track_ack_ns);
    out.set("timer.schedule_pop_ns", c.schedule_pop_ns);
    out.set("linkstate.sign_ns", c.ls_sign_ns);
    out.set("linkstate.verify_ns", c.ls_verify_ns);
    out.set("topology.paths_for_ns", c.paths_for_ns);
    out.set("topology.pik2_segments_ns", c.pik2_segments_ns);
    out.set("topology.routes_ns", c.routes_ns);
}

fn run_live(args: &Args) -> Outcome {
    println!(
        "{}",
        host_line(args, "full", Some(live::config(args.seed).tau))
    );
    let mut spans = Spans::new(args.trace);
    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let mut last = Duration::ZERO;
    let mut deps: Vec<live::Deployment> = Vec::new();
    let mut traced_cost = Vec::new();
    let mut plain_cost = Vec::new();
    while deps.is_empty() || t0.elapsed() + last <= budget {
        let i = deps.len();
        spans.set_unit(i as u64);
        if args.trace {
            spans.set_on(i.is_multiple_of(2));
        }
        let on = spans.is_on();
        let t = Instant::now();
        let open = spans.begin("live_steady.deployment");
        let d = live::deploy(
            gen::instance_seed(args.seed, i % gen::INSTANCES),
            &mut spans,
        );
        spans.end(open);
        last = t.elapsed();
        let series = live::round_series(&d.outcome);
        let row = |f: fn(&live::RoundCost) -> u64| {
            series
                .iter()
                .map(|c| f(c).to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        println!(
            "{{\"deployment\": {i}, \"rounds\": {}, \"delivered\": [{}], \
             \"control_bytes\": [{}], \"frames\": [{}], \"retransmits\": [{}], \
             \"verdicts\": {}, \"suspicions\": {}, \"setup_s\": {:?}, \"worker_cpu_s\": {:?}}}",
            live::ROUNDS,
            row(|c| c.delivered),
            row(|c| c.control_bytes),
            row(|c| c.frames),
            row(|c| c.retransmits),
            d.evaluated,
            d.outcome.suspicions.len(),
            d.setup_s,
            d.worker_cpu_s,
        );
        for s in &d.outcome.suspicions {
            println!("{{\"failure\": \"honest segment suspected: {s}\"}}");
        }
        if d.evaluated != d.expected_verdicts {
            println!(
                "{{\"failure\": \"{} of {} segment-end verdicts evaluated\"}}",
                d.evaluated, d.expected_verdicts
            );
        }
        if d.bad_verdicts > 0 {
            println!(
                "{{\"failure\": \"{} verdicts failed or had no peer summary\"}}",
                d.bad_verdicts
            );
        }
        let cost = d.worker_cpu_s / d.delivered().max(1) as f64;
        if on {
            traced_cost.push(cost);
        } else {
            plain_cost.push(cost);
        }
        deps.push(d);
    }

    let mut out = Outcome {
        attempted: deps.iter().map(|d| d.expected_verdicts).sum(),
        failed: deps.iter().map(live::Deployment::failures).sum(),
        ..Outcome::default()
    };
    let per = |f: &dyn Fn(&live::Deployment) -> f64| median(deps.iter().map(f).collect());
    let round_s = live::round_time().as_secs_f64();
    if !args.trace {
        out.set(
            "validate_pps",
            per(&|d| d.delivered() as f64 / d.worker_cpu_s),
        );
        out.set("live_pps", per(&|d| d.delivered() as f64 / round_s));
        out.set(
            "delivered_ratio",
            per(&|d| d.delivered() as f64 / live::scheduled()),
        );
        out.set(
            "cpu_us_per_pkt",
            per(&|d| d.worker_cpu_s * 1e6 / d.delivered() as f64),
        );
        out.set(
            "ctl_bytes_per_pkt",
            per(&|d| d.outcome.stats.control_bytes_sent as f64 / d.delivered() as f64),
        );
        out.set("peak_rss_mb", sys::peak_rss_mb());
        out.set("setup_s", per(&|d| d.setup_s));
        return out;
    }

    // Totals over every deployment, from the runtime's own counters and
    // trace totals.
    let total = |f: &dyn Fn(&live::Deployment) -> f64| deps.iter().map(f).sum::<f64>();
    let counter = |name: &'static str| total(&|d| d.outcome.metrics.counter(name) as f64);
    let recorded = |kind| total(&|d| d.outcome.trace.recorded(kind) as f64);
    use fatih_obs::TraceKind;
    let delivered = counter("net.data_delivered");
    let frames_sent = counter("net.frames_sent");
    let frames_recv = counter("net.frames_received");
    let summaries = recorded(TraceKind::SummarySent);
    let taps = recorded(TraceKind::PacketTap);
    let timers = recorded(TraceKind::TimerFired);
    let cpu_ns = total(&|d| d.worker_cpu_s) * 1e9;
    let inputs = &deps[0].inputs;
    let keys = inputs.keystore(deps[0].seed);

    // The mean record history a summary carried, read back from the
    // summary bytes: every reliable summary is acked once.
    let model = layers::FrameModel::of(inputs, &keys);
    let summary_bytes =
        (counter("net.control_bytes_sent") - summaries * model.ack_bytes) / summaries.max(1.0);
    let history = model.entries(summary_bytes).round() as usize;
    spans.set_on(true);
    let c = layers::measure(inputs, &keys, history, &mut spans);

    let data_frames = counter("net.data_bytes_sent") / c.data.bytes as f64;
    let control_frames = frames_sent - data_frames;
    let acks = (control_frames - summaries).max(0.0);
    let budget_ns = taps * c.observe_ns_per_event
        + data_frames * (c.data.encode_ns + c.data.decode_ns)
        + summaries * (c.summary.encode_ns + c.summary.decode_ns + c.tv_pair_ns + c.track_ack_ns)
        + acks * (c.ack.encode_ns + c.ack.decode_ns)
        + frames_sent * c.send_ns
        + frames_recv * c.recv_ns
        + timers * c.schedule_pop_ns;

    // Summarize work per round grows with the record history: the
    // entries a summary carried in the last complete round against round
    // 1's, and delivery over the same two rounds. Every end sends one
    // summary (and receives one ack) per round.
    let per_round = |d: &live::Deployment| {
        let s = live::round_series(&d.outcome);
        let n = s.len();
        let sent = d.outcome.trace.recorded(TraceKind::SummarySent) as f64 / n as f64;
        let entries =
            |i: usize| model.entries((s[i].control_bytes as f64 - sent * model.ack_bytes) / sent);
        (
            entries(n - 2) / entries(1),
            s[n - 2].delivered as f64 / s[1].delivered.max(1) as f64,
        )
    };
    let eval = |f: fn(&fatih_obs::HistogramSnapshot) -> f64| {
        median(
            deps.iter()
                .filter_map(|d| d.outcome.metrics.histogram("net.round_eval_ns").map(f))
                .collect(),
        )
    };

    common_layers(&mut out, &c);
    out.set("crypto.fingerprint_ns_per_pkt", c.fingerprint_ns_per_pkt);
    out.set("monitor.observe_ns_per_event", c.observe_ns_per_event);
    out.set("monitor.memo_hit_share", c.memo_hit_share);
    out.set("policy.tv_pair_ns", c.tv_pair_ns);
    out.set("validation.summarize_ns_per_pkt", c.summarize_ns_per_pkt);
    out.set("validation.summarize_growth", per(&|d| per_round(d).0));
    out.set("validation.digest_ns", c.digest_ns);
    out.set("validation.reconcile_ns", c.reconcile_ns);
    let resolved = counter("net.digests_resolved");
    let fallbacks = counter("net.digest_fallbacks");
    out.set(
        "validation.fallback_share",
        fallbacks / (resolved + fallbacks).max(1.0),
    );
    out.set("codec.summary_frame_bytes", summary_bytes);
    out.set(
        "reliable.retransmit_share",
        counter("net.retransmits") / frames_sent.max(1.0),
    );
    out.set("runtime.frames_per_pkt", frames_sent / delivered.max(1.0));
    out.set("runtime.round_eval_mean_ns", eval(|h| h.mean()));
    out.set("runtime.round_eval_max_ns", eval(|h| h.max as f64));
    out.set("runtime.round_decay", per(&|d| per_round(d).1));
    out.set(
        "runtime.budget_layer_us_per_pkt",
        budget_ns / 1e3 / delivered,
    );
    out.set("runtime.budget_cpu_us_per_pkt", cpu_ns / 1e3 / delivered);
    out.set("runtime.budget_residual_share", 1.0 - budget_ns / cpu_ns);
    out.set("trace.overhead_share", overhead(traced_cost, plain_cost));
    println!("{}", spans_line(&spans));
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let out = match args.workload.as_str() {
        "validate_mem" => run_mem(&args),
        _ => run_live(&args),
    };
    if args.trace {
        println!("{}", moves_line());
    }
    println!("{}", out.render(args.trace));
    if out.failed > 0 {
        std::process::exit(1);
    }
}
