//! The benchmark's metric names, units and the end-to-end metric each
//! per-layer metric should move, plus the result line.

use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("validate_pps", "pkts/s"),
    ("live_pps", "pkts/s"),
    ("delivered_ratio", "ratio"),
    ("cpu_us_per_pkt", "us"),
    ("ctl_bytes_per_pkt", "B"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit, end-to-end metric it should move)`,
/// printed by every traced run.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    (
        "crypto.fingerprint_ns_per_pkt",
        "ns",
        "validate_pps on validate_mem",
    ),
    (
        "crypto.hmac_ns_per_frame",
        "ns",
        "cpu_us_per_pkt on live_steady",
    ),
    ("crypto.segment_key_ns", "ns", "setup_s"),
    (
        "monitor.observe_ns_per_event",
        "ns",
        "validate_pps, live_pps",
    ),
    ("monitor.rebuild_ns", "ns", "setup_s"),
    (
        "monitor.memo_hit_share",
        "share",
        "validate_pps on validate_mem",
    ),
    (
        "policy.tv_pair_ns",
        "ns",
        "validate_pps; cpu_us_per_pkt on live_steady",
    ),
    (
        "validation.summarize_ns_per_pkt",
        "ns",
        "validate_pps on validate_mem",
    ),
    (
        "validation.summarize_growth",
        "ratio",
        "live_pps on live_steady",
    ),
    ("validation.digest_ns", "ns", "validate_pps on validate_mem"),
    (
        "validation.reconcile_ns",
        "ns",
        "validate_pps on validate_mem",
    ),
    ("validation.fallback_share", "share", "ctl_bytes_per_pkt"),
    ("codec.encode_ns.data", "ns", "live_pps"),
    ("codec.decode_ns.data", "ns", "live_pps"),
    (
        "codec.encode_ns.digest",
        "ns",
        "cpu_us_per_pkt (reconciling summary exchange)",
    ),
    (
        "codec.decode_ns.digest",
        "ns",
        "cpu_us_per_pkt (reconciling summary exchange)",
    ),
    (
        "codec.encode_ns.summary",
        "ns",
        "cpu_us_per_pkt on live_steady",
    ),
    (
        "codec.decode_ns.summary",
        "ns",
        "cpu_us_per_pkt on live_steady",
    ),
    (
        "codec.encode_ns.link_state",
        "ns",
        "response path (no workload; see README)",
    ),
    (
        "codec.decode_ns.link_state",
        "ns",
        "response path (no workload; see README)",
    ),
    (
        "codec.summary_frame_bytes",
        "B",
        "ctl_bytes_per_pkt on live_steady",
    ),
    ("transport.send_ns", "ns", "live_pps"),
    ("transport.recv_ns", "ns", "live_pps"),
    (
        "transport.empty_recv_ns",
        "ns",
        "cpu_us_per_pkt on live_steady",
    ),
    (
        "reliable.retransmit_share",
        "share",
        "ctl_bytes_per_pkt, live_pps",
    ),
    ("reliable.track_ack_ns", "ns", "live_pps"),
    (
        "timer.schedule_pop_ns",
        "ns",
        "cpu_us_per_pkt on live_steady",
    ),
    (
        "linkstate.sign_ns",
        "ns",
        "response path (no workload; see README)",
    ),
    (
        "linkstate.verify_ns",
        "ns",
        "response path (no workload; see README)",
    ),
    ("topology.paths_for_ns", "ns", "setup_s"),
    ("topology.pik2_segments_ns", "ns", "setup_s"),
    ("topology.routes_ns", "ns", "setup_s"),
    ("runtime.frames_per_pkt", "count", "live_pps"),
    ("runtime.round_eval_mean_ns", "ns", "delivered_ratio"),
    ("runtime.round_eval_max_ns", "ns", "delivered_ratio"),
    ("runtime.round_decay", "ratio", "live_pps"),
    ("runtime.budget_layer_us_per_pkt", "us", "cpu_us_per_pkt"),
    ("runtime.budget_cpu_us_per_pkt", "us", "cpu_us_per_pkt"),
    (
        "runtime.budget_residual_share",
        "share",
        "all end-to-end metrics",
    ),
    (
        "trace.overhead_share",
        "share",
        "none: cost of the spans themselves",
    ),
];

/// What a run measured, before rendering.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Verdicts (or gates) the run attempted.
    pub attempted: u64,
    /// Wrong verdicts and failed gates.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every metric of the run's kind.
    ///
    /// # Panics
    ///
    /// Panics if a metric of the kind is missing or not finite, or one
    /// outside the kind was recorded: a bug in the workload's code.
    pub fn render(&self, traced: bool) -> String {
        let table: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END.to_vec()
        };
        assert_eq!(
            self.values.len(),
            table.len(),
            "recorded metrics {:?} do not match the table",
            self.values.keys().collect::<Vec<_>>()
        );
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = *self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} not measured"));
                assert!(v.is_finite(), "metric {name} is not finite: {v}");
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// `(name, unit)` of every metric object in a section of
    /// BENCHMARK.json (a flat array of flat objects).
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[body.find('[').expect("array")..body.find(']').expect("array end")];
        body.split('{')
            .skip(1)
            .map(|obj| {
                let field = |f: &str| {
                    let at = obj.find(&format!("\"{f}\"")).expect("field present");
                    let rest = &obj[at + f.len() + 2..];
                    let rest = &rest[rest.find('"').expect("value") + 1..];
                    rest[..rest.find('"').expect("closing quote")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn benchmark_json() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn metric_names_are_well_formed_and_declared() {
        let json = benchmark_json();
        let e2e = section(&json, "end_to_end");
        let layer = section(&json, "per_layer");
        let ours_e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let ours_layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        for (n, _) in ours_e2e.iter().chain(&ours_layer) {
            assert!(valid_name(n), "bad metric name {n}");
        }
        assert_eq!(e2e, ours_e2e, "end-to-end table and BENCHMARK.json differ");
        assert_eq!(
            layer, ours_layer,
            "per-layer table and BENCHMARK.json differ"
        );
    }

    #[test]
    fn render_emits_every_metric_of_the_kind() {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        for (n, _) in END_TO_END {
            o.set(n, 1.5);
        }
        let line = o.render(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (n, u) in END_TO_END {
            assert!(line.contains(&format!("\"{n}\": {{\"value\": 1.5, \"unit\": \"{u}\"}}")));
        }
    }
}
