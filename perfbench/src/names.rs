//! Every metric the benchmark gates or traces, with unit and direction.
//!
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

/// A metric's name, unit and which direction is better.
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// What an end-to-end metric measures; for a per-layer metric, the
    /// end-to-end metric it should move, and on which workload.
    pub note: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        note,
    }
}

/// Gated end-to-end metrics, reported by every workload from untraced runs.
/// Each workload's "statement" is its measured statement: TRAIN
/// (train_clustered), PREDICT (predict_serve) or INSERT (ingest_continuous).
pub const END_TO_END: &[Def] = &[
    def("stmt_ms_p50", "ms", "lower", "median statement wall time"),
    def(
        "rows_per_s",
        "1/s",
        "higher",
        "SGD tuples, predicted rows or inserted rows per wall second",
    ),
    def(
        "setup_s",
        "s",
        "lower",
        "median of 5 set-ups: engine, data, registration, set-up training",
    ),
    def(
        "peak_rss_mb",
        "MB",
        "lower",
        "process high-water RSS (VmHWM)",
    ),
];

/// Per-layer metrics, reported by every workload's traced run (0 where a
/// layer is not on the workload's path).
pub const PER_LAYER: &[Def] = &[
    def("sql.parse_us", "us/stmt", "lower", "stmt_ms_p50 on predict_serve and ingest_continuous"),
    def("plan.build_us", "us/stmt", "lower", "stmt_ms_p50 on predict_serve"),
    def("catalog.snapshot_us", "us/pin", "lower", "predict_ms_p99 (reported) on predict_serve; trainer throughput (reported) on ingest_continuous"),
    def("catalog.append_ms", "ms/stmt", "lower", "stmt_ms_p50 and insert_ms_p99 (reported) on ingest_continuous"),
    def("storage.wal_bytes_per_user_byte", "B/B", "lower", "stmt_ms_p50 on ingest_continuous"),
    def("storage.scan_ns_per_tuple", "ns/tuple", "lower", "rows_per_s on train_clustered and predict_serve"),
    def("storage.random_reads", "reads/stmt", "lower", "train_sim_s (reported) on train_clustered"),
    def("storage.sequential_reads", "reads/stmt", "lower", "train_sim_s (reported) on train_clustered"),
    def("storage.device_bytes", "B/stmt", "lower", "train_sim_s (reported) on train_clustered"),
    def("storage.cache_hit_rate", "ratio", "higher", "train_sim_s (reported) on train_clustered"),
    def("storage.pipeline_stall_ms", "ms/stmt", "lower", "rows_per_s on train_clustered"),
    def("storage.pipeline_backpressure_ms", "ms/stmt", "lower", "rows_per_s on train_clustered"),
    def("shuffle.fill_ns_per_tuple", "ns/tuple", "lower", "rows_per_s on train_clustered (0 on predict_serve: the no-change control)"),
    def("shuffle.fills", "fills/stmt", "lower", "rows_per_s on train_clustered"),
    def("shuffle.tuples_per_fill", "tuples/fill", "higher", "rows_per_s on train_clustered"),
    def("exec.sgd_ns_per_tuple", "ns/tuple", "lower", "rows_per_s on train_clustered"),
    def("exec.predict_ns_per_row", "ns/row", "lower", "rows_per_s on predict_serve"),
    def("ml.sgd_ns_per_tuple", "ns/tuple", "lower", "rows_per_s on train_clustered"),
    def("ml.flops_per_tuple", "flop/tuple", "lower", "rows_per_s on train_clustered"),
    def("serving.pin_us", "us/stmt", "lower", "stmt_ms_p50 on predict_serve"),
    def("serving.cache_hit_rate", "ratio", "higher", "stmt_ms_p50 on predict_serve"),
    def("telemetry.overhead_pct", "%", "lower", "every end-to-end metric; predicted about 0"),
    def("trace.overhead_pct", "%", "lower", "none: traced against untraced statement wall"),
    def("trace.unattributed_pct", "%", "lower", "none: statement wall no named layer covers"),
];

/// The definition of `name` among [`END_TO_END`] and [`PER_LAYER`].
pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory")
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json = benchmark_json();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"better\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn manifest_maps_every_layer_metric_to_what_it_moves() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/manifest.json");
        let manifest = std::fs::read_to_string(path).expect("manifest.json");
        for d in PER_LAYER {
            let entry = format!("{{\"name\": \"{}\", \"moves\": \"{}\"}}", d.name, d.note);
            assert!(manifest.contains(&entry), "manifest.json lacks {entry}");
        }
        assert_eq!(manifest.matches("\"moves\":").count(), PER_LAYER.len());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
