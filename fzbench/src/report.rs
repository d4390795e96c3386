//! Metric catalog, the machine fingerprint and the result line.
//!
//! The catalog is the single list of metric names and units; the result
//! line prints exactly these names (end-to-end ones untraced, per-layer
//! ones traced), and a test pins `BENCHMARK.json` to it.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("disk_bytes_per_object", "B"),
    ("aknn_p50_ms", "ms"),
    ("aknn_p99_ms", "ms"),
    ("rknn_p50_ms", "ms"),
    ("rknn_p99_ms", "ms"),
    ("max_qps", "1/s"),
    ("qps", "1/s"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("compact_s", "s"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("server.service_ms_p50", "ms"),
    ("server.service_ms_p99", "ms"),
    ("server.overhead_ms_p50", "ms"),
    ("server.overhead_ms_p99", "ms"),
    ("server.busy_frac", "ratio"),
    ("server.request_encode_us", "us"),
    ("server.response_decode_us", "us"),
    ("loadgen.lag_ms_p99", "ms"),
    ("query.self_us_per_query", "us"),
    ("query.share", "ratio"),
    ("query.bound_evals_per_query", "count"),
    ("query.probes_per_result", "count"),
    ("query.aknn_calls_per_rknn", "count"),
    ("query.candidates_per_rknn", "count"),
    ("store.probe_us", "us"),
    ("store.probes_per_query", "count"),
    ("store.bytes_per_probe", "B"),
    ("store.share", "ratio"),
    ("index.read_node_us", "us"),
    ("index.node_reads_per_query", "count"),
    ("index.pool_miss_ratio", "ratio"),
    ("index.share", "ratio"),
    ("index.delta_node_reads_per_query", "count"),
    ("kernel.alpha_dist_us", "us"),
    ("kernel.calls_per_query", "count"),
    ("kernel.seed_prune_ratio", "ratio"),
    ("kernel.share", "ratio"),
    ("profile.call_us", "us"),
    ("profile.calls_per_rknn", "count"),
    ("profile.share", "ratio"),
    ("epoch.commit_ms", "ms"),
    ("overlay.save_delta_ms", "ms"),
    ("overlay.bytes_written_per_update", "B"),
    ("overlay.compact_ms", "ms"),
    ("setup.store_write_s", "s"),
    ("setup.index_build_s", "s"),
    ("setup.open_s", "s"),
];

/// Extra per-layer metric: traced minus untraced time per request.
pub const TRACE_OVERHEAD: (&str, &str) = ("trace.overhead_us_per_query", "us");

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations issued (queries and write batches).
    pub attempted: u64,
    /// Operations that failed: wrong answers, refusals, errors.
    pub failed: u64,
    /// Every metric the run measured.
    pub metrics: Metrics,
}

impl Outcome {
    /// The catalog this run reports: end-to-end untraced, per-layer traced.
    pub fn catalog(trace: bool) -> Vec<(&'static str, &'static str)> {
        if trace {
            PER_LAYER.iter().copied().chain([TRACE_OVERHEAD]).collect()
        } else {
            END_TO_END.to_vec()
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every catalog metric with its unit. A metric the run
    /// did not measure is a bug in the benchmark, so it panics.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = Self::catalog(trace)
            .into_iter()
            .map(|(name, unit)| {
                let value = *self
                    .metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads the machine offers (`available_parallelism`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The run's fingerprint as one JSON object: machine, toolchain, source
/// revision, build profile, seed and the thread/connection counts used.
pub fn fingerprint(workload: &str, seed: u64, trace: bool, threads: &[(&str, usize)]) -> String {
    let threads: Vec<String> =
        threads.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"available_parallelism\": {}, \
         \"cpu_model\": {}, \"rustc\": {}, \"git_sha\": {}, \"profile\": {}, \"threads\": {{{}}}}}",
        json_str(workload),
        nproc(),
        json_str(&cpu_model()),
        json_str(env!("FZBENCH_RUSTC")),
        json_str(env!("FZBENCH_GIT_SHA")),
        json_str(env!("FZBENCH_PROFILE")),
        threads.join(", ")
    )
}
