//! Named metrics, the summary statistics behind them, and the result line.

use crate::oracle::Oracle;
use std::time::Duration;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// The unit.
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The end-to-end metrics every workload reports with tracing off, with
/// their units: the names `--smoke` checks for.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("verified_frac", "ratio"),
    ("conclusive_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("checksum.busy_s", "s"),
    ("checksum.calls", "count"),
    ("checksum.kill_frac", "ratio"),
    ("tv.align_s", "s"),
    ("tv.cunroll_s", "s"),
    ("tv.symexec_s", "s"),
    ("alive2.busy_s", "s"),
    ("alive2.calls", "count"),
    ("alive2.conclusive_frac", "ratio"),
    ("cunroll.busy_s", "s"),
    ("cunroll.calls", "count"),
    ("cunroll.conclusive_frac", "ratio"),
    ("splitting.busy_s", "s"),
    ("splitting.calls", "count"),
    ("splitting.conclusive_frac", "ratio"),
    ("smt.busy_s", "s"),
    ("smt.queries", "count"),
    ("smt.conflicts", "count"),
    ("smt.decisions", "count"),
    ("smt.clauses", "count"),
    ("smt.conflicts_per_s", "1/s"),
    ("smt.blast_hits", "count"),
    ("smt.blast_misses", "count"),
    ("cir.print_us", "us"),
    ("cir.parse_us", "us"),
    ("cir.hash_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes_per_job", "B"),
    ("cache.get_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.persist_ms", "ms"),
    ("cache.open_ms", "ms"),
    ("agents.gen_ms_per_cell", "ms"),
    ("engine.unattributed_s", "s"),
    ("engine.queue_wait_ms", "ms"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
];

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `values` (0 for none).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Milliseconds of each duration.
pub fn millis(durations: &[Duration]) -> Vec<f64> {
    durations.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

/// The end-to-end metrics of a run, in [`END_TO_END`] order: `setup_s` is
/// the median set-up time, `jobs_per_s` the checked jobs over the timed
/// phase's `wall`, the latencies those of the run's units.
pub fn end_to_end(
    setup_times: &[f64],
    wall: Duration,
    latencies: &[Duration],
    oracle: &Oracle,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let latencies = millis(latencies);
    vec![
        metric("setup_s", median(setup_times), "s"),
        metric(
            "jobs_per_s",
            oracle.attempted as f64 / wall.as_secs_f64(),
            "1/s",
        ),
        metric("latency_p50_ms", percentile(&latencies, 0.5), "ms"),
        metric("latency_p90_ms", percentile(&latencies, 0.9), "ms"),
        metric("verified_frac", oracle.verified_frac(), "ratio"),
        metric("conclusive_frac", oracle.conclusive_frac(), "ratio"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Prints one `name value unit` line per metric.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric with its unit. Values keep all their digits.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        attempted,
        failed,
        body.join(", ")
    )
}

/// Checks that `metrics` holds exactly the names of `expected`, each once,
/// with the expected unit and a finite value.
pub fn check_names(metrics: &[Metric], expected: &[(&str, &str)]) -> Result<(), String> {
    if metrics.len() != expected.len() {
        return Err(format!(
            "{} metrics reported, {} expected",
            metrics.len(),
            expected.len()
        ));
    }
    for (name, unit) in expected {
        let found: Vec<&Metric> = metrics.iter().filter(|m| m.name == *name).collect();
        match found.as_slice() {
            [m] if m.unit == *unit && m.value.is_finite() => {}
            [m] => return Err(format!("{}: unit {} value {}", name, m.unit, m.value)),
            _ => return Err(format!("{} reported {} times", name, found.len())),
        }
    }
    Ok(())
}
