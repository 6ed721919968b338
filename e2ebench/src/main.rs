//! End-to-end benchmark of the Table 3 verifier.
//!
//! ```text
//! lv_e2ebench --workload cold_sweep|warm_daemon|passk_stream|all
//!             [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Builds the workload from `--seed` (default [`workload::DEFAULT_SEED`]),
//! drives the shipped `lv-sweep` engine configuration through `lv_core`'s
//! public API for about `--seconds` of work, checks every verdict with the
//! oracle, and prints each metric as `name value unit`, then one JSON result
//! line. `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! same work untraced and then traced, and reports the per-layer metrics.
//! `--smoke` runs a category-covering slice and exits non-zero unless the
//! oracle passes and every metric is printed with its unit. See README.md.

mod cold;
mod metrics;
mod oracle;
mod passk;
mod trace;
mod warm;
mod workload;

use metrics::Metric;
use oracle::Oracle;
use std::path::{Path, PathBuf};
use trace::Layers;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl Args {
    /// Repetitions of a workload's unit of work: `per_second` for every
    /// second of `--seconds`, fixed by the arguments alone so that inputs and
    /// counts repeat exactly; one in smoke mode.
    fn rounds(&self, per_second: f64) -> usize {
        if self.smoke {
            1
        } else {
            ((self.seconds * per_second).round() as usize).max(1)
        }
    }

    /// How many times set-up runs; `setup_s` is the median.
    fn setup_repeats(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }
}

/// What one workload run produced.
pub struct Outcome {
    /// Latency samples (jobs or round trips).
    units: usize,
    oracle: Oracle,
    /// The end-to-end metrics.
    metrics: Vec<Metric>,
    /// The traced run's layers, with `--trace 1`.
    layers: Option<Layers>,
}

type Workload = fn(&Args, &Path) -> Outcome;

const WORKLOADS: [(&str, Workload); 3] = [
    ("cold_sweep", cold::run),
    ("warm_daemon", warm::run),
    ("passk_stream", passk::run),
];

/// Latency samples a measured run needs, so that ten lie beyond p90.
const MIN_UNITS: usize = 100;

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: workload::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = argv
            .next()
            .ok_or_else(|| format!("{} needs a value", flag))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                args.seed = parsed.map_err(|_| format!("bad --seed `{}`", value))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{}`", value))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{}` (0 or 1)", value)),
                }
            }
            _ => return Err(format!("unknown argument `{}`", flag)),
        }
    }
    if args.workload != "all" && !WORKLOADS.iter().any(|(name, _)| *name == args.workload) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

/// Runs one workload, prints its report, and returns its verdict counts
/// and reported metrics.
fn run_workload(args: &Args, name: &str, run: Workload, dir: &Path) -> (Oracle, Vec<Metric>) {
    println!(
        "== {} (seed {:#x}, {} s of work, trace {}{}) ==",
        name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { ", smoke" } else { "" }
    );
    let Outcome {
        units,
        mut oracle,
        metrics,
        layers,
    } = run(args, dir);
    if units < MIN_UNITS && !args.smoke {
        oracle.fail(format!(
            "only {} latency samples; at least {} needed",
            units, MIN_UNITS
        ));
    }
    println!(
        "verdicts: {} jobs checked, {} failed (failed_frac {:.6}), {} latency samples",
        oracle.attempted,
        oracle.failed,
        oracle.failed_frac(),
        units
    );
    for violation in &oracle.violations {
        println!("  oracle: {}", violation);
    }
    metrics::print_metrics(&metrics);
    let reported = match layers {
        Some(layers) => {
            layers.print_attribution();
            let per_layer = layers.metrics();
            metrics::print_metrics(&per_layer);
            per_layer
        }
        None => metrics,
    };
    (oracle, reported)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lv_e2ebench: {}", e);
            std::process::exit(2);
        }
    };
    // Scratch files (cache files) live inside the working directory.
    let root = PathBuf::from(".bench_work");
    let dir = root.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("lv_e2ebench: cannot create {}: {}", dir.display(), e);
        std::process::exit(2);
    }

    let selected: Vec<(&str, Workload)> = WORKLOADS
        .into_iter()
        .filter(|(name, _)| args.workload == "all" || *name == args.workload)
        .collect();
    let prefixed = selected.len() > 1;
    let (mut attempted, mut failed) = (0, 0);
    let mut all_metrics = Vec::new();
    let mut names_ok = true;
    for (name, run) in selected {
        let (oracle, reported) = run_workload(&args, name, run, &dir);
        attempted += oracle.attempted;
        failed += oracle.failed.min(oracle.attempted);
        let expected = if args.trace {
            metrics::PER_LAYER
        } else {
            metrics::END_TO_END
        };
        if let Err(e) = metrics::check_names(&reported, expected) {
            eprintln!("lv_e2ebench: {}: {}", name, e);
            names_ok = false;
        }
        all_metrics.extend(reported.into_iter().map(|m| Metric {
            name: if prefixed {
                format!("{}.{}", name, m.name)
            } else {
                m.name
            },
            ..m
        }));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(&root);

    let correct = failed == 0 && names_ok;
    println!(
        "{}",
        metrics::result_line(correct, attempted.max(1), failed, &all_metrics)
    );
    if args.smoke && !correct {
        std::process::exit(1);
    }
}
