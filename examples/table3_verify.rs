//! Reproduces Table 3: the equivalence-checking funnel over the embedded
//! TSVC suite, followed by Figure 6's speedups for the verified kernels.
//!
//! Table 3's verdicts stream through a `StreamObserver` — one
//! `[n] kernel: Verdict @ stage` line per kernel as its verdict lands, `n`
//! counting finished jobs — before the paper-shaped table and the
//! telemetry funnel are printed. Figure 6 runs no verification of its own,
//! so its rows are printed once the cost model has computed them all.

use llm_vectorizer_repro::core::{figure6, table3, ExperimentConfig, StreamObserver};

fn main() {
    let config = ExperimentConfig::default();
    let observer = StreamObserver::new(std::io::stdout());
    println!("=== streaming verdicts ===");
    let table = table3(&config, &observer);
    println!("=== Table 3: verification funnel ===");
    println!("{}", table.render());
    println!("=== telemetry funnel ===");
    println!("{}", table.funnel.render());
    let fig = figure6(&config, &table.verdicts);
    println!("=== Figure 6: speedups of verified kernels ===");
    println!("{}", fig.render());
}
