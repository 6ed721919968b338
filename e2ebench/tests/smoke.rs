//! The benchmark's own test: smoke mode on every workload, untraced and
//! traced. Smoke mode runs a category-covering slice, puts every verdict
//! through the oracle, and exits non-zero unless the oracle passes and
//! every metric is printed by name with its unit.

use std::process::Command;

fn smoke(trace: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_lv_e2ebench"))
        .args(["--workload", "all", "--smoke", "--trace", trace])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run (trace {}) failed:\n{}\n{}",
        trace,
        stdout,
        String::from_utf8_lossy(&out.stderr)
    );
    for workload in ["cold_sweep", "warm_daemon", "passk_stream"] {
        assert!(
            stdout.contains(&format!("== {} ", workload)),
            "{} missing",
            workload
        );
    }
    let result = stdout.lines().last().expect("a result line");
    assert!(result.starts_with("{\"correct\": true, "), "{}", result);
}

#[test]
fn smoke_untraced_passes_the_oracle_and_prints_every_metric() {
    smoke("0");
}

#[test]
fn smoke_traced_passes_the_oracle_and_prints_every_metric() {
    smoke("1");
}
