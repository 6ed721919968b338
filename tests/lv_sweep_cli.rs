//! The `lv-sweep` binary end to end: exit codes, verdict lines, the
//! `--cache` snapshot, and the refusals of removed flags, subcommands and
//! file forms.

use llm_vectorizer_repro::core::VerdictCache;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the built `lv-sweep` binary with `args`.
fn lv_sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lv-sweep"))
        .args(args)
        .output()
        .expect("spawn lv-sweep")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lv-sweep-cli-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The `label: Verdict @ stage` lines of a sweep's output.
fn verdict_lines(out: &str) -> Vec<&str> {
    out.lines().filter(|line| line.contains(" @ ")).collect()
}

#[test]
fn bare_sweep_prints_one_verdict_per_job_and_replays_from_its_cache() {
    let dir = temp_dir("bare");
    let cache = dir.join("sweep.cache.json");
    let cache_arg = cache.to_str().unwrap();
    let args = ["--kernels", "s000,s112,s212,vsumr", "--cache", cache_arg];

    let cold = lv_sweep(&args);
    assert!(cold.status.success(), "{}", stderr(&cold));
    let cold_out = stdout(&cold);
    let lines = verdict_lines(&cold_out);
    let labels: Vec<&str> = lines
        .iter()
        .map(|line| line.split(':').next().unwrap())
        .collect();
    assert_eq!(labels, ["s000", "s112", "s212", "vsumr"], "{}", cold_out);
    let snapshot = std::fs::read(&cache).expect("the sweep persists its cache");
    assert_eq!(VerdictCache::open(&cache).unwrap().len(), 4);

    let warm = lv_sweep(&args);
    assert!(warm.status.success(), "{}", stderr(&warm));
    let warm_out = stdout(&warm);
    assert_eq!(verdict_lines(&warm_out), lines, "same verdict lines");
    assert!(
        warm_out.contains("4 answered from the cache"),
        "{}",
        warm_out
    );
    assert_eq!(
        std::fs::read(&cache).unwrap(),
        snapshot,
        "a warm run leaves the cache file byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `vsumr` and `s311r` differ only in their names, so their generated
/// candidates share cache keys; verifying both into one cache must succeed.
#[test]
fn generated_sweep_over_alpha_equivalent_kernels_shares_one_cache() {
    let dir = temp_dir("alpha");
    let cache = dir.join("alpha.json");
    let output = lv_sweep(&[
        "run",
        "--generate",
        "32",
        "--kernels",
        "vsumr,s311r",
        "--cache",
        cache.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "{}", stderr(&output));
    let out = stdout(&output);
    for kernel in ["vsumr", "s311r"] {
        assert!(
            out.lines()
                .any(|line| line.starts_with(&format!("{}: ", kernel))
                    && line.ends_with("/32 plausible")),
            "{} must be reported: {}",
            kernel,
            out
        );
    }
    assert!(out.contains("64 job(s) verified"), "{}", out);
    let entries = VerdictCache::open(&cache).unwrap().len();
    assert!(entries > 0 && entries <= 32, "{} entries", entries);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn removed_shard_flags_and_compact_exit_2_naming_the_layer() {
    for (flag, value) in [
        ("--shards", Some("2")),
        ("--policy", Some("hash")),
        ("--workdir", Some("sweep-dir")),
        ("--timeout-secs", Some("30")),
        ("--fsync", Some("record")),
        ("--flush-every", Some("2")),
        ("--max-cache-entries", Some("10")),
        ("--shard", Some("0/2")),
        ("--manifest", Some("manifest.json")),
        ("--out", Some("sweep-dir")),
        ("--fail-after", Some("1")),
        ("--steal", None),
    ] {
        for prefix in [None, Some("run")] {
            let args: Vec<&str> = prefix.into_iter().chain([flag]).chain(value).collect();
            let output = lv_sweep(&args);
            let message = stderr(&output);
            assert_eq!(output.status.code(), Some(2), "{:?}: {}", args, message);
            assert!(
                message.contains(&format!("{} was removed with its layer", flag)),
                "{:?}: {}",
                args,
                message
            );
            assert!(message.contains("shard"), "{:?}: {}", args, message);
        }
    }
    for args in [&["compact"][..], &["compact", "shard-0.report.json"]] {
        let output = lv_sweep(args);
        let message = stderr(&output);
        assert_eq!(output.status.code(), Some(2), "{:?}: {}", args, message);
        assert!(
            message.contains("compact was removed with its layer (shard report journals)"),
            "{}",
            message
        );
    }
}

/// `run --generate` always overlaps generation with verification; the
/// flag that selected the unoverlapped comparison arm is refused by name.
#[test]
fn the_removed_comparison_arm_exits_2_naming_it() {
    let output = lv_sweep(&["run", "--generate", "1", "--no-overlap"]);
    let message = stderr(&output);
    assert_eq!(output.status.code(), Some(2), "{}", message);
    assert!(
        message.contains(
            "--no-overlap was removed with its layer (the generate-then-verify comparison arm)"
        ),
        "{}",
        message
    );
    assert!(stdout(&output).is_empty(), "{}", stdout(&output));
}

/// Every sweep and daemon runs the default budgets with the blast memo on;
/// the flags that chose smoke-run budgets or switched the memo off are
/// refused by name, with what runs instead, before anything is verified
/// or bound.
#[test]
fn the_removed_budget_and_memo_flags_exit_2_naming_what_runs() {
    for (flag, layer, instead) in [
        (
            "--quick",
            "reduced smoke-run budgets",
            "every job runs the cascade in its one order under fixed budgets",
        ),
        (
            "--no-reuse",
            "the memo-off engine",
            "every job runs with the blast memo on",
        ),
    ] {
        for args in [
            &[flag][..],
            &["run", flag],
            &["run", "--generate", "1", flag],
            &["serve", "--addr", "127.0.0.1:0", flag],
        ] {
            let output = lv_sweep(args);
            let message = stderr(&output);
            assert_eq!(output.status.code(), Some(2), "{:?}: {}", args, message);
            assert!(
                message.contains(&format!("{} was removed with its layer ({})", flag, layer)),
                "{:?}: {}",
                args,
                message
            );
            assert!(message.contains(instead), "{:?}: {}", args, message);
            assert!(
                stdout(&output).is_empty(),
                "{:?}: {}",
                args,
                stdout(&output)
            );
        }
    }
}

/// A seed only means something for generated jobs: `submit` refuses it
/// without `--generate`, as `run` does, before connecting to any daemon.
#[test]
fn a_generation_seed_without_generate_exits_2() {
    for args in [
        &["run", "--gen-seed", "7"][..],
        &["submit", "--gen-seed", "7", "--addr", "127.0.0.1:9"],
    ] {
        let output = lv_sweep(args);
        let message = stderr(&output);
        assert_eq!(output.status.code(), Some(2), "{:?}: {}", args, message);
        assert!(
            message.contains("--gen-seed needs --generate K (completions per kernel)"),
            "{:?}: {}",
            args,
            message
        );
        assert!(
            stdout(&output).is_empty(),
            "{:?}: {}",
            args,
            stdout(&output)
        );
    }
}

#[test]
fn shard_files_given_to_cache_stats_exit_1_naming_the_form() {
    let dir = temp_dir("forms");
    for (file, contents, form) in [
        (
            "shard-0.report.json",
            "{\"journal\":\"shard-report\",\"version\":1,\"shard\":0,\"shards\":2,\
             \"fingerprint\":\"d5d4940c130e4c27\"} 49683cfa\n",
            "shard report journal",
        ),
        (
            "manifest.json",
            "{\"version\":1,\"fingerprint\":\"d5d4940c130e4c27\",\"shards\":2,\
             \"policy\":\"hash-mod\",\"threads\":0,\"jobs\":[]}\n",
            "shard manifest",
        ),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, contents).unwrap();
        let output = lv_sweep(&["cache", "stats", path.to_str().unwrap()]);
        let message = stderr(&output);
        assert_eq!(output.status.code(), Some(1), "{}: {}", file, message);
        assert!(message.contains(form), "{}: {}", file, message);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            contents,
            "a refused file is left as it was"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unknown_kernel_name_exits_2_naming_it() {
    for args in [
        &["--kernels", "s000,s0000"][..],
        &["run", "--generate", "2", "--kernels", "s0000"],
        &["submit", "--kernels", "s000,s0000"],
    ] {
        let output = lv_sweep(args);
        let message = stderr(&output);
        assert_eq!(output.status.code(), Some(2), "{:?}: {}", args, message);
        assert!(
            message.contains("no TSVC kernel named s0000"),
            "{:?}: {}",
            args,
            message
        );
        assert!(stdout(&output).is_empty(), "{:?} must verify nothing", args);
    }
}
