//! Per-layer tracing from the benchmark's own files. Nothing is added
//! inside the program: traced phases run the public cascade stages
//! themselves, one `WorkerState` per worker, timing each stage call, and
//! the layers a stage or the daemon calls internally (the `tv` front end,
//! `cir`, the wire codec) are timed by calling the same public functions
//! on the same inputs.

use crate::metrics::{metric, ratio, Metric};
use crate::workload;
use lv_cir::ast::{BinOp, Expr, Function, UnOp};
use lv_core::service::wire::{decode_message_frame, encode_message};
use lv_core::service::{Message, VerdictFrame};
use lv_core::{
    BatchObserver, CachedVerdict, ChecksumStage, Equivalence, Job, JobReport, Stage,
    StrategyOutcome, SymbolicStage, VerificationStrategy, WorkerState,
};
use lv_tv::{SymExecConfig, SymbolicStrategy};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Counters of one cascade stage, summed over workers.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageTotals {
    pub calls: u64,
    pub busy: Duration,
    pub conclusive: u64,
    pub queries: u64,
    pub conflicts: u64,
    pub decisions: u64,
    pub clauses: u64,
    pub blast_hits: u64,
    pub blast_misses: u64,
}

/// One symbolic stage call, kept so its front end can be replayed.
#[derive(Debug)]
struct SymbolicCall {
    stage: Stage,
    queries: u64,
    scalar: Function,
    candidate: Function,
}

/// What the stage wrappers recorded.
#[derive(Debug, Default)]
pub struct StageTrace {
    totals: Mutex<[StageTotals; 4]>,
    calls: Mutex<Vec<SymbolicCall>>,
}

fn slot(stage: Stage) -> usize {
    match stage {
        Stage::Checksum => 0,
        Stage::Alive2 => 1,
        Stage::CUnroll => 2,
        Stage::Splitting => 3,
    }
}

/// A fresh worker state with the shipped reuse (the blast memo).
pub fn worker_state() -> WorkerState {
    WorkerState::with_reuse(workload::reuse().tv())
}

/// The shipped cascade, run one job at a time on a caller's worker state,
/// with every stage call timed and counted into a [`StageTrace`].
pub struct Cascade {
    stages: Vec<Box<dyn VerificationStrategy>>,
    trace: StageTrace,
}

impl Cascade {
    /// Algorithm 1 with the workload's stage configurations.
    pub fn new() -> Cascade {
        let pipeline = workload::pipeline();
        let tv = pipeline.tv;
        let symbolic = |strategy| Box::new(SymbolicStage::new(strategy, tv.clone()));
        Cascade {
            stages: vec![
                Box::new(ChecksumStage::new(pipeline.checksum)),
                symbolic(SymbolicStrategy::Alive2Unroll),
                symbolic(SymbolicStrategy::CUnroll),
                symbolic(SymbolicStrategy::SpatialSplitting),
            ],
            trace: StageTrace::default(),
        }
    }

    /// What the stage calls recorded so far.
    pub fn trace(&self) -> &StageTrace {
        &self.trace
    }

    /// Runs the stages in order until one concludes, as the engine does:
    /// with none conclusive the verdict is `Inconclusive` at the last stage.
    pub fn verify(&self, job: &Job, worker: &mut WorkerState) -> CachedVerdict {
        worker.checksum = None;
        let mut last = (Stage::Alive2, String::new());
        for strategy in &self.stages {
            match self.timed(strategy.as_ref(), job, worker) {
                StrategyOutcome::Conclusive { verdict, detail } => {
                    return CachedVerdict {
                        verdict,
                        stage: strategy.stage(),
                        detail,
                        checksum: worker.checksum,
                    }
                }
                StrategyOutcome::Continue { reason } => last = (strategy.stage(), reason),
            }
        }
        CachedVerdict {
            verdict: Equivalence::Inconclusive,
            stage: last.0,
            detail: last.1,
            checksum: worker.checksum,
        }
    }

    fn timed(
        &self,
        strategy: &dyn VerificationStrategy,
        job: &Job,
        worker: &mut WorkerState,
    ) -> StrategyOutcome {
        let (stats, reuse) = (worker.session.stats, worker.session.reuse_stats());
        let start = Instant::now();
        let outcome = strategy.verify(&job.scalar, &job.candidate, worker);
        let busy = start.elapsed();
        let (after, reuse_after) = (worker.session.stats, worker.session.reuse_stats());
        let stage = strategy.stage();
        let queries = after.queries - stats.queries;
        {
            let mut totals = self.trace.totals.lock().expect("trace lock poisoned");
            let t = &mut totals[slot(stage)];
            t.calls += 1;
            t.busy += busy;
            t.conclusive += u64::from(matches!(outcome, StrategyOutcome::Conclusive { .. }));
            t.queries += queries;
            t.conflicts += after.conflicts - stats.conflicts;
            t.decisions += after.decisions - stats.decisions;
            t.clauses += after.clauses - stats.clauses;
            t.blast_hits += reuse_after.blast_hits - reuse.blast_hits;
            t.blast_misses += reuse_after.blast_misses - reuse.blast_misses;
        }
        if stage != Stage::Checksum {
            self.trace
                .calls
                .lock()
                .expect("trace lock poisoned")
                .push(SymbolicCall {
                    stage,
                    queries,
                    scalar: job.scalar.clone(),
                    candidate: job.candidate.clone(),
                });
        }
        outcome
    }
}

impl StageTrace {
    /// The per-stage totals so far.
    pub fn totals(&self) -> [StageTotals; 4] {
        *self.totals.lock().expect("trace lock poisoned")
    }

    /// Replays the `tv` front end of every recorded symbolic call on the
    /// same inputs: `align` once per call, `c_unroll` once per C-unroll
    /// call, and one `sym_exec` of each side per refinement query, as the
    /// strategies do.
    pub fn replay_front_end(&self) -> FrontEnd {
        let tv = workload::pipeline().tv;
        let mut front = FrontEnd::default();
        for call in self.calls.lock().expect("trace lock poisoned").iter() {
            let start = Instant::now();
            let alignment = black_box(lv_tv::align(&call.scalar, &call.candidate));
            front.align += start.elapsed();
            let Ok(alignment) = alignment else { continue };
            let m = alignment.unroll_factor.unsigned_abs() as usize;
            let source = if call.stage == Stage::CUnroll {
                let start = Instant::now();
                let unrolled = black_box(lv_tv::c_unroll(&call.scalar, m));
                front.cunroll += start.elapsed();
                match unrolled {
                    Ok(unrolled) => unrolled,
                    Err(_) => continue,
                }
            } else {
                call.scalar.clone()
            };
            if call.queries == 0 {
                continue;
            }
            let Some((n, array_len)) = bound_binding(&alignment, m, tv.array_slack) else {
                continue;
            };
            let scalar_params = source.scalar_params().into_iter();
            let config = SymExecConfig {
                scalar_bindings: scalar_params
                    .chain(call.candidate.scalar_params())
                    .map(|name| (name.to_string(), n))
                    .collect(),
                array_len,
                max_iterations: tv.max_iterations,
                input_prefix: String::new(),
            };
            let mut ctx = lv_smt::Context::new();
            let start = Instant::now();
            let _ = black_box(lv_tv::sym_exec(&mut ctx, &source, &config));
            let _ = black_box(lv_tv::sym_exec(&mut ctx, &call.candidate, &config));
            front.symexec += start.elapsed() * call.queries as u32;
        }
        front
    }
}

/// Replayed `tv` front-end time, summed over calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct FrontEnd {
    pub align: Duration,
    pub cunroll: Duration,
    pub symexec: Duration,
}

impl FrontEnd {
    fn total(&self) -> Duration {
        self.align + self.cunroll + self.symexec
    }
}

/// The bound-parameter value that makes the scalar loop run `trip`
/// iterations, and the modelled array length, of a one-chunk refinement
/// query.
fn bound_binding(alignment: &lv_tv::Alignment, trip: usize, slack: usize) -> Option<(i32, usize)> {
    let l = &alignment.scalar_loop;
    let start = l.start.as_int_lit()?;
    let step = alignment.scalar_step;
    let n = (0..=(4 * trip as i64 + 64)).find(|&n| {
        let Some(bound) = eval_bound(&l.bound, n) else {
            return false;
        };
        let (mut i, mut count) = (start, 0usize);
        while count <= trip + 1 {
            let go = match l.cond_op {
                BinOp::Lt => i < bound,
                BinOp::Le => i <= bound,
                BinOp::Ne => i != bound,
                BinOp::Gt => i > bound,
                BinOp::Ge => i >= bound,
                _ => false,
            };
            if !go {
                break;
            }
            count += 1;
            i += step;
        }
        count == trip
    })?;
    let array_len = start.max(0) as usize + trip * step.unsigned_abs() as usize + slack;
    Some((i32::try_from(n).ok()?, array_len))
}

/// A loop-bound expression with every variable set to `n`.
fn eval_bound(expr: &Expr, n: i64) -> Option<i64> {
    match expr {
        Expr::IntLit(v) => Some(*v),
        Expr::Var(_) => Some(n),
        Expr::Unary {
            op: UnOp::Neg,
            expr,
        } => Some(-eval_bound(expr, n)?),
        Expr::Binary { op, lhs, rhs } => {
            let (l, r) = (eval_bound(lhs, n)?, eval_bound(rhs, n)?);
            match op {
                BinOp::Add => Some(l + r),
                BinOp::Sub => Some(l - r),
                BinOp::Mul => Some(l * r),
                BinOp::Div => (r != 0).then(|| l / r),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Per-job costs of the `cir` printer, parser and structural hash and of
/// the `LVSV` wire codec, as one warm round trip spends them: the client
/// prints both functions and encodes a `Submit` frame, the daemon decodes
/// it, parses both functions, hashes the cache key, and encodes the
/// `Verdict` frame the client decodes.
#[derive(Debug, Default, Clone, Copy)]
pub struct CirWire {
    pub print: Duration,
    pub parse: Duration,
    pub hash: Duration,
    pub encode: Duration,
    pub decode: Duration,
    pub bytes: u64,
    pub jobs: usize,
}

/// Times the `cir` and wire calls of a warm round trip on each job.
pub fn replay_cir_wire(jobs: &[Job], verdicts: &[CachedVerdict]) -> CirWire {
    let mut out = CirWire::default();
    for (index, (job, verdict)) in jobs.iter().zip(verdicts).enumerate() {
        let Job {
            label,
            scalar,
            candidate,
        } = job;
        let start = Instant::now();
        let printed = (
            lv_cir::print_function(scalar),
            lv_cir::print_function(candidate),
        );
        out.print += start.elapsed();
        let submit = Message::Submit {
            label: label.clone(),
            scalar: printed.0.clone(),
            candidate: printed.1.clone(),
        };
        let reply = Message::Verdict(VerdictFrame {
            index: index as u32,
            label: label.clone(),
            cache_hit: true,
            verdict: verdict.clone(),
        });
        let start = Instant::now();
        let frames = (encode_message(&submit), encode_message(&reply));
        out.encode += start.elapsed();
        out.bytes += (frames.0.len() + frames.1.len()) as u64;
        let start = Instant::now();
        let decoded = (
            decode_message_frame(&frames.0),
            decode_message_frame(&frames.1),
        );
        out.decode += start.elapsed();
        assert!(
            decoded.0.is_ok() && decoded.1.is_ok(),
            "wire round trip failed"
        );
        let start = Instant::now();
        let parsed = (
            lv_cir::parse_function(&printed.0),
            lv_cir::parse_function(&printed.1),
        );
        out.parse += start.elapsed();
        let (Ok(parsed_scalar), Ok(parsed_candidate)) = parsed else {
            panic!("printed function of {} does not parse", label);
        };
        let start = Instant::now();
        black_box(lv_cir::structural_hash(&parsed_scalar));
        black_box(workload::candidate_hash(&parsed_scalar, &parsed_candidate));
        out.hash += start.elapsed();
        out.jobs += 1;
    }
    out
}

/// Records per-job latency from the engine's `job_started` to its
/// `job_finished`, for jobs that ran the cascade. Cache hits (in-sweep
/// dedupe, 7–16 µs each) are left out: they form a separate mode far below
/// the cascade's, and a percentile falling in the gap between the two
/// would jump from seed to seed.
#[derive(Debug, Default)]
pub struct LatencyObserver {
    started: Mutex<HashMap<usize, Instant>>,
    latencies: Mutex<Vec<Duration>>,
}

impl LatencyObserver {
    /// Takes the recorded latencies.
    pub fn take(&self) -> Vec<Duration> {
        std::mem::take(&mut *self.latencies.lock().expect("observer lock poisoned"))
    }
}

impl BatchObserver for LatencyObserver {
    fn job_started(&self, index: usize, _job: &Job) {
        let now = Instant::now();
        self.started
            .lock()
            .expect("observer lock poisoned")
            .insert(index, now);
    }

    fn job_finished(&self, index: usize, report: &JobReport) {
        let now = Instant::now();
        let started = self
            .started
            .lock()
            .expect("observer lock poisoned")
            .remove(&index);
        if let (Some(started), false) = (started, report.cache_hit) {
            self.latencies
                .lock()
                .expect("observer lock poisoned")
                .push(now - started);
        }
    }
}

/// Everything a traced run measured, turned into the per-layer metrics.
#[derive(Debug, Default)]
pub struct Layers {
    pub stages: [StageTotals; 4],
    pub front: FrontEnd,
    pub cir_wire: CirWire,
    /// `cir` hashing done outside the daemon (the cold sweep's cache keys).
    pub key_hash: Duration,
    pub cache_get: Duration,
    pub cache_gets: usize,
    pub cache_insert: Duration,
    pub cache_inserts: usize,
    pub cache_persist: Duration,
    pub cache_persists: usize,
    pub cache_open: Duration,
    pub cache_opens: usize,
    pub gen: Duration,
    pub gen_cells: usize,
    pub queue_waits: Vec<Duration>,
    /// Jobs the untraced phase completed.
    pub jobs: usize,
    /// Threads the untraced phase kept busy (workers or clients).
    pub threads: usize,
    /// Whether the cache persists counted above ran inside the timed phase
    /// (the cold sweep) rather than in set-up.
    pub persist_timed: bool,
    pub untraced_wall: Duration,
    pub traced_wall: Duration,
}

fn us_per(total: Duration, count: usize) -> f64 {
    ratio(total.as_secs_f64() * 1e6, count as f64)
}

fn ms_per(total: Duration, count: usize) -> f64 {
    ratio(total.as_secs_f64() * 1e3, count as f64)
}

impl Layers {
    /// Symbolic stage time minus the replayed front end.
    fn smt_busy(&self) -> f64 {
        let symbolic: Duration = self.stages[1..].iter().map(|s| s.busy).sum();
        (symbolic.as_secs_f64() - self.front.total().as_secs_f64()).max(0.0)
    }

    /// Self time of each layer in thread-seconds, scaled to the untraced
    /// phase's job count where the layer was timed per job.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let per_job = |total: Duration, count: usize| {
            ratio(total.as_secs_f64(), count as f64) * self.jobs as f64
        };
        let cw = &self.cir_wire;
        let persist = if self.persist_timed {
            self.cache_persist.as_secs_f64()
        } else {
            0.0
        };
        vec![
            ("checksum", self.stages[0].busy.as_secs_f64()),
            ("tv front end", self.front.total().as_secs_f64()),
            ("smt", self.smt_busy()),
            (
                "cir",
                per_job(cw.print + cw.parse + cw.hash, cw.jobs) + self.key_hash.as_secs_f64(),
            ),
            ("wire", per_job(cw.encode + cw.decode, cw.jobs)),
            (
                "cache",
                per_job(self.cache_get, self.cache_gets)
                    + per_job(self.cache_insert, self.cache_inserts)
                    + persist,
            ),
        ]
    }

    /// The untraced phase's thread-seconds no layer accounts for.
    pub fn unattributed(&self) -> f64 {
        let attributed: f64 = self.self_times().iter().map(|(_, s)| s).sum();
        self.threads as f64 * self.untraced_wall.as_secs_f64() - attributed
    }

    /// Prints each layer's self time next to the untraced wall time.
    pub fn print_attribution(&self) {
        let budget = self.threads as f64 * self.untraced_wall.as_secs_f64();
        println!(
            "layer self time vs untraced wall {:.3} s x {} threads = {:.3} thread-s:",
            self.untraced_wall.as_secs_f64(),
            self.threads,
            budget
        );
        for (layer, secs) in self.self_times() {
            println!(
                "  {:<14} {:>10.4} s {:>6.1}%",
                layer,
                secs,
                100.0 * ratio(secs, budget)
            );
        }
        let rest = self.unattributed();
        println!(
            "  {:<14} {:>10.4} s {:>6.1}%",
            "unattributed",
            rest,
            100.0 * ratio(rest, budget)
        );
        println!(
            "tracing overhead: traced wall {:.4} s - untraced wall {:.4} s = {:.4} s",
            self.traced_wall.as_secs_f64(),
            self.untraced_wall.as_secs_f64(),
            self.traced_wall.as_secs_f64() - self.untraced_wall.as_secs_f64()
        );
    }

    /// The per-layer metrics, in `metrics::PER_LAYER` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let [checksum, alive2, cunroll, splitting] = self.stages;
        let symbolic = [alive2, cunroll, splitting];
        let sum = |f: fn(&StageTotals) -> u64| symbolic.iter().map(f).sum::<u64>() as f64;
        let smt_busy = self.smt_busy();
        let conflicts = sum(|s| s.conflicts);
        let cw = &self.cir_wire;
        let waits: Vec<f64> = crate::metrics::millis(&self.queue_waits);
        let mut out = vec![
            metric("checksum.busy_s", checksum.busy.as_secs_f64(), "s"),
            metric("checksum.calls", checksum.calls as f64, "count"),
            metric(
                "checksum.kill_frac",
                ratio(checksum.conclusive as f64, checksum.calls as f64),
                "ratio",
            ),
            metric("tv.align_s", self.front.align.as_secs_f64(), "s"),
            metric("tv.cunroll_s", self.front.cunroll.as_secs_f64(), "s"),
            metric("tv.symexec_s", self.front.symexec.as_secs_f64(), "s"),
        ];
        let stage_names = [
            ("alive2.busy_s", "alive2.calls", "alive2.conclusive_frac"),
            ("cunroll.busy_s", "cunroll.calls", "cunroll.conclusive_frac"),
            (
                "splitting.busy_s",
                "splitting.calls",
                "splitting.conclusive_frac",
            ),
        ];
        for (s, (busy, calls, conclusive)) in symbolic.iter().zip(stage_names) {
            out.push(metric(busy, s.busy.as_secs_f64(), "s"));
            out.push(metric(calls, s.calls as f64, "count"));
            out.push(metric(
                conclusive,
                ratio(s.conclusive as f64, s.calls as f64),
                "ratio",
            ));
        }
        out.extend([
            metric("smt.busy_s", smt_busy, "s"),
            metric("smt.queries", sum(|s| s.queries), "count"),
            metric("smt.conflicts", conflicts, "count"),
            metric("smt.decisions", sum(|s| s.decisions), "count"),
            metric("smt.clauses", sum(|s| s.clauses), "count"),
            metric("smt.conflicts_per_s", ratio(conflicts, smt_busy), "1/s"),
            metric("smt.blast_hits", sum(|s| s.blast_hits), "count"),
            metric("smt.blast_misses", sum(|s| s.blast_misses), "count"),
            metric("cir.print_us", us_per(cw.print, cw.jobs), "us"),
            metric("cir.parse_us", us_per(cw.parse, cw.jobs), "us"),
            metric(
                "cir.hash_us",
                us_per(cw.hash, cw.jobs) + us_per(self.key_hash, self.cache_gets),
                "us",
            ),
            metric("wire.encode_us", us_per(cw.encode, cw.jobs), "us"),
            metric("wire.decode_us", us_per(cw.decode, cw.jobs), "us"),
            metric(
                "wire.bytes_per_job",
                ratio(cw.bytes as f64, cw.jobs as f64),
                "B",
            ),
            metric(
                "cache.get_us",
                us_per(self.cache_get, self.cache_gets),
                "us",
            ),
            metric(
                "cache.insert_us",
                us_per(self.cache_insert, self.cache_inserts),
                "us",
            ),
            metric(
                "cache.persist_ms",
                ms_per(self.cache_persist, self.cache_persists),
                "ms",
            ),
            metric(
                "cache.open_ms",
                ms_per(self.cache_open, self.cache_opens),
                "ms",
            ),
            metric(
                "agents.gen_ms_per_cell",
                ms_per(self.gen, self.gen_cells),
                "ms",
            ),
            metric("engine.unattributed_s", self.unattributed(), "s"),
            metric(
                "engine.queue_wait_ms",
                ratio(waits.iter().sum(), waits.len() as f64),
                "ms",
            ),
            metric(
                "trace.untraced_wall_s",
                self.untraced_wall.as_secs_f64(),
                "s",
            ),
            metric("trace.traced_wall_s", self.traced_wall.as_secs_f64(), "s"),
            metric(
                "trace.overhead_s",
                self.traced_wall.as_secs_f64() - self.untraced_wall.as_secs_f64(),
                "s",
            ),
        ]);
        out
    }
}
