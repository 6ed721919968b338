//! Streaming observation of batch runs.
//!
//! A [`BatchObserver`] receives callbacks from
//! [`VerificationEngine::run_batch_observed`](crate::VerificationEngine::run_batch_observed)
//! *as the worker pool makes progress*: when a job is claimed, after each
//! cascade stage, and when a job's verdict is final. This is what lets a
//! long sweep render its table incrementally instead of sitting silent until
//! the whole [`BatchReport`](crate::BatchReport) is assembled
//! ([`crate::table3`] and the verification service's streamed verdicts).
//!
//! Observers only stream. A run's counts and classes — stage runs, cache
//! hits, verdicts per job — are read from the `BatchReport` the run
//! returns, whose reports are in job order.
//!
//! Callbacks are invoked from worker threads (hence `Send + Sync + &self`)
//! and in *completion* order, which is nondeterministic under `threads > 1`;
//! the job `index` parameter identifies the job within its batch. Observers
//! must not block for long — the worker that fired the callback cannot claim
//! its next job until the callback returns.

use crate::engine::{Job, JobReport, StageTrace};
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Callbacks fired by the engine while a batch is running.
///
/// All methods have empty defaults, so an observer only implements the
/// events it cares about.
pub trait BatchObserver: Send + Sync {
    /// A worker claimed job `index` and is about to run its cascade.
    fn job_started(&self, index: usize, job: &Job) {
        let _ = (index, job);
    }

    /// One cascade stage of job `index` finished (conclusive or not). Not
    /// fired for cache hits, which run no stages.
    fn stage_finished(&self, index: usize, job: &Job, trace: &StageTrace) {
        let _ = (index, job, trace);
    }

    /// Job `index` has its final verdict.
    fn job_finished(&self, index: usize, report: &JobReport) {
        let _ = (index, report);
    }
}

/// The do-nothing observer behind the non-observed engine entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl BatchObserver for NoopObserver {}

/// Renders one line per finished job to a writer, in completion order — the
/// incremental view of a sweep's table. The prefix counts finished jobs; it
/// has no total, because a driver such as [`crate::table3`] only knows its
/// job count once its candidates are generated.
///
/// ```text
/// [ 3] s112: Equivalent @ C-Unroll (102ms)
/// [ 4] s000: Equivalent @ Alive2 (cached)
/// ```
#[derive(Debug)]
pub struct StreamObserver<W: Write + Send> {
    out: Mutex<W>,
    done: AtomicUsize,
}

impl<W: Write + Send> StreamObserver<W> {
    /// Streams to `out`.
    pub fn new(out: W) -> StreamObserver<W> {
        StreamObserver {
            out: Mutex::new(out),
            done: AtomicUsize::new(0),
        }
    }

    /// Consumes the observer and returns the writer.
    pub fn into_inner(self) -> W {
        self.out.into_inner().unwrap()
    }
}

impl<W: Write + Send> BatchObserver for StreamObserver<W> {
    fn job_finished(&self, _index: usize, report: &JobReport) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let suffix = if report.cache_hit {
            "(cached)".to_string()
        } else {
            format!("({}ms)", report.wall.as_millis())
        };
        let mut out = self.out.lock().unwrap();
        // A failed write must not poison the batch; progress output is
        // best-effort.
        let _ = writeln!(
            out,
            "[{:>2}] {}: {:?} @ {} {}",
            done,
            report.label,
            report.verdict,
            report.stage.label(),
            suffix
        );
    }
}

/// Invokes a closure for every finished job — the adapter that lets a
/// caller stream verdicts somewhere custom (the verification service
/// forwards each one onto its client's socket) without writing an observer
/// type.
pub struct CallbackObserver<F: Fn(usize, &JobReport) + Send + Sync> {
    callback: F,
}

impl<F: Fn(usize, &JobReport) + Send + Sync> CallbackObserver<F> {
    /// Wraps `callback`, which receives `(index, report)` for each
    /// finished job, in completion order, from worker threads.
    pub fn new(callback: F) -> CallbackObserver<F> {
        CallbackObserver { callback }
    }
}

impl<F: Fn(usize, &JobReport) + Send + Sync> BatchObserver for CallbackObserver<F> {
    fn job_finished(&self, index: usize, report: &JobReport) {
        (self.callback)(index, report);
    }
}

impl<F: Fn(usize, &JobReport) + Send + Sync> std::fmt::Debug for CallbackObserver<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CallbackObserver")
    }
}

impl std::fmt::Debug for dyn BatchObserver + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dyn BatchObserver")
    }
}
