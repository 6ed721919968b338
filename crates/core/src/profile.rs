//! The persisted cross-run telemetry profile.
//!
//! The [`FunnelReport`](crate::FunnelReport) aggregates one batch's stage
//! telemetry and the [`AdaptiveBudgetPolicy`](crate::AdaptiveBudgetPolicy)
//! tunes budgets from a *pilot slice* of the same batch — but everything
//! either learns dies with the process. A [`CrossRunProfile`] is the
//! cross-run memory: per kernel category ([`lv_analysis::KernelCategory`])
//! and per cascade stage it accumulates how many jobs reached the stage, how
//! many it killed, and how much wall time and SAT effort it spent, over
//! *every* sweep that ever recorded into it. From a loaded profile,
//! [`StageSchedule::from_profile`](crate::engine::StageSchedule::from_profile)
//! derives the per-category stage order and
//! [`AdaptiveBudgetPolicy::derive_from_profile`](crate::AdaptiveBudgetPolicy::derive_from_profile)
//! derives tightened budgets for the next run — no pilot slice needed.
//!
//! # File format
//!
//! The profile persists as a CRC-framed append-only journal
//! ([`crate::journal`] documents the framing), conventionally next to the
//! verdict cache:
//!
//! * header record: `{"journal":"cross-run-profile","version":1}`;
//! * one record per `(category, stage)` cell **delta**:
//!   `{"category":"reduction","stage":"alive2","entered":…,"killed":…,
//!   "wall_us":…,"conflicts":…,"cmax_conflicts":…,"cmax_clauses":…}` with
//!   every count a 16-digit lower-case hex `u64`, exactly like the verdict
//!   cache's hashes.
//!
//! Each sweep appends its own deltas ([`CrossRunProfile::append_to`]) —
//! O(cells) I/O, at most `categories × stages` records per run — and replay
//! *sums* the deltas (`entered`/`killed`/`wall_us`/`conflicts`) and *maxes*
//! the conclusive-effort highwater marks (`cmax_*`). A torn final record
//! (process killed mid-append) is detected by checksum and truncated like
//! any other journal; [`CrossRunProfile::rewrite`] compacts the accumulated
//! deltas into one record per cell.
//!
//! # Invalidation rules
//!
//! The profile is *advisory*: it decides stage order and budgets, never
//! verdicts, so it needs no content addressing — stale observations only
//! cost efficiency, not correctness. The `version` field guards the format
//! and the categorizer's semantics together: bump it when the record layout
//! *or* [`lv_analysis::categorize`]'s bucketing changes, and readers reject
//! other versions (reported as an error, never silently discarded). Budget
//! observations made under one solver configuration are capped at the
//! *current* base budgets on derivation, so a profile recorded under looser
//! budgets can only ever tighten.

use crate::cache::{parse_hex, parse_stage, stage_tag};
use crate::engine::{Job, JobReport};
use crate::journal::{self, FsyncPolicy, JournalWriter};
use crate::pipeline::Stage;
use lv_analysis::{categorize, KernelCategory};
use serde::json::{Emitter, Value};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// The profile journal format version; readers reject other values.
pub const PROFILE_FORMAT_VERSION: i64 = 1;

/// The journal-header kind tag for profile journals.
pub(crate) const PROFILE_JOURNAL_KIND: &str = "cross-run-profile";

/// Accumulated telemetry for one `(category, stage)` cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileCell {
    /// Stage executions (jobs of the category whose cascade reached the
    /// stage).
    pub entered: u64,
    /// Executions that concluded with a verdict.
    pub killed: u64,
    /// Total stage wall time, in microseconds.
    pub wall_us: u64,
    /// Total SAT conflicts spent.
    pub conflicts: u64,
    /// Largest conflict count among conclusive executions — what budget
    /// derivation caps toward.
    pub conclusive_max_conflicts: u64,
    /// Largest clause count among conclusive executions.
    pub conclusive_max_clauses: u64,
    /// Variables removed by CNF preprocessing
    /// ([`JobReport::simplify`](crate::JobReport)), attributed to the job's
    /// concluding stage. Older journals without the field replay as `0`.
    pub vars_eliminated: u64,
    /// Clauses deleted by subsumption, attributed like `vars_eliminated`.
    pub clauses_subsumed: u64,
    /// Clauses shortened by self-subsuming resolution, attributed like
    /// `vars_eliminated`.
    pub clauses_strengthened: u64,
}

impl ProfileCell {
    fn absorb(&mut self, other: &ProfileCell) {
        self.entered += other.entered;
        self.killed += other.killed;
        self.wall_us += other.wall_us;
        self.conflicts += other.conflicts;
        self.conclusive_max_conflicts = self
            .conclusive_max_conflicts
            .max(other.conclusive_max_conflicts);
        self.conclusive_max_clauses = self
            .conclusive_max_clauses
            .max(other.conclusive_max_clauses);
        self.vars_eliminated += other.vars_eliminated;
        self.clauses_subsumed += other.clauses_subsumed;
        self.clauses_strengthened += other.clauses_strengthened;
    }
}

/// Per-category per-stage telemetry accumulated across runs. See the
/// [module docs](self) for the persistence contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrossRunProfile {
    cells: BTreeMap<(KernelCategory, Stage), ProfileCell>,
}

impl CrossRunProfile {
    /// An empty profile.
    pub fn new() -> CrossRunProfile {
        CrossRunProfile::default()
    }

    /// `true` when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Number of populated `(category, stage)` cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// The accumulated cell for `(category, stage)`, if any job of that
    /// category ever reached that stage.
    pub fn cell(&self, category: KernelCategory, stage: Stage) -> Option<&ProfileCell> {
        self.cells.get(&(category, stage))
    }

    /// All populated cells, in stable `(category, stage)` order.
    pub fn cells(&self) -> impl Iterator<Item = (KernelCategory, Stage, &ProfileCell)> {
        self.cells.iter().map(|((c, s), cell)| (*c, *s, cell))
    }

    /// Records one job's stage traces under its scalar kernel's category.
    /// Cache hits contribute nothing (they carry no traces — the stages they
    /// would have run were never executed).
    pub fn observe(&mut self, category: KernelCategory, report: &JobReport) {
        for trace in &report.traces {
            let cell = self.cells.entry((category, trace.stage)).or_default();
            cell.entered += 1;
            cell.wall_us += u64::try_from(trace.wall.as_micros()).unwrap_or(u64::MAX);
            cell.conflicts += trace.conflicts;
            if trace.conclusive {
                cell.killed += 1;
                cell.conclusive_max_conflicts = cell.conclusive_max_conflicts.max(trace.conflicts);
                cell.conclusive_max_clauses = cell.conclusive_max_clauses.max(trace.clauses);
            }
        }
        // Preprocessing activity is counted per job, not per trace;
        // attribute it to the concluding stage's cell (the stage whose
        // queries it mostly shrank).
        if !report.traces.is_empty() {
            let simplify = report.simplify;
            if simplify.vars_eliminated | simplify.clauses_subsumed | simplify.clauses_strengthened
                != 0
            {
                let cell = self.cells.entry((category, report.stage)).or_default();
                cell.vars_eliminated += simplify.vars_eliminated;
                cell.clauses_subsumed += simplify.clauses_subsumed;
                cell.clauses_strengthened += simplify.clauses_strengthened;
            }
        }
    }

    /// The profile delta of one finished batch: every report is categorized
    /// by its job's scalar kernel and observed. `jobs` and `reports` pair up
    /// by index (the engine keeps batch reports in job order).
    pub fn from_batch(jobs: &[Job], reports: &[JobReport]) -> CrossRunProfile {
        let mut delta = CrossRunProfile::new();
        for (job, report) in jobs.iter().zip(reports) {
            // Trace-less reports (cache hits) contribute nothing; skip them
            // before paying for the dependence analysis, so a fully warm
            // sweep's (empty) delta costs no categorization at all.
            if !report.traces.is_empty() {
                delta.observe(categorize(&job.scalar), report);
            }
        }
        delta
    }

    /// Merges `other`'s observations into this profile.
    pub fn merge(&mut self, other: &CrossRunProfile) {
        for ((category, stage), cell) in &other.cells {
            self.cells
                .entry((*category, *stage))
                .or_default()
                .absorb(cell);
        }
    }

    /// Loads a profile journal. A missing file is an empty profile; a
    /// malformed one is an error (never silently discarded). A torn final
    /// record is truncated per the journal contract.
    pub fn load(path: impl AsRef<Path>) -> io::Result<CrossRunProfile> {
        let invalid = |reason: String| io::Error::new(io::ErrorKind::InvalidData, reason);
        let text = match std::fs::read_to_string(path.as_ref()) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(CrossRunProfile::new()),
            Err(e) => return Err(e),
            Ok(text) => text,
        };
        if !journal::is_journal(&text) {
            return Err(invalid(format!(
                "{} is not a cross-run profile journal",
                path.as_ref().display()
            )));
        }
        let replayed = journal::replay(&text).map_err(invalid)?;
        journal::check_header(&replayed, PROFILE_JOURNAL_KIND, PROFILE_FORMAT_VERSION)
            .map_err(invalid)?;
        let mut profile = CrossRunProfile::new();
        for record in &replayed.records {
            let (category, stage, cell) = parse_cell(record).map_err(invalid)?;
            profile
                .cells
                .entry((category, stage))
                .or_default()
                .absorb(&cell);
        }
        Ok(profile)
    }

    /// Appends this profile's cells as delta records to the journal at
    /// `path` (created with a header if missing; an existing journal's torn
    /// tail is truncated first). This is how a sweep commits its run: load
    /// the cumulative profile, compute the batch delta with
    /// [`CrossRunProfile::from_batch`], `append_to` the delta, and
    /// [`merge`](CrossRunProfile::merge) it into the in-memory cumulative
    /// view.
    pub fn append_to(&self, path: impl AsRef<Path>, fsync: FsyncPolicy) -> io::Result<()> {
        if self.is_empty() {
            return Ok(());
        }
        let path = path.as_ref();
        let invalid = |reason: String| io::Error::new(io::ErrorKind::InvalidData, reason);
        let mut writer = match std::fs::read_to_string(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                JournalWriter::create(path, fsync, emit_profile_header)?
            }
            Err(e) => return Err(e),
            Ok(text) => {
                if !journal::is_journal(&text) {
                    return Err(invalid(format!(
                        "{} exists but is not a cross-run profile journal",
                        path.display()
                    )));
                }
                let replayed = journal::replay(&text).map_err(invalid)?;
                journal::check_header(&replayed, PROFILE_JOURNAL_KIND, PROFILE_FORMAT_VERSION)
                    .map_err(invalid)?;
                if replayed.valid_len == 0 {
                    // Torn at creation: start over.
                    JournalWriter::create(path, fsync, emit_profile_header)?
                } else {
                    JournalWriter::open_append(path, fsync, replayed.valid_len)?
                }
            }
        };
        for ((category, stage), cell) in &self.cells {
            writer.append(|e| emit_cell(e, *category, *stage, cell))?;
        }
        writer.flush()
    }

    /// Compacts the journal at `path` to exactly this profile's accumulated
    /// cells — one record per cell — atomically (temp file + rename, synced
    /// before the rename). `lv-sweep compact` uses this on long-lived
    /// profiles whose per-run deltas have piled up.
    pub fn rewrite(&self, path: impl AsRef<Path>, fsync: FsyncPolicy) -> io::Result<()> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        let mut writer = JournalWriter::create(&tmp, fsync, emit_profile_header)?;
        for ((category, stage), cell) in &self.cells {
            writer.append(|e| emit_cell(e, *category, *stage, cell))?;
        }
        writer.sync()?;
        drop(writer);
        std::fs::rename(&tmp, path)
    }
}

fn emit_profile_header(e: &mut Emitter<&mut Vec<u8>>) -> io::Result<()> {
    e.begin_object()?;
    e.field_str("journal", PROFILE_JOURNAL_KIND)?;
    e.field_int("version", PROFILE_FORMAT_VERSION)?;
    e.end_object()
}

fn emit_cell(
    e: &mut Emitter<&mut Vec<u8>>,
    category: KernelCategory,
    stage: Stage,
    cell: &ProfileCell,
) -> io::Result<()> {
    e.begin_object()?;
    e.field_str("category", category.tag())?;
    e.field_str("stage", stage_tag(stage))?;
    e.field_hex("entered", cell.entered)?;
    e.field_hex("killed", cell.killed)?;
    e.field_hex("wall_us", cell.wall_us)?;
    e.field_hex("conflicts", cell.conflicts)?;
    e.field_hex("cmax_conflicts", cell.conclusive_max_conflicts)?;
    e.field_hex("cmax_clauses", cell.conclusive_max_clauses)?;
    e.field_hex("vars_eliminated", cell.vars_eliminated)?;
    e.field_hex("clauses_subsumed", cell.clauses_subsumed)?;
    e.field_hex("clauses_strengthened", cell.clauses_strengthened)?;
    e.end_object()
}

fn parse_cell(record: &Value) -> Result<(KernelCategory, Stage, ProfileCell), String> {
    let field = |key: &str| -> Result<&str, String> {
        record
            .get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("profile record is missing `{}`", key))
    };
    let category = KernelCategory::from_tag(field("category")?)?;
    let stage = parse_stage(field("stage")?)?;
    let cell = ProfileCell {
        entered: parse_hex(record.get("entered"), "entered")?,
        killed: parse_hex(record.get("killed"), "killed")?,
        wall_us: parse_hex(record.get("wall_us"), "wall_us")?,
        conflicts: parse_hex(record.get("conflicts"), "conflicts")?,
        conclusive_max_conflicts: parse_hex(record.get("cmax_conflicts"), "cmax_conflicts")?,
        conclusive_max_clauses: parse_hex(record.get("cmax_clauses"), "cmax_clauses")?,
        // Added after format version 1 shipped; journals written before them
        // simply lack the fields, and absence means zero. Fields of deleted
        // counters in older journals are ignored.
        vars_eliminated: match record.get("vars_eliminated") {
            None => 0,
            some => parse_hex(some, "vars_eliminated")?,
        },
        clauses_subsumed: match record.get("clauses_subsumed") {
            None => 0,
            some => parse_hex(some, "clauses_subsumed")?,
        },
        clauses_strengthened: match record.get("clauses_strengthened") {
            None => 0,
            some => parse_hex(some, "clauses_strengthened")?,
        },
    };
    if cell.killed > cell.entered {
        return Err(format!(
            "profile cell ({}, {}) kills more than entered it ({} > {})",
            category.tag(),
            stage_tag(stage),
            cell.killed,
            cell.entered
        ));
    }
    Ok((category, stage, cell))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StageTrace;
    use crate::pipeline::Equivalence;
    use std::path::PathBuf;
    use std::time::Duration;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lv-profile-{}-{}.json", tag, std::process::id()))
    }

    fn report(traces: Vec<StageTrace>) -> JobReport {
        JobReport {
            label: "job".to_string(),
            verdict: Equivalence::Equivalent,
            stage: traces.last().map_or(Stage::Alive2, |t| t.stage),
            detail: String::new(),
            checksum: None,
            traces,
            wall: Duration::ZERO,
            cache_hit: false,
            reuse: Default::default(),
            simplify: Default::default(),
        }
    }

    fn trace(stage: Stage, conclusive: bool, conflicts: u64, wall_us: u64) -> StageTrace {
        StageTrace {
            stage,
            conclusive,
            wall: Duration::from_micros(wall_us),
            conflicts,
            clauses: conflicts * 10,
            name_mismatch: false,
        }
    }

    fn sample_profile() -> CrossRunProfile {
        let mut profile = CrossRunProfile::new();
        profile.observe(
            KernelCategory::Reduction,
            &report(vec![
                trace(Stage::Checksum, false, 0, 100),
                trace(Stage::Alive2, false, 5_000, 9_000),
                trace(Stage::CUnroll, true, 400, 2_000),
            ]),
        );
        profile.observe(
            KernelCategory::Reduction,
            &report(vec![
                trace(Stage::Checksum, false, 0, 90),
                trace(Stage::Alive2, false, 5_000, 9_100),
                trace(Stage::CUnroll, true, 900, 2_500),
            ]),
        );
        profile.observe(
            KernelCategory::DependenceFree,
            &report(vec![
                trace(Stage::Checksum, false, 0, 80),
                trace(Stage::Alive2, true, 50, 500),
            ]),
        );
        profile
    }

    #[test]
    fn observations_accumulate_per_category_and_stage() {
        let profile = sample_profile();
        let cunroll = profile
            .cell(KernelCategory::Reduction, Stage::CUnroll)
            .unwrap();
        assert_eq!(cunroll.entered, 2);
        assert_eq!(cunroll.killed, 2);
        assert_eq!(cunroll.wall_us, 4_500);
        assert_eq!(cunroll.conflicts, 1_300);
        assert_eq!(cunroll.conclusive_max_conflicts, 900);
        assert_eq!(cunroll.conclusive_max_clauses, 9_000);
        let alive2 = profile
            .cell(KernelCategory::Reduction, Stage::Alive2)
            .unwrap();
        assert_eq!(alive2.killed, 0, "inconclusive runs kill nothing");
        assert!(profile
            .cell(KernelCategory::Conditional, Stage::Alive2)
            .is_none());
    }

    #[test]
    fn journal_round_trip_accumulates_deltas() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        assert!(CrossRunProfile::load(&path).unwrap().is_empty());

        let delta = sample_profile();
        delta.append_to(&path, FsyncPolicy::OnCompact).unwrap();
        let loaded = CrossRunProfile::load(&path).unwrap();
        assert_eq!(loaded, delta, "one append replays to itself");

        // A second run's delta sums counts and maxes highwater marks.
        delta.append_to(&path, FsyncPolicy::OnCompact).unwrap();
        let doubled = CrossRunProfile::load(&path).unwrap();
        let cell = doubled
            .cell(KernelCategory::Reduction, Stage::CUnroll)
            .unwrap();
        assert_eq!(cell.entered, 4);
        assert_eq!(cell.wall_us, 9_000);
        assert_eq!(cell.conclusive_max_conflicts, 900, "max, not sum");

        // Compaction rewrites to one record per cell and replays identically.
        doubled.rewrite(&path, FsyncPolicy::OnCompact).unwrap();
        assert_eq!(CrossRunProfile::load(&path).unwrap(), doubled);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text.lines().count(),
            1 + doubled.len(),
            "header + one record per cell"
        );

        // Journals from builds that still had the portfolio carry an
        // `escalations` count in every record; it is ignored on load and
        // every other count replays unchanged.
        let _ = std::fs::remove_file(&path);
        let mut writer =
            JournalWriter::create(&path, FsyncPolicy::OnCompact, emit_profile_header).unwrap();
        for (category, stage, cell) in delta.cells() {
            writer
                .append(|e| {
                    e.begin_object()?;
                    e.field_str("category", category.tag())?;
                    e.field_str("stage", stage_tag(stage))?;
                    e.field_hex("entered", cell.entered)?;
                    e.field_hex("killed", cell.killed)?;
                    e.field_hex("wall_us", cell.wall_us)?;
                    e.field_hex("conflicts", cell.conflicts)?;
                    e.field_hex("cmax_conflicts", cell.conclusive_max_conflicts)?;
                    e.field_hex("cmax_clauses", cell.conclusive_max_clauses)?;
                    e.field_hex("escalations", 3)?;
                    e.field_hex("vars_eliminated", cell.vars_eliminated)?;
                    e.field_hex("clauses_subsumed", cell.clauses_subsumed)?;
                    e.field_hex("clauses_strengthened", cell.clauses_strengthened)?;
                    e.end_object()
                })
                .unwrap();
        }
        writer.flush().unwrap();
        drop(writer);
        assert_eq!(CrossRunProfile::load(&path).unwrap(), delta);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_interior_corruption_rejected() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        sample_profile()
            .append_to(&path, FsyncPolicy::OnCompact)
            .unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        let cells = sample_profile().len();

        // Tear the final record: one cell is lost, nothing mis-parses.
        std::fs::write(&path, &full[..full.len() - 4]).unwrap();
        let torn = CrossRunProfile::load(&path).unwrap();
        assert_eq!(torn.len(), cells - 1);

        // Corrupt an interior record: hard error.
        let target = full.find("\"category\":\"reduction\"").unwrap();
        let mut bytes = full.clone().into_bytes();
        bytes[target + 13] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        let err = CrossRunProfile::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_profile_files_are_rejected() {
        let path = temp_path("reject");
        std::fs::write(&path, "{\"version\":1,\"entries\":[]}\n").unwrap();
        assert!(CrossRunProfile::load(&path).is_err());
        assert!(sample_profile()
            .append_to(&path, FsyncPolicy::OnCompact)
            .is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn merge_matches_journal_accumulation() {
        let mut merged = sample_profile();
        merged.merge(&sample_profile());
        let cell = merged
            .cell(KernelCategory::Reduction, Stage::Checksum)
            .unwrap();
        assert_eq!(cell.entered, 4);
        assert_eq!(cell.wall_us, 380);
    }

    #[test]
    fn from_batch_categorizes_by_scalar() {
        use lv_cir::parse_function;
        let scalar = parse_function(
            "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }",
        )
        .unwrap();
        let jobs = vec![Job::new("s000", scalar.clone(), scalar)];
        let reports = vec![report(vec![trace(Stage::Checksum, true, 0, 10)])];
        let delta = CrossRunProfile::from_batch(&jobs, &reports);
        assert!(delta
            .cell(KernelCategory::DependenceFree, Stage::Checksum)
            .is_some());

        // Cache hits (no traces) contribute nothing.
        let cached = JobReport {
            traces: Vec::new(),
            cache_hit: true,
            ..reports[0].clone()
        };
        let empty = CrossRunProfile::from_batch(&jobs, &[cached]);
        assert!(empty.is_empty());
    }
}
