//! On-disk exchange formats for sharded sweeps.
//!
//! See the [module docs](crate::shard) for the format overview. Everything
//! here reuses the `serde` shim's [`json`] document model and the verdict
//! cache's conventions: `u64` values travel as 16-digit lower-case hex
//! strings, enum payloads as stable string tags, and the whole-file
//! manifest is written atomically (temp file + rename) so a reader never
//! observes a torn write. Serialization streams through the shim's
//! [`Emitter`] — no intermediate document tree or `String` on the per-record
//! paths. Functions travel as printed C source —
//! [`lv_cir::printer::print_function`] followed by [`lv_cir::parse_function`]
//! yields a structurally equal AST, so content hashes (and therefore shard
//! assignment, cache keys, and verdicts) are unaffected by the round trip.
//!
//! The shard report has one on-disk form: an **append-only journal**
//! ([`ShardReportJournal`]) whose header carries the shard/fingerprint
//! metadata and whose records are the individual job entries — the
//! O(record)-flush form shard workers write and [`ShardReportFile::load`]
//! reads. The whole-file snapshot report document of earlier builds
//! (`{"version":…,"jobs":[…]}`) is refused with [`ShardError::Format`].

use crate::cache::{
    emit_checksum, hex, parse_checksum, parse_hex, parse_stage, parse_verdict, stage_tag,
    verdict_tag, write_atomic_stream,
};
use crate::engine::{EngineConfig, EngineReuse, Job, JobReport, ReuseCounters, StageTrace};
use crate::journal::{self, FsyncPolicy, JournalWriter};
use crate::pipeline::PipelineConfig;
use crate::shard::{ShardError, ShardPlan, ShardPolicy};
use lv_cir::ast::Function;
use lv_cir::printer::print_function;
use lv_interp::{ChecksumConfig, ExecConfig};
use lv_tv::{SolverBudget, TvConfig};
use serde::json::{self, Emitter, Value};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The manifest / shard-report format version; readers reject other values.
pub const SHARD_FORMAT_VERSION: i64 = 1;

/// The journal-header kind tag for shard-report journals.
pub(crate) const REPORT_JOURNAL_KIND: &str = "shard-report";

fn int_field(value: &Value, key: &str) -> Result<i64, String> {
    value
        .get(key)
        .and_then(Value::as_int)
        .ok_or_else(|| format!("missing integer field `{}`", key))
}

fn str_field<'a>(value: &'a Value, key: &str) -> Result<&'a str, String> {
    value
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string field `{}`", key))
}

fn bool_field(value: &Value, key: &str) -> Result<bool, String> {
    match value.get(key) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(format!("missing boolean field `{}`", key)),
    }
}

/// A boolean field that older documents may lack; absent means `false`.
fn opt_bool_field(value: &Value, key: &str) -> Result<bool, String> {
    match value.get(key) {
        None => Ok(false),
        Some(Value::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("field `{}` is not a boolean", key)),
    }
}

fn usize_field(value: &Value, key: &str) -> Result<usize, String> {
    usize::try_from(int_field(value, key)?)
        .map_err(|_| format!("field `{}` does not fit a usize", key))
}

// ---------------------------------------------------------------------------
// Engine-configuration serialization.
// ---------------------------------------------------------------------------

/// Layers that manifests from earlier builds may still switch. Off is what
/// this build runs anyway; on cannot be honoured, so it is refused.
const REMOVED_REUSE_LAYERS: [&str; 4] = [
    "portfolio",
    "simplify_inprocess",
    "incremental",
    "simplify_preprocess",
];

fn parse_reuse(obj: &Value) -> Result<EngineReuse, String> {
    for layer in REMOVED_REUSE_LAYERS {
        if opt_bool_field(obj, layer)? {
            return Err(format!(
                "manifest enables the removed `{}` reuse layer",
                layer
            ));
        }
    }
    Ok(EngineReuse {
        memo: bool_field(obj, "memo")?,
    })
}

fn budget_value(budget: SolverBudget) -> Value {
    Value::Object(vec![
        ("max_conflicts".to_string(), hex(budget.max_conflicts)),
        ("max_clauses".to_string(), hex(budget.max_clauses as u64)),
    ])
}

fn parse_budget(value: &Value, key: &str) -> Result<SolverBudget, String> {
    let obj = value
        .get(key)
        .ok_or_else(|| format!("missing budget object `{}`", key))?;
    Ok(SolverBudget {
        max_conflicts: parse_hex(obj.get("max_conflicts"), "max_conflicts")?,
        max_clauses: usize::try_from(parse_hex(obj.get("max_clauses"), "max_clauses")?)
            .map_err(|_| "max_clauses does not fit a usize".to_string())?,
    })
}

fn checksum_config_value(config: &ChecksumConfig) -> Value {
    let mut overrides: Vec<(&String, &i32)> = config.scalar_overrides.iter().collect();
    overrides.sort();
    Value::Object(vec![
        ("n".to_string(), Value::Int(i64::from(config.n))),
        ("trials".to_string(), Value::Int(i64::from(config.trials))),
        ("seed".to_string(), hex(config.seed)),
        ("slack".to_string(), Value::Int(config.slack as i64)),
        (
            "value_range".to_string(),
            Value::Array(vec![
                Value::Int(i64::from(config.value_range.0)),
                Value::Int(i64::from(config.value_range.1)),
            ]),
        ),
        (
            "scalar_overrides".to_string(),
            Value::Object(
                overrides
                    .into_iter()
                    .map(|(name, value)| (name.clone(), Value::Int(i64::from(*value))))
                    .collect(),
            ),
        ),
        ("max_steps".to_string(), hex(config.exec.max_steps)),
    ])
}

fn parse_checksum_config(value: &Value) -> Result<ChecksumConfig, String> {
    let obj = value
        .get("checksum")
        .ok_or_else(|| "missing `checksum` configuration".to_string())?;
    let range = obj
        .get("value_range")
        .and_then(Value::as_array)
        .filter(|a| a.len() == 2)
        .ok_or_else(|| "missing `value_range` pair".to_string())?;
    let range_int = |v: &Value| -> Result<i32, String> {
        v.as_int()
            .and_then(|i| i32::try_from(i).ok())
            .ok_or_else(|| "value_range entry is not an i32".to_string())
    };
    let overrides = match obj.get("scalar_overrides") {
        Some(Value::Object(entries)) => entries
            .iter()
            .map(|(name, value)| {
                value
                    .as_int()
                    .and_then(|i| i32::try_from(i).ok())
                    .map(|i| (name.clone(), i))
                    .ok_or_else(|| format!("override `{}` is not an i32", name))
            })
            .collect::<Result<_, _>>()?,
        _ => return Err("missing `scalar_overrides` object".to_string()),
    };
    Ok(ChecksumConfig {
        n: i32::try_from(int_field(obj, "n")?).map_err(|_| "`n` does not fit an i32")?,
        trials: u32::try_from(int_field(obj, "trials")?)
            .map_err(|_| "`trials` does not fit a u32")?,
        seed: parse_hex(obj.get("seed"), "seed")?,
        slack: usize_field(obj, "slack")?,
        value_range: (range_int(&range[0])?, range_int(&range[1])?),
        scalar_overrides: overrides,
        exec: ExecConfig {
            max_steps: parse_hex(obj.get("max_steps"), "max_steps")?,
        },
    })
}

fn tv_config_value(config: &TvConfig) -> Value {
    Value::Object(vec![
        (
            "alive2_budget".to_string(),
            budget_value(config.alive2_budget),
        ),
        (
            "cunroll_budget".to_string(),
            budget_value(config.cunroll_budget),
        ),
        (
            "spatial_budget".to_string(),
            budget_value(config.spatial_budget),
        ),
        (
            "alive2_chunks".to_string(),
            Value::Int(config.alive2_chunks as i64),
        ),
        (
            "array_slack".to_string(),
            Value::Int(config.array_slack as i64),
        ),
        (
            "max_iterations".to_string(),
            Value::Int(config.max_iterations as i64),
        ),
    ])
}

fn parse_tv_config(value: &Value) -> Result<TvConfig, String> {
    let obj = value
        .get("tv")
        .ok_or_else(|| "missing `tv` configuration".to_string())?;
    Ok(TvConfig {
        alive2_budget: parse_budget(obj, "alive2_budget")?,
        cunroll_budget: parse_budget(obj, "cunroll_budget")?,
        spatial_budget: parse_budget(obj, "spatial_budget")?,
        alive2_chunks: usize_field(obj, "alive2_chunks")?,
        array_slack: usize_field(obj, "array_slack")?,
        max_iterations: usize_field(obj, "max_iterations")?,
    })
}

// ---------------------------------------------------------------------------
// The manifest.
// ---------------------------------------------------------------------------

/// A manifest's generation spec: instead of shipping every printed
/// candidate, the manifest carries the scalar kernels plus `(k, seed)` and
/// each shard *generates its own share*. Per-cell seeds derive from the
/// base seed with [`lv_agents::derive_cell_seed`], so every participant —
/// coordinator, any worker, any thief — materializes bit-identical
/// candidates for any cell without coordination. Job `index` is cell
/// `(index / k, index % k)` of the kernel grid, labeled `name#j` — the same
/// grid (and therefore the same candidates and labels) as the in-process
/// overlapped driver [`crate::passk::overlapped_pass_at_k`] over the same
/// kernel list and base seed.
#[derive(Debug, Clone)]
pub struct GenerationSpec {
    /// The scalar kernels, in grid order: `(label prefix, function)`.
    pub kernels: Vec<(String, Function)>,
    /// Completions sampled per kernel.
    pub k: usize,
    /// The base RNG seed the per-cell seeds derive from.
    pub seed: u64,
}

impl GenerationSpec {
    /// Jobs the spec expands to: `kernels × k`.
    pub fn job_count(&self) -> usize {
        self.kernels.len() * self.k
    }

    /// The label job `index` will carry (`name#j`).
    pub fn label(&self, index: usize) -> String {
        let (i, j) = (index / self.k, index % self.k);
        format!("{}#{}", self.kernels[i].0, j)
    }

    /// Materializes job `index`: samples cell `(index / k, index % k)`
    /// under the derived per-cell seed. Deterministic — any process, any
    /// thread, any call order produces the same job.
    pub fn job(&self, index: usize) -> Job {
        let (i, j) = (index / self.k, index % self.k);
        let (name, scalar) = &self.kernels[i];
        let config = lv_agents::LlmConfig {
            seed: self.seed,
            ..lv_agents::LlmConfig::default()
        };
        let completion = lv_agents::sample_completion_cell(scalar, &config, i, j);
        Job::new(
            format!("{}#{}", name, j),
            scalar.clone(),
            completion.candidate,
        )
    }

    /// Materializes the whole grid, in job order.
    pub fn materialize_jobs(&self) -> Vec<Job> {
        (0..self.job_count()).map(|index| self.job(index)).collect()
    }

    /// The stable per-job plan keys. Candidates do not exist when the plan
    /// is derived, so the key covers the scalar's structural hash and the
    /// generated label — still a pure content function every participant
    /// computes identically, which is all [`ShardPlan`] needs.
    fn job_keys(&self) -> Vec<u64> {
        use lv_cir::hash::{structural_hash, Fnv64};
        let kernel_hashes: Vec<u64> = self
            .kernels
            .iter()
            .map(|(_, scalar)| structural_hash(scalar))
            .collect();
        (0..self.job_count())
            .map(|index| {
                let mut fnv = Fnv64::new();
                fnv.write_u64(kernel_hashes[index / self.k]);
                fnv.write_str(&self.label(index));
                fnv.finish()
            })
            .collect()
    }

    /// The shard plan over the spec's (not-yet-materialized) jobs.
    pub fn plan(&self, shards: usize, policy: ShardPolicy) -> ShardPlan {
        ShardPlan::from_job_keys(&self.job_keys(), shards, policy)
    }
}

/// Refuses a manifest whose `schedule` object names a per-category stage
/// order: earlier builds wrote one, and this build runs every job in the
/// cascade's one order. An absent or empty `schedule` (what earlier builds
/// wrote for the default order) loads unchanged.
fn check_no_schedule(doc: &Value) -> Result<(), ShardError> {
    match doc.get("schedule") {
        None => Ok(()),
        Some(Value::Object(overrides)) if overrides.is_empty() => Ok(()),
        Some(Value::Object(overrides)) => Err(ShardError::Format(format!(
            "manifest carries a per-category stage schedule (`{}`…), a layer this build \
             removed: every job runs the cascade in its one order",
            overrides[0].0
        ))),
        Some(_) => Err(ShardError::Format(
            "`schedule` is not an object".to_string(),
        )),
    }
}

/// The coordinator → worker manifest: the full job list, the shard layout,
/// and the engine configuration (minus the cache — every worker verifies
/// its share with its own in-memory cache).
#[derive(Debug, Clone)]
pub struct SweepManifest {
    /// Number of shards the sweep is partitioned into.
    pub shards: usize,
    /// The partitioning policy.
    pub policy: ShardPolicy,
    /// Worker threads per shard process (`0` = one per CPU).
    pub threads: usize,
    /// The cascade stage list, in execution order.
    pub cascade: Vec<crate::pipeline::Stage>,
    /// Stage configurations.
    pub pipeline: PipelineConfig,
    /// The solver reuse every shard runs with, so that each worker runs the
    /// sweep's configuration exactly. Manifests written before the reuse
    /// subsystem carry no field and mean "memo off".
    pub reuse: EngineReuse,
    /// The sweep's jobs, in batch order. **Empty when [`generation`] is
    /// set** — a generation manifest ships no printed candidates; go
    /// through [`SweepManifest::job`] / [`SweepManifest::job_count`] /
    /// [`SweepManifest::materialize_jobs`], which cover both forms.
    ///
    /// [`generation`]: SweepManifest::generation
    pub jobs: Vec<Job>,
    /// When set, the manifest is a *generation* manifest: the jobs above
    /// are not shipped; every shard materializes its own share from this
    /// spec (deterministically, so all participants agree on every cell).
    /// Manifests written before the overlapped pipeline carry no field and
    /// mean the explicit job list.
    pub generation: Option<GenerationSpec>,
}

impl SweepManifest {
    /// Builds a manifest for `jobs` under `config`, partitioned into
    /// `shards` shards by `policy`. `config.cache` is not part of the
    /// exchange (see the struct docs).
    pub fn new(
        config: &EngineConfig,
        jobs: &[Job],
        shards: usize,
        policy: ShardPolicy,
    ) -> SweepManifest {
        SweepManifest {
            shards: shards.max(1),
            policy,
            threads: config.threads,
            cascade: config.cascade.clone(),
            pipeline: config.pipeline.clone(),
            reuse: config.reuse,
            jobs: jobs.to_vec(),
            generation: None,
        }
    }

    /// Builds a *generation* manifest: no job list travels; every shard
    /// materializes its share from `spec`.
    pub fn from_generation(
        config: &EngineConfig,
        spec: GenerationSpec,
        shards: usize,
        policy: ShardPolicy,
    ) -> SweepManifest {
        SweepManifest {
            shards: shards.max(1),
            policy,
            threads: config.threads,
            cascade: config.cascade.clone(),
            pipeline: config.pipeline.clone(),
            reuse: config.reuse,
            jobs: Vec::new(),
            generation: Some(spec),
        }
    }

    /// Number of jobs the sweep covers, in either manifest form.
    pub fn job_count(&self) -> usize {
        match &self.generation {
            Some(spec) => spec.job_count(),
            None => self.jobs.len(),
        }
    }

    /// Job `index` of the sweep: cloned from the shipped list, or
    /// materialized on the fly from the generation spec — which is what
    /// lets a shard generate its share as the engine consumes it.
    pub fn job(&self, index: usize) -> Job {
        match &self.generation {
            Some(spec) => spec.job(index),
            None => self.jobs[index].clone(),
        }
    }

    /// The full job list, in batch order (materialized for a generation
    /// manifest — the coordinator's merge/recovery paths need it whole).
    pub fn materialize_jobs(&self) -> Vec<Job> {
        match &self.generation {
            Some(spec) => spec.materialize_jobs(),
            None => self.jobs.clone(),
        }
    }

    /// The engine configuration every worker (and the coordinator's
    /// recovery path) runs under. Attach a cache with
    /// [`EngineConfig::with_cache`] before building the engine.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            threads: self.threads,
            cascade: self.cascade.clone(),
            pipeline: self.pipeline.clone(),
            cache: None,
            reuse: self.reuse,
        }
    }

    /// The configuration fingerprint recorded in (and verified against)
    /// the file.
    pub fn fingerprint(&self) -> u64 {
        self.engine_config().semantic_fingerprint()
    }

    /// The shard plan every participant derives from this manifest.
    pub fn plan(&self) -> ShardPlan {
        match &self.generation {
            Some(spec) => spec.plan(self.shards, self.policy),
            None => ShardPlan::new(&self.jobs, self.shards, self.policy),
        }
    }

    /// Streams the manifest document into `w` (jobs are printed and emitted
    /// one at a time, never assembled into a document tree).
    fn write_to<W: io::Write>(&self, w: W) -> io::Result<()> {
        let mut e = Emitter::new(w);
        e.begin_object()?;
        e.field_int("version", SHARD_FORMAT_VERSION)?;
        e.field_hex("fingerprint", self.fingerprint())?;
        e.field_int("shards", self.shards as i64)?;
        e.field_str("policy", self.policy.tag())?;
        e.field_int("threads", self.threads as i64)?;
        e.key("cascade")?;
        e.begin_array()?;
        for stage in &self.cascade {
            e.str(stage_tag(*stage))?;
        }
        e.end_array()?;
        e.key("checksum")?;
        e.value(&checksum_config_value(&self.pipeline.checksum))?;
        e.key("tv")?;
        e.value(&tv_config_value(&self.pipeline.tv))?;
        e.key("reuse")?;
        e.begin_object()?;
        e.field_bool("memo", self.reuse.memo)?;
        e.end_object()?;
        match &self.generation {
            // A generation manifest ships the kernels + (k, seed) instead
            // of the expanded job list with its printed candidates.
            Some(spec) => {
                e.key("generation")?;
                e.begin_object()?;
                e.field_hex("seed", spec.seed)?;
                e.field_int("k", spec.k as i64)?;
                e.key("kernels")?;
                e.begin_array()?;
                for (label, scalar) in &spec.kernels {
                    e.begin_object()?;
                    e.field_str("label", label)?;
                    e.field_str("scalar", &print_function(scalar))?;
                    e.end_object()?;
                }
                e.end_array()?;
                e.end_object()?;
            }
            None => {
                e.key("jobs")?;
                e.begin_array()?;
                for job in &self.jobs {
                    e.begin_object()?;
                    e.field_str("label", &job.label)?;
                    e.field_str("scalar", &print_function(&job.scalar))?;
                    e.field_str("candidate", &print_function(&job.candidate))?;
                    e.end_object()?;
                }
                e.end_array()?;
            }
        }
        e.end_object()?;
        let mut w = e.into_inner();
        w.write_all(b"\n")
    }

    /// Serializes the manifest to its JSON document.
    pub fn render(&self) -> String {
        let mut buf = Vec::new();
        self.write_to(&mut buf)
            .expect("rendering to memory cannot fail");
        String::from_utf8(buf).expect("JSON output is UTF-8")
    }

    /// Writes the manifest atomically.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        write_atomic_stream(path, |w| self.write_to(w))
    }

    /// Loads and validates a manifest: the format version must match, every
    /// function source must re-parse, and the recorded fingerprint must
    /// equal the one recomputed from the parsed configuration (a mismatch
    /// means the writer was a semantically different build).
    pub fn load(path: impl Into<PathBuf>) -> Result<SweepManifest, ShardError> {
        let path = path.into();
        let text = std::fs::read_to_string(&path)?;
        let doc = json::parse(&text).map_err(|e| ShardError::Format(e.to_string()))?;
        check_version(&doc, "manifest")?;
        let policy = ShardPolicy::from_tag(str_field(&doc, "policy").map_err(ShardError::Format)?)
            .map_err(ShardError::Format)?;
        let cascade = doc
            .get("cascade")
            .and_then(Value::as_array)
            .ok_or_else(|| ShardError::Format("missing `cascade` array".to_string()))?
            .iter()
            .map(|stage| {
                stage
                    .as_str()
                    .ok_or_else(|| "cascade entry is not a string".to_string())
                    .and_then(parse_stage)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(ShardError::Format)?;
        check_no_schedule(&doc)?;
        // Either form: a generation spec (kernels + k + seed, no printed
        // candidates), or the explicit job list.
        let (jobs, generation) = match doc.get("generation") {
            Some(spec) => {
                let kernels = spec
                    .get("kernels")
                    .and_then(Value::as_array)
                    .ok_or_else(|| ShardError::Format("missing `kernels` array".to_string()))?
                    .iter()
                    .map(|kernel| {
                        let label = str_field(kernel, "label")?.to_string();
                        let scalar = parse_source(str_field(kernel, "scalar")?)?;
                        Ok((label, scalar))
                    })
                    .collect::<Result<Vec<(String, Function)>, String>>()
                    .map_err(ShardError::Format)?;
                let parsed = GenerationSpec {
                    kernels,
                    k: usize_field(spec, "k").map_err(ShardError::Format)?,
                    seed: parse_hex(spec.get("seed"), "seed").map_err(ShardError::Format)?,
                };
                (Vec::new(), Some(parsed))
            }
            None => {
                let jobs = doc
                    .get("jobs")
                    .and_then(Value::as_array)
                    .ok_or_else(|| ShardError::Format("missing `jobs` array".to_string()))?
                    .iter()
                    .map(|job| {
                        let label = str_field(job, "label")?.to_string();
                        let scalar = parse_source(str_field(job, "scalar")?)?;
                        let candidate = parse_source(str_field(job, "candidate")?)?;
                        Ok(Job {
                            label,
                            scalar,
                            candidate,
                        })
                    })
                    .collect::<Result<Vec<Job>, String>>()
                    .map_err(ShardError::Format)?;
                (jobs, None)
            }
        };
        // Manifests written before the reuse subsystem carry no `reuse`
        // field; they mean the memo off.
        let reuse = match doc.get("reuse") {
            None => EngineReuse::default(),
            Some(obj) => parse_reuse(obj).map_err(ShardError::Format)?,
        };
        let manifest = SweepManifest {
            shards: usize_field(&doc, "shards").map_err(ShardError::Format)?,
            policy,
            threads: usize_field(&doc, "threads").map_err(ShardError::Format)?,
            cascade,
            pipeline: PipelineConfig {
                checksum: parse_checksum_config(&doc).map_err(ShardError::Format)?,
                tv: parse_tv_config(&doc).map_err(ShardError::Format)?,
            },
            reuse,
            jobs,
            generation,
        };
        let recorded =
            parse_hex(doc.get("fingerprint"), "fingerprint").map_err(ShardError::Format)?;
        let computed = manifest.fingerprint();
        if recorded != computed {
            return Err(ShardError::FingerprintMismatch { recorded, computed });
        }
        Ok(manifest)
    }
}

fn parse_source(source: &str) -> Result<Function, String> {
    lv_cir::parse_function(source).map_err(|e| format!("function failed to re-parse: {}", e))
}

fn check_version(doc: &Value, what: &str) -> Result<(), ShardError> {
    match doc.get("version").and_then(Value::as_int) {
        Some(SHARD_FORMAT_VERSION) => Ok(()),
        Some(other) => Err(ShardError::Format(format!(
            "{} has format version {}, this build reads version {}",
            what, other, SHARD_FORMAT_VERSION
        ))),
        None => Err(ShardError::Format(format!(
            "{} has no `version` field",
            what
        ))),
    }
}

// ---------------------------------------------------------------------------
// The shard report.
// ---------------------------------------------------------------------------

/// One shard's results: `(original job index, report)` pairs for every job
/// the shard finished, in ascending index order.
#[derive(Debug, Clone)]
pub struct ShardReportFile {
    /// Which shard produced the file.
    pub shard: usize,
    /// The sweep's total shard count.
    pub shards: usize,
    /// The configuration fingerprint the shard ran under.
    pub fingerprint: u64,
    /// Finished jobs: original index → report.
    pub entries: Vec<(usize, JobReport)>,
}

impl ShardReportFile {
    /// Loads a shard report journal. A torn final record is truncated (the
    /// killed-mid-append case); a journal torn at its *header* has no shard
    /// metadata and is reported as malformed, which the coordinator treats
    /// like a missing report. The liveness heartbeat records of older builds
    /// are skipped, so their journals still load. A file that is not a journal — including the snapshot
    /// report document earlier builds wrote — is a [`ShardError::Format`].
    pub fn load(path: impl Into<PathBuf>) -> Result<ShardReportFile, ShardError> {
        let text = std::fs::read_to_string(path.into())?;
        if !journal::is_journal(&text) {
            return Err(ShardError::Format(
                "shard report is not a report journal (the snapshot report document \
                 was removed; re-run the shard)"
                    .to_string(),
            ));
        }
        let replayed = journal::replay(&text).map_err(ShardError::Format)?;
        journal::check_header(&replayed, REPORT_JOURNAL_KIND, SHARD_FORMAT_VERSION)
            .map_err(ShardError::Format)?;
        let header = &replayed.header;
        let entries = replayed
            .records
            .iter()
            // Heartbeat records of older builds are liveness telemetry, not
            // job results.
            .filter(|record| record.get("heartbeat").is_none())
            .map(parse_job_report)
            .collect::<Result<Vec<_>, String>>()
            .map_err(ShardError::Format)?;
        Ok(ShardReportFile {
            shard: usize_field(header, "shard").map_err(ShardError::Format)?,
            shards: usize_field(header, "shards").map_err(ShardError::Format)?,
            fingerprint: parse_hex(header.get("fingerprint"), "fingerprint")
                .map_err(ShardError::Format)?,
            entries,
        })
    }

    /// Compacts the report journal at `path` to exactly this report's
    /// entries, in ascending job-index order and without heartbeats,
    /// atomically (temp file + rename, synced before the rename).
    /// `lv-sweep compact` uses this; compacting a compacted journal leaves
    /// it byte-identical.
    pub fn rewrite(&self, path: impl AsRef<Path>, fsync: FsyncPolicy) -> io::Result<()> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        let mut journal =
            ShardReportJournal::create(&tmp, self.shard, self.shards, self.fingerprint, fsync)?;
        let mut entries: Vec<&(usize, JobReport)> = self.entries.iter().collect();
        entries.sort_by_key(|(index, _)| *index);
        for (index, report) in entries {
            journal.append(*index, report)?;
        }
        journal.sync()?;
        drop(journal);
        std::fs::rename(&tmp, path)
    }
}

/// The append-only form of the shard report: a journal whose header record
/// carries the shard metadata and whose data records are job entries.
/// Appending a finished job is O(record) — one framed line through the
/// journal's long-lived buffered handle. [`ShardReportFile::load`] reads
/// it back.
#[derive(Debug)]
pub struct ShardReportJournal {
    writer: JournalWriter,
}

impl ShardReportJournal {
    /// Creates (truncating) the report journal at `path` and writes its
    /// header record.
    pub fn create(
        path: &Path,
        shard: usize,
        shards: usize,
        fingerprint: u64,
        fsync: FsyncPolicy,
    ) -> io::Result<ShardReportJournal> {
        let writer = JournalWriter::create(path, fsync, |e| {
            e.begin_object()?;
            e.field_str("journal", REPORT_JOURNAL_KIND)?;
            e.field_int("version", SHARD_FORMAT_VERSION)?;
            e.field_int("shard", shard as i64)?;
            e.field_int("shards", shards as i64)?;
            e.field_hex("fingerprint", fingerprint)?;
            e.end_object()
        })?;
        Ok(ShardReportJournal { writer })
    }

    /// Appends (and, per the flush batching, flushes) one finished job's
    /// record.
    pub fn append(&mut self, index: usize, report: &JobReport) -> io::Result<()> {
        self.writer.append(|e| emit_job_report(e, index, report))
    }

    /// Sets the journal's flush batching (see
    /// [`JournalWriter::set_flush_every`]).
    pub fn set_flush_every(&mut self, n: usize) {
        self.writer.set_flush_every(n);
    }

    /// Total journal bytes written, i.e. the file's current length.
    pub fn bytes_written(&self) -> u64 {
        self.writer.bytes_written()
    }

    /// Flushes buffered bytes (appends already flush per record).
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Forces the journal to disk, regardless of fsync policy.
    pub fn sync(&mut self) -> io::Result<()> {
        self.writer.sync()
    }
}

fn duration_us(duration: Duration) -> u64 {
    u64::try_from(duration.as_micros()).unwrap_or(u64::MAX)
}

/// Streams one job-report object — the shape shared by snapshot `jobs`
/// elements and report-journal records.
fn emit_job_report<W: io::Write>(
    e: &mut Emitter<W>,
    index: usize,
    report: &JobReport,
) -> io::Result<()> {
    e.begin_object()?;
    e.field_int("index", index as i64)?;
    e.field_str("label", &report.label)?;
    e.field_str("verdict", verdict_tag(report.verdict))?;
    e.field_str("stage", stage_tag(report.stage))?;
    e.field_str("detail", &report.detail)?;
    e.key("checksum")?;
    emit_checksum(e, report.checksum)?;
    e.field_bool("cache_hit", report.cache_hit)?;
    e.field_hex("wall_us", duration_us(report.wall))?;
    e.key("reuse")?;
    e.begin_object()?;
    e.field_hex("blast_hits", report.reuse.blast_hits)?;
    e.field_hex("blast_misses", report.reuse.blast_misses)?;
    e.end_object()?;
    e.key("traces")?;
    e.begin_array()?;
    for trace in &report.traces {
        e.begin_object()?;
        e.field_str("stage", stage_tag(trace.stage))?;
        e.field_bool("conclusive", trace.conclusive)?;
        e.field_hex("wall_us", duration_us(trace.wall))?;
        e.field_hex("conflicts", trace.conflicts)?;
        e.field_hex("clauses", trace.clauses)?;
        e.end_object()?;
    }
    e.end_array()?;
    e.end_object()
}

fn parse_job_report(item: &Value) -> Result<(usize, JobReport), String> {
    let traces = item
        .get("traces")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing `traces` array".to_string())?
        .iter()
        .map(|trace| {
            Ok(StageTrace {
                stage: parse_stage(str_field(trace, "stage")?)?,
                conclusive: bool_field(trace, "conclusive")?,
                wall: Duration::from_micros(parse_hex(trace.get("wall_us"), "wall_us")?),
                conflicts: parse_hex(trace.get("conflicts"), "conflicts")?,
                clauses: parse_hex(trace.get("clauses"), "clauses")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    // Reports written before the reuse subsystem carry no counters. Keys
    // and objects of deleted counters in older reports (such as a trace's
    // `name_mismatch` flag) are ignored.
    let reuse = match item.get("reuse") {
        None => ReuseCounters::default(),
        Some(obj) => ReuseCounters {
            blast_hits: parse_hex(obj.get("blast_hits"), "blast_hits")?,
            blast_misses: parse_hex(obj.get("blast_misses"), "blast_misses")?,
        },
    };
    let report = JobReport {
        label: str_field(item, "label")?.to_string(),
        verdict: parse_verdict(str_field(item, "verdict")?)?,
        stage: parse_stage(str_field(item, "stage")?)?,
        detail: str_field(item, "detail")?.to_string(),
        checksum: parse_checksum(item.get("checksum"))?,
        traces,
        wall: Duration::from_micros(parse_hex(item.get("wall_us"), "wall_us")?),
        cache_hit: bool_field(item, "cache_hit")?,
        reuse,
    };
    Ok((usize_field(item, "index")?, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Equivalence, Stage};
    use lv_cir::parse_function;

    fn sample_manifest() -> SweepManifest {
        let scalar = parse_function(
            "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }",
        )
        .unwrap();
        let jobs = vec![Job::new("s000", scalar.clone(), scalar)];
        let mut config = EngineConfig::full(PipelineConfig::default()).with_threads(2);
        config
            .pipeline
            .checksum
            .scalar_overrides
            .insert("n".to_string(), 40);
        SweepManifest::new(&config, &jobs, 3, ShardPolicy::HashMod)
    }

    #[test]
    fn manifest_round_trips_with_identical_fingerprint() {
        let dir = std::env::temp_dir().join(format!("lv-shard-mani-{}", std::process::id()));
        let path = dir.join("manifest.json");
        let manifest = sample_manifest();
        manifest.write(&path).unwrap();

        let loaded = SweepManifest::load(&path).unwrap();
        assert_eq!(loaded.shards, 3);
        assert_eq!(loaded.policy, ShardPolicy::HashMod);
        assert_eq!(loaded.threads, 2);
        assert_eq!(loaded.cascade, manifest.cascade);
        assert_eq!(loaded.fingerprint(), manifest.fingerprint());
        assert_eq!(loaded.jobs.len(), 1);
        assert_eq!(loaded.jobs[0].scalar, manifest.jobs[0].scalar);
        assert_eq!(loaded.plan(), manifest.plan());
        // Rendering the loaded manifest reproduces the file byte-for-byte.
        assert_eq!(loaded.render(), manifest.render());
        std::fs::remove_file(&path).unwrap();
    }

    fn sample_generation_manifest() -> SweepManifest {
        let kernels: Vec<(String, Function)> = ["s000", "s112"]
            .iter()
            .map(|name| (name.to_string(), lv_tsvc::kernel(name).unwrap().function()))
            .collect();
        let spec = GenerationSpec {
            kernels,
            k: 3,
            seed: 0xC0FFEE,
        };
        let config = EngineConfig::full(PipelineConfig::default()).with_threads(2);
        SweepManifest::from_generation(&config, spec, 2, ShardPolicy::HashMod)
    }

    #[test]
    fn generation_manifest_round_trips_and_ships_no_candidates() {
        let dir = std::env::temp_dir().join(format!("lv-shard-genmani-{}", std::process::id()));
        let path = dir.join("manifest.json");
        let manifest = sample_generation_manifest();
        manifest.write(&path).unwrap();

        let rendered = manifest.render();
        assert!(
            !rendered.contains("\"candidate\""),
            "a generation manifest must not ship printed candidates"
        );
        assert!(rendered.contains("\"generation\""));

        let loaded = SweepManifest::load(&path).unwrap();
        assert_eq!(loaded.fingerprint(), manifest.fingerprint());
        assert!(loaded.jobs.is_empty(), "no job list travels");
        assert_eq!(loaded.job_count(), 6);
        assert_eq!(loaded.plan(), manifest.plan());
        assert_eq!(loaded.render(), rendered);

        // Every participant materializes the identical grid — the cells
        // the writer's spec expands to, labeled `name#j`, in any order.
        let all = manifest.materialize_jobs();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0].label, "s000#0");
        assert_eq!(all[5].label, "s112#2");
        for index in (0..6).rev() {
            let job = loaded.job(index);
            assert_eq!(job.label, all[index].label);
            assert_eq!(job.scalar, all[index].scalar);
            assert_eq!(job.candidate, all[index].candidate);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn generation_plan_is_stable_and_covers_every_cell() {
        let manifest = sample_generation_manifest();
        let spec = manifest.generation.as_ref().unwrap();
        for policy in [ShardPolicy::HashMod, ShardPolicy::Contiguous] {
            for shards in [1, 2, 5] {
                let plan = spec.plan(shards, policy);
                assert_eq!(plan.len(), spec.job_count());
                assert_eq!(plan, spec.plan(shards, policy), "plans are deterministic");
                let covered: usize = (0..shards).map(|shard| plan.indices_of(shard).len()).sum();
                assert_eq!(covered, spec.job_count());
            }
        }
    }

    #[test]
    fn manifest_with_a_stage_schedule_is_rejected() {
        let dir = std::env::temp_dir().join(format!("lv-shard-sched-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.json");
        let manifest = sample_manifest();
        let rendered = manifest.render();
        assert!(!rendered.contains("\"schedule\""), "no schedule is written");
        let anchor = "\"checksum\":";
        assert!(rendered.contains(anchor), "splice point must exist");
        let load_with = |schedule: &str| {
            let spliced = rendered.replace(anchor, &format!("\"schedule\":{schedule},{anchor}"));
            std::fs::write(&path, spliced).unwrap();
            SweepManifest::load(&path)
        };

        // What earlier builds wrote for the default order still loads, under
        // the same fingerprint as a manifest without the field.
        let empty = load_with("{}").expect("an empty schedule loads");
        assert_eq!(empty.fingerprint(), manifest.fingerprint());
        assert_eq!(empty.render(), rendered);

        match load_with("{\"reduction\":[\"cunroll\",\"alive2\",\"splitting\"]}") {
            Err(ShardError::Format(message)) => {
                assert!(message.contains("stage schedule"), "{}", message);
                assert!(message.contains("reduction"), "{}", message);
            }
            other => panic!("a schedule override must be refused, got {:?}", other),
        }
        assert!(matches!(load_with("[]"), Err(ShardError::Format(_))));
        std::fs::remove_file(&path).unwrap();
    }

    /// Loads `sample_manifest()` with `"key":value` spliced into its reuse
    /// object, as a manifest from an earlier build would carry it.
    fn load_with_reuse_key(tag: &str, key: &str, value: bool) -> Result<SweepManifest, ShardError> {
        let dir = std::env::temp_dir().join(format!("lv-shard-{}-{}", tag, std::process::id()));
        let path = dir.join("manifest.json");
        let rendered = sample_manifest().render();
        let anchor = "\"reuse\":{";
        assert!(rendered.contains(anchor), "splice point must exist");
        let spliced = rendered.replace(anchor, &format!("{}\"{}\":{},", anchor, key, value));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, spliced).unwrap();
        let loaded = SweepManifest::load(&path);
        std::fs::remove_file(&path).unwrap();
        loaded
    }

    #[test]
    fn manifest_enabling_portfolio_is_rejected() {
        let off = load_with_reuse_key("portfolio-off", "portfolio", false).unwrap();
        assert_eq!(off.fingerprint(), sample_manifest().fingerprint());
        match load_with_reuse_key("portfolio-on", "portfolio", true) {
            Err(ShardError::Format(reason)) => {
                assert!(reason.contains("`portfolio`"), "{}", reason)
            }
            other => panic!("expected a format error, got {:?}", other),
        }
    }

    #[test]
    fn manifest_enabling_simplify_inprocess_is_rejected() {
        let off = load_with_reuse_key("inproc-off", "simplify_inprocess", false).unwrap();
        assert_eq!(off.fingerprint(), sample_manifest().fingerprint());
        match load_with_reuse_key("inproc-on", "simplify_inprocess", true) {
            Err(ShardError::Format(reason)) => {
                assert!(reason.contains("`simplify_inprocess`"), "{}", reason)
            }
            other => panic!("expected a format error, got {:?}", other),
        }
    }

    #[test]
    fn manifest_enabling_incremental_is_rejected() {
        let off = load_with_reuse_key("incremental-off", "incremental", false).unwrap();
        assert_eq!(off.fingerprint(), sample_manifest().fingerprint());
        match load_with_reuse_key("incremental-on", "incremental", true) {
            Err(ShardError::Format(reason)) => {
                assert!(reason.contains("`incremental`"), "{}", reason)
            }
            other => panic!("expected a format error, got {:?}", other),
        }
    }

    #[test]
    fn manifest_enabling_simplify_preprocess_is_rejected() {
        let off = load_with_reuse_key("preprocess-off", "simplify_preprocess", false).unwrap();
        assert_eq!(off.fingerprint(), sample_manifest().fingerprint());
        match load_with_reuse_key("preprocess-on", "simplify_preprocess", true) {
            Err(ShardError::Format(reason)) => {
                assert!(reason.contains("`simplify_preprocess`"), "{}", reason)
            }
            other => panic!("expected a format error, got {:?}", other),
        }
    }

    #[test]
    fn tampered_fingerprint_is_rejected() {
        let dir = std::env::temp_dir().join(format!("lv-shard-tamper-{}", std::process::id()));
        let path = dir.join("manifest.json");
        let manifest = sample_manifest();
        let tampered = manifest.render().replace("\"trials\":3", "\"trials\":4");
        assert_ne!(tampered, manifest.render(), "tamper point must exist");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &tampered).unwrap();
        match SweepManifest::load(&path) {
            Err(ShardError::FingerprintMismatch { .. }) => {}
            other => panic!("expected a fingerprint mismatch, got {:?}", other),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shard_report_round_trips() {
        let dir = std::env::temp_dir().join(format!("lv-shard-report-{}", std::process::id()));
        let path = dir.join("shard-0.report.json");
        let report = ShardReportFile {
            shard: 0,
            shards: 2,
            fingerprint: 0xabcd,
            entries: vec![(
                4,
                JobReport {
                    label: "s112".to_string(),
                    verdict: Equivalence::Equivalent,
                    stage: Stage::CUnroll,
                    detail: "with \"quotes\"\nand newlines".to_string(),
                    checksum: Some(lv_interp::ChecksumClass::Plausible),
                    traces: vec![StageTrace {
                        stage: Stage::Checksum,
                        conclusive: false,
                        wall: Duration::from_micros(1234),
                        conflicts: 0,
                        clauses: 0,
                    }],
                    wall: Duration::from_micros(9999),
                    cache_hit: false,
                    reuse: ReuseCounters {
                        blast_hits: 7,
                        blast_misses: 2,
                    },
                },
            )],
        };
        report.rewrite(&path, FsyncPolicy::OnCompact).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(!written.contains("name_mismatch"), "{written}");
        let loaded = ShardReportFile::load(&path).unwrap();
        assert_eq!(loaded.shard, 0);
        assert_eq!(loaded.shards, 2);
        assert_eq!(loaded.fingerprint, 0xabcd);
        assert_eq!(loaded.entries.len(), 1);
        let (index, job) = &loaded.entries[0];
        assert_eq!(*index, 4);
        assert_eq!(job.label, "s112");
        assert_eq!(job.verdict, Equivalence::Equivalent);
        assert_eq!(job.stage, Stage::CUnroll);
        assert_eq!(job.detail, "with \"quotes\"\nand newlines");
        assert_eq!(job.traces.len(), 1);
        assert_eq!(job.traces[0].wall, Duration::from_micros(1234));
        assert_eq!(job.reuse.blast_hits, 7);
        assert_eq!(job.reuse.blast_misses, 2);

        // The snapshot report document of earlier builds is refused.
        std::fs::write(
            &path,
            "{\"version\":1,\"shard\":0,\"shards\":2,\"fingerprint\":\"000000000000abcd\",\"jobs\":[]}\n",
        )
        .unwrap();
        match ShardReportFile::load(&path) {
            Err(ShardError::Format(e)) => assert!(e.contains("snapshot"), "{}", e),
            other => panic!("expected a format error, got {:?}", other),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reports_with_removed_counters_still_load() {
        // A report journal as builds with CNF preprocessing, incremental
        // sessions and name binding wrote it: an `assumption_reuses` key in
        // `reuse`, a `simplify` object in every job record and a
        // `name_mismatch` flag in every trace.
        let dir = std::env::temp_dir().join(format!("lv-shard-old-report-{}", std::process::id()));
        let path = dir.join("shard-0.report.json");
        let text = concat!(
            "{\"journal\":\"shard-report\",\"version\":1,\"shard\":0,\"shards\":2,",
            "\"fingerprint\":\"000000000000abcd\"} e02d3d4a\n",
            "{\"index\":4,\"label\":\"s112\",\"verdict\":\"equivalent\",\"stage\":\"cunroll\",",
            "\"detail\":\"d\",\"checksum\":\"plausible\",\"cache_hit\":false,",
            "\"wall_us\":\"000000000000270f\",\"reuse\":{\"blast_hits\":\"0000000000000007\",",
            "\"blast_misses\":\"0000000000000002\",\"assumption_reuses\":\"0000000000000005\"},",
            "\"simplify\":{\"vars_eliminated\":\"00000000000000d2\",",
            "\"clauses_subsumed\":\"0000000000000021\",\"clauses_strengthened\":\"000000000000000c\",",
            "\"arena_bytes\":\"0000000000010000\",\"preprocess_us\":\"0000000000000320\"},",
            "\"traces\":[{\"stage\":\"cunroll\",\"conclusive\":true,\"wall_us\":\"00000000000004d2\",",
            "\"conflicts\":\"0000000000000010\",\"clauses\":\"0000000000000384\",",
            "\"name_mismatch\":false}]} acdd54f2\n",
        );
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, text).unwrap();
        let loaded = ShardReportFile::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            (loaded.shard, loaded.shards, loaded.fingerprint),
            (0, 2, 0xabcd)
        );
        let (index, job) = &loaded.entries[0];
        assert_eq!(*index, 4);
        assert_eq!(
            (job.verdict, job.stage),
            (Equivalence::Equivalent, Stage::CUnroll)
        );
        assert_eq!(job.checksum, Some(lv_interp::ChecksumClass::Plausible));
        assert_eq!(job.wall, Duration::from_micros(9999));
        assert_eq!(
            job.reuse,
            ReuseCounters {
                blast_hits: 7,
                blast_misses: 2
            }
        );
        assert_eq!(job.traces.len(), 1);
        assert_eq!((job.traces[0].conflicts, job.traces[0].clauses), (16, 900));
    }

    #[test]
    fn report_journal_compaction_drops_heartbeats_and_the_torn_tail() {
        let dir = std::env::temp_dir().join(format!("lv-shard-compact-{}", std::process::id()));
        let path = dir.join("shard-1.report.json");
        let job = |label: &str| JobReport {
            label: label.to_string(),
            verdict: Equivalence::NotEquivalent,
            stage: Stage::Checksum,
            detail: String::new(),
            checksum: Some(lv_interp::ChecksumClass::NotEquivalent),
            traces: Vec::new(),
            wall: Duration::from_micros(10),
            cache_hit: false,
            reuse: ReuseCounters::default(),
        };
        let mut journal =
            ShardReportJournal::create(&path, 1, 2, 0xfeed, FsyncPolicy::OnCompact).unwrap();
        journal.append(5, &job("s5")).unwrap();
        journal.append(3, &job("s3")).unwrap();
        journal.append(7, &job("s7")).unwrap();
        drop(journal);
        // A liveness heartbeat after the first job, framed as older builds
        // appended it.
        let heartbeat = "{\"heartbeat\":\"0000000000000001\",\"finished\":1}";
        let framed = format!("{} {:08x}", heartbeat, journal::crc32(heartbeat.as_bytes()));
        let written = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = written.lines().collect();
        lines.insert(2, &framed);
        // Tear the final record, as a kill mid-append would.
        let full = lines.join("\n") + "\n";
        std::fs::write(&path, &full[..full.len() - 4]).unwrap();

        let loaded = ShardReportFile::load(&path).unwrap();
        loaded.rewrite(&path, FsyncPolicy::OnCompact).unwrap();
        let compacted = std::fs::read(&path).unwrap();
        let text = std::str::from_utf8(&compacted).unwrap();
        assert!(text.starts_with(journal::JOURNAL_MARKER), "still a journal");
        assert!(!text.contains("heartbeat"), "heartbeats dropped");

        let reloaded = ShardReportFile::load(&path).unwrap();
        assert_eq!(
            (reloaded.shard, reloaded.shards, reloaded.fingerprint),
            (1, 2, 0xfeed)
        );
        let entries: Vec<(usize, &str)> = reloaded
            .entries
            .iter()
            .map(|(index, report)| (*index, report.label.as_str()))
            .collect();
        assert_eq!(
            entries,
            vec![(3, "s3"), (5, "s5")],
            "torn s7 dropped, sorted"
        );

        // Compacting a compacted journal changes nothing.
        reloaded.rewrite(&path, FsyncPolicy::OnCompact).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), compacted);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
