//! On-disk exchange formats for sharded sweeps.
//!
//! See the [module docs](crate::shard) for the format overview. Everything
//! here reuses the `serde` shim's [`json`] document model and the verdict
//! cache's conventions: `u64` values travel as 16-digit lower-case hex
//! strings, enum payloads as stable string tags, and every whole-file
//! document is written atomically (temp file + rename) so a reader never
//! observes a torn write. Serialization streams through the shim's
//! [`Emitter`] — no intermediate document tree or `String` on the per-record
//! paths. Functions travel as printed C source —
//! [`lv_cir::printer::print_function`] followed by [`lv_cir::parse_function`]
//! yields a structurally equal AST, so content hashes (and therefore shard
//! assignment, cache keys, and verdicts) are unaffected by the round trip.
//!
//! The shard report has two interchangeable on-disk forms, mirroring the
//! verdict cache: the **snapshot** document below, and an **append-only
//! journal** ([`ShardReportJournal`]) whose header carries the
//! shard/fingerprint metadata and whose records are the individual job
//! entries — the O(record)-flush form shard workers write.
//! [`ShardReportFile::load`] sniffs and accepts both.

use crate::cache::{
    emit_checksum, hex, parse_checksum, parse_hex, parse_stage, parse_verdict, stage_tag,
    verdict_tag, write_atomic_stream,
};
use crate::engine::{
    EngineConfig, EngineReuse, Job, JobReport, ReuseCounters, SimplifyCounters, StageSchedule,
    StageTrace,
};
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

/// The journal-header kind tag for steal-claim journals.
pub(crate) const CLAIMS_JOURNAL_KIND: &str = "shard-claims";

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
const REMOVED_REUSE_LAYERS: [&str; 2] = ["portfolio", "simplify_inprocess"];

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
        incremental: bool_field(obj, "incremental")?,
        preprocess: opt_bool_field(obj, "simplify_preprocess")?,
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

/// The coordinator → worker manifest: the full job list, the shard layout,
/// and the engine configuration (minus cache and adaptive policy — every
/// worker opens its own per-shard cache file, and adaptive tuning is a
/// whole-batch decision that sharding deliberately leaves off so verdicts
/// stay bit-identical to the single-process run).
#[derive(Debug, Clone)]
pub struct SweepManifest {
    /// Number of shards the sweep is partitioned into.
    pub shards: usize,
    /// The partitioning policy.
    pub policy: ShardPolicy,
    /// Worker threads per shard process (`0` = one per CPU).
    pub threads: usize,
    /// The cascade stage list, in base order.
    pub cascade: Vec<crate::pipeline::Stage>,
    /// The per-kernel-category stage schedule. Serialized as its configured
    /// overrides; the recorded fingerprint covers the *resolved* orders, so
    /// a worker from a build whose categorizer or resolution differs is
    /// rejected before it can mix verdicts.
    pub schedule: StageSchedule,
    /// Stage configurations.
    pub pipeline: PipelineConfig,
    /// The solver-reuse layers every shard runs with. Part of the exchange
    /// because incremental reuse perturbs the configuration fingerprint —
    /// a worker must run the same reuse layers to produce (and verify) the
    /// recorded fingerprint. Manifests written before the reuse subsystem
    /// carry no field and mean "all layers off".
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
    /// `shards` shards by `policy`. `config.cache` and `config.adaptive`
    /// are not part of the exchange (see the struct docs).
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
            schedule: config.schedule.clone(),
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
            schedule: config.schedule.clone(),
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
            schedule: self.schedule.clone(),
            pipeline: self.pipeline.clone(),
            cache: None,
            adaptive: None,
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
        e.key("schedule")?;
        e.begin_object()?;
        for (category, order) in self.schedule.overrides() {
            e.key(category.tag())?;
            e.begin_array()?;
            for stage in order {
                e.str(stage_tag(*stage))?;
            }
            e.end_array()?;
        }
        e.end_object()?;
        e.key("checksum")?;
        e.value(&checksum_config_value(&self.pipeline.checksum))?;
        e.key("tv")?;
        e.value(&tv_config_value(&self.pipeline.tv))?;
        e.key("reuse")?;
        e.begin_object()?;
        e.field_bool("memo", self.reuse.memo)?;
        e.field_bool("incremental", self.reuse.incremental)?;
        e.field_bool("simplify_preprocess", self.reuse.preprocess)?;
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
        write_atomic_stream(path, false, |w| self.write_to(w)).map(|_| ())
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
        let mut schedule = StageSchedule::algorithm1();
        match doc.get("schedule") {
            // Manifests written before the schedule layer carry no field;
            // they mean the default order.
            None => {}
            Some(Value::Object(clauses)) => {
                for (tag, order) in clauses {
                    let category =
                        lv_analysis::KernelCategory::from_tag(tag).map_err(ShardError::Format)?;
                    let order = order
                        .as_array()
                        .ok_or_else(|| {
                            ShardError::Format(format!(
                                "schedule override `{}` is not an array",
                                tag
                            ))
                        })?
                        .iter()
                        .map(|stage| {
                            stage
                                .as_str()
                                .ok_or_else(|| "schedule stage is not a string".to_string())
                                .and_then(parse_stage)
                        })
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(ShardError::Format)?;
                    schedule = schedule
                        .with_override(category, order)
                        .map_err(ShardError::Format)?;
                }
            }
            Some(_) => {
                return Err(ShardError::Format(
                    "`schedule` is not an object".to_string(),
                ))
            }
        }
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
        // field; they mean every layer off.
        let reuse = match doc.get("reuse") {
            None => EngineReuse::default(),
            Some(obj) => parse_reuse(obj).map_err(ShardError::Format)?,
        };
        let manifest = SweepManifest {
            shards: usize_field(&doc, "shards").map_err(ShardError::Format)?,
            policy,
            threads: usize_field(&doc, "threads").map_err(ShardError::Format)?,
            cascade,
            schedule,
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
    /// Streams the snapshot report document into `w`. Entries are emitted
    /// in ascending job-index order, so re-rendering the same contents is
    /// byte-identical.
    fn write_to<W: io::Write>(&self, w: W) -> io::Result<()> {
        let mut entries: Vec<&(usize, JobReport)> = self.entries.iter().collect();
        entries.sort_by_key(|(index, _)| *index);
        let mut e = Emitter::new(w);
        e.begin_object()?;
        e.field_int("version", SHARD_FORMAT_VERSION)?;
        e.field_int("shard", self.shard as i64)?;
        e.field_int("shards", self.shards as i64)?;
        e.field_hex("fingerprint", self.fingerprint)?;
        e.key("jobs")?;
        e.begin_array()?;
        for (index, report) in entries {
            emit_job_report(&mut e, *index, report)?;
        }
        e.end_array()?;
        e.end_object()?;
        let mut w = e.into_inner();
        w.write_all(b"\n")
    }

    /// Serializes the report to its snapshot JSON document.
    pub fn render(&self) -> String {
        let mut buf = Vec::new();
        self.write_to(&mut buf)
            .expect("rendering to memory cannot fail");
        String::from_utf8(buf).expect("JSON output is UTF-8")
    }

    /// Writes the snapshot report atomically; returns its size in bytes
    /// (the whole-file flush cost the `journal_flush` bench accounts).
    pub fn write(&self, path: &Path) -> io::Result<u64> {
        write_atomic_stream(path, false, |w| self.write_to(w))
    }

    /// Loads a shard report — snapshot or journal form, sniffed by content.
    /// A journal's torn final record is truncated (the killed-mid-append
    /// case); a journal torn at its *header* has no shard metadata and is
    /// reported as malformed, which the coordinator treats like a missing
    /// report.
    pub fn load(path: impl Into<PathBuf>) -> Result<ShardReportFile, ShardError> {
        let path = path.into();
        let text = std::fs::read_to_string(&path)?;
        if journal::is_journal(&text) {
            return ShardReportFile::from_journal(&text);
        }
        let doc = json::parse(&text).map_err(|e| ShardError::Format(e.to_string()))?;
        check_version(&doc, "shard report")?;
        let entries = doc
            .get("jobs")
            .and_then(Value::as_array)
            .ok_or_else(|| ShardError::Format("missing `jobs` array".to_string()))?
            .iter()
            .map(parse_job_report)
            .collect::<Result<Vec<_>, String>>()
            .map_err(ShardError::Format)?;
        Ok(ShardReportFile {
            shard: usize_field(&doc, "shard").map_err(ShardError::Format)?,
            shards: usize_field(&doc, "shards").map_err(ShardError::Format)?,
            fingerprint: parse_hex(doc.get("fingerprint"), "fingerprint")
                .map_err(ShardError::Format)?,
            entries,
        })
    }

    /// Replays a report journal into the in-memory report form.
    fn from_journal(text: &str) -> Result<ShardReportFile, ShardError> {
        let replayed = journal::replay(text).map_err(ShardError::Format)?;
        journal::check_header(&replayed, REPORT_JOURNAL_KIND, SHARD_FORMAT_VERSION)
            .map_err(ShardError::Format)?;
        let header = &replayed.header;
        let entries = replayed
            .records
            .iter()
            // Heartbeat records are liveness telemetry, not job results.
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
}

/// The append-only form of the shard report: a journal whose header record
/// carries the shard metadata and whose data records are job entries.
/// Appending a finished job is O(record) — one framed line through the
/// journal's long-lived buffered handle — instead of the snapshot's
/// whole-file rewrite. [`ShardReportFile::load`] reads both forms.
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

    /// Appends a liveness heartbeat: a monotonic sequence number plus the
    /// shard's finished-job count. Heartbeats are flushed immediately —
    /// their whole point is that a *reader* (the coordinator's stall
    /// detector, a thief shard) sees liveness now, not at the next batched
    /// commit — which also commits any job records buffered behind them.
    /// [`ShardReportFile::load`] skips them, so they are invisible to the
    /// report merge.
    pub fn append_heartbeat(&mut self, seq: u64, finished: usize) -> io::Result<()> {
        self.writer.append(|e| {
            e.begin_object()?;
            e.field_hex("heartbeat", seq)?;
            e.field_int("finished", finished as i64)?;
            e.end_object()
        })?;
        self.writer.flush()
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

/// A live shard's observable progress, read from its report journal
/// *while the worker is still running*: the latest heartbeat sequence
/// number plus the set of job indices it has already committed. This is
/// the signal both the coordinator's stall detector and thief shards key
/// on — a worker whose progress tuple stops advancing is stalled even if
/// its process is alive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardProgress {
    /// The highest heartbeat sequence number seen (0 before the first
    /// heartbeat).
    pub heartbeats: u64,
    /// Original job indices whose reports have reached the journal.
    pub reported: std::collections::BTreeSet<usize>,
}

/// Reads a live shard's progress from its report journal, tolerantly: a
/// missing file, a non-journal file, a torn or wrong-kind header, a
/// fingerprint mismatch, or any malformed record reads as `None` / gets
/// skipped — a concurrent reader must never fail a sweep over a file that
/// is mid-append.
pub fn read_progress(path: &Path, fingerprint: u64) -> Option<ShardProgress> {
    let text = std::fs::read_to_string(path).ok()?;
    if !journal::is_journal(&text) {
        return None;
    }
    let replayed = journal::replay(&text).ok()?;
    journal::check_header(&replayed, REPORT_JOURNAL_KIND, SHARD_FORMAT_VERSION).ok()?;
    if replayed.header != Value::Null
        && parse_hex(replayed.header.get("fingerprint"), "fingerprint").ok()? != fingerprint
    {
        return None;
    }
    let mut progress = ShardProgress::default();
    for record in &replayed.records {
        if let Ok(seq) = parse_hex(record.get("heartbeat"), "heartbeat") {
            progress.heartbeats = progress.heartbeats.max(seq);
        } else if let Ok(index) = usize_field(record, "index") {
            progress.reported.insert(index);
        }
    }
    Some(progress)
}

/// The append-only steal-claim journal a stealing-enabled shard writes
/// next to its report journal (`shard-<i>.claims.json`): its header
/// carries the shard/fingerprint metadata, and each record is one job
/// index the shard claims *before* running it. Claims are flushed per
/// record — a claim that other shards cannot see yet does not exist.
///
/// Claims are advisory, not locks: two shards that race to claim the same
/// index both run it, deterministically produce the same verdict, and the
/// coordinator's first-report-wins merge plus the cache's
/// equal-entries-merge-cleanly rule make the duplicate harmless. The
/// claim's job is to make that race rare, not impossible.
#[derive(Debug)]
pub struct ClaimsJournal {
    writer: JournalWriter,
}

impl ClaimsJournal {
    /// Creates (truncating) the claims journal at `path` and writes its
    /// header record.
    pub fn create(
        path: &Path,
        shard: usize,
        shards: usize,
        fingerprint: u64,
        fsync: FsyncPolicy,
    ) -> io::Result<ClaimsJournal> {
        let writer = JournalWriter::create(path, fsync, |e| {
            e.begin_object()?;
            e.field_str("journal", CLAIMS_JOURNAL_KIND)?;
            e.field_int("version", SHARD_FORMAT_VERSION)?;
            e.field_int("shard", shard as i64)?;
            e.field_int("shards", shards as i64)?;
            e.field_hex("fingerprint", fingerprint)?;
            e.end_object()
        })?;
        Ok(ClaimsJournal { writer })
    }

    /// Appends (and flushes — claims must be visible immediately) one
    /// claimed job index.
    pub fn append(&mut self, index: usize) -> io::Result<()> {
        self.writer.append(|e| {
            e.begin_object()?;
            e.field_int("index", index as i64)?;
            e.end_object()
        })
    }
}

/// Reads the set of job indices a shard has claimed, tolerantly (same
/// rules as [`read_progress`]: anything unreadable reads as "no claims").
pub fn read_claims(path: &Path, fingerprint: u64) -> std::collections::BTreeSet<usize> {
    let mut claims = std::collections::BTreeSet::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        return claims;
    };
    if !journal::is_journal(&text) {
        return claims;
    }
    let Ok(replayed) = journal::replay(&text) else {
        return claims;
    };
    if journal::check_header(&replayed, CLAIMS_JOURNAL_KIND, SHARD_FORMAT_VERSION).is_err() {
        return claims;
    }
    if replayed.header != Value::Null {
        match parse_hex(replayed.header.get("fingerprint"), "fingerprint") {
            Ok(recorded) if recorded == fingerprint => {}
            _ => return claims,
        }
    }
    for record in &replayed.records {
        if let Ok(index) = usize_field(record, "index") {
            claims.insert(index);
        }
    }
    claims
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
    e.field_hex("assumption_reuses", report.reuse.assumption_reuses)?;
    e.end_object()?;
    e.key("simplify")?;
    e.begin_object()?;
    e.field_hex("vars_eliminated", report.simplify.vars_eliminated)?;
    e.field_hex("clauses_subsumed", report.simplify.clauses_subsumed)?;
    e.field_hex("clauses_strengthened", report.simplify.clauses_strengthened)?;
    e.field_hex("arena_bytes", report.simplify.arena_bytes)?;
    e.field_hex("preprocess_us", report.simplify.preprocess_micros)?;
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
        e.field_bool("name_mismatch", trace.name_mismatch)?;
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
                name_mismatch: bool_field(trace, "name_mismatch")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    // Reports written before the reuse subsystem carry no counters.
    let reuse = match item.get("reuse") {
        None => ReuseCounters::default(),
        Some(obj) => ReuseCounters {
            blast_hits: parse_hex(obj.get("blast_hits"), "blast_hits")?,
            blast_misses: parse_hex(obj.get("blast_misses"), "blast_misses")?,
            assumption_reuses: parse_hex(obj.get("assumption_reuses"), "assumption_reuses")?,
        },
    };
    // Likewise, reports written before the preprocessing counters carry no
    // `simplify` object.
    let simplify = match item.get("simplify") {
        None => SimplifyCounters::default(),
        Some(obj) => SimplifyCounters {
            vars_eliminated: parse_hex(obj.get("vars_eliminated"), "vars_eliminated")?,
            clauses_subsumed: parse_hex(obj.get("clauses_subsumed"), "clauses_subsumed")?,
            clauses_strengthened: parse_hex(
                obj.get("clauses_strengthened"),
                "clauses_strengthened",
            )?,
            arena_bytes: parse_hex(obj.get("arena_bytes"), "arena_bytes")?,
            preprocess_micros: parse_hex(obj.get("preprocess_us"), "preprocess_us")?,
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
        simplify,
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
    fn scheduled_manifest_round_trips_and_fingerprints_distinctly() {
        use lv_analysis::KernelCategory;
        let dir = std::env::temp_dir().join(format!("lv-shard-sched-{}", std::process::id()));
        let path = dir.join("manifest.json");
        let mut manifest = sample_manifest();
        let default_fingerprint = manifest.fingerprint();
        manifest.schedule = StageSchedule::algorithm1()
            .with_override(
                KernelCategory::DependenceFree,
                vec![Stage::Splitting, Stage::Alive2, Stage::CUnroll],
            )
            .unwrap()
            .with_override(
                KernelCategory::Reduction,
                vec![Stage::CUnroll, Stage::Splitting, Stage::Alive2],
            )
            .unwrap();
        assert_ne!(
            manifest.fingerprint(),
            default_fingerprint,
            "effective overrides change the configuration fingerprint"
        );
        manifest.write(&path).unwrap();
        let loaded = SweepManifest::load(&path).unwrap();
        assert_eq!(loaded.schedule, manifest.schedule);
        assert_eq!(loaded.fingerprint(), manifest.fingerprint());
        assert_eq!(loaded.render(), manifest.render());

        // Tampering with the schedule trips the fingerprint check, exactly
        // like any other configuration field.
        let tampered = manifest.render().replace(
            "\"dependence-free\":[\"splitting\",\"alive2\",\"cunroll\"]",
            "\"dependence-free\":[\"alive2\",\"splitting\",\"cunroll\"]",
        );
        assert_ne!(tampered, manifest.render(), "tamper point must exist");
        std::fs::write(&path, &tampered).unwrap();
        match SweepManifest::load(&path) {
            Err(ShardError::FingerprintMismatch { .. }) => {}
            other => panic!("expected a fingerprint mismatch, got {:?}", other),
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Loads `sample_manifest()` with `"key":value` spliced into its reuse
    /// object, as a manifest from an earlier build would carry it.
    fn load_with_reuse_key(tag: &str, key: &str, value: bool) -> Result<SweepManifest, ShardError> {
        let dir = std::env::temp_dir().join(format!("lv-shard-{}-{}", tag, std::process::id()));
        let path = dir.join("manifest.json");
        let rendered = sample_manifest().render();
        let anchor = "\"incremental\":false";
        assert!(rendered.contains(anchor), "splice point must exist");
        let spliced = rendered.replace(anchor, &format!("{},\"{}\":{}", anchor, key, value));
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
                        name_mismatch: true,
                    }],
                    wall: Duration::from_micros(9999),
                    cache_hit: false,
                    reuse: ReuseCounters {
                        blast_hits: 7,
                        blast_misses: 2,
                        assumption_reuses: 5,
                    },
                    simplify: SimplifyCounters {
                        vars_eliminated: 210,
                        clauses_subsumed: 33,
                        clauses_strengthened: 12,
                        arena_bytes: 65_536,
                        preprocess_micros: 800,
                    },
                },
            )],
        };
        report.write(&path).unwrap();
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
        assert!(job.traces[0].name_mismatch);
        assert_eq!(job.traces[0].wall, Duration::from_micros(1234));
        assert_eq!(job.reuse.blast_hits, 7);
        assert_eq!(job.reuse.blast_misses, 2);
        assert_eq!(job.reuse.assumption_reuses, 5);
        assert_eq!(job.simplify.vars_eliminated, 210);
        assert_eq!(job.simplify.clauses_subsumed, 33);
        assert_eq!(job.simplify.clauses_strengthened, 12);
        assert_eq!(job.simplify.arena_bytes, 65_536);
        assert_eq!(job.simplify.preprocess_micros, 800);
        assert_eq!(loaded.render(), report.render());
        std::fs::remove_file(&path).unwrap();
    }
}
