//! Deterministic partitioning of a job list into shards.
//!
//! A [`ShardPlan`] assigns every job of a batch to exactly one of `N`
//! shards. The assignment is a pure function of the job *contents* (and,
//! for the contiguous policy, their positions), so a coordinator and its
//! worker processes — or two coordinators on different hosts — always
//! compute the same plan from the same manifest. Both policies are
//! verdict-order preserving: shards remember the original job indices and
//! the merge step places every result back at its index, so the merged
//! report is in job order no matter which shard ran which job.

use crate::engine::Job;
use lv_cir::hash::{structural_hash, Fnv64};

/// How jobs are distributed over shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Shard `job_key(job) % shards`. Spreads work independent of job order
    /// — appending jobs to the list never moves existing jobs between
    /// shards, which keeps per-shard caches warm across growing sweeps.
    HashMod,
    /// Contiguous index ranges of (up to) `ceil(jobs / shards)` jobs each.
    /// Preserves whatever locality the job list has (e.g. all candidates of
    /// one kernel stay on one shard), at the cost of re-partitioning when
    /// the list grows.
    Contiguous,
}

impl ShardPolicy {
    /// Stable tag used in the manifest exchange format.
    pub fn tag(self) -> &'static str {
        match self {
            ShardPolicy::HashMod => "hash-mod",
            ShardPolicy::Contiguous => "contiguous",
        }
    }

    /// Parses a manifest tag.
    pub fn from_tag(tag: &str) -> Result<ShardPolicy, String> {
        match tag {
            "hash-mod" => Ok(ShardPolicy::HashMod),
            "contiguous" => Ok(ShardPolicy::Contiguous),
            other => Err(format!("unknown shard policy tag `{}`", other)),
        }
    }
}

/// The stable key of one job: a content hash of the scalar, the candidate
/// (each by its own parameter positions, like the verdict-cache key), and
/// the label.
///
/// Alpha-renaming a kernel's locals does not move it between shards (the
/// structural hashes are rename-insensitive); any semantic edit, or a label
/// change, may.
pub fn job_key(job: &Job) -> u64 {
    let mut fnv = Fnv64::new();
    fnv.write_u64(structural_hash(&job.scalar));
    fnv.write_u64(structural_hash(&job.candidate));
    fnv.write_str(&job.label);
    fnv.finish()
}

/// A deterministic assignment of every job in a batch to exactly one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shards: usize,
    policy: ShardPolicy,
    /// `assignment[job_index] == shard`.
    assignment: Vec<usize>,
}

impl ShardPlan {
    /// Plans `jobs` over `shards` shards (clamped to at least 1) under
    /// `policy`.
    pub fn new(jobs: &[Job], shards: usize, policy: ShardPolicy) -> ShardPlan {
        let keys: Vec<u64> = jobs.iter().map(job_key).collect();
        ShardPlan::from_job_keys(&keys, shards, policy)
    }

    /// Plans jobs identified only by their stable keys — the form a
    /// generation-spec manifest uses, whose candidates do not exist yet
    /// when the plan is derived (the key there covers the scalar and the
    /// generated job's label; see
    /// [`GenerationSpec`](crate::shard::GenerationSpec)). Assignment is a
    /// pure function of the keys, so every participant that derives the
    /// same keys derives the same plan.
    pub fn from_job_keys(keys: &[u64], shards: usize, policy: ShardPolicy) -> ShardPlan {
        let shards = shards.max(1);
        let assignment = match policy {
            ShardPolicy::HashMod => keys
                .iter()
                .map(|key| (key % shards as u64) as usize)
                .collect(),
            ShardPolicy::Contiguous => {
                let chunk = keys.len().div_ceil(shards).max(1);
                (0..keys.len()).map(|index| index / chunk).collect()
            }
        };
        ShardPlan {
            shards,
            policy,
            assignment,
        }
    }

    /// The shard count the plan was built for.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The policy the plan was built under.
    pub fn policy(&self) -> ShardPolicy {
        self.policy
    }

    /// Number of jobs planned.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// `true` when the plan covers no jobs.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// The shard that owns job `index`.
    pub fn shard_of(&self, index: usize) -> usize {
        self.assignment[index]
    }

    /// The original job indices owned by `shard`, in ascending order.
    pub fn indices_of(&self, shard: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(index, &s)| (s == shard).then_some(index))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_cir::parse_function;

    fn jobs(n: usize) -> Vec<Job> {
        (0..n)
            .map(|i| {
                let src = format!(
                    "void k{}(int n, int *a, int *b) {{ for (int i = 0; i < n; i++) {{ a[i] = b[i] + {}; }} }}",
                    i, i
                );
                let f = parse_function(&src).unwrap();
                Job::new(format!("k{}", i), f.clone(), f)
            })
            .collect()
    }

    #[test]
    fn every_job_lands_in_exactly_one_shard() {
        let jobs = jobs(23);
        for policy in [ShardPolicy::HashMod, ShardPolicy::Contiguous] {
            for shards in [1, 2, 3, 7, 23, 40] {
                let plan = ShardPlan::new(&jobs, shards, policy);
                let mut seen = vec![0usize; jobs.len()];
                for shard in 0..shards {
                    for index in plan.indices_of(shard) {
                        assert_eq!(plan.shard_of(index), shard);
                        seen[index] += 1;
                    }
                }
                assert!(
                    seen.iter().all(|&count| count == 1),
                    "{:?}/{}: {:?}",
                    policy,
                    shards,
                    seen
                );
            }
        }
    }

    #[test]
    fn plans_are_stable_across_runs_and_zero_shards_is_clamped() {
        let jobs = jobs(9);
        let a = ShardPlan::new(&jobs, 4, ShardPolicy::HashMod);
        let b = ShardPlan::new(&jobs, 4, ShardPolicy::HashMod);
        assert_eq!(a, b);
        let clamped = ShardPlan::new(&jobs, 0, ShardPolicy::Contiguous);
        assert_eq!(clamped.shards(), 1);
        assert_eq!(clamped.indices_of(0).len(), 9);
    }

    #[test]
    fn hash_mod_assignment_ignores_list_position() {
        let mut jobs = jobs(8);
        let plan = ShardPlan::new(&jobs, 3, ShardPolicy::HashMod);
        let shard_of_last = plan.shard_of(7);
        let moved = jobs.remove(7);
        jobs.insert(0, moved);
        let replanned = ShardPlan::new(&jobs, 3, ShardPolicy::HashMod);
        assert_eq!(replanned.shard_of(0), shard_of_last);
    }

    #[test]
    fn contiguous_ranges_are_contiguous() {
        let jobs = jobs(10);
        let plan = ShardPlan::new(&jobs, 3, ShardPolicy::Contiguous);
        assert_eq!(plan.indices_of(0), vec![0, 1, 2, 3]);
        assert_eq!(plan.indices_of(1), vec![4, 5, 6, 7]);
        assert_eq!(plan.indices_of(2), vec![8, 9]);
    }
}
