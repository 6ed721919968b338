//! `warm_daemon`: the `lv-sweep serve --cache FILE` restart path. Set-up
//! fills a cache file cold and persists it; a daemon opened on that file
//! then answers 2 clients resubmitting the same jobs in a closed loop, every
//! job a dedupe hit.

use crate::metrics::{self, peak_rss_mb};
use crate::oracle::{cached, Oracle};
use crate::trace::{self, Layers};
use crate::workload::{self, JobSet, WORKERS};
use crate::{Args, Outcome};
use lv_core::service::VerdictFrame;
use lv_core::{
    CacheKey, CachedVerdict, ServiceClient, ServiceError, VerdictCache, VerificationEngine,
    VerificationService,
};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seeded sweep job sets the warm cache holds; round trips cycle through
/// them.
const SETS: usize = 8;

/// Round trips per client per second of `--seconds`.
const ROUND_TRIPS_PER_SECOND: f64 = 140.0;

/// The daemon brought up on a cold-filled cache file.
struct Warm {
    sets: Vec<JobSet>,
    /// The cold fill's verdicts, per set.
    cold: Vec<Vec<CachedVerdict>>,
    service: VerificationService,
    cache: Arc<VerdictCache>,
    gen: Duration,
    cells: usize,
    persist: Duration,
    open: Duration,
}

/// Set-up: seeded generation and vectorization, the cold fill, persisting
/// the cache, reopening it and binding the daemon.
fn set_up(args: &Args, dir: &Path) -> Warm {
    let kernels = workload::kernels(args.smoke.then_some(workload::SMOKE_KERNELS));
    let mut gen = Duration::ZERO;
    let sets: Vec<JobSet> = (0..SETS)
        .map(|round| {
            let (set, spent) =
                workload::sweep_jobs(&kernels, workload::round_seed(args.seed, round));
            gen += spent;
            set
        })
        .collect();
    let path = dir.join("warm.cache");
    let _ = std::fs::remove_file(&path);
    let fill = Arc::new(VerdictCache::open(&path).expect("open a fresh cache file"));
    let engine = VerificationEngine::new(workload::engine_config().with_cache(Arc::clone(&fill)));
    let cold = sets
        .iter()
        .map(|set| {
            engine
                .run_batch(&set.jobs)
                .jobs
                .iter()
                .map(cached)
                .collect()
        })
        .collect();
    let start = Instant::now();
    fill.persist().expect("persist the filled cache");
    let persist = start.elapsed();
    drop((engine, fill));
    let start = Instant::now();
    let cache = Arc::new(VerdictCache::open(&path).expect("reopen the filled cache"));
    let open = start.elapsed();
    let service =
        VerificationService::bind("127.0.0.1:0", workload::engine_config(), Arc::clone(&cache))
            .expect("bind the daemon on loopback");
    Warm {
        cells: SETS * kernels.len() * workload::COMPLETIONS_PER_KERNEL,
        sets,
        cold,
        service,
        cache,
        gen,
        persist,
        open,
    }
}

/// Round trips: which set each submitted, its latency, and the verdicts
/// (or the error).
type RoundTrips = Vec<(usize, Duration, Result<Vec<VerdictFrame>, ServiceError>)>;

/// The closed loop: each client submits a whole set, waits for every
/// verdict, then submits the next. Returns the wall time and every round
/// trip, client by client.
fn closed_loop(
    clients: &mut [ServiceClient],
    sets: &[JobSet],
    round_trips: usize,
) -> (Duration, RoundTrips) {
    let start = Instant::now();
    let per_client: Vec<RoundTrips> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    (0..round_trips)
                        .map(|i| {
                            let set = (c + i * WORKERS) % sets.len();
                            let start = Instant::now();
                            let verdicts = client.submit(&sets[set].jobs);
                            (set, start.elapsed(), verdicts)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (start.elapsed(), per_client.into_iter().flatten().collect())
}

/// Runs the workload; see [`crate::run_workload`].
pub fn run(args: &Args, dir: &Path) -> Outcome {
    let round_trips = args.rounds(ROUND_TRIPS_PER_SECOND);
    let mut setup_times = Vec::new();
    let mut warm = None;
    for _ in 0..args.setup_repeats() {
        drop(warm.take());
        let start = Instant::now();
        warm = Some(set_up(args, dir));
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let warm = warm.expect("at least one set-up");
    let addr = warm.service.local_addr();

    let (untraced, traced_run, stages) = std::thread::scope(|scope| {
        let server = scope.spawn(|| warm.service.serve_forever());
        let connected: Result<Vec<ServiceClient>, ServiceError> =
            (0..WORKERS).map(|_| ServiceClient::connect(addr)).collect();
        let result = connected.map(|mut clients| {
            let before = warm.service.status().stages;
            let untraced = closed_loop(&mut clients, &warm.sets, round_trips);
            let traced = args
                .trace
                .then(|| closed_loop(&mut clients, &warm.sets, round_trips));
            (untraced, traced, warm.service.status().stages - before)
        });
        let stopped = ServiceClient::connect(addr).and_then(ServiceClient::shutdown);
        if let Err(e) = stopped {
            eprintln!("cannot stop the daemon: {}", e);
            std::process::exit(2);
        }
        server
            .join()
            .expect("daemon thread panicked")
            .expect("daemon failed");
        result.unwrap_or_else(|e| {
            eprintln!("cannot connect to the daemon: {}", e);
            std::process::exit(2);
        })
    });

    let peak_rss = peak_rss_mb();
    let mut oracle = Oracle::default();
    check(&warm, &untraced.1, &mut oracle);
    check_fill(&warm, &mut oracle);
    if stages != 0 {
        oracle.fail(format!(
            "the warm daemon ran {} stage(s); every job should be a dedupe hit",
            stages
        ));
    }
    let (wall, trips) = untraced;
    let latencies: Vec<Duration> = trips.iter().map(|(_, latency, _)| *latency).collect();
    let jobs = oracle.attempted;
    let layers = traced_run.map(|(traced_wall, traced_trips)| {
        // The traced loop must answer as the untraced one did.
        for (a, b) in trips.iter().zip(&traced_trips) {
            match (&a.2, &b.2) {
                (Ok(a), Ok(b)) => {
                    for (x, y) in a.iter().zip(b) {
                        oracle.agree(&x.label, &x.verdict, &y.verdict, false);
                    }
                }
                (_, Err(e)) => oracle.fail(format!("traced round trip failed: {}", e)),
                (Err(_), Ok(_)) => {}
            }
        }
        layers(&warm, wall, traced_wall, jobs)
    });
    let metrics = metrics::end_to_end(&setup_times, wall, &latencies, &oracle, peak_rss);
    Outcome {
        units: latencies.len(),
        oracle,
        metrics,
        layers,
    }
}

/// Checks every answer of a loop: a dedupe hit and exactly the cold fill's
/// verdict, which [`check_fill`] put through the oracle.
fn check(warm: &Warm, trips: &RoundTrips, oracle: &mut Oracle) {
    for (set, _, answer) in trips {
        let jobs = &warm.sets[*set].jobs;
        match answer {
            Ok(frames) => {
                for (frame, (job, cold)) in frames.iter().zip(jobs.iter().zip(&warm.cold[*set])) {
                    oracle.tally(&frame.verdict);
                    oracle.agree(&job.label, &frame.verdict, cold, true);
                    if !frame.cache_hit {
                        oracle.fail(format!("{}: not answered from the cache", job.label));
                    }
                }
            }
            Err(e) => jobs
                .iter()
                .for_each(|job| oracle.missing(job, &e.to_string())),
        }
    }
}

/// Puts every cold-fill verdict through the oracle, once per job; its
/// violations count as failures of the run.
fn check_fill(warm: &Warm, oracle: &mut Oracle) {
    let mut fill = Oracle::default();
    for (set, cold) in warm.sets.iter().zip(&warm.cold) {
        for ((job, rule_equal), verdict) in set.jobs.iter().zip(&set.rule_equal).zip(cold) {
            fill.check(job, *rule_equal, verdict);
        }
    }
    oracle.failed += fill.failed;
    oracle.violations.extend(fill.violations);
}

/// The per-layer picture of the warm path. The daemon ran no stage, so
/// checksum, `tv` and `smt` are zero; `cir`, the wire codec and the cache
/// lookup are timed by calling them on every job of every set.
fn layers(warm: &Warm, untraced_wall: Duration, traced_wall: Duration, jobs: usize) -> Layers {
    let mut layers = Layers {
        threads: WORKERS,
        jobs,
        untraced_wall,
        traced_wall,
        gen: warm.gen,
        gen_cells: warm.cells,
        cache_persist: warm.persist,
        cache_persists: 1,
        cache_open: warm.open,
        cache_opens: 1,
        ..Layers::default()
    };
    let fingerprint = warm.service.fingerprint();
    for (set, verdicts) in warm.sets.iter().zip(&warm.cold) {
        let cw = trace::replay_cir_wire(&set.jobs, verdicts);
        layers.cir_wire.print += cw.print;
        layers.cir_wire.parse += cw.parse;
        layers.cir_wire.hash += cw.hash;
        layers.cir_wire.encode += cw.encode;
        layers.cir_wire.decode += cw.decode;
        layers.cir_wire.bytes += cw.bytes;
        layers.cir_wire.jobs += cw.jobs;
        for job in &set.jobs {
            let key = CacheKey {
                scalar: lv_cir::structural_hash(&job.scalar),
                candidate: workload::candidate_hash(&job.scalar, &job.candidate),
                config: fingerprint,
            };
            let start = Instant::now();
            let hit = warm.cache.get(&key);
            layers.cache_get += start.elapsed();
            layers.cache_gets += 1;
            assert!(hit.is_some(), "the warm cache lacks {}", job.label);
        }
    }
    layers
}
