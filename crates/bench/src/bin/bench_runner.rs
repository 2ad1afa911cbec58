//! Machine-readable perf baseline runner.
//!
//! Measures the `geometry → arrangement → invariant` construction path stage
//! by stage, the canonicalisation stage (`canonical_code`, cached re-reads,
//! cached isomorphism checks, plus the giant-component sweep statistics
//! behind the lazy Lemma 3.1 serialisation) *and* the datalog
//! query-evaluation stage (the `topo_queries::programs` fixpoint programs on
//! invariant exports, delta-driven engine vs the frozen naive engine) on the
//! seeded cartographic workloads, each at three datagen scales, against the
//! frozen pre-optimisation reference paths (`topo_core::top_naive`,
//! `topo_core::canonical_code_naive`, `datalog::naive`), and writes the
//! medians to a JSON file so every perf PR has a recorded trajectory to
//! beat. A fourth stage throws the duplicate-heavy store mix at the
//! concurrent [`InvariantStore`] from scoped threads — multi-threaded
//! ingest throughput, then the same query sweep against a memoising store
//! and the memo-disabled baseline. A fifth stage measures the durability
//! layer: WAL-logged ingest, WAL replay, snapshot write/load, and mixed
//! snapshot+WAL recovery at three workload sizes. A sixth stage sweeps the
//! in-tree thread pool (`topo-parallel`) over pool sizes 1/2/4/8 on the
//! batched store ingest — the only fan-out left, one instance per task —
//! recording the speedup-vs-threads curve (and the host's core count, so a
//! single-core CI run is honest about what it could measure). A seventh
//! stage — `demand` — measures the goal-directed path introduced with the
//! magic-set rewrite: the library's linear connectivity program under
//! `run_goal` vs plain bottom-up `run`, against the retired quadratic
//! connectivity program (semi-naive and the frozen naive oracle), plus a
//! bound-goal single-source reachability demo where the rewrite's demand
//! restriction is asymptotic, not constant-factor. An eighth stage —
//! `incremental` — measures single-region edit latency through the
//! incremental maintenance layer (`MaintainedInvariant`: remove a region,
//! read the repaired canonical hash, re-insert it, read again) against the
//! same state sequence as two cold `top(I)` rebuilds, on each cartographic
//! workload at two scales.
//! `BENCH_10.json` at the repository root is the committed baseline
//! (`BENCH_9.json`/`BENCH_8.json`/`BENCH_7.json`/`BENCH_6.json`/
//! `BENCH_5.json`/`BENCH_4.json`/`BENCH_3.json`/`BENCH_2.json` record the
//! earlier trajectory; BENCHMARKS.md tabulates it); see DESIGN.md,
//! "Performance", "Canonicalisation", "Datalog engine", "Demand-driven
//! evaluation", "Invariant store", "Durability & degradation",
//! "Parallelism" and "Incremental maintenance".
//!
//! ```text
//! bench_runner [--quick] [--stage NAME]... [--out PATH]
//! ```
//!
//! `--quick` drops the sample count and skips the reference canonicalisation
//! on the scales where it is intractable (for CI smoke coverage); the default
//! sample count matches the committed baseline. `--stage` (repeatable)
//! restricts the run to the named stages — `construction`, `datalog`,
//! `demand`, `store`, `recovery`, `parallel`, `incremental` — and the JSON
//! records which
//! stages were actually run, so a filtered record is honest about what it
//! holds. Every median in the JSON is accompanied by the sample count
//! actually used for it, so quick-mode records are honest about how little
//! they measured. Requires the `naive-reference` feature:
//!
//! ```text
//! cargo run --release -p topo-bench --features naive-reference \
//!     --bin bench_runner -- --quick --stage demand --out BENCH_ci.json
//! ```

use std::sync::Arc;
use std::time::Instant;
use topo_bench::{median_ns, median_ns_with};
use topo_core::relational::datalog::naive as datalog_naive;
use topo_core::relational::Term;
use topo_core::spatial::transform::AffineMap;
use topo_core::{
    datalog_program, program_structure, quadratic_connectivity_program, Goal, InvariantStore,
    MaintainedInvariant, MemoryBackend, Region, Semantics, SpatialInstance, StoreConfig,
    TopologicalInvariant, TopologicalQuery,
};
use topo_datagen::{figure1, ign_city, nested_rings, sequoia_hydro, sequoia_landcover, Scale};

const FULL_SAMPLES: usize = 15;
const QUICK_SAMPLES: usize = 5;
const GRIDS: [usize; 3] = [8, 16, 28];
/// Scales for the datalog query-evaluation stage: the naive engine's
/// connectivity cost grows with `|region cells|² × |adjacency|`, so its
/// tractable range ends far below the construction scales (a city grid-5
/// naive run takes over two minutes).
const DATALOG_GRIDS: [usize; 3] = [3, 5, 8];
const SEED: u64 = 7;
/// The reference canonicalisation is super-quadratic; above this cell count a
/// single sample would take tens of minutes, so it is recorded as `null`.
const NAIVE_CANONICAL_CELL_LIMIT: usize = 3000;
/// Inner repetitions when timing the (sub-microsecond) cached paths.
const CACHED_REPS: u32 = 1024;
/// Once a workload's naive datalog median exceeds this budget, larger scales
/// of that workload record the reference engine as `null` instead of
/// spending minutes per sample on it.
const NAIVE_DATALOG_BUDGET_NS: u128 = 1_500_000_000;
const NAIVE_DATALOG_BUDGET_QUICK_NS: u128 = 400_000_000;
/// Store stage: ingest and query thread counts for the scoped-thread sweeps.
const STORE_INGEST_THREADS: usize = 8;
const STORE_QUERY_THREADS: usize = 8;
/// Homeomorphic copies per base topology in the duplicate-heavy store mix.
const STORE_COPIES: usize = 100;
const STORE_COPIES_QUICK: usize = 20;
/// Full passes over every (instance, query) pair each query thread makes.
const STORE_QUERY_ROUNDS: usize = 2;
const STORE_QUERY_ROUNDS_QUICK: usize = 1;
/// Pool sizes the parallel stage sweeps (1 is the sequential fallback and the
/// baseline every speedup is measured against).
const PARALLEL_THREADS: [usize; 4] = [1, 2, 4, 8];
/// Scales for the incremental-maintenance stage: a small grid where full
/// rebuilds are cheap (the honest case for incremental repair) and a medium
/// grid where they are not.
const INCREMENTAL_GRIDS: [usize; 2] = [4, 16];

struct ScaleReport {
    grid: usize,
    cells: usize,
    /// (stage name, optimised median ns).
    stages: Vec<(&'static str, u128)>,
    naive_arrangement_ns: u128,
    naive_top_ns: u128,
    /// First `canonical_code()` call on a fresh invariant (cache cold).
    canonical_first_ns: u128,
    /// Re-reading the code from the cache (per call; fractional because a
    /// cache hit costs under a nanosecond).
    canonical_cached_ns: f64,
    /// `is_isomorphic_to` between two warmed invariants (per call).
    iso_cached_ns: f64,
    /// The frozen reference canonicalisation, when tractable at this scale.
    naive_canonical_ns: Option<u128>,
    /// Samples actually used for the construction stages at this scale.
    stage_samples: usize,
    /// Samples actually used for the cold canonical median (≤ `samples`).
    canonical_samples: usize,
    /// Samples actually used for the reference canonical median.
    naive_canonical_samples: Option<usize>,
    /// Giant-component sweep statistics: skeleton cells of the largest
    /// component, its Lemma 3.1 start choices, and the choices surviving the
    /// refined start filter (each survivor streams until its first losing
    /// token).
    giant: topo_core::SweepStats,
}

impl ScaleReport {
    fn stage(&self, name: &str) -> u128 {
        self.stages.iter().find(|(n, _)| *n == name).expect("stage present").1
    }

    fn top_speedup(&self) -> f64 {
        self.naive_top_ns as f64 / self.stage("top") as f64
    }

    fn arrangement_speedup(&self) -> f64 {
        self.naive_arrangement_ns as f64 / self.stage("arrangement") as f64
    }

    fn canonical_speedup(&self) -> Option<f64> {
        self.naive_canonical_ns.map(|n| n as f64 / self.canonical_first_ns as f64)
    }
}

/// Per-scale canonicalisation measurements (cold, cached, warmed isomorphism,
/// reference path) plus the sample counts actually used.
struct CanonicalReport {
    first_ns: u128,
    cached_ns: f64,
    iso_ns: f64,
    naive_ns: Option<u128>,
    samples: usize,
    naive_samples: Option<usize>,
}

/// Measures the canonicalisation stage on already-built invariants.
fn measure_canonical(
    instance: &SpatialInstance,
    cells: usize,
    samples: usize,
    quick: bool,
) -> CanonicalReport {
    // Cold canonicalisation: a fresh invariant per sample (construction is
    // untimed setup; the canonicalisation itself dominates anyway).
    let canonical_samples = samples.min(5);
    let canonical_first_ns = median_ns_with(
        canonical_samples,
        || topo_core::top(instance),
        |invariant| {
            invariant.canonical_code();
            invariant
        },
    );
    // Cached paths: warm two invariants once, then time per-call medians over
    // batches (a single call is tens of nanoseconds).
    let warm_a = topo_core::top(instance);
    let warm_b = topo_core::top(instance);
    warm_a.canonical_code();
    warm_b.canonical_code();
    let canonical_cached_ns = median_ns(samples, || {
        for _ in 0..CACHED_REPS {
            std::hint::black_box(std::hint::black_box(&warm_a).canonical_code());
        }
    }) as f64
        / CACHED_REPS as f64;
    let iso_cached_ns = median_ns(samples, || {
        for _ in 0..CACHED_REPS {
            std::hint::black_box(std::hint::black_box(&warm_a).is_isomorphic_to(&warm_b));
        }
    }) as f64
        / CACHED_REPS as f64;
    // The frozen reference path: super-quadratic, so sample sparsely and skip
    // entirely where a single run would take tens of minutes (or in quick/CI
    // mode, anything beyond the small scales).
    let cell_limit = if quick { 1100 } else { NAIVE_CANONICAL_CELL_LIMIT };
    let naive_samples =
        (cells <= cell_limit).then(|| if cells <= 500 { samples.min(3) } else { 1 });
    let naive_canonical_ns =
        naive_samples.map(|n| median_ns(n, || topo_core::canonical_code_naive(&warm_a)));
    CanonicalReport {
        first_ns: canonical_first_ns,
        cached_ns: canonical_cached_ns,
        iso_ns: iso_cached_ns,
        naive_ns: naive_canonical_ns,
        samples: canonical_samples,
        naive_samples,
    }
}

fn measure_scale(
    instance: &SpatialInstance,
    grid: usize,
    samples: usize,
    quick: bool,
) -> ScaleReport {
    // Every stage is timed in isolation (its inputs are prepared untimed),
    // so the recorded medians are genuinely per-stage; `top` is the
    // end-to-end total.
    let input = instance.to_arrangement_input();
    let arrangement_ns = median_ns(samples, || topo_core::arrangement::build_arrangement(&input));
    let arrangement = topo_core::arrangement::build_arrangement(&input);
    let classify_ns = median_ns(samples, || {
        topo_core::invariant::construct::classify_arrangement(instance, &input, &arrangement)
    });
    let reduce_ns = median_ns_with(
        samples,
        || topo_core::invariant::construct::classify_arrangement(instance, &input, &arrangement),
        |mut complex| {
            complex.reduce();
            complex
        },
    );
    let complex = {
        let mut complex = topo_core::invariant::build_complex(instance);
        complex.reduce();
        complex
    };
    let freeze_ns = median_ns(samples, || {
        TopologicalInvariant::from_complex(&complex, instance.schema().clone())
    });
    let top_ns = median_ns(samples, || topo_core::top(instance));
    let naive_arrangement_ns =
        median_ns(samples, || topo_core::arrangement::build_arrangement_naive(&input));
    let naive_top_ns = median_ns(samples, || topo_core::top_naive(instance));
    // Cheap re-freeze of the already-reduced complex; avoids one more full
    // end-to-end run just to read the cell count and sweep statistics.
    let frozen = TopologicalInvariant::from_complex(&complex, instance.schema().clone());
    let cells = frozen.cell_count();
    let giant = topo_core::sweep_stats(&frozen);
    let canonical = measure_canonical(instance, cells, samples, quick);
    ScaleReport {
        grid,
        cells,
        stages: vec![
            ("arrangement", arrangement_ns),
            ("classify", classify_ns),
            ("reduce", reduce_ns),
            ("freeze", freeze_ns),
            ("top", top_ns),
        ],
        naive_arrangement_ns,
        naive_top_ns,
        canonical_first_ns: canonical.first_ns,
        canonical_cached_ns: canonical.cached_ns,
        iso_cached_ns: canonical.iso_ns,
        naive_canonical_ns: canonical.naive_ns,
        stage_samples: samples,
        canonical_samples: canonical.samples,
        naive_canonical_samples: canonical.naive_samples,
        giant,
    }
}

/// One program of the datalog stage at one scale.
struct DatalogProgramReport {
    name: &'static str,
    semi_ns: u128,
    naive_ns: Option<u128>,
    semi_samples: usize,
    naive_samples: Option<usize>,
}

impl DatalogProgramReport {
    fn speedup(&self) -> Option<f64> {
        self.naive_ns.map(|n| n as f64 / self.semi_ns as f64)
    }
}

/// The datalog query-evaluation stage at one scale of one workload.
struct DatalogScaleReport {
    grid: usize,
    cells: usize,
    programs: Vec<DatalogProgramReport>,
}

/// Measures the `topo_queries::programs` fixpoint programs (stratified — the
/// mode the query library evaluates under) on the prepared invariant export
/// (`program_structure`, which adds the successor scaffolding the linear
/// connectivity program walks) of each scale: the delta-driven engine
/// against the frozen `datalog::naive` oracle. The reference engine stops
/// being measured for a workload once a median exceeds the time budget; the
/// budget-crossing scale itself is still recorded. (Since the library's
/// connectivity program became linear-size, the naive budget mostly matters
/// for the quadratic reference program measured by the demand stage.)
fn measure_datalog(
    gen: &dyn Fn(usize) -> SpatialInstance,
    samples: usize,
    quick: bool,
) -> Vec<DatalogScaleReport> {
    let budget = if quick { NAIVE_DATALOG_BUDGET_QUICK_NS } else { NAIVE_DATALOG_BUDGET_NS };
    let queries: [(&'static str, TopologicalQuery); 2] = [
        ("is_connected", TopologicalQuery::IsConnected(0)),
        ("has_hole", TopologicalQuery::HasHole(0)),
    ];
    let mut over_budget = [false; 2];
    let mut out = Vec::new();
    for &grid in &DATALOG_GRIDS {
        let instance = gen(grid);
        let invariant = topo_core::top(&instance);
        let structure = program_structure(&invariant);
        let mut programs = Vec::new();
        for (p, (name, query)) in queries.iter().enumerate() {
            let program = datalog_program(query, instance.schema()).expect("program available");
            let semi_ns =
                median_ns(samples, || program.run(&structure, Semantics::Stratified, usize::MAX));
            let (naive_ns, naive_samples) = if over_budget[p] {
                (None, None)
            } else {
                // One probe run decides how many samples the reference can
                // afford; slow probes stand alone as a 1-sample median.
                let probe = median_ns(1, || {
                    datalog_naive::run(&program, &structure, Semantics::Stratified, usize::MAX)
                });
                let (ns, used) = if probe <= 100_000_000 {
                    let extra = samples.min(3);
                    (
                        median_ns(extra, || {
                            datalog_naive::run(
                                &program,
                                &structure,
                                Semantics::Stratified,
                                usize::MAX,
                            )
                        }),
                        extra,
                    )
                } else {
                    (probe, 1)
                };
                if ns > budget {
                    over_budget[p] = true;
                }
                (Some(ns), Some(used))
            };
            programs.push(DatalogProgramReport {
                name,
                semi_ns,
                naive_ns,
                semi_samples: samples,
                naive_samples,
            });
        }
        out.push(DatalogScaleReport { grid, cells: invariant.cell_count(), programs });
    }
    out
}

/// The invariant-store service stage: a duplicate-heavy mixed workload
/// ingested and queried from scoped threads.
struct StoreReport {
    instances: usize,
    classes: usize,
    bases: usize,
    ingest_threads: usize,
    query_threads: usize,
    ingest_ns: u128,
    ingest_per_sec: f64,
    /// Queries issued per sweep (threads × rounds × instances × mix size).
    queries: u64,
    memo_ns: u128,
    memo_qps: f64,
    memo_hit_rate: f64,
    nomemo_ns: u128,
    nomemo_qps: f64,
    dedup_hits: u64,
}

impl StoreReport {
    fn memo_speedup(&self) -> f64 {
        self.memo_qps / self.nomemo_qps
    }
}

/// The store mix: the three cartographic generators over two seeds and three
/// small grids, plus the running examples, each repeated under `copies`
/// homeomorphic images (translation / rotation / reflection round-robin).
/// Copy-major order spreads the duplicates across the ingest stream, the way
/// a service would see them arrive.
fn store_workload(quick: bool) -> (usize, Vec<SpatialInstance>) {
    let copies = if quick { STORE_COPIES_QUICK } else { STORE_COPIES };
    let mut bases: Vec<SpatialInstance> = Vec::new();
    for seed in [1u64, 7] {
        for grid in [3usize, 4, 5] {
            let scale = Scale { grid };
            bases.push(sequoia_landcover(scale, seed));
            bases.push(sequoia_hydro(scale, seed));
            bases.push(ign_city(scale, seed));
        }
    }
    bases.push(figure1());
    bases.push(nested_rings(3, 2));
    bases.push(nested_rings(2, 3));
    let mut out = Vec::with_capacity(bases.len() * copies);
    for k in 0..copies {
        let shift = AffineMap::translation(k as i64 * 130_001, -(k as i64) * 70_003);
        let map = match k % 4 {
            1 => AffineMap::rotation90().compose(&shift),
            2 => AffineMap::reflection_x().compose(&shift),
            3 => AffineMap::rotation90().compose(&AffineMap::reflection_x()).compose(&shift),
            _ => shift,
        };
        for base in &bases {
            out.push(map.apply_instance(base));
        }
    }
    (bases.len(), out)
}

/// One timed sweep: every query thread walks every (instance, query) pair
/// `rounds` times, staggered so threads touch different keys at any moment.
fn store_query_sweep(
    store: &InvariantStore,
    instances: usize,
    queries: &[TopologicalQuery],
    rounds: usize,
) -> u128 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..STORE_QUERY_THREADS {
            s.spawn(move || {
                for _ in 0..rounds {
                    for step in 0..instances {
                        let id = (step + t * 101) % instances;
                        for query in queries {
                            std::hint::black_box(store.query(id, query));
                        }
                    }
                }
            });
        }
    });
    start.elapsed().as_nanos()
}

/// Measures the store stage: multi-threaded ingest throughput (the full
/// `top(I)` + canonicalisation + content-addressing pipeline per instance),
/// then the same query sweep against a memoising store and the
/// memo-disabled baseline — the speedup is what class-level memoisation
/// buys on a duplicate-heavy mix.
fn measure_store(quick: bool) -> StoreReport {
    let (bases, instances) = store_workload(quick);
    let queries = topo_bench::strategy_queries();
    let rounds = if quick { STORE_QUERY_ROUNDS_QUICK } else { STORE_QUERY_ROUNDS };

    let store = InvariantStore::default();
    let chunk = instances.len().div_ceil(STORE_INGEST_THREADS);
    let start = Instant::now();
    std::thread::scope(|s| {
        for slice in instances.chunks(chunk) {
            let store = &store;
            s.spawn(move || {
                for instance in slice {
                    store.ingest(instance);
                }
            });
        }
    });
    let ingest_ns = start.elapsed().as_nanos();

    let memo_ns = store_query_sweep(&store, instances.len(), &queries, rounds);
    let stats = store.stats();

    // The baseline store deduplicates identically but answers every query by
    // evaluating on the class representative (ingested untimed).
    let baseline = InvariantStore::new(StoreConfig::without_memo());
    std::thread::scope(|s| {
        for slice in instances.chunks(chunk) {
            let baseline = &baseline;
            s.spawn(move || {
                for instance in slice {
                    baseline.ingest(instance);
                }
            });
        }
    });
    let nomemo_ns = store_query_sweep(&baseline, instances.len(), &queries, rounds);

    let queries_per_sweep = (STORE_QUERY_THREADS * rounds * instances.len() * queries.len()) as u64;
    let per_sec = |count: u64, ns: u128| count as f64 / (ns as f64 / 1e9);
    StoreReport {
        instances: instances.len(),
        classes: store.class_count(),
        bases,
        ingest_threads: STORE_INGEST_THREADS,
        query_threads: STORE_QUERY_THREADS,
        ingest_ns,
        ingest_per_sec: per_sec(instances.len() as u64, ingest_ns),
        queries: queries_per_sweep,
        memo_ns,
        memo_qps: per_sec(queries_per_sweep, memo_ns),
        memo_hit_rate: stats.hit_rate(),
        nomemo_ns,
        nomemo_qps: per_sec(queries_per_sweep, nomemo_ns),
        dedup_hits: stats.dedup_hits,
    }
}

/// The durability stage at one workload size: snapshot write/load, WAL
/// append and replay throughput, and end-to-end recovery time.
struct RecoveryReport {
    copies: usize,
    instances: usize,
    classes: usize,
    wal_records: u64,
    wal_bytes: usize,
    ingest_log_ns: u128,
    ingest_log_per_sec: f64,
    wal_replay_ns: u128,
    wal_replay_records_per_sec: f64,
    snapshot_write_ns: u128,
    snapshot_bytes: usize,
    snapshot_load_ns: u128,
    mixed_recover_ns: u128,
    samples: usize,
}

/// A compact duplicate-heavy invariant pool for the durability stage: six
/// small bases, `copies` homeomorphic images each, pre-canonicalised so the
/// timed sections measure the persistence layer rather than `top(I)`.
fn persist_workload(copies: usize) -> Vec<Arc<TopologicalInvariant>> {
    let scale = Scale { grid: 3 };
    let bases = [
        sequoia_landcover(scale, 1),
        sequoia_hydro(scale, 1),
        ign_city(scale, 1),
        figure1(),
        nested_rings(2, 2),
        nested_rings(3, 2),
    ];
    let mut out = Vec::with_capacity(bases.len() * copies);
    for k in 0..copies {
        let shift = AffineMap::translation(k as i64 * 91_003, -(k as i64) * 47_057);
        let map = match k % 3 {
            1 => AffineMap::rotation90().compose(&shift),
            2 => AffineMap::reflection_x().compose(&shift),
            _ => shift,
        };
        for base in &bases {
            let invariant = Arc::new(topo_core::top(&map.apply_instance(base)));
            invariant.canonical_code();
            out.push(invariant);
        }
    }
    out
}

/// Measures the snapshot + WAL durability layer at three workload sizes:
/// WAL-logged ingest (append throughput), WAL-only recovery (replay
/// throughput), checkpoint (snapshot write), snapshot-only recovery
/// (snapshot load + decode) and a mixed snapshot + WAL recovery — all on
/// the in-memory backend, so the medium costs nothing and the format and
/// replay machinery are what is timed.
fn measure_persist(quick: bool) -> Vec<RecoveryReport> {
    let copies_list: [usize; 3] = if quick { [2, 4, 8] } else { [4, 10, 24] };
    let samples = if quick { 3 } else { 7 };
    let mut out = Vec::new();
    for &copies in &copies_list {
        let invariants = persist_workload(copies);

        // WAL-logged ingest (codes pre-warmed: locking + content addressing
        // + record encoding + append), plus a removal tail so the log holds
        // the full operation vocabulary.
        let backend = MemoryBackend::new();
        let store = InvariantStore::open(StoreConfig::default(), backend.clone())
            .expect("open empty store");
        let start = Instant::now();
        for invariant in &invariants {
            store.ingest_invariant(invariant.clone());
        }
        let ingest_log_ns = start.elapsed().as_nanos();
        let mut removed = 0u64;
        for id in (0..invariants.len()).step_by(10) {
            store.remove_instance(id);
            removed += 1;
        }
        let wal_records = invariants.len() as u64 + removed;
        let wal_bytes = backend.wal_bytes().len();

        // WAL-only recovery: replay every record from an empty base state.
        let wal_replay_ns = median_ns(samples, || {
            InvariantStore::open(StoreConfig::default(), backend.clone()).expect("wal replay")
        });

        // Checkpoint: encode + write the snapshot (the first call also
        // resets the WAL; later samples re-write the same state).
        let snapshot_write_ns = median_ns(samples, || store.checkpoint().expect("checkpoint"));
        let snapshot_bytes = backend.snapshot_bytes().map_or(0, |b| b.len());

        // Snapshot-only recovery (the WAL is empty after the checkpoint).
        let snapshot_load_ns = median_ns(samples, || {
            InvariantStore::open(StoreConfig::default(), backend.clone()).expect("snapshot load")
        });

        // Mixed recovery: a second generation of ingests (all dedup hits)
        // lands in the fresh WAL on top of the snapshot.
        for invariant in &invariants {
            store.ingest_invariant(invariant.clone());
        }
        let mixed_recover_ns = median_ns(samples, || {
            InvariantStore::open(StoreConfig::default(), backend.clone()).expect("mixed recovery")
        });

        let per_sec = |count: u64, ns: u128| count as f64 / (ns as f64 / 1e9);
        out.push(RecoveryReport {
            copies,
            instances: store.instance_count(),
            classes: store.class_count(),
            wal_records,
            wal_bytes,
            ingest_log_ns,
            ingest_log_per_sec: per_sec(invariants.len() as u64, ingest_log_ns),
            wal_replay_ns,
            wal_replay_records_per_sec: per_sec(wal_records, wal_replay_ns),
            snapshot_write_ns,
            snapshot_bytes,
            snapshot_load_ns,
            mixed_recover_ns,
            samples,
        });
    }
    out
}

/// The parallel stage at one pool size.
struct ParallelReport {
    threads: usize,
    batch_ingest_ns: u128,
}

/// The whole parallel stage: the sweep plus the context needed to read it.
struct ParallelStage {
    host_threads: usize,
    batch_size: usize,
    samples: usize,
    sweep: Vec<ParallelReport>,
}

/// Sweeps the in-tree thread pool over [`PARALLEL_THREADS`], timing the
/// batched store ingest (`try_ingest_batch`, which builds and canonicalises
/// one instance per pool task) at each pool size. The pool size is set via
/// `topo_parallel::set_global_threads` — the same switch `TOPO_THREADS`
/// feeds — and restored afterwards. On a host with fewer cores than the
/// sweep asks for, the curve goes flat instead of up; `host_threads` in the
/// JSON records how many cores the numbers were measured on.
fn measure_parallel(quick: bool) -> ParallelStage {
    let samples = if quick { 3 } else { 5 };
    // Homeomorphic copies of three small bases, so canonicalisation
    // dominates and the dedup path is exercised.
    let small = Scale { grid: 4 };
    let bases = [sequoia_landcover(small, SEED), sequoia_hydro(small, SEED), ign_city(small, SEED)];
    let mut batch: Vec<SpatialInstance> = Vec::new();
    for k in 0..8usize {
        let map = AffineMap::translation(k as i64 * 130_001, -(k as i64) * 70_003);
        for base in &bases {
            batch.push(map.apply_instance(base));
        }
    }

    let previous = topo_core::parallel::global_threads();
    let mut sweep = Vec::new();
    for &threads in &PARALLEL_THREADS {
        topo_core::parallel::set_global_threads(threads);
        let batch_ingest_ns = median_ns_with(samples, InvariantStore::default, |store| {
            store.try_ingest_batch(&batch);
            store
        });
        sweep.push(ParallelReport { threads, batch_ingest_ns });
    }
    topo_core::parallel::set_global_threads(previous);

    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    ParallelStage { host_threads, batch_size: batch.len(), samples, sweep }
}

/// The bound-goal single-source reachability demo at one scale: the
/// quadratic program's `Reach` relation queried as `Reach(seed, y)`, where
/// the magic-set rewrite restricts derivation to the seed's own component.
struct ReachDemo {
    seed: u32,
    answers: usize,
    goal_ns: u128,
    full_ns: u128,
}

impl ReachDemo {
    fn speedup(&self) -> f64 {
        self.full_ns as f64 / self.goal_ns as f64
    }
}

/// The demand stage at one scale of one workload.
struct DemandScaleReport {
    grid: usize,
    cells: usize,
    /// The library's linear connectivity program through `run_goal` (the
    /// magic-set rewrite + semi-naive engine + goal lookup).
    goal_ns: u128,
    /// The same program through plain bottom-up `run`.
    bottomup_ns: u128,
    /// The retired quadratic connectivity program, semi-naive bottom-up —
    /// the path BENCH_8 measured as `is_connected`.
    quadratic_ns: u128,
    /// The frozen naive oracle on the quadratic program, budget-capped.
    naive_ns: Option<u128>,
    samples: usize,
    naive_samples: Option<usize>,
    reach: Option<ReachDemo>,
}

impl DemandScaleReport {
    fn goal_vs_quadratic(&self) -> f64 {
        self.quadratic_ns as f64 / self.goal_ns as f64
    }

    fn goal_vs_bottomup(&self) -> f64 {
        self.bottomup_ns as f64 / self.goal_ns as f64
    }

    fn goal_vs_naive(&self) -> Option<f64> {
        self.naive_ns.map(|n| n as f64 / self.goal_ns as f64)
    }
}

/// Measures the goal-directed demand path on each scale's prepared export:
/// the library's linear connectivity program under `run_goal` (magic-set
/// rewrite, then the unchanged semi-naive engine) vs plain bottom-up `run`,
/// both against the quadratic connectivity program the query library used
/// before this stage existed (semi-naive, and the frozen naive oracle under
/// the usual budget). The `reach_from_seed` demo rewrites the quadratic
/// program for the bound goal `Reach(seed, y)` — single-source instead of
/// all-pairs reachability — which is where the rewrite's restriction is
/// asymptotic rather than constant-factor.
fn measure_demand(
    gen: &dyn Fn(usize) -> SpatialInstance,
    samples: usize,
    quick: bool,
) -> Vec<DemandScaleReport> {
    let budget = if quick { NAIVE_DATALOG_BUDGET_QUICK_NS } else { NAIVE_DATALOG_BUDGET_NS };
    let mut naive_over_budget = false;
    let mut out = Vec::new();
    for &grid in &DATALOG_GRIDS {
        let instance = gen(grid);
        let invariant = topo_core::top(&instance);
        let structure = program_structure(&invariant);
        let linear = datalog_program(&TopologicalQuery::IsConnected(0), instance.schema())
            .expect("connectivity program available");
        let goal = linear.goal_atom();
        let goal_ns = median_ns(samples, || {
            linear.run_goal(&goal, &structure, Semantics::Stratified, usize::MAX)
        });
        let bottomup_ns =
            median_ns(samples, || linear.run(&structure, Semantics::Stratified, usize::MAX));
        let quadratic = quadratic_connectivity_program(instance.schema(), 0);
        let quadratic_ns =
            median_ns(samples, || quadratic.run(&structure, Semantics::Stratified, usize::MAX));
        let (naive_ns, naive_samples) = if naive_over_budget {
            (None, None)
        } else {
            let probe = median_ns(1, || {
                datalog_naive::run(&quadratic, &structure, Semantics::Stratified, usize::MAX)
            });
            let (ns, used) = if probe <= 100_000_000 {
                let extra = samples.min(3);
                (
                    median_ns(extra, || {
                        datalog_naive::run(
                            &quadratic,
                            &structure,
                            Semantics::Stratified,
                            usize::MAX,
                        )
                    }),
                    extra,
                )
            } else {
                (probe, 1)
            };
            if ns > budget {
                naive_over_budget = true;
            }
            (Some(ns), Some(used))
        };
        // Bound-goal demo: seed from the first derived Reach tuple (any cell
        // of the region), then Reach(seed, y) goal-directed vs the full
        // bottom-up run + answer lookup.
        let full = quadratic
            .run(&structure, Semantics::Stratified, usize::MAX)
            .expect("quadratic program runs");
        let seed = full.relation("Reach").and_then(|r| r.sorted_tuples().first().map(|t| t[0]));
        let reach = seed.map(|s| {
            let reach_goal = Goal::new("Reach", vec![Term::Const(s), Term::Var(0)]);
            let answers = quadratic
                .run_goal(&reach_goal, &structure, Semantics::Stratified, usize::MAX)
                .expect("goal-directed run succeeds")
                .len();
            let reach_goal_ns = median_ns(samples, || {
                quadratic.run_goal(&reach_goal, &structure, Semantics::Stratified, usize::MAX)
            });
            let reach_full_ns = median_ns(samples, || {
                quadratic.run(&structure, Semantics::Stratified, usize::MAX).map(|r| {
                    topo_core::relational::datalog::magic::goal_answers(&r, "Reach", &reach_goal)
                })
            });
            ReachDemo { seed: s, answers, goal_ns: reach_goal_ns, full_ns: reach_full_ns }
        });
        out.push(DemandScaleReport {
            grid,
            cells: invariant.cell_count(),
            goal_ns,
            bottomup_ns,
            quadratic_ns,
            naive_ns,
            samples,
            naive_samples,
            reach,
        });
    }
    out
}

/// The incremental-maintenance stage at one scale of one workload: the
/// latency of a single-region edit round trip (remove one region, read the
/// repaired canonical hash, re-insert it, read again) through
/// [`MaintainedInvariant`], against the same state sequence via two cold
/// `top(I)` rebuilds.
struct IncrementalScaleReport {
    grid: usize,
    cells: usize,
    regions: usize,
    /// Median maintained round trip (two edits + two hash reads).
    incremental_ns: u128,
    /// Median cold round trip (two full `top` + canonicalisation runs).
    rebuild_ns: u128,
    samples: usize,
    /// Maintenance-cache counters accumulated over the whole measurement —
    /// the honesty record of how much work the repairs actually did.
    stats: topo_core::MaintainStats,
}

impl IncrementalScaleReport {
    fn speedup(&self) -> f64 {
        self.rebuild_ns as f64 / self.incremental_ns as f64
    }
}

/// Measures the incremental stage on one workload: per scale, a maintained
/// instance absorbs remove + re-insert round trips (rotating over the
/// regions) with the canonical hash read back after every edit, vs the two
/// cold rebuilds the same state sequence costs without maintenance. One
/// warm-up pass per region runs untimed, so the medians report the caches'
/// steady state — the regime maintenance exists for; the cold baseline has
/// no corresponding cache to warm.
fn measure_incremental(
    gen: &dyn Fn(usize) -> SpatialInstance,
    samples: usize,
) -> Vec<IncrementalScaleReport> {
    let mut out = Vec::new();
    for &grid in &INCREMENTAL_GRIDS {
        let instance = gen(grid);
        let regions = instance.schema().len();
        let mut maintained = MaintainedInvariant::from_instance(&instance);
        for r in 0..regions {
            let region = maintained.region(r).clone();
            maintained.remove_region(r);
            maintained.insert_region(r, region);
        }
        let cells = maintained.invariant().cell_count();
        let stats_before = maintained.stats();

        let mut turn = 0usize;
        let incremental_ns = median_ns(samples, || {
            let r = turn % regions;
            turn += 1;
            let region = maintained.region(r).clone();
            maintained.remove_region(r);
            std::hint::black_box(maintained.invariant().code_hash());
            maintained.insert_region(r, region);
            std::hint::black_box(maintained.invariant().code_hash());
        });
        let stats_after = maintained.stats();

        // The cold baseline over the identical state sequence: the edited
        // instances are prepared untimed; the rebuilds (and their cold
        // canonicalisations) are what is timed.
        let without: Vec<SpatialInstance> = (0..regions)
            .map(|r| {
                let mut w = instance.clone();
                w.set_region(r, Region::new());
                w
            })
            .collect();
        let mut turn = 0usize;
        let rebuild_ns = median_ns(samples, || {
            let r = turn % regions;
            turn += 1;
            std::hint::black_box(topo_core::top(&without[r]).code_hash());
            std::hint::black_box(topo_core::top(&instance).code_hash());
        });

        // Differential guard: the maintained invariant ends the measurement
        // bit-identical to a cold rebuild of the same state.
        assert_eq!(
            maintained.invariant().canonical_code(),
            topo_core::top(&instance).canonical_code(),
            "maintained invariant diverged from cold rebuild"
        );

        out.push(IncrementalScaleReport {
            grid,
            cells,
            regions,
            incremental_ns,
            rebuild_ns,
            samples,
            stats: topo_core::MaintainStats {
                edits: stats_after.edits - stats_before.edits,
                group_builds: stats_after.group_builds - stats_before.group_builds,
                group_reuses: stats_after.group_reuses - stats_before.group_reuses,
                pair_computes: stats_after.pair_computes - stats_before.pair_computes,
                pair_reuses: stats_after.pair_reuses - stats_before.pair_reuses,
            },
        });
    }
    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Stage names accepted by `--stage`, in run order.
const STAGE_NAMES: [&str; 7] =
    ["construction", "datalog", "demand", "store", "recovery", "parallel", "incremental"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: bench_runner [--quick] [--stage NAME]... [--out PATH]");
        eprintln!("stages: {}", STAGE_NAMES.join(", "));
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let mut selected: Vec<&str> = Vec::new();
    for (i, arg) in args.iter().enumerate() {
        if arg == "--stage" {
            match args.get(i + 1).map(String::as_str) {
                Some(name) => match STAGE_NAMES.iter().find(|s| **s == name) {
                    Some(stage) => selected.push(stage),
                    None => {
                        eprintln!("unknown stage {name:?}; stages: {}", STAGE_NAMES.join(", "));
                        std::process::exit(2);
                    }
                },
                None => {
                    eprintln!("--stage needs a name; stages: {}", STAGE_NAMES.join(", "));
                    std::process::exit(2);
                }
            }
        }
    }
    let run_stage = |name: &str| selected.is_empty() || selected.contains(&name);
    let stages_run: Vec<&str> = STAGE_NAMES.iter().copied().filter(|s| run_stage(s)).collect();
    // Quick mode never overwrites the committed 15-sample baseline unless
    // the caller passes `--out BENCH_9.json` explicitly.
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            if quick {
                "BENCH_quick.json".to_string()
            } else {
                "BENCH_10.json".to_string()
            }
        });
    let samples = if quick { QUICK_SAMPLES } else { FULL_SAMPLES };

    type Workload = Box<dyn Fn(usize) -> SpatialInstance>;
    let workloads: Vec<(&str, Workload)> = vec![
        ("sequoia_landcover", Box::new(|grid| sequoia_landcover(Scale { grid }, SEED))),
        ("sequoia_hydro", Box::new(|grid| sequoia_hydro(Scale { grid }, SEED))),
        ("ign_city", Box::new(|grid| ign_city(Scale { grid }, SEED))),
    ];

    // Each stage contributes one complete `"key": value` fragment to
    // `sections`; joining them with commas keeps the JSON valid whichever
    // subset of stages `--stage` selects.
    let mut sections: Vec<String> = Vec::new();
    let mut header = String::new();
    header.push_str("  \"id\": \"BENCH_10\",\n");
    header.push_str(
        "  \"description\": \"top(I) construction, canonicalisation, datalog query \
         evaluation, the goal-directed demand path and the concurrent invariant store: \
         per-stage medians and speedups vs the frozen reference paths (naive seed \
         arrangement + slow-mode rational arithmetic; PR 2 String canonical codes; pre-PR 5 \
         naive datalog evaluator; the pre-PR 9 quadratic connectivity program). \
         canonical.first is a cold canonical_code() on a fresh invariant (the lazy \
         streamed Lemma 3.1 sweep); cached/iso are per-call costs on warmed invariants; \
         giant_component records the largest skeleton component and its start-choice \
         pruning; the datalog section runs the query library's fixpoint programs \
         (stratified) on prepared invariant exports (program_structure = to_structure + \
         successor scaffolding), semi-naive vs datalog::naive; the demand section compares \
         the library's linear connectivity program under the magic-set goal-directed path \
         (run_goal) with plain bottom-up evaluation, both against the retired quadratic \
         connectivity program (semi-naive and the naive oracle), and times a bound-goal \
         Reach(seed, y) rewrite where demand prunes derivation to one source's component; \
         the store section ingests a duplicate-heavy mix into the InvariantStore from \
         scoped threads and runs one query sweep against the memoising store and one \
         against the memo-disabled baseline (speedup = memo_qps / nomemo_qps); the \
         recovery section measures the snapshot + WAL durability layer on the in-memory \
         backend at three workload sizes: WAL-logged ingest and replay throughput, \
         snapshot write/load, and a mixed snapshot+WAL recovery; the parallel section \
         sweeps the in-tree topo-parallel pool over 1/2/4/8 threads on the batched store \
         ingest (one instance per pool task, the only fan-out), with host_threads \
         recording how many cores the sweep actually had (on a single-core host the curve \
         is honestly flat); the incremental section measures \
         single-region edit latency through MaintainedInvariant — remove one region, read \
         the repaired canonical hash, re-insert, read again, rotating over the regions — \
         against the same state sequence as two cold top(I) rebuilds, on warmed maintenance \
         caches (one untimed pass per region), with maintain_stats recording how many group \
         invariants each measurement rebuilt vs reused; stages_run records which stages \
         this file actually holds (--stage filtering); samples objects record the sample \
         counts actually used per median; naive medians are null where the reference path \
         is intractable\",\n",
    );
    header.push_str(&format!("  \"mode\": \"{}\",\n", if quick { "quick" } else { "full" }));
    header.push_str(&format!("  \"samples\": {samples},\n"));
    header.push_str(&format!("  \"cached_reps\": {CACHED_REPS},\n"));
    header.push_str(&format!("  \"datagen_seed\": {SEED},\n"));
    header.push_str(&format!(
        "  \"stages_run\": [{}]",
        stages_run.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ")
    ));
    sections.push(header);

    // (workload, grid, cells, cold canonical ns, giant stats) rows for the
    // end-of-run summary that CI greps out of the log.
    let mut summary: Vec<(String, usize, usize, u128, topo_core::SweepStats)> = Vec::new();
    if run_stage("construction") {
        let mut sec = String::new();
        sec.push_str("  \"workloads\": [\n");
        for (w, (name, gen)) in workloads.iter().enumerate() {
            eprintln!("== {name} ==");
            sec.push_str("    {\n");
            sec.push_str(&format!("      \"name\": \"{}\",\n", json_escape(name)));
            sec.push_str("      \"scales\": [\n");
            for (g, &grid) in GRIDS.iter().enumerate() {
                let instance = gen(grid);
                let report = measure_scale(&instance, grid, samples, quick);
                eprintln!(
                    "  grid {:>2}: cells {:>6}  top {:>12} ns  naive_top {:>12} ns  speedup {:>5.2}x \
                     (arrangement {:>5.2}x)",
                    grid,
                    report.cells,
                    report.stage("top"),
                    report.naive_top_ns,
                    report.top_speedup(),
                    report.arrangement_speedup(),
                );
                eprintln!(
                    "           canonical {:>12} ns  cached {:>8.2} ns  iso {:>8.2} ns  naive {}  \
                     speedup {}",
                    report.canonical_first_ns,
                    report.canonical_cached_ns,
                    report.iso_cached_ns,
                    report
                        .naive_canonical_ns
                        .map_or("(skipped)".to_string(), |n| format!("{n} ns")),
                    report.canonical_speedup().map_or("n/a".to_string(), |s| format!("{s:.0}x")),
                );
                summary.push((
                    name.to_string(),
                    report.grid,
                    report.cells,
                    report.canonical_first_ns,
                    report.giant,
                ));
                sec.push_str("        {\n");
                sec.push_str(&format!("          \"grid\": {},\n", report.grid));
                sec.push_str(&format!("          \"cells\": {},\n", report.cells));
                sec.push_str("          \"stages_median_ns\": {");
                for (s, (stage, ns)) in report.stages.iter().enumerate() {
                    if s > 0 {
                        sec.push_str(", ");
                    }
                    sec.push_str(&format!("\"{stage}\": {ns}"));
                }
                sec.push_str("},\n");
                sec.push_str(&format!(
                    "          \"canonical_median_ns\": {{\"first\": {}, \"cached\": {:.3}, \
                     \"iso_cached\": {:.3}}},\n",
                    report.canonical_first_ns, report.canonical_cached_ns, report.iso_cached_ns
                ));
                sec.push_str(&format!(
                    "          \"giant_component\": {{\"skeleton_cells\": {}, \"choices\": {}, \
                     \"surviving_choices\": {}}},\n",
                    report.giant.giant_skeleton_cells,
                    report.giant.giant_choices,
                    report.giant.giant_surviving_choices,
                ));
                sec.push_str(&format!(
                    "          \"samples_used\": {{\"stages\": {}, \"canonical_first\": {}, \
                     \"naive_canonical\": {}}},\n",
                    report.stage_samples,
                    report.canonical_samples,
                    report.naive_canonical_samples.map_or("null".to_string(), |n| n.to_string()),
                ));
                sec.push_str(&format!(
                    "          \"naive_median_ns\": {{\"arrangement\": {}, \"top\": {}, \
                     \"canonical\": {}}},\n",
                    report.naive_arrangement_ns,
                    report.naive_top_ns,
                    report.naive_canonical_ns.map_or("null".to_string(), |n| n.to_string()),
                ));
                sec.push_str(&format!(
                    "          \"speedup\": {{\"arrangement\": {:.2}, \"top\": {:.2}, \
                     \"canonical\": {}}}\n",
                    report.arrangement_speedup(),
                    report.top_speedup(),
                    report.canonical_speedup().map_or("null".to_string(), |s| format!("{s:.2}")),
                ));
                sec.push_str(if g + 1 < GRIDS.len() { "        },\n" } else { "        }\n" });
            }
            sec.push_str("      ]\n");
            sec.push_str(if w + 1 < workloads.len() { "    },\n" } else { "    }\n" });
        }
        sec.push_str("  ]");
        sections.push(sec);
    }

    // The datalog query-evaluation stage, at its own (smaller) scales.
    // Per-workload reports, kept for the end-of-run summary that CI greps
    // out of the log.
    let mut datalog_reports: Vec<(&str, Vec<DatalogScaleReport>)> = Vec::new();
    if run_stage("datalog") {
        let mut sec = String::new();
        sec.push_str("  \"datalog\": {\n");
        sec.push_str("    \"semantics\": \"stratified\",\n");
        sec.push_str(&format!(
            "    \"grids\": [{}],\n",
            DATALOG_GRIDS.map(|g| g.to_string()).join(", ")
        ));
        sec.push_str("    \"workloads\": [\n");
        for (w, (name, gen)) in workloads.iter().enumerate() {
            eprintln!("== {name} (datalog) ==");
            let scales = measure_datalog(gen, samples, quick);
            sec.push_str("      {\n");
            sec.push_str(&format!("        \"name\": \"{}\",\n", json_escape(name)));
            sec.push_str("        \"scales\": [\n");
            for (g, scale) in scales.iter().enumerate() {
                sec.push_str("          {\n");
                sec.push_str(&format!("            \"grid\": {},\n", scale.grid));
                sec.push_str(&format!("            \"cells\": {},\n", scale.cells));
                sec.push_str("            \"programs\": {");
                for (p, program) in scale.programs.iter().enumerate() {
                    if p > 0 {
                        sec.push_str(", ");
                    }
                    sec.push_str(&format!(
                        "\"{}\": {{\"semi_ns\": {}, \"naive_ns\": {}, \"speedup\": {}, \
                         \"samples_used\": {{\"semi\": {}, \"naive\": {}}}}}",
                        program.name,
                        program.semi_ns,
                        program.naive_ns.map_or("null".to_string(), |n| n.to_string()),
                        program.speedup().map_or("null".to_string(), |s| format!("{s:.2}")),
                        program.semi_samples,
                        program.naive_samples.map_or("null".to_string(), |n| n.to_string()),
                    ));
                    eprintln!(
                        "  grid {:>2}: cells {:>5} {:<13} semi {:>12} ns  naive {:>14}  speedup {}",
                        scale.grid,
                        scale.cells,
                        program.name,
                        program.semi_ns,
                        program.naive_ns.map_or("(skipped)".to_string(), |n| format!("{n} ns")),
                        program.speedup().map_or("n/a".to_string(), |s| format!("{s:.1}x")),
                    );
                }
                sec.push_str("}\n");
                sec.push_str(if g + 1 < scales.len() { "          },\n" } else { "          }\n" });
            }
            sec.push_str("        ]\n");
            sec.push_str(if w + 1 < workloads.len() { "      },\n" } else { "      }\n" });
            datalog_reports.push((name, scales));
        }
        sec.push_str("    ]\n");
        sec.push_str("  }");
        sections.push(sec);
    }

    // The demand stage: the goal-directed path vs bottom-up, vs the retired
    // quadratic program, plus the bound-goal reachability demo.
    let mut demand_reports: Vec<(&str, Vec<DemandScaleReport>)> = Vec::new();
    if run_stage("demand") {
        let mut sec = String::new();
        sec.push_str("  \"demand\": {\n");
        sec.push_str("    \"semantics\": \"stratified\",\n");
        sec.push_str("    \"query\": \"is_connected\",\n");
        sec.push_str(&format!(
            "    \"grids\": [{}],\n",
            DATALOG_GRIDS.map(|g| g.to_string()).join(", ")
        ));
        sec.push_str("    \"workloads\": [\n");
        for (w, (name, gen)) in workloads.iter().enumerate() {
            eprintln!("== {name} (demand) ==");
            let scales = measure_demand(gen, samples, quick);
            sec.push_str("      {\n");
            sec.push_str(&format!("        \"name\": \"{}\",\n", json_escape(name)));
            sec.push_str("        \"scales\": [\n");
            for (g, scale) in scales.iter().enumerate() {
                eprintln!(
                    "  grid {:>2}: cells {:>5} goal {:>12} ns  bottomup {:>12} ns  quadratic \
                     {:>12} ns  naive {:>14}  goal-vs-quadratic {:.1}x",
                    scale.grid,
                    scale.cells,
                    scale.goal_ns,
                    scale.bottomup_ns,
                    scale.quadratic_ns,
                    scale.naive_ns.map_or("(skipped)".to_string(), |n| format!("{n} ns")),
                    scale.goal_vs_quadratic(),
                );
                if let Some(reach) = &scale.reach {
                    eprintln!(
                        "           reach_from_seed {}: {} answers  goal {:>12} ns  full {:>12} \
                         ns  speedup {:.1}x",
                        reach.seed,
                        reach.answers,
                        reach.goal_ns,
                        reach.full_ns,
                        reach.speedup(),
                    );
                }
                sec.push_str("          {\n");
                sec.push_str(&format!("            \"grid\": {},\n", scale.grid));
                sec.push_str(&format!("            \"cells\": {},\n", scale.cells));
                sec.push_str(&format!(
                    "            \"library_linear\": {{\"goal_ns\": {}, \"bottomup_ns\": {}, \
                     \"samples\": {}}},\n",
                    scale.goal_ns, scale.bottomup_ns, scale.samples
                ));
                sec.push_str(&format!(
                    "            \"quadratic_reference\": {{\"semi_ns\": {}, \"naive_ns\": {}, \
                     \"samples_used\": {{\"semi\": {}, \"naive\": {}}}}},\n",
                    scale.quadratic_ns,
                    scale.naive_ns.map_or("null".to_string(), |n| n.to_string()),
                    scale.samples,
                    scale.naive_samples.map_or("null".to_string(), |n| n.to_string()),
                ));
                sec.push_str(&format!(
                    "            \"speedup\": {{\"goal_vs_quadratic\": {:.2}, \
                     \"goal_vs_bottomup\": {:.2}, \"goal_vs_naive\": {}}},\n",
                    scale.goal_vs_quadratic(),
                    scale.goal_vs_bottomup(),
                    scale.goal_vs_naive().map_or("null".to_string(), |s| format!("{s:.2}")),
                ));
                match &scale.reach {
                    Some(reach) => sec.push_str(&format!(
                        "            \"reach_from_seed\": {{\"seed\": {}, \"answers\": {}, \
                         \"goal_ns\": {}, \"full_ns\": {}, \"speedup\": {:.2}}}\n",
                        reach.seed,
                        reach.answers,
                        reach.goal_ns,
                        reach.full_ns,
                        reach.speedup(),
                    )),
                    None => sec.push_str("            \"reach_from_seed\": null\n"),
                }
                sec.push_str(if g + 1 < scales.len() { "          },\n" } else { "          }\n" });
            }
            sec.push_str("        ]\n");
            sec.push_str(if w + 1 < workloads.len() { "      },\n" } else { "      }\n" });
            demand_reports.push((name, scales));
        }
        sec.push_str("    ]\n");
        sec.push_str("  }");
        sections.push(sec);
    }

    // The concurrent invariant-store stage.
    if run_stage("store") {
        eprintln!("== store stage ==");
        let store = measure_store(quick);
        eprintln!(
            "  ingest  {:>6} instances ({} bases, {} classes) on {} threads: {:>12} ns  \
             ({:.0} instances/sec, {} dedup hits)",
            store.instances,
            store.bases,
            store.classes,
            store.ingest_threads,
            store.ingest_ns,
            store.ingest_per_sec,
            store.dedup_hits,
        );
        eprintln!(
            "  query   {:>6} queries on {} threads: memo {:>12} ns ({:.0} q/s, hit rate {:.4})  \
             no-memo {:>12} ns ({:.0} q/s)  memo speedup {:.1}x",
            store.queries,
            store.query_threads,
            store.memo_ns,
            store.memo_qps,
            store.memo_hit_rate,
            store.nomemo_ns,
            store.nomemo_qps,
            store.memo_speedup(),
        );
        let mut sec = String::new();
        sec.push_str("  \"store\": {\n");
        sec.push_str(&format!("    \"instances\": {},\n", store.instances));
        sec.push_str(&format!("    \"bases\": {},\n", store.bases));
        sec.push_str(&format!("    \"classes\": {},\n", store.classes));
        sec.push_str(&format!("    \"dedup_hits\": {},\n", store.dedup_hits));
        sec.push_str(&format!("    \"ingest_threads\": {},\n", store.ingest_threads));
        sec.push_str(&format!("    \"query_threads\": {},\n", store.query_threads));
        sec.push_str(&format!("    \"ingest_ns\": {},\n", store.ingest_ns));
        sec.push_str(&format!("    \"ingest_instances_per_sec\": {:.1},\n", store.ingest_per_sec));
        sec.push_str(&format!("    \"queries_per_sweep\": {},\n", store.queries));
        sec.push_str(&format!("    \"memo_sweep_ns\": {},\n", store.memo_ns));
        sec.push_str(&format!("    \"memo_queries_per_sec\": {:.1},\n", store.memo_qps));
        sec.push_str(&format!("    \"memo_hit_rate\": {:.6},\n", store.memo_hit_rate));
        sec.push_str(&format!("    \"nomemo_sweep_ns\": {},\n", store.nomemo_ns));
        sec.push_str(&format!("    \"nomemo_queries_per_sec\": {:.1},\n", store.nomemo_qps));
        sec.push_str(&format!("    \"memo_speedup\": {:.2}\n", store.memo_speedup()));
        sec.push_str("  }");
        sections.push(sec);
    }

    // The durability stage: snapshot + WAL persistence over the in-memory
    // backend, so the numbers isolate the encode/replay cost from disk I/O.
    if run_stage("recovery") {
        eprintln!("== recovery stage ==");
        let recovery = measure_persist(quick);
        let mut sec = String::new();
        sec.push_str("  \"recovery\": {\n");
        sec.push_str("    \"scales\": [\n");
        for (i, r) in recovery.iter().enumerate() {
            eprintln!(
                "  {:>5} instances ({} classes, {} wal records): ingest+log {:>11} ns \
                 ({:.0}/sec), replay {:>10} ns ({:.0} records/sec), snapshot write \
                 {:>9} ns ({} bytes), load {:>9} ns, mixed recover {:>10} ns",
                r.instances,
                r.classes,
                r.wal_records,
                r.ingest_log_ns,
                r.ingest_log_per_sec,
                r.wal_replay_ns,
                r.wal_replay_records_per_sec,
                r.snapshot_write_ns,
                r.snapshot_bytes,
                r.snapshot_load_ns,
                r.mixed_recover_ns,
            );
            sec.push_str("      {\n");
            sec.push_str(&format!("        \"copies\": {},\n", r.copies));
            sec.push_str(&format!("        \"instances\": {},\n", r.instances));
            sec.push_str(&format!("        \"classes\": {},\n", r.classes));
            sec.push_str(&format!("        \"wal_records\": {},\n", r.wal_records));
            sec.push_str(&format!("        \"wal_bytes\": {},\n", r.wal_bytes));
            sec.push_str(&format!("        \"ingest_log_ns\": {},\n", r.ingest_log_ns));
            sec.push_str(&format!(
                "        \"ingest_log_per_sec\": {:.1},\n",
                r.ingest_log_per_sec
            ));
            sec.push_str(&format!("        \"wal_replay_ns\": {},\n", r.wal_replay_ns));
            sec.push_str(&format!(
                "        \"wal_replay_records_per_sec\": {:.1},\n",
                r.wal_replay_records_per_sec
            ));
            sec.push_str(&format!("        \"snapshot_write_ns\": {},\n", r.snapshot_write_ns));
            sec.push_str(&format!("        \"snapshot_bytes\": {},\n", r.snapshot_bytes));
            sec.push_str(&format!("        \"snapshot_load_ns\": {},\n", r.snapshot_load_ns));
            sec.push_str(&format!("        \"mixed_recover_ns\": {},\n", r.mixed_recover_ns));
            sec.push_str(&format!("        \"samples\": {}\n", r.samples));
            sec.push_str(if i + 1 < recovery.len() { "      },\n" } else { "      }\n" });
        }
        sec.push_str("    ]\n");
        sec.push_str("  }");
        sections.push(sec);
    }

    // The thread-pool sweep: speedup-vs-threads curve for the batched store
    // ingest.
    if run_stage("parallel") {
        eprintln!("== parallel stage ==");
        let parallel = measure_parallel(quick);
        let base_batch = parallel.sweep[0].batch_ingest_ns;
        eprintln!(
            "  batch of {} instances, host threads {}",
            parallel.batch_size, parallel.host_threads,
        );
        let mut sec = String::new();
        sec.push_str("  \"parallel\": {\n");
        sec.push_str(&format!("    \"host_threads\": {},\n", parallel.host_threads));
        sec.push_str(&format!("    \"batch_size\": {},\n", parallel.batch_size));
        sec.push_str(&format!("    \"samples\": {},\n", parallel.samples));
        sec.push_str("    \"sweep\": [\n");
        for (i, r) in parallel.sweep.iter().enumerate() {
            let speedup = base_batch as f64 / r.batch_ingest_ns as f64;
            eprintln!(
                "  threads {:>2}: batch ingest {:>12} ns ({speedup:.2}x)",
                r.threads, r.batch_ingest_ns,
            );
            sec.push_str("      {\n");
            sec.push_str(&format!("        \"threads\": {},\n", r.threads));
            sec.push_str(&format!("        \"batch_ingest_ns\": {},\n", r.batch_ingest_ns));
            sec.push_str(&format!(
                "        \"speedup_vs_1\": {{\"batch_ingest\": {speedup:.2}}}\n"
            ));
            sec.push_str(if i + 1 < parallel.sweep.len() { "      },\n" } else { "      }\n" });
        }
        sec.push_str("    ]\n");
        sec.push_str("  }");
        sections.push(sec);
    }

    // The incremental-maintenance stage: single-region edit latency through
    // MaintainedInvariant vs cold rebuilds of the same states.
    let mut incremental_reports: Vec<(&str, Vec<IncrementalScaleReport>)> = Vec::new();
    if run_stage("incremental") {
        let host_threads =
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let mut sec = String::new();
        sec.push_str("  \"incremental\": {\n");
        sec.push_str(&format!("    \"host_threads\": {host_threads},\n"));
        sec.push_str(&format!(
            "    \"grids\": [{}],\n",
            INCREMENTAL_GRIDS.map(|g| g.to_string()).join(", ")
        ));
        sec.push_str("    \"workloads\": [\n");
        for (w, (name, gen)) in workloads.iter().enumerate() {
            eprintln!("== {name} (incremental) ==");
            let scales = measure_incremental(gen, samples);
            sec.push_str("      {\n");
            sec.push_str(&format!("        \"name\": \"{}\",\n", json_escape(name)));
            sec.push_str("        \"scales\": [\n");
            for (g, scale) in scales.iter().enumerate() {
                eprintln!(
                    "  grid {:>2}: cells {:>6}  edit round trip {:>12} ns  rebuild {:>12} ns  \
                     speedup {:>5.1}x  (groups rebuilt {} / reused {})",
                    scale.grid,
                    scale.cells,
                    scale.incremental_ns,
                    scale.rebuild_ns,
                    scale.speedup(),
                    scale.stats.group_builds,
                    scale.stats.group_reuses,
                );
                sec.push_str("          {\n");
                sec.push_str(&format!("            \"grid\": {},\n", scale.grid));
                sec.push_str(&format!("            \"cells\": {},\n", scale.cells));
                sec.push_str(&format!("            \"regions\": {},\n", scale.regions));
                sec.push_str(&format!(
                    "            \"edit_round_trip_ns\": {},\n",
                    scale.incremental_ns
                ));
                sec.push_str(&format!(
                    "            \"rebuild_round_trip_ns\": {},\n",
                    scale.rebuild_ns
                ));
                sec.push_str(&format!("            \"speedup\": {:.2},\n", scale.speedup()));
                sec.push_str(&format!("            \"samples_used\": {},\n", scale.samples));
                sec.push_str(&format!(
                    "            \"maintain_stats\": {{\"edits\": {}, \"group_builds\": {}, \
                     \"group_reuses\": {}, \"pair_computes\": {}, \"pair_reuses\": {}}}\n",
                    scale.stats.edits,
                    scale.stats.group_builds,
                    scale.stats.group_reuses,
                    scale.stats.pair_computes,
                    scale.stats.pair_reuses,
                ));
                sec.push_str(if g + 1 < scales.len() { "          },\n" } else { "          }\n" });
            }
            sec.push_str("        ]\n");
            sec.push_str(if w + 1 < workloads.len() { "      },\n" } else { "      }\n" });
            incremental_reports.push((name, scales));
        }
        sec.push_str("    ]\n");
        sec.push_str("  }");
        sections.push(sec);
    }

    let out = format!("{{\n{}\n}}\n", sections.join(",\n"));
    std::fs::write(&out_path, &out).expect("write benchmark baseline");
    eprintln!("wrote {out_path}");

    // Cold-canonicalisation summary, one line per workload/scale, so CI logs
    // (and humans skimming them) see canonicalisation regressions at a
    // glance without opening the JSON.
    if !summary.is_empty() {
        eprintln!("== cold canonical_code() per workload ==");
        for (name, grid, cells, first_ns, giant) in &summary {
            eprintln!(
                "  {name:<20} grid {grid:>2}  cells {cells:>6}  giant {:>6}  choices {:>6} -> \
                 {:<4} cold {:>12} ns",
                giant.giant_skeleton_cells,
                giant.giant_choices,
                giant.giant_surviving_choices,
                first_ns,
            );
        }
    }

    // Same for the datalog query-evaluation stage: one line per
    // workload/scale/program, semi-naive vs the frozen reference engine.
    if !datalog_reports.is_empty() {
        eprintln!("== datalog stage per workload ==");
        for (name, scales) in &datalog_reports {
            for scale in scales {
                for program in &scale.programs {
                    eprintln!(
                        "  {name:<20} grid {:>2}  cells {:>6}  {:<13} semi {:>12} ns  \
                         naive {:>14}  speedup {}",
                        scale.grid,
                        scale.cells,
                        program.name,
                        program.semi_ns,
                        program.naive_ns.map_or("(skipped)".to_string(), |n| format!("{n} ns")),
                        program.speedup().map_or("n/a".to_string(), |s| format!("{s:.1}x")),
                    );
                }
            }
        }
    }

    // The incremental stage: maintained edit latency vs cold rebuilds, one
    // line per workload/scale, greppable from CI logs.
    if !incremental_reports.is_empty() {
        eprintln!("== incremental stage per workload ==");
        for (name, scales) in &incremental_reports {
            for scale in scales {
                eprintln!(
                    "  {name:<20} grid {:>2}  cells {:>6}  edit {:>12} ns  rebuild {:>12} ns  \
                     speedup {:>5.1}x",
                    scale.grid,
                    scale.cells,
                    scale.incremental_ns,
                    scale.rebuild_ns,
                    scale.speedup(),
                );
            }
        }
    }

    // And the demand stage: goal-directed vs bottom-up vs the retired
    // quadratic program, one line per workload/scale.
    if !demand_reports.is_empty() {
        eprintln!("== demand stage per workload ==");
        for (name, scales) in &demand_reports {
            for scale in scales {
                eprintln!(
                    "  {name:<20} grid {:>2}  cells {:>6}  goal {:>12} ns  bottomup {:>12} ns  \
                     quadratic {:>12} ns  goal-vs-quadratic {:.1}x  goal-vs-bottomup {:.2}x",
                    scale.grid,
                    scale.cells,
                    scale.goal_ns,
                    scale.bottomup_ns,
                    scale.quadratic_ns,
                    scale.goal_vs_quadratic(),
                    scale.goal_vs_bottomup(),
                );
            }
        }
    }
}
