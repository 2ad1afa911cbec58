//! Machine-readable perf baseline runner.
//!
//! Runs the stages in [`STAGES`] (construction and canonicalisation, datalog,
//! demand, parallel; each documented on its stage function) on the seeded
//! cartographic workloads, against the frozen reference paths where they
//! exist, and writes every median with the sample count behind it to one
//! JSON record. These are the measurements nothing else makes: the
//! optimised paths against their frozen naive oracles, and the pool-size
//! sweep of batch ingest. The service paths (ingest, query, edit, recovery)
//! are timed by `perfbench`, and the paper's tables by `experiments`.
//!
//! `BENCH_2.json`…`BENCH_10.json` at the repository root record the
//! trajectory so far, and BENCHMARKS.md tabulates it; a full run writes
//! `BENCH_16.json`. See DESIGN.md for what each stage measures.
//!
//! ```text
//! bench_runner [--quick] [--stage NAME]... [--out PATH]
//! ```
//!
//! `--quick` drops the sample count and skips the reference canonicalisation
//! on the scales where it is intractable (for CI smoke coverage); the default
//! sample count matches the committed records. `--stage` (repeatable)
//! restricts the run to the named stages, and the record's `stages_run`
//! lists the stages it holds. Any other argument, or a flag without its
//! value, exits 2 with the usage line. Requires the `naive-reference`
//! feature:
//!
//! ```text
//! cargo run --release -p topo-bench --features naive-reference \
//!     --bin bench_runner -- --quick --stage demand --out BENCH_ci.json
//! ```

use topo_bench::{json_obj, median_ns, median_ns_with, Json};
use topo_core::relational::datalog::naive as datalog_naive;
use topo_core::relational::Term;
use topo_core::spatial::transform::AffineMap;
use topo_core::{
    datalog_program, program_structure, quadratic_connectivity_program, Goal, InvariantStore,
    Semantics, SpatialInstance, SweepStats, TopologicalInvariant, TopologicalQuery,
};
use topo_datagen::{ign_city, sequoia_hydro, sequoia_landcover, Scale};

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
/// Pool sizes the parallel stage sweeps (1 is the sequential fallback and the
/// baseline every speedup is measured against).
const PARALLEL_THREADS: [usize; 4] = [1, 2, 4, 8];
/// A seeded cartographic generator, by grid size.
type Generator = fn(usize) -> SpatialInstance;
/// The seeded cartographic workloads every per-workload stage runs on.
const WORKLOADS: [(&str, Generator); 3] = [
    ("sequoia_landcover", |grid| sequoia_landcover(Scale { grid }, SEED)),
    ("sequoia_hydro", |grid| sequoia_hydro(Scale { grid }, SEED)),
    ("ign_city", |grid| ign_city(Scale { grid }, SEED)),
];

struct ScaleReport {
    grid: usize,
    cells: usize,
    /// (stage name, optimised median ns).
    stages: Vec<(&'static str, u128)>,
    naive_arrangement_ns: u128,
    naive_top_ns: u128,
    canonical: CanonicalReport,
    /// Samples actually used for the construction stages at this scale.
    stage_samples: usize,
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
        self.canonical.naive_ns.map(|n| n as f64 / self.canonical.first_ns as f64)
    }

    fn to_json(&self) -> Json {
        let (canonical, giant) = (&self.canonical, &self.giant);
        json_obj! {
            "grid" => self.grid,
            "cells" => self.cells,
            "stages_median_ns" => Json::obj(self.stages.iter().map(|&(s, ns)| (s, ns.into()))),
            "canonical_median_ns" => json_obj! {
                "first" => canonical.first_ns,
                "cached" => canonical.cached_ns,
                "iso_cached" => canonical.iso_ns,
            },
            "giant_component" => json_obj! {
                "skeleton_cells" => giant.giant_skeleton_cells,
                "choices" => giant.giant_choices,
                "surviving_choices" => giant.giant_surviving_choices,
            },
            "samples_used" => json_obj! {
                "stages" => self.stage_samples,
                "canonical_first" => canonical.cold_samples,
                "naive_canonical" => canonical.naive_samples,
            },
            "naive_median_ns" => json_obj! {
                "arrangement" => self.naive_arrangement_ns,
                "top" => self.naive_top_ns,
                "canonical" => canonical.naive_ns,
            },
            "speedup" => json_obj! {
                "arrangement" => self.arrangement_speedup(),
                "top" => self.top_speedup(),
                "canonical" => self.canonical_speedup(),
            },
        }
    }
}

/// Per-scale canonicalisation measurements plus the sample counts actually
/// used.
struct CanonicalReport {
    /// First `canonical_code()` call on a fresh invariant (cache cold).
    first_ns: u128,
    /// Re-reading the code from the cache (per call; fractional because a
    /// cache hit costs under a nanosecond).
    cached_ns: f64,
    /// `is_isomorphic_to` between two warmed invariants (per call).
    iso_ns: f64,
    /// The frozen reference canonicalisation, when tractable at this scale.
    naive_ns: Option<u128>,
    /// Samples actually used for the cold median (≤ the stage samples).
    cold_samples: usize,
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
    let cold_samples = samples.min(5);
    let first_ns = median_ns_with(
        cold_samples,
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
    let cached_ns = median_ns(samples, || {
        for _ in 0..CACHED_REPS {
            std::hint::black_box(std::hint::black_box(&warm_a).canonical_code());
        }
    }) as f64
        / CACHED_REPS as f64;
    let iso_ns = median_ns(samples, || {
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
    let naive_ns = naive_samples.map(|n| median_ns(n, || topo_core::canonical_code_naive(&warm_a)));
    CanonicalReport { first_ns, cached_ns, iso_ns, naive_ns, cold_samples, naive_samples }
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
        canonical: measure_canonical(instance, cells, samples, quick),
        stage_samples: samples,
        giant: topo_core::sweep_stats(&frozen),
    }
}

/// One program of the datalog stage at one scale.
struct DatalogProgramReport {
    name: &'static str,
    semi_ns: u128,
    naive_ns: Option<u128>,
    samples: usize,
    naive_samples: Option<usize>,
}

impl DatalogProgramReport {
    fn speedup(&self) -> Option<f64> {
        self.naive_ns.map(|n| n as f64 / self.semi_ns as f64)
    }

    fn to_json(&self) -> Json {
        json_obj! {
            "semi_ns" => self.semi_ns,
            "naive_ns" => self.naive_ns,
            "speedup" => self.speedup(),
            "samples_used" => json_obj! {
                "semi" => self.samples,
                "naive" => self.naive_samples,
            },
        }
    }
}

/// The datalog query-evaluation stage at one scale of one workload.
struct DatalogScaleReport {
    grid: usize,
    cells: usize,
    programs: Vec<DatalogProgramReport>,
}

impl DatalogScaleReport {
    fn to_json(&self) -> Json {
        json_obj! {
            "grid" => self.grid,
            "cells" => self.cells,
            "programs" => Json::obj(self.programs.iter().map(|p| (p.name, p.to_json()))),
        }
    }
}

/// Times the frozen naive datalog engine under a time budget: nothing once
/// an earlier scale of the same series went over it; otherwise one probe run
/// decides how many samples the reference can afford, and a slow probe
/// stands alone as a 1-sample median. Returns (median, samples used).
fn measure_naive<T>(
    samples: usize,
    quick: bool,
    over_budget: &mut bool,
    mut run: impl FnMut() -> T,
) -> (Option<u128>, Option<usize>) {
    if *over_budget {
        return (None, None);
    }
    let probe = median_ns(1, &mut run);
    let (ns, used) = if probe <= 100_000_000 {
        let extra = samples.min(3);
        (median_ns(extra, run), extra)
    } else {
        (probe, 1)
    };
    let budget = if quick { NAIVE_DATALOG_BUDGET_QUICK_NS } else { NAIVE_DATALOG_BUDGET_NS };
    *over_budget = ns > budget;
    (Some(ns), Some(used))
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
fn measure_datalog(gen: Generator, samples: usize, quick: bool) -> Vec<DatalogScaleReport> {
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
            let (naive_ns, naive_samples) =
                measure_naive(samples, quick, &mut over_budget[p], || {
                    datalog_naive::run(&program, &structure, Semantics::Stratified, usize::MAX)
                });
            programs.push(DatalogProgramReport { name, semi_ns, naive_ns, samples, naive_samples });
        }
        out.push(DatalogScaleReport { grid, cells: invariant.cell_count(), programs });
    }
    out
}

/// The whole parallel stage: the sweep plus the context needed to read it.
struct ParallelStage {
    host_threads: usize,
    batch_size: usize,
    samples: usize,
    /// (pool size, batch ingest median ns).
    sweep: Vec<(usize, u128)>,
}

impl ParallelStage {
    /// Batch-ingest speedup of one sweep point over pool size 1.
    fn speedup(&self, batch_ingest_ns: u128) -> f64 {
        self.sweep[0].1 as f64 / batch_ingest_ns as f64
    }

    fn to_json(&self) -> Json {
        let sweep = self.sweep.iter().map(|&(threads, ns)| {
            json_obj! {
                "threads" => threads,
                "batch_ingest_ns" => ns,
                "speedup_vs_1" => json_obj! { "batch_ingest" => self.speedup(ns) },
            }
        });
        json_obj! {
            "host_threads" => self.host_threads,
            "batch_size" => self.batch_size,
            "samples" => self.samples,
            "sweep" => Json::arr(sweep),
        }
    }
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
    // Eight translated copies of three small bases, copy-major, so
    // canonicalisation dominates and the dedup path is exercised.
    let small = Scale { grid: 4 };
    let bases = [sequoia_landcover(small, SEED), sequoia_hydro(small, SEED), ign_city(small, SEED)];
    let batch: Vec<SpatialInstance> = (0..8i64)
        .flat_map(|k| {
            let shift = AffineMap::translation(k * 130_001, -k * 70_003);
            bases.iter().map(move |base| shift.apply_instance(base))
        })
        .collect();

    let previous = topo_core::parallel::global_threads();
    let mut sweep = Vec::new();
    for &threads in &PARALLEL_THREADS {
        topo_core::parallel::set_global_threads(threads);
        let batch_ingest_ns = median_ns_with(samples, InvariantStore::default, |store| {
            store.try_ingest_batch(&batch);
            store
        });
        sweep.push((threads, batch_ingest_ns));
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

    fn to_json(&self) -> Json {
        json_obj! {
            "seed" => self.seed,
            "answers" => self.answers,
            "goal_ns" => self.goal_ns,
            "full_ns" => self.full_ns,
            "speedup" => self.speedup(),
        }
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

    fn to_json(&self) -> Json {
        json_obj! {
            "grid" => self.grid,
            "cells" => self.cells,
            "library_linear" => json_obj! {
                "goal_ns" => self.goal_ns,
                "bottomup_ns" => self.bottomup_ns,
                "samples" => self.samples,
            },
            "quadratic_reference" => json_obj! {
                "semi_ns" => self.quadratic_ns,
                "naive_ns" => self.naive_ns,
                "samples_used" => json_obj! {
                    "semi" => self.samples,
                    "naive" => self.naive_samples,
                },
            },
            "speedup" => json_obj! {
                "goal_vs_quadratic" => self.goal_vs_quadratic(),
                "goal_vs_bottomup" => self.goal_vs_bottomup(),
                "goal_vs_naive" => self.goal_vs_naive(),
            },
            "reach_from_seed" => self.reach.as_ref().map(ReachDemo::to_json),
        }
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
fn measure_demand(gen: Generator, samples: usize, quick: bool) -> Vec<DemandScaleReport> {
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
        let (naive_ns, naive_samples) =
            measure_naive(samples, quick, &mut naive_over_budget, || {
                datalog_naive::run(&quadratic, &structure, Semantics::Stratified, usize::MAX)
            });
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

/// A median that was not measured, as a console cell.
fn ns_or_skipped(ns: Option<u128>) -> String {
    ns.map_or("(skipped)".to_string(), |n| format!("{n} ns"))
}

/// The mode every stage runs in.
struct Mode {
    quick: bool,
    samples: usize,
}

/// Runs `measure` on each cartographic workload and collects the
/// `[{"name", "scales"}]` array the per-workload sections share.
fn per_workload(mut measure: impl FnMut(&str, Generator) -> Vec<Json>) -> Json {
    Json::arr(WORKLOADS.iter().map(|(name, gen)| {
        json_obj! { "name" => *name, "scales" => Json::Arr(measure(name, *gen)) }
    }))
}

/// The `geometry → arrangement → invariant` path stage by stage, then
/// canonicalisation (cold `canonical_code`, cached re-reads, cached
/// isomorphism checks, giant-component sweep statistics), against the frozen
/// `top_naive` / `canonical_code_naive` paths: one construction row per
/// scale, then one canonicalisation row per workload/scale.
fn construction_stage(mode: &Mode) -> Json {
    let mut canonical_rows = Vec::new();
    let workloads = per_workload(|name, gen| {
        eprintln!("== {name} ==");
        GRIDS
            .iter()
            .map(|&grid| {
                let report = measure_scale(&gen(grid), grid, mode.samples, mode.quick);
                let (cells, naive_top) = (report.cells, report.naive_top_ns);
                eprintln!(
                    "  grid {grid:>2}: cells {cells:>6}  top {:>12} ns  naive_top {naive_top:>12} \
                     ns  speedup {:>5.2}x (arrangement {:>5.2}x)",
                    report.stage("top"),
                    report.top_speedup(),
                    report.arrangement_speedup(),
                );
                let CanonicalReport { first_ns, cached_ns, iso_ns, naive_ns, .. } = report.canonical;
                let SweepStats { giant_skeleton_cells, giant_choices, giant_surviving_choices, .. } =
                    report.giant;
                canonical_rows.push(format!(
                    "  {name:<20} grid {grid:>2}  cells {cells:>6}  giant {giant_skeleton_cells:>6}  \
                     choices {giant_choices:>6} -> {giant_surviving_choices:<4} cold {first_ns:>12} \
                     ns  cached {cached_ns:>8.2} ns  iso {iso_ns:>8.2} ns  naive {}  speedup {}",
                    ns_or_skipped(naive_ns),
                    report.canonical_speedup().map_or("n/a".to_string(), |s| format!("{s:.0}x")),
                ));
                report.to_json()
            })
            .collect()
    });
    eprintln!("== cold canonical_code() per workload ==");
    for row in canonical_rows {
        eprintln!("{row}");
    }
    workloads
}

/// The datalog query-evaluation stage, at its own (smaller) scales: one row
/// per workload/scale/program, semi-naive vs the frozen reference engine.
fn datalog_stage(mode: &Mode) -> Json {
    eprintln!("== datalog stage per workload ==");
    let workloads = per_workload(|name, gen| {
        let scales = measure_datalog(gen, mode.samples, mode.quick);
        for DatalogScaleReport { grid, cells, programs } in &scales {
            for program in programs {
                eprintln!(
                    "  {name:<20} grid {grid:>2}  cells {cells:>6}  {:<13} semi {:>12} ns  naive \
                     {:>14}  speedup {}",
                    program.name,
                    program.semi_ns,
                    ns_or_skipped(program.naive_ns),
                    program.speedup().map_or("n/a".to_string(), |s| format!("{s:.1}x")),
                );
            }
        }
        scales.iter().map(DatalogScaleReport::to_json).collect()
    });
    json_obj! {
        "semantics" => "stratified",
        "grids" => Json::arr(DATALOG_GRIDS),
        "workloads" => workloads,
    }
}

/// The demand stage: the goal-directed path vs bottom-up, vs the retired
/// quadratic program, plus the bound-goal reachability demo, one row (and
/// one demo line) per workload/scale.
fn demand_stage(mode: &Mode) -> Json {
    eprintln!("== demand stage per workload ==");
    let workloads = per_workload(|name, gen| {
        let scales = measure_demand(gen, mode.samples, mode.quick);
        for scale in &scales {
            let DemandScaleReport { grid, cells, goal_ns, bottomup_ns, quadratic_ns, .. } = scale;
            eprintln!(
                "  {name:<20} grid {grid:>2}  cells {cells:>6}  goal {goal_ns:>12} ns  bottomup \
                 {bottomup_ns:>12} ns  quadratic {quadratic_ns:>12} ns  naive {:>14}  \
                 goal-vs-quadratic {:.1}x  goal-vs-bottomup {:.2}x",
                ns_or_skipped(scale.naive_ns),
                scale.goal_vs_quadratic(),
                scale.goal_vs_bottomup(),
            );
            if let Some(reach @ ReachDemo { seed, answers, goal_ns, full_ns }) = &scale.reach {
                eprintln!(
                    "  {:<20} reach_from_seed {seed}: {answers} answers  goal {goal_ns:>12} ns  \
                     full {full_ns:>12} ns  speedup {:.1}x",
                    "",
                    reach.speedup(),
                );
            }
        }
        scales.iter().map(DemandScaleReport::to_json).collect()
    });
    json_obj! {
        "semantics" => "stratified",
        "query" => "is_connected",
        "grids" => Json::arr(DATALOG_GRIDS),
        "workloads" => workloads,
    }
}

/// The thread-pool sweep: speedup-vs-threads curve for the batched store
/// ingest.
fn parallel_stage(mode: &Mode) -> Json {
    eprintln!("== parallel stage ==");
    let parallel = measure_parallel(mode.quick);
    let ParallelStage { batch_size, host_threads, .. } = parallel;
    eprintln!("  batch of {batch_size} instances, host threads {host_threads}");
    for &(threads, ns) in &parallel.sweep {
        let speedup = parallel.speedup(ns);
        eprintln!("  threads {threads:>2}: batch ingest {ns:>12} ns ({speedup:.2}x)");
    }
    parallel.to_json()
}

type Measure = fn(&Mode) -> Json;

/// Every stage in run order: `--stage` name, key of its section in the
/// record, and the measurement that prints its console rows and returns the
/// section.
const STAGES: [(&str, &str, Measure); 4] = [
    ("construction", "workloads", construction_stage),
    ("datalog", "datalog", datalog_stage),
    ("demand", "demand", demand_stage),
    ("parallel", "parallel", parallel_stage),
];

const USAGE: &str = "usage: bench_runner [--quick] [--stage NAME]... [--out PATH]";

fn stage_names() -> String {
    STAGES.map(|(name, ..)| name).join(", ")
}

/// Reports a bad command line and exits 2 before any stage runs.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}\nstages: {}", stage_names());
    std::process::exit(2);
}

/// Parses the command line into (quick, selected stage names, output path).
fn parse_args() -> (bool, Vec<String>, Option<String>) {
    let (mut quick, mut selected, mut out) = (false, Vec::new(), None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                eprintln!("{USAGE}\nstages: {}", stage_names());
                std::process::exit(0);
            }
            "--quick" => quick = true,
            "--stage" => match args.next() {
                Some(name) if STAGES.iter().any(|(n, ..)| *n == name) => selected.push(name),
                Some(name) => usage_error(&format!("unknown stage {name:?}")),
                None => usage_error("--stage needs a name"),
            },
            "--out" => match args.next() {
                Some(path) => out = Some(path),
                None => usage_error("--out needs a path"),
            },
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    (quick, selected, out)
}

const DESCRIPTION: &str = "per-stage medians (ns) and speedups vs the frozen reference paths \
     (naive seed arrangement + slow-mode rational arithmetic; String canonical codes; the naive \
     datalog evaluator; the retired quadratic connectivity program). canonical.first is \
     a cold canonical_code() on a fresh invariant (the lazy streamed Lemma 3.1 sweep); cached/iso \
     are per-call costs on warmed invariants; giant_component records the largest skeleton \
     component and its start-choice pruning; datalog runs the query library's fixpoint programs \
     (stratified) on program_structure exports, semi-naive vs datalog::naive; demand compares the \
     linear connectivity program under run_goal (magic-set rewrite) with bottom-up run, both \
     against the retired quadratic program, plus a bound-goal Reach(seed, y) demo; parallel \
     sweeps the batched store ingest over pool sizes 1/2/4/8, host_threads recording the cores it \
     had. stages_run lists the stages this file holds (--stage filtering); \
     samples objects record the samples used per median; null marks a reference path skipped as \
     intractable";

fn main() {
    let (quick, selected, out) = parse_args();
    let mode = Mode { quick, samples: if quick { QUICK_SAMPLES } else { FULL_SAMPLES } };
    let stages: Vec<_> = STAGES
        .iter()
        .filter(|(name, ..)| selected.is_empty() || selected.iter().any(|s| s == name))
        .collect();
    let mut record = vec![
        ("id", Json::from("BENCH_16")),
        ("description", Json::from(DESCRIPTION)),
        ("mode", Json::from(if quick { "quick" } else { "full" })),
        ("samples", Json::from(mode.samples)),
        ("cached_reps", Json::from(CACHED_REPS)),
        ("datagen_seed", Json::from(SEED)),
        ("stages_run", Json::arr(stages.iter().map(|(name, ..)| *name))),
    ];
    for (_, key, measure) in stages {
        record.push((key, measure(&mode)));
    }
    // The default paths name no committed record, so only an explicit
    // `--out` can overwrite one.
    let out_path =
        out.unwrap_or_else(|| if quick { "BENCH_quick.json" } else { "BENCH_16.json" }.to_string());
    std::fs::write(&out_path, Json::obj(record).pretty()).expect("write benchmark baseline");
    eprintln!("wrote {out_path}");
}
