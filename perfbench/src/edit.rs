//! `edit`: one client edits nine maintained maps (three per generator) the way an interactive
//! editor does — mostly novel edits, some undos — and reads three answers
//! about the edited region after each edit.
//!
//! Loads `MaintainedInvariant` repair, `InvariantStore::update_instance`
//! (WAL update records, class GC, memo purge) and memo fills for freshly
//! created classes. The working set fits the memo. Novel edits and undos
//! are timed apart, so a change that only helps repeated geometry shows as
//! such.

use std::sync::Arc;
use std::time::Instant;

use topo_core::{
    evaluate_on_invariant, InstanceId, InvariantStore, MaintainStats, MaintainedInvariant, Region,
    RegionId, SpatialInstance, TopologicalQuery,
};

use crate::backend::{open_store, TracedBackend};
use crate::check::Checker;
use crate::env::{peak_rss_mb, TempDir};
use crate::gen::{extent, novel_quad, Generator, Rng};
use crate::json::Json;
use crate::pipeline;
use crate::report::{Pass, Workload};
use crate::stats::{median, percentile, ratio};
use crate::trace::{self, span};
use crate::{Args, Scale};

/// Probability that a step is a novel edit when both kinds are possible.
const NOVEL_SHARE: f64 = 2.0 / 3.0;
/// Unreverted edits a map may carry; at the cap the next step is an undo,
/// which keeps the maps' size stationary over a run.
const MAX_DEPTH: usize = 4;
/// Maintained maps per generator.
const MAPS_PER_GENERATOR: usize = 3;
/// Edit steps between two recoveries of the store: three turns of every
/// map, so that each round (one sample of `ops_per_s`) edits the same mix.
const STEPS_PER_ROUND: usize = 3 * MAPS_PER_GENERATOR * Generator::ALL.len();

pub struct Edit;

struct Map {
    maintained: MaintainedInvariant,
    id: InstanceId,
    /// Unreverted edits, latest last: the region and its previous value.
    undo: Vec<(RegionId, Region)>,
    extent: (f64, f64, f64, f64),
    /// Typical cell width of the generator's lattice.
    cell: f64,
    /// Regions of the latest read bundle: the edited one and its partner.
    last_read: Option<(RegionId, RegionId)>,
}

pub struct State {
    maps: Vec<Map>,
    store: InvariantStore,
    dir: TempDir,
    rng: Rng,
    traced: Option<Arc<TracedBackend>>,
    /// Raw bytes (20 B per point) of the maps as first stored.
    initial_raw: usize,
}

/// One edit step, kept for the checks.
struct Step {
    state: SpatialInstance,
    maintained_code: topo_core::CodeHash,
    reads: Vec<(TopologicalQuery, Option<bool>)>,
}

impl Workload for Edit {
    const NAME: &'static str = "edit";
    const SETUPS: usize = 9;
    type State = State;

    fn setup(args: &Args) -> State {
        let mut rng = Rng::new(args.seed).fork(3);
        // The city generator's road crossings give it about four times the
        // cells of the others at one grid size; grid 6 brings it to the
        // same size as the others at grid 12.
        let grid = |generator: &Generator| match (args.scale, generator) {
            (Scale::Smoke, _) => 3,
            (Scale::Full, Generator::City) => 6,
            (Scale::Full, _) => 12,
        };
        let dir = TempDir::new(crate::out_dir(), "edit");
        let (store, traced, _) = open_store(dir.path(), "store.open");
        // Several maps per generator, taking turns in generator order, so
        // that no single map's draw from the seed sets a percentile.
        let maps: Vec<Map> = (0..MAPS_PER_GENERATOR)
            .flat_map(|_| Generator::ALL.iter())
            .map(|generator| {
                let grid = grid(generator);
                let instance = generator.make(grid, rng.next_u64());
                let maintained = trace::span("maintain.from_instance", || {
                    MaintainedInvariant::from_instance(&instance)
                });
                let invariant = maintained.invariant().clone();
                let id = span("store.admit", || store.try_ingest_invariant(invariant))
                    .id()
                    .expect("initial map admitted");
                let extent = extent(&instance);
                let cell = (extent.2 - extent.0) / grid as f64;
                Map { maintained, id, undo: Vec::new(), extent, cell, last_read: None }
            })
            .collect();
        let initial_raw = maps.iter().map(|m| m.maintained.instance().raw_bytes(20)).sum();
        State { maps, store, dir, rng, traced, initial_raw }
    }

    fn measure(state: State, _args: &Args, seconds: f64, pass: &mut Pass) {
        let State { mut maps, mut store, dir, mut rng, traced, initial_raw } = state;
        pass.backends.extend(traced);
        let (mut repair_novel, mut repair_undo, mut update_ms, mut read_ms) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        // The current round's steps; checked and cleared at the round's
        // end, so memory does not grow with the number of rounds.
        let mut steps: Vec<Step> = Vec::with_capacity(STEPS_PER_ROUND);
        let mut step_count = 0;
        let mut cold_ms = Vec::new();
        let mut novel_by_map = vec![Vec::new(); maps.len()];
        let mut round = 0;
        let mut turn = 0usize;
        while pass.busy_s < seconds || round == 0 {
            let before = store.stats();
            let start = Instant::now();
            for _ in 0..STEPS_PER_ROUND {
                let m = turn % maps.len();
                let map = &mut maps[m];
                turn += 1;
                let novel =
                    map.undo.is_empty() || (map.undo.len() < MAX_DEPTH && rng.unit() < NOVEL_SHARE);
                let regions = map.maintained.schema().len();
                let (region, value) = if novel {
                    let r = rng.below(regions);
                    let mut value = map.maintained.region(r).clone();
                    value.add_ring(novel_quad(&mut rng, map.extent, map.cell));
                    map.undo.push((r, map.maintained.region(r).clone()));
                    (r, value)
                } else {
                    map.undo.pop().expect("undo stack checked non-empty")
                };
                let stats_before = map.maintained.stats();
                let t = Instant::now();
                let outcome = trace::op(if novel { "op.edit" } else { "op.undo" }, || {
                    let t = Instant::now();
                    span("maintain.insert_region", || map.maintained.insert_region(region, value));
                    let repaired = t.elapsed().as_secs_f64() * 1e3;
                    let t = Instant::now();
                    let invariant = map.maintained.invariant().clone();
                    let outcome = span("store.update", || store.update_instance(map.id, invariant));
                    update_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    if novel { &mut repair_novel } else { &mut repair_undo }.push(repaired);
                    outcome
                });
                let ms = t.elapsed().as_secs_f64() * 1e3;
                pass.attempted += 1;
                if novel { &mut pass.op_ms } else { &mut pass.repeat_ms }.push(ms);
                if novel {
                    novel_by_map[m].push(ms);
                }
                if outcome.is_none_or(|o| o.is_rejected()) {
                    pass.op_failures += 1;
                }
                add_maintain_stats(pass, novel, &stats_before, &map.maintained.stats());

                let other = (region + 1 + rng.below(regions - 1)) % regions;
                let bundle = [
                    TopologicalQuery::IsConnected(region),
                    TopologicalQuery::HasHole(region),
                    TopologicalQuery::Intersects(region, other),
                ];
                let mut read = 0.0;
                let reads: Vec<_> = bundle
                    .iter()
                    .map(|q| {
                        let (answer, ms) = pipeline::query(&store, map.id, q, "op.read");
                        read += ms;
                        (*q, answer)
                    })
                    .collect();
                read_ms.push(read);
                map.last_read = Some((region, other));
                pass.attempted += reads.len() as u64;
                pass.op_failures += reads.iter().filter(|(_, a)| a.is_none()).count() as u64;
                steps.push(Step {
                    state: map.maintained.instance(),
                    maintained_code: map.maintained.invariant().code_hash(),
                    reads,
                });
            }
            let elapsed = start.elapsed().as_secs_f64();
            pass.busy_s += elapsed;
            pass.rates.push(STEPS_PER_ROUND as f64 / elapsed);
            let after = store.stats();
            pass.add_store_stats(&before, &after);
            pass.checker.store_counters(&after);

            // Recovery: the round's updates over the last snapshot.
            let live: Vec<_> = maps.iter().map(|m| store.class_of(m.id)).collect();
            let keys = recheck_keys(&maps);
            let live_answers = ask(&store, &maps, &keys, pass);
            if round == 0 {
                // The snapshot of the initial maps plus the round's update
                // records, against every instance version they store.
                pass.stored_bytes = dir.bytes() as f64;
                let versions: usize = steps.iter().map(|s| s.state.raw_bytes(20)).sum();
                pass.raw_bytes = (initial_raw + versions) as f64;
            }
            drop(store);
            let (recovered, ms) = pass.open_store(dir.path(), "store.open_wal");
            pass.recover_ms.push(ms);
            check_classes(&mut pass.checker, &maps, &live, &recovered);
            let recovered_answers = ask(&recovered, &maps, &keys, pass);
            for (key, (want, got)) in keys.iter().zip(live_answers.iter().zip(&recovered_answers)) {
                pass.checker.expect(want.is_some() && want == got, || {
                    format!("{key:?}: live store answered {want:?}, recovered {got:?}")
                });
            }
            span("store.checkpoint", || recovered.checkpoint()).expect("checkpoint");
            pass.checker.store_counters(&recovered.stats());
            drop(recovered);
            store = pass.open_store(dir.path(), "store.open_snapshot").0;
            check_classes(&mut pass.checker, &maps, &live, &store);
            check_steps(pass, &steps, step_count, &mut cold_ms);
            step_count += steps.len();
            steps.clear();
            if round == 0 {
                pass.peak_rss_mb = peak_rss_mb();
            }
            round += 1;
        }

        if trace::enabled() {
            let (mut raw, mut inv) = (0usize, 0usize);
            for map in &maps {
                raw += map.maintained.instance().raw_bytes(20);
                inv += topo_core::InvariantStats::compute(map.maintained.invariant()).bytes;
            }
            pass.count("invariant.size_ratio", ratio(raw as f64, inv as f64));
        }
        let novel_p50 = median(&repair_novel);
        pass.count("maintain.repair_vs_cold", ratio(novel_p50, median(&cold_ms)));
        pass.extra.extend([
            ("maintain.cold_rebuild_ms", median(&cold_ms), "ms"),
            ("maintain.repair_novel_p50_ms", novel_p50, "ms"),
            ("maintain.repair_novel_p90_ms", percentile(&repair_novel, 0.9), "ms"),
            ("maintain.repair_undo_p50_ms", median(&repair_undo), "ms"),
            ("store.update_ms", median(&update_ms), "ms"),
            ("read_after_edit_p50_ms", median(&read_ms), "ms"),
            ("maintain.group_builds_novel", pass.counter("maintain.group_builds_novel"), "count"),
            ("maintain.group_builds_undo", pass.counter("maintain.group_builds_undo"), "count"),
        ]);
        pass.context.extend([
            ("novel_edits", Json::num(repair_novel.len() as f64)),
            (
                "novel_p50_ms_by_map",
                Json::Arr(novel_by_map.iter().map(|v| Json::num(median(v))).collect()),
            ),
            ("undos", Json::num(repair_undo.len() as f64)),
            ("rounds", Json::num(round as f64)),
            ("steps_per_round", Json::num(STEPS_PER_ROUND as f64)),
            ("clients", Json::num(1.0)),
            ("memo_capacity", Json::num(store.config().memo_capacity as f64)),
            ("distinct_keys", Json::num((step_count * 3) as f64)),
        ]);
    }
}

/// Adds one edit's `MaintainStats` deltas; group builds are also split by
/// novel edit and undo.
fn add_maintain_stats(pass: &mut Pass, novel: bool, before: &MaintainStats, after: &MaintainStats) {
    let builds = (after.group_builds - before.group_builds) as f64;
    pass.count("maintain.group_builds", builds);
    pass.count(
        if novel { "maintain.group_builds_novel" } else { "maintain.group_builds_undo" },
        builds,
    );
    pass.count("maintain.group_reuses", (after.group_reuses - before.group_reuses) as f64);
    pass.count("maintain.pair_computes", (after.pair_computes - before.pair_computes) as f64);
    pass.count("maintain.pair_reuses", (after.pair_reuses - before.pair_reuses) as f64);
}

/// Per map, the latest read bundle plus a query the store fills natively.
fn recheck_keys(maps: &[Map]) -> Vec<(usize, TopologicalQuery)> {
    let mut keys = Vec::new();
    for (m, map) in maps.iter().enumerate() {
        if let Some((r, other)) = map.last_read {
            keys.extend([
                (m, TopologicalQuery::IsConnected(r)),
                (m, TopologicalQuery::HasHole(r)),
                (m, TopologicalQuery::Intersects(r, other)),
                (m, TopologicalQuery::BoundaryOnlyIntersection(r, other)),
            ]);
        }
    }
    keys
}

/// Answers `store` gives for `keys`: on the live store the bundle keys are
/// memo hits and the last a fill. Traced, each key is also re-run layer by
/// layer on the class representative.
fn ask(
    store: &InvariantStore,
    maps: &[Map],
    keys: &[(usize, TopologicalQuery)],
    pass: &mut Pass,
) -> Vec<Option<bool>> {
    let before = store.stats();
    let answers: Vec<Option<bool>> =
        keys.iter().map(|&(m, q)| pipeline::query(store, maps[m].id, &q, "op.check").0).collect();
    if trace::enabled() {
        for (&(m, q), &answer) in keys.iter().zip(&answers) {
            let rep = store.class_of(maps[m].id).and_then(|c| store.class_representative(c));
            let got = rep.map(|rep| pipeline::probe_fill(&rep, &q));
            pass.checker.expect(got == answer, || format!("probe {q:?} on map {m}"));
        }
    }
    pass.add_store_stats(&before, &store.stats());
    answers
}

fn check_classes(
    checker: &mut Checker,
    maps: &[Map],
    live: &[Option<usize>],
    store: &InvariantStore,
) {
    for (map, &class) in maps.iter().zip(live) {
        let got = store.class_of(map.id);
        checker.expect(got == class, || {
            format!("map {}: live class {class:?}, recovered {got:?}", map.id)
        });
    }
}

/// Each step's maintained code and answers against a cold top() of the
/// state it left; the cold builds' times are the reference a repair must
/// beat.
fn check_steps(pass: &mut Pass, steps: &[Step], offset: usize, cold_ms: &mut Vec<f64>) {
    for (n, step) in steps.iter().enumerate() {
        let t = Instant::now();
        let cold = pipeline::cold_build(&step.state);
        cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
        pass.checker.expect(cold.code_hash() == step.maintained_code, || {
            format!("step {}: maintained code differs from a cold rebuild", offset + n)
        });
        for &(q, answer) in &step.reads {
            let want = evaluate_on_invariant(&q, &cold);
            pass.checker.expect(answer == Some(want), || {
                format!("step {}: {q:?} answered {answer:?}, expected {want}", offset + n)
            });
        }
    }
}
