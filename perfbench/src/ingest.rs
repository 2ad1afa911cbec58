//! `ingest`: two clients ingest a seeded stream of maps into a persistent
//! store; the store is then dropped and recovered from its WAL and from a
//! snapshot.
//!
//! Loads construction and canonicalisation (nearly all of the work), the
//! store's admission path and the WAL append path; recovery loads the WAL
//! decoder. Bypasses queries and the memo, except in the correctness check.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use topo_core::{
    InstanceId, InvariantStats, InvariantStore, SpatialInstance, StoreConfig, TopologicalQuery,
};

use crate::check::{classes_of, Answers};
use crate::env::{peak_rss_mb, TempDir};
use crate::gen::{homeomorphic_copy, Generator, Rng};
use crate::json::Json;
use crate::pipeline;
use crate::report::{Pass, Workload};
use crate::trace::{self, span};
use crate::{Args, Scale};

/// Client threads, one per core of the reference host.
const CLIENTS: usize = 2;

pub struct Ingest;

pub struct Item {
    instance: SpatialInstance,
    /// Stream position of the map this item is a homeomorphic copy of.
    copy_of: Option<usize>,
    /// Check queries on regions of this map.
    checks: Vec<TopologicalQuery>,
}

pub struct State {
    items: Vec<Item>,
}

impl Workload for Ingest {
    const NAME: &'static str = "ingest";
    const SETUPS: usize = 9;
    type State = State;

    fn setup(args: &Args) -> State {
        let mut rng = Rng::new(args.seed).fork(1);
        // Every (generator, grid) cell gives the same number of distinct
        // maps and of rotated/translated copies of them (one item in
        // four), so seeds change the maps but neither the mix of sizes nor
        // the share of copies.
        let (grids, distinct, copies): (Vec<usize>, usize, usize) = match args.scale {
            Scale::Full => ((8..=24).step_by(2).collect(), 6, 2),
            Scale::Smoke => (vec![3, 4], 3, 1),
        };
        let mut maps: Vec<Item> = Vec::new();
        for &grid in &grids {
            for generator in Generator::ALL {
                let first = maps.len();
                for _ in 0..distinct {
                    let instance = generator.make(grid, rng.next_u64());
                    let checks = check_queries(&instance, grid == grids[0], &mut rng);
                    maps.push(Item { instance, copy_of: None, checks });
                }
                for of in first..first + copies {
                    let instance = homeomorphic_copy(&maps[of].instance, &mut rng);
                    let checks = maps[of].checks.clone();
                    maps.push(Item { instance, copy_of: Some(of), checks });
                }
            }
        }
        // A seeded order in which every copy follows its original.
        let mut order: Vec<usize> = (0..maps.len()).collect();
        rng.shuffle(&mut order);
        let mut pos = vec![0; maps.len()];
        for (p, &m) in order.iter().enumerate() {
            pos[m] = p;
        }
        for m in 0..maps.len() {
            if let Some(of) = maps[m].copy_of {
                if pos[m] < pos[of] {
                    order.swap(pos[m], pos[of]);
                    pos.swap(m, of);
                }
            }
        }
        let mut slots: Vec<Option<Item>> = maps.into_iter().map(Some).collect();
        let items = order
            .iter()
            .map(|&m| {
                let mut item = slots[m].take().expect("each map placed once");
                item.copy_of = item.copy_of.map(|of| pos[of]);
                item
            })
            .collect();
        State { items }
    }

    fn measure(state: State, _args: &Args, seconds: f64, pass: &mut Pass) {
        let items = &state.items;
        let raw_bytes: usize = items.iter().map(|i| i.instance.raw_bytes(20)).sum();
        let mut round = 0;
        while pass.busy_s < seconds || round == 0 {
            let dir = TempDir::new(crate::out_dir(), "ingest");
            let (store, _) = pass.open_store(dir.path(), "store.open");
            let before = store.stats();

            let next = AtomicUsize::new(0);
            let start = Instant::now();
            let per_client: Vec<Vec<(usize, Option<InstanceId>, f64)>> = std::thread::scope(|s| {
                let clients: Vec<_> = (0..CLIENTS)
                    .map(|_| {
                        s.spawn(|| {
                            let mut done = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(item) = items.get(i) else { break };
                                let t = Instant::now();
                                let id = trace::op("op.ingest", || {
                                    pipeline::ingest(&store, &item.instance)
                                });
                                done.push((i, id, t.elapsed().as_secs_f64() * 1e3));
                            }
                            trace::flush_thread();
                            done
                        })
                    })
                    .collect();
                clients.into_iter().map(|c| c.join().expect("ingest client panicked")).collect()
            });
            let elapsed = start.elapsed().as_secs_f64();
            pass.busy_s += elapsed;
            pass.rates.push(items.len() as f64 / elapsed);

            let mut ids = vec![None; items.len()];
            for (i, id, ms) in per_client.into_iter().flatten() {
                pass.attempted += 1;
                pass.op_ms.push(ms);
                if items[i].copy_of.is_some() {
                    pass.repeat_ms.push(ms);
                }
                match id {
                    Some(id) => ids[i] = Some(id),
                    None => pass.op_failures += 1,
                }
            }
            let after = store.stats();
            pass.add_store_stats(&before, &after);
            pass.count("store.ingests", items.len() as f64);
            pass.checker.store_counters(&after);

            // A copy must land in its original's class.
            for (i, item) in items.iter().enumerate() {
                if let (Some(of), Some(id), Some(orig)) =
                    (item.copy_of, ids[i], item.copy_of.and_then(|o| ids[o]))
                {
                    let (a, b) = (store.class_of(id), store.class_of(orig));
                    pass.checker
                        .expect(a == b, || format!("copy {i} of {of}: class {a:?} vs {b:?}"));
                }
            }
            let count = store.instance_count();
            let live_classes = classes_of(&store, count);
            // The first round also compares answers of the live and the
            // recovered store, and prices the map against its invariant.
            let live_answers = (round == 0).then(|| answers(&store, items, &ids, pass));
            if round == 0 {
                pass.stored_bytes = dir.bytes() as f64;
                pass.raw_bytes = raw_bytes as f64;
                if trace::enabled() {
                    pass.count("invariant.size_ratio", size_ratio(&store, items, &ids));
                }
            }
            drop(store);

            let (recovered, ms) = pass.open_store(dir.path(), "store.open_wal");
            pass.recover_ms.push(ms);
            pass.checker.recovered_classes(&live_classes, &recovered);
            if let Some(live) = &live_answers {
                let got = answers(&recovered, items, &ids, pass);
                compare(pass, live, &got, "WAL replay");
            }
            span("store.checkpoint", || recovered.checkpoint()).expect("checkpoint");
            pass.checker.store_counters(&recovered.stats());
            drop(recovered);

            let (reopened, _) = pass.open_store(dir.path(), "store.open_snapshot");
            pass.checker.recovered_classes(&live_classes, &reopened);
            if let Some(live) = &live_answers {
                let got = answers(&reopened, items, &ids, pass);
                compare(pass, live, &got, "snapshot");
            }
            if round == 0 {
                pass.peak_rss_mb = peak_rss_mb();
            }
            round += 1;
        }
        pass.context.extend([
            ("stream_items", Json::num(items.len() as f64)),
            (
                "stream_copies",
                Json::num(items.iter().filter(|i| i.copy_of.is_some()).count() as f64),
            ),
            ("rounds", Json::num(round as f64)),
            ("clients", Json::num(CLIENTS as f64)),
            ("memo_capacity", Json::num(StoreConfig::default().memo_capacity as f64)),
            ("check_keys", Json::num(items.iter().map(|i| i.checks.len()).sum::<usize>() as f64)),
        ]);
    }
}

/// Check queries over two distinct regions of a map: one the store fills
/// natively and, on the smallest maps only, one it fills through a Datalog
/// program — whose fill on the largest maps takes the better part of a
/// second.
fn check_queries(instance: &SpatialInstance, small: bool, rng: &mut Rng) -> Vec<TopologicalQuery> {
    let n = instance.schema().len();
    let a = rng.below(n);
    let b = (a + 1 + rng.below(n - 1)) % n;
    let mut checks = vec![TopologicalQuery::BoundaryOnlyIntersection(a, b)];
    if small {
        checks.push(TopologicalQuery::Intersects(a, b));
    }
    checks
}

/// The check queries of every ingested item, answered by `store`; each
/// distinct filled class is also probed layer by layer when traced.
fn answers(
    store: &InvariantStore,
    items: &[Item],
    ids: &[Option<InstanceId>],
    pass: &mut Pass,
) -> Answers {
    let before = store.stats();
    let mut out = Answers::default();
    for (i, item) in items.iter().enumerate() {
        let Some(id) = ids[i] else { continue };
        for &q in &item.checks {
            match pipeline::query(store, id, &q, "op.check").0 {
                Some(answer) => out.record((i, q), answer),
                None => pass.checker.expect(false, || format!("item {i}: no answer to {q:?}")),
            }
        }
    }
    if trace::enabled() {
        let mut probed = std::collections::HashSet::new();
        for (i, item) in items.iter().enumerate() {
            let Some(class) = ids[i].and_then(|id| store.class_of(id)) else { continue };
            let rep = store.class_representative(class).expect("live class");
            for &q in &item.checks {
                if probed.insert((class, q)) {
                    let want = out.first.get(&(i, q)).copied();
                    let got = pipeline::probe_fill(&rep, &q);
                    pass.checker
                        .expect(want == Some(got), || format!("probe {q:?} on class {class}"));
                }
            }
        }
    }
    pass.add_store_stats(&before, &store.stats());
    out
}

fn compare(pass: &mut Pass, live: &Answers, got: &Answers, what: &str) {
    pass.checker.answers(got, |key| live.first.get(key).copied().unwrap_or(!got.first[key]));
    pass.checker
        .expect(got.first.len() == live.first.len(), || format!("{what}: answer count differs"));
}

/// Raw bytes (20 B per point) over the invariant's storage estimate, summed
/// over the distinct maps of the stream: the paper's size ratio.
fn size_ratio(store: &InvariantStore, items: &[Item], ids: &[Option<InstanceId>]) -> f64 {
    let (mut raw, mut inv) = (0usize, 0usize);
    for (i, item) in items.iter().enumerate().filter(|(_, i)| i.copy_of.is_none()) {
        let Some(rep) = ids[i].and_then(|id| store.class_representative(store.class_of(id)?))
        else {
            continue;
        };
        raw += item.instance.raw_bytes(20);
        inv += InvariantStats::compute(&rep).bytes;
    }
    crate::stats::ratio(raw as f64, inv as f64)
}
