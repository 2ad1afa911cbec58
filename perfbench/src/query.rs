//! `query`: two clients ask `InvariantStore::query` for keys drawn from a
//! seeded Zipf distribution over every library query on every preloaded
//! instance — a working set several times the memo's capacity.
//!
//! Loads the memo hit path, the shard locks, eviction and memo fills (the
//! goal-directed Datalog evaluation on a class representative). Bypasses
//! construction, which happens during set-up only.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use topo_core::{
    evaluate_on_invariant, ClassId, InstanceId, InvariantStats, InvariantStore, SpatialInstance,
    TopologicalInvariant, TopologicalQuery,
};

use crate::backend::{open_store, TracedBackend};
use crate::check::{classes_of, Answers};
use crate::env::{peak_rss_mb, TempDir};
use crate::gen::{all_queries, translated, Generator, Rng, Zipf};
use crate::json::Json;
use crate::pipeline;
use crate::report::{Pass, Workload};
use crate::trace::{self, span};
use crate::{Args, Scale};

const CLIENTS: usize = 2;
/// Zipf exponent of the key distribution.
const ZIPF_S: f64 = 1.1;
/// Translated copies preloaded per generated map.
const COPIES: usize = 2;
/// Memo fills re-run layer by layer in the traced pass.
const MAX_PROBES: usize = 300;
/// Recoveries timed per pass.
const RECOVERIES: usize = 20;
/// Width of the windows whose query rates `ops_per_s` is the median of.
const WINDOW_S: f64 = 0.5;

pub struct Query;

pub struct State {
    store: InvariantStore,
    dir: TempDir,
    instances: Vec<SpatialInstance>,
    ids: Vec<InstanceId>,
    /// `(instance index, query)`, in seeded shuffled order: Zipf rank `r`
    /// draws `keys[r]`.
    keys: Vec<(usize, TopologicalQuery)>,
    zipf: Zipf,
    seed: u64,
    traced: Option<Arc<TracedBackend>>,
}

impl Workload for Query {
    const NAME: &'static str = "query";
    const SETUPS: usize = 7;
    type State = State;

    fn setup(args: &Args) -> State {
        let mut rng = Rng::new(args.seed).fork(2);
        let (grids, per_cell): (Vec<usize>, usize) = match args.scale {
            Scale::Full => ((3..=6).collect(), 8),
            Scale::Smoke => (vec![3], 1),
        };
        let mut instances = Vec::new();
        for &grid in &grids {
            for generator in Generator::ALL {
                for _ in 0..per_cell {
                    let map = generator.make(grid, rng.next_u64());
                    for _ in 0..COPIES {
                        instances.push(translated(&map, &mut rng));
                    }
                    instances.push(map);
                }
            }
        }
        let dir = TempDir::new(crate::out_dir(), "query");
        let (store, traced, _) = open_store(dir.path(), "store.open");
        let ids = instances
            .iter()
            .map(|i| {
                trace::op("op.preload", || pipeline::ingest(&store, i)).expect("preload admitted")
            })
            .collect();
        let mut keys: Vec<(usize, TopologicalQuery)> = instances
            .iter()
            .enumerate()
            .flat_map(|(i, inst)| all_queries(inst.schema().len()).into_iter().map(move |q| (i, q)))
            .collect();
        rng.shuffle(&mut keys);
        let zipf = Zipf::new(keys.len(), ZIPF_S);
        State { store, dir, instances, ids, keys, zipf, seed: args.seed, traced }
    }

    fn measure(state: State, _args: &Args, seconds: f64, pass: &mut Pass) {
        let State { store, dir, instances, ids, keys, zipf, seed, traced } = state;
        pass.backends.extend(traced);
        let live = classes_of(&store, ids.len());
        // Half the recoveries before the loop and half after it, so that
        // their median spans the run rather than one moment of the host.
        // The loop writes nothing, so the files are the preload's either way.
        recover(pass, &dir, &live, RECOVERIES / 2);
        let before = store.stats();
        let start = Instant::now();
        // Per sample: (start ns since the loop began, key index, ms, answer).
        let samples: Vec<(u64, usize, f64, Option<bool>)> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (store, keys, ids, zipf) = (&store, &keys, &ids, &zipf);
                    let mut rng = Rng::new(seed).fork(100 + c as u64);
                    s.spawn(move || {
                        let mut done = Vec::new();
                        while start.elapsed().as_secs_f64() < seconds {
                            let k = zipf.sample(&mut rng);
                            let (i, q) = keys[k];
                            let t = start.elapsed();
                            let (answer, ms) = pipeline::query(store, ids[i], &q, "op.query");
                            done.push((t.as_nanos() as u64, k, ms, answer));
                        }
                        trace::flush_thread();
                        done
                    })
                })
                .collect();
            let per_client: Vec<Vec<_>> =
                clients.into_iter().map(|c| c.join().expect("query client panicked")).collect();
            let mut all = Vec::with_capacity(per_client.iter().map(Vec::len).sum());
            per_client.into_iter().for_each(|c| all.extend(c));
            all
        });
        pass.busy_s += start.elapsed().as_secs_f64();
        pass.peak_rss_mb = peak_rss_mb();
        let after = store.stats();
        pass.add_store_stats(&before, &after);
        pass.checker.store_counters(&after);

        // A key is a repeat when its (class, query) memo key was asked
        // before, by either client.
        let mut ordered = samples;
        ordered.sort_by_key(|s| s.0);
        let class_of: Vec<_> = ids.iter().map(|&id| store.class_of(id)).collect();
        let mut seen = HashSet::with_capacity(keys.len());
        let mut answers = Answers::with_capacity(keys.len());
        let mut first_touch = Vec::new();
        let windows = (seconds / WINDOW_S).floor().max(1.0) as usize;
        let mut per_window = vec![0usize; windows];
        for &(start_ns, k, ms, answer) in &ordered {
            let (i, q) = keys[k];
            pass.attempted += 1;
            if let Some(n) = per_window.get_mut((start_ns as f64 / 1e9 / WINDOW_S) as usize) {
                *n += 1;
            }
            pass.op_ms.push(ms);
            if !seen.insert((class_of[i], q)) {
                pass.repeat_ms.push(ms);
            } else {
                first_touch.push(k);
            }
            match answer {
                Some(a) => answers.record((i, q), a),
                None => pass.op_failures += 1,
            }
        }

        let window_s = WINDOW_S.min(seconds);
        pass.rates.extend(per_window.iter().map(|&n| n as f64 / window_s));

        // Every distinct answered key against a cold top() of its instance.
        let mut cold: HashMap<usize, Arc<TopologicalInvariant>> = HashMap::new();
        let mut cold_of =
            |i: usize| cold.entry(i).or_insert_with(|| pipeline::cold_build(&instances[i])).clone();
        pass.checker.answers(&answers, |&(i, q)| evaluate_on_invariant(&q, &cold_of(i)));

        if trace::enabled() {
            for &k in first_touch.iter().take(MAX_PROBES) {
                let (i, q) = keys[k];
                let rep =
                    class_of[i].and_then(|c| store.class_representative(c)).expect("live class");
                let got = pipeline::probe_fill(&rep, &q);
                pass.checker.expect(answers.first.get(&(i, q)) == Some(&got), || {
                    format!("probe {q:?} on {i}")
                });
            }
            let (mut raw, mut inv) = (0usize, 0usize);
            for (i, instance) in instances.iter().enumerate().step_by(COPIES + 1) {
                raw += instance.raw_bytes(20);
                inv += InvariantStats::compute(&cold_of(i)).bytes;
            }
            pass.count("invariant.size_ratio", crate::stats::ratio(raw as f64, inv as f64));
            pass.count("store.dedup_hits", (ids.len() - store.class_count()) as f64);
            pass.count("store.ingests", ids.len() as f64);
        }

        pass.stored_bytes = dir.bytes() as f64;
        pass.raw_bytes = instances.iter().map(|i| i.raw_bytes(20)).sum::<usize>() as f64;
        let distinct_keys: HashSet<_> = keys.iter().map(|&(i, q)| (class_of[i], q)).collect();
        pass.context.extend([
            ("instances", Json::num(ids.len() as f64)),
            ("classes", Json::num(store.class_count() as f64)),
            ("keys", Json::num(keys.len() as f64)),
            ("distinct_memo_keys", Json::num(distinct_keys.len() as f64)),
            ("memo_capacity", Json::num(store.config().memo_capacity as f64)),
            ("zipf_s", Json::num(ZIPF_S)),
            ("clients", Json::num(CLIENTS as f64)),
            ("distinct_keys_asked", Json::num(seen.len() as f64)),
        ]);
        drop(store);

        recover(pass, &dir, &live, RECOVERIES - RECOVERIES / 2);
        let (recovered, _) = pass.open_store(dir.path(), "store.open_wal");
        span("store.checkpoint", || recovered.checkpoint()).expect("checkpoint");
        drop(recovered);
        let (reopened, _) = pass.open_store(dir.path(), "store.open_snapshot");
        pass.checker.recovered_classes(&live, &reopened);
    }
}

/// Times `n` recoveries of the store in `dir` from its WAL, checking that
/// each places every instance in its live class.
fn recover(pass: &mut Pass, dir: &TempDir, live: &[Option<ClassId>], n: usize) {
    for _ in 0..n {
        let (recovered, ms) = pass.open_store(dir.path(), "store.open_wal");
        pass.recover_ms.push(ms);
        pass.checker.recovered_classes(live, &recovered);
    }
}
