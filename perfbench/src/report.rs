//! What every run shares: timed set-ups, the measured
//! pass(es), and the metrics assembled from them.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use std::path::Path;

use topo_core::{InvariantStore, StoreStats};

use crate::backend::{open_store, TracedBackend};
use crate::check::Checker;
use crate::json::Json;
use crate::stats::{median, percentile, ratio};
use crate::trace::{self, durations_ms, self_ms, Span};
use crate::{env, Args};

/// One workload: inputs and stores built by `setup`, then a closed loop
/// driven by `measure`.
pub trait Workload {
    const NAME: &'static str;
    /// Set-ups per end-to-end run; `setup_s` is their median.
    const SETUPS: usize;
    type State;
    fn setup(args: &Args) -> Self::State;
    /// Runs the closed loop for about `seconds` of client time, then the
    /// recovery phase and the correctness checks, recording into `pass`.
    fn measure(state: Self::State, args: &Args, seconds: f64, pass: &mut Pass);
}

/// What one measured pass observed.
#[derive(Default)]
pub struct Pass {
    /// Latency of every primary operation.
    pub op_ms: Vec<f64>,
    /// Latency of the operations on content the program has seen before.
    pub repeat_ms: Vec<f64>,
    /// Client wall time spent in the timed loop.
    pub busy_s: f64,
    /// Primary operations per second of each round (or time window) of
    /// the loop; `ops_per_s` is their median, which a slow spell of the
    /// host moves less than a total over the run.
    pub rates: Vec<f64>,
    /// `InvariantStore::open` over a WAL, per sample.
    pub recover_ms: Vec<f64>,
    /// Peak resident memory once set-up and the first round (or, for
    /// `query`, the timed loop) are done: a point that does not move with
    /// how many rounds a fast host completes.
    pub peak_rss_mb: f64,
    /// Bytes on disk and raw input bytes (20 B per point) behind them.
    pub stored_bytes: f64,
    pub raw_bytes: f64,
    pub attempted: u64,
    /// Operations that returned no answer or were refused.
    pub op_failures: u64,
    pub checker: Checker,
    /// Per-layer counts and ratios the workload reads off the library.
    pub counters: BTreeMap<&'static str, f64>,
    /// Traced backends whose byte counts feed the `persist.*` metrics.
    pub backends: Vec<Arc<TracedBackend>>,
    /// Workload-specific per-layer numbers, reported in the trace summary.
    pub extra: Vec<(&'static str, f64, &'static str)>,
    pub context: Vec<(&'static str, Json)>,
}

impl Pass {
    /// Adds the deltas of the store counters the per-layer metrics use.
    pub fn add_store_stats(&mut self, before: &StoreStats, after: &StoreStats) {
        let d = |f: fn(&StoreStats) -> u64| (f(after) - f(before)) as f64;
        for (name, value) in [
            ("store.memo_hits", d(|s| s.memo_hits)),
            ("store.fills", d(|s| s.memo_misses)),
            ("store.evictions", d(|s| s.memo_evictions)),
            ("store.gc_classes", d(|s| s.gc_classes)),
            ("store.updates", d(|s| s.updates)),
            ("store.dedup_hits", d(|s| s.dedup_hits)),
            ("store.fallback_evals", d(|s| s.fallback_evals)),
            ("store.lock_recoveries", d(|s| s.lock_recoveries)),
        ] {
            *self.counters.entry(name).or_default() += value;
        }
    }

    /// [`open_store`] whose traced backend feeds this pass's byte counts.
    pub fn open_store(&mut self, dir: &Path, name: &'static str) -> (InvariantStore, f64) {
        let (store, traced, ms) = open_store(dir, name);
        self.backends.extend(traced);
        (store, ms)
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counters.entry(name).or_default() += value;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }
}

/// The context line and the result line of a run.
pub struct Output {
    pub context: Json,
    pub line: Json,
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Json) {
    (name.to_string(), Json::obj([("value", Json::num(value)), ("unit", Json::str(unit))]))
}

pub fn run<W: Workload>(args: &Args) -> Output {
    let mut context = env::context(crate::out_dir());
    context.extend([
        ("workload", Json::str(W::NAME)),
        ("seed", Json::num(args.seed as f64)),
        ("seconds", Json::num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
    ]);
    let (metrics, pass, attempted) = if args.trace {
        let plain_state = W::setup(args);
        let mut plain = Pass::default();
        W::measure(plain_state, args, args.seconds / 2.0, &mut plain);
        trace::set_enabled(true);
        let state = trace::op("op.setup", || W::setup(args));
        let mut traced = Pass::default();
        W::measure(state, args, args.seconds / 2.0, &mut traced);
        trace::set_enabled(false);
        let spans = trace::take_all();
        let overhead = ratio(median(&traced.op_ms), median(&plain.op_ms)) - 1.0;
        let metrics = layer_metrics(&spans, &traced, overhead);
        write_trace(args, &spans, &traced, &metrics);
        traced.op_failures += plain.op_failures + plain.checker.failed;
        traced.checker.notes.extend(plain.checker.notes);
        (metrics, traced, plain.attempted)
    } else {
        // Half the set-ups before the measured pass (the last one feeds
        // it) and half after, so that their median spans the run rather
        // than one moment of the host.
        let time_setup = || {
            let start = Instant::now();
            let state = W::setup(args);
            (state, start.elapsed().as_secs_f64())
        };
        let mut setup_s = Vec::new();
        let mut state = None;
        for _ in 0..W::SETUPS.div_ceil(2) {
            drop(state.take());
            let (s, secs) = time_setup();
            state = Some(s);
            setup_s.push(secs);
        }
        let mut pass = Pass::default();
        W::measure(state.expect("at least one set-up"), args, args.seconds, &mut pass);
        for _ in 0..W::SETUPS / 2 {
            setup_s.push(time_setup().1);
        }
        let metrics = vec![
            metric("setup_s", median(&setup_s), "s"),
            metric("peak_rss_mb", pass.peak_rss_mb, "MB"),
            metric("op_p50_ms", percentile(&pass.op_ms, 0.5), "ms"),
            metric("op_p90_ms", percentile(&pass.op_ms, 0.9), "ms"),
            metric("ops_per_s", median(&pass.rates), "1/s"),
            metric("repeat_p50_ms", median(&pass.repeat_ms), "ms"),
            metric("recover_ms", median(&pass.recover_ms), "ms"),
            metric("stored_bytes_per_raw_byte", ratio(pass.stored_bytes, pass.raw_bytes), "ratio"),
        ];
        context
            .push(("setup_s_samples", Json::Arr(setup_s.iter().map(|&s| Json::num(s)).collect())));
        (metrics, pass, 0)
    };
    context.extend([
        ("op_samples", Json::num(pass.op_ms.len() as f64)),
        ("repeat_samples", Json::num(pass.repeat_ms.len() as f64)),
        ("recover_ms_samples", Json::Arr(pass.recover_ms.iter().map(|&v| Json::num(v)).collect())),
        ("rates", Json::Arr(pass.rates.iter().map(|&v| Json::num(v)).collect())),
        ("checked", Json::num(pass.checker.checked as f64)),
        (
            "check_notes",
            Json::Arr(pass.checker.notes.iter().map(|n| Json::str(n.as_str())).collect()),
        ),
    ]);
    context.extend(pass.context.iter().cloned());
    for note in &pass.checker.notes {
        eprintln!("perfbench: check failed: {note}");
    }
    let failed = pass.op_failures + pass.checker.failed;
    let line = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::num((attempted + pass.attempted).max(1) as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    Output { context: Json::obj([("context", Json::obj(context))]), line }
}

/// The per-layer metrics of a traced pass, `<layer>.<metric>` after the
/// crates and modules they time.
fn layer_metrics(spans: &[Span], pass: &Pass, overhead: f64) -> Vec<(String, Json)> {
    let p = |name: &str, q: f64| percentile(&durations_ms(spans, name), q);
    let us = |name: &str, q: f64| p(name, q) * 1e3;
    let run_goal: Vec<f64> = spans
        .iter()
        .filter(|s| s.name.starts_with("relational.run_goal"))
        .map(|s| s.ms() * 1e3)
        .collect();
    let backend_sum =
        |f: fn(&TracedBackend) -> u64| pass.backends.iter().map(|b| f(b)).sum::<u64>() as f64;
    let appends = backend_sum(|b| b.appends.load(Ordering::Relaxed));
    let hits = pass.counter("store.memo_hits");
    let fills = pass.counter("store.fills");
    let groups = pass.counter("maintain.group_builds") + pass.counter("maintain.group_reuses");
    let c = |name: &str| pass.counter(name);
    let out = [
        ("spatial.lower_ms", p("spatial.lower", 0.5), "ms"),
        ("arrangement.build_ms", p("arrangement.build", 0.5), "ms"),
        ("invariant.classify_ms", p("invariant.classify", 0.5), "ms"),
        ("invariant.reduce_ms", p("invariant.reduce", 0.5), "ms"),
        ("invariant.freeze_ms", p("invariant.freeze", 0.5), "ms"),
        ("canonical.first_ms", p("canonical.first", 0.5), "ms"),
        ("invariant.cold_build_ms", p("invariant.cold_build", 0.5), "ms"),
        ("invariant.size_ratio", c("invariant.size_ratio"), "ratio"),
        ("store.admit_ms", p("store.admit", 0.5), "ms"),
        ("store.dedup_ratio", ratio(c("store.dedup_hits"), c("store.ingests")), "ratio"),
        ("store.hit_p50_us", us("store.hit", 0.5), "us"),
        ("store.hit_p99_us", us("store.hit", 0.99), "us"),
        ("store.fill_p50_us", us("store.fill", 0.5), "us"),
        ("store.fill_p99_us", us("store.fill", 0.99), "us"),
        ("store.hit_ratio", ratio(hits, hits + fills), "ratio"),
        ("store.fills", fills, "count"),
        ("store.evictions", c("store.evictions"), "count"),
        ("store.gc_classes", c("store.gc_classes"), "count"),
        ("store.updates", c("store.updates"), "count"),
        ("store.fallback_evals", c("store.fallback_evals"), "count"),
        ("store.lock_recoveries", c("store.lock_recoveries"), "count"),
        ("queries.structure_us", us("queries.structure", 0.5), "us"),
        ("relational.run_goal_us", median(&run_goal), "us"),
        ("queries.native_us", us("queries.native", 0.5), "us"),
        ("persist.append_p50_ms", p("persist.append", 0.5), "ms"),
        ("persist.append_p99_ms", p("persist.append", 0.99), "ms"),
        ("persist.appends", appends, "count"),
        (
            "persist.bytes_per_append",
            ratio(backend_sum(|b| b.append_bytes.load(Ordering::Relaxed)), appends),
            "B",
        ),
        ("persist.read_wal_ms", p("persist.read_wal", 0.5), "ms"),
        ("persist.replay_ms", median(&self_ms(spans, "store.open_wal")), "ms"),
        ("persist.checkpoint_ms", p("store.checkpoint", 0.5), "ms"),
        (
            "persist.snapshot_bytes",
            pass.backends
                .iter()
                .map(|b| b.snapshot_bytes.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0) as f64,
            "B",
        ),
        ("persist.snapshot_open_ms", p("store.open_snapshot", 0.5), "ms"),
        ("maintain.group_builds", c("maintain.group_builds"), "count"),
        ("maintain.group_reuses", c("maintain.group_reuses"), "count"),
        ("maintain.reuse_ratio", ratio(c("maintain.group_reuses"), groups), "ratio"),
        ("maintain.pair_computes", c("maintain.pair_computes"), "count"),
        ("maintain.pair_reuses", c("maintain.pair_reuses"), "count"),
        ("maintain.repair_vs_cold", c("maintain.repair_vs_cold"), "ratio"),
        ("trace.overhead", overhead, "ratio"),
        ("trace.attributed_share", trace::attributed_share(spans), "ratio"),
    ];
    for (name, value, unit) in &out {
        if *value == 0.0 && (*unit == "ms" || *unit == "us") {
            eprintln!("perfbench: per-layer metric {name} has no samples on this workload");
        }
    }
    out.iter().map(|&(name, value, unit)| metric(name, value, unit)).collect()
}

/// Writes every span (one JSON object per line) and a summary — per-span
/// statistics, the workload's own per-layer numbers and the reported
/// metrics — to the output directory.
fn write_trace(args: &Args, spans: &[Span], pass: &Pass, metrics: &[(String, Json)]) {
    let stem = format!("trace-{}-seed{}", args.workload, args.seed);
    let summary = Json::obj([
        ("spans", trace::summary(spans)),
        (
            "workload_layers",
            Json::Obj(pass.extra.iter().map(|&(n, v, u)| metric(n, v, u)).collect()),
        ),
        ("metrics", Json::Obj(metrics.to_vec())),
    ]);
    for &(name, value, unit) in &pass.extra {
        eprintln!("perfbench: {} {name} = {value} {unit}", args.workload);
    }
    let spans_path = crate::out_dir().join(format!("{stem}.jsonl"));
    let summary_path = crate::out_dir().join(format!("{stem}.summary.json"));
    if let Err(e) = std::fs::write(&spans_path, trace::to_jsonl(spans))
        .and_then(|()| std::fs::write(&summary_path, format!("{summary}\n")))
    {
        eprintln!("perfbench: could not write the trace: {e}");
    }
}
