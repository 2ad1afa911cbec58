//! The library calls the benchmark makes, each in the span of its layer.
//!
//! [`cold_build`] calls, in order, the public functions `top(I)` and
//! `InvariantStore::ingest` compose, so the traced run can attribute
//! construction time layer by layer; [`probe_fill`] repeats what a memo
//! fill runs on a class representative; [`query`] tells memo hits from
//! fills by the store's miss counter.

use std::sync::Arc;
use std::time::Instant;

use topo_core::arrangement::build_arrangement;
use topo_core::invariant::construct::classify_arrangement;
use topo_core::{
    datalog_program, evaluate_on_invariant, program_structure, InstanceId, InvariantStore,
    Semantics, SpatialInstance, TopologicalInvariant, TopologicalQuery,
};

use crate::trace::{self, span, span_id};

/// `top(I)` and its first canonical code, one span per layer. Equal to
/// `Arc::new(top(instance))` followed by `canonical_code()`.
pub fn cold_build(instance: &SpatialInstance) -> Arc<TopologicalInvariant> {
    span("invariant.cold_build", || {
        let input = span("spatial.lower", || instance.to_arrangement_input());
        let arrangement = span("arrangement.build", || build_arrangement(&input));
        let mut complex =
            span("invariant.classify", || classify_arrangement(instance, &input, &arrangement));
        span("invariant.reduce", || complex.reduce());
        let invariant = span("invariant.freeze", || {
            TopologicalInvariant::from_complex(&complex, instance.schema().clone())
        });
        span("canonical.first", || invariant.code_hash());
        Arc::new(invariant)
    })
}

/// One admission-checked `InvariantStore::ingest` (`None` if refused): the
/// plain call untraced, the same steps through [`cold_build`] and
/// `try_ingest_invariant` traced.
pub fn ingest(store: &InvariantStore, instance: &SpatialInstance) -> Option<InstanceId> {
    if !trace::enabled() {
        return store.try_ingest(instance).id();
    }
    let invariant = cold_build(instance);
    span("store.admit", || store.try_ingest_invariant(invariant)).id()
}

/// One `InvariantStore::query` as the operation `op`, with its latency in
/// milliseconds. Traced, its span is named `store.hit` or `store.fill` after
/// whether the store counted a memo miss meanwhile; the counters are read
/// outside the timed operation.
pub fn query(
    store: &InvariantStore,
    id: InstanceId,
    q: &TopologicalQuery,
    op: &'static str,
) -> (Option<bool>, f64) {
    if !trace::enabled() {
        let t = Instant::now();
        let answer = store.query(id, q);
        return (answer, t.elapsed().as_secs_f64() * 1e3);
    }
    let misses = store.stats().memo_misses;
    let t = Instant::now();
    let (answer, sid) = trace::op(op, || span_id("store.query", || store.query(id, q)));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let filled = store.stats().memo_misses > misses;
    trace::rename(sid, if filled { "store.fill" } else { "store.hit" });
    (answer, ms)
}

/// Span name of the goal-directed run of one query kind.
fn run_goal_span(q: &TopologicalQuery) -> &'static str {
    match q {
        TopologicalQuery::Intersects(..) => "relational.run_goal.Intersects",
        TopologicalQuery::Disjoint(..) => "relational.run_goal.Disjoint",
        TopologicalQuery::Contains(..) => "relational.run_goal.Contains",
        TopologicalQuery::IsConnected(..) => "relational.run_goal.IsConnected",
        TopologicalQuery::HasHole(..) => "relational.run_goal.HasHole",
        _ => "relational.run_goal.other",
    }
}

/// Repeats the work of one memo fill on a class representative, one span
/// per step: the program's input structure and its goal-directed run, or the
/// native algorithm for a query without a program.
pub fn probe_fill(representative: &TopologicalInvariant, q: &TopologicalQuery) -> bool {
    trace::op("probe.fill", || match datalog_program(q, representative.schema()) {
        Some(program) => {
            let structure = span("queries.structure", || program_structure(representative));
            span(run_goal_span(q), || program.run_goal_boolean(&structure, Semantics::Stratified))
        }
        None => span("queries.native", || evaluate_on_invariant(q, representative)),
    })
}
