//! Many regions meeting at one vertex: `N` triangular wedges share the
//! origin as a common apex, and neighbouring wedges share a spoke through an
//! integer rim point, so the origin becomes one arrangement vertex of degree
//! `N`. This is the worst case for the per-vertex rotation sort and for the
//! canonical sweep's start choices at one vertex.
//!
//! For `N ≤ 16` the optimised `top()` is compared with the frozen
//! `top_naive` reference (cell counts and canonical code). At `N = 256` the
//! instance is ingested into a `FileBackend` store, recovered from disk, and
//! the recovered answers are checked against the live store and against
//! `evaluate_on_invariant`.
//!
//! Known limit: the N = 256 case never calls `to_structure`, whose
//! `Orientation` export is cubic in the cone size of a vertex (the origin's
//! cone has 512 cells, about 1.3 · 10⁸ tuples). For the same reason its store runs with the memo disabled:
//! memo fills answer through the goal-directed Datalog programs, which read
//! that export, while the memo-less path evaluates natively.

use std::sync::Arc;
use topo_core::{
    canonical_code_naive, evaluate_direct, evaluate_on_invariant, top, top_naive, FileBackend,
    InvariantStore, Point, Region, SpatialInstance, StoreConfig, TopologicalQuery,
};

/// Half the side of the square the rim points lie on.
const HALF_SIDE: i64 = 1_000_000;

/// Rim point `i` of `n`: evenly spaced (rounded down to integers) along the
/// perimeter of the square `[-HALF_SIDE, HALF_SIDE]²`, counterclockwise from
/// its lower-right corner, so consecutive rim points turn less than half a
/// turn around the origin for every `n ≥ 3`.
fn rim_point(i: usize, n: usize) -> Point {
    let side = 2 * HALF_SIDE;
    let s = (i as i64 * 4 * side) / n as i64;
    let t = s % side;
    let m = HALF_SIDE;
    match s / side {
        0 => Point::from_ints(m, -m + t),
        1 => Point::from_ints(m - t, m),
        2 => Point::from_ints(-m, m - t),
        _ => Point::from_ints(-m + t, -m),
    }
}

/// `n` wedge regions `w0..w{n-1}`: wedge `i` is the triangle spanned by the
/// origin and rim points `i` and `i + 1` (cyclically).
fn wedges(n: usize) -> SpatialInstance {
    let origin = Point::from_ints(0, 0);
    SpatialInstance::from_regions((0..n).map(|i| {
        let ring = vec![origin, rim_point(i, n), rim_point((i + 1) % n, n)];
        (format!("w{i}"), Region::polygon(ring))
    }))
}

fn queries(n: usize) -> Vec<TopologicalQuery> {
    use TopologicalQuery as Q;
    let opposite = n / 2;
    vec![
        Q::Intersects(0, 1),
        Q::Intersects(0, opposite),
        Q::Disjoint(0, opposite),
        Q::BoundaryOnlyIntersection(0, 1),
        Q::BoundaryOnlyIntersection(0, opposite),
        Q::InteriorsOverlap(0, 1),
        Q::Contains(0, 1),
        Q::Equal(1, 2),
        Q::IsConnected(opposite),
        Q::ComponentCountEven(n - 1),
        Q::HasHole(0),
    ]
}

#[test]
fn origin_vertex_has_degree_n() {
    for n in [3, 8, 16, 256] {
        let invariant = top(&wedges(n));
        let max_degree = (0..invariant.vertex_count()).map(|v| invariant.degree(v)).max();
        assert_eq!(max_degree, Some(n), "n = {n}");
        // Origin + n rim points; n spokes + n rim edges; n wedges + exterior.
        assert_eq!(invariant.vertex_count(), n + 1, "n = {n}");
        assert_eq!(invariant.edge_count(), 2 * n, "n = {n}");
        assert_eq!(invariant.face_count(), n + 1, "n = {n}");
    }
}

#[test]
fn small_fans_match_the_naive_reference() {
    for n in 3..=16 {
        let instance = wedges(n);
        let fast = top(&instance);
        let naive = top_naive(&instance);
        assert_eq!(fast.vertex_count(), naive.vertex_count(), "n = {n}: vertices");
        assert_eq!(fast.edge_count(), naive.edge_count(), "n = {n}: edges");
        assert_eq!(fast.face_count(), naive.face_count(), "n = {n}: faces");
        assert_eq!(fast.canonical_code(), naive.canonical_code(), "n = {n}: code");
        assert_eq!(
            canonical_code_naive(&fast),
            canonical_code_naive(&naive),
            "n = {n}: frozen reference code"
        );
        for q in queries(n) {
            assert_eq!(
                evaluate_on_invariant(&q, &fast),
                evaluate_direct(&q, &instance),
                "n = {n}: {q:?}"
            );
        }
    }
}

#[test]
fn fan_of_256_survives_file_store_recovery() {
    const N: usize = 256;
    let instance = wedges(N);
    let invariant = top(&instance);
    let expected: Vec<bool> =
        queries(N).iter().map(|q| evaluate_on_invariant(q, &invariant)).collect();
    // Every wedge touches every other one at the origin, and only there or
    // along a shared spoke.
    assert_eq!(expected, [true, true, false, true, true, false, false, false, true, false, false]);

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("high_degree_vertex");
    let _ = std::fs::remove_dir_all(&dir);
    let config = StoreConfig { memo_capacity: 0, ..StoreConfig::default() };
    let live = InvariantStore::open(config, Arc::new(FileBackend::new(&dir).unwrap())).unwrap();
    let id = live.ingest(&instance);
    let recovered =
        InvariantStore::open(config, Arc::new(FileBackend::new(&dir).unwrap())).unwrap();
    assert_eq!(recovered.classes(), live.classes());
    let rep = recovered.class_representative(recovered.class_of(id).unwrap()).unwrap();
    assert_eq!(rep.code_hash(), invariant.code_hash());
    for (q, want) in queries(N).iter().zip(&expected) {
        assert_eq!(live.query(id, q), Some(*want), "{q:?} on the live store");
        assert_eq!(recovered.query(id, q), Some(*want), "{q:?} after recovery");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
