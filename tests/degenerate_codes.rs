//! Golden canonical codes of degenerate components: the Lemma 3.1 special
//! cases that have no proper edge (an edge between two distinct vertices).
//! Such components skip the streamed sweep and are serialised from an
//! enumerated ordering instead; these hashes pin that serialiser bit for
//! bit.
//!
//! Each shape also asserts its component structure, so a change to
//! construction or reduction that stopped routing it through the degenerate
//! path fails here instead of silently pinning a different serialiser.

use topo_core::{top, Point, Region, Schema, SpatialInstance, TopologicalInvariant};

fn p(x: i64, y: i64) -> Point {
    Point::from_ints(x, y)
}

fn one_region(region: Region) -> SpatialInstance {
    let mut instance = SpatialInstance::new(Schema::from_names(["P"]));
    instance.set_region(0, region);
    instance
}

/// `petals` triangles of one region that meet only at their common apex,
/// the origin.
fn flower(petals: usize) -> SpatialInstance {
    let tips = [[(100, 10), (100, -10)], [(-10, 100), (10, 100)], [(-100, -10), (-100, 10)]];
    let mut region = Region::new();
    for [(ax, ay), (bx, by)] in &tips[..petals] {
        region.add_ring(vec![p(0, 0), p(*ax, *ay), p(*bx, *by)]);
    }
    one_region(region)
}

/// `(vertices, closed curves, loops)` per component, in component order.
/// Panics on a proper edge, which would route the component through the
/// streamed sweep instead.
fn degenerate_shape(inv: &TopologicalInvariant) -> Vec<(usize, usize, usize)> {
    inv.components()
        .iter()
        .map(|c| {
            let (mut closed, mut loops) = (0, 0);
            for &e in &c.edges {
                match inv.edge_endpoints(e) {
                    None => closed += 1,
                    Some((a, b)) if a == b => loops += 1,
                    Some(_) => panic!("edge {e} is a proper edge"),
                }
            }
            (c.vertices.len(), closed, loops)
        })
        .collect()
}

/// Asserts the component structure first, so a hash mismatch always means
/// the serialiser changed, not the shape.
fn assert_code(
    label: &str,
    instance: &SpatialInstance,
    shape: &[(usize, usize, usize)],
    hash: u64,
) {
    let inv = top(instance);
    assert_eq!(degenerate_shape(&inv), shape, "{label}: component structure");
    assert_eq!(inv.code_hash().as_u64(), hash, "{label}: canonical code hash");
}

#[test]
fn lone_point() {
    let instance = one_region(Region::point_set(vec![p(5, 5)]));
    assert_code("lone point", &instance, &[(1, 0, 0)], 0xbc27_30eb_8c73_f121);
}

#[test]
fn rectangle_is_a_vertex_free_closed_curve() {
    let instance = one_region(Region::rectangle(0, 0, 50, 50));
    assert_code("rectangle", &instance, &[(0, 1, 0)], 0x97f3_2b90_09ac_79dc);
}

#[test]
fn nested_rectangles() {
    let mut region = Region::rectangle(0, 0, 100, 100);
    region.add_ring(vec![p(20, 20), p(80, 20), p(80, 80), p(20, 80)]);
    let shape = [(0, 1, 0), (0, 1, 0)];
    assert_code("nested rectangles", &one_region(region), &shape, 0xa810_fc92_0f3f_1a9d);
}

#[test]
fn flowers_are_loop_only_vertices() {
    assert_code("2-petal flower", &flower(2), &[(1, 0, 2)], 0x7b37_6d07_8edf_a5ed);
    assert_code("3-petal flower", &flower(3), &[(1, 0, 3)], 0xd1fa_5de2_8d86_b68c);
}
