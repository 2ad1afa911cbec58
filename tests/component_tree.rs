//! The linear-time component tree is pinned to the quadratic construction
//! it replaced: component ids, vertex/edge membership, `parent_face`,
//! `depth` and `face_owner` must come out identical, both from a fresh
//! build (`from_complex`) and from a thaw of stored parts (`from_parts`).
//!
//! `frozen_tree` below is a line-by-line port of the former
//! `compute_components` + `compute_component_tree` onto the public
//! accessors: union-find with a `HashMap` from root to component id, one
//! `HashSet` of components per face, and a level-order walk that scans
//! every face for each dequeued component.

use std::collections::{HashMap, HashSet, VecDeque};
use topo_core::datagen::{
    figure1, ign_city, nested_rings, scattered_islands, sequoia_hydro, sequoia_landcover, Scale,
};
use topo_core::{top, TopologicalInvariant};

/// Everything the component tree determines, in comparable form.
#[derive(Debug, PartialEq, Eq)]
struct Tree {
    /// Per component: vertices, edges, parent face, depth.
    components: Vec<(Vec<usize>, Vec<usize>, usize, usize)>,
    component_of_vertex: Vec<usize>,
    component_of_edge: Vec<usize>,
    face_owner: Vec<Option<usize>>,
}

fn observed_tree(inv: &TopologicalInvariant) -> Tree {
    Tree {
        components: inv
            .components()
            .iter()
            .map(|c| (c.vertices.clone(), c.edges.clone(), c.parent_face, c.depth))
            .collect(),
        component_of_vertex: (0..inv.vertex_count()).map(|v| inv.component_of_vertex(v)).collect(),
        component_of_edge: (0..inv.edge_count()).map(|e| inv.component_of_edge(e)).collect(),
        face_owner: (0..inv.face_count()).map(|f| inv.face_owner(f)).collect(),
    }
}

/// The former quadratic construction, frozen.
fn frozen_tree(inv: &TopologicalInvariant) -> Tree {
    let nv = inv.vertex_count();
    let ne = inv.edge_count();
    let mut parent: Vec<usize> = (0..nv + ne).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut root = x;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = x;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    for e in 0..ne {
        if let Some((a, b)) = inv.edge_endpoints(e) {
            for v in [a, b] {
                let (x, y) = (find(&mut parent, v), find(&mut parent, nv + e));
                if x != y {
                    parent[x] = y;
                }
            }
        }
    }
    let mut component_ids: HashMap<usize, usize> = HashMap::new();
    let mut components: Vec<(Vec<usize>, Vec<usize>, usize, usize)> = Vec::new();
    let mut component_of_vertex = vec![0; nv];
    let mut component_of_edge = vec![0; ne];
    for (v, comp) in component_of_vertex.iter_mut().enumerate() {
        let root = find(&mut parent, v);
        let id = *component_ids.entry(root).or_insert_with(|| {
            components.push(Default::default());
            components.len() - 1
        });
        components[id].0.push(v);
        *comp = id;
    }
    for (e, comp) in component_of_edge.iter_mut().enumerate() {
        let root = find(&mut parent, nv + e);
        let id = *component_ids.entry(root).or_insert_with(|| {
            components.push(Default::default());
            components.len() - 1
        });
        components[id].1.push(e);
        *comp = id;
    }

    let face_count = inv.face_count();
    let exterior = inv.exterior_face();
    let mut face_components: Vec<HashSet<usize>> = vec![HashSet::new(); face_count];
    for (e, &c) in component_of_edge.iter().enumerate() {
        let (a, b) = inv.edge_faces(e);
        face_components[a].insert(c);
        face_components[b].insert(c);
    }
    for (v, &c) in component_of_vertex.iter().enumerate() {
        for &f in inv.vertex_sector_faces(v) {
            face_components[f].insert(c);
        }
        if let Some(f) = inv.isolated_vertex_face(v) {
            face_components[f].insert(c);
        }
    }
    let mut face_owner: Vec<Option<usize>> = vec![None; face_count];
    let mut component_assigned = vec![false; components.len()];
    let mut queue: VecDeque<(usize, usize, usize)> = VecDeque::new();
    for &c in &face_components[exterior] {
        if !component_assigned[c] {
            component_assigned[c] = true;
            queue.push_back((c, exterior, 0));
        }
    }
    while let Some((c, parent_face, depth)) = queue.pop_front() {
        components[c].2 = parent_face;
        components[c].3 = depth;
        let adjacent_faces: Vec<usize> =
            (0..face_count).filter(|&f| f != exterior && face_components[f].contains(&c)).collect();
        for f in adjacent_faces {
            if face_owner[f].is_some() {
                continue;
            }
            face_owner[f] = Some(c);
            for &child in &face_components[f] {
                if !component_assigned[child] {
                    component_assigned[child] = true;
                    queue.push_back((child, f, depth + 1));
                }
            }
        }
    }
    Tree { components, component_of_vertex, component_of_edge, face_owner }
}

fn assert_pinned(label: &str, inv: &TopologicalInvariant) {
    let want = frozen_tree(inv);
    assert_eq!(observed_tree(inv), want, "{label}: from_complex");
    let thawed = TopologicalInvariant::from_parts(inv.to_parts()).expect("valid parts");
    assert_eq!(observed_tree(&thawed), want, "{label}: from_parts");
}

#[test]
fn running_examples_match_the_frozen_tree() {
    assert_pinned("figure1", &top(&figure1()));
    for (levels, siblings) in [(1, 1), (3, 2), (4, 3), (6, 1)] {
        assert_pinned(
            &format!("nested_rings({levels}, {siblings})"),
            &top(&nested_rings(levels, siblings)),
        );
    }
    for count in [1, 2, 9] {
        assert_pinned(&format!("scattered_islands({count})"), &top(&scattered_islands(count)));
    }
}

#[test]
fn seeded_maps_match_the_frozen_tree() {
    for grid in [3, 5, 8, 12, 16, 24] {
        for seed in [1u64, 9] {
            let scale = Scale { grid };
            assert_pinned(
                &format!("landcover g{grid} s{seed}"),
                &top(&sequoia_landcover(scale, seed)),
            );
            assert_pinned(&format!("hydro g{grid} s{seed}"), &top(&sequoia_hydro(scale, seed)));
            assert_pinned(&format!("city g{grid} s{seed}"), &top(&ign_city(scale, seed)));
        }
    }
}
