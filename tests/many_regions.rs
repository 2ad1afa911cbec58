//! Schemas wider than one 64-bit word: an instance with more than 64 region
//! names runs through `top()`, canonical codes, store ingest, WAL recovery
//! and queries, so the multi-word `RegionSet` path is exercised end to end
//! (the benchmark schemas all fit in one word). Also pins `RegionSet`
//! equality: two sets are equal iff they have the same word count and the
//! same bits.

use topo_core::invariant::RegionSet;
use topo_core::spatial::transform::AffineMap;
use topo_core::store::persist::crc32;
use topo_core::{
    evaluate_direct, evaluate_on_invariant, top, InvariantStore, MemoryBackend, Region,
    SpatialInstance, StoreConfig, TopologicalQuery,
};

const REGIONS: usize = 72;

/// `REGIONS` overlapping squares on a 12-wide grid (every square overlaps
/// its right and upper neighbours), the first one with a hole, so cells
/// carry region ids from both words of every region set.
fn wide_instance() -> SpatialInstance {
    let regions = (0..REGIONS).map(|i| {
        let (x, y) = ((i % 12) as i64 * 100, (i / 12) as i64 * 100);
        let mut region = Region::rectangle(x, y, x + 150, y + 150);
        if i == 0 {
            region.add_ring(Region::rectangle(20, 20, 40, 40).rings.remove(0));
        }
        (format!("r{i}"), region)
    });
    SpatialInstance::from_regions(regions)
}

fn queries() -> Vec<TopologicalQuery> {
    use TopologicalQuery as Q;
    vec![
        Q::Intersects(0, 1),
        Q::Intersects(0, 71),
        Q::Intersects(70, 71),
        Q::Disjoint(3, 65),
        Q::Contains(64, 65),
        Q::InteriorsOverlap(63, 64),
        Q::BoundaryOnlyIntersection(0, 13),
        Q::IsConnected(66),
        Q::HasHole(0),
        Q::HasHole(67),
        Q::ComponentCountEven(71),
    ]
}

#[test]
fn wide_schema_runs_through_top_codes_store_and_recovery() {
    let instance = wide_instance();
    assert_eq!(instance.schema().len(), REGIONS);
    let invariant = top(&instance);
    let high: usize = (0..invariant.face_count())
        .filter(|&f| invariant.face_regions(f).iter().any(|r| r >= 64))
        .count();
    assert!(high > 0, "some face lies in a region with id >= 64");
    for f in 0..invariant.face_count() {
        assert!(invariant.face_regions(f).iter().all(|r| r < REGIONS));
    }

    // Canonical codes see every region: a rotated copy is isomorphic, and
    // swapping the geometry of regions 0 and 65 is not.
    let rotated = top(&AffineMap::rotation90().apply_instance(&instance));
    assert_eq!(invariant.canonical_code(), rotated.canonical_code());
    let mut swapped = instance.clone();
    let (a, b) = (instance.region(65).clone(), instance.region(0).clone());
    swapped.set_region(0, a);
    swapped.set_region(65, b);
    assert!(!top(&swapped).is_isomorphic_to(&invariant));

    let expected: Vec<bool> = queries().iter().map(|q| evaluate_direct(q, &instance)).collect();
    for (q, want) in queries().iter().zip(&expected) {
        assert_eq!(evaluate_on_invariant(q, &invariant), *want, "{q:?} on top(I)");
    }

    let backend = MemoryBackend::new();
    let store = InvariantStore::open(StoreConfig::default(), backend.clone()).unwrap();
    let first = store.ingest(&instance);
    let copy = store.ingest(&AffineMap::rotation90().apply_instance(&instance));
    let other = store.ingest(&swapped);
    assert_eq!(store.class_of(first), store.class_of(copy));
    assert_ne!(store.class_of(first), store.class_of(other));

    // The WAL stream of this store is part of the frozen format.
    let wal = backend.wal_bytes();
    assert_eq!((wal.len(), crc32(&wal)), (95_860, 3_057_541_261));

    let recovered = InvariantStore::open(StoreConfig::default(), backend.clone()).unwrap();
    assert_eq!(recovered.classes(), store.classes());
    let rep = recovered.class_representative(recovered.class_of(first).unwrap()).unwrap();
    assert_eq!(rep.canonical_code(), invariant.canonical_code());
    for (q, want) in queries().iter().zip(&expected) {
        assert_eq!(recovered.query(first, q), Some(*want), "{q:?} after WAL recovery");
        assert_eq!(recovered.query(copy, q), Some(*want), "{q:?} on the copy");
    }

    recovered.checkpoint().unwrap();
    let reopened = InvariantStore::open(StoreConfig::default(), backend).unwrap();
    assert_eq!(reopened.classes(), store.classes());
    for (q, want) in queries().iter().zip(&expected) {
        assert_eq!(reopened.query(first, q), Some(*want), "{q:?} after snapshot reopen");
    }
}

#[test]
fn region_set_equality_is_word_count_and_bits() {
    // Empty sets of different word counts differ; same word count agrees.
    assert_ne!(RegionSet::new(0), RegionSet::new(5));
    assert_eq!(RegionSet::new(5), RegionSet::new(64));
    assert_ne!(RegionSet::new(64), RegionSet::new(65));
    assert_eq!(RegionSet::new(65), RegionSet::new(128));
    assert_eq!(RegionSet::default(), RegionSet::new(0));
    assert!(RegionSet::new(0).is_empty() && RegionSet::new(200).is_empty());

    let mut a = RegionSet::new(70);
    let mut b = RegionSet::new(100);
    a.insert(3);
    a.insert(69);
    b.insert(69);
    b.insert(3);
    assert_eq!(a, b);
    assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 69]);
    b.remove(69);
    assert_ne!(a, b);
    b.remove(3);
    assert_eq!(b, RegionSet::new(128), "removing every member restores the empty set");
    assert!(!a.contains(500), "out-of-range lookups are simply absent");

    let mut narrow = RegionSet::new(9);
    narrow.insert(8);
    let mut wide = RegionSet::new(70);
    wide.insert(8);
    assert_ne!(narrow, wide, "same members, different word counts");
    assert_eq!(narrow.iter().collect::<Vec<_>>(), wide.iter().collect::<Vec<_>>());
}
