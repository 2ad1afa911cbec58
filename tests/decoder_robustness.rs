//! Recovery must survive arbitrary bytes that pass the checksum: payload
//! bytes of a small store's snapshot and WAL records are mutated, re-framed
//! with a correct CRC-32, and handed to `InvariantStore::open`. The outcome
//! must be `Ok` or `Err` — never a panic — and a store that opens must
//! answer queries, report its classes, checkpoint and reopen without
//! panicking either, and its tables must agree with each other before and
//! after that reopen (see `assert_tables_agree`). Every class
//! representative of an opened store is also driven through every public
//! accessor that walks the stored cells (cones, face boundaries, boundary
//! walks, half-edge steps, the relational export): input that would make
//! one of them panic must already be an `Err` from
//! `TopologicalInvariant::from_parts`.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use topo_core::datagen::{figure1, nested_rings, scattered_islands, sequoia_hydro, Scale};
use topo_core::store::persist::crc32;
use topo_core::{
    top, InvariantStore, MemoryBackend, StoreConfig, TopologicalInvariant, TopologicalQuery,
};

use proptest::prelude::*;

/// Frames a payload exactly as the store does: `[len][payload][crc32]`.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Splits a stream of frames into payloads.
fn payloads(mut stream: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    while !stream.is_empty() {
        let len = u32::from_le_bytes(stream[..4].try_into().unwrap()) as usize;
        out.push(stream[4..4 + len].to_vec());
        stream = &stream[len + 8..];
    }
    out
}

/// The durable state of a small store: the snapshot header, the snapshot
/// body payload, and the payloads of the WAL records written after it.
struct Durable {
    header: Vec<u8>,
    snapshot: Vec<u8>,
    wal: Vec<Vec<u8>>,
}

fn durable_state() -> &'static Durable {
    static STATE: OnceLock<Durable> = OnceLock::new();
    STATE.get_or_init(build_durable_state)
}

fn build_durable_state() -> Durable {
    let pool: Vec<Arc<TopologicalInvariant>> =
        [figure1(), nested_rings(2, 2), scattered_islands(3), sequoia_hydro(Scale { grid: 3 }, 2)]
            .iter()
            .map(|i| Arc::new(top(i)))
            .collect();
    let backend = MemoryBackend::new();
    let store = InvariantStore::open(StoreConfig::default(), backend.clone()).unwrap();
    store.ingest_invariant(pool[0].clone());
    store.ingest_invariant(pool[1].clone());
    store.ingest_invariant(pool[0].clone());
    store.remove_instance(1);
    store.checkpoint().unwrap();
    store.ingest_invariant(pool[2].clone());
    store.ingest_invariant(pool[3].clone());
    store.update_instance(0, pool[1].clone());
    store.remove_instance(2);
    store.ingest_invariant(pool[2].clone());
    let snapshot = backend.snapshot_bytes().unwrap();
    Durable {
        header: snapshot[..8].to_vec(),
        snapshot: payloads(&snapshot[8..]).remove(0),
        wal: payloads(&backend.wal_bytes()),
    }
}

/// One payload mutation: `(kind, position, value)`.
type Mutation = (u8, usize, u64);

/// Applies a mutation to a payload. Kinds: overwrite one byte, flip one
/// bit, or overwrite a little-endian `u32` with a small count or an
/// extreme value (the shapes that turn into out-of-range indices and
/// lengths).
fn mutate(payload: &mut [u8], (kind, position, value): Mutation) {
    if payload.is_empty() {
        return;
    }
    let at = position % payload.len();
    match kind % 3 {
        0 => payload[at] = value as u8,
        1 => payload[at] ^= 1 << (value % 8),
        _ => {
            let word: u32 = match value % 4 {
                0 => (value >> 8) as u32 % 16,
                1 => u32::MAX - (value >> 8) as u32 % 4,
                2 => 1 << ((value >> 8) % 32),
                _ => (value >> 8) as u32,
            };
            for (i, b) in word.to_le_bytes().iter().enumerate() {
                if let Some(slot) = payload.get_mut(at + i) {
                    *slot = *b;
                }
            }
        }
    }
}

/// The snapshot body's seq and the larger of its two declared slot counts.
fn declared_slots(body: &[u8]) -> (u64, u64) {
    let word =
        |at: usize| body.get(at..at + 8).map_or(0, |b| u64::from_le_bytes(b.try_into().unwrap()));
    (word(0), word(8).max(word(16)))
}

fn queries() -> Vec<TopologicalQuery> {
    use TopologicalQuery as Q;
    vec![
        Q::Intersects(0, 1),
        Q::Contains(0, 1),
        Q::BoundaryOnlyIntersection(0, 1),
        Q::InteriorsOverlap(0, 1),
        Q::IsConnected(0),
        Q::ComponentCountEven(0),
        Q::HasHole(0),
    ]
}

/// Runs every cell-walking accessor of a recovered invariant over every
/// cell it applies to.
fn exercise_accessors(inv: &TopologicalInvariant) {
    for v in 0..inv.vertex_count() {
        let _ = inv.cone(v);
    }
    for f in 0..inv.face_count() {
        let _ = inv.face_edges(f);
        let _ = inv.face_vertices(f);
        let _ = inv.boundary_components(f);
    }
    for e in (0..inv.edge_count()).filter(|&e| inv.edge_endpoints(e).is_some()) {
        for direction in [0, 1] {
            let _ = inv.half_edge_left_face(e, direction);
            let _ = inv.next_half_edge(e, direction);
        }
    }
    let _ = inv.to_structure();
}

/// Asserts that an opened store's tables agree with each other, checking
/// every instance and class id below `slots`: the live instance count is
/// the number of ids with a class, each live class's member list is
/// strictly ascending and names exactly the ids whose class it is, no id
/// points at a dead class, and the live class count is the number of
/// classes with a representative.
fn assert_tables_agree(store: &InvariantStore, slots: usize) {
    let mut by_class: HashMap<usize, Vec<usize>> = HashMap::new();
    for id in 0..slots {
        if let Some(class) = store.class_of(id) {
            by_class.entry(class).or_default().push(id);
        }
    }
    assert_eq!(store.instance_count(), by_class.values().map(Vec::len).sum::<usize>());
    let mut live = 0;
    for class in 0..slots {
        let Some(members) = store.class_members(class) else { continue };
        assert!(store.class_representative(class).is_some(), "class {class} has no representative");
        assert!(members.windows(2).all(|w| w[0] < w[1]), "members of {class}: {members:?}");
        assert_eq!(members, by_class.remove(&class).unwrap_or_default(), "members of {class}");
        live += 1;
    }
    assert!(by_class.is_empty(), "instances in dead classes: {by_class:?}");
    assert_eq!(store.class_count(), live);
}

/// Opens a store over the given durable bytes; if it opens, drives it
/// through reads, a checkpoint and a reopen, checking that its tables agree
/// before the checkpoint and after the reopen. Returns whether it opened.
fn open_and_exercise(snapshot: Vec<u8>, wal: Vec<u8>) -> bool {
    // Every id lies below the snapshot's slot counts plus one per WAL
    // record (an ingest or a new class takes exactly the next id).
    let body = &snapshot[12..snapshot.len() - 4];
    let slots = declared_slots(body).1 as usize + payloads(&wal).len();
    let backend = MemoryBackend::new();
    backend.set_snapshot_bytes(Some(snapshot));
    backend.set_wal_bytes(wal);
    let Ok(store) = InvariantStore::open(StoreConfig::default(), backend.clone()) else {
        return false;
    };
    assert_tables_agree(&store, slots);
    let classes = store.classes();
    for class in 0..classes.len() + 2 {
        if let Some(rep) = store.class_representative(class) {
            let _ = rep.code_hash();
            exercise_accessors(&rep);
        }
    }
    for id in 0..store.instance_count() + 3 {
        for q in &queries() {
            let _ = store.query(id, q);
        }
    }
    store.checkpoint().expect("memory backend never fails");
    let reopened = InvariantStore::open(StoreConfig::default(), backend)
        .expect("a checkpoint of an opened store reopens");
    assert_eq!(reopened.classes(), classes);
    assert_tables_agree(&reopened, slots);
    true
}

fn strategy() -> impl Strategy<Value = (usize, Vec<Mutation>)> {
    (0usize..64, proptest::collection::vec((0u8..3, 0usize..1 << 20, 0u64..u64::MAX), 1..5))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mutating the snapshot body or one WAL record never panics recovery.
    #[test]
    fn mutated_checksum_valid_bytes_never_panic((target, mutations) in strategy()) {
        let durable = durable_state();
        // One case in three mutates the snapshot body, the rest one WAL record.
        let mut snapshot_body = durable.snapshot.clone();
        let mut wal = durable.wal.clone();
        let payload = if target % 3 == 0 {
            &mut snapshot_body
        } else {
            let n = wal.len();
            &mut wal[target % n]
        };
        for &m in &mutations {
            mutate(payload, m);
        }
        // A slot count the decoder accepts (at most the snapshot's seq) is a
        // legitimate request for that many table slots; the property does
        // not spend gigabytes honouring one.
        let (seq, slots) = declared_slots(&snapshot_body);
        prop_assume!(slots > seq || slots <= 1 << 20);
        let mut snapshot = durable.header.clone();
        snapshot.extend_from_slice(&frame(&snapshot_body));
        let wal: Vec<u8> = wal.iter().flat_map(|p| frame(p)).collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| open_and_exercise(snapshot, wal)));
        prop_assert!(outcome.is_ok(), "recovery panicked on mutations {:?} of target {}", mutations, target);
    }
}

#[test]
fn oversized_slot_counts_are_corrupt() {
    let durable = durable_state();
    let seq = u64::from_le_bytes(durable.snapshot[..8].try_into().unwrap());
    for (at, count) in [(8, seq + 1), (16, seq + 1), (8, u64::MAX), (16, u64::MAX)] {
        let mut body = durable.snapshot.clone();
        body[at..at + 8].copy_from_slice(&count.to_le_bytes());
        let mut snapshot = durable.header.clone();
        snapshot.extend_from_slice(&frame(&body));
        assert!(!open_and_exercise(snapshot, Vec::new()), "slot count {count} at {at}");
    }
    // Counts up to the seq are within the format (dead ids keep their slots).
    let mut body = durable.snapshot.clone();
    body[..8].copy_from_slice(&1_000u64.to_le_bytes());
    body[16..24].copy_from_slice(&1_000u64.to_le_bytes());
    let mut snapshot = durable.header.clone();
    snapshot.extend_from_slice(&frame(&body));
    assert!(open_and_exercise(snapshot, Vec::new()));
}

#[test]
fn unmutated_state_recovers() {
    let durable = durable_state();
    let mut snapshot = durable.header.clone();
    snapshot.extend_from_slice(&frame(&durable.snapshot));
    let wal: Vec<u8> = durable.wal.iter().flat_map(|p| frame(p)).collect();
    assert!(open_and_exercise(snapshot, wal));
}
