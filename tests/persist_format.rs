//! The durable format is frozen: a fixed seeded store must serialise to
//! byte-identical WAL and snapshot streams, and the table-driven CRC-32 of
//! the framing layer must agree with a plain bitwise reference.
//!
//! The golden lengths and checksums below are the format-version-1 bytes
//! of that store. Any change to them is a format change and needs a
//! `FORMAT_VERSION` bump, not a new golden value.

use std::sync::Arc;
use topo_core::datagen::{
    figure1, ign_city, nested_rings, scattered_islands, sequoia_hydro, sequoia_landcover, Scale,
};
use topo_core::spatial::transform::AffineMap;
use topo_core::store::persist::{crc32, FORMAT_VERSION};
use topo_core::{top, InvariantStore, MemoryBackend, StoreConfig, TopologicalInvariant};

/// `(length, crc32)` of a byte stream.
fn digest(bytes: &[u8]) -> (usize, u32) {
    (bytes.len(), crc32(bytes))
}

/// Bitwise CRC-32 (IEEE 802.3, reflected): the definition, one bit at a
/// time, with no tables.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

fn golden_invariants() -> Vec<Arc<TopologicalInvariant>> {
    let scale = Scale { grid: 4 };
    let bases = [
        sequoia_landcover(scale, 3),
        sequoia_hydro(scale, 3),
        ign_city(scale, 3),
        figure1(),
        nested_rings(3, 2),
        scattered_islands(5),
    ];
    let mut out: Vec<Arc<TopologicalInvariant>> = bases.iter().map(|b| Arc::new(top(b))).collect();
    out.push(Arc::new(top(&AffineMap::rotation90().apply_instance(&bases[0]))));
    out.push(Arc::new(top(&AffineMap::translation(5_000, -70).apply_instance(&bases[4]))));
    out
}

/// Drives the fixed script and returns the three durable streams: the WAL
/// before the checkpoint, the snapshot, and the WAL after it.
fn golden_streams() -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    golden_script(|store, first_seven| {
        for invariant in &first_seven[..6] {
            store.ingest_invariant(invariant.clone());
        }
        store.ingest_invariant(first_seven[6].clone()); // copy of map 0
    })
}

/// The fixed script, with its first seven ingests made by `ingest`.
fn golden_script(
    ingest: impl FnOnce(&InvariantStore, &[Arc<TopologicalInvariant>]),
) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let pool = golden_invariants();
    let backend = MemoryBackend::new();
    let store = InvariantStore::open(StoreConfig::default(), backend.clone()).unwrap();
    ingest(&store, &pool[..7]);
    store.remove_instance(1); // collects the hydro class
    store.update_instance(2, pool[3].clone()); // city → figure1's class
    let wal_before = backend.wal_bytes();
    store.checkpoint().unwrap();
    let snapshot = backend.snapshot_bytes().expect("checkpoint wrote a snapshot");
    store.ingest_invariant(pool[7].clone()); // copy of nested rings
    store.ingest_invariant(pool[1].clone()); // hydro comes back as a new class
    store.update_instance(0, pool[2].clone()); // landcover → new city class
    store.remove_instance(4);
    (wal_before, snapshot, backend.wal_bytes())
}

#[test]
fn durable_streams_are_byte_identical_to_the_recorded_format() {
    assert_eq!(FORMAT_VERSION, 1);
    let (wal_before, snapshot, wal_after) = golden_streams();
    assert_eq!(digest(&wal_before), (14_624, 1_270_365_175), "WAL before checkpoint");
    assert_eq!(digest(&snapshot), (3_917, 3_053_135_030), "snapshot");
    assert_eq!(digest(&wal_after), (10_713, 1_446_944_662), "WAL after checkpoint");
}

/// A single ingest is a batch of one, and a batch writes the records its
/// ingests would write one at a time: the golden script with its first
/// seven ingests in one batch writes the golden bytes.
#[test]
fn one_batch_writes_the_same_streams_as_single_ingests() {
    let batched = golden_script(|store, first_seven| {
        let outcomes = store.try_ingest_invariant_batch(first_seven);
        let ids: Vec<_> = outcomes.iter().map(|outcome| outcome.id()).collect();
        assert_eq!(ids, (0..7).map(Some).collect::<Vec<_>>());
    });
    let (wal_before, snapshot, wal_after) = golden_streams();
    assert!(batched.0 == wal_before, "WAL before checkpoint");
    assert!(batched.1 == snapshot, "snapshot");
    assert!(batched.2 == wal_after, "WAL after checkpoint");
}

#[test]
fn crc32_matches_the_bitwise_definition() {
    // Every length across the 8-byte block boundary and the tail loop.
    let pattern: Vec<u8> = (0..72u32).map(|i| (i.wrapping_mul(151) ^ 0x5A) as u8).collect();
    for len in 0..=64 {
        for start in 0..8 {
            let slice = &pattern[start..start + len];
            assert_eq!(crc32(slice), crc32_bitwise(slice), "len {len}, start {start}");
        }
    }
    // Seeded random buffers of assorted lengths.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..64 {
        let len = (next() % 5_000) as usize;
        let buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
        assert_eq!(crc32(&buf), crc32_bitwise(&buf), "random buffer of {len} bytes");
    }
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}
