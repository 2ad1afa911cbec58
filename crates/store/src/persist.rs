//! Durability: a versioned, checksummed snapshot + write-ahead-log format
//! over a pluggable [`StorageBackend`], and the recovery path that rebuilds
//! an [`InvariantStore`] from it.
//!
//! # Format
//!
//! Everything on disk is built from one framing primitive:
//!
//! ```text
//! record := [payload_len: u32 LE] [payload] [crc32(payload): u32 LE]
//! ```
//!
//! The **WAL** is a plain concatenation of records, one per mutating
//! operation, appended *inside* the store's write-lock critical section so
//! WAL order is exactly id-assignment order. Payloads are tagged:
//!
//! ```text
//! ingest := 0x01, seq: u64, id: u64, class: u64, code_hash: u64,
//!           new_class: u8, [invariant (only when new_class = 1)]
//! remove := 0x02, seq: u64, id: u64
//! update := 0x03, seq: u64, id: u64, class: u64, code_hash: u64,
//!           new_class: u8, [invariant (only when new_class = 1)]
//! ```
//!
//! `ingest` and `update` share one *class record* layout, written by one
//! encoder and read by one decoder: instance `id` joins `class`, opening it
//! when `new_class = 1`. A batch ingest writes exactly the records the
//! same ingests one at a time would write, in one backend append.
//!
//! The **snapshot** is a magic + version header (`"TSNP"`, version 1)
//! followed by a single framed record holding the full live state: the next
//! WAL sequence number, the slot counts (so dead ids stay dead after
//! recovery), every live class `(class, code_hash, invariant)` and every
//! live instance `(id, class)`. Invariants are serialised field by field in
//! the [`topo_invariant::InvariantParts`] layout, and each class record carries its
//! already-computed [`CodeHash`] — **recovery never re-canonicalises**.
//!
//! # Recovery contract
//!
//! [`InvariantStore::open`] loads the snapshot (a corrupt snapshot is a hard
//! [`PersistError::Corrupt`] — it is the base state, there is nothing to
//! fall back to), then replays WAL records in order, skipping records whose
//! `seq` predates the snapshot (they are already folded in, which makes a
//! crash *between* snapshot write and WAL reset harmless). A WAL tail that
//! is torn (incomplete frame) or fails its checksum is **truncated, never
//! trusted**: replay stops there and the event is counted in
//! [`StoreStats::wal_truncations`](crate::StoreStats::wal_truncations).
//! Because every record was appended under the store's write locks, any
//! surviving prefix of the WAL is a prefix of real operation history — which
//! is exactly the property the fault-injection suite checks recovered
//! stores against.
//!
//! Replay and snapshot load change the tables through the same transitions
//! as the live store (open a class, attach an instance, detach it), and
//! reject as corrupt any checksum-valid input the live store could not have
//! written: a record that opens a class other than the next class id, an
//! ingest that skips an instance id, a placement into a dead class, or a
//! snapshot whose class or instance ids are not strictly ascending.
//!
//! # Durability vs. availability
//!
//! A WAL append that fails at the backend does **not** fail the in-memory
//! operation: the store keeps serving and counts the miss in
//! [`StoreStats::wal_errors`](crate::StoreStats::wal_errors). Callers that
//! need hard durability watch that counter (or checkpoint and verify). This
//! is a deliberate availability-over-durability stance; the fault suite
//! pins down what is and is not guaranteed after such a failure.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use topo_invariant::{CodeHash, InvariantParts, TopologicalInvariant};
use topo_spatial::Schema;

use crate::{
    read_recover, ClassId, ClassTable, InstanceId, InstanceTable, InvariantStore, StoreConfig,
};

/// Magic bytes opening a snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"TSNP";
/// Current snapshot/WAL format version.
pub const FORMAT_VERSION: u32 = 1;

pub(crate) const TAG_INGEST: u8 = 0x01;
const TAG_REMOVE: u8 = 0x02;
pub(crate) const TAG_UPDATE: u8 = 0x03;

// ---------------------------------------------------------------------------
// checksum

/// CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8: `CRC_TABLES[0]`
/// is the classic byte table, and `CRC_TABLES[k][b]` is the CRC register
/// contribution of byte `b` followed by `k` zero bytes. All eight tables are
/// built at compile time, so the hot loop folds eight bytes per step with
/// eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 checksum of a byte slice (IEEE polynomial).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(8);
    for block in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        let hi = u32::from_le_bytes([block[4], block[5], block[6], block[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// errors

/// Failure of a persistence operation.
#[derive(Debug)]
pub enum PersistError {
    /// The storage backend failed.
    Io(io::Error),
    /// Stored bytes exist but do not decode: bad magic, unsupported
    /// version, checksum mismatch on the snapshot, or an impossible record
    /// (e.g. a WAL record referencing a class that was never created).
    Corrupt(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "storage backend error: {e}"),
            PersistError::Corrupt(why) => write!(f, "corrupt persistent state: {why}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// storage backends

/// The five operations the persistence layer needs from storage. Small on
/// purpose: a backend stores two byte streams (one snapshot, one
/// append-only log) and promises nothing about partial-write atomicity —
/// the framing layer's checksums own torn-write detection.
pub trait StorageBackend: Send + Sync {
    /// The current snapshot, or `None` if none was ever written.
    fn read_snapshot(&self) -> io::Result<Option<Vec<u8>>>;
    /// Atomically replaces the snapshot (all-or-nothing per call).
    fn write_snapshot(&self, bytes: &[u8]) -> io::Result<()>;
    /// The entire WAL contents (empty if none).
    fn read_wal(&self) -> io::Result<Vec<u8>>;
    /// Appends bytes to the WAL.
    fn append_wal(&self, bytes: &[u8]) -> io::Result<()>;
    /// Empties the WAL (after its effects were folded into a snapshot).
    fn reset_wal(&self) -> io::Result<()>;
}

/// An in-memory [`StorageBackend`]: two mutex-guarded byte buffers. Shared
/// by `Arc` between a store and the test that later "recovers" from it —
/// the durable medium that survives a simulated crash.
#[derive(Default)]
pub struct MemoryBackend {
    snapshot: Mutex<Option<Vec<u8>>>,
    wal: Mutex<Vec<u8>>,
}

impl MemoryBackend {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Test hook: the raw WAL bytes as currently stored.
    pub fn wal_bytes(&self) -> Vec<u8> {
        self.wal.lock().expect("wal buffer lock").clone()
    }

    /// Test hook: overwrite the raw WAL bytes (to hand-craft corruption).
    pub fn set_wal_bytes(&self, bytes: Vec<u8>) {
        *self.wal.lock().expect("wal buffer lock") = bytes;
    }

    /// Test hook: the raw snapshot bytes, if any.
    pub fn snapshot_bytes(&self) -> Option<Vec<u8>> {
        self.snapshot.lock().expect("snapshot buffer lock").clone()
    }

    /// Test hook: overwrite the raw snapshot bytes.
    pub fn set_snapshot_bytes(&self, bytes: Option<Vec<u8>>) {
        *self.snapshot.lock().expect("snapshot buffer lock") = bytes;
    }
}

impl StorageBackend for MemoryBackend {
    fn read_snapshot(&self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.snapshot.lock().expect("snapshot buffer lock").clone())
    }

    fn write_snapshot(&self, bytes: &[u8]) -> io::Result<()> {
        *self.snapshot.lock().expect("snapshot buffer lock") = Some(bytes.to_vec());
        Ok(())
    }

    fn read_wal(&self) -> io::Result<Vec<u8>> {
        Ok(self.wal.lock().expect("wal buffer lock").clone())
    }

    fn append_wal(&self, bytes: &[u8]) -> io::Result<()> {
        self.wal.lock().expect("wal buffer lock").extend_from_slice(bytes);
        Ok(())
    }

    fn reset_wal(&self) -> io::Result<()> {
        self.wal.lock().expect("wal buffer lock").clear();
        Ok(())
    }
}

/// A real-file [`StorageBackend`]: `snapshot.bin` and `wal.bin` inside one
/// directory. Snapshot replacement is write-to-temp, file sync, rename
/// (atomic on POSIX), then a sync of the directory so the rename itself
/// survives an OS crash; WAL appends open the file in append mode per call, which keeps
/// the backend stateless and crash-simple at the cost of an open per
/// record — fine for this workload, and the bench stage measures it.
pub struct FileBackend {
    dir: PathBuf,
    snapshot_path: PathBuf,
    snapshot_tmp: PathBuf,
    wal_path: PathBuf,
}

impl FileBackend {
    /// Opens (creating if needed) a storage directory.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(FileBackend {
            snapshot_path: dir.join("snapshot.bin"),
            snapshot_tmp: dir.join("snapshot.tmp"),
            wal_path: dir.join("wal.bin"),
            dir,
        })
    }
}

impl StorageBackend for FileBackend {
    fn read_snapshot(&self) -> io::Result<Option<Vec<u8>>> {
        match fs::read(&self.snapshot_path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn write_snapshot(&self, bytes: &[u8]) -> io::Result<()> {
        {
            let mut tmp = fs::File::create(&self.snapshot_tmp)?;
            tmp.write_all(bytes)?;
            tmp.sync_all()?;
        }
        fs::rename(&self.snapshot_tmp, &self.snapshot_path)?;
        // The rename is a change to the directory, not to either file.
        fs::File::open(&self.dir)?.sync_all()
    }

    fn read_wal(&self) -> io::Result<Vec<u8>> {
        match fs::read(&self.wal_path) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    fn append_wal(&self, bytes: &[u8]) -> io::Result<()> {
        let mut file = fs::OpenOptions::new().create(true).append(true).open(&self.wal_path)?;
        file.write_all(bytes)
    }

    fn reset_wal(&self) -> io::Result<()> {
        fs::write(&self.wal_path, [])
    }
}

// ---------------------------------------------------------------------------
// encoding primitives

pub(crate) struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize32(&mut self, v: usize) {
        self.u32(u32::try_from(v).expect("cell/region index exceeds u32 range"));
    }

    fn bytes(&mut self, v: &[u8]) {
        self.usize32(v.len());
        self.buf.extend_from_slice(v);
    }
}

pub(crate) struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    fn corrupt(what: &str) -> PersistError {
        PersistError::Corrupt(format!("truncated or invalid field: {what}"))
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).ok_or_else(|| Self::corrupt(what))?;
        if end > self.bytes.len() {
            return Err(Self::corrupt(what));
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, PersistError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn usize32(&mut self, what: &str) -> Result<usize, PersistError> {
        Ok(self.u32(what)? as usize)
    }

    fn bytes(&mut self, what: &str) -> Result<&'a [u8], PersistError> {
        let len = self.usize32(what)?;
        self.take(len, what)
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Frames a payload: `[len][payload][crc32]`.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Result of pulling one frame off a byte stream.
enum Frame<'a> {
    /// A complete, checksum-valid payload plus the remaining stream.
    Ok(&'a [u8], &'a [u8]),
    /// The stream is exhausted.
    End,
    /// The tail is torn or corrupt (incomplete frame or bad checksum).
    Torn,
}

fn next_frame(stream: &[u8]) -> Frame<'_> {
    if stream.is_empty() {
        return Frame::End;
    }
    if stream.len() < 4 {
        return Frame::Torn;
    }
    let len = u32::from_le_bytes(stream[..4].try_into().unwrap()) as usize;
    let Some(total) = len.checked_add(8) else { return Frame::Torn };
    if stream.len() < total {
        return Frame::Torn;
    }
    let payload = &stream[4..4 + len];
    let stored = u32::from_le_bytes(stream[4 + len..total].try_into().unwrap());
    if crc32(payload) != stored {
        return Frame::Torn;
    }
    Frame::Ok(payload, &stream[total..])
}

// ---------------------------------------------------------------------------
// invariant (de)serialisation

fn encode_region_set(enc: &mut Enc, set: &topo_invariant::RegionSet) {
    enc.usize32(set.iter().count());
    for m in set.iter() {
        enc.usize32(m);
    }
}

fn decode_region_set(
    dec: &mut Dec<'_>,
    region_count: usize,
) -> Result<topo_invariant::RegionSet, PersistError> {
    let mut set = topo_invariant::RegionSet::new(region_count);
    let n = dec.usize32("region set size")?;
    for _ in 0..n {
        let region = dec.usize32("region id")?;
        if region >= region_count {
            return Err(PersistError::Corrupt(format!(
                "region id {region} out of range (schema has {region_count})"
            )));
        }
        set.insert(region);
    }
    Ok(set)
}

fn encode_opt_usize(enc: &mut Enc, v: Option<usize>) {
    match v {
        None => enc.u8(0),
        Some(x) => {
            enc.u8(1);
            enc.usize32(x);
        }
    }
}

fn decode_opt_usize(dec: &mut Dec<'_>, what: &str) -> Result<Option<usize>, PersistError> {
    match dec.u8(what)? {
        0 => Ok(None),
        1 => Ok(Some(dec.usize32(what)?)),
        other => Err(PersistError::Corrupt(format!("bad option tag {other} in {what}"))),
    }
}

/// Serialises an invariant field by field in its [`InvariantParts`] layout,
/// reading the stored fields through borrowed accessors (no intermediate
/// copy of the invariant).
pub(crate) fn encode_invariant(enc: &mut Enc, invariant: &TopologicalInvariant) {
    enc.usize32(invariant.schema().len());
    for (_, name) in invariant.schema().iter() {
        enc.bytes(name.as_bytes());
    }
    enc.usize32(invariant.vertex_count());
    for v in 0..invariant.vertex_count() {
        let slots = invariant.vertex_slots(v);
        enc.usize32(slots.len());
        for &(edge, end) in slots {
            enc.usize32(edge);
            enc.u8(end);
        }
        let sectors = invariant.vertex_sector_faces(v);
        enc.usize32(sectors.len());
        for &face in sectors {
            enc.usize32(face);
        }
        encode_opt_usize(enc, invariant.stored_isolated_face(v));
        encode_region_set(enc, invariant.vertex_regions(v));
        encode_region_set(enc, invariant.vertex_boundary_regions(v));
    }
    enc.usize32(invariant.edge_count());
    for e in 0..invariant.edge_count() {
        match invariant.edge_endpoints(e) {
            None => enc.u8(0),
            Some((a, b)) => {
                enc.u8(1);
                enc.usize32(a);
                enc.usize32(b);
            }
        }
        let (left, right) = invariant.edge_faces(e);
        enc.usize32(left);
        enc.usize32(right);
        encode_region_set(enc, invariant.edge_regions(e));
        encode_region_set(enc, invariant.edge_boundary_regions(e));
    }
    enc.usize32(invariant.face_count());
    for f in 0..invariant.face_count() {
        encode_region_set(enc, invariant.face_regions(f));
    }
    enc.usize32(invariant.exterior_face());
}

/// Deserialises an invariant; structural validation happens in
/// [`TopologicalInvariant::from_parts`], so garbage that happens to pass
/// the checksum still cannot build an inconsistent invariant.
pub(crate) fn decode_invariant(dec: &mut Dec<'_>) -> Result<TopologicalInvariant, PersistError> {
    let region_count = dec.usize32("schema size")?;
    let mut schema = Schema::new();
    for _ in 0..region_count {
        let raw = dec.bytes("region name")?;
        let name = std::str::from_utf8(raw)
            .map_err(|_| PersistError::Corrupt("region name is not UTF-8".into()))?;
        if schema.id(name).is_some() {
            return Err(PersistError::Corrupt(format!("duplicate region name {name:?}")));
        }
        schema.add(name);
    }

    let nv = dec.usize32("vertex count")?;
    let mut vertex_slots = Vec::with_capacity(nv.min(65_536));
    let mut vertex_sectors = Vec::with_capacity(nv.min(65_536));
    let mut vertex_isolated_face = Vec::with_capacity(nv.min(65_536));
    let mut vertex_regions = Vec::with_capacity(nv.min(65_536));
    let mut vertex_boundary = Vec::with_capacity(nv.min(65_536));
    for _ in 0..nv {
        let slots = dec.usize32("vertex slot count")?;
        let mut vslots = Vec::with_capacity(slots.min(65_536));
        for _ in 0..slots {
            let edge = dec.usize32("slot edge")?;
            let end = dec.u8("slot end")?;
            vslots.push((edge, end));
        }
        vertex_slots.push(vslots);
        let sectors = dec.usize32("vertex sector count")?;
        let mut vsectors = Vec::with_capacity(sectors.min(65_536));
        for _ in 0..sectors {
            vsectors.push(dec.usize32("sector face")?);
        }
        vertex_sectors.push(vsectors);
        vertex_isolated_face.push(decode_opt_usize(dec, "isolated face")?);
        vertex_regions.push(decode_region_set(dec, region_count)?);
        vertex_boundary.push(decode_region_set(dec, region_count)?);
    }

    let ne = dec.usize32("edge count")?;
    let mut edge_ends = Vec::with_capacity(ne.min(65_536));
    let mut edge_sides = Vec::with_capacity(ne.min(65_536));
    let mut edge_regions = Vec::with_capacity(ne.min(65_536));
    let mut edge_boundary = Vec::with_capacity(ne.min(65_536));
    for _ in 0..ne {
        edge_ends.push(match dec.u8("edge ends tag")? {
            0 => None,
            1 => Some((dec.usize32("edge end a")?, dec.usize32("edge end b")?)),
            other => {
                return Err(PersistError::Corrupt(format!("bad edge-ends tag {other}")));
            }
        });
        edge_sides.push((dec.usize32("edge left face")?, dec.usize32("edge right face")?));
        edge_regions.push(decode_region_set(dec, region_count)?);
        edge_boundary.push(decode_region_set(dec, region_count)?);
    }

    let nf = dec.usize32("face count")?;
    let mut face_regions = Vec::with_capacity(nf.min(65_536));
    for _ in 0..nf {
        face_regions.push(decode_region_set(dec, region_count)?);
    }
    let exterior_face = dec.usize32("exterior face")?;

    TopologicalInvariant::from_parts(InvariantParts {
        schema,
        vertex_slots,
        vertex_sectors,
        vertex_isolated_face,
        vertex_regions,
        vertex_boundary,
        edge_ends,
        edge_sides,
        edge_regions,
        edge_boundary,
        face_regions,
        exterior_face,
    })
    .map_err(PersistError::Corrupt)
}

// ---------------------------------------------------------------------------
// persistence state + store integration

/// The store's handle on its durable medium: the backend, the WAL sequence
/// counter (next seq to assign), and the sticky broken flag.
pub(crate) struct Persistence {
    pub(crate) backend: Arc<dyn StorageBackend>,
    pub(crate) seq: AtomicU64,
    /// Set on the first failed WAL append and never cleared: once a record
    /// is lost the log stops growing entirely, so the durable WAL is always
    /// a *prefix* of operation history — a gap would make every later
    /// record unreplayable. Each skipped append still counts in
    /// [`StoreStats::wal_errors`](crate::StoreStats::wal_errors), and a
    /// successful [`InvariantStore::checkpoint`] re-arms the log (the
    /// snapshot captures everything the WAL missed).
    pub(crate) broken: std::sync::atomic::AtomicBool,
}

impl InvariantStore {
    /// Opens (or recovers) a persistent store over a backend: loads the
    /// snapshot if one exists, replays the surviving WAL prefix, and keeps
    /// logging subsequent mutations to the same backend.
    ///
    /// See the [module docs](crate::persist) for the exact recovery
    /// contract (seq skipping, torn-tail truncation, corrupt-snapshot
    /// failure).
    pub fn open(
        config: StoreConfig,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self, PersistError> {
        let mut store = Self::try_new(config)
            .map_err(|e| PersistError::Corrupt(format!("invalid StoreConfig: {e}")))?;

        let mut classes = ClassTable::default();
        let mut instances = InstanceTable::default();
        let mut next_seq = 0u64;

        if let Some(snapshot) = backend.read_snapshot()? {
            next_seq = decode_snapshot(&snapshot, &mut classes, &mut instances)?;
        }
        let snapshot_seq = next_seq;

        let wal = backend.read_wal()?;
        let mut stream: &[u8] = &wal;
        loop {
            match next_frame(stream) {
                Frame::End => break,
                Frame::Torn => {
                    store.counters.wal_truncations.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Frame::Ok(payload, rest) => {
                    stream = rest;
                    apply_wal_record(
                        payload,
                        snapshot_seq,
                        &mut next_seq,
                        &mut classes,
                        &mut instances,
                        &store.counters,
                    )?;
                }
            }
        }

        store.classes = std::sync::RwLock::new(classes);
        store.instances = std::sync::RwLock::new(instances);
        store.persistence = Some(Persistence {
            backend,
            seq: AtomicU64::new(next_seq),
            broken: std::sync::atomic::AtomicBool::new(false),
        });
        Ok(store)
    }

    /// Writes a snapshot of the current live state and resets the WAL. Safe
    /// against a crash at any point: the snapshot replaces its predecessor
    /// atomically, and WAL records older than the snapshot's seq are
    /// skipped on replay even if the reset never happened.
    ///
    /// No-op `Ok` on a store that was not opened over a backend.
    pub fn checkpoint(&self) -> Result<(), PersistError> {
        let Some(persistence) = &self.persistence else { return Ok(()) };
        // Read-locking both tables (in the classes → instances order) blocks
        // every mutator, so the state and `seq` are a consistent cut.
        let classes = read_recover(&self.classes, &self.counters);
        let instances = read_recover(&self.instances, &self.counters);
        let seq = persistence.seq.load(Ordering::SeqCst);
        let snapshot = encode_snapshot(seq, &classes, &instances);
        persistence.backend.write_snapshot(&snapshot)?;
        persistence.backend.reset_wal()?;
        // The snapshot captured everything — including operations a broken
        // WAL had missed — so logging can safely resume.
        persistence.broken.store(false, Ordering::SeqCst);
        self.counters.snapshots.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// True iff the store logs to a storage backend.
    pub fn is_persistent(&self) -> bool {
        self.persistence.is_some()
    }

    /// Logs one `tag` class record per `(id, class, new_class)` placement,
    /// after the tables took it: `classes` holds each hash and opened
    /// representative.
    pub(crate) fn wal_place(
        &self,
        tag: u8,
        classes: &ClassTable,
        records: &[(InstanceId, ClassId, bool)],
    ) {
        self.wal_append(records, |enc, seq, &(id, class, new_class)| {
            let opened = new_class
                .then(|| classes.reps[class].as_deref().expect("new class has a representative"));
            encode_class_record(enc, tag, seq, id, class, classes.hashes[class], opened);
        });
    }

    /// Logs a removal record; called with the write locks held.
    pub(crate) fn wal_remove(&self, id: InstanceId) {
        self.wal_append(&[id], |enc, seq, &id| {
            enc.u8(TAG_REMOVE);
            enc.u64(seq);
            enc.u64(id as u64);
        });
    }

    /// The one WAL append routine, called with the write locks held so seq
    /// order is id order. Each record takes the next seq and its own frame,
    /// and all frames go to the backend in **one** write. A failure is
    /// counted per record, not propagated (see the module docs), and
    /// freezes the log; a frozen log still consumes its records' seqs.
    fn wal_append<R>(&self, records: &[R], encode: impl Fn(&mut Enc, u64, &R)) {
        let Some(persistence) = &self.persistence else { return };
        if records.is_empty() {
            return;
        }
        let count = records.len() as u64;
        let first = persistence.seq.fetch_add(count, Ordering::SeqCst);
        if persistence.broken.load(Ordering::SeqCst) {
            self.counters.wal_errors.fetch_add(count, Ordering::Relaxed);
            return;
        }
        let mut buf = Vec::new();
        let mut enc = Enc::new();
        for (seq, record) in (first..).zip(records) {
            enc.buf.clear();
            encode(&mut enc, seq, record);
            buf.extend_from_slice(&frame(&enc.buf));
        }
        let counter = match persistence.backend.append_wal(&buf) {
            Ok(()) => &self.counters.wal_appends,
            Err(_) => {
                persistence.broken.store(true, Ordering::SeqCst);
                &self.counters.wal_errors
            }
        };
        counter.fetch_add(count, Ordering::Relaxed);
    }
}

/// The one class-record encoder, shared by ingest and update:
/// `tag, seq, id, class, code_hash, new_class, [invariant]`, where `opened`
/// is the representative of the class the record opens, if it opens one.
pub(crate) fn encode_class_record(
    enc: &mut Enc,
    tag: u8,
    seq: u64,
    id: InstanceId,
    class: ClassId,
    hash: CodeHash,
    opened: Option<&TopologicalInvariant>,
) {
    enc.u8(tag);
    enc.u64(seq);
    enc.u64(id as u64);
    enc.u64(class as u64);
    enc.u64(hash.as_u64());
    enc.u8(opened.is_some() as u8);
    if let Some(rep) = opened {
        encode_invariant(enc, rep);
    }
}

/// A decoded class record: `(id, class, code_hash, opened representative)`.
type ClassRecord = (InstanceId, ClassId, CodeHash, Option<TopologicalInvariant>);

/// The one class-record decoder, reading the fields after `tag, seq`.
fn decode_class_record(dec: &mut Dec<'_>) -> Result<ClassRecord, PersistError> {
    let id = dec.u64("wal record id")? as usize;
    let class = dec.u64("wal record class")? as usize;
    let hash = CodeHash::from_u64(dec.u64("wal record hash")?);
    let opened = match dec.u8("wal new-class flag")? {
        0 => None,
        1 => Some(decode_invariant(dec)?),
        other => return Err(PersistError::Corrupt(format!("bad new-class flag {other}"))),
    };
    Ok((id, class, hash, opened))
}

fn encode_snapshot(seq: u64, classes: &ClassTable, instances: &InstanceTable) -> Vec<u8> {
    let mut body = Enc::new();
    body.u64(seq);
    body.u64(classes.reps.len() as u64);
    body.u64(instances.slots.len() as u64);
    body.u64(classes.live as u64);
    for (class, rep) in classes.reps.iter().enumerate() {
        let Some(rep) = rep else { continue };
        body.u64(class as u64);
        body.u64(classes.hashes[class].as_u64());
        encode_invariant(&mut body, rep);
    }
    body.u64(instances.live as u64);
    for (id, slot) in instances.slots.iter().enumerate() {
        let Some(class) = slot else { continue };
        body.u64(id as u64);
        body.u64(*class as u64);
    }

    let mut out = Vec::new();
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&frame(&body.buf));
    out
}

fn decode_snapshot(
    bytes: &[u8],
    classes: &mut ClassTable,
    instances: &mut InstanceTable,
) -> Result<u64, PersistError> {
    if bytes.len() < 8 || bytes[..4] != SNAPSHOT_MAGIC {
        return Err(PersistError::Corrupt("snapshot magic mismatch".into()));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(PersistError::Corrupt(format!(
            "unsupported snapshot version {version} (expected {FORMAT_VERSION})"
        )));
    }
    let Frame::Ok(body, rest) = next_frame(&bytes[8..]) else {
        return Err(PersistError::Corrupt("snapshot body torn or checksum mismatch".into()));
    };
    if !rest.is_empty() {
        return Err(PersistError::Corrupt("trailing bytes after snapshot body".into()));
    }

    let mut dec = Dec::new(body);
    let seq = dec.u64("snapshot seq")?;
    let class_slots = dec.u64("class slot count")?;
    let instance_slots = dec.u64("instance slot count")?;
    // Every class and instance id was assigned by a mutation, and every
    // mutation consumed one sequence number, so no table can be longer than
    // `seq`. Checked before anything is sized by a count from disk.
    if class_slots.max(instance_slots) > seq {
        return Err(PersistError::Corrupt(format!(
            "slot counts {class_slots}/{instance_slots} exceed snapshot seq {seq}"
        )));
    }
    let class_slots = usize::try_from(class_slots).unwrap_or(usize::MAX);
    let instance_slots = usize::try_from(instance_slots).unwrap_or(usize::MAX);

    // `encode_snapshot` lists classes and instances in ascending id order,
    // so each id must lie above the last one loaded: a repeated or
    // out-of-order id is corrupt, never a second placement.
    let live_classes = dec.u64("live class count")?;
    for _ in 0..live_classes {
        let class = dec.u64("class id")? as usize;
        if class < classes.reps.len() || class >= class_slots {
            return Err(PersistError::Corrupt(format!(
                "class id {class} out of order or out of range"
            )));
        }
        let hash = CodeHash::from_u64(dec.u64("class code hash")?);
        let invariant = decode_invariant(&mut dec)?;
        classes.retire_to(class)?;
        classes.open(hash, Arc::new(invariant));
    }
    classes.retire_to(class_slots)?;

    let live_instances = dec.u64("live instance count")?;
    for _ in 0..live_instances {
        let id = dec.u64("instance id")? as usize;
        let class = dec.u64("instance class")? as usize;
        if id < instances.slots.len() || id >= instance_slots {
            return Err(PersistError::Corrupt(format!(
                "instance id {id} out of order or out of range"
            )));
        }
        if !classes.is_live(class) {
            return Err(PersistError::Corrupt(format!(
                "instance {id} references dead or unknown class {class}"
            )));
        }
        instances.retire_to(id)?;
        classes.attach(instances, id, class);
    }
    instances.retire_to(instance_slots)?;
    if !dec.done() {
        return Err(PersistError::Corrupt("trailing bytes inside snapshot body".into()));
    }
    Ok(seq)
}

/// Applies one checksum-valid WAL payload to the recovering tables;
/// records predating the snapshot seq are skipped.
fn apply_wal_record(
    payload: &[u8],
    snapshot_seq: u64,
    next_seq: &mut u64,
    classes: &mut ClassTable,
    instances: &mut InstanceTable,
    counters: &crate::Counters,
) -> Result<(), PersistError> {
    let mut dec = Dec::new(payload);
    let tag = dec.u8("wal record tag")?;
    let seq = dec.u64("wal record seq")?;
    match tag {
        TAG_INGEST | TAG_UPDATE => {
            let record = decode_class_record(&mut dec)?;
            if seq < snapshot_seq {
                // Already folded into the snapshot (a crash landed between
                // snapshot write and WAL reset).
                return Ok(());
            }
            replay_placement(tag == TAG_UPDATE, record, classes, instances, counters)?;
        }
        TAG_REMOVE => {
            let id = dec.u64("wal remove id")? as usize;
            if seq < snapshot_seq {
                return Ok(());
            }
            let Some((_, collected)) = classes.detach(instances, id) else {
                return Err(PersistError::Corrupt(format!(
                    "wal removes unknown or already-removed instance {id}"
                )));
            };
            counters.removals.fetch_add(1, Ordering::Relaxed);
            if collected {
                counters.gc_classes.fetch_add(1, Ordering::Relaxed);
            }
        }
        other => {
            return Err(PersistError::Corrupt(format!("unknown wal record tag {other:#x}")));
        }
    }
    counters.replayed_records.fetch_add(1, Ordering::Relaxed);
    *next_seq = (*next_seq).max(seq + 1);
    Ok(())
}

/// Replays a class record through the transitions the live ingest or
/// update took. A record the live store could not have written is corrupt:
/// an ingest must take the next instance id, a new class the next class id,
/// and any other placement a live class.
fn replay_placement(
    update: bool,
    (id, class, hash, opened): ClassRecord,
    classes: &mut ClassTable,
    instances: &mut InstanceTable,
    counters: &crate::Counters,
) -> Result<(), PersistError> {
    if update {
        let Some(current) = instances.slots.get(id).copied().flatten() else {
            return Err(PersistError::Corrupt(format!(
                "wal updates unknown or removed instance {id}"
            )));
        };
        counters.updates.fetch_add(1, Ordering::Relaxed);
        if current == class && opened.is_none() {
            return Ok(()); // a no-op update
        }
        if classes.detach(instances, id).is_some_and(|(_, collected)| collected) {
            counters.gc_classes.fetch_add(1, Ordering::Relaxed);
        }
    } else if id != instances.slots.len() {
        return Err(PersistError::Corrupt(format!(
            "wal ingest id {id} is not dense (next slot is {})",
            instances.slots.len()
        )));
    }
    match opened {
        Some(rep) if class == classes.reps.len() => {
            classes.open(hash, Arc::new(rep));
        }
        Some(_) => {
            return Err(PersistError::Corrupt(format!(
                "wal opens class {class}, but the next class id is {}",
                classes.reps.len()
            )));
        }
        None if !classes.is_live(class) => {
            return Err(PersistError::Corrupt(format!(
                "wal places {id} in dead or unknown class {class}"
            )));
        }
        None => {}
    }
    classes.attach(instances, id, class);
    Ok(())
}

#[cfg(test)]
mod persist_tests {
    use super::*;
    use topo_invariant::top;
    use topo_spatial::{Region, SpatialInstance};

    /// Two non-isomorphic invariants: one disk, and two disjoint disks.
    fn disk_and_pair() -> (Arc<TopologicalInvariant>, Arc<TopologicalInvariant>) {
        let disk = SpatialInstance::from_regions([("a", Region::rectangle(0, 0, 10, 10))]);
        let pair = SpatialInstance::from_regions([
            ("a", Region::rectangle(0, 0, 10, 10)),
            ("b", Region::rectangle(20, 0, 30, 10)),
        ]);
        (Arc::new(top(&disk)), Arc::new(top(&pair)))
    }

    fn logged_store() -> (InvariantStore, Arc<MemoryBackend>) {
        let backend = MemoryBackend::new();
        (InvariantStore::open(StoreConfig::default(), backend.clone()).unwrap(), backend)
    }

    /// A class record payload built with the store's own encoder.
    fn class_record(
        tag: u8,
        seq: u64,
        id: InstanceId,
        class: ClassId,
        rep: &TopologicalInvariant,
        new_class: bool,
    ) -> Vec<u8> {
        let mut enc = Enc::new();
        encode_class_record(
            &mut enc,
            tag,
            seq,
            id,
            class,
            rep.code_hash(),
            new_class.then_some(rep),
        );
        enc.buf
    }

    /// Reopens `backend` with `payload` appended to its WAL as one frame.
    fn reopen_with(
        backend: &Arc<MemoryBackend>,
        payload: &[u8],
    ) -> Result<InvariantStore, PersistError> {
        let copy = MemoryBackend::new();
        copy.set_snapshot_bytes(backend.snapshot_bytes());
        copy.set_wal_bytes([backend.wal_bytes(), frame(payload)].concat());
        InvariantStore::open(StoreConfig::default(), copy)
    }

    /// A snapshot listing `classes` and `instances` verbatim, in the layout
    /// `encode_snapshot` writes, over 4 class and 4 instance slots.
    fn forged_snapshot(
        classes: &[(u64, &TopologicalInvariant)],
        instances: &[(u64, u64)],
    ) -> Vec<u8> {
        let mut body = Enc::new();
        for word in [8, 4, 4, classes.len() as u64] {
            body.u64(word);
        }
        for &(class, rep) in classes {
            body.u64(class);
            body.u64(rep.code_hash().as_u64());
            encode_invariant(&mut body, rep);
        }
        body.u64(instances.len() as u64);
        for &(id, class) in instances {
            body.u64(id);
            body.u64(class);
        }
        [&SNAPSHOT_MAGIC[..], &FORMAT_VERSION.to_le_bytes(), &frame(&body.buf)].concat()
    }

    fn open_snapshot(snapshot: Vec<u8>) -> Result<InvariantStore, PersistError> {
        let backend = MemoryBackend::new();
        backend.set_snapshot_bytes(Some(snapshot));
        InvariantStore::open(StoreConfig::default(), backend)
    }

    #[test]
    fn replay_opens_only_the_next_class_id() {
        let (disk, pair) = disk_and_pair();
        let (store, backend) = logged_store();
        store.ingest_invariant(disk); // id 0, class 0
        store.ingest_invariant(pair.clone()); // id 1, class 1
        assert!(store.remove_instance(1)); // collects class 1
                                           // Instance 2 opening the collected class 1 would reuse a class id.
        let reused = class_record(TAG_INGEST, 3, 2, 1, &pair, true);
        assert!(matches!(reopen_with(&backend, &reused), Err(PersistError::Corrupt(_))));
        // The record the live store writes opens class 2.
        let next = class_record(TAG_INGEST, 3, 2, 2, &pair, true);
        let reopened = reopen_with(&backend, &next).unwrap();
        assert_eq!(reopened.class_of(2), Some(2));
        assert_eq!(reopened.class_count(), 2);
    }

    #[test]
    fn replay_rejects_a_no_op_update_that_opens_a_class() {
        let (disk, _) = disk_and_pair();
        let (store, backend) = logged_store();
        store.ingest_invariant(disk.clone()); // id 0, class 0
                                              // An update to the instance's own class opens nothing; a record
                                              // that claims to would silently drop its invariant.
        let opening = class_record(TAG_UPDATE, 1, 0, 0, &disk, true);
        assert!(matches!(reopen_with(&backend, &opening), Err(PersistError::Corrupt(_))));
        let no_op = class_record(TAG_UPDATE, 1, 0, 0, &disk, false);
        let reopened = reopen_with(&backend, &no_op).unwrap();
        assert_eq!(reopened.class_members(0), Some(vec![0]));
        assert_eq!(reopened.stats().updates, 1);
    }

    #[test]
    fn snapshot_instance_ids_must_ascend() {
        let (disk, _) = disk_and_pair();
        let store = open_snapshot(forged_snapshot(&[(0, &disk)], &[(0, 0), (2, 0)])).unwrap();
        assert_eq!(store.instance_count(), 2);
        assert_eq!(store.class_members(0), Some(vec![0, 2]));
        for repeated_or_descending in [[(0, 0), (0, 0)], [(2, 0), (0, 0)]] {
            let snapshot = forged_snapshot(&[(0, &disk)], &repeated_or_descending);
            assert!(matches!(open_snapshot(snapshot), Err(PersistError::Corrupt(_))));
        }
    }

    #[test]
    fn snapshot_class_ids_must_ascend() {
        let (disk, pair) = disk_and_pair();
        let store =
            open_snapshot(forged_snapshot(&[(1, &disk), (3, &pair)], &[(0, 1), (1, 3)])).unwrap();
        assert_eq!(store.class_count(), 2);
        assert_eq!(store.classes(), vec![vec![0], vec![1]]);
        let repeated = forged_snapshot(&[(0, &disk), (0, &disk)], &[(0, 0)]);
        assert!(matches!(open_snapshot(repeated), Err(PersistError::Corrupt(_))));
        let descending = forged_snapshot(&[(3, &pair), (1, &disk)], &[(0, 1), (1, 3)]);
        assert!(matches!(open_snapshot(descending), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip_and_torn_detection() {
        let framed = frame(b"hello");
        match next_frame(&framed) {
            Frame::Ok(payload, rest) => {
                assert_eq!(payload, b"hello");
                assert!(rest.is_empty());
            }
            _ => panic!("expected a clean frame"),
        }
        // A torn tail (half a record) is detected, not decoded.
        assert!(matches!(next_frame(&framed[..framed.len() - 3]), Frame::Torn));
        // A flipped payload bit fails the checksum.
        let mut bad = framed.clone();
        bad[5] ^= 0x40;
        assert!(matches!(next_frame(&bad), Frame::Torn));
        assert!(matches!(next_frame(&[]), Frame::End));
    }
}
