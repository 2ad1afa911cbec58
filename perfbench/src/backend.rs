//! A benchmark-side [`StorageBackend`] that wraps the store's
//! [`FileBackend`], puts every call in a `persist.*` span and counts the
//! bytes that reach the files. End-to-end runs use the bare `FileBackend`.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use topo_core::store::{FileBackend, StorageBackend};
use topo_core::{InvariantStore, StoreConfig};

use crate::trace::{self, span};

pub struct TracedBackend {
    inner: FileBackend,
    pub appends: AtomicU64,
    pub append_bytes: AtomicU64,
    pub snapshot_bytes: AtomicU64,
}

impl StorageBackend for TracedBackend {
    fn read_snapshot(&self) -> io::Result<Option<Vec<u8>>> {
        span("persist.read_snapshot", || self.inner.read_snapshot())
    }

    fn write_snapshot(&self, bytes: &[u8]) -> io::Result<()> {
        self.snapshot_bytes.store(bytes.len() as u64, Ordering::Relaxed);
        span("persist.write_snapshot", || self.inner.write_snapshot(bytes))
    }

    fn read_wal(&self) -> io::Result<Vec<u8>> {
        span("persist.read_wal", || self.inner.read_wal())
    }

    fn append_wal(&self, bytes: &[u8]) -> io::Result<()> {
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.append_bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        span("persist.append", || self.inner.append_wal(bytes))
    }

    fn reset_wal(&self) -> io::Result<()> {
        span("persist.reset_wal", || self.inner.reset_wal())
    }
}

/// Opens (or recovers) the store in `dir` with the default configuration,
/// inside the span `name`: over the bare `FileBackend`, or over the traced
/// wrapper when tracing is on (returned too, for its byte counts). Also
/// returns how long the open took, in milliseconds.
pub fn open_store(
    dir: &Path,
    name: &'static str,
) -> (InvariantStore, Option<Arc<TracedBackend>>, f64) {
    let inner = FileBackend::new(dir).expect("open FileBackend directory");
    let (backend, traced): (Arc<dyn StorageBackend>, _) = if trace::enabled() {
        let wrapped = Arc::new(TracedBackend {
            inner,
            appends: AtomicU64::new(0),
            append_bytes: AtomicU64::new(0),
            snapshot_bytes: AtomicU64::new(0),
        });
        (wrapped.clone(), Some(wrapped))
    } else {
        (Arc::new(inner), None)
    };
    let start = Instant::now();
    let store = span(name, || InvariantStore::open(StoreConfig::default(), backend))
        .expect("open the store over its files");
    (store, traced, start.elapsed().as_secs_f64() * 1e3)
}
