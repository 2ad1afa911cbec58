//! In-tree scoped thread pool for per-instance fan-out.
//!
//! The build environment has no crates.io access, so this crate provides the
//! one rayon-style primitive the system uses, on [`std::thread::scope`] alone
//! and entirely in safe Rust: [`Pool::par_map_collect`], a per-item map with
//! the output in item order, bit-identical to `items.iter().map(f).collect()`
//! by construction.
//!
//! Its one caller is the store's batch ingest, which builds and canonicalises
//! one whole instance per item. That is the only grain at which a fan-out
//! measured faster than the sequential loop; construction and
//! canonicalisation of a single instance are sequential.
//!
//! There is no work stealing and no persistent worker state: every call
//! spawns scoped threads that pull contiguous chunk indices from one atomic
//! counter and write results into per-chunk slots, so scheduling order can
//! never leak into the output. The calling thread participates as a worker.
//!
//! **Pool size.** [`Pool::global`] sizes itself from the `TOPO_THREADS`
//! environment variable (read once), falling back to
//! [`std::thread::available_parallelism`]; [`set_global_threads`] overrides
//! it at runtime (used by the determinism test sweeps and by services that
//! size the pool from their own config). At 1 thread the map is the plain
//! sequential loop on the calling thread — no spawns.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Upper bound on configurable pool sizes — far above any real machine, it
/// only guards against absurd `TOPO_THREADS` values spawning unbounded
/// threads.
const MAX_THREADS: usize = 1024;

/// Global pool size; `0` means "not yet initialised" (the first reader
/// resolves `TOPO_THREADS` / available parallelism).
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

fn clamp_threads(n: usize) -> usize {
    n.clamp(1, MAX_THREADS)
}

/// Pool size from the environment: `TOPO_THREADS` if set and parseable,
/// otherwise the scheduler-reported available parallelism (1 if unknown).
fn threads_from_env() -> usize {
    let configured = std::env::var("TOPO_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1);
    clamp_threads(
        configured.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
    )
}

/// Overrides the global pool size at runtime (clamped to `1..=1024`).
/// Takes effect for every subsequent [`Pool::global`] call; in-flight pool
/// operations are unaffected.
pub fn set_global_threads(n: usize) {
    GLOBAL_THREADS.store(clamp_threads(n), Ordering::SeqCst);
}

/// The global pool size ([`Pool::global`]`.threads()`).
pub fn global_threads() -> usize {
    Pool::global().threads()
}

/// A fixed-size scoped thread pool handle. Copyable and stateless: the only
/// state is the thread count, so handles can be passed by value and the
/// "pool" spins up scoped threads per call.
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of exactly `n` threads (clamped to `1..=1024`). At `n == 1`
    /// every operation is the plain sequential loop.
    pub fn with_threads(n: usize) -> Self {
        Pool { threads: clamp_threads(n) }
    }

    /// The process-global pool: sized by [`set_global_threads`] if called,
    /// else `TOPO_THREADS`, else available parallelism.
    pub fn global() -> Self {
        let mut n = GLOBAL_THREADS.load(Ordering::SeqCst);
        if n == 0 {
            let resolved = threads_from_env();
            // Racing first readers resolve the same value; whoever stores
            // first wins and the rest agree.
            let _ =
                GLOBAL_THREADS.compare_exchange(0, resolved, Ordering::SeqCst, Ordering::SeqCst);
            n = GLOBAL_THREADS.load(Ordering::SeqCst);
        }
        Pool { threads: n }
    }

    /// This pool's thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Parallel map with the output in item order: bit-identical to
    /// `items.iter().map(f).collect()`. Items are split into contiguous
    /// chunks (about 4 per worker, for load balance) and the per-chunk
    /// outputs are concatenated in chunk order.
    pub fn par_map_collect<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let size = items.len().div_ceil(self.threads * 4).max(1);
        let chunks: Vec<&[T]> = items.chunks(size).collect();
        let workers = self.threads.min(chunks.len());
        if workers <= 1 {
            return items.iter().map(f).collect();
        }
        let slots: Vec<Mutex<Vec<R>>> = chunks.iter().map(|_| Mutex::new(Vec::new())).collect();
        let next = AtomicUsize::new(0);
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(chunk) = chunks.get(i) else { break };
            let out: Vec<R> = chunk.iter().map(&f).collect();
            *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = out;
        };
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(work);
            }
            work();
        });
        let mut out = Vec::with_capacity(items.len());
        for slot in slots {
            out.extend(slot.into_inner().unwrap_or_else(|e| e.into_inner()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pools() -> Vec<Pool> {
        vec![
            Pool::with_threads(1),
            Pool::with_threads(2),
            Pool::with_threads(8),
            Pool::with_threads(64), // oversubscribed on any test machine
        ]
    }

    #[test]
    fn par_map_collect_matches_sequential_map() {
        let items: Vec<u64> = (0..10_000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for pool in pools() {
            assert_eq!(pool.par_map_collect(&items, |x| x * x + 1), expect);
        }
    }

    #[test]
    fn empty_inputs() {
        let pool = Pool::with_threads(8);
        let empty: Vec<u8> = Vec::new();
        assert!(pool.par_map_collect(&empty, |x| *x).is_empty());
    }

    #[test]
    fn thread_count_clamped() {
        assert_eq!(Pool::with_threads(0).threads(), 1);
        assert_eq!(Pool::with_threads(1_000_000).threads(), MAX_THREADS);
    }
}
