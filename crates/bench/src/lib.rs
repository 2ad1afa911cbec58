//! Shared helpers for the benchmark and experiment harness.
//!
//! The `experiments` binary regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md, "Experiment / figure / table index"); the
//! `bench_runner` binary times the optimised paths against their frozen
//! reference oracles. The experiments exercise invariant construction
//! (Theorem 2.1), inversion (Theorem 2.2), the Lemma 3.1 orderings, the fixpoint
//! translations (Theorems 4.1/4.2), the single-region `FO_inv` translation
//! (Theorem 4.9), and the four evaluation strategies of the
//! practical-considerations section.

pub mod json;

pub use json::Json;
use std::time::{Duration, Instant};
use topo_core::{InvariantStats, SpatialInstance, TopologicalInvariant};

/// Bytes per stored point used by the paper for its raw-data size estimates
/// (Sequoia 2000 stores 20-byte points; IGN 18-byte points).
pub const SEQUOIA_BYTES_PER_POINT: usize = 20;
/// Bytes per stored point for the IGN-style data set.
pub const IGN_BYTES_PER_POINT: usize = 18;

/// One row of the dataset-statistics table (experiment E1).
#[derive(Clone, Debug)]
pub struct DatasetRow {
    /// Data-set label.
    pub name: String,
    /// Number of polygons / polylines in the raw data.
    pub polygons: usize,
    /// Number of points in the raw data.
    pub points: usize,
    /// Raw size in bytes (points × bytes-per-point).
    pub raw_bytes: usize,
    /// Number of cells of the topological invariant.
    pub cells: usize,
    /// Invariant size in bytes.
    pub invariant_bytes: usize,
    /// Size ratio raw / invariant (the paper reports 1/72 – 1/300).
    pub ratio: f64,
    /// Average number of lines meeting at a point.
    pub avg_degree: f64,
    /// Maximum number of lines meeting at a point.
    pub max_degree: usize,
    /// Time to construct the invariant.
    pub construction: Duration,
}

/// Computes one dataset row.
pub fn dataset_row(name: &str, instance: &SpatialInstance, bytes_per_point: usize) -> DatasetRow {
    let start = Instant::now();
    let invariant = topo_core::top(instance);
    let construction = start.elapsed();
    let stats = InvariantStats::compute(&invariant);
    let raw_bytes = instance.raw_bytes(bytes_per_point);
    DatasetRow {
        name: name.to_string(),
        polygons: instance.polygon_count(),
        points: instance.point_count(),
        raw_bytes,
        cells: stats.cells,
        invariant_bytes: stats.bytes,
        ratio: if stats.bytes == 0 { 0.0 } else { raw_bytes as f64 / stats.bytes as f64 },
        avg_degree: stats.average_degree,
        max_degree: stats.max_degree,
        construction,
    }
}

/// Renders the dataset table.
pub fn print_dataset_table(rows: &[DatasetRow]) {
    println!(
        "{:<22} {:>9} {:>10} {:>12} {:>9} {:>12} {:>8} {:>9} {:>7} {:>10}",
        "dataset",
        "polygons",
        "points",
        "raw bytes",
        "cells",
        "inv bytes",
        "ratio",
        "avg deg",
        "max",
        "build"
    );
    for row in rows {
        println!(
            "{:<22} {:>9} {:>10} {:>12} {:>9} {:>12} {:>7.2}x {:>9.2} {:>7} {:>9.1?}",
            row.name,
            row.polygons,
            row.points,
            row.raw_bytes,
            row.cells,
            row.invariant_bytes,
            row.ratio,
            row.avg_degree,
            row.max_degree,
            row.construction
        );
    }
}

/// Measures a closure, returning its result and the elapsed wall-clock time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// The median of a sorted-or-not slice of nanosecond samples: the middle
/// element for odd counts, the mean of the two middle elements (rounded down)
/// for even counts, and 0 for an empty slice — callers must record the sample
/// count alongside the median so a zero-sample "median" is never mistaken for
/// a measurement.
pub fn median_of_ns(samples: &mut [u128]) -> u128 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        // Mean of the two middle samples; u128 headroom makes the sum safe.
        (samples[mid - 1] + samples[mid]) / 2
    }
}

/// Median of `samples` timed runs of one closure, in nanoseconds.
///
/// Returns 0 when `samples == 0` (and runs nothing); see [`median_of_ns`] for
/// the even-count behaviour.
pub fn median_ns<T>(samples: usize, mut f: impl FnMut() -> T) -> u128 {
    median_ns_with(samples, || (), |()| f())
}

/// Like [`median_ns`], but re-running an untimed `setup` before every timed
/// sample, so mutating stages can be measured in isolation.
pub fn median_ns_with<S, T>(
    samples: usize,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) -> u128 {
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let state = setup();
            let start = Instant::now();
            std::hint::black_box(f(state));
            start.elapsed().as_nanos()
        })
        .collect();
    median_of_ns(&mut times)
}

/// A small suite of library queries exercised by the strategy-comparison
/// experiment, over the first two regions of a schema.
pub fn strategy_queries() -> Vec<topo_core::TopologicalQuery> {
    use topo_core::TopologicalQuery as Q;
    vec![
        Q::Intersects(0, 1),
        Q::Disjoint(0, 1),
        Q::Contains(0, 1),
        Q::BoundaryOnlyIntersection(0, 1),
        Q::InteriorsOverlap(0, 1),
        Q::IsConnected(0),
        Q::ComponentCountEven(0),
        Q::HasHole(0),
    ]
}

/// Convenience: the invariant of an instance, with construction time.
pub fn build_invariant(instance: &SpatialInstance) -> (TopologicalInvariant, Duration) {
    timed(|| topo_core::top(instance))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_takes_middle() {
        assert_eq!(median_of_ns(&mut [5, 1, 9]), 5);
        assert_eq!(median_of_ns(&mut [7]), 7);
    }

    #[test]
    fn median_even_averages_the_middle_pair() {
        // The pre-fix index-based median returned 9 here.
        assert_eq!(median_of_ns(&mut [1, 3, 9, 11]), 6);
        assert_eq!(median_of_ns(&mut [2, 4]), 3);
    }

    #[test]
    fn median_zero_samples_is_zero_not_a_panic() {
        assert_eq!(median_of_ns(&mut []), 0);
        assert_eq!(median_ns(0, || ()), 0);
        let mut setups = 0;
        assert_eq!(median_ns_with(0, || setups += 1, |()| ()), 0);
        assert_eq!(setups, 0, "zero samples must not run the setup either");
    }

    #[test]
    fn median_ns_counts_samples() {
        let mut runs = 0u32;
        let _ = median_ns(4, || runs += 1);
        assert_eq!(runs, 4);
    }
}
