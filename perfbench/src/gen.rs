//! Seeded input generation. Everything a workload feeds the program is
//! derived from the `--seed` argument through [`Rng`]; the program sees only
//! the generated instances, edits and query keys.

use topo_core::datagen::{ign_city, sequoia_hydro, sequoia_landcover, Scale};
use topo_core::geometry::Point;
use topo_core::spatial::transform::AffineMap;
use topo_core::{SpatialInstance, TopologicalQuery};

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// An independent stream for a named purpose.
    pub fn fork(&mut self, salt: u64) -> Rng {
        Rng::new(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The three map generators of the paper's practical-considerations data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Generator {
    Landcover,
    Hydro,
    City,
}

impl Generator {
    pub const ALL: [Generator; 3] = [Generator::Landcover, Generator::Hydro, Generator::City];

    pub fn make(self, grid: usize, seed: u64) -> SpatialInstance {
        let scale = Scale { grid };
        match self {
            Generator::Landcover => sequoia_landcover(scale, seed),
            Generator::Hydro => sequoia_hydro(scale, seed),
            Generator::City => ign_city(scale, seed),
        }
    }
}

/// A homeomorphic copy: a seeded quarter-turn rotation (possibly none)
/// followed by a seeded translation. Both preserve orientation, so the copy
/// lies in the original's isomorphism class.
pub fn homeomorphic_copy(instance: &SpatialInstance, rng: &mut Rng) -> SpatialInstance {
    let mut map = AffineMap::identity();
    for _ in 0..rng.below(4) {
        map = AffineMap::rotation90().compose(&map);
    }
    let shift = AffineMap::translation(rng.range(-50_000, 50_000), rng.range(-50_000, 50_000));
    shift.compose(&map).apply_instance(instance)
}

/// A pure translation, as used for the query workload's copies.
pub fn translated(instance: &SpatialInstance, rng: &mut Rng) -> SpatialInstance {
    AffineMap::translation(rng.range(1, 90_000), rng.range(1, 90_000)).apply_instance(instance)
}

/// Bounding box `(min_x, min_y, max_x, max_y)` of an instance's points.
pub fn extent(instance: &SpatialInstance) -> (f64, f64, f64, f64) {
    let mut b = (f64::MAX, f64::MAX, f64::MIN, f64::MIN);
    let mut add = |p: &Point| {
        let (x, y) = p.to_f64();
        b = (b.0.min(x), b.1.min(y), b.2.max(x), b.3.max(y));
    };
    for (_, region) in instance.iter() {
        region.rings.iter().chain(&region.polylines).flatten().for_each(&mut add);
        region.points.iter().for_each(&mut add);
    }
    b
}

/// A small convex quadrilateral placed inside `extent`, sized about `cell`
/// across, with odd coordinates drawn afresh from the seed so that it is
/// (with overwhelming probability) geometry the program has never seen.
pub fn novel_quad(rng: &mut Rng, extent: (f64, f64, f64, f64), cell: f64) -> Vec<Point> {
    let half = (cell * (0.3 + 0.5 * rng.unit())).max(8.0);
    let (x0, y0) = (extent.0 + half * 1.5, extent.1 + half * 1.5);
    let (x1, y1) = ((extent.2 - half * 1.5).max(x0 + 1.0), (extent.3 - half * 1.5).max(y0 + 1.0));
    let cx = x0 + (x1 - x0) * rng.unit();
    let cy = y0 + (y1 - y0) * rng.unit();
    let jitter = half / 4.0;
    let mut corner = |sx: f64, sy: f64| {
        let x = cx + sx * half + jitter * (rng.unit() - 0.5);
        let y = cy + sy * half + jitter * (rng.unit() - 0.5);
        Point::from_ints(x as i64 | 1, y as i64 | 1)
    };
    vec![corner(-1.0, -1.0), corner(1.0, -1.0), corner(1.0, 1.0), corner(-1.0, 1.0)]
}

/// Every library query over the regions of a schema with `regions` names:
/// each unary query on each region and each binary query on each ordered
/// pair of distinct regions.
pub fn all_queries(regions: usize) -> Vec<TopologicalQuery> {
    use TopologicalQuery::*;
    let mut out = Vec::new();
    for a in 0..regions {
        out.extend([IsConnected(a), ComponentCountEven(a), HasHole(a)]);
        for b in (0..regions).filter(|&b| b != a) {
            out.extend([
                Intersects(a, b),
                Disjoint(a, b),
                Contains(a, b),
                Equal(a, b),
                BoundaryOnlyIntersection(a, b),
                InteriorsOverlap(a, b),
            ]);
        }
    }
    out
}

/// Zipf sampler over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_streams_repeat() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(8).next_u64(), a[0]);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(1000, 1.1);
        let mut rng = Rng::new(1);
        let draws: Vec<usize> = (0..10_000).map(|_| zipf.sample(&mut rng)).collect();
        let head = draws.iter().filter(|&&r| r < 10).count();
        assert!(head > 3_000, "head draws {head}");
        assert!(draws.iter().all(|&r| r < 1000));
    }

    #[test]
    fn copies_stay_in_the_class() {
        let map = Generator::Hydro.make(3, 5);
        let copy = homeomorphic_copy(&map, &mut Rng::new(3));
        assert!(topo_core::top(&copy).is_isomorphic_to(&topo_core::top(&map)));
    }
}
