//! Streaming quantile sketches.
//!
//! Fixed-bucket histograms answer "how many reads landed below energy
//! −4" but cannot answer "what was the p99 queue wait" without choosing
//! the bucket boundaries in advance. A [`QuantileSketch`] keeps a
//! bounded, weighted sample of the stream (an MRL/KLL-style compactor
//! ladder) from which any quantile can be queried within a rank error
//! of roughly `1/k`, in bounded memory whatever the stream length.
//!
//! The compactor is **deterministic**: instead of randomized coin flips
//! it keeps alternating parity survivors per compaction, so the same
//! observation stream always yields the same sketch (the property every
//! golden-value test in this workspace leans on).
//!
//! # Example
//!
//! ```
//! use qac_telemetry::sketch::QuantileSketch;
//!
//! let mut sketch = QuantileSketch::new();
//! for i in 0..1000 {
//!     sketch.observe(i as f64);
//! }
//! let p50 = sketch.quantile(0.5).unwrap();
//! assert!((p50 - 500.0).abs() < 32.0);
//! ```

/// Per-level capacity. Rank error is ~`O(1/k)`; 256 keeps a fully-laden
/// sketch under ~20 KB while bounding p99 error well below the
/// tolerances CI budgets use.
const LEVEL_CAPACITY: usize = 256;

/// A deterministic quantile sketch.
///
/// Level `i` holds values with weight `2^i`. Observations enter level 0;
/// when a level overflows it is sorted and every other element is
/// promoted to the next level (the surviving parity alternates per
/// compaction so no stream position is systematically favored).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuantileSketch {
    levels: Vec<Vec<f64>>,
    /// Per-level parity of the next compaction (alternates each time).
    parity: Vec<bool>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> QuantileSketch {
        QuantileSketch {
            levels: Vec::new(),
            parity: Vec::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation. Non-finite values are dropped — a NaN
    /// must never poison an exported percentile.
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
            self.parity.push(false);
        }
        self.levels[0].push(value);
        self.compact();
    }

    /// Records `n` identical observations.
    pub fn observe_n(&mut self, value: f64, n: u64) {
        for _ in 0..n {
            self.observe(value);
        }
    }

    /// Total number of (finite) observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (`None` while empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` while empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The value at rank `q` (`0.0 ..= 1.0`), within ~`1/256` rank
    /// error. `None` while empty. Exact at the extremes: `q = 0` is the
    /// true minimum and `q = 1` the true maximum.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        // Expand the ladder into (value, weight) pairs and walk the
        // cumulative weight to the target rank.
        let mut weighted: Vec<(f64, u64)> = Vec::new();
        for (level, values) in self.levels.iter().enumerate() {
            let weight = 1u64 << level;
            weighted.extend(values.iter().map(|&v| (v, weight)));
        }
        weighted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite values compare"));
        let total: u64 = weighted.iter().map(|&(_, w)| w).sum();
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut running = 0u64;
        for (value, weight) in &weighted {
            running += weight;
            if running >= target {
                return Some(*value);
            }
        }
        Some(self.max)
    }

    /// Compacts any overflowing level (an overflow promotes into the
    /// next level, which may itself overflow).
    fn compact(&mut self) {
        let mut level = 0;
        while level < self.levels.len() {
            if self.levels[level].len() <= LEVEL_CAPACITY {
                level += 1;
                continue;
            }
            let mut values = std::mem::take(&mut self.levels[level]);
            values.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
            let offset = usize::from(self.parity[level]);
            self.parity[level] = !self.parity[level];
            let promoted: Vec<f64> = values.into_iter().skip(offset).step_by(2).collect();
            if self.levels.len() == level + 1 {
                self.levels.push(Vec::new());
                self.parity.push(false);
            }
            self.levels[level + 1].extend(promoted);
            level += 1;
        }
    }

    /// Number of values currently resident across all levels (bounded
    /// by `levels × LEVEL_CAPACITY`, regardless of stream length).
    pub fn resident(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic value stream with no run-time randomness
    /// (splitmix-style mixing of the index).
    fn mixed(i: u64) -> f64 {
        let mut z = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 31;
        (z % 100_000) as f64
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let sketch = QuantileSketch::new();
        assert_eq!(sketch.quantile(0.5), None);
        assert_eq!(sketch.min(), None);
        assert_eq!(sketch.max(), None);
        assert_eq!(sketch.count(), 0);
    }

    #[test]
    fn small_streams_are_exact() {
        let mut sketch = QuantileSketch::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            sketch.observe(v);
        }
        assert_eq!(sketch.quantile(0.0), Some(1.0));
        assert_eq!(sketch.quantile(1.0), Some(5.0));
        assert_eq!(sketch.quantile(0.5), Some(3.0));
        assert_eq!(sketch.count(), 5);
        assert_eq!(sketch.sum(), 15.0);
    }

    #[test]
    fn large_streams_stay_within_rank_error() {
        let mut sketch = QuantileSketch::new();
        let n = 50_000u64;
        for i in 0..n {
            sketch.observe(mixed(i));
        }
        assert_eq!(sketch.count(), n);
        assert!(
            sketch.resident() < 4096,
            "sketch must stay bounded, held {}",
            sketch.resident()
        );
        // Compare against exact quantiles: rank error within 2%.
        let mut exact: Vec<f64> = (0..n).map(mixed).collect();
        exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.5, 0.9, 0.99] {
            let estimate = sketch.quantile(q).unwrap();
            let rank = exact.partition_point(|&v| v < estimate) as f64 / n as f64;
            assert!(
                (rank - q).abs() < 0.02,
                "p{q}: estimate {estimate} sits at rank {rank}"
            );
        }
    }

    #[test]
    fn sketches_are_deterministic_per_stream() {
        let build = || {
            let mut s = QuantileSketch::new();
            for i in 0..10_000 {
                s.observe(mixed(i));
            }
            s
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn non_finite_observations_are_dropped() {
        let mut sketch = QuantileSketch::new();
        sketch.observe(f64::NAN);
        sketch.observe(f64::INFINITY);
        sketch.observe(f64::NEG_INFINITY);
        assert_eq!(sketch.count(), 0);
        sketch.observe(1.0);
        assert_eq!(sketch.count(), 1);
        assert_eq!(sketch.quantile(0.99), Some(1.0));
        assert!(sketch.quantile(0.5).unwrap().is_finite());
    }
}
