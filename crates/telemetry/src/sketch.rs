//! [`QuantileSketch`]: the one read side of the shared bucket layout.

use crate::registry::geometry::{bucket_bound, bucket_index, bucket_value, SLOT_COUNT};

/// A mergeable quantile sketch on the workspace's shared log-bucket
/// geometry ([`crate::geometry`]).
///
/// This is the only type that reads the bucket layout: a
/// [`crate::Histogram`] keeps lock-free atomic recording and answers
/// quantile, bucket and snapshot queries from a copy of its atomics
/// into a sketch, and the exposition writer
/// ([`crate::prom::render_sketch_series`]) renders sketches. Unlike the
/// histogram (atomic, registry-owned, handle semantics) a sketch is a
/// plain value: cheap to clone, merge and compare, which is what
/// per-node scopes and fleet roll-ups need.
///
/// Because the layout is a constant, merging is bucket-wise `u64`
/// addition: **exact**, associative, commutative, and byte-stable at
/// any `--jobs` width. The merged sketch's quantiles equal the
/// quantiles of the concatenated samples up to one bucket width (~29%
/// relative bucket span, ≤ ~13% value error).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// `[underflow, BUCKET_COUNT regular, overflow]` observation counts.
    pub(crate) buckets: Vec<u64>,
    pub(crate) count: u64,
    pub(crate) sum: f64,
    pub(crate) min: f64,
    pub(crate) max: f64,
}

/// 1-based rank `ceil(q·count)` of the `q`-quantile's observation
/// (`q` clamped into `[0, 1]`, the rank at least 1).
pub(crate) fn rank(q: f64, count: u64) -> u64 {
    ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1)
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// An empty sketch.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: vec![0; SLOT_COUNT],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation. NaN is dropped (as the histogram does).
    pub fn record(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merge another sketch into this one: bucket-wise addition, exact
    /// by construction of the fixed layout. `merge` is associative and
    /// commutative on the bucket counts, so fleet roll-ups are
    /// independent of node visiting order.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact minimum (+∞ when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Exact maximum (−∞ when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The raw per-slot counts (underflow first, overflow last) — the
    /// merge invariant tests compare these directly.
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Estimate the `q`-quantile (`0 ≤ q ≤ 1`): rank `ceil(q·count)`
    /// located in the cumulative buckets, the bucket midpoint clamped
    /// into the exact observed `[min, max]`. Accuracy is limited by the
    /// bucket resolution (~13% relative). NaN when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = rank(q, self.count);
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= rank {
                return bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Cumulative `(upper_bound, count_le)` pairs in ascending bound
    /// order ending at `(+∞, count)` — the exposition shape Prometheus
    /// histograms use. The underflow slot (values ≤ 1 ns) reports under
    /// the first regular bound.
    #[must_use]
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        self.cumulative()
            .map(|(slot, count)| (bucket_bound(slot), count))
            .collect()
    }

    /// The cumulative walk behind [`QuantileSketch::cumulative_buckets`],
    /// without collecting it: `(slot, count_le)` for every slot past the
    /// underflow one, whose observations merge into the first regular
    /// bound.
    pub(crate) fn cumulative(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let mut cumulative = 0u64;
        self.buckets.iter().enumerate().filter_map(move |(i, &n)| {
            cumulative += n;
            (i > 0).then_some((i, cumulative))
        })
    }
}
