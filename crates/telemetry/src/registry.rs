//! The metrics registry: named counters, gauges and quantile histograms.
//!
//! Handles are `Arc`-backed and lock-free on the hot path; the registry
//! itself is only locked when a handle is first looked up or when a
//! snapshot is taken.

use crate::json;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// The quantiles every histogram snapshot reports, with their labels.
pub const QUANTILE_LABELS: [(&str, f64); 4] =
    [("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999)];

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge (queue depth, buffer bytes).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Self(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` (atomic read-modify-write).
    pub fn add(&self, delta: f64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// The fixed log-bucket geometry: [`Histogram`] records into it and
/// [`QuantileSketch`], its one read side, walks it.
///
/// Nine log-spaced buckets per factor of ten across thirteen decades
/// starting at `1e-9`, plus one underflow and one overflow slot. The
/// layout is a compile-time constant — never adapted to the data — so
/// two histograms or sketches over the same unit merge *exactly* by
/// bucket-wise addition, in any order, which is what makes fleet-level
/// quantiles byte-stable at any `--jobs` width.
pub mod geometry {
    use std::sync::OnceLock;

    /// Log-spaced buckets per factor of 10.
    pub const BUCKETS_PER_DECADE: usize = 9;
    /// Decades spanned by the regular buckets.
    pub const DECADES: usize = 13;
    /// Number of regular (finite-bound) buckets.
    pub const BUCKET_COUNT: usize = BUCKETS_PER_DECADE * DECADES;
    /// Total storage slots: `[underflow, BUCKET_COUNT regular, overflow]`.
    pub const SLOT_COUNT: usize = BUCKET_COUNT + 2;
    /// Lower edge of the first regular bucket (1 ns when the unit is
    /// seconds).
    pub const LOW: f64 = 1e-9;

    /// Storage slot (0 = underflow, `BUCKET_COUNT + 1` = overflow) for a
    /// recorded value. Zero, negatives and NaN all land in the underflow
    /// slot (callers that want to drop NaN must do so before indexing).
    #[must_use]
    pub fn bucket_index(value: f64) -> usize {
        if !(value > LOW) {
            return 0;
        }
        let position = (value / LOW).log10() * BUCKETS_PER_DECADE as f64;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let idx = position as usize; // truncation; position > 0 here
        if idx >= BUCKET_COUNT {
            BUCKET_COUNT + 1
        } else {
            idx + 1
        }
    }

    /// Representative value (geometric bucket midpoint) for a slot; the
    /// underflow slot reports `LOW`.
    #[must_use]
    pub fn bucket_value(index: usize) -> f64 {
        slots()
            .value
            .get(index)
            .copied()
            .unwrap_or_else(|| midpoint(index))
    }

    /// Upper edge of the slot at `index`: `LOW` for the underflow slot,
    /// `+∞` for the overflow slot.
    #[must_use]
    pub fn bucket_bound(index: usize) -> f64 {
        slots().bound.get(index).copied().unwrap_or(f64::INFINITY)
    }

    /// The upper edge of the slot at `index` as a Prometheus `le`
    /// label spells it ([`crate::prom::format_value`] of
    /// [`bucket_bound`]): `+Inf` for the overflow slot.
    #[must_use]
    pub fn bucket_le(index: usize) -> &'static str {
        slots().le.get(index).map_or("+Inf", |le| le)
    }

    /// Every slot's upper edge, its `le` text and its representative
    /// value, computed once: a sketch read walks all [`SLOT_COUNT`]
    /// slots, and a `powf` per slot per read cost more than the rest of
    /// a Prometheus series, as did formatting each bound per line.
    struct SlotTables {
        bound: [f64; SLOT_COUNT],
        le: [Box<str>; SLOT_COUNT],
        value: [f64; SLOT_COUNT],
    }

    fn slots() -> &'static SlotTables {
        static SLOTS: OnceLock<SlotTables> = OnceLock::new();
        SLOTS.get_or_init(|| {
            let bound: [f64; SLOT_COUNT] = std::array::from_fn(|index| match index {
                0 => LOW,
                i if i > BUCKET_COUNT => f64::INFINITY,
                i => edge(i),
            });
            SlotTables {
                bound,
                le: bound.map(|b| crate::prom::format_value(b).into_boxed_str()),
                value: std::array::from_fn(|index| if index == 0 { LOW } else { midpoint(index) }),
            }
        })
    }

    /// Upper edge of regular slot `index ∈ 1..=BUCKET_COUNT`.
    fn edge(index: usize) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let exp = index as f64;
        LOW * 10f64.powf(exp / BUCKETS_PER_DECADE as f64)
    }

    /// Geometric midpoint of regular slot `index ≥ 1`.
    fn midpoint(index: usize) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let exp = (index - 1) as f64 + 0.5;
        LOW * 10f64.powf(exp / BUCKETS_PER_DECADE as f64)
    }
}

use crate::sketch::{rank, QuantileSketch};
use geometry::{bucket_index, bucket_value, SLOT_COUNT};

/// A fixed-bucket log-scale histogram with atomic recording and
/// quantile estimation.
///
/// Values spanning `1e-9` to `1e4` land in one of 117 log-spaced
/// buckets (relative width ≈ 29%, so quantile estimates carry at most
/// ~13% relative error — ample for service-time tails). Values at or
/// below `1e-9` (including zero and negatives) are clamped into an
/// underflow bucket, values above `1e4` into an overflow bucket; exact
/// `min`/`max`/`sum` are tracked separately, and NaNs are dropped.
///
/// Recording is lock-free. Quantile and bucket reads go through one
/// copy of the atomics into a [`QuantileSketch`]; a snapshot walks the
/// atomics once in place.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramInner>);

#[derive(Debug)]
struct HistogramInner {
    /// `[underflow, 117 regular buckets..., overflow]`.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// f64 bits, CAS-accumulated.
    sum: AtomicU64,
    /// f64 bits, CAS-minimized.
    min: AtomicU64,
    /// f64 bits, CAS-maximized.
    max: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        Self {
            buckets: (0..SLOT_COUNT).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0f64.to_bits()),
            min: AtomicU64::new(f64::INFINITY.to_bits()),
            max: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

impl Histogram {
    /// Record one observation. NaN is dropped.
    pub fn record(&self, value: f64) {
        if value.is_nan() {
            return;
        }
        let inner = &*self.0;
        inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        // CAS-accumulate the f64 bit patterns.
        let mut bits = inner.sum.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(bits) + value).to_bits();
            match inner
                .sum
                .compare_exchange_weak(bits, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => bits = actual,
            }
        }
        let mut bits = inner.min.load(Ordering::Relaxed);
        while value < f64::from_bits(bits) {
            match inner.min.compare_exchange_weak(
                bits,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => bits = actual,
            }
        }
        let mut bits = inner.max.load(Ordering::Relaxed);
        while value > f64::from_bits(bits) {
            match inner.max.compare_exchange_weak(
                bits,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => bits = actual,
            }
        }
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum.load(Ordering::Relaxed))
    }

    /// Estimate the `q`-quantile (`0 ≤ q ≤ 1`) from the buckets
    /// ([`QuantileSketch::quantile`]). Exact extremes come from
    /// [`Histogram::snapshot`]'s `min`/`max`. NaN when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        self.sketch().quantile(q)
    }

    /// Cumulative bucket counts as `(upper_bound, count_le)` pairs
    /// ([`QuantileSketch::cumulative_buckets`]).
    #[must_use]
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        self.sketch().cumulative_buckets()
    }

    /// An immutable copy of the current state. The four
    /// [`QUANTILE_LABELS`] estimates come from one walk over the bucket
    /// atomics (their ranks ascend with `q`), equal to what
    /// [`QuantileSketch::quantile`] reports for each.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &*self.0;
        let count = inner.count.load(Ordering::Relaxed);
        let sum = f64::from_bits(inner.sum.load(Ordering::Relaxed));
        let min = f64::from_bits(inner.min.load(Ordering::Relaxed));
        let max = f64::from_bits(inner.max.load(Ordering::Relaxed));
        let mut quantiles = [f64::NAN; QUANTILE_LABELS.len()];
        if count > 0 {
            let ranks = QUANTILE_LABELS.map(|(_, q)| rank(q, count));
            let mut next = 0;
            let mut cumulative = 0u64;
            for (i, bucket) in inner.buckets.iter().enumerate() {
                cumulative += bucket.load(Ordering::Relaxed);
                while next < ranks.len() && cumulative >= ranks[next] {
                    quantiles[next] = bucket_value(i).clamp(min, max);
                    next += 1;
                }
                if next == ranks.len() {
                    break;
                }
            }
            // Ranks past the buckets' total (a record in progress).
            quantiles[next..].fill(max);
        }
        HistogramSnapshot {
            count,
            sum,
            mean: if count == 0 {
                f64::NAN
            } else {
                sum / count as f64
            },
            min,
            max,
            quantiles,
        }
    }

    /// The current state as a [`QuantileSketch`]: one relaxed load per
    /// atomic.
    pub(crate) fn sketch(&self) -> QuantileSketch {
        let inner = &*self.0;
        QuantileSketch {
            buckets: inner
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: inner.count.load(Ordering::Relaxed),
            sum: f64::from_bits(inner.sum.load(Ordering::Relaxed)),
            min: f64::from_bits(inner.min.load(Ordering::Relaxed)),
            max: f64::from_bits(inner.max.load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Mean (NaN when empty).
    pub mean: f64,
    /// Exact minimum (+∞ when empty).
    pub min: f64,
    /// Exact maximum (−∞ when empty).
    pub max: f64,
    /// Estimates for [`QUANTILE_LABELS`], in order.
    pub quantiles: [f64; 4],
}

/// A named collection of metrics.
///
/// Cloning a returned handle and storing it is the intended hot-path
/// pattern; `counter`/`gauge`/`histogram` take a read–write lock only on
/// first registration.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<HashMap<String, Counter>>,
    gauges: RwLock<HashMap<String, Gauge>>,
    histograms: RwLock<HashMap<String, Histogram>>,
    /// Names of metrics that describe the *execution* rather than the
    /// modeled system: wall-clock span timers, scheduler effort
    /// (task/steal counts), solver iteration tallies. Their values vary
    /// with real elapsed time or with `--jobs`, so exporters that
    /// promise byte-identity (the Prometheus exposition) skip them; the
    /// JSON snapshot keeps them as diagnostics.
    execution: RwLock<std::collections::HashSet<String>>,
}

fn get_or_insert<T: Clone + Default>(map: &RwLock<HashMap<String, T>>, name: &str) -> T {
    if let Some(found) = map.read().expect("metrics lock").get(name) {
        return found.clone();
    }
    map.write()
        .expect("metrics lock")
        .entry(name.to_string())
        .or_default()
        .clone()
}

impl Registry {
    /// An empty registry (tests, scoped measurement).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        get_or_insert(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        get_or_insert(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        get_or_insert(&self.histograms, name)
    }

    fn mark_execution(&self, name: &str) {
        {
            let marked = self.execution.read().expect("metrics lock");
            if marked.contains(name) {
                return;
            }
        }
        self.execution
            .write()
            .expect("metrics lock")
            .insert(name.to_string());
    }

    /// The histogram named `name`, additionally marked execution-scoped
    /// ([`Registry::is_execution_scoped`]). Span timers use this: their
    /// values are real elapsed time, so they are excluded from the
    /// deterministic Prometheus exposition and live only in the JSON
    /// snapshot (like the phase profiler, wall-clock data is outside
    /// the byte-identity contract). Solver iteration histograms use it
    /// too — the work a parallel scan performs depends on how the range
    /// was split.
    #[must_use]
    pub fn execution_histogram(&self, name: &str) -> Histogram {
        self.mark_execution(name);
        get_or_insert(&self.histograms, name)
    }

    /// The counter named `name`, additionally marked execution-scoped
    /// ([`Registry::is_execution_scoped`]). Scheduler-effort counters
    /// (tasks dispatched, ranges stolen) use this: their values depend
    /// on the `--jobs` width, not on the modeled system.
    #[must_use]
    pub fn execution_counter(&self, name: &str) -> Counter {
        self.mark_execution(name);
        get_or_insert(&self.counters, name)
    }

    /// Whether `name` was registered through
    /// [`Registry::execution_histogram`] or
    /// [`Registry::execution_counter`].
    #[must_use]
    pub fn is_execution_scoped(&self, name: &str) -> bool {
        self.execution.read().expect("metrics lock").contains(name)
    }

    /// Visit every metric an exporter exposes, read in place: counters,
    /// then gauges, then histograms, each family sorted by name, with
    /// execution-scoped counters and histograms left out. Names are
    /// borrowed under each map's read lock, not copied, and histograms
    /// are handed over as handles instead of summarized.
    pub(crate) fn visit_exposed(&self, mut visit: impl FnMut(&str, Metric<'_>)) {
        fn sorted<T>(map: &HashMap<String, T>) -> Vec<(&str, &T)> {
            let mut entries: Vec<(&str, &T)> = map.iter().map(|(k, v)| (k.as_str(), v)).collect();
            entries.sort_unstable_by_key(|&(k, _)| k);
            entries
        }
        let execution = self.execution.read().expect("metrics lock");
        let counters = self.counters.read().expect("metrics lock");
        for (name, counter) in sorted(&counters) {
            if !execution.contains(name) {
                visit(name, Metric::Counter(counter.get()));
            }
        }
        drop(counters);
        let gauges = self.gauges.read().expect("metrics lock");
        for (name, gauge) in sorted(&gauges) {
            visit(name, Metric::Gauge(gauge.get()));
        }
        drop(gauges);
        let histograms = self.histograms.read().expect("metrics lock");
        for (name, histogram) in sorted(&histograms) {
            if !execution.contains(name) {
                visit(name, Metric::Histogram(histogram));
            }
        }
    }

    /// A point-in-time copy of every metric.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .read()
                .expect("metrics lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("metrics lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("metrics lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// One metric as [`Registry::visit_exposed`] hands it to an exporter.
pub(crate) enum Metric<'a> {
    Counter(u64),
    Gauge(f64),
    Histogram(&'a Histogram),
}

/// A point-in-time copy of a whole [`Registry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Render as a pretty-printed JSON document:
    ///
    /// ```json
    /// {
    ///   "counters": {"server.admission.rejected": 3},
    ///   "gauges": {"server.buffer.occupancy_bytes": 123456.0},
    ///   "histograms": {
    ///     "sim.round.service_time": {
    ///       "count": 100, "sum": 81.2, "mean": 0.812,
    ///       "min": 0.7, "max": 1.1,
    ///       "p50": 0.81, "p95": 0.93, "p99": 1.02, "p999": 1.1
    ///     }
    ///   }
    /// }
    /// ```
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            json::write_escaped(&mut out, name);
            out.push_str(": ");
            json::write_u64(&mut out, *value);
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            json::write_escaped(&mut out, name);
            out.push_str(": ");
            json::write_f64(&mut out, *value);
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            json::write_escaped(&mut out, name);
            out.push_str(": {\"count\": ");
            json::write_u64(&mut out, h.count);
            out.push_str(", \"sum\": ");
            json::write_f64(&mut out, h.sum);
            out.push_str(", \"mean\": ");
            json::write_f64(&mut out, h.mean);
            out.push_str(", \"min\": ");
            json::write_f64(&mut out, h.min);
            out.push_str(", \"max\": ");
            json::write_f64(&mut out, h.max);
            for ((label, _), estimate) in QUANTILE_LABELS.iter().zip(h.quantiles) {
                out.push_str(", \"");
                out.push_str(label);
                out.push_str("\": ");
                json::write_f64(&mut out, estimate);
            }
            out.push('}');
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// The process-wide registry library code records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometry::{bucket_value, BUCKET_COUNT};

    #[test]
    fn counters_and_gauges_roundtrip() {
        let r = Registry::new();
        let c = r.counter("a.b");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("a.b").get(), 5); // same underlying metric
        let g = r.gauge("q");
        g.set(2.5);
        g.add(-1.0);
        assert_eq!(g.get(), 1.5);
    }

    #[test]
    fn bucket_geometry_is_monotone_and_consistent() {
        // Index is monotone in the value and bucket_value lands in its
        // own bucket.
        let mut prev = 0;
        for i in 0..200 {
            let v = 1e-10 * 1.35f64.powi(i);
            let idx = bucket_index(v);
            assert!(idx >= prev, "index went backwards at {v}");
            prev = idx;
        }
        for idx in 1..=BUCKET_COUNT {
            assert_eq!(bucket_index(bucket_value(idx)), idx);
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::INFINITY), BUCKET_COUNT + 1);
        assert_eq!(bucket_index(1e9), BUCKET_COUNT + 1);
    }

    #[test]
    fn tabulated_geometry_is_bit_identical_to_the_closed_form() {
        use geometry::{bucket_bound, BUCKETS_PER_DECADE, LOW, SLOT_COUNT};
        // The per-call expressions the slot tables replace, verbatim.
        let value = |index: usize| {
            if index == 0 {
                return LOW;
            }
            let exp = (index - 1) as f64 + 0.5;
            LOW * 10f64.powf(exp / BUCKETS_PER_DECADE as f64)
        };
        let bound = |index: usize| {
            if index == 0 {
                return LOW;
            }
            if index > BUCKET_COUNT {
                return f64::INFINITY;
            }
            let exp = index as f64;
            LOW * 10f64.powf(exp / BUCKETS_PER_DECADE as f64)
        };
        // Every slot, then indices past the overflow slot.
        for index in (0..SLOT_COUNT).chain([SLOT_COUNT, SLOT_COUNT + 1, 500, usize::MAX]) {
            assert_eq!(
                bucket_value(index).to_bits(),
                value(index).to_bits(),
                "bucket_value({index})"
            );
            assert_eq!(
                bucket_bound(index).to_bits(),
                bound(index).to_bits(),
                "bucket_bound({index})"
            );
            assert_eq!(
                geometry::bucket_le(index),
                crate::prom::format_value(bound(index)),
                "bucket_le({index})"
            );
        }
    }

    #[test]
    fn histogram_empty_state() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert!(h.quantile(0.5).is_nan());
        let s = h.snapshot();
        assert!(s.mean.is_nan());
        assert_eq!(s.min, f64::INFINITY);
    }

    #[test]
    fn snapshot_quantiles_equal_the_sketch_walks() {
        let fills: [&[f64]; 6] = [
            &[],
            &[0.25],
            &[1e-12, 3.0, 1e12],
            &[0.5, 0.5, 0.5, 0.5],
            &[1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2],
            &[0.8, 0.85, 0.9, 0.95, 7.0, 7.5],
        ];
        let exponential: Vec<f64> = (0..5_000)
            .map(|i| -(1.0 - (f64::from(i) + 0.5) / 5_000.0).ln())
            .collect();
        for values in fills.iter().copied().chain([exponential.as_slice()]) {
            let h = Histogram::default();
            for &v in values {
                h.record(v);
            }
            let s = h.snapshot();
            let sketch = h.sketch();
            for ((label, q), got) in QUANTILE_LABELS.iter().zip(s.quantiles) {
                let want = sketch.quantile(*q);
                assert_eq!(got.to_bits(), want.to_bits(), "{label} of {values:?}");
            }
            assert_eq!(s.count, sketch.count());
            assert_eq!(s.sum.to_bits(), sketch.sum().to_bits());
            assert_eq!((s.min, s.max), (sketch.min(), sketch.max()));
        }
    }

    #[test]
    fn concurrent_counter_increments_are_exact() {
        let r = Registry::new();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let c = r.counter("hot");
                let h = r.histogram("hist");
                scope.spawn(move || {
                    for i in 0..per_thread {
                        c.inc();
                        h.record(1e-3 * (1.0 + (i % 7) as f64));
                    }
                });
            }
        });
        assert_eq!(r.counter("hot").get(), threads * per_thread);
        assert_eq!(r.histogram("hist").count(), threads * per_thread);
        // The CAS-accumulated sum is exact here: every addend is a small
        // multiple of 1e-3, far above f64 rounding at this magnitude.
        let per_thread_sum: u64 = (0..per_thread).map(|i| 1 + i % 7).sum();
        let expected_sum = threads as f64 * 1e-3 * per_thread_sum as f64;
        let sum = r.histogram("hist").sum();
        assert!(
            (sum - expected_sum).abs() / expected_sum < 1e-9,
            "sum {sum} vs {expected_sum}"
        );
    }

    #[test]
    fn quantiles_track_a_uniform_distribution() {
        // 10_000 evenly spaced values on (0, 1]: the q-quantile is q, up
        // to the ~13% relative bucket resolution.
        let h = Histogram::default();
        for i in 1..=10_000 {
            h.record(f64::from(i) / 10_000.0);
        }
        for (q, expected) in [(0.5, 0.5), (0.95, 0.95), (0.99, 0.99)] {
            let est = h.quantile(q);
            assert!(
                (est / expected - 1.0).abs() < 0.15,
                "q = {q}: estimate {est} vs {expected}"
            );
        }
        // Extremes clamp to the exact observed range.
        assert!(h.quantile(0.0) >= 1e-4);
        assert!(h.quantile(1.0) <= 1.0 + 1e-12);
    }

    #[test]
    fn quantiles_track_an_exponential_distribution() {
        // Inverse-CDF samples of Exp(1): quantile q is -ln(1-q). A
        // long-tailed distribution exercises many decades of buckets.
        let h = Histogram::default();
        let n = 20_000;
        for i in 0..n {
            let u = (f64::from(i) + 0.5) / f64::from(n);
            h.record(-(1.0 - u).ln());
        }
        for q in [0.5f64, 0.95, 0.99, 0.999] {
            let expected = -(1.0 - q).ln();
            let est = h.quantile(q);
            assert!(
                (est / expected - 1.0).abs() < 0.15,
                "q = {q}: estimate {est} vs {expected}"
            );
        }
    }

    #[test]
    fn cumulative_buckets_cover_underflow_and_overflow() {
        let h = Histogram::default();
        for v in [0.0, 1e-12, 5e-4, 5e-4, 2.0, 1e9] {
            h.record(v);
        }
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.len(), BUCKET_COUNT + 1);
        // Monotone, finite bounds ascending, closed by +Inf at count.
        let mut last = 0;
        for window in buckets.windows(2) {
            assert!(window[0].0 < window[1].0 || window[1].0.is_infinite());
        }
        for &(_, c) in &buckets {
            assert!(c >= last);
            last = c;
        }
        assert_eq!(buckets.last().unwrap().0, f64::INFINITY);
        assert_eq!(buckets.last().unwrap().1, h.count());
        // Underflow observations (0.0 and 1e-12) count under the first
        // regular bound.
        assert_eq!(buckets[0].1, 2);
        // Every value lands at or below its reported bound.
        let le = |v: f64| buckets.iter().find(|&&(b, _)| v <= b).unwrap().1;
        assert!(le(5e-4) >= 4);
        assert_eq!(le(2.0), 5);
    }

    #[test]
    fn snapshot_json_parses_back() {
        let r = Registry::new();
        r.counter("c.one").add(7);
        r.gauge("g \"quoted\"").set(1.25);
        let h = r.histogram("h.x");
        for i in 1..=100 {
            h.record(f64::from(i) * 0.01);
        }
        let text = r.snapshot().to_json();
        let doc = crate::json::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("counters").unwrap().get("c.one").unwrap().as_f64(),
            Some(7.0)
        );
        assert_eq!(
            doc.get("gauges")
                .unwrap()
                .get("g \"quoted\"")
                .unwrap()
                .as_f64(),
            Some(1.25)
        );
        let hx = doc.get("histograms").unwrap().get("h.x").unwrap();
        assert_eq!(hx.get("count").unwrap().as_f64(), Some(100.0));
        let p50 = hx.get("p50").unwrap().as_f64().unwrap();
        assert!((p50 - 0.5).abs() / 0.5 < 0.15, "p50 {p50}");
    }
}
