//! Online model-conformance checking via the probability integral
//! transform (PIT).
//!
//! If the §3 analytic model is right, then for each observed round
//! service time `T` the value `u = F_model(T)` — the model's predicted
//! CDF evaluated at the observation — is uniform on `[0, 1]`. The
//! checker maintains a sliding window of PIT values, a binned histogram
//! with a KS-style max deviation from uniformity (exported as a gauge),
//! and a one-sided *upper-tail exceedance* test that drives the drift
//! alarm.
//!
//! The alarm is deliberately one-sided. The model is conservative by
//! construction (the Oyang seek constant bounds any SCAN sweep from
//! above), so observed service times sit stochastically *below* the
//! prediction and the left half of the PIT histogram is always
//! overweighted — a two-sided uniformity test would condemn a perfectly
//! healthy server. What voids the guarantee is mass appearing *above*
//! the predicted quantiles: observations landing past the model's
//! `tail_quantile` more often than `(1 − tail_quantile)` predicts. The
//! checker raises drift only when the Wilson lower confidence bound on
//! that exceedance rate provably exceeds `tail_tolerance ×
//! (1 − tail_quantile)` — under a model that stochastically dominates
//! the truth this cannot happen by chance, so the unskewed control
//! never alarms, while a mid-run zone skew pushes service times past
//! the predicted quantiles almost every round and fires within a
//! window's worth of observations.

use crate::{wilson_lower_bound, Latch, SloError, Transition};
use std::collections::VecDeque;

/// Configuration of a [`ConformanceChecker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConformanceConfig {
    /// PIT histogram bins.
    pub bins: usize,
    /// Sliding window of retained PIT observations.
    pub window: usize,
    /// Minimum observations before the drift test is consulted.
    pub min_samples: usize,
    /// The predicted quantile whose exceedance is monitored (e.g. 0.95:
    /// watch how often observations land above the model's 95th
    /// percentile).
    pub tail_quantile: f64,
    /// Drift raises when the exceedance rate provably exceeds this
    /// multiple of the predicted `1 − tail_quantile`.
    pub tail_tolerance: f64,
    /// Consecutive in-tolerance observations required to clear drift.
    pub hysteresis: u64,
}

impl Default for ConformanceConfig {
    fn default() -> Self {
        Self {
            bins: 20,
            window: 512,
            min_samples: 64,
            tail_quantile: 0.95,
            tail_tolerance: 2.0,
            hysteresis: 64,
        }
    }
}

impl ConformanceConfig {
    fn validate(&self) -> Result<(), SloError> {
        if self.bins < 2 {
            return Err(SloError::Invalid(format!(
                "need at least 2 PIT bins, got {}",
                self.bins
            )));
        }
        if self.window == 0 || self.min_samples == 0 || self.min_samples > self.window {
            return Err(SloError::Invalid(format!(
                "need 0 < min_samples ({}) <= window ({})",
                self.min_samples, self.window
            )));
        }
        if !(self.tail_quantile > 0.0 && self.tail_quantile < 1.0) {
            return Err(SloError::Invalid(format!(
                "tail quantile must be in (0, 1), got {}",
                self.tail_quantile
            )));
        }
        if !(self.tail_tolerance >= 1.0) || !self.tail_tolerance.is_finite() {
            return Err(SloError::Invalid(format!(
                "tail tolerance must be >= 1, got {}",
                self.tail_tolerance
            )));
        }
        Ok(())
    }
}

/// Online PIT-uniformity monitor with a one-sided drift alarm.
#[derive(Debug)]
pub struct ConformanceChecker {
    cfg: ConformanceConfig,
    ring: VecDeque<f64>,
    bin_counts: Vec<u64>,
    tail_count: u64,
    drift: Latch,
    observed: u64,
}

impl ConformanceChecker {
    /// Build a checker.
    ///
    /// # Errors
    /// [`SloError::Invalid`] for degenerate bins, windows or quantiles.
    pub fn new(cfg: ConformanceConfig) -> Result<Self, SloError> {
        cfg.validate()?;
        Ok(Self {
            ring: VecDeque::with_capacity(cfg.window + 1),
            bin_counts: vec![0; cfg.bins],
            tail_count: 0,
            cfg,
            drift: Latch::default(),
            observed: 0,
        })
    }

    fn bin_of(&self, u: f64) -> usize {
        ((u * self.cfg.bins as f64) as usize).min(self.cfg.bins - 1)
    }

    /// Whether the windowed evidence currently exceeds tolerance: the
    /// Wilson lower bound on the tail-exceedance rate is above
    /// `tail_tolerance × (1 − tail_quantile)`.
    fn out_of_tolerance(&self) -> bool {
        if self.ring.len() < self.cfg.min_samples {
            return false;
        }
        let lb = wilson_lower_bound(self.tail_count, self.ring.len() as u64);
        lb > self.cfg.tail_tolerance * (1.0 - self.cfg.tail_quantile)
    }

    /// Feed one PIT value `u = F_model(observed service time)`, clamped
    /// to `[0, 1]`. Returns a drift transition when the state changed.
    pub fn observe(&mut self, u: f64) -> Option<Transition> {
        let u = if u.is_finite() {
            u.clamp(0.0, 1.0)
        } else {
            1.0
        };
        self.ring.push_back(u);
        let bin = self.bin_of(u);
        self.bin_counts[bin] += 1;
        if u > self.cfg.tail_quantile {
            self.tail_count += 1;
        }
        if self.ring.len() > self.cfg.window {
            let old = self.ring.pop_front().expect("len > window >= 1");
            let old_bin = self.bin_of(old);
            self.bin_counts[old_bin] -= 1;
            if old > self.cfg.tail_quantile {
                self.tail_count -= 1;
            }
        }
        self.observed += 1;
        let out = self.out_of_tolerance();
        self.drift.observe(out, !out, self.cfg.hysteresis)
    }

    /// KS-style max deviation between the windowed empirical PIT CDF
    /// and the uniform CDF, evaluated at bin edges. 0 when empty.
    #[must_use]
    pub fn ks_statistic(&self) -> f64 {
        let n = self.ring.len();
        if n == 0 {
            return 0.0;
        }
        let mut cum = 0u64;
        let mut worst = 0.0f64;
        for (i, &c) in self.bin_counts.iter().enumerate() {
            cum += c;
            let emp = cum as f64 / n as f64;
            let uni = (i + 1) as f64 / self.cfg.bins as f64;
            worst = worst.max((emp - uni).abs());
        }
        worst
    }

    /// Fraction of windowed observations above the monitored quantile
    /// (healthy value ≈ `1 − tail_quantile`).
    #[must_use]
    pub fn tail_exceedance(&self) -> f64 {
        if self.ring.is_empty() {
            return 0.0;
        }
        self.tail_count as f64 / self.ring.len() as f64
    }

    /// Whether drift is currently active.
    #[must_use]
    pub fn drift_active(&self) -> bool {
        self.drift.active
    }

    /// Total PIT observations fed so far.
    #[must_use]
    pub fn observations(&self) -> u64 {
        self.observed
    }

    /// Drift alarms raised so far.
    #[must_use]
    pub fn drifts_raised(&self) -> u64 {
        self.drift.raised
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker() -> ConformanceChecker {
        ConformanceChecker::new(ConformanceConfig {
            window: 64,
            min_samples: 16,
            hysteresis: 16,
            ..ConformanceConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn invalid_configs_rejected() {
        let bad = |f: fn(&mut ConformanceConfig)| {
            let mut c = ConformanceConfig::default();
            f(&mut c);
            ConformanceChecker::new(c).is_err()
        };
        assert!(bad(|c| c.bins = 1));
        assert!(bad(|c| c.window = 0));
        assert!(bad(|c| c.min_samples = c.window + 1));
        assert!(bad(|c| c.tail_quantile = 1.0));
        assert!(bad(|c| c.tail_tolerance = 0.5));
    }

    #[test]
    fn uniform_pit_stays_quiet_with_low_ks() {
        let mut c = checker();
        // A deterministic low-discrepancy permutation of the uniform
        // grid (stride 197, coprime with 512): every sliding window
        // stays representative of the whole distribution.
        for i in 0u32..512 {
            let u = (f64::from((i * 197) % 512) + 0.5) / 512.0;
            assert_eq!(c.observe(u), None, "observation {i}");
        }
        assert!(!c.drift_active());
        assert!(c.ks_statistic() < 0.1, "ks {}", c.ks_statistic());
        assert!((c.tail_exceedance() - 0.05).abs() < 0.03);
    }

    #[test]
    fn conservative_model_never_alarms() {
        // Observations stochastically below prediction: every PIT value
        // in the lower half. KS is huge but the one-sided tail test
        // stays silent -- exactly the conservative-model posture.
        let mut c = checker();
        for i in 0..512 {
            let u = 0.5 * (f64::from(i % 64) + 0.5) / 64.0;
            assert_eq!(c.observe(u), None);
        }
        assert!(!c.drift_active());
        assert!(c.ks_statistic() > 0.4);
        assert_eq!(c.tail_exceedance(), 0.0);
    }

    #[test]
    fn tail_mass_raises_then_clears_with_hysteresis() {
        let mut c = checker();
        let mut raised_at = None;
        for i in 0..64 {
            if c.observe(0.99).is_some() {
                raised_at = Some(i);
                break;
            }
        }
        let raised_at = raised_at.expect("persistent tail mass must raise");
        assert!(raised_at >= 15, "needs min_samples first, got {raised_at}");
        assert!(c.drift_active());
        assert_eq!(c.drifts_raised(), 1);
        // Return to in-tolerance observations: the stale tail mass ages
        // out of the window, then hysteresis must still elapse.
        let mut cleared_after = None;
        for i in 0..200 {
            if c.observe(0.3) == Some(Transition::Cleared) {
                cleared_after = Some(i + 1);
                break;
            }
        }
        let cleared_after = cleared_after.expect("drift must clear");
        assert!(
            cleared_after >= 16,
            "cleared after only {cleared_after} quiet observations"
        );
        assert!(!c.drift_active());
    }

    #[test]
    fn non_finite_pit_counts_as_tail() {
        let mut c = checker();
        let mut raised = false;
        for _ in 0..64 {
            raised |= c.observe(f64::NAN).is_some();
        }
        assert!(raised, "NaN PIT values must be treated as exceedances");
    }

    #[test]
    fn window_slides() {
        let mut c = checker();
        for _ in 0..64 {
            c.observe(0.2);
        }
        for _ in 0..64 {
            c.observe(0.7);
        }
        // Window is entirely 0.7 now: bin mass concentrated there.
        assert_eq!(c.observations(), 128);
        assert_eq!(c.tail_exceedance(), 0.0);
        assert!(c.ks_statistic() > 0.5);
    }
}
