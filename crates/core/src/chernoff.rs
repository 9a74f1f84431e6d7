//! The round service-time model and its Chernoff tail bound
//! (§3.1, eq. 3.1.1–3.1.6; §3.2, eq. 3.2.11–3.2.12).
//!
//! The total service time of a round with `N` requests is
//!
//! ```text
//! T_N = SEEK + Σᵢ T_rot,i + Σᵢ T_trans,i            (eq. 3.1.1)
//! ```
//!
//! with `SEEK` the Oyang worst-case constant, `T_rot,i ~ U(0, ROT)` i.i.d.
//! and `T_trans,i` i.i.d. Gamma (the moment-matched transfer model). Its
//! log-MGF is the sum of the component log-MGFs, and Chernoff's bound
//!
//! ```text
//! P[T_N ≥ t] ≤ inf_{θ≥0} e^{−θt}·M(θ) = inf_{θ≥0} exp(ln M(θ) − θt)
//! ```
//!
//! is evaluated by minimizing the *exponent* with Brent's method over the
//! open interval `(0, α)` where the Gamma MGF exists. The exponent is
//! convex (log-MGFs are convex, the `−θt` term is linear), so the local
//! minimum Brent finds is the global infimum.

use crate::transfer::TransferTimeModel;
use crate::{transform, CoreError};
use mzd_numerics::minimize::{brent_minimize, Minimum};
use std::sync::OnceLock;

/// Cached global-registry handles for the minimizer hot path (one lock
/// per process instead of one per bound evaluation).
fn chernoff_metrics() -> &'static (mzd_telemetry::Histogram, mzd_telemetry::Counter) {
    static METRICS: OnceLock<(mzd_telemetry::Histogram, mzd_telemetry::Counter)> = OnceLock::new();
    METRICS.get_or_init(|| {
        let g = mzd_telemetry::global();
        // Execution-scoped: how many evaluations the minimizer spends
        // (and which candidate points get evaluated at all) depends on
        // parallel range splitting, not on the modeled system.
        (
            g.execution_histogram("core.chernoff.iterations"),
            g.execution_counter("core.chernoff.converge_fail"),
        )
    })
}

/// The distribution model of one round's total service time for a fixed
/// number of requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundService {
    /// Accumulated SCAN seek constant `SEEK` for this `n`, seconds.
    seek: f64,
    /// Revolution time `ROT`, seconds.
    rot: f64,
    /// Per-request transfer-time Gamma.
    transfer: TransferTimeModel,
    /// Number of requests `N` in the round.
    n: u32,
}

/// Result of a Chernoff tail evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChernoffBound {
    /// The bound on `P[T_N ≥ t]`, clamped into `[0, 1]`.
    pub probability: f64,
    /// The optimizing exponent `θ*` (0 when the bound is vacuous).
    pub theta: f64,
}

impl RoundService {
    /// Build the model.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] for non-positive `rot` or negative `seek`.
    pub fn new(
        seek: f64,
        rot: f64,
        transfer: TransferTimeModel,
        n: u32,
    ) -> Result<Self, CoreError> {
        if !(rot > 0.0) || !rot.is_finite() {
            return Err(CoreError::Invalid(format!(
                "rotation time must be positive, got {rot}"
            )));
        }
        if !(seek >= 0.0) || !seek.is_finite() {
            return Err(CoreError::Invalid(format!(
                "seek constant must be nonnegative, got {seek}"
            )));
        }
        Ok(Self {
            seek,
            rot,
            transfer,
            n,
        })
    }

    /// Number of requests in the round.
    #[must_use]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// The accumulated-seek constant `SEEK`, seconds.
    #[must_use]
    pub fn seek_constant(&self) -> f64 {
        self.seek
    }

    /// Revolution time `ROT`, seconds.
    #[must_use]
    pub fn rotation_time(&self) -> f64 {
        self.rot
    }

    /// The per-request transfer-time model.
    #[must_use]
    pub fn transfer(&self) -> &TransferTimeModel {
        &self.transfer
    }

    /// `ln M(θ)` of `T_N` (eq. 3.1.4 with `s = −θ`, in logs):
    /// `θ·SEEK + N·ln((e^{θROT}−1)/(θROT)) + N·β·ln(α/(α−θ))`.
    /// `+∞` for `θ ≥ α`.
    #[must_use]
    pub fn log_mgf(&self, theta: f64) -> f64 {
        let nf = f64::from(self.n);
        transform::log_mgf_constant(theta, self.seek)
            + nf * transform::log_mgf_uniform(theta, self.rot)
            + nf * self.transfer.log_mgf(theta)
    }

    /// Exact mean `E[T_N] = SEEK + N·(ROT/2 + E[T_trans])`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.seek + f64::from(self.n) * (self.rot / 2.0 + self.transfer.mean())
    }

    /// Exact variance `Var[T_N] = N·(ROT²/12 + Var[T_trans])`.
    #[must_use]
    pub fn variance(&self) -> f64 {
        f64::from(self.n) * (self.rot * self.rot / 12.0 + self.transfer.variance())
    }

    /// The Chernoff bound on `P[T_N ≥ t]` (eq. 3.1.5–3.1.6 / 3.2.12).
    ///
    /// For `n == 0` the round is the deterministic `SEEK` (which is 0), so
    /// the tail is exactly 0 or 1. For `t ≤ E[T_N]` the infimum is at
    /// `θ = 0` and the bound is the vacuous 1.
    #[must_use]
    pub fn p_late_bound(&self, t: f64) -> ChernoffBound {
        let upper = self.transfer.alpha() * (1.0 - 1e-9);
        let log_mgf = |theta: f64| self.log_mgf(theta);
        chernoff_bound(self.n, self.seek, self.mean(), t, upper, log_mgf, |brent| {
            let (iterations, converge_fail) = chernoff_metrics();
            let _span = mzd_telemetry::span!("core.chernoff.minimize");
            let m = brent().unwrap_or_else(|e| {
                converge_fail.inc();
                panic!("interval (0, alpha) is valid by construction: {e}")
            });
            iterations.record(m.evaluations as f64);
            m
        })
    }
}

/// The Chernoff bound on `P[T ≥ t]` for a round of `requests` requests
/// whose total has log-MGF `log_mgf`, mean `mean` and constant part
/// `seek` — the step [`RoundService`] and
/// [`crate::mixed::MixedRoundModel`] share. An empty round is the
/// constant `seek`, so its tail is exactly 0 or 1; for `t ≤ mean` the
/// infimum is at `θ = 0` and the bound is the vacuous 1. Otherwise
/// Brent's method minimizes the exponent `ln M(θ) − θt` over
/// `(0, upper)`. `search` runs that minimization and returns its
/// minimum, so each caller keeps its own instrumentation and failure
/// handling.
pub(crate) fn chernoff_bound(
    requests: u32,
    seek: f64,
    mean: f64,
    t: f64,
    upper: f64,
    log_mgf: impl Fn(f64) -> f64,
    search: impl FnOnce(&dyn Fn() -> mzd_numerics::Result<Minimum>) -> Minimum,
) -> ChernoffBound {
    if requests == 0 {
        return ChernoffBound {
            probability: if t > seek { 0.0 } else { 1.0 },
            theta: 0.0,
        };
    }
    // The bound can only be nontrivial past the mean.
    if t <= mean {
        return ChernoffBound {
            probability: 1.0,
            theta: 0.0,
        };
    }
    let objective = |theta: f64| log_mgf(theta) - theta * t;
    let m = search(&|| brent_minimize(objective, 0.0, upper, 1e-12));
    ChernoffBound {
        probability: m.value.min(0.0).exp().min(1.0),
        theta: m.x,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The §3.1 worked example: single-zone disk, N = 27,
    /// SEEK = 0.10932 s, ROT = 8.34 ms, E[T_trans] = 0.02174 s,
    /// Var[T_trans] = 0.00011815 s².
    fn paper_31_model(n: u32) -> RoundService {
        let seek = mzd_disk::oyang::seek_bound(
            &mzd_disk::SeekCurve::paper_form(1.867e-3, 1.315e-4, 3.8635e-3, 2.1e-6, 1344.0)
                .unwrap(),
            6720,
            n,
        );
        let transfer = TransferTimeModel::from_moments(0.02174, 0.00011815).unwrap();
        RoundService::new(seek, 0.00834, transfer, n).unwrap()
    }

    #[test]
    fn reproduces_paper_31_example_n27() {
        // Paper: p_late ≈ 0.0103 for N = 27, t = 1 s.
        let b = paper_31_model(27).p_late_bound(1.0);
        assert!(
            (b.probability - 0.0103).abs() < 0.0015,
            "p_late(27) = {}",
            b.probability
        );
        assert!(b.theta > 0.0);
    }

    #[test]
    fn reproduces_paper_31_example_n26() {
        // Paper: p_late ≈ 0.00225 for N = 26.
        let b = paper_31_model(26).p_late_bound(1.0);
        assert!(
            (b.probability - 0.00225).abs() < 0.0006,
            "p_late(26) = {}",
            b.probability
        );
    }

    #[test]
    fn mean_and_variance_formulas() {
        let m = paper_31_model(27);
        let expected_mean = 0.109_317 + 27.0 * (0.00834 / 2.0 + 0.02174);
        assert!((m.mean() - expected_mean).abs() < 1e-4);
        let expected_var = 27.0 * (0.00834f64.powi(2) / 12.0 + 0.00011815);
        assert!((m.variance() - expected_var).abs() < 1e-9);
    }

    #[test]
    fn bound_is_monotone_decreasing_in_t() {
        let m = paper_31_model(27);
        let mut prev = 1.0;
        for i in 0..20 {
            let t = 0.85 + 0.025 * f64::from(i);
            let b = m.p_late_bound(t).probability;
            assert!(b <= prev + 1e-12, "t = {t}: {b} > {prev}");
            prev = b;
        }
    }

    #[test]
    fn bound_is_monotone_increasing_in_n() {
        let mut prev = 0.0;
        for n in 20..32 {
            let b = paper_31_model(n).p_late_bound(1.0).probability;
            assert!(b >= prev - 1e-12, "n = {n}: {b} < {prev}");
            prev = b;
        }
    }

    #[test]
    fn vacuous_below_the_mean() {
        let m = paper_31_model(27);
        let b = m.p_late_bound(m.mean() * 0.99);
        assert_eq!(b.probability, 1.0);
        assert_eq!(b.theta, 0.0);
    }

    #[test]
    fn empty_round_is_deterministic() {
        let transfer = TransferTimeModel::from_moments(0.02, 1e-4).unwrap();
        let m = RoundService::new(0.0, 0.00834, transfer, 0).unwrap();
        assert_eq!(m.p_late_bound(0.5).probability, 0.0);
        assert_eq!(m.p_late_bound(0.0).probability, 1.0);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance(), 0.0);
    }

    #[test]
    fn markov_sanity_vs_exponential_tail() {
        // For a single exponential-ish Gamma the Chernoff bound must be at
        // least the exact tail: P[X ≥ t] for Gamma(rate α, shape β).
        let transfer = TransferTimeModel::from_moments(0.02, 0.0004).unwrap(); // β = 1: exponential
        let m = RoundService::new(0.0, 1e-9, transfer, 1).unwrap();
        for &t in &[0.05, 0.1, 0.2] {
            let exact = (-t / 0.02f64).exp(); // P[Exp(mean 0.02) ≥ t]
            let bound = m.p_late_bound(t).probability;
            assert!(
                bound >= exact * 0.99,
                "t = {t}: bound {bound} below exact {exact}"
            );
            // For an exponential the optimized Chernoff bound is exactly
            // (t/m)·e^{1−t/m} = exact · e·(t/m); allow a small slack for
            // the (negligible but nonzero) rotational term in the model.
            assert!(
                bound <= exact * (t / 0.02) * std::f64::consts::E * 1.02,
                "t = {t}: bound {bound} vs exact {exact}"
            );
        }
    }

    #[test]
    fn log_mgf_zero_is_zero() {
        let m = paper_31_model(10);
        assert_eq!(m.log_mgf(0.0), 0.0);
        assert!(m.log_mgf(1.0) > 0.0); // positive for θ > 0 (positive mean)
        assert_eq!(m.log_mgf(m.transfer.alpha() + 1.0), f64::INFINITY);
    }

    #[test]
    fn invalid_construction_rejected() {
        let transfer = TransferTimeModel::from_moments(0.02, 1e-4).unwrap();
        assert!(RoundService::new(0.0, 0.0, transfer, 1).is_err());
        assert!(RoundService::new(-1.0, 0.00834, transfer, 1).is_err());
        assert!(RoundService::new(f64::NAN, 0.00834, transfer, 1).is_err());
    }
}
