//! Table-driven stochastic admission control (§2.3, §5).
//!
//! The controller is configured with a quality target, precomputes the
//! per-disk `N_max` from the analytic model **once**, and thereafter
//! decides admissions with a comparison — the paper's §5 design ("a lookup
//! table with precomputed values of N_max … incurs almost no run-time
//! overhead").

use crate::ServerError;
use mzd_core::GuaranteeModel;

/// Ceiling on cache-aware inflation: the enforced limit never exceeds
/// this multiple of the analytic `N_max`, whatever the measured hit
/// ratio.
pub const MAX_CACHE_INFLATION: u32 = 8;

/// The service-quality target the operator guarantees to clients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QualityTarget {
    /// Bound the probability that any round overruns: `p_late ≤ delta`
    /// (eq. 3.1.7).
    RoundOverrun {
        /// Tolerance on the per-round overrun probability.
        delta: f64,
    },
    /// Bound the probability that a stream of `m` rounds suffers `g` or
    /// more glitches: `p_error ≤ epsilon` (eq. 3.3.6) — the per-stream
    /// guarantee the paper advocates.
    GlitchRate {
        /// Stream length in rounds (`M`).
        m: u64,
        /// Tolerated glitches per stream (`g`).
        g: u64,
        /// Tolerance on the per-stream failure probability.
        epsilon: f64,
    },
}

impl QualityTarget {
    /// The per-disk `N_max` this target admits under `model` at
    /// `round_length`: eq. 3.1.7 for a round-overrun target, eq. 3.3.6
    /// for a glitch-rate target. One admission scan, one Chernoff
    /// solve per probe.
    ///
    /// # Errors
    /// Propagates model-evaluation errors (invalid `t` or thresholds).
    pub fn n_max(&self, model: &GuaranteeModel, round_length: f64) -> Result<u32, ServerError> {
        Ok(match *self {
            QualityTarget::RoundOverrun { delta } => model.n_max_late(round_length, delta)?,
            QualityTarget::GlitchRate { m, g, epsilon } => {
                model.n_max_error(round_length, m, g, epsilon)?
            }
        })
    }

    /// The per-stream-round glitch budget `p` this target admits — the
    /// denominator of the SLO burn rate. For a round-overrun target a
    /// glitch is tolerated with probability `delta` each round; for the
    /// per-stream glitch-rate target the stream of `m` rounds tolerates
    /// `g` glitches, i.e. `g/m` per round.
    #[must_use]
    pub fn glitch_budget(&self) -> f64 {
        match *self {
            QualityTarget::RoundOverrun { delta } => delta,
            QualityTarget::GlitchRate { m, g, .. } => {
                if m == 0 {
                    0.0
                } else {
                    g as f64 / m as f64
                }
            }
        }
    }
}

/// Outcome of an admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// The stream may be opened.
    Admit,
    /// The stream must be rejected or postponed: admitting it would push
    /// some disk past the per-disk limit.
    Reject {
        /// The per-disk stream limit in force.
        per_disk_limit: u32,
    },
}

/// Precomputed admission controller.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionController {
    target: QualityTarget,
    round_length: f64,
    per_disk_limit: u32,
    /// Cache-aware inflation: `Some(safety)` admits up to
    /// `N_max / (1 − h·(1−safety))` per disk, `h` the measured
    /// disk-avoidance lower bound fed in via
    /// [`AdmissionController::set_hit_ratio_lower_bound`].
    cache_safety: Option<f64>,
    hit_ratio_lower_bound: f64,
    /// SLO brake: while a fast-burn alert is active the limit falls back
    /// to the analytic `N_max` — measured cache evidence is clearly not
    /// holding up, so over-admission on top of it must stop.
    over_admission_frozen: bool,
}

impl AdmissionController {
    /// Derive the per-disk limit from the analytic model for the given
    /// target and round length. This is the only expensive call (one
    /// admission scan, [`QualityTarget::n_max`]: one Chernoff
    /// optimization per candidate `N`, a few dozen at 1-s rounds and a
    /// few hundred at 8-s rounds); store the controller and decide in
    /// O(1) afterwards.
    ///
    /// # Errors
    /// Propagates model-evaluation errors (invalid `t` or thresholds).
    pub fn from_model(
        model: &GuaranteeModel,
        round_length: f64,
        target: QualityTarget,
    ) -> Result<Self, ServerError> {
        Ok(Self::with_limit(
            target.n_max(model, round_length)?,
            round_length,
            target,
        ))
    }

    /// Build a controller enforcing an explicitly supplied per-disk
    /// limit instead of deriving it from the model. Used where the limit
    /// is already solved — a server's [`crate::ModelTables`] — or folds
    /// in effects the single-node model cannot see — e.g. a cluster's
    /// composed guarantee, which charges the glitch budget for
    /// lease-timeout outage and migration latency before solving for the
    /// feasible per-disk stream count.
    #[must_use]
    pub fn with_limit(per_disk_limit: u32, round_length: f64, target: QualityTarget) -> Self {
        Self {
            target,
            round_length,
            per_disk_limit,
            cache_safety: None,
            hit_ratio_lower_bound: 0.0,
            over_admission_frozen: false,
        }
    }

    /// The per-disk stream limit the analytic model yields (before any
    /// cache-aware inflation).
    #[must_use]
    pub fn per_disk_limit(&self) -> u32 {
        self.per_disk_limit
    }

    /// Enable cache-aware admission with the given safety margin in
    /// `[0, 1]`: disk traffic thinned by a cache with measured avoidance
    /// ratio `h` lets each disk carry `N_max / (1 − h·(1−safety))`
    /// streams. `safety = 1` never inflates; `safety = 0` trusts the
    /// measured lower bound fully.
    ///
    /// # Errors
    /// [`ServerError::Invalid`] for `safety` outside `[0, 1]`.
    pub fn enable_cache_aware(&mut self, safety: f64) -> Result<(), ServerError> {
        if !(0.0..=1.0).contains(&safety) {
            return Err(ServerError::Invalid(format!(
                "cache-aware admission safety must be in [0, 1], got {safety}"
            )));
        }
        self.cache_safety = Some(safety);
        Ok(())
    }

    /// Whether cache-aware inflation is enabled.
    #[must_use]
    pub fn is_cache_aware(&self) -> bool {
        self.cache_safety.is_some()
    }

    /// Feed the latest conservative lower bound on the cache's
    /// disk-avoidance ratio (e.g. [`mzd_slo::wilson_lower_bound`]
    /// over a recent measurement window). Clamped to `[0, 1)`. No-op
    /// semantically unless cache-aware mode is enabled.
    pub fn set_hit_ratio_lower_bound(&mut self, h: f64) {
        self.hit_ratio_lower_bound = if h.is_finite() {
            h.clamp(0.0, 1.0 - 1e-9)
        } else {
            0.0
        };
    }

    /// Freeze (or thaw) cache-aware over-admission. While frozen,
    /// [`Self::effective_per_disk_limit`] returns the analytic `N_max`
    /// regardless of the measured hit ratio; the cache-aware
    /// configuration and the fed measurements are retained, so thawing
    /// restores inflation instantly. Driven by the SLO layer's fast-burn
    /// alert.
    pub fn set_over_admission_frozen(&mut self, frozen: bool) {
        self.over_admission_frozen = frozen;
    }

    /// Whether cache-aware over-admission is currently frozen.
    #[must_use]
    pub fn over_admission_frozen(&self) -> bool {
        self.over_admission_frozen
    }

    /// The per-disk limit actually enforced: the model's `N_max`, divided
    /// by the fraction of requests the disks still see once the cache
    /// absorbs its (conservatively measured) share. Equal to
    /// [`Self::per_disk_limit`] when cache-aware mode is off, no hit
    /// ratio has been established, or over-admission is frozen by an
    /// active SLO alert.
    #[must_use]
    pub fn effective_per_disk_limit(&self) -> u32 {
        if self.over_admission_frozen {
            return self.per_disk_limit;
        }
        let Some(safety) = self.cache_safety else {
            return self.per_disk_limit;
        };
        let discount = 1.0 - self.hit_ratio_lower_bound * (1.0 - safety);
        // discount ∈ (0, 1]: hit_ratio < 1 and safety ≥ 0.
        let inflated = f64::from(self.per_disk_limit) / discount;
        // Cap the inflation so a pathological measurement cannot admit
        // unboundedly; 8× already implies h ≳ 0.88 sustained.
        let cap = f64::from(self.per_disk_limit) * f64::from(MAX_CACHE_INFLATION);
        inflated.min(cap).floor() as u32
    }

    /// The round length the limit was computed for, seconds.
    #[must_use]
    pub fn round_length(&self) -> f64 {
        self.round_length
    }

    /// Decide whether one more stream fits, given the current per-disk
    /// stream counts. O(D).
    ///
    /// All streams rotate over the disks in lockstep (one fragment per
    /// round, stride 1), so a round's per-disk load vector is always a
    /// rotation of the start-offset histogram: a new stream permanently
    /// adds one to exactly one *offset*. It fits iff some offset is below
    /// the per-disk limit — i.e. iff the least-loaded disk has headroom.
    #[must_use]
    pub fn decide(&self, per_disk_active: &[u32]) -> AdmissionDecision {
        let limit = self.effective_per_disk_limit();
        let min_load = per_disk_active.iter().copied().min().unwrap_or(0);
        if min_load < limit {
            AdmissionDecision::Admit
        } else {
            AdmissionDecision::Reject {
                per_disk_limit: limit,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> GuaranteeModel {
        GuaranteeModel::paper_reference().unwrap()
    }

    #[test]
    fn overrun_target_reproduces_paper_limit() {
        let c = AdmissionController::from_model(
            &model(),
            1.0,
            QualityTarget::RoundOverrun { delta: 0.01 },
        )
        .unwrap();
        assert_eq!(c.per_disk_limit(), 26);
        assert_eq!(c.round_length(), 1.0);
    }

    #[test]
    fn glitch_target_reproduces_paper_limit() {
        let c = AdmissionController::from_model(
            &model(),
            1.0,
            QualityTarget::GlitchRate {
                m: 1200,
                g: 12,
                epsilon: 0.01,
            },
        )
        .unwrap();
        assert_eq!(c.per_disk_limit(), 28);
    }

    #[test]
    fn decisions_respect_the_most_loaded_disk() {
        let c = AdmissionController::from_model(
            &model(),
            1.0,
            QualityTarget::RoundOverrun { delta: 0.01 },
        )
        .unwrap();
        assert_eq!(c.decide(&[0, 0, 0]), AdmissionDecision::Admit);
        assert_eq!(c.decide(&[25, 25, 25]), AdmissionDecision::Admit);
        // One full offset doesn't block admission — the new stream takes a
        // different start offset.
        assert_eq!(c.decide(&[26, 10, 10]), AdmissionDecision::Admit);
        assert_eq!(
            c.decide(&[26, 26, 26]),
            AdmissionDecision::Reject { per_disk_limit: 26 }
        );
        // No disks at all: vacuously admit (the server constructor forbids
        // zero disks; this is just the max() default).
        assert_eq!(c.decide(&[]), AdmissionDecision::Admit);
    }

    #[test]
    fn cache_aware_mode_inflates_conservatively() {
        let mut c = AdmissionController::from_model(
            &model(),
            1.0,
            QualityTarget::GlitchRate {
                m: 1200,
                g: 12,
                epsilon: 0.01,
            },
        )
        .unwrap();
        let base = c.per_disk_limit();
        assert_eq!(base, 28);
        assert!(!c.is_cache_aware());
        // Without enabling, a fed hit ratio changes nothing.
        c.set_hit_ratio_lower_bound(0.5);
        assert_eq!(c.effective_per_disk_limit(), base);

        c.enable_cache_aware(0.2).unwrap();
        assert!(c.is_cache_aware());
        // h = 0.5, safety 0.2: limit = 28 / (1 − 0.5·0.8) = 46.67 → 46.
        assert_eq!(c.effective_per_disk_limit(), 46);
        assert_eq!(c.decide(&[40]), AdmissionDecision::Admit);
        assert_eq!(
            c.decide(&[46]),
            AdmissionDecision::Reject { per_disk_limit: 46 }
        );
        // No evidence → no inflation.
        c.set_hit_ratio_lower_bound(0.0);
        assert_eq!(c.effective_per_disk_limit(), base);
        // Pathological h → bounded by 1/safety (here 5×) and never panics.
        c.set_hit_ratio_lower_bound(1.0);
        assert_eq!(c.effective_per_disk_limit(), 139);
        // With no safety margin the 8× hard cap takes over.
        c.enable_cache_aware(0.0).unwrap();
        c.set_hit_ratio_lower_bound(1.0);
        assert_eq!(c.effective_per_disk_limit(), base * 8);
        c.set_hit_ratio_lower_bound(f64::NAN);
        assert_eq!(c.effective_per_disk_limit(), base);
        // safety = 1 never inflates regardless of h.
        c.enable_cache_aware(1.0).unwrap();
        c.set_hit_ratio_lower_bound(0.9);
        assert_eq!(c.effective_per_disk_limit(), base);
        // Invalid safety rejected.
        assert!(c.enable_cache_aware(-0.1).is_err());
        assert!(c.enable_cache_aware(1.1).is_err());
    }

    #[test]
    fn glitch_budget_matches_target_semantics() {
        assert_eq!(
            QualityTarget::RoundOverrun { delta: 0.01 }.glitch_budget(),
            0.01
        );
        let t = QualityTarget::GlitchRate {
            m: 1200,
            g: 12,
            epsilon: 0.01,
        };
        assert!((t.glitch_budget() - 0.01).abs() < 1e-15);
        // Degenerate zero-length stream: no budget rather than a NaN.
        let t = QualityTarget::GlitchRate {
            m: 0,
            g: 3,
            epsilon: 0.01,
        };
        assert_eq!(t.glitch_budget(), 0.0);
    }

    #[test]
    fn wilson_bound_edge_cases_feed_sane_limits() {
        // The measured hit ratio fed into cache-aware admission is the
        // Wilson lower bound from mzd-cache; pin its edge cases and the
        // limits they induce end to end.
        let mut c = AdmissionController::from_model(
            &model(),
            1.0,
            QualityTarget::GlitchRate {
                m: 1200,
                g: 12,
                epsilon: 0.01,
            },
        )
        .unwrap();
        let base = c.per_disk_limit();
        c.enable_cache_aware(0.0).unwrap();

        // Zero lookups: no evidence, bound 0, no inflation.
        let h = mzd_slo::wilson_lower_bound(0, 0);
        assert_eq!(h, 0.0);
        c.set_hit_ratio_lower_bound(h);
        assert_eq!(c.effective_per_disk_limit(), base);

        // All misses: bound 0 at any sample size.
        assert_eq!(mzd_slo::wilson_lower_bound(0, 10_000), 0.0);

        // All hits: the bound stays strictly below 1 (it is a *lower*
        // confidence bound) and grows with the sample size.
        let small = mzd_slo::wilson_lower_bound(16, 16);
        let large = mzd_slo::wilson_lower_bound(100_000, 100_000);
        assert!(small > 0.0 && small < 1.0);
        assert!(large > small && large < 1.0);

        // successes > trials is clamped rather than exceeding 1.
        assert!(mzd_slo::wilson_lower_bound(20, 10) < 1.0);
    }

    #[test]
    fn eight_x_cap_boundary() {
        let mut c = AdmissionController::from_model(
            &model(),
            1.0,
            QualityTarget::GlitchRate {
                m: 1200,
                g: 12,
                epsilon: 0.01,
            },
        )
        .unwrap();
        let base = c.per_disk_limit();
        c.enable_cache_aware(0.0).unwrap();
        // Exactly at the cap: h = 1 − 1/8 = 0.875 gives inflation 8×.
        c.set_hit_ratio_lower_bound(0.875);
        assert_eq!(c.effective_per_disk_limit(), base * 8);
        // Just below: strictly less than the cap.
        c.set_hit_ratio_lower_bound(0.875 - 1e-6);
        assert!(c.effective_per_disk_limit() < base * 8);
        // Beyond: clamped to exactly the cap, never more.
        c.set_hit_ratio_lower_bound(0.99);
        assert_eq!(c.effective_per_disk_limit(), base * 8);
        c.set_hit_ratio_lower_bound(1.0);
        assert_eq!(c.effective_per_disk_limit(), base * 8);
    }

    #[test]
    fn freeze_restores_analytic_limit_and_thaws_cleanly() {
        let mut c = AdmissionController::from_model(
            &model(),
            1.0,
            QualityTarget::GlitchRate {
                m: 1200,
                g: 12,
                epsilon: 0.01,
            },
        )
        .unwrap();
        let base = c.per_disk_limit();
        c.enable_cache_aware(0.0).unwrap();
        c.set_hit_ratio_lower_bound(0.5);
        let inflated = c.effective_per_disk_limit();
        assert!(inflated > base);
        assert!(!c.over_admission_frozen());

        c.set_over_admission_frozen(true);
        assert!(c.over_admission_frozen());
        assert_eq!(c.effective_per_disk_limit(), base);
        // Decisions use the frozen limit.
        assert_eq!(
            c.decide(&[base]),
            AdmissionDecision::Reject {
                per_disk_limit: base
            }
        );
        // Measurements fed while frozen are retained, not applied.
        c.set_hit_ratio_lower_bound(0.8);
        assert_eq!(c.effective_per_disk_limit(), base);

        c.set_over_admission_frozen(false);
        assert!(c.effective_per_disk_limit() > inflated, "h rose to 0.8");
    }

    #[test]
    fn stricter_targets_admit_fewer() {
        let loose = AdmissionController::from_model(
            &model(),
            1.0,
            QualityTarget::RoundOverrun { delta: 0.05 },
        )
        .unwrap();
        let strict = AdmissionController::from_model(
            &model(),
            1.0,
            QualityTarget::RoundOverrun { delta: 0.001 },
        )
        .unwrap();
        assert!(strict.per_disk_limit() < loose.per_disk_limit());
    }
}
