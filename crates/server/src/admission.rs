//! Table-driven stochastic admission control (§2.3, §5).
//!
//! The per-disk `N_max` is solved from the analytic model **once**
//! ([`crate::ModelTables`]); the controller then decides admissions with
//! a comparison — the paper's §5 design ("a lookup table with
//! precomputed values of N_max … incurs almost no run-time overhead").

use crate::ServerError;

/// Ceiling on cache-aware inflation: the enforced limit never exceeds
/// this multiple of the analytic `N_max`, whatever the measured hit
/// ratio.
pub const MAX_CACHE_INFLATION: u32 = 8;

/// The service-quality target the operator guarantees to clients: a
/// stream of `m` rounds suffers `g` or more glitches with probability at
/// most `epsilon` (eq. 3.3.6) — the per-stream guarantee the paper
/// advocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityTarget {
    /// Stream length in rounds (`M`).
    pub m: u64,
    /// Tolerated glitches per stream (`g`).
    pub g: u64,
    /// Tolerance on the per-stream failure probability.
    pub epsilon: f64,
}

impl QualityTarget {
    /// The per-stream-round glitch budget `p` this target admits — the
    /// denominator of the SLO burn rate: a stream of `m` rounds tolerates
    /// `g` glitches, i.e. `g/m` per round.
    #[must_use]
    pub fn glitch_budget(&self) -> f64 {
        if self.m == 0 {
            0.0
        } else {
            self.g as f64 / self.m as f64
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
    /// Build a controller enforcing a per-disk limit already solved from
    /// the model — a server's [`crate::ModelTables`] — or one that folds
    /// in effects the single-node model cannot see — e.g. a cluster's
    /// composed guarantee, which charges the glitch budget for
    /// lease-timeout outage and migration latency before solving for the
    /// feasible per-disk stream count.
    #[must_use]
    pub fn with_limit(per_disk_limit: u32) -> Self {
        Self {
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

    /// Decide whether one more stream fits, given the current per-disk
    /// stream counts. O(D).
    ///
    /// All streams rotate over the disks in lockstep (one fragment per
    /// round, one disk on), so a round's per-disk load vector is always a
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
    use crate::ModelTables;
    use mzd_core::GuaranteeModel;

    /// The paper's §4 target: at most 12 glitches in 1 200 rounds with
    /// probability 0.99.
    const PAPER: QualityTarget = QualityTarget {
        m: 1200,
        g: 12,
        epsilon: 0.01,
    };

    /// A controller on the paper's reference model at 1-s rounds, with
    /// the limit `target` solves to.
    fn controller(target: QualityTarget) -> AdmissionController {
        let model = GuaranteeModel::paper_reference().unwrap();
        let tables = ModelTables::solve(model, 1.0, target).unwrap();
        AdmissionController::with_limit(tables.per_disk_limit())
    }

    #[test]
    fn glitch_target_reproduces_paper_limit() {
        assert_eq!(controller(PAPER).per_disk_limit(), 28);
    }

    #[test]
    fn decisions_respect_the_most_loaded_disk() {
        // Three glitches per 1 200 rounds solves to N_max = 26.
        let c = controller(QualityTarget { g: 3, ..PAPER });
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
        let mut c = controller(PAPER);
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
        assert!((PAPER.glitch_budget() - 0.01).abs() < 1e-15);
        // Degenerate zero-length stream: no budget rather than a NaN.
        let t = QualityTarget {
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
        let mut c = controller(PAPER);
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
        let mut c = controller(PAPER);
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
        let mut c = controller(PAPER);
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
        let loose = controller(QualityTarget { g: 60, ..PAPER });
        let strict = controller(QualityTarget { g: 1, ..PAPER });
        assert!(strict.per_disk_limit() < loose.per_disk_limit());
    }
}
