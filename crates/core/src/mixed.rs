//! Mixed continuous/discrete workloads — the §6 outlook, built on the
//! \[NMW97\] line of models.
//!
//! The paper's future-work section advocates sharing disks between
//! continuous streams and conventional "discrete" requests (HTML pages,
//! images). Because the Chernoff machinery of §3 only needs the log-MGF
//! of the round total, it extends directly to a *multi-class* round: `N`
//! continuous requests plus `K` discrete requests served in the same SCAN
//! sweep have
//!
//! ```text
//! T = SEEK(N+K) + Σ_{N+K} T_rot,i + Σ_N T_trans,i + Σ_K T_disc,j
//! ```
//!
//! with each class's transfer times Gamma-modeled as in §3.1–3.2. The
//! resulting bound answers the provisioning question the paper poses: how
//! many discrete requests per round can be admitted alongside `N` streams
//! without eroding their glitch guarantee?

use crate::chernoff::{chernoff_bound, ChernoffBound};
use crate::transfer::TransferTimeModel;
use crate::{transform, CoreError};

/// A request class in a mixed round: a transfer-time law and a count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestClass {
    /// Moment-matched transfer-time Gamma for this class.
    pub transfer: TransferTimeModel,
    /// Number of requests of this class in the round.
    pub count: u32,
}

/// A round serving several request classes in one SCAN sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedRoundModel {
    seek: f64,
    rot: f64,
    classes: Vec<RequestClass>,
}

impl MixedRoundModel {
    /// Build a mixed round model. `seek` must already account for the
    /// *total* request count (use the Oyang bound at `Σ count`).
    ///
    /// # Errors
    /// [`CoreError::Invalid`] for a non-positive rotation time or negative
    /// seek constant.
    pub fn new(seek: f64, rot: f64, classes: Vec<RequestClass>) -> Result<Self, CoreError> {
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
        Ok(Self { seek, rot, classes })
    }

    /// Total number of requests across classes.
    #[must_use]
    pub fn total_requests(&self) -> u32 {
        self.classes.iter().map(|c| c.count).sum()
    }

    /// `ln M(θ)` of the mixed round total; `+∞` beyond the smallest class
    /// rate.
    #[must_use]
    pub fn log_mgf(&self, theta: f64) -> f64 {
        let total = f64::from(self.total_requests());
        let mut acc = transform::log_mgf_constant(theta, self.seek)
            + total * transform::log_mgf_uniform(theta, self.rot);
        for c in &self.classes {
            acc += f64::from(c.count) * c.transfer.log_mgf(theta);
        }
        acc
    }

    /// Exact mean of the mixed round total.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let total = f64::from(self.total_requests());
        self.seek
            + total * self.rot / 2.0
            + self
                .classes
                .iter()
                .map(|c| f64::from(c.count) * c.transfer.mean())
                .sum::<f64>()
    }

    /// Exact variance of the mixed round total.
    #[must_use]
    pub fn variance(&self) -> f64 {
        let total = f64::from(self.total_requests());
        total * self.rot * self.rot / 12.0
            + self
                .classes
                .iter()
                .map(|c| f64::from(c.count) * c.transfer.variance())
                .sum::<f64>()
    }

    /// Chernoff bound on `P[T ≥ t]`, exactly as in the single-class case
    /// but with the multi-class MGF. The optimization interval ends at the
    /// smallest class α (the first MGF pole).
    #[must_use]
    pub fn p_late_bound(&self, t: f64) -> ChernoffBound {
        let alpha_min = self
            .classes
            .iter()
            .filter(|c| c.count > 0)
            .map(|c| c.transfer.alpha())
            .fold(f64::INFINITY, f64::min);
        let upper = if alpha_min.is_finite() {
            alpha_min * (1.0 - 1e-9)
        } else {
            // No transfer classes with requests: rotation-only round; any
            // large θ works, the uniform MGF is entire.
            1e9
        };
        let log_mgf = |theta: f64| self.log_mgf(theta);
        chernoff_bound(
            self.total_requests(),
            self.seek,
            self.mean(),
            t,
            upper,
            log_mgf,
            |brent| brent().expect("optimization interval is valid by construction"),
        )
    }
}

/// The provisioning question of §6: with `n` continuous streams admitted
/// on the disk, how many discrete requests per round keep the round-
/// overrun bound at or below `delta`?
///
/// `seek_for_total` must map a total request count to the round's SEEK
/// constant (normally the Oyang bound). Searches `k` upward; the bound is
/// monotone in `k`.
///
/// # Errors
/// [`CoreError::Invalid`] for invalid `t`, `delta`, or model parameters.
pub fn discrete_capacity<F: Fn(u32) -> f64>(
    continuous: TransferTimeModel,
    discrete: TransferTimeModel,
    n: u32,
    t: f64,
    delta: f64,
    rot: f64,
    seek_for_total: F,
) -> Result<u32, CoreError> {
    if !(t > 0.0) || !t.is_finite() {
        return Err(CoreError::Invalid(format!(
            "round length must be positive, got {t}"
        )));
    }
    crate::validate_threshold(delta)?;
    let bound_for = |k: u32| -> Result<f64, CoreError> {
        let model = MixedRoundModel::new(
            seek_for_total(n + k),
            rot,
            vec![
                RequestClass {
                    transfer: continuous,
                    count: n,
                },
                RequestClass {
                    transfer: discrete,
                    count: k,
                },
            ],
        )?;
        Ok(model.p_late_bound(t).probability)
    };
    // The continuous load alone must satisfy the target.
    if bound_for(0)? > delta {
        return Ok(0);
    }
    let mut k = 0u32;
    while k < crate::admission::N_SEARCH_CAP && bound_for(k + 1)? <= delta {
        k += 1;
    }
    Ok(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mzd_disk::oyang;

    fn continuous_transfer() -> TransferTimeModel {
        // The paper's multi-zone 200 KB fragments.
        TransferTimeModel::from_moments(0.02165, 1.308e-4).unwrap()
    }

    fn discrete_transfer() -> TransferTimeModel {
        // Small discrete objects: mean 20 KB, sd 20 KB at ~9 MB/s.
        TransferTimeModel::from_moments(0.0022, 4.8e-6).unwrap()
    }

    fn viking_seek(total: u32) -> f64 {
        let curve =
            mzd_disk::SeekCurve::paper_form(1.867e-3, 1.315e-4, 3.8635e-3, 2.1e-6, 1344.0).unwrap();
        oyang::seek_bound(&curve, 6720, total)
    }

    #[test]
    fn single_class_reduces_to_round_service() {
        // A mixed model with one class must match RoundService exactly.
        let n = 26u32;
        let mixed = MixedRoundModel::new(
            viking_seek(n),
            0.00834,
            vec![RequestClass {
                transfer: continuous_transfer(),
                count: n,
            }],
        )
        .unwrap();
        let single =
            crate::chernoff::RoundService::new(viking_seek(n), 0.00834, continuous_transfer(), n)
                .unwrap();
        assert!((mixed.mean() - single.mean()).abs() < 1e-15);
        assert!((mixed.variance() - single.variance()).abs() < 1e-18);
        let bm = mixed.p_late_bound(1.0);
        let bs = single.p_late_bound(1.0);
        assert!((bm.probability - bs.probability).abs() < 1e-9);
    }

    #[test]
    fn discrete_requests_increase_the_bound() {
        let n = 24u32;
        let mut prev = 0.0;
        for k in [0u32, 10, 30, 60] {
            let m = MixedRoundModel::new(
                viking_seek(n + k),
                0.00834,
                vec![
                    RequestClass {
                        transfer: continuous_transfer(),
                        count: n,
                    },
                    RequestClass {
                        transfer: discrete_transfer(),
                        count: k,
                    },
                ],
            )
            .unwrap();
            let p = m.p_late_bound(1.0).probability;
            assert!(p >= prev - 1e-12, "k = {k}: {p} < {prev}");
            prev = p;
        }
    }

    #[test]
    fn discrete_capacity_search() {
        // At N = 24 continuous streams (bound ~1e-4) there is room for a
        // healthy batch of small discrete requests before hitting 1%.
        let k = discrete_capacity(
            continuous_transfer(),
            discrete_transfer(),
            24,
            1.0,
            0.01,
            0.00834,
            viking_seek,
        )
        .unwrap();
        // Each discrete request costs ~10 ms (rotation + small transfer +
        // seek share); the headroom between N = 24 (bound ~1e-4) and the
        // 1% target buys high single digits of them.
        assert!(k >= 5, "discrete capacity {k} too small");
        assert!(k < 100, "discrete capacity {k} implausibly large");
        // And the bound at k is within target while k+1 is not.
        let at = MixedRoundModel::new(
            viking_seek(24 + k),
            0.00834,
            vec![
                RequestClass {
                    transfer: continuous_transfer(),
                    count: 24,
                },
                RequestClass {
                    transfer: discrete_transfer(),
                    count: k,
                },
            ],
        )
        .unwrap();
        assert!(at.p_late_bound(1.0).probability <= 0.01);
    }

    #[test]
    fn discrete_capacity_zero_when_continuous_saturates() {
        // At N = 30 the continuous bound alone exceeds 1%: no discrete room.
        let k = discrete_capacity(
            continuous_transfer(),
            discrete_transfer(),
            30,
            1.0,
            0.01,
            0.00834,
            viking_seek,
        )
        .unwrap();
        assert_eq!(k, 0);
    }

    #[test]
    fn discrete_capacity_grows_as_streams_shrink() {
        let cap = |n: u32| {
            discrete_capacity(
                continuous_transfer(),
                discrete_transfer(),
                n,
                1.0,
                0.01,
                0.00834,
                viking_seek,
            )
            .unwrap()
        };
        let k20 = cap(20);
        let k24 = cap(24);
        let k26 = cap(26);
        assert!(k20 > k24 && k24 > k26, "caps {k20}, {k24}, {k26}");
    }

    #[test]
    fn empty_round_edge_cases() {
        let m = MixedRoundModel::new(0.0, 0.00834, vec![]).unwrap();
        assert_eq!(m.total_requests(), 0);
        assert_eq!(m.p_late_bound(0.5).probability, 0.0);
        assert_eq!(m.p_late_bound(0.0).probability, 1.0);
        assert_eq!(m.mean(), 0.0);
    }

    #[test]
    fn rotation_only_class_handled() {
        // A class with zero-count transfer contributes nothing.
        let m = MixedRoundModel::new(
            0.05,
            0.00834,
            vec![RequestClass {
                transfer: discrete_transfer(),
                count: 0,
            }],
        )
        .unwrap();
        assert_eq!(m.total_requests(), 0);
        assert_eq!(m.p_late_bound(1.0).probability, 0.0);
    }

    #[test]
    fn validation() {
        assert!(MixedRoundModel::new(0.0, 0.0, vec![]).is_err());
        assert!(MixedRoundModel::new(-1.0, 0.00834, vec![]).is_err());
        assert!(discrete_capacity(
            continuous_transfer(),
            discrete_transfer(),
            10,
            0.0,
            0.01,
            0.00834,
            viking_seek
        )
        .is_err());
        assert!(discrete_capacity(
            continuous_transfer(),
            discrete_transfer(),
            10,
            1.0,
            0.0,
            0.00834,
            viking_seek
        )
        .is_err());
        assert!(discrete_capacity(
            continuous_transfer(),
            discrete_transfer(),
            10,
            1.0,
            1.0,
            0.00834,
            viking_seek
        )
        .is_err());
    }
}
