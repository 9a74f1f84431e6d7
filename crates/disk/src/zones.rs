//! Zone models: track capacities, transfer-rate distributions, and the
//! capacity-weighted zone-selection law.
//!
//! Multi-zone recording stores all data at the same areal density, so outer
//! zones hold more sectors per track and transfer faster (§2.2 of the
//! paper). When data is placed uniformly over all *sectors* of the disk,
//! the probability that a request hits zone `i` is `C_i / C` with
//! `C = Σ_j C_j` (eq. 3.2.1, assuming equal track counts per zone) — the
//! discrete law implemented by [`ZoneModel`].
//!
//! For the analytic transfer-time density the paper passes to a continuous
//! rate variable (eq. 3.2.5–3.2.6). [`ContinuousRateDistribution`] is that
//! continuum limit, with density `f(r) = 2r / (r_max² − r_min²)`: the exact
//! `Z → ∞` limit of the discrete law under the paper's linear capacity
//! profile (eq. 3.2.2). Both are provided so the model can be evaluated in
//! either form and the approximation error quantified.

use crate::DiskError;

/// Per-zone track capacities and the induced zone-selection distribution.
///
/// Zone 0 is innermost (smallest capacity, slowest); capacities must be
/// positive and nondecreasing outward.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneModel {
    /// Track capacity per zone in bytes, innermost first.
    capacities: Vec<f64>,
    /// Σ C_i, cached.
    total: f64,
}

impl ZoneModel {
    /// The paper's linear profile (eq. 3.2.2):
    /// `C_i = C_min + (C_max − C_min)(i−1)/(Z−1)` for `i = 1..Z`.
    ///
    /// `Z = 1` degenerates to a single-zone (conventional) disk with
    /// capacity `c_min` (then `c_max` must equal `c_min`).
    ///
    /// # Errors
    /// [`DiskError::Invalid`] unless `z ≥ 1` and `0 < c_min ≤ c_max`.
    pub fn linear(z: usize, c_min: f64, c_max: f64) -> Result<Self, DiskError> {
        if z == 0 {
            return Err(DiskError::Invalid("zone count must be at least 1".into()));
        }
        if !(c_min > 0.0) || !(c_max >= c_min) || !c_max.is_finite() {
            return Err(DiskError::Invalid(format!(
                "require 0 < c_min <= c_max, got c_min = {c_min}, c_max = {c_max}"
            )));
        }
        if z == 1 && c_max != c_min {
            return Err(DiskError::Invalid(
                "a single-zone disk must have c_min == c_max".into(),
            ));
        }
        let capacities = (0..z)
            .map(|i| {
                if z == 1 {
                    c_min
                } else {
                    c_min + (c_max - c_min) * i as f64 / (z - 1) as f64
                }
            })
            .collect();
        Self::from_capacities(capacities)
    }

    /// A conventional single-zone disk with the given track capacity.
    ///
    /// # Errors
    /// [`DiskError::Invalid`] unless the capacity is positive finite.
    pub fn single(capacity: f64) -> Result<Self, DiskError> {
        Self::linear(1, capacity, capacity)
    }

    /// Build from an explicit capacity table (innermost first). Real drives
    /// are close to, but not exactly, linear; this constructor supports
    /// measured zone tables.
    ///
    /// # Errors
    /// [`DiskError::Invalid`] if empty, or any capacity is non-positive,
    /// non-finite, or decreasing outward.
    pub fn from_capacities(capacities: Vec<f64>) -> Result<Self, DiskError> {
        if capacities.is_empty() {
            return Err(DiskError::Invalid("zone table must be non-empty".into()));
        }
        let mut prev = 0.0;
        for (i, &c) in capacities.iter().enumerate() {
            if !(c > 0.0) || !c.is_finite() {
                return Err(DiskError::Invalid(format!(
                    "zone {i} capacity must be positive and finite, got {c}"
                )));
            }
            if c < prev {
                return Err(DiskError::Invalid(format!(
                    "zone capacities must be nondecreasing outward (zone {i}: {c} < {prev})"
                )));
            }
            prev = c;
        }
        let total = capacities.iter().sum();
        Ok(Self { capacities, total })
    }

    /// Number of zones.
    #[must_use]
    pub fn zone_count(&self) -> usize {
        self.capacities.len()
    }

    /// Track capacity of `zone` in bytes.
    ///
    /// # Panics
    /// Panics if `zone` is out of range.
    #[must_use]
    pub fn track_capacity(&self, zone: usize) -> f64 {
        self.capacities[zone]
    }

    /// Innermost (smallest) track capacity, `C_min`.
    #[must_use]
    pub fn min_capacity(&self) -> f64 {
        self.capacities[0]
    }

    /// Outermost (largest) track capacity, `C_max`.
    #[must_use]
    pub fn max_capacity(&self) -> f64 {
        *self.capacities.last().expect("non-empty by construction")
    }

    /// Probability that a uniformly-placed request hits `zone`
    /// (eq. 3.2.1: `C_i / C`).
    ///
    /// # Panics
    /// Panics if `zone` is out of range.
    #[must_use]
    pub fn zone_probability(&self, zone: usize) -> f64 {
        self.capacities[zone] / self.total
    }

    /// CDF of the zone-selection law: `P[zone ≤ i]` (eq. 3.2.1 summed).
    ///
    /// # Panics
    /// Panics if `zone` is out of range.
    #[must_use]
    pub fn zone_cdf(&self, zone: usize) -> f64 {
        self.capacities[..=zone].iter().sum::<f64>() / self.total
    }

    /// `E[(C_i)^k]` under the capacity-weighted law: `Σ (C_i/C) · C_i^k`.
    /// Negative `k` gives the inverse-capacity moments that translate
    /// size moments into transfer-time moments.
    #[must_use]
    pub fn capacity_weighted_capacity_moment(&self, k: i32) -> f64 {
        self.capacities
            .iter()
            .map(|&c| c / self.total * c.powi(k))
            .sum()
    }

    /// Select a zone by inverse-CDF given a uniform variate `u ∈ [0, 1)`.
    /// Deterministic helper used by placement code; O(Z).
    #[must_use]
    pub fn select_zone(&self, u: f64) -> usize {
        let target = u.clamp(0.0, 1.0) * self.total;
        let mut acc = 0.0;
        for (i, &c) in self.capacities.iter().enumerate() {
            acc += c;
            if target < acc {
                return i;
            }
        }
        self.capacities.len() - 1
    }

    /// The continuum-limit rate distribution of this zone model given the
    /// rotation time (zone rates `R_i = C_i / ROT`).
    ///
    /// # Errors
    /// [`DiskError::Invalid`] for a single-zone model (the continuum is a
    /// point mass; callers should use the discrete law) or non-positive
    /// rotation time.
    pub fn continuous_rate_distribution(
        &self,
        rotation_time: f64,
    ) -> Result<ContinuousRateDistribution, DiskError> {
        if !(rotation_time > 0.0) {
            return Err(DiskError::Invalid(format!(
                "rotation time must be positive, got {rotation_time}"
            )));
        }
        ContinuousRateDistribution::new(
            self.min_capacity() / rotation_time,
            self.max_capacity() / rotation_time,
        )
    }
}

/// Continuous transfer-rate distribution on `[r_min, r_max]` with density
/// `f(r) = 2r / (r_max² − r_min²)`.
///
/// This is the `Z → ∞` limit of the discrete capacity-weighted law under
/// the paper's linear capacity profile: zone index uniform, capacity linear
/// in index, selection probability proportional to capacity ⇒ density
/// proportional to `r`. It matches the paper's eq. 3.2.5/3.2.6 up to the
/// `O(1/Z)` discretization term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContinuousRateDistribution {
    r_min: f64,
    r_max: f64,
}

impl ContinuousRateDistribution {
    /// Create the distribution on `[r_min, r_max]`, `0 < r_min < r_max`.
    ///
    /// # Errors
    /// [`DiskError::Invalid`] for a degenerate or invalid support.
    pub fn new(r_min: f64, r_max: f64) -> Result<Self, DiskError> {
        if !(r_min > 0.0) || !(r_max > r_min) || !r_max.is_finite() {
            return Err(DiskError::Invalid(format!(
                "require 0 < r_min < r_max finite, got [{r_min}, {r_max}]"
            )));
        }
        Ok(Self { r_min, r_max })
    }

    /// Lower end of the support (innermost-zone rate).
    #[must_use]
    pub fn r_min(&self) -> f64 {
        self.r_min
    }

    /// Upper end of the support (outermost-zone rate).
    #[must_use]
    pub fn r_max(&self) -> f64 {
        self.r_max
    }

    /// Probability density at `r` (0 outside the support).
    #[must_use]
    pub fn pdf(&self, r: f64) -> f64 {
        if r < self.r_min || r > self.r_max {
            0.0
        } else {
            2.0 * r / (self.r_max * self.r_max - self.r_min * self.r_min)
        }
    }

    /// CDF at `r`.
    #[must_use]
    pub fn cdf(&self, r: f64) -> f64 {
        if r <= self.r_min {
            0.0
        } else if r >= self.r_max {
            1.0
        } else {
            (r * r - self.r_min * self.r_min) / (self.r_max * self.r_max - self.r_min * self.r_min)
        }
    }

    /// `E[R^k]` in closed form for any integer `k` (including negative):
    /// `∫ r^k · 2r dr / (r_max² − r_min²)`.
    #[must_use]
    pub fn rate_moment(&self, k: i32) -> f64 {
        let denom = self.r_max * self.r_max - self.r_min * self.r_min;
        if k == -2 {
            // ∫ 2/r dr = 2 ln(r_max/r_min)
            2.0 * (self.r_max / self.r_min).ln() / denom
        } else {
            let p = k + 2;
            2.0 * (self.r_max.powi(p) - self.r_min.powi(p)) / (f64::from(p) * denom)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn viking_zones() -> ZoneModel {
        ZoneModel::linear(15, 58368.0, 95744.0).unwrap()
    }

    #[test]
    fn linear_profile_endpoints_and_spacing() {
        let z = viking_zones();
        assert_eq!(z.zone_count(), 15);
        assert!((z.min_capacity() - 58368.0).abs() < 1e-9);
        assert!((z.max_capacity() - 95744.0).abs() < 1e-9);
        // Equal spacing (eq. 3.2.2): step = (95744−58368)/14 = 2669.714...
        let step = (95744.0 - 58368.0) / 14.0;
        for i in 1..15 {
            let diff = z.track_capacity(i) - z.track_capacity(i - 1);
            assert!((diff - step).abs() < 1e-9, "zone {i}");
        }
    }

    #[test]
    fn zone_probabilities_normalize_and_favor_outer() {
        let z = viking_zones();
        let sum: f64 = (0..15).map(|i| z.zone_probability(i)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        for i in 1..15 {
            assert!(z.zone_probability(i) > z.zone_probability(i - 1));
        }
        assert!((z.zone_cdf(14) - 1.0).abs() < 1e-12);
        // CDF is monotone.
        for i in 1..15 {
            assert!(z.zone_cdf(i) > z.zone_cdf(i - 1));
        }
    }

    #[test]
    fn select_zone_inverse_cdf_consistency() {
        let z = viking_zones();
        assert_eq!(z.select_zone(0.0), 0);
        assert_eq!(z.select_zone(0.999_999), 14);
        // u just past / just before a CDF boundary selects the right zone
        // (exactly at the boundary is float-dependent and unspecified).
        let u = z.zone_cdf(4);
        assert_eq!(z.select_zone(u + 1e-9), 5);
        assert_eq!(z.select_zone(u - 1e-9), 4);
        // Out-of-range u is clamped.
        assert_eq!(z.select_zone(-1.0), 0);
        assert_eq!(z.select_zone(2.0), 14);
    }

    #[test]
    fn single_zone_degenerates() {
        let z = ZoneModel::single(75_000.0).unwrap();
        assert_eq!(z.zone_count(), 1);
        assert_eq!(z.zone_probability(0), 1.0);
        assert_eq!(z.capacity_weighted_capacity_moment(0), 1.0);
        assert!((z.capacity_weighted_capacity_moment(-1) - 1.0 / 75_000.0).abs() < 1e-18);
        assert!(z.continuous_rate_distribution(0.00834).is_err());
    }

    #[test]
    fn from_capacities_validation() {
        assert!(ZoneModel::from_capacities(vec![]).is_err());
        assert!(ZoneModel::from_capacities(vec![1.0, -2.0]).is_err());
        assert!(ZoneModel::from_capacities(vec![2.0, 1.0]).is_err());
        assert!(ZoneModel::from_capacities(vec![1.0, f64::INFINITY]).is_err());
        // Non-linear but monotone measured table is fine.
        let z = ZoneModel::from_capacities(vec![10.0, 11.0, 15.0, 15.0]).unwrap();
        assert_eq!(z.zone_count(), 4);
    }

    #[test]
    fn linear_validation() {
        assert!(ZoneModel::linear(0, 1.0, 2.0).is_err());
        assert!(ZoneModel::linear(5, 0.0, 2.0).is_err());
        assert!(ZoneModel::linear(5, 3.0, 2.0).is_err());
        assert!(ZoneModel::linear(1, 1.0, 2.0).is_err());
        assert!(ZoneModel::linear(1, 2.0, 2.0).is_ok());
    }

    #[test]
    fn continuous_rate_pdf_integrates_to_one() {
        let z = viking_zones();
        let c = z.continuous_rate_distribution(0.00834).unwrap();
        // Closed-form moment with k = 0 is the total mass.
        assert!((c.rate_moment(0) - 1.0).abs() < 1e-12);
        assert_eq!(c.cdf(c.r_min()), 0.0);
        assert_eq!(c.cdf(c.r_max()), 1.0);
        assert_eq!(c.pdf(c.r_min() * 0.9), 0.0);
        assert_eq!(c.pdf(c.r_max() * 1.1), 0.0);
    }

    #[test]
    fn continuous_matches_discrete_for_many_zones() {
        // With Z = 2000 zones the discrete inverse-capacity moments must be
        // within 0.1% of the continuum closed form.
        let z = ZoneModel::linear(2000, 58368.0, 95744.0).unwrap();
        let rot = 0.00834;
        let c = z.continuous_rate_distribution(rot).unwrap();
        for k in [-2i32, -1, 1, 2] {
            let discrete = rot.powi(-k) * z.capacity_weighted_capacity_moment(k);
            let continuum = c.rate_moment(k);
            assert!(
                (discrete / continuum - 1.0).abs() < 1e-3,
                "k = {k}: discrete {discrete}, continuum {continuum}"
            );
        }
    }

    #[test]
    fn continuous_rate_moment_negative_two_special_case() {
        let c = ContinuousRateDistribution::new(2.0, 5.0).unwrap();
        // E[R^{-2}] = 2 ln(5/2) / (25 − 4)
        let expected = 2.0 * (5.0f64 / 2.0).ln() / 21.0;
        assert!((c.rate_moment(-2) - expected).abs() < 1e-15);
    }

    #[test]
    fn continuous_invalid_supports_rejected() {
        assert!(ContinuousRateDistribution::new(0.0, 1.0).is_err());
        assert!(ContinuousRateDistribution::new(2.0, 2.0).is_err());
        assert!(ContinuousRateDistribution::new(2.0, f64::INFINITY).is_err());
    }
}
