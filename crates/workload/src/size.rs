//! Fragment-size distributions.
//!
//! The analytic model only needs the first two moments of the fragment
//! size (it moment-matches a Gamma transform, §3.1–3.2); the simulator
//! draws actual sizes. [`SizeDistribution`] serves both: every variant
//! reports exact moments and samples variates.

use crate::WorkloadError;
use mzd_numerics::rng::{Gamma, LogNormal, Pareto, Sample};
use rand::Rng;

/// The paper's default fragment-size mean: 200 KB (KB = 1000 bytes — the
/// convention under which the paper's worked numbers reproduce exactly).
pub const PAPER_MEAN_BYTES: f64 = 200_000.0;
/// The paper's default fragment-size standard deviation: 100 KB.
pub const PAPER_STD_DEV_BYTES: f64 = 100_000.0;

/// A fragment-size law: sampleable, with exact first two moments.
#[derive(Debug, Clone, PartialEq)]
pub enum SizeDistribution {
    /// Gamma-distributed sizes (the paper's model for compressed video).
    Gamma(Gamma),
    /// Lognormal sizes (alternative heavy-tail noted in §3.1).
    LogNormal(LogNormal),
    /// Pareto sizes (alternative heavy-tail noted in §3.1).
    Pareto(Pareto),
    /// Constant size (the CBR assumption of most prior work).
    Constant(f64),
}

impl SizeDistribution {
    /// The paper's reference workload: Gamma with mean 200 KB and standard
    /// deviation 100 KB (Table 1).
    ///
    /// ```
    /// let d = mzd_workload::SizeDistribution::paper_default();
    /// assert_eq!(d.mean(), 200_000.0);
    /// assert_eq!(d.variance(), 1e10);
    /// ```
    #[must_use]
    pub fn paper_default() -> Self {
        Self::gamma(PAPER_MEAN_BYTES, PAPER_STD_DEV_BYTES * PAPER_STD_DEV_BYTES)
            .expect("paper parameters are valid")
    }

    /// Gamma sizes with the given mean and variance (bytes, bytes²).
    ///
    /// # Errors
    /// [`WorkloadError::Invalid`] unless both are positive.
    pub fn gamma(mean: f64, variance: f64) -> Result<Self, WorkloadError> {
        Ok(Self::Gamma(Gamma::from_mean_variance(mean, variance)?))
    }

    /// Lognormal sizes with the given mean and variance.
    ///
    /// # Errors
    /// [`WorkloadError::Invalid`] unless both are positive.
    pub fn log_normal(mean: f64, variance: f64) -> Result<Self, WorkloadError> {
        Ok(Self::LogNormal(LogNormal::from_mean_variance(
            mean, variance,
        )?))
    }

    /// Pareto sizes with the given mean and variance.
    ///
    /// # Errors
    /// [`WorkloadError::Invalid`] unless both are positive.
    pub fn pareto(mean: f64, variance: f64) -> Result<Self, WorkloadError> {
        Ok(Self::Pareto(Pareto::from_mean_variance(mean, variance)?))
    }

    /// Constant size in bytes.
    ///
    /// # Errors
    /// [`WorkloadError::Invalid`] unless positive.
    pub fn constant(bytes: f64) -> Result<Self, WorkloadError> {
        if !(bytes > 0.0) || !bytes.is_finite() {
            return Err(WorkloadError::Invalid(format!(
                "constant size must be positive, got {bytes}"
            )));
        }
        Ok(Self::Constant(bytes))
    }

    /// Mean fragment size, bytes.
    #[must_use]
    pub fn mean(&self) -> f64 {
        match self {
            Self::Gamma(d) => d.mean(),
            Self::LogNormal(d) => d.mean(),
            Self::Pareto(d) => d.mean(),
            Self::Constant(c) => *c,
        }
    }

    /// Fragment-size variance, bytes².
    #[must_use]
    pub fn variance(&self) -> f64 {
        match self {
            Self::Gamma(d) => d.variance(),
            Self::LogNormal(d) => d.variance(),
            Self::Pareto(d) => d.variance(),
            Self::Constant(_) => 0.0,
        }
    }

    /// Second raw moment `E[S²] = Var[S] + E[S]²`.
    #[must_use]
    pub fn second_moment(&self) -> f64 {
        let m = self.mean();
        self.variance() + m * m
    }

    /// Draw one fragment size (always > 0).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            Self::Gamma(d) => d.sample(rng),
            Self::LogNormal(d) => d.sample(rng),
            Self::Pareto(d) => d.sample(rng),
            Self::Constant(c) => *c,
        }
    }

    /// Draw the size of one *specific stored fragment*, deterministically.
    ///
    /// `sample` models the paper's i.i.d.-across-rounds assumption: every
    /// play-out of an object re-draws its sizes. A shared cache needs the
    /// opposite: fragment `f` of a stored object has *one* size, the same
    /// for every stream reading it. This derives that size from
    /// `(content_seed, fragment)` alone — same arguments, same size, on
    /// any run — while following the same size law, so the analytic
    /// moments still describe the stored content.
    #[must_use]
    pub fn sample_at(&self, content_seed: u64, fragment: u32) -> f64 {
        use rand::SeedableRng;
        // SplitMix64-style finalizer over the pair so that consecutive
        // fragments decorrelate even for small seeds.
        let mut z = content_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(fragment));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let mut rng = rand::rngs::StdRng::seed_from_u64(z);
        self.sample(&mut rng)
    }

    /// Quantile of the size law at `p ∈ [0, 1)` where analytically
    /// available (`None` for lognormal, which the worst-case bound does
    /// not need).
    ///
    /// # Errors
    /// Propagates numeric domain errors for out-of-range `p`.
    pub fn quantile(&self, p: f64) -> Result<Option<f64>, WorkloadError> {
        match self {
            Self::Gamma(d) => Ok(Some(d.quantile(p)?)),
            Self::Constant(c) => Ok(Some(*c)),
            Self::Pareto(d) => {
                if !(0.0..1.0).contains(&p) {
                    return Err(WorkloadError::Invalid(format!(
                        "quantile level must be in [0,1), got {p}"
                    )));
                }
                Ok(Some(d.x_min() / (1.0 - p).powf(1.0 / d.alpha())))
            }
            Self::LogNormal(_) => Ok(None),
        }
    }

    /// Short human-readable name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Gamma(_) => "gamma",
            Self::LogNormal(_) => "lognormal",
            Self::Pareto(_) => "pareto",
            Self::Constant(_) => "constant",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_default_moments() {
        let d = SizeDistribution::paper_default();
        assert_eq!(d.mean(), 200_000.0);
        assert_eq!(d.variance(), 1e10);
        assert_eq!(d.second_moment(), 5e10);
        assert_eq!(d.name(), "gamma");
    }

    #[test]
    fn all_parametric_laws_match_requested_moments() {
        for ctor in [
            SizeDistribution::gamma as fn(f64, f64) -> Result<SizeDistribution, WorkloadError>,
            SizeDistribution::log_normal,
            SizeDistribution::pareto,
        ] {
            let d = ctor(200_000.0, 1e10).unwrap();
            assert!((d.mean() - 200_000.0).abs() < 1e-3, "{}", d.name());
            assert!((d.variance() / 1e10 - 1.0).abs() < 1e-9, "{}", d.name());
        }
    }

    #[test]
    fn constant_law() {
        let d = SizeDistribution::constant(123_456.0).unwrap();
        assert_eq!(d.mean(), 123_456.0);
        assert_eq!(d.variance(), 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 123_456.0);
        }
        assert_eq!(d.quantile(0.99).unwrap(), Some(123_456.0));
        assert!(SizeDistribution::constant(0.0).is_err());
        assert!(SizeDistribution::constant(f64::NAN).is_err());
    }

    #[test]
    fn gamma_quantile_matches_paper_worst_case_inputs() {
        // 99th percentile of Gamma(mean 200 KB, sd 100 KB) ≈ 502.26 KB —
        // the size behind the paper's T_trans^max = 71.7 ms.
        let d = SizeDistribution::paper_default();
        let q99 = d.quantile(0.99).unwrap().unwrap();
        assert!((q99 - 502_255.9).abs() < 100.0, "q99 = {q99}");
        let q95 = d.quantile(0.95).unwrap().unwrap();
        assert!((q95 - 387_682.8).abs() < 100.0, "q95 = {q95}");
    }

    #[test]
    fn pareto_quantile_closed_form() {
        let d = SizeDistribution::pareto(200_000.0, 1e10).unwrap();
        let q = d.quantile(0.5).unwrap().unwrap();
        // Median must exceed x_min and be below the mean for a heavy tail.
        assert!(q > 0.0 && q < d.mean());
        assert!(d.quantile(1.5).is_err());
    }

    #[test]
    fn lognormal_has_no_analytic_quantile() {
        let d = SizeDistribution::log_normal(200_000.0, 1e10).unwrap();
        assert_eq!(d.quantile(0.99).unwrap(), None);
    }

    /// The fleet's own draw path: stored sizes of the paper law pass a
    /// one-sample Kolmogorov–Smirnov test against the Gamma CDF.
    #[test]
    fn sample_at_passes_ks_against_gamma_p() {
        const N: u32 = 200_000;
        let d = SizeDistribution::paper_default();
        let mut x: Vec<f64> = (0..N).map(|f| d.sample_at(1, f)).collect();
        x.sort_by(f64::total_cmp);
        let n = f64::from(N);
        let ks = x.iter().enumerate().fold(0.0f64, |ks, (i, &x)| {
            let f = mzd_numerics::special::gamma_p(4.0, x / 50_000.0).unwrap();
            ks.max(f - i as f64 / n).max((i + 1) as f64 / n - f)
        });
        assert!(ks * n.sqrt() < 1.63, "D = {ks}");
    }

    #[test]
    fn sample_at_is_deterministic_and_law_abiding() {
        let d = SizeDistribution::paper_default();
        // Same (seed, fragment) → same size; different fragment → almost
        // surely different.
        assert_eq!(d.sample_at(7, 0), d.sample_at(7, 0));
        assert_ne!(d.sample_at(7, 0), d.sample_at(7, 1));
        assert_ne!(d.sample_at(7, 0), d.sample_at(8, 0));
        // Stored sizes follow the declared law: check the sample mean
        // over many fragments of one object.
        let n = 50_000u32;
        let mean: f64 = (0..n).map(|f| d.sample_at(42, f)).sum::<f64>() / f64::from(n);
        assert!(
            (mean / d.mean() - 1.0).abs() < 0.02,
            "stored-content mean {mean}"
        );
        // Constant law is trivially deterministic.
        let c = SizeDistribution::constant(500.0).unwrap();
        assert_eq!(c.sample_at(1, 1), 500.0);
    }

    #[test]
    fn sampled_moments_match_reported_moments() {
        let mut rng = StdRng::seed_from_u64(99);
        for d in [
            SizeDistribution::paper_default(),
            SizeDistribution::log_normal(200_000.0, 1e10).unwrap(),
        ] {
            let mut s = mzd_numerics::stats::OnlineStats::new();
            for _ in 0..200_000 {
                s.push(d.sample(&mut rng));
            }
            assert!(
                (s.mean() / d.mean() - 1.0).abs() < 0.01,
                "{}: mean {}",
                d.name(),
                s.mean()
            );
            assert!(
                (s.variance() / d.variance() - 1.0).abs() < 0.08,
                "{}: var {}",
                d.name(),
                s.variance()
            );
        }
    }
}
