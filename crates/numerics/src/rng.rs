//! Random-variate generation built on [`rand`].
//!
//! The offline crate set does not include `rand_distr`, so the samplers the
//! simulator and the workload generators need are implemented here:
//!
//! * [`Normal`] — Marsaglia–Tsang 256-layer ziggurat, one 64-bit word
//!   per attempt and no transcendental function on ~98.5% of draws,
//! * [`Gamma`] — Marsaglia–Tsang squeeze method (with the `α < 1` boost),
//! * [`LogNormal`] — exponentiated normal,
//! * [`Pareto`] — inverse-CDF (Lomax-style heavy tail, type I),
//! * [`Poisson`] — Knuth's product method (normal approximation for
//!   large means).
//!
//! Every normal variate the workspace draws — the Gamma squeeze, the
//! lognormal, Poisson's normal branch, the GOP generator — comes from
//! [`Normal::standard_sample`]. Its ziggurat tables are committed
//! constants, so a seed draws the same values on every host.
//!
//! All samplers are parameter-validated at construction and pure at sample
//! time; determinism is inherited from the caller's RNG (the workspace uses
//! seeded `StdRng` everywhere).

use crate::{NumericsError, Result};
use rand::{Rng, RngExt as _};

mod ziggurat;

/// A distribution that can draw `f64` samples from an RNG.
pub trait Sample {
    /// Draw one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Mean of the distribution, if finite.
    fn mean(&self) -> f64;

    /// Variance of the distribution, if finite.
    fn variance(&self) -> f64;
}

/// Normal distribution `N(μ, σ²)` sampled with the ziggurat method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Create a normal distribution with mean `mu` and standard deviation
    /// `sigma > 0` (`sigma == 0` is allowed and degenerates to a point mass).
    ///
    /// # Errors
    /// [`NumericsError::Domain`] if `sigma < 0` or parameters are non-finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self> {
        if !mu.is_finite() || !sigma.is_finite() || sigma < 0.0 {
            return Err(NumericsError::Domain {
                what: "Normal::new",
                detail: format!("require finite mu and sigma >= 0, got ({mu}, {sigma})"),
            });
        }
        Ok(Self { mu, sigma })
    }

    /// Draw a standard normal variate (256-layer ziggurat; see the
    /// `ziggurat` module source for the tables and the bit layout).
    #[inline]
    pub fn standard_sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        ziggurat::standard_normal(rng)
    }
}

impl Sample for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mu + self.sigma * Self::standard_sample(rng)
    }

    fn mean(&self) -> f64 {
        self.mu
    }

    fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }
}

/// Gamma distribution with shape `alpha > 0` and scale `theta > 0`
/// (mean `αθ`, variance `αθ²`), sampled with Marsaglia–Tsang.
///
/// Note the paper parameterizes Gamma with *rate* `α` and *shape* `β`
/// (pdf `α(αx)^{β−1}e^{−αx}/Γ(β)`); see [`Gamma::from_rate_shape`] and
/// [`Gamma::from_mean_variance`] for those conventions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
    /// Marsaglia–Tsang `d = k − 1/3` for the (boosted, if `shape < 1`)
    /// shape — precomputed at construction so the per-sample hot path
    /// does no division or square root beyond the method itself. The
    /// values are the same pure functions of `shape` the sampler used
    /// to evaluate per call, so the draw stream is unchanged.
    d: f64,
    /// Marsaglia–Tsang `c = 1/√(9d)`, precomputed likewise.
    c: f64,
}

impl Gamma {
    /// Create from shape `k > 0` and scale `θ > 0`.
    ///
    /// # Errors
    /// [`NumericsError::Domain`] unless both parameters are positive finite.
    pub fn new(shape: f64, scale: f64) -> Result<Self> {
        if !(shape > 0.0) || !(scale > 0.0) || !shape.is_finite() || !scale.is_finite() {
            return Err(NumericsError::Domain {
                what: "Gamma::new",
                detail: format!("require shape > 0 and scale > 0, got ({shape}, {scale})"),
            });
        }
        let k = if shape < 1.0 { shape + 1.0 } else { shape };
        let d = k - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        Ok(Self { shape, scale, d, c })
    }

    /// Create from the paper's rate/shape convention:
    /// pdf `α(αx)^{β−1}e^{−αx}/Γ(β)` with rate `alpha` and shape `beta`.
    ///
    /// # Errors
    /// [`NumericsError::Domain`] unless both parameters are positive finite.
    pub fn from_rate_shape(alpha: f64, beta: f64) -> Result<Self> {
        if !(alpha > 0.0) {
            return Err(NumericsError::Domain {
                what: "Gamma::from_rate_shape",
                detail: format!("require rate alpha > 0, got {alpha}"),
            });
        }
        Self::new(beta, 1.0 / alpha)
    }

    /// Moment-match: the Gamma with the given mean and variance
    /// (`α = E/Var`, `β = E²/Var` in the paper's eq. 3.1.2 convention).
    ///
    /// # Errors
    /// [`NumericsError::Domain`] unless `mean > 0` and `variance > 0`.
    pub fn from_mean_variance(mean: f64, variance: f64) -> Result<Self> {
        if !(mean > 0.0) || !(variance > 0.0) {
            return Err(NumericsError::Domain {
                what: "Gamma::from_mean_variance",
                detail: format!("require mean > 0 and variance > 0, got ({mean}, {variance})"),
            });
        }
        Self::new(mean * mean / variance, variance / mean)
    }

    /// Shape parameter `k` (= the paper's `β`).
    #[must_use]
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter `θ` (= `1/α` in the paper's convention).
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Rate parameter `α = 1/θ` (the paper's convention).
    #[must_use]
    pub fn rate(&self) -> f64 {
        1.0 / self.scale
    }

    /// Quantile (inverse CDF) at probability `p ∈ [0, 1)`.
    ///
    /// # Errors
    /// Propagates [`crate::special::inverse_gamma_p`] domain errors.
    pub fn quantile(&self, p: f64) -> Result<f64> {
        Ok(crate::special::inverse_gamma_p(self.shape, p)? * self.scale)
    }

    /// CDF at `x`.
    ///
    /// # Errors
    /// Propagates [`crate::special::gamma_p`] domain errors for `x < 0`.
    pub fn cdf(&self, x: f64) -> Result<f64> {
        if x <= 0.0 {
            return Ok(0.0);
        }
        crate::special::gamma_p(self.shape, x / self.scale)
    }

    /// Probability density at `x`.
    #[must_use]
    pub fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let k = self.shape;
        let th = self.scale;
        ((k - 1.0) * (x / th).ln() - x / th - crate::special::ln_gamma(k) - th.ln()).exp()
    }
}

impl Sample for Gamma {
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Marsaglia & Tsang (2000): for shape ≥ 1 draw via the cubed
        // normal squeeze; for shape < 1 use the boosting identity
        // G(k) = G(k+1) · U^{1/k}. The method constants d and c for the
        // effective shape are precomputed in the struct.
        let boost = if self.shape < 1.0 {
            let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            u.powf(1.0 / self.shape)
        } else {
            1.0
        };
        let d = self.d;
        let c = self.c;
        loop {
            let x = Normal::standard_sample(rng);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            // Squeeze check then full check.
            if u < 1.0 - 0.033_1 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v * boost * self.scale;
            }
        }
    }

    fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    fn variance(&self) -> f64 {
        self.shape * self.scale * self.scale
    }
}

/// Lognormal distribution: `exp(N(μ, σ²))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Moment-match the lognormal to a target mean and variance
    /// (both on the linear scale).
    ///
    /// # Errors
    /// [`NumericsError::Domain`] unless `mean > 0` and `variance > 0`.
    pub fn from_mean_variance(mean: f64, variance: f64) -> Result<Self> {
        if !(mean > 0.0) || !(variance > 0.0) {
            return Err(NumericsError::Domain {
                what: "LogNormal::from_mean_variance",
                detail: format!("require mean > 0 and variance > 0, got ({mean}, {variance})"),
            });
        }
        let sigma2 = (1.0 + variance / (mean * mean)).ln();
        Ok(Self {
            mu: mean.ln() - 0.5 * sigma2,
            sigma: sigma2.sqrt(),
        })
    }
}

impl Sample for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * Normal::standard_sample(rng)).exp()
    }

    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }

    fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        (s2.exp() - 1.0) * (2.0 * self.mu + s2).exp()
    }
}

/// Pareto (type I) distribution with scale `x_min > 0` and tail index
/// `alpha > 0`: `P[X > x] = (x_min/x)^α` for `x ≥ x_min`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    /// Create from scale and tail index.
    ///
    /// # Errors
    /// [`NumericsError::Domain`] unless both parameters are positive finite.
    pub fn new(x_min: f64, alpha: f64) -> Result<Self> {
        if !(x_min > 0.0) || !(alpha > 0.0) || !x_min.is_finite() || !alpha.is_finite() {
            return Err(NumericsError::Domain {
                what: "Pareto::new",
                detail: format!("require x_min > 0 and alpha > 0, got ({x_min}, {alpha})"),
            });
        }
        Ok(Self { x_min, alpha })
    }

    /// Moment-match to a target mean and variance. Requires the implied
    /// tail index to exceed 2 (finite variance), which holds whenever
    /// `variance` is finite and positive.
    ///
    /// # Errors
    /// [`NumericsError::Domain`] unless `mean > 0` and `variance > 0`.
    pub fn from_mean_variance(mean: f64, variance: f64) -> Result<Self> {
        if !(mean > 0.0) || !(variance > 0.0) {
            return Err(NumericsError::Domain {
                what: "Pareto::from_mean_variance",
                detail: format!("require mean > 0 and variance > 0, got ({mean}, {variance})"),
            });
        }
        // For Pareto(x_min, α): mean = αx/(α−1), var = x²α/((α−1)²(α−2)).
        // var/mean² = 1/(α(α−2)) → α = 1 + √(1 + mean²/var).
        let alpha = 1.0 + (1.0 + mean * mean / variance).sqrt();
        let x_min = mean * (alpha - 1.0) / alpha;
        Self::new(x_min, alpha)
    }

    /// The tail index α.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The scale (minimum value) `x_min`.
    #[must_use]
    pub fn x_min(&self) -> f64 {
        self.x_min
    }
}

impl Sample for Pareto {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        self.x_min / u.powf(1.0 / self.alpha)
    }

    fn mean(&self) -> f64 {
        if self.alpha <= 1.0 {
            f64::INFINITY
        } else {
            self.alpha * self.x_min / (self.alpha - 1.0)
        }
    }

    fn variance(&self) -> f64 {
        if self.alpha <= 2.0 {
            f64::INFINITY
        } else {
            let a = self.alpha;
            self.x_min * self.x_min * a / ((a - 1.0) * (a - 1.0) * (a - 2.0))
        }
    }
}

/// Poisson distribution with mean `lambda > 0`, sampled with Knuth's
/// product method for small means and a normal approximation with
/// continuity correction above `lambda = 64` (error well under the
/// simulation noise it feeds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Create from mean `λ > 0`.
    ///
    /// # Errors
    /// [`NumericsError::Domain`] unless `lambda` is positive finite.
    pub fn new(lambda: f64) -> Result<Self> {
        if !(lambda > 0.0) || !lambda.is_finite() {
            return Err(NumericsError::Domain {
                what: "Poisson::new",
                detail: format!("require lambda > 0, got {lambda}"),
            });
        }
        Ok(Self { lambda })
    }

    /// Draw one count.
    pub fn sample_count<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.lambda <= 64.0 {
            // Knuth: multiply uniforms until the product drops below
            // e^{-lambda}.
            let limit = (-self.lambda).exp();
            let mut product = 1.0f64;
            let mut k = 0u64;
            loop {
                product *= rng.random::<f64>().max(f64::MIN_POSITIVE);
                if product <= limit {
                    return k;
                }
                k += 1;
            }
        } else {
            // Normal approximation with continuity correction.
            let z = Normal::standard_sample(rng);
            let v = self.lambda + self.lambda.sqrt() * z + 0.5;
            if v < 0.0 {
                0
            } else {
                v.floor() as u64
            }
        }
    }
}

impl Sample for Poisson {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_count(rng) as f64
    }

    fn mean(&self) -> f64 {
        self.lambda
    }

    fn variance(&self) -> f64 {
        self.lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_stats<D: Sample>(d: &D, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mean = 0.0;
        let mut m2 = 0.0;
        for i in 0..n {
            let x = d.sample(&mut rng);
            let delta = x - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (x - mean);
        }
        (mean, m2 / (n - 1) as f64)
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(3.0, 2.0).unwrap();
        let (m, v) = sample_stats(&d, 200_000, 1);
        assert!((m - 3.0).abs() < 0.03, "mean {m}");
        assert!((v - 4.0).abs() < 0.1, "var {v}");
    }

    #[test]
    fn normal_rejects_bad_params() {
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(0.0, 0.0).is_ok()); // point mass allowed
    }

    #[test]
    fn gamma_moments_large_shape() {
        let d = Gamma::new(4.0, 50_000.0).unwrap(); // the paper's size dist (bytes)
        assert_eq!(d.mean(), 200_000.0);
        assert_eq!(d.variance(), 1e10);
        let (m, v) = sample_stats(&d, 200_000, 2);
        assert!((m / 200_000.0 - 1.0).abs() < 0.01, "mean {m}");
        assert!((v / 1e10 - 1.0).abs() < 0.05, "var {v}");
    }

    #[test]
    fn gamma_moments_small_shape() {
        let d = Gamma::new(0.4, 2.0).unwrap();
        let (m, v) = sample_stats(&d, 400_000, 3);
        assert!((m - 0.8).abs() < 0.01, "mean {m}");
        assert!((v - 1.6).abs() < 0.05, "var {v}");
    }

    #[test]
    fn gamma_parameter_conversions() {
        let g = Gamma::from_mean_variance(200.0, 10_000.0).unwrap();
        assert!((g.shape() - 4.0).abs() < 1e-12);
        assert!((g.scale() - 50.0).abs() < 1e-12);
        assert!((g.rate() - 0.02).abs() < 1e-15);
        let g2 = Gamma::from_rate_shape(0.02, 4.0).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn gamma_pdf_cdf_consistency() {
        let g = Gamma::new(4.0, 50.0).unwrap();
        // CDF'(x) ≈ pdf(x) by central differences.
        for &x in &[50.0, 150.0, 200.0, 400.0] {
            let h = 1e-4 * x;
            let num = (g.cdf(x + h).unwrap() - g.cdf(x - h).unwrap()) / (2.0 * h);
            assert!((num - g.pdf(x)).abs() < 1e-6 * g.pdf(x).max(1e-12));
        }
        assert_eq!(g.cdf(-1.0).unwrap(), 0.0);
        assert_eq!(g.pdf(-1.0), 0.0);
    }

    #[test]
    fn gamma_quantile_round_trip() {
        let g = Gamma::from_mean_variance(200_000.0, 1e10).unwrap();
        for &p in &[0.05, 0.5, 0.95, 0.99] {
            let x = g.quantile(p).unwrap();
            assert!((g.cdf(x).unwrap() - p).abs() < 1e-9);
        }
    }

    #[test]
    fn gamma_rejects_bad_params() {
        assert!(Gamma::new(0.0, 1.0).is_err());
        assert!(Gamma::new(1.0, -2.0).is_err());
        assert!(Gamma::from_mean_variance(-1.0, 1.0).is_err());
        assert!(Gamma::from_rate_shape(0.0, 1.0).is_err());
    }

    #[test]
    fn lognormal_moment_matching() {
        let d = LogNormal::from_mean_variance(200.0, 10_000.0).unwrap();
        assert!((d.mean() - 200.0).abs() < 1e-9);
        assert!((d.variance() - 10_000.0).abs() < 1e-6);
        let (m, v) = sample_stats(&d, 400_000, 4);
        assert!((m / 200.0 - 1.0).abs() < 0.01, "mean {m}");
        assert!((v / 10_000.0 - 1.0).abs() < 0.08, "var {v}");
    }

    #[test]
    fn pareto_moment_matching() {
        let d = Pareto::from_mean_variance(200.0, 10_000.0).unwrap();
        assert!(d.alpha() > 2.0);
        assert!((d.mean() - 200.0).abs() < 1e-9);
        assert!((d.variance() - 10_000.0).abs() < 1e-6);
        let (m, _) = sample_stats(&d, 800_000, 5);
        assert!((m / 200.0 - 1.0).abs() < 0.02, "mean {m}");
    }

    #[test]
    fn pareto_infinite_moments_flagged() {
        let d = Pareto::new(1.0, 0.9).unwrap();
        assert!(d.mean().is_infinite());
        let d = Pareto::new(1.0, 1.5).unwrap();
        assert!(d.mean().is_finite());
        assert!(d.variance().is_infinite());
    }

    #[test]
    fn pareto_samples_respect_minimum() {
        let d = Pareto::new(5.0, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 5.0);
        }
    }

    #[test]
    fn poisson_moments_small_lambda() {
        let d = Poisson::new(3.5).unwrap();
        let (m, v) = sample_stats(&d, 200_000, 8);
        assert!((m - 3.5).abs() < 0.03, "mean {m}");
        assert!((v - 3.5).abs() < 0.1, "var {v}");
    }

    #[test]
    fn poisson_moments_large_lambda_normal_branch() {
        let d = Poisson::new(200.0).unwrap();
        let (m, v) = sample_stats(&d, 200_000, 9);
        assert!((m / 200.0 - 1.0).abs() < 0.005, "mean {m}");
        assert!((v / 200.0 - 1.0).abs() < 0.05, "var {v}");
    }

    #[test]
    fn poisson_counts_are_nonnegative_integers() {
        let d = Poisson::new(0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let mut zeros = 0;
        for _ in 0..10_000 {
            let k = d.sample_count(&mut rng);
            if k == 0 {
                zeros += 1;
            }
        }
        // P[0] = e^{-0.05} ≈ 0.951.
        assert!((f64::from(zeros) / 10_000.0 - 0.951).abs() < 0.01);
        assert!(Poisson::new(0.0).is_err());
        assert!(Poisson::new(f64::NAN).is_err());
    }

    /// One-sample Kolmogorov–Smirnov statistic `D` of `samples` against
    /// `cdf` (sorts `samples`).
    fn ks_statistic(samples: &mut [f64], cdf: impl Fn(f64) -> f64) -> f64 {
        samples.sort_by(f64::total_cmp);
        let n = samples.len() as f64;
        samples.iter().enumerate().fold(0.0, |d, (i, &x)| {
            let f = cdf(x);
            d.max(f - i as f64 / n).max((i + 1) as f64 / n - f)
        })
    }

    /// `D·√n` below the Kolmogorov distribution's 99% point.
    const KS_99: f64 = 1.63;

    #[test]
    fn normal_passes_ks_against_phi() {
        const N: usize = 1_000_000;
        let mut rng = StdRng::seed_from_u64(11);
        let mut z: Vec<f64> = (0..N).map(|_| Normal::standard_sample(&mut rng)).collect();
        let d = ks_statistic(&mut z, crate::special::standard_normal_cdf);
        assert!(d * (N as f64).sqrt() < KS_99, "D = {d}");
    }

    #[test]
    fn gamma_boost_path_passes_ks_against_gamma_p() {
        const N: usize = 200_000;
        let g = Gamma::new(0.4, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let mut x: Vec<f64> = (0..N).map(|_| g.sample(&mut rng)).collect();
        let d = ks_statistic(&mut x, |x| g.cdf(x).unwrap());
        assert!(d * (N as f64).sqrt() < KS_99, "D = {d}");
    }

    #[test]
    fn samplers_are_deterministic_for_fixed_seed() {
        let d = Gamma::new(4.0, 50.0).unwrap();
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }
}
