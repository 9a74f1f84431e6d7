//! Special functions: log-gamma, regularized incomplete gamma (and its
//! inverse), error function, and the standard normal CDF/quantile.
//!
//! These are the classical algorithms (Lanczos approximation, power series +
//! Lentz continued fraction, Halley-refined Wilson–Hilferty inverse) with
//! accuracy around `1e-13` relative over the ranges exercised by the model:
//! Gamma shapes `β ∈ [0.1, 1e4]` and percentile levels `p ∈ [1e-12, 1-1e-12]`.

use crate::{NumericsError, Result};

/// Lanczos coefficients for `g = 7`, `n = 9` (Godfrey / Numerical Recipes).
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEF: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_1,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_312e-7,
];

/// Natural logarithm of the gamma function `ln Γ(x)` for `x > 0`.
///
/// Uses the Lanczos approximation; relative error below `1e-13` on
/// `x ∈ (0, 1e15)`.
///
/// ```
/// // Γ(5) = 4! = 24
/// assert!((mzd_numerics::special::ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
/// ```
///
/// # Panics
/// Does not panic; returns `f64::NAN` for `x <= 0` (poles and the branch
/// cut are not needed by this workspace).
#[must_use]
pub fn ln_gamma(x: f64) -> f64 {
    if x <= 0.0 || x.is_nan() {
        return f64::NAN;
    }
    // For small x use the recurrence ln Γ(x) = ln Γ(x+1) − ln x to keep the
    // Lanczos series in its sweet spot.
    if x < 0.5 {
        return ln_gamma(x + 1.0) - x.ln();
    }
    let xm1 = x - 1.0;
    let mut acc = LANCZOS_COEF[0];
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        acc += c / (xm1 + i as f64);
    }
    let t = xm1 + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (xm1 + 0.5) * t.ln() - t + acc.ln()
}

/// Maximum iterations for the incomplete-gamma series / continued fraction.
const IG_MAX_ITER: usize = 600;
/// Convergence tolerance for incomplete-gamma evaluation.
const IG_EPS: f64 = 1e-15;

/// Regularized lower incomplete gamma function
/// `P(a, x) = γ(a, x) / Γ(a)` for `a > 0`, `x ≥ 0`.
///
/// This is the CDF of a Gamma(shape `a`, scale 1) random variable.
///
/// # Errors
/// Returns [`NumericsError::Domain`] if `a ≤ 0` or `x < 0`, and
/// [`NumericsError::NoConvergence`] if the series/continued fraction fails
/// (practically unreachable for finite inputs).
pub fn gamma_p(a: f64, x: f64) -> Result<f64> {
    if !(a > 0.0) || !(x >= 0.0) {
        return Err(NumericsError::Domain {
            what: "gamma_p",
            detail: format!("require a > 0 and x >= 0, got a = {a}, x = {x}"),
        });
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        Ok(1.0 - gamma_q_cf(a, x)?)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 − P(a, x)`.
///
/// # Errors
/// Same domain requirements as [`gamma_p`].
pub fn gamma_q(a: f64, x: f64) -> Result<f64> {
    if !(a > 0.0) || !(x >= 0.0) {
        return Err(NumericsError::Domain {
            what: "gamma_q",
            detail: format!("require a > 0 and x >= 0, got a = {a}, x = {x}"),
        });
    }
    if x == 0.0 {
        return Ok(1.0);
    }
    if x < a + 1.0 {
        Ok(1.0 - gamma_p_series(a, x)?)
    } else {
        gamma_q_cf(a, x)
    }
}

/// Power-series evaluation of `P(a, x)`, convergent (and used) for
/// `x < a + 1`.
fn gamma_p_series(a: f64, x: f64) -> Result<f64> {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..IG_MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * IG_EPS {
            let lg = ln_gamma(a);
            return Ok((sum * (-x + a * x.ln() - lg).exp()).clamp(0.0, 1.0));
        }
    }
    Err(NumericsError::NoConvergence {
        what: "gamma_p_series",
        iterations: IG_MAX_ITER,
    })
}

/// Modified-Lentz continued fraction evaluation of `Q(a, x)`, convergent
/// (and used) for `x ≥ a + 1`.
fn gamma_q_cf(a: f64, x: f64) -> Result<f64> {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=IG_MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < IG_EPS {
            let lg = ln_gamma(a);
            return Ok((h * (-x + a * x.ln() - lg).exp()).clamp(0.0, 1.0));
        }
    }
    Err(NumericsError::NoConvergence {
        what: "gamma_q_cf",
        iterations: IG_MAX_ITER,
    })
}

/// Inverse of the regularized lower incomplete gamma function: finds `x`
/// with `P(a, x) = p`.
///
/// This is the quantile function of Gamma(shape `a`, scale 1); the
/// worst-case admission bound (paper eq. 4.1) uses it for the 95th/99th
/// percentile of the fragment-size distribution.
///
/// Starts from the Wilson–Hilferty normal approximation and polishes with
/// Halley steps on `P(a, x) − p` (the derivative is the Gamma pdf).
///
/// # Errors
/// [`NumericsError::Domain`] unless `a > 0` and `0 ≤ p < 1`.
pub fn inverse_gamma_p(a: f64, p: f64) -> Result<f64> {
    if !(a > 0.0) || !(0.0..1.0).contains(&p) {
        return Err(NumericsError::Domain {
            what: "inverse_gamma_p",
            detail: format!("require a > 0 and 0 <= p < 1, got a = {a}, p = {p}"),
        });
    }
    if p == 0.0 {
        return Ok(0.0);
    }
    let lg = ln_gamma(a);

    // Wilson–Hilferty: if G ~ Gamma(a,1) then (G/a)^(1/3) is approximately
    // normal with mean 1 − 1/(9a) and variance 1/(9a).
    let z = standard_normal_quantile(p);
    let t = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * a.sqrt());
    let mut x = if t > 0.0 {
        a * t * t * t
    } else {
        // Deep lower tail or tiny shape: use the small-x asymptotic
        // P(a, x) ≈ x^a / (a Γ(a)).
        ((p * a).ln() + lg).mul_add(1.0 / a, 0.0).exp()
    };
    if !x.is_finite() || x <= 0.0 {
        x = a.max(1e-8);
    }

    // Halley iteration: f(x) = P(a,x) − p, f' = pdf, f''/f' = (a−1)/x − 1.
    for _ in 0..64 {
        let f = gamma_p(a, x)? - p;
        let ln_pdf = (a - 1.0) * x.ln() - x - lg;
        let pdf = ln_pdf.exp();
        if pdf <= 0.0 || !pdf.is_finite() {
            break;
        }
        let newton = f / pdf;
        let hal = newton / (1.0 - 0.5 * newton * ((a - 1.0) / x - 1.0)).max(0.5);
        let mut x_new = x - hal;
        if x_new <= 0.0 {
            x_new = 0.5 * x;
        }
        if (x_new - x).abs() <= 1e-14 * x.max(1.0) {
            return Ok(x_new);
        }
        x = x_new;
    }
    // Fall back to bisection if Halley stalled (extremely skewed cases).
    let mut lo = 0.0;
    let mut hi = x.max(1.0);
    while gamma_p(a, hi)? < p {
        hi *= 2.0;
        if hi > 1e300 {
            return Err(NumericsError::NoConvergence {
                what: "inverse_gamma_p",
                iterations: 64,
            });
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if gamma_p(a, mid)? < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo <= 1e-14 * hi.max(1.0) {
            break;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Error function `erf(x)`, via the regularized incomplete gamma identity
/// `erf(x) = sign(x) · P(1/2, x²)`.
#[must_use]
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let p = gamma_p(0.5, x * x).unwrap_or(f64::NAN);
    if x > 0.0 {
        p
    } else {
        -p
    }
}

/// Complementary error function `erfc(x) = 1 − erf(x)`, computed without
/// cancellation in the right tail.
#[must_use]
pub fn erfc(x: f64) -> f64 {
    if x <= 0.0 {
        // No cancellation on this side: erf(−x) ≥ 0.
        return 1.0 + erf(-x);
    }
    gamma_q(0.5, x * x).unwrap_or(f64::NAN)
}

/// Standard normal cumulative distribution function `Φ(x)`.
#[must_use]
pub fn standard_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard normal quantile function `Φ⁻¹(p)` for `0 < p < 1`
/// (Acklam's rational approximation, refined with one Halley step; absolute
/// error below `1e-12`).
///
/// Returns `±∞` at `p ∈ {0, 1}` and `NaN` outside `[0, 1]`.
#[must_use]
pub fn standard_normal_quantile(p: f64) -> f64 {
    if p.is_nan() || !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }

    // Acklam coefficients.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement using the exact CDF.
    let e = standard_normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Natural log of the binomial coefficient `ln C(n, k)`.
///
/// Exact via `ln Γ`; valid for `0 ≤ k ≤ n`.
#[must_use]
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * b.abs().max(1.0),
            "expected {b}, got {a} (tol {tol})"
        );
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n−1)!
        let mut fact = 1.0f64;
        for n in 1..=20u32 {
            assert_close(ln_gamma(f64::from(n)), fact.ln(), 1e-13);
            fact *= f64::from(n);
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π
        assert_close(ln_gamma(0.5), 0.5 * std::f64::consts::PI.ln(), 1e-13);
        // Γ(3/2) = √π / 2
        assert_close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-13,
        );
    }

    #[test]
    fn ln_gamma_reflection_small_arg() {
        // Recurrence consistency: Γ(x+1) = x Γ(x)
        for &x in &[0.1, 0.25, 0.45, 0.75, 1.3, 2.6, 11.5] {
            assert_close(ln_gamma(x + 1.0), ln_gamma(x) + x.ln(), 1e-12);
        }
    }

    #[test]
    fn ln_gamma_invalid_is_nan() {
        assert!(ln_gamma(0.0).is_nan());
        assert!(ln_gamma(-1.5).is_nan());
        assert!(ln_gamma(f64::NAN).is_nan());
    }

    #[test]
    fn gamma_p_known_values() {
        // P(1, x) = 1 − e^{-x} (exponential CDF).
        for &x in &[0.01, 0.5, 1.0, 3.0, 10.0] {
            assert_close(gamma_p(1.0, x).unwrap(), 1.0 - (-x).exp(), 1e-13);
        }
        // P(a, 0) = 0, Q(a, 0) = 1.
        assert_eq!(gamma_p(3.3, 0.0).unwrap(), 0.0);
        assert_eq!(gamma_q(3.3, 0.0).unwrap(), 1.0);
    }

    #[test]
    fn gamma_p_chi_squared_connection() {
        // If X ~ χ²(k) then P[X ≤ x] = P(k/2, x/2).
        // χ²(8) 99th percentile is 20.090235... so P(4, 10.0451...) ≈ 0.99.
        let p = gamma_p(4.0, 20.090_235_029_663_233 / 2.0).unwrap();
        assert_close(p, 0.99, 1e-9);
    }

    #[test]
    fn gamma_p_q_sum_to_one() {
        for &a in &[0.3, 1.0, 4.0, 17.5, 230.0] {
            for &x in &[0.01, 0.7, a, 2.0 * a, 5.0 * a] {
                let p = gamma_p(a, x).unwrap();
                let q = gamma_q(a, x).unwrap();
                assert_close(p + q, 1.0, 1e-12);
            }
        }
    }

    #[test]
    fn gamma_p_domain_errors() {
        assert!(gamma_p(0.0, 1.0).is_err());
        assert!(gamma_p(-1.0, 1.0).is_err());
        assert!(gamma_p(1.0, -0.5).is_err());
        assert!(gamma_q(0.0, 1.0).is_err());
    }

    #[test]
    fn inverse_gamma_p_round_trips() {
        for &a in &[0.5, 1.0, 2.0, 4.0, 25.0, 400.0] {
            for &p in &[1e-6, 0.01, 0.05, 0.5, 0.95, 0.99, 1.0 - 1e-6] {
                let x = inverse_gamma_p(a, p).unwrap();
                let p2 = gamma_p(a, x).unwrap();
                assert_close(p2, p, 1e-8);
            }
        }
    }

    #[test]
    fn inverse_gamma_p_paper_percentiles() {
        // Shape 4 (mean 200 KB, sd 100 KB → β = 4): the paper's worst-case
        // bound uses the 99th and 95th size percentiles.
        let x99 = inverse_gamma_p(4.0, 0.99).unwrap();
        assert_close(x99, 10.045_117_514_831_617, 1e-8); // χ²(8) pct / 2
        let x95 = inverse_gamma_p(4.0, 0.95).unwrap();
        assert_close(x95, 7.753_656_528_757_033, 1e-8);
    }

    #[test]
    fn inverse_gamma_p_edges() {
        assert_eq!(inverse_gamma_p(3.0, 0.0).unwrap(), 0.0);
        assert!(inverse_gamma_p(3.0, 1.0).is_err());
        assert!(inverse_gamma_p(-1.0, 0.5).is_err());
    }

    #[test]
    fn erf_known_values() {
        assert_eq!(erf(0.0), 0.0);
        assert_close(erf(1.0), 0.842_700_792_949_714_9, 1e-12);
        assert_close(erf(-1.0), -0.842_700_792_949_714_9, 1e-12);
        assert_close(erf(2.0), 0.995_322_265_018_952_7, 1e-12);
    }

    #[test]
    fn erfc_right_tail_no_cancellation() {
        // erfc(5) ≈ 1.537e-12 — a naive 1 − erf would lose everything.
        assert_close(erfc(5.0), 1.537_459_794_428_035e-12, 1e-6);
    }

    #[test]
    fn normal_cdf_symmetry_and_known() {
        assert_close(standard_normal_cdf(0.0), 0.5, 1e-14);
        assert_close(standard_normal_cdf(1.959_963_984_540_054), 0.975, 1e-10);
        for &x in &[0.3, 1.1, 2.7] {
            assert_close(standard_normal_cdf(x) + standard_normal_cdf(-x), 1.0, 1e-12);
        }
    }

    #[test]
    fn normal_quantile_round_trips() {
        for &p in &[1e-10, 1e-4, 0.025, 0.31, 0.5, 0.77, 0.975, 1.0 - 1e-4] {
            let z = standard_normal_quantile(p);
            assert_close(standard_normal_cdf(z), p, 1e-9);
        }
        assert_eq!(standard_normal_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(standard_normal_quantile(1.0), f64::INFINITY);
        assert!(standard_normal_quantile(-0.1).is_nan());
    }

    #[test]
    fn ln_choose_small_cases() {
        assert_close(ln_choose(5, 2), 10.0f64.ln(), 1e-12);
        assert_close(ln_choose(10, 0), 0.0, 1e-12);
        assert_close(ln_choose(10, 10), 0.0, 1e-12);
        assert_eq!(ln_choose(3, 5), f64::NEG_INFINITY);
        // C(1200, 12) — the paper's M and g.
        let direct: f64 = (0..12).map(|i| ((1200 - i) as f64).ln()).sum::<f64>() - ln_gamma(13.0);
        assert_close(ln_choose(1200, 12), direct, 1e-10);
    }
}
