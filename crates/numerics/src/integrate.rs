//! Numerical quadrature: adaptive Simpson and Gauss–Legendre rules.
//!
//! The multi-zone transfer-time density (paper eq. 3.2.7) is a smooth
//! product-distribution integral over the transfer-rate support
//! `[C_min/ROT, C_max/ROT]`; its moments feed the Gamma moment-matching of
//! §3.2. Gauss–Legendre is the workhorse (the integrands are analytic);
//! adaptive Simpson is kept as an error-controlled cross-check and for
//! integrands with mild kinks (e.g. piecewise seek curves).

use crate::{NumericsError, Result};

/// Integrate `f` over `[a, b]` with adaptive Simpson's rule to absolute
/// tolerance `tol`.
///
/// # Errors
/// [`NumericsError::Domain`] for non-finite bounds,
/// [`NumericsError::NoConvergence`] if the recursion depth budget (60) is
/// exhausted before reaching `tol`.
pub fn adaptive_simpson<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, tol: f64) -> Result<f64> {
    if !a.is_finite() || !b.is_finite() {
        return Err(NumericsError::Domain {
            what: "adaptive_simpson",
            detail: format!("bounds must be finite, got [{a}, {b}]"),
        });
    }
    if a == b {
        return Ok(0.0);
    }
    let (lo, hi, sign) = if a < b { (a, b, 1.0) } else { (b, a, -1.0) };
    let m = 0.5 * (lo + hi);
    let flo = f(lo);
    let fm = f(m);
    let fhi = f(hi);
    let whole = simpson_rule(lo, hi, flo, fm, fhi);
    let v = simpson_recurse(&f, lo, hi, flo, fm, fhi, whole, tol.max(1e-300), 60)?;
    Ok(sign * v)
}

fn simpson_rule(a: f64, b: f64, fa: f64, fm: f64, fb: f64) -> f64 {
    (b - a) / 6.0 * (fa + 4.0 * fm + fb)
}

#[allow(clippy::too_many_arguments)]
fn simpson_recurse<F: Fn(f64) -> f64>(
    f: &F,
    a: f64,
    b: f64,
    fa: f64,
    fm: f64,
    fb: f64,
    whole: f64,
    tol: f64,
    depth: usize,
) -> Result<f64> {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = f(lm);
    let frm = f(rm);
    let left = simpson_rule(a, m, fa, flm, fm);
    let right = simpson_rule(m, b, fm, frm, fb);
    let delta = left + right - whole;
    if delta.abs() <= 15.0 * tol || (b - a) < 1e-14 * (a.abs() + b.abs() + 1.0) {
        return Ok(left + right + delta / 15.0);
    }
    if depth == 0 {
        return Err(NumericsError::NoConvergence {
            what: "adaptive_simpson",
            iterations: 60,
        });
    }
    let lv = simpson_recurse(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)?;
    let rv = simpson_recurse(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)?;
    Ok(lv + rv)
}

/// A Gauss–Legendre quadrature rule of fixed order on `[-1, 1]`.
///
/// Nodes and weights are computed once (Newton iteration on the Legendre
/// polynomial, the standard Golub-free construction) and can be reused for
/// many integrals — the analytic model evaluates the transfer-time density
/// at hundreds of points when validating the Gamma approximation.
#[derive(Debug, Clone)]
pub struct GaussLegendre {
    nodes: Vec<f64>,
    weights: Vec<f64>,
}

impl GaussLegendre {
    /// Construct the rule with `n ≥ 1` points (exact for polynomials of
    /// degree `2n − 1`).
    ///
    /// # Errors
    /// [`NumericsError::Domain`] if `n == 0`.
    pub fn new(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(NumericsError::Domain {
                what: "GaussLegendre::new",
                detail: "order must be at least 1".into(),
            });
        }
        let mut nodes = vec![0.0; n];
        let mut weights = vec![0.0; n];
        let m = n.div_ceil(2);
        for i in 0..m {
            // Chebyshev-based initial guess for the i-th root.
            let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
            let mut pp = 0.0;
            for _ in 0..100 {
                // Evaluate P_n(x) and P'_n(x) by recurrence.
                let mut p0 = 1.0;
                let mut p1 = x;
                for k in 2..=n {
                    let kf = k as f64;
                    let p2 = ((2.0 * kf - 1.0) * x * p1 - (kf - 1.0) * p0) / kf;
                    p0 = p1;
                    p1 = p2;
                }
                // p1 = P_n, p0 = P_{n−1}
                let pn = if n == 1 { x } else { p1 };
                let pnm1 = if n == 1 { 1.0 } else { p0 };
                pp = n as f64 * (x * pn - pnm1) / (x * x - 1.0);
                let dx = pn / pp;
                x -= dx;
                if dx.abs() < 1e-15 {
                    break;
                }
            }
            nodes[i] = -x;
            nodes[n - 1 - i] = x;
            let w = 2.0 / ((1.0 - x * x) * pp * pp);
            weights[i] = w;
            weights[n - 1 - i] = w;
        }
        Ok(Self { nodes, weights })
    }

    /// Number of quadrature points.
    #[must_use]
    pub fn order(&self) -> usize {
        self.nodes.len()
    }

    /// Integrate `f` over `[a, b]`.
    pub fn integrate<F: Fn(f64) -> f64>(&self, f: F, a: f64, b: f64) -> f64 {
        let half = 0.5 * (b - a);
        let mid = 0.5 * (a + b);
        let mut acc = 0.0;
        for (&x, &w) in self.nodes.iter().zip(&self.weights) {
            acc += w * f(mid + half * x);
        }
        half * acc
    }

    /// The explicit `(node, weight)` pairs of [`Self::integrate_panels`]
    /// over `[a, b]` with `pieces` equal panels, in evaluation order, so
    /// `Σ w_k · f(x_k)` equals `integrate_panels(f, …)` up to rounding:
    /// each weight here carries its panel's half-width, which
    /// `integrate_panels` applies after summing a panel. Lets a caller
    /// evaluate an expensive integrand once per node and reuse the
    /// samples across many related integrals (e.g. one characteristic
    /// function inverted at many grid points).
    #[must_use]
    pub fn panel_points(&self, a: f64, b: f64, pieces: usize) -> Vec<(f64, f64)> {
        let pieces = pieces.max(1);
        let h = (b - a) / pieces as f64;
        let mut points = Vec::with_capacity(pieces * self.nodes.len());
        for k in 0..pieces {
            let lo = a + h * k as f64;
            let half = 0.5 * h;
            let mid = lo + half;
            for (&x, &w) in self.nodes.iter().zip(&self.weights) {
                points.push((mid + half * x, half * w));
            }
        }
        points
    }

    /// Integrate `f` over `[a, b]` split into `pieces` equal panels —
    /// useful when the integrand has moderate curvature variation across
    /// the interval (e.g. densities peaked near one end).
    pub fn integrate_panels<F: Fn(f64) -> f64>(&self, f: F, a: f64, b: f64, pieces: usize) -> f64 {
        let pieces = pieces.max(1);
        let h = (b - a) / pieces as f64;
        let mut acc = 0.0;
        for k in 0..pieces {
            let lo = a + h * k as f64;
            acc += self.integrate(&f, lo, lo + h);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn simpson_polynomial_exact() {
        // Simpson is exact for cubics.
        let v = adaptive_simpson(|x| x * x * x - 2.0 * x + 1.0, -1.0, 3.0, 1e-12).unwrap();
        // ∫ = x⁴/4 − x² + x on [−1, 3] = (81/4 − 9 + 3) − (1/4 − 1 − 1) = 16
        assert_close(v, 16.0, 1e-12);
    }

    #[test]
    fn simpson_transcendental() {
        let v = adaptive_simpson(f64::sin, 0.0, std::f64::consts::PI, 1e-12).unwrap();
        assert_close(v, 2.0, 1e-10);
        let v = adaptive_simpson(|x| (-x).exp(), 0.0, 30.0, 1e-13).unwrap();
        assert_close(v, 1.0, 1e-9);
    }

    #[test]
    fn simpson_reversed_bounds_negates() {
        let fwd = adaptive_simpson(|x| x.exp(), 0.0, 1.0, 1e-12).unwrap();
        let rev = adaptive_simpson(|x| x.exp(), 1.0, 0.0, 1e-12).unwrap();
        assert_close(fwd, -rev, 1e-13);
    }

    #[test]
    fn simpson_degenerate_and_bad_inputs() {
        assert_eq!(adaptive_simpson(|x| x, 2.0, 2.0, 1e-9).unwrap(), 0.0);
        assert!(adaptive_simpson(|x| x, f64::NAN, 1.0, 1e-9).is_err());
        assert!(adaptive_simpson(|x| x, 0.0, f64::INFINITY, 1e-9).is_err());
    }

    #[test]
    fn gauss_legendre_low_orders_known_nodes() {
        // n = 2: nodes ±1/√3, weights 1.
        let g = GaussLegendre::new(2).unwrap();
        assert_close(g.nodes[1], 1.0 / 3.0f64.sqrt(), 1e-14);
        assert_close(g.weights[0], 1.0, 1e-14);
        // n = 3: nodes 0, ±√(3/5); weights 8/9, 5/9.
        let g = GaussLegendre::new(3).unwrap();
        assert_close(g.nodes[2], (3.0f64 / 5.0).sqrt(), 1e-14);
        assert_close(g.weights[1], 8.0 / 9.0, 1e-14);
        assert_close(g.weights[0], 5.0 / 9.0, 1e-14);
    }

    #[test]
    fn gauss_legendre_exactness_degree() {
        // Order n integrates x^(2n−1) exactly.
        let g = GaussLegendre::new(8).unwrap();
        let v = g.integrate(|x| x.powi(15), 0.0, 1.0);
        assert_close(v, 1.0 / 16.0, 1e-13);
    }

    #[test]
    fn gauss_legendre_matches_simpson_on_density_like_integrand() {
        // Integrand shaped like the multi-zone transfer-time inner integral.
        let f = |r: f64| r * r * (-0.8 * r).exp();
        let g = GaussLegendre::new(64).unwrap();
        let gl = g.integrate(f, 7.0, 11.5);
        let si = adaptive_simpson(f, 7.0, 11.5, 1e-13).unwrap();
        assert_close(gl, si, 1e-11);
    }

    #[test]
    fn gauss_legendre_panels() {
        let g = GaussLegendre::new(16).unwrap();
        let one = g.integrate(|x| (-x * x).exp(), -6.0, 6.0);
        let many = g.integrate_panels(|x| (-x * x).exp(), -6.0, 6.0, 8);
        assert_close(many, std::f64::consts::PI.sqrt(), 1e-12);
        // Single panel at order 16 over a wide Gaussian is noticeably worse.
        assert!(
            (one - std::f64::consts::PI.sqrt()).abs() >= (many - std::f64::consts::PI.sqrt()).abs()
        );
    }

    #[test]
    fn gauss_legendre_zero_order_rejected() {
        assert!(GaussLegendre::new(0).is_err());
    }

    #[test]
    fn gauss_legendre_weights_sum_to_two() {
        for n in [1, 2, 5, 16, 64, 128] {
            let g = GaussLegendre::new(n).unwrap();
            let s: f64 = g.weights.iter().sum();
            assert_close(s, 2.0, 1e-12);
            assert_eq!(g.order(), n);
        }
    }

    #[test]
    fn panel_points_reproduce_panel_integration() {
        let g = GaussLegendre::new(16).unwrap();
        let f = |x: f64| (x * 1.7).sin() * (-0.3 * x).exp();
        for pieces in [1usize, 3, 17] {
            let direct = g.integrate_panels(f, 0.25, 9.5, pieces);
            let points = g.panel_points(0.25, 9.5, pieces);
            assert_eq!(points.len(), pieces * g.order());
            let via_points: f64 = points.iter().map(|&(x, w)| w * f(x)).sum();
            assert_close(via_points, direct, 1e-13);
            // Weights cover the interval.
            let total_w: f64 = points.iter().map(|&(_, w)| w).sum();
            assert_close(total_w, 9.5 - 0.25, 1e-12);
        }
    }
}
