//! Scalar root finding: bisection and Brent's method.
//!
//! Used by the analytic model to solve `h'(θ) = 0` cross-checks, to invert
//! monotone CDFs, and by the admission-control search to locate quality
//! thresholds along continuous parameter sweeps.

use crate::{NumericsError, Result};

/// Maximum iterations for the bracketing root finders.
const MAX_ITER: usize = 200;

/// Find a root of `f` in `[a, b]` by bisection. Requires a sign change.
///
/// Robust and derivative-free; linear convergence. Returns the midpoint of
/// the final bracket once its width is below `tol` (absolute).
///
/// # Errors
/// [`NumericsError::BadBracket`] if `f(a)` and `f(b)` have the same sign,
/// [`NumericsError::Domain`] for invalid bounds.
pub fn bisect<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, tol: f64) -> Result<f64> {
    if !a.is_finite() || !b.is_finite() || a >= b {
        return Err(NumericsError::Domain {
            what: "bisect",
            detail: format!("require finite a < b, got [{a}, {b}]"),
        });
    }
    let mut lo = a;
    let mut hi = b;
    let flo = f(lo);
    let fhi = f(hi);
    if flo == 0.0 {
        return Ok(lo);
    }
    if fhi == 0.0 {
        return Ok(hi);
    }
    if flo.signum() == fhi.signum() {
        return Err(NumericsError::BadBracket {
            what: "bisect",
            detail: format!("f({a}) = {flo} and f({b}) = {fhi} have the same sign"),
        });
    }
    let mut flo = flo;
    for _ in 0..MAX_ITER {
        let mid = 0.5 * (lo + hi);
        let fmid = f(mid);
        if fmid == 0.0 || hi - lo < tol.max(f64::EPSILON * mid.abs()) {
            return Ok(mid);
        }
        if fmid.signum() == flo.signum() {
            lo = mid;
            flo = fmid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Find a root of `f` in `[a, b]` with Brent's method (inverse quadratic
/// interpolation + secant + bisection safeguards). Superlinear convergence
/// on smooth functions, never worse than bisection.
///
/// # Errors
/// [`NumericsError::BadBracket`] if there is no sign change over `[a, b]`,
/// [`NumericsError::Domain`] for invalid bounds.
pub fn brent<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, tol: f64) -> Result<f64> {
    if !a.is_finite() || !b.is_finite() || a >= b {
        return Err(NumericsError::Domain {
            what: "brent",
            detail: format!("require finite a < b, got [{a}, {b}]"),
        });
    }
    let mut xa = a;
    let mut xb = b;
    let mut fa = f(xa);
    let mut fb = f(xb);
    if fa == 0.0 {
        return Ok(xa);
    }
    if fb == 0.0 {
        return Ok(xb);
    }
    if fa.signum() == fb.signum() {
        return Err(NumericsError::BadBracket {
            what: "brent",
            detail: format!("f({a}) = {fa} and f({b}) = {fb} have the same sign"),
        });
    }
    let mut xc = xa;
    let mut fc = fa;
    let mut d = xb - xa;
    let mut e = d;
    for _ in 0..MAX_ITER {
        if fb.abs() > fc.abs() {
            // Ensure b is the best estimate.
            xa = xb;
            xb = xc;
            xc = xa;
            fa = fb;
            fb = fc;
            fc = fa;
        }
        let tol1 = 2.0 * f64::EPSILON * xb.abs() + 0.5 * tol;
        let xm = 0.5 * (xc - xb);
        if xm.abs() <= tol1 || fb == 0.0 {
            return Ok(xb);
        }
        if e.abs() >= tol1 && fa.abs() > fb.abs() {
            // Attempt inverse quadratic / secant interpolation.
            let s = fb / fa;
            let (mut p, mut q) = if xa == xc {
                (2.0 * xm * s, 1.0 - s)
            } else {
                let q = fa / fc;
                let r = fb / fc;
                (
                    s * (2.0 * xm * q * (q - r) - (xb - xa) * (r - 1.0)),
                    (q - 1.0) * (r - 1.0) * (s - 1.0),
                )
            };
            if p > 0.0 {
                q = -q;
            }
            p = p.abs();
            let min1 = 3.0 * xm * q - (tol1 * q).abs();
            let min2 = (e * q).abs();
            if 2.0 * p < min1.min(min2) {
                e = d;
                d = p / q;
            } else {
                d = xm;
                e = d;
            }
        } else {
            d = xm;
            e = d;
        }
        xa = xb;
        fa = fb;
        xb += if d.abs() > tol1 { d } else { tol1.copysign(xm) };
        fb = f(xb);
        if (fb > 0.0) == (fc > 0.0) {
            xc = xa;
            fc = fa;
            d = xb - xa;
            e = d;
        }
    }
    Err(NumericsError::NoConvergence {
        what: "brent",
        iterations: MAX_ITER,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a}");
    }

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12).unwrap();
        assert_close(r, std::f64::consts::SQRT_2, 1e-11);
    }

    #[test]
    fn bisect_endpoint_roots() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, 1e-9).unwrap(), 0.0);
        assert_eq!(bisect(|x| x - 1.0, 0.0, 1.0, 1e-9).unwrap(), 1.0);
    }

    #[test]
    fn bisect_rejects_bad_bracket() {
        assert!(bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-9).is_err());
        assert!(bisect(|x| x, 1.0, 0.0, 1e-9).is_err());
    }

    #[test]
    fn brent_transcendental_roots() {
        let r = brent(|x| x.cos() - x, 0.0, 1.0, 1e-14).unwrap();
        assert_close(r, 0.739_085_133_215_160_6, 1e-12);
        let r = brent(|x| x.exp() - 5.0, 0.0, 3.0, 1e-14).unwrap();
        assert_close(r, 5.0f64.ln(), 1e-12);
    }

    #[test]
    fn brent_matches_bisect_but_faster_converges() {
        let f = |x: f64| x.powi(3) - 2.0 * x - 5.0; // classic Brent test, root ≈ 2.0945515
        let rb = brent(f, 2.0, 3.0, 1e-14).unwrap();
        assert_close(rb, 2.094_551_481_542_327, 1e-10);
    }

    #[test]
    fn brent_rejects_bad_bracket() {
        assert!(brent(|x| x * x + 1.0, -1.0, 1.0, 1e-9).is_err());
    }
}
