//! Exact tail of the round service time by characteristic-function
//! inversion (Gil–Pelaez).
//!
//! The model of eq. 3.1.1 has a known characteristic function — the same
//! product as the Laplace–Stieltjes transform of eq. 3.1.4 evaluated at
//! `s = −iω`:
//!
//! ```text
//! φ(ω) = e^{iω·SEEK} · ((e^{iω·ROT} − 1)/(iω·ROT))^N · (α/(α − iω))^{βN}
//! ```
//!
//! Gil–Pelaez inverts it directly:
//!
//! ```text
//! P[T ≤ t] = 1/2 − (1/π) ∫₀^∞ Im(e^{−iωt}·φ(ω)) / ω dω
//! ```
//!
//! The Gamma factor decays like `(1 + ω²/α²)^{−βN/2}` — brutally fast for
//! the paper's `βN ≈ 100` — so a panel Gauss–Legendre rule over a finite
//! `[0, ω_max]` gives 10+ digits. This is the model's **exact** answer
//! (up to quadrature), against which both the Chernoff bound and the
//! saddlepoint estimate can be judged without simulation noise.
//!
//! Cost: per quadrature node, one closed-form CF evaluation
//! (`round_cf`) and one `sin`/`cos` pair for the rotation; about
//! 1 500 nodes at the paper's `N = 28` and `t = 1 s`, ~0.16 ms in all
//! (the `exact_p_late_n28` row of `experiments -- bench-summary`, its
//! golden in `crates/bench/golden/BENCH_baseline.json`). Fine for
//! studies, ~80× the closed-form bound the admission path uses;
//! [`CfQuadrature`] shares that work across many inversion points.

use crate::chernoff::RoundService;
use crate::CoreError;
use mzd_numerics::complex::Complex;
use mzd_numerics::integrate::GaussLegendre;

/// Largest envelope `|φ(ω)|/ω` the quadrature may drop (see
/// [`truncation_point`]).
const TAIL_ENVELOPE: f64 = 1e-15;

/// Characteristic function `φ(ω)` of the round total, in closed polar
/// form. With `h = ω·ROT/2` and `s = sin(h)/h`, the rotation factor is
/// `(e^{2ih} − 1)/(2ih) = s·e^{ih}`, and the Gamma factor
/// `α/(α − iω)` has modulus `(1 + (ω/α)²)^{−1/2}` and argument
/// `atan(ω/α)` (its principal value, as the real part is positive), so
///
/// ```text
/// |φ| = |s|^N · (1 + (ω/α)²)^{−βN/2}
/// arg φ = ω·SEEK + N·(h + π·[s < 0]) + βN·atan(ω/α)
/// ```
///
/// `N` is an integer, so the rotation factor's `N`-th power has no
/// branch to choose. One `sin`, `ln`, `ln_1p`, `atan`, `exp` and one
/// `sin`/`cos` pair per node.
fn round_cf(model: &RoundService, omega: f64) -> Complex {
    let n = f64::from(model.n());
    let beta_n = model.transfer().beta() * n;
    let h = 0.5 * omega * model.rotation_time();
    // sin(h)/h, by its series where the quotient loses precision.
    let s = if h.abs() < 5e-9 {
        1.0 - h * h / 6.0
    } else {
        h.sin() / h
    };
    let z = omega / model.transfer().alpha();
    let ln_modulus = n * s.abs().ln() - 0.5 * beta_n * (z * z).ln_1p();
    let sign_turn = if s < 0.0 { std::f64::consts::PI } else { 0.0 };
    let arg = omega * model.seek_constant() + n * (h + sign_turn) + beta_n * z.atan();
    Complex::from_polar(ln_modulus.exp(), arg)
}

/// `ln` of the envelope
/// `E(ω) = min(1, 1/|h|)^N · (1 + (ω/α)²)^{−βN/2} / ω`, `h = ω·ROT/2`.
/// `|sin h| ≤ min(|h|, 1)` makes it an upper bound on `|φ(ω)|/ω`, and
/// each factor is non-increasing in `ω > 0`, so it decreases
/// monotonically.
fn ln_envelope(model: &RoundService, omega: f64) -> f64 {
    let n = f64::from(model.n());
    let h = 0.5 * omega * model.rotation_time();
    let z = omega / model.transfer().alpha();
    -n * h.abs().max(1.0).ln() - 0.5 * model.transfer().beta() * n * (z * z).ln_1p() - omega.ln()
}

/// Where the Gil–Pelaez quadrature stops: the smallest `ω_max` (to a
/// relative 1e-9) at which the envelope `E` of [`ln_envelope`] is at
/// most [`TAIL_ENVELOPE`], found by doubling, then bisection. `E` is
/// monotone, so the search cannot stop early on a zero of `sin(h)`, as
/// a test of `|φ|` at one point can.
///
/// The dropped tail is bounded: for `ω = u·ω_max`, `u ≥ 1`, weighted
/// AM–GM gives `(1 + u²z²)/(1 + z²) ≥ u^{2q}` with `z = ω_max/α` and
/// `q = z²/(1 + z²)`, so `E(ω) ≤ E(ω_max)·u^{−1−βN·q}` and
///
/// ```text
/// (1/π)·∫_{ω_max}^∞ |Im(e^{−iωt}·φ(ω))|/ω dω ≤ TAIL_ENVELOPE · ω_max · (1 + (α/ω_max)²) / (π·βN)
/// ```
///
/// for every `t`: about 1e-15 on the paper disk at `N = 25`
/// (`ω_max ≈ 160` rad/s).
fn truncation_point(model: &RoundService) -> f64 {
    let ln_tol = TAIL_ENVELOPE.ln();
    let (mut lo, mut hi) = (0.0, model.transfer().alpha());
    while ln_envelope(model, hi) > ln_tol {
        lo = hi;
        hi *= 2.0;
    }
    while hi - lo > 1e-9 * hi {
        let mid = 0.5 * (lo + hi);
        if ln_envelope(model, mid) > ln_tol {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// The `(ω_k, w_k)` nodes of the Gil–Pelaez quadrature for inverting
/// `model` at points up to `t_max`: panels of 16-point Gauss–Legendre
/// over `[0, ω_max]` ([`truncation_point`]), four per period of the
/// faster of the `e^{−iωt}` oscillation (period `2π/t_max`) and the
/// mean-scale phase of `φ` (period `2π/E[T]`), 64 to 400 000 panels.
/// Nodes are strictly interior, so `ω > 0` at every one.
fn inversion_nodes(model: &RoundService, t_max: f64) -> Result<Vec<(f64, f64)>, CoreError> {
    let omega_max = truncation_point(model);
    let period = (2.0 * std::f64::consts::PI / t_max)
        .min(2.0 * std::f64::consts::PI / model.mean().max(1e-9));
    let panels = ((omega_max / period) * 4.0).ceil().clamp(64.0, 400_000.0) as usize;
    Ok(GaussLegendre::new(16)?.panel_points(0.0, omega_max, panels))
}

/// Exact `P[T_N ≥ t]` by Gil–Pelaez inversion.
///
/// Absolute accuracy ~1e-10 for the parameter ranges this workspace uses
/// (validated against closed forms and quadrature refinement); returned
/// values below ~1e-12 are quadrature noise floor, not resolved
/// probabilities. Clamped to `[0, 1]`. One [`CfQuadrature`] sized for
/// `t`, inverted at `t`.
///
/// # Errors
/// [`CoreError::Invalid`] for a non-positive `t`.
pub fn p_late_exact(model: &RoundService, t: f64) -> Result<f64, CoreError> {
    if !(t > 0.0) || !t.is_finite() {
        return Err(CoreError::Invalid(format!(
            "round length must be positive, got {t}"
        )));
    }
    if model.n() == 0 {
        return Ok(f64::from(u8::from(t <= model.seek_constant())));
    }
    CfQuadrature::new(model, t)?.p_late(t)
}

/// Nodes per chunk when the CF table is filled in parallel: coarse
/// enough that per-task overhead vanishes against ~30 µs of ~60 ns CF
/// evaluations, fine enough to split across any sane worker count.
const CF_CHUNK: usize = 512;

/// Nodes a run sweep advances side by side: their rotation recurrences
/// are independent, so the multiplies of one overlap the latency of
/// the next.
const RUN_LANES: usize = 4;

/// A characteristic-function table shared across many inversion points.
///
/// [`p_late_exact`] re-evaluates `φ(ω)` over the whole quadrature grid
/// for every `t` — but `φ` does not depend on `t` at all; only the
/// rotation `e^{−iωt}` does. When one model is inverted at many points
/// (the [`crate::ServiceTimeCdf`] grid), `φ` is evaluated once per node
/// and shared by every point.
///
/// [`Self::p_late_run`] inverts a run of evenly spaced points
/// `t_j = t0 + j·Δ` without a `sin`/`cos` per point: each node pays one
/// pair for `e^{−iω·t0}` and one for the step `e^{−iω·Δ}`, and a
/// complex multiply advances the rotation from point to point, so each
/// further point costs a few multiply-adds per node. Compare the
/// `cdf_build_n28_257pt` row of `experiments -- bench-summary` (257
/// points) with `exact_p_late_n28` (one). [`Self::p_late`] rotates
/// each node from scratch for one point; it is the per-point reference
/// the run sweep is held to.
///
/// The quadrature is sized for the largest `t` the caller will query
/// (`t_max` sets the fastest `e^{−iωt}` oscillation), so accuracy at
/// any `t ∈ (0, t_max]` matches or exceeds the per-point rule. The
/// node set is fixed at construction, and both inversions are pure
/// functions of their arguments, byte-identical for any worker count.
#[derive(Debug, Clone)]
pub struct CfQuadrature {
    /// `(ω_k, w_k)` in evaluation order.
    points: Vec<(f64, f64)>,
    /// `φ(ω_k)`, the expensive `t`-independent factor.
    phi: Vec<Complex>,
}

impl CfQuadrature {
    /// Tabulate `φ(ω)` for inverting `model`'s CDF at points up to
    /// `t_max`. Node evaluation fans out over the global worker pool.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] for a non-positive `t_max` or an empty
    /// round (`n == 0` has a degenerate, deterministic distribution).
    pub fn new(model: &RoundService, t_max: f64) -> Result<Self, CoreError> {
        if !(t_max > 0.0) || !t_max.is_finite() {
            return Err(CoreError::Invalid(format!(
                "CF table needs a positive largest inversion point, got {t_max}"
            )));
        }
        if model.n() == 0 {
            return Err(CoreError::Invalid(
                "CF table needs at least one request per round".into(),
            ));
        }
        let points = inversion_nodes(model, t_max)?;
        let chunks = points.len().div_ceil(CF_CHUNK);
        let phi: Vec<Complex> = mzd_par::par_map_indexed(chunks, |c| {
            let lo = c * CF_CHUNK;
            let hi = ((c + 1) * CF_CHUNK).min(points.len());
            points[lo..hi]
                .iter()
                .map(|&(omega, _)| round_cf(model, omega))
                .collect::<Vec<Complex>>()
        })
        .into_iter()
        .flatten()
        .collect();
        Ok(Self { points, phi })
    }

    /// `P[T ≥ t]` by Gil–Pelaez inversion over the shared node set.
    /// Valid for `t ∈ (0, t_max]`; clamped to `[0, 1]`.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] for a non-positive `t`.
    pub fn p_late(&self, t: f64) -> Result<f64, CoreError> {
        if !(t > 0.0) || !t.is_finite() {
            return Err(CoreError::Invalid(format!(
                "round length must be positive, got {t}"
            )));
        }
        let mut integral = 0.0;
        for (&(omega, w), phi) in self.points.iter().zip(&self.phi) {
            let rotated = Complex::from_polar(1.0, -omega * t) * *phi;
            integral += w * rotated.im / omega;
        }
        let cdf = 0.5 - integral / std::f64::consts::PI;
        Ok((1.0 - cdf).clamp(0.0, 1.0))
    }

    /// `P[T ≥ t0 + j·step]` for `j = 0..count`: [`Self::p_late`] over a
    /// run of evenly spaced points, with the rotation advanced by
    /// recurrence instead of a `sin`/`cos` per point. Each point's
    /// integral is accumulated in node order, as in [`Self::p_late`];
    /// over the 65-point runs [`crate::ServiceTimeCdf`] makes, the two
    /// agree within 5e-15 absolute on every catalog disk. A point at
    /// `t ≤ 0` reports exactly 1 (a round never takes negative time).
    /// Valid for points up to `t_max`; clamped to `[0, 1]`.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] for a non-finite `t0` or `step`.
    pub fn p_late_run(&self, t0: f64, step: f64, count: usize) -> Result<Vec<f64>, CoreError> {
        if !t0.is_finite() || !step.is_finite() {
            return Err(CoreError::Invalid(format!(
                "inversion run needs a finite start and step, got {t0} and {step}"
            )));
        }
        let mut integrals = vec![0.0f64; count];
        for (nodes, phis) in self
            .points
            .chunks(RUN_LANES)
            .zip(self.phi.chunks(RUN_LANES))
        {
            // A lane past the last node keeps a zero weight and a zero
            // rotation: it adds +0.0, which leaves every sum unchanged.
            let mut rotated = [Complex::ZERO; RUN_LANES];
            let mut advance = [Complex::ONE; RUN_LANES];
            let mut weight = [0.0; RUN_LANES];
            for (lane, (&(omega, w), &phi)) in nodes.iter().zip(phis).enumerate() {
                rotated[lane] = Complex::from_polar(1.0, -omega * t0) * phi;
                advance[lane] = Complex::from_polar(1.0, -omega * step);
                weight[lane] = w / omega;
            }
            for integral in &mut integrals {
                for lane in 0..RUN_LANES {
                    *integral += weight[lane] * rotated[lane].im;
                    rotated[lane] = rotated[lane] * advance[lane];
                }
            }
        }
        Ok(integrals
            .into_iter()
            .enumerate()
            .map(|(j, integral)| {
                if t0 + step * j as f64 > 0.0 {
                    let cdf = 0.5 - integral / std::f64::consts::PI;
                    (1.0 - cdf).clamp(0.0, 1.0)
                } else {
                    1.0
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::TransferTimeModel;
    use crate::{GuaranteeModel, ZoneHandling};
    use std::f64::consts::PI;

    fn paper_round(n: u32) -> RoundService {
        GuaranteeModel::paper_reference()
            .unwrap()
            .round_service(n)
            .unwrap()
    }

    /// `φ(ω)` as the product of its three factors, two by complex
    /// `powf`: the reference the closed polar form is held to.
    fn round_cf_product(model: &RoundService, omega: f64) -> Complex {
        let n = f64::from(model.n());
        let alpha = model.transfer().alpha();
        let seek_f = Complex::from_polar(1.0, omega * model.seek_constant());
        let x = omega * model.rotation_time();
        let rot_base = if x.abs() < 1e-8 {
            Complex::new(1.0 - x * x / 6.0, x / 2.0)
        } else {
            (Complex::from_polar(1.0, x) - Complex::ONE) / Complex::new(0.0, x)
        };
        let gamma_base = Complex::from(alpha) / Complex::new(alpha, -omega);
        seek_f * rot_base.powf(n) * gamma_base.powf(model.transfer().beta() * n)
    }

    /// The quadrature the product was inverted with: `ω_max` doubled
    /// from `max(40/σ, α)` until `|φ|/ω ≤ 1e-15` at that one point, and
    /// `φ` by the product at every node.
    fn reference_quadrature(model: &RoundService, t_max: f64) -> CfQuadrature {
        let sigma = model.variance().sqrt().max(1e-9);
        let mut omega_max = (40.0 / sigma).max(model.transfer().alpha());
        while round_cf_product(model, omega_max).abs() / omega_max > 1e-15 && omega_max < 1e9 {
            omega_max *= 2.0;
        }
        let period = (2.0 * PI / t_max).min(2.0 * PI / model.mean().max(1e-9));
        let panels = ((omega_max / period) * 4.0).ceil().clamp(64.0, 400_000.0) as usize;
        let points = GaussLegendre::new(16)
            .unwrap()
            .panel_points(0.0, omega_max, panels);
        let phi = points
            .iter()
            .map(|&(omega, _)| round_cf_product(model, omega))
            .collect();
        CfQuadrature { points, phi }
    }

    /// Every catalog disk under the paper's fragment law.
    fn catalog() -> Vec<(&'static str, GuaranteeModel)> {
        use mzd_disk::profiles;
        [
            ("viking", profiles::quantum_viking_2_1()),
            ("single75", profiles::single_zone_75kb()),
            ("legacy", profiles::legacy_single_zone()),
            ("nextgen", profiles::next_generation()),
            ("synthetic2to1", profiles::synthetic_two_to_one()),
        ]
        .into_iter()
        .map(|(name, profile)| {
            let disk = profile.build().unwrap();
            let model = GuaranteeModel::new(disk, 200_000.0, 1e10, ZoneHandling::Discrete).unwrap();
            (name, model)
        })
        .collect()
    }

    /// Round populations from one request up to 8× the paper disk's
    /// 8-s limit.
    const CF_POPULATIONS: [u32; 5] = [1, 2, 27, 267, 2136];

    #[test]
    fn closed_form_matches_the_product_reference() {
        for (name, model) in catalog() {
            for n in CF_POPULATIONS {
                let m = model.round_service(n).unwrap();
                // ω in units where h = ω·ROT/2 runs over [0, 3π]: across
                // the sign changes of sin(h) at h = π and 2π; plus the
                // small-h series branch and its edge.
                let h_to_omega = 2.0 / m.rotation_time();
                let small = [1e-12, 4.9e-9, 5.1e-9, 1e-7].map(|h| h * h_to_omega);
                let dense = (1..=3000).map(|k| 3.0 * PI * f64::from(k) / 3000.0 * h_to_omega);
                for omega in small.into_iter().chain(dense) {
                    let got = round_cf(&m, omega);
                    let want = round_cf_product(&m, omega);
                    // The product loses relative precision where
                    // e^{iωROT} − 1 cancels, near each zero of sin(h).
                    let h = 0.5 * omega * m.rotation_time();
                    let near_zero = (h / PI - (h / PI).round()).abs().max(1e-300);
                    let tol = 1e-9 + f64::from(n) * 1e-15 / near_zero;
                    assert!(
                        (got - want).abs() <= tol * want.abs() + 1e-300,
                        "{name}, n = {n}, ω = {omega}: closed {got:?}, product {want:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn envelope_bounds_the_integrand_and_the_dropped_tail() {
        let rule = GaussLegendre::new(16).unwrap();
        for (name, model) in catalog() {
            for n in CF_POPULATIONS {
                let m = model.round_service(n).unwrap();
                let omega_max = truncation_point(&m);
                // The smallest ω with E ≤ 1e-15, to a relative 1e-9.
                assert!(ln_envelope(&m, omega_max) <= TAIL_ENVELOPE.ln());
                assert!(ln_envelope(&m, omega_max * (1.0 - 1e-8)) > TAIL_ENVELOPE.ln());
                for k in 1..=4000 {
                    let omega = 4.0 * omega_max * f64::from(k) / 4000.0;
                    let bound = ln_envelope(&m, omega).exp();
                    let ratio = round_cf(&m, omega).abs() / omega;
                    assert!(
                        ratio <= bound * (1.0 + 1e-12),
                        "{name}, n = {n}, ω = {omega}: |φ|/ω = {ratio} > envelope {bound}"
                    );
                }
                // ∫ |φ|/ω over [ω_max, 64·ω_max] on geometric panels,
                // plus the envelope's own tail bound beyond.
                let mut dropped = 0.0;
                for j in 0..24 {
                    let a = omega_max * 2f64.powf(f64::from(j) / 4.0);
                    let b = omega_max * 2f64.powf(f64::from(j + 1) / 4.0);
                    dropped += rule
                        .panel_points(a, b, 64)
                        .into_iter()
                        .map(|(w, weight)| weight * round_cf(&m, w).abs() / w)
                        .sum::<f64>();
                }
                let far = 64.0 * omega_max;
                let alpha = m.transfer().alpha();
                let beta_n = m.transfer().beta() * f64::from(n);
                let tail_bound =
                    |w: f64, env: f64| env * w * (1.0 + (alpha / w).powi(2)) / (PI * beta_n);
                dropped = dropped / PI + tail_bound(far, ln_envelope(&m, far).exp());
                let stated = tail_bound(omega_max, TAIL_ENVELOPE);
                assert!(
                    dropped <= stated,
                    "{name}, n = {n}: dropped tail {dropped} over the stated bound {stated}"
                );
            }
        }
    }

    /// `F_n` on the 65-point grid the SLO layer builds, inverted over
    /// `quad` in one rotation sweep with the grid's running maximum.
    fn slo_grid(quad: &CfQuadrature, m: &RoundService) -> Vec<f64> {
        let lo = m.seek_constant();
        let hi = m.mean() + 10.0 * m.variance().sqrt();
        let mut running = 0.0f64;
        quad.p_late_run(lo, (hi - lo) / 64.0, 65)
            .unwrap()
            .into_iter()
            .map(|p_late| {
                running = running.max((1.0 - p_late).clamp(0.0, 1.0));
                running
            })
            .collect()
    }

    #[test]
    fn grids_match_a_refined_inversion() {
        // Twice the truncation point and four times the panel density
        // move no grid value by more than 1e-12.
        let rule = GaussLegendre::new(16).unwrap();
        for (name, model) in catalog() {
            for n in CF_POPULATIONS {
                let cdf = crate::ServiceTimeCdf::with_resolution(&model, n, 65).unwrap();
                let m = model.round_service(n).unwrap();
                let coarse = inversion_nodes(&m, cdf.grid_hi()).unwrap();
                let omega_max = truncation_point(&m);
                let points = rule.panel_points(0.0, 2.0 * omega_max, 8 * coarse.len() / 16);
                let phi = points.iter().map(|&(w, _)| round_cf(&m, w)).collect();
                let refined = slo_grid(&CfQuadrature { points, phi }, &m);
                for (i, (got, want)) in cdf.grid_values().iter().zip(refined).enumerate() {
                    assert!(
                        (got - want).abs() <= 1e-12,
                        "{name}, n = {n}, t[{i}]: grid {got}, refined {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn grids_stay_within_1e8_of_the_product_grids() {
        // The product grid is the closed form's reference up to
        // N = 267 (largest gap 1.2e-9, on the paper disk at N = 267).
        // At N = 2 136 its own rounding error is larger: the
        // cancellation in e^{iωROT} − 1 near ω = 0, raised to the N-th
        // power, offsets its whole grid, by 1.3e-7 on `legacy` (which
        // reads 1.3e-7 at the seek floor, where F_n is exactly 0) and
        // −5.0e-8 on `nextgen`. There `grids_match_a_refined_inversion`
        // holds the new grid, and this test only bounds that offset.
        let populations = (1..=64).chain([100, 224, 267, 2136]);
        for (name, model) in catalog() {
            for n in populations.clone() {
                let cdf = crate::ServiceTimeCdf::with_resolution(&model, n, 65).unwrap();
                let m = model.round_service(n).unwrap();
                let product = slo_grid(&reference_quadrature(&m, cdf.grid_hi()), &m);
                let tol = if n <= 267 { 1e-8 } else { 2e-7 };
                for (i, (got, want)) in cdf.grid_values().iter().zip(product).enumerate() {
                    assert!(
                        (got - want).abs() <= tol,
                        "{name}, n = {n}, t[{i}]: grid {got}, product grid {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_gamma_closed_form_without_seek_or_rotation() {
        // With negligible rotation and zero SEEK, T_N ~ Gamma(Nβ, α).
        let transfer = TransferTimeModel::from_moments(0.02, 2e-4).unwrap();
        let m = RoundService::new(0.0, 1e-9, transfer, 20).unwrap();
        let shape = 20.0 * transfer.beta();
        let rate = transfer.alpha();
        for &t in &[0.3, 0.45, 0.6, 0.8] {
            let exact_gamma = 1.0 - mzd_numerics::special::gamma_p(shape, rate * t).unwrap();
            let inverted = p_late_exact(&m, t).unwrap();
            assert!(
                (inverted - exact_gamma).abs() < 1e-7,
                "t = {t}: inversion {inverted} vs closed form {exact_gamma}"
            );
        }
    }

    #[test]
    fn bracketed_by_saddlepoint_intuition_and_chernoff() {
        // exact <= chernoff always; saddlepoint within ~15% of exact in
        // the moderate tail.
        for n in [26u32, 28, 30] {
            let m = paper_round(n);
            let exact = p_late_exact(&m, 1.0).unwrap();
            let chernoff = m.p_late_bound(1.0).probability;
            let saddle = crate::saddlepoint::p_late_saddlepoint(&m, 1.0)
                .unwrap()
                .probability;
            assert!(exact <= chernoff + 1e-12, "n = {n}");
            assert!(
                (saddle / exact - 1.0).abs() < 0.15,
                "n = {n}: saddlepoint {saddle} vs exact {exact}"
            );
        }
    }

    #[test]
    fn median_is_near_the_mean_for_mild_skew() {
        // At t = E[T_N] the tail should be close to (slightly above) 1/2
        // for the mildly right-skewed round total.
        let m = paper_round(27);
        let p = p_late_exact(&m, m.mean()).unwrap();
        assert!((p - 0.5).abs() < 0.05, "P[T >= mean] = {p}");
    }

    #[test]
    fn cdf_is_monotone_in_t() {
        let m = paper_round(28);
        let mut prev = 1.0;
        for i in 0..10 {
            let t = 0.7 + 0.05 * f64::from(i);
            let p = p_late_exact(&m, t).unwrap();
            assert!(p <= prev + 1e-9, "t = {t}: {p} > {prev}");
            prev = p;
        }
    }

    #[test]
    fn probabilities_in_range_and_edges() {
        let m = paper_round(26);
        for &t in &[0.1, 0.5, 1.0, 2.0, 5.0] {
            let p = p_late_exact(&m, t).unwrap();
            assert!((0.0..=1.0).contains(&p), "t = {t}: {p}");
        }
        // Far left: certainly late. Far right: certainly on time.
        assert!(p_late_exact(&m, 0.05).unwrap() > 0.999_99);
        assert!(p_late_exact(&m, 3.0).unwrap() < 1e-6);
        assert!(p_late_exact(&m, 0.0).is_err());
        let empty = RoundService::new(
            0.0,
            0.00834,
            TransferTimeModel::from_moments(0.02, 1e-4).unwrap(),
            0,
        )
        .unwrap();
        assert_eq!(p_late_exact(&empty, 1.0).unwrap(), 0.0);
    }

    #[test]
    fn tracks_simulation_closely_at_paper_settings() {
        // EXPERIMENTS.md E1 (20k rounds): sim p_late(29) = 0.0149
        // [0.0133, 0.0167], p_late(31) = 0.0885 [0.0846, 0.0925]. The
        // exact model tail should sit inside or just above those CIs (the
        // model's SEEK is worst-case, so "exact" is still slightly
        // conservative vs the simulated system).
        let p29 = p_late_exact(&paper_round(29), 1.0).unwrap();
        assert!((0.012..0.030).contains(&p29), "exact p_late(29) = {p29}");
        let p31 = p_late_exact(&paper_round(31), 1.0).unwrap();
        assert!((0.08..0.16).contains(&p31), "exact p_late(31) = {p31}");
    }
}
