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
//! Cost: one CF evaluation and one `sin`/`cos` pair for each of several
//! thousand quadrature nodes — milliseconds (the `exact_p_late_n28` row
//! of `experiments -- bench-summary`: 1.23 ms at `N = 28` in
//! EXPERIMENTS.md's recorded run). Fine for studies, far heavier than
//! the closed-form bound the admission path uses; [`CfQuadrature`]
//! shares that work across many inversion points.

use crate::chernoff::RoundService;
use crate::CoreError;
use mzd_numerics::complex::Complex;
use mzd_numerics::integrate::GaussLegendre;

/// Characteristic function `φ(ω)` of the round total.
fn round_cf(model: &RoundService, omega: f64) -> Complex {
    let n = f64::from(model.n());
    let rot = model.rotation_time();
    let seek = model.seek_constant();
    let alpha = model.transfer().alpha();
    let beta = model.transfer().beta();

    // e^{iω·SEEK}
    let seek_f = Complex::from_polar(1.0, omega * seek);

    // ((e^{iωROT} − 1)/(iωROT))^N, with the ω→0 limit handled upstream.
    let x = omega * rot;
    let rot_base = if x.abs() < 1e-8 {
        // Series: 1 + ix/2 − x²/6 + …
        Complex::new(1.0 - x * x / 6.0, x / 2.0)
    } else {
        (Complex::from_polar(1.0, x) - Complex::ONE) / Complex::new(0.0, x)
    };
    let rot_f = rot_base.powf(n);

    // (α/(α − iω))^{βN}
    let gamma_f = (Complex::from(alpha) / Complex::new(alpha, -omega)).powf(beta * n);

    seek_f * rot_f * gamma_f
}

/// Exact `P[T_N ≥ t]` by Gil–Pelaez inversion.
///
/// Absolute accuracy ~1e-10 for the parameter ranges this workspace uses
/// (validated against closed forms and quadrature refinement); returned
/// values below ~1e-12 are quadrature noise floor, not resolved
/// probabilities. Clamped to `[0, 1]`.
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

    // Integration extent: |φ(ω)| decays algebraically with combined power
    // N (rotation factor, |·| ≈ 2/(ωROT) per request) + βN (Gamma factor)
    // — find the truncation point by doubling until |φ(ω)|/ω is far below
    // target accuracy (checked on the actual CF, robust for any N).
    let sigma = model.variance().sqrt().max(1e-9);
    let mut omega_max = (40.0 / sigma).max(model.transfer().alpha());
    while round_cf(model, omega_max).abs() / omega_max > 1e-15 && omega_max < 1e9 {
        omega_max *= 2.0;
    }

    // Panel width: resolve the e^{−iωt} oscillation (period 2π/t) and the
    // mean-scale phase of φ (period 2π/E[T]): several points per period
    // of the faster one.
    let period =
        (2.0 * std::f64::consts::PI / t).min(2.0 * std::f64::consts::PI / model.mean().max(1e-9));
    let panels = ((omega_max / period) * 4.0).ceil().clamp(64.0, 400_000.0) as usize;

    let rule = GaussLegendre::new(16)?;
    let integrand = |omega: f64| {
        if omega <= 0.0 {
            // limit ω→0: Im(e^{−iωt}φ(ω))/ω → E[T] − t
            return model.mean() - t;
        }
        let phi = round_cf(model, omega);
        let rotated = Complex::from_polar(1.0, -omega * t) * phi;
        rotated.im / omega
    };
    let integral = rule.integrate_panels(integrand, 0.0, omega_max, panels);
    let cdf = 0.5 - integral / std::f64::consts::PI;
    Ok((1.0 - cdf).clamp(0.0, 1.0))
}

/// Nodes per chunk when the CF table is filled in parallel: coarse
/// enough that per-task overhead vanishes against ~100 ns CF
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
        // Same truncation and resolution rules as `p_late_exact`, sized
        // for the fastest oscillation the caller can ask for (t_max).
        let sigma = model.variance().sqrt().max(1e-9);
        let mut omega_max = (40.0 / sigma).max(model.transfer().alpha());
        while round_cf(model, omega_max).abs() / omega_max > 1e-15 && omega_max < 1e9 {
            omega_max *= 2.0;
        }
        let period = (2.0 * std::f64::consts::PI / t_max)
            .min(2.0 * std::f64::consts::PI / model.mean().max(1e-9));
        let panels = ((omega_max / period) * 4.0).ceil().clamp(64.0, 400_000.0) as usize;
        let rule = GaussLegendre::new(16)?;
        let points = rule.panel_points(0.0, omega_max, panels);
        // Gauss–Legendre nodes are strictly interior, so ω > 0 for every
        // point and the ω → 0 limit never arises.
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
    use crate::GuaranteeModel;

    fn paper_round(n: u32) -> RoundService {
        GuaranteeModel::paper_reference()
            .unwrap()
            .round_service(n)
            .unwrap()
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
