//! The predicted round service-time CDF, for probability-integral-
//! transform (PIT) conformance checking.
//!
//! The SLO layer validates the §3 model *online*: every observed round
//! service time `T` is pushed through the model's predicted CDF,
//! `u = F_n(T)`, and if the model is right the resulting `u` values are
//! uniform on `[0, 1]`. That requires the CDF itself — not just the
//! upper-tail bounds the admission path uses — evaluated once per round
//! per disk, so this module precomputes `F_n` for a fixed `n` on a grid
//! and answers point queries by interpolation:
//!
//! * grid points are computed with the *exact* Gil–Pelaez inversion
//!   ([`crate::exact`]) — the saddlepoint estimate degenerates to the
//!   vacuous 1 at and below the mean, which is exactly where the bulk of
//!   the CDF lives;
//! * the grid spans `[SEEK(n), mean + 10σ]`; below the deterministic
//!   seek floor the CDF is 0, and queries beyond the grid fall back to a
//!   live saddlepoint tail evaluation (valid there, since `t` is far
//!   above the mean);
//! * a running-maximum clamp makes the tabulated values monotone even in
//!   the presence of inversion noise at the extreme tails.

use crate::chernoff::RoundService;
use crate::{exact, saddlepoint, CoreError, GuaranteeModel};

/// Grid points per rotation sweep: long enough that a sweep's two
/// `sin`/`cos` pairs per quadrature node are a small share of its
/// per-point multiply-adds, short enough that the default 257-point
/// grid still splits four ways across the worker pool. Never derived
/// from the worker count, so grids stay byte-identical at any `--jobs`.
const CDF_RUN: usize = 65;

/// A tabulated predicted CDF `F_n(t) = P[T_n ≤ t]` for a fixed round
/// population `n`.
#[derive(Debug, Clone)]
pub struct ServiceTimeCdf {
    service: RoundService,
    lo: f64,
    hi: f64,
    values: Vec<f64>,
}

impl ServiceTimeCdf {
    /// Default grid resolution: enough for interpolation error well
    /// below the conformance checker's bin width, cheap enough to build
    /// once per scenario.
    pub const DEFAULT_POINTS: usize = 257;

    /// Tabulate the CDF for rounds of `n` requests under `model` at the
    /// default resolution.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] for `n == 0`; numeric errors propagated
    /// from the exact inversion.
    pub fn new(model: &GuaranteeModel, n: u32) -> Result<Self, CoreError> {
        Self::with_resolution(model, n, Self::DEFAULT_POINTS)
    }

    /// Tabulate with an explicit number of grid points (≥ 2).
    ///
    /// # Errors
    /// [`CoreError::Invalid`] for `n == 0` or fewer than 2 points;
    /// numeric errors propagated from the exact inversion.
    pub fn with_resolution(
        model: &GuaranteeModel,
        n: u32,
        points: usize,
    ) -> Result<Self, CoreError> {
        if n == 0 {
            return Err(CoreError::Invalid(
                "service-time CDF needs at least one request per round".into(),
            ));
        }
        if points < 2 {
            return Err(CoreError::Invalid(format!(
                "need at least 2 grid points, got {points}"
            )));
        }
        let service = model.round_service(n)?;
        let lo = service.seek_constant();
        let hi = service.mean() + 10.0 * service.variance().sqrt();
        // The expensive t-independent factor φ(ω) is tabulated once and
        // shared by every grid point. The grid is then inverted in runs
        // of CDF_RUN consecutive points, each one rotation sweep
        // (`CfQuadrature::p_late_run`), fanned out across the worker
        // pool. The run length is a constant, so each grid point is a
        // pure function of its index, and the running-maximum clamp runs
        // serially afterwards: the table is byte-identical for any
        // worker count.
        let quad = exact::CfQuadrature::new(&service, hi)?;
        let cells = (points - 1) as f64;
        let runs = mzd_par::par_map_indexed(points.div_ceil(CDF_RUN), |r| {
            let first = r * CDF_RUN;
            let t0 = lo + (hi - lo) * first as f64 / cells;
            quad.p_late_run(t0, (hi - lo) / cells, CDF_RUN.min(points - first))
        });
        let mut values = Vec::with_capacity(points);
        let mut running = 0.0f64;
        for run in runs {
            for p_late in run? {
                running = running.max((1.0 - p_late).clamp(0.0, 1.0));
                values.push(running);
            }
        }
        Ok(Self {
            service,
            lo,
            hi,
            values,
        })
    }

    /// `F_n(t)`, in `[0, 1]`. Below the deterministic seek floor this is
    /// exactly 0; beyond the tabulated range it falls back to a live
    /// saddlepoint tail evaluation; `NaN` maps to `NaN`.
    #[must_use]
    pub fn evaluate(&self, t: f64) -> f64 {
        if t.is_nan() {
            return f64::NAN;
        }
        if t <= self.lo {
            return 0.0;
        }
        if t >= self.hi {
            let floor = *self.values.last().expect("grid has >= 2 points");
            return match saddlepoint::p_late_saddlepoint(&self.service, t) {
                Ok(tail) => (1.0 - tail.probability).clamp(floor, 1.0),
                Err(_) => 1.0,
            };
        }
        let cells = (self.values.len() - 1) as f64;
        let x = (t - self.lo) / (self.hi - self.lo) * cells;
        let i = (x.floor() as usize).min(self.values.len() - 2);
        let frac = x - i as f64;
        self.values[i] + frac * (self.values[i + 1] - self.values[i])
    }

    /// The round population this table was built for.
    #[must_use]
    pub fn n(&self) -> u32 {
        self.service.n()
    }

    /// The deterministic lower edge of the support (the seek constant).
    #[must_use]
    pub fn support_lo(&self) -> f64 {
        self.lo
    }

    /// The upper edge of the tabulated range (`mean + 10σ`).
    #[must_use]
    pub fn grid_hi(&self) -> f64 {
        self.hi
    }

    /// The raw tabulated grid values, for determinism audits: two builds
    /// of the same model must agree bit-for-bit regardless of how many
    /// workers computed them.
    #[must_use]
    pub fn grid_values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> GuaranteeModel {
        GuaranteeModel::paper_reference().unwrap()
    }

    fn cdf(n: u32) -> ServiceTimeCdf {
        ServiceTimeCdf::with_resolution(&model(), n, 65).unwrap()
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(ServiceTimeCdf::new(&model(), 0).is_err());
        assert!(ServiceTimeCdf::with_resolution(&model(), 8, 1).is_err());
    }

    #[test]
    fn monotone_and_bounded() {
        let c = cdf(8);
        let mut prev = -1.0;
        let hi = c.grid_hi();
        for i in 0..200 {
            let t = -0.01 + (hi * 1.2 + 0.02) * f64::from(i) / 199.0;
            let v = c.evaluate(t);
            assert!((0.0..=1.0).contains(&v), "F({t}) = {v}");
            assert!(v >= prev - 1e-12, "non-monotone at t = {t}: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn matches_exact_inversion_between_grid_points() {
        let m = model();
        let c = cdf(8);
        let service = m.round_service(8).unwrap();
        let mean = service.mean();
        let sd = service.variance().sqrt();
        for t in [mean - sd, mean - 0.3 * sd, mean, mean + sd, mean + 2.5 * sd] {
            let want = 1.0 - m.p_late_exact(8, t).unwrap();
            let got = c.evaluate(t);
            assert!(
                (got - want).abs() < 0.02,
                "F({t}): interpolated {got}, exact {want}"
            );
        }
    }

    #[test]
    fn shared_cf_table_matches_per_point_inversion() {
        let service = model().round_service(8).unwrap();
        let hi = service.mean() + 10.0 * service.variance().sqrt();
        let quad = exact::CfQuadrature::new(&service, hi).unwrap();
        let mean = service.mean();
        let sd = service.variance().sqrt();
        for t in [mean - sd, mean, mean + sd, mean + 4.0 * sd, hi] {
            let shared = quad.p_late(t).unwrap();
            let per_point = exact::p_late_exact(&service, t).unwrap();
            assert!(
                (shared - per_point).abs() < 1e-6,
                "p_late({t}): shared table {shared}, per-point {per_point}"
            );
        }
    }

    #[test]
    fn edges_behave() {
        let c = cdf(8);
        assert_eq!(c.evaluate(0.0), 0.0);
        assert_eq!(c.evaluate(c.support_lo()), 0.0);
        assert!(c.evaluate(c.grid_hi() * 2.0) > 0.999);
        assert!(c.evaluate(f64::NAN).is_nan());
        assert_eq!(c.n(), 8);
    }
}
