//! `ServiceTimeCdf` inverts its grid in runs, advancing each quadrature
//! node's rotation by recurrence. These tests hold every grid point to
//! the per-point inversion `CfQuadrature::p_late` — which takes one
//! `sin`/`cos` per node per point — on every catalog disk, clean and
//! fault-inflated, at both grid sizes in use and at round populations
//! from 1 up to 8× the paper disk's 1-s limit.

mod common;

use common::models;
use mzd_core::exact::CfQuadrature;
use mzd_core::ServiceTimeCdf;

/// Sampled round populations: tiny rounds, the 1-s limit's
/// neighbourhood on the paper disk (28), and 8× it.
const POPULATIONS: [u32; 9] = [1, 2, 3, 8, 19, 27, 28, 64, 224];

#[test]
fn grid_runs_match_the_per_point_inversion_on_every_catalog_disk() {
    for (m, (name, model)) in models().into_iter().enumerate() {
        for (k, &n) in POPULATIONS.iter().enumerate() {
            // Alternate the two grid sizes (the SLO's 65 points and a
            // coarse 17) across the catalog, so each (disk, n) pair is
            // built once and both sizes meet every population.
            let points = if (m + k) % 2 == 0 { 65 } else { 17 };
            let cdf = ServiceTimeCdf::with_resolution(&model, n, points).unwrap();
            let service = model.round_service(n).unwrap();
            let (lo, hi) = (cdf.support_lo(), cdf.grid_hi());
            let quad = CfQuadrature::new(&service, hi).unwrap();
            let mut running = 0.0f64;
            for (i, &got) in cdf.grid_values().iter().enumerate() {
                let t = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                let want = if t > 0.0 {
                    1.0 - quad.p_late(t).unwrap()
                } else {
                    0.0
                };
                running = running.max(want.clamp(0.0, 1.0));
                assert!(
                    (got - running).abs() <= 1e-12,
                    "{name}, n = {n}, {points} points, t[{i}] = {t}: run {got}, per point {running}"
                );
            }
        }
    }
}
