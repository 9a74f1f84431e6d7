//! The `p_error` admission scans fold eq. 3.3.3's running mean once per
//! probe. These tests hold them to the quadratic form the paper writes
//! down — every `N` re-summed from `k = 1` through the public
//! [`GuaranteeModel::p_error_bound`] — on every catalog disk, clean and
//! fault-inflated, over a spread of round lengths and targets.

mod common;

use common::models;
use mzd_core::admission::{self, AdmissionTable};
use mzd_core::GuaranteeModel;

const THRESHOLDS: [f64; 5] = [1e-4, 1e-3, 0.01, 0.05, 0.2];

/// The quadratic oracle's probes: `p_error_bound(n)` for `n = 1, 2, …`
/// up to and including the first that fails `max_threshold`, each
/// re-summing `b_late(1..=n)`.
fn quadratic_probes(
    model: &GuaranteeModel,
    t: f64,
    m: u64,
    g: u64,
    max_threshold: f64,
) -> Vec<f64> {
    let mut probes = Vec::new();
    for n in 1..=admission::N_SEARCH_CAP {
        let p = model.p_error_bound(n, t, m, g).expect("valid round length");
        probes.push(p);
        if !(p <= max_threshold) {
            break;
        }
    }
    probes
}

/// Both linear scans against the quadratic oracle for one configuration.
fn check(name: &str, model: &GuaranteeModel, t: f64, m: u64, g: u64, thresholds: &[f64]) {
    let max = *thresholds.last().expect("non-empty");
    let probes = quadratic_probes(model, t, m, g, max);
    let oracle = |n: u32| probes[n as usize - 1];
    for &eps in thresholds {
        assert_eq!(
            model.n_max_error(t, m, g, eps).unwrap(),
            admission::n_max(oracle, eps),
            "{name}: n_max_error(t = {t}, m = {m}, g = {g}, ε = {eps})"
        );
    }
    assert_eq!(
        model.admission_table_error(t, m, g, thresholds).unwrap(),
        AdmissionTable::build(thresholds, oracle).unwrap(),
        "{name}: admission_table_error(t = {t}, m = {m}, g = {g})"
    );
}

#[test]
fn p_error_scans_match_the_quadratic_form_on_every_catalog_disk() {
    for (name, model) in models() {
        for t in [0.5, 1.0, 2.0] {
            for (m, g) in [(1200, 12), (600, 3), (3600, 72)] {
                check(&name, &model, t, m, g, &THRESHOLDS);
            }
        }
    }
}

#[test]
fn p_error_scans_match_the_quadratic_form_at_8s_rounds() {
    // The fleet benchmark's `steady` shape: 270 streams per disk.
    let model = GuaranteeModel::paper_reference().unwrap();
    assert_eq!(model.n_max_error(8.0, 1200, 12, 0.01).unwrap(), 270);
    check("viking", &model, 8.0, 1200, 12, &[0.001, 0.01]);
}
