//! The Figure 1 invariant: the analytic model must be *conservative* —
//! its bounds dominate the simulated probabilities — while staying close
//! enough to be useful for admission control. Cross-crate: `mzd-core`
//! (the model) against `mzd-sim` (the detailed simulator).

use mzd_core::{GuaranteeModel, ZoneHandling};
use mzd_sim::{estimate_p_error, estimate_p_late, SimConfig};

#[test]
fn analytic_p_late_dominates_simulation_across_n() {
    let model = GuaranteeModel::paper_reference().expect("valid model");
    let cfg = SimConfig::paper_reference().expect("valid sim");
    for n in [20u32, 24, 26, 28, 30, 32] {
        let bound = model.p_late_bound(n, 1.0).expect("valid");
        let sim = estimate_p_late(&cfg, n, 4_000, 100 + u64::from(n)).expect("valid");
        // The bound must dominate the simulated probability up to
        // statistical resolution: always above the CI's lower end, and
        // above the full CI once the sample resolves the probability
        // (>= 10 observed late rounds). With 0–2 late rounds the point
        // estimate is Poisson noise; and in the deep tail the real
        // elevator's occasional backtrack seek (absent from the idealized
        // model) can nudge the truth a hair past the bound — see the
        // steady-state slack test in mzd-sim.
        assert!(
            bound >= sim.ci.lo,
            "N = {n}: bound {bound} below simulated CI lower end {}",
            sim.ci.lo
        );
        if sim.late_rounds >= 10 {
            assert!(
                bound >= sim.ci.hi,
                "N = {n}: bound {bound} below simulated CI [{}, {}]",
                sim.ci.lo,
                sim.ci.hi
            );
        }
    }
}

#[test]
fn analytic_bound_is_not_uselessly_loose() {
    // §4: the model admits 26 where the simulated system could take 28 —
    // "minor suboptimality". Check the admission gap stays small: the
    // simulated p_late at the analytic N_max + 3 must exceed the target.
    let model = GuaranteeModel::paper_reference().expect("valid model");
    let cfg = SimConfig::paper_reference().expect("valid sim");
    let n_max = model.n_max_late(1.0, 0.01).expect("valid");
    assert_eq!(n_max, 26);
    // At the analytic limit, the real system is comfortably within target.
    let at_limit = estimate_p_late(&cfg, n_max, 10_000, 7).expect("valid");
    assert!(at_limit.p_late < 0.01, "p_late = {}", at_limit.p_late);
    // A few streams past the limit, the real system violates the target —
    // i.e. the bound is within a handful of streams of the truth.
    let beyond = estimate_p_late(&cfg, n_max + 4, 10_000, 8).expect("valid");
    assert!(
        beyond.p_late > 0.01,
        "p_late({}) = {} still within target: bound too loose",
        n_max + 4,
        beyond.p_late
    );
}

#[test]
fn analytic_p_error_dominates_simulation() {
    let model = GuaranteeModel::paper_reference().expect("valid model");
    let cfg = SimConfig::paper_reference().expect("valid sim");
    // Shorter windows keep the test fast: M = 300, g = 3 (same 1% rate).
    for n in [28u32, 30, 32] {
        let bound = model.p_error_bound(n, 1.0, 300, 3).expect("valid");
        let sim = estimate_p_error(&cfg, n, 300, 3, 12, 50 + u64::from(n)).expect("valid");
        assert!(
            bound >= sim.p_error - 1e-9,
            "N = {n}: bound {bound} below simulated {}",
            sim.p_error
        );
    }
}

#[test]
fn simulated_glitch_rate_matches_analytic_victim_model() {
    // §3.3 models the glitched streams of a late round as a uniformly
    // random subset. Check the *per-stream* simulated glitch probability
    // is (a) below the analytic per-round glitch bound and (b) above
    // p_late/N times a sane factor — i.e. the victim accounting wires up.
    let model = GuaranteeModel::paper_reference().expect("valid model");
    let cfg = SimConfig::paper_reference().expect("valid sim");
    let n = 30u32;
    let sim = estimate_p_error(&cfg, n, 400, 1, 10, 33).expect("valid");
    // P[>=1 glitch in 400 rounds] per stream, analytic:
    let bound = model.p_error_bound(n, 1.0, 400, 1).expect("valid");
    assert!(bound >= sim.p_error, "bound {bound} < sim {}", sim.p_error);
    assert!(
        sim.mean_glitches > 0.0,
        "no glitches at N = 30 in 4000 rounds"
    );
}

#[test]
fn mean_rate_flattening_is_not_conservative() {
    // The ablation story: ignoring zones (single mean rate) yields a
    // bound that can *undershoot* the simulated multi-zone reality at
    // some N — exactly why §3.2 exists. We check the weaker, robust form:
    // the flattened bound is strictly below the exact bound.
    let disk = mzd_disk::profiles::quantum_viking_2_1()
        .build()
        .expect("valid");
    let exact =
        GuaranteeModel::new(disk.clone(), 200_000.0, 1e10, ZoneHandling::Discrete).expect("ok");
    let flat = GuaranteeModel::new(disk, 200_000.0, 1e10, ZoneHandling::MeanRate).expect("ok");
    for n in [26u32, 28, 30] {
        let e = exact.p_late_bound(n, 1.0).expect("valid");
        let f = flat.p_late_bound(n, 1.0).expect("valid");
        assert!(f < e, "N = {n}: flattened {f} not below exact {e}");
    }
}

#[test]
fn seek_decomposition_tracks_oyang_bound_gap() {
    // The analytic model charges every round the worst-case SEEK; the
    // simulation pays the actual sweep. Check the simulated mean seek is
    // below the bound but the same order of magnitude (so the bound's
    // conservatism is "reasonable", not wild).
    use mzd_sim::{engine::run_window, RoundSimulator};
    let cfg = SimConfig::paper_reference().expect("valid sim");
    let mut sim = RoundSimulator::new(cfg.clone(), 9).expect("valid");
    let n = 27u32;
    let acc = run_window(&mut sim, n, 2_000);
    let bound = mzd_disk::oyang::seek_bound(cfg.disk.seek_curve(), cfg.disk.cylinders(), n);
    let mean_seek = acc.seek_time.mean();
    assert!(
        mean_seek < bound,
        "mean sweep seek {mean_seek} above bound {bound}"
    );
    assert!(
        mean_seek > 0.5 * bound,
        "mean sweep seek {mean_seek} implausibly far below bound {bound}"
    );
}

#[test]
fn exact_model_tail_brackets_simulation() {
    // The exact (Gil-Pelaez) tail of the modeled distribution should sit
    // just above the simulated system (the model's only remaining
    // conservatism is the worst-case SEEK constant) and far below the
    // Chernoff bound.
    let model = GuaranteeModel::paper_reference().expect("valid model");
    let cfg = SimConfig::paper_reference().expect("valid sim");
    for n in [29u32, 31] {
        let exact = model.p_late_exact(n, 1.0).expect("valid");
        let bound = model.p_late_bound(n, 1.0).expect("valid");
        let sim = estimate_p_late(&cfg, n, 20_000, 400 + u64::from(n)).expect("valid");
        assert!(
            exact >= sim.ci.lo,
            "N = {n}: exact {exact} below simulated CI lower end {}",
            sim.ci.lo
        );
        assert!(
            exact < bound / 3.0,
            "N = {n}: exact {exact} not well below bound {bound}"
        );
        // And within a small factor of the simulated point estimate.
        assert!(
            exact < 3.0 * sim.p_late.max(1e-4),
            "N = {n}: exact {exact} vs simulated {}",
            sim.p_late
        );
    }
}

#[test]
fn work_ahead_buffering_absorbs_overruns() {
    // The S6 buffering discipline: one fragment of client work-ahead must
    // cut the per-stream glitch rate by an order of magnitude at N = 30.
    use mzd_sim::{WorkAheadConfig, WorkAheadSimulator};
    let base = SimConfig::paper_reference().expect("valid sim");
    let rate = |work_ahead: u32| {
        let cfg = WorkAheadConfig {
            base: base.clone(),
            work_ahead,
        };
        WorkAheadSimulator::new(cfg, 21)
            .expect("valid")
            .run(30, 6_000)
            .glitch_rate()
    };
    let bare = rate(0);
    let buffered = rate(1);
    assert!(bare > 1e-3, "baseline rate {bare} too low to compare");
    assert!(
        buffered < bare / 10.0,
        "work-ahead 1: {bare} -> {buffered}, less than 10x improvement"
    );
}
