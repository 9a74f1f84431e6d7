//! Estimators for the paper's measured quantities.
//!
//! * [`estimate_p_late`] — the probability that a round of `N` requests
//!   overruns the round length (the simulated curve of **Figure 1**);
//! * [`estimate_p_error`] — the probability that a stream of `M` rounds
//!   suffers `≥ g` glitches (the simulation column of **Table 2**).
//!
//! Both report Wilson 95% confidence intervals; the analytic bounds are
//! expected to lie at or above the interval (the model is conservative).

use crate::engine::{run_stream_lifetimes, run_window};
use crate::round::{RoundSimulator, SimConfig};
use crate::SimError;
use mzd_numerics::stats::{wilson_interval, ConfidenceInterval};

/// Result of a `p_late` estimation run.
#[derive(Debug, Clone, PartialEq)]
pub struct PLateEstimate {
    /// Stream count per round.
    pub n: u32,
    /// Rounds simulated.
    pub rounds: u64,
    /// Rounds that overran.
    pub late_rounds: u64,
    /// Point estimate `late_rounds / rounds`.
    pub p_late: f64,
    /// Wilson 95% confidence interval.
    pub ci: ConfidenceInterval,
    /// Mean round service time, seconds.
    pub mean_service_time: f64,
    /// Maximum observed round service time, seconds.
    pub max_service_time: f64,
}

/// Estimate `p_late(n, t)` by simulating `rounds` rounds.
///
/// # Errors
/// Propagates configuration validation.
pub fn estimate_p_late(
    cfg: &SimConfig,
    n: u32,
    rounds: u64,
    seed: u64,
) -> Result<PLateEstimate, SimError> {
    let acc = run_window(&mut RoundSimulator::new(cfg.clone(), seed)?, n, rounds);
    Ok(PLateEstimate {
        n,
        rounds,
        late_rounds: acc.late_rounds,
        p_late: acc.p_late(),
        ci: wilson_interval(acc.late_rounds, rounds, 0.95),
        mean_service_time: acc.service_time.mean(),
        max_service_time: acc.service_time.max(),
    })
}

/// [`estimate_p_late`] with the `rounds` budget split over `reps`
/// independent replications executed across the worker pool (see
/// [`crate::engine::run_replicated_windows`]). The estimate is a pure
/// function of `(cfg, n, rounds, reps, seed)` — byte-identical for any
/// worker count. Replications use index-derived seeds, so the `reps = 1`
/// result is a different (equally valid) sample than [`estimate_p_late`]
/// with the same seed.
///
/// # Errors
/// Propagates configuration validation.
pub fn estimate_p_late_par(
    cfg: &SimConfig,
    n: u32,
    rounds: u64,
    reps: u32,
    seed: u64,
) -> Result<PLateEstimate, SimError> {
    let acc = crate::engine::run_replicated_windows(cfg, n, rounds, reps, seed)?;
    Ok(PLateEstimate {
        n,
        rounds: acc.rounds,
        late_rounds: acc.late_rounds,
        p_late: acc.p_late(),
        ci: wilson_interval(acc.late_rounds, acc.rounds, 0.95),
        mean_service_time: acc.service_time.mean(),
        max_service_time: acc.service_time.max(),
    })
}

/// Result of a `p_error` estimation run.
#[derive(Debug, Clone, PartialEq)]
pub struct PErrorEstimate {
    /// Stream count per round.
    pub n: u32,
    /// Stream lifetime in rounds (`M`).
    pub m: u64,
    /// Glitch tolerance (`g`).
    pub g: u64,
    /// Independent stream-lifetime samples observed.
    pub stream_samples: u64,
    /// Samples with `≥ g` glitches.
    pub failures: u64,
    /// Point estimate.
    pub p_error: f64,
    /// Wilson 95% confidence interval.
    pub ci: ConfidenceInterval,
    /// Mean glitches per stream over its lifetime.
    pub mean_glitches: f64,
    /// Empirical per-round lateness over all simulated rounds.
    pub p_late: f64,
}

/// Estimate `p_error(n, t, m, g)` from `batches` independent windows of
/// `m` rounds (each window yields `n` stream-lifetime samples).
///
/// # Errors
/// Propagates configuration validation.
pub fn estimate_p_error(
    cfg: &SimConfig,
    n: u32,
    m: u64,
    g: u64,
    batches: u32,
    seed: u64,
) -> Result<PErrorEstimate, SimError> {
    let acc = run_stream_lifetimes(&mut RoundSimulator::new(cfg.clone(), seed)?, n, m, batches);
    let samples = acc.glitches_per_stream.len() as u64;
    let failures = acc.glitches_per_stream.iter().filter(|&&c| c >= g).count() as u64;
    Ok(PErrorEstimate {
        n,
        m,
        g,
        stream_samples: samples,
        failures,
        p_error: if samples == 0 {
            0.0
        } else {
            failures as f64 / samples as f64
        },
        ci: wilson_interval(failures, samples, 0.95),
        mean_glitches: acc.mean_glitches_per_stream(),
        p_late: acc.p_late(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig::paper_reference().unwrap()
    }

    #[test]
    fn p_late_estimate_consistency() {
        let e = estimate_p_late(&cfg(), 27, 2000, 11).unwrap();
        assert_eq!(e.n, 27);
        assert_eq!(e.rounds, 2000);
        assert!((e.p_late - e.late_rounds as f64 / 2000.0).abs() < 1e-12);
        assert!(e.ci.contains(e.p_late));
        assert!(e.mean_service_time > 0.5 && e.mean_service_time < 1.1);
        assert!(e.max_service_time >= e.mean_service_time);
    }

    #[test]
    fn p_late_grows_with_n() {
        // Not necessarily strictly monotone in a finite sample, but the
        // trend across a wide span must hold.
        let lo = estimate_p_late(&cfg(), 24, 4000, 12).unwrap();
        let hi = estimate_p_late(&cfg(), 31, 4000, 12).unwrap();
        assert!(hi.p_late > lo.p_late);
    }

    #[test]
    fn paper_figure_1_shape_simulated() {
        // §4: simulations sustain 28 streams at p_late ≈ 1%; by N = 31–32
        // lateness is frequent. Coarse check with a modest budget.
        let e28 = estimate_p_late(&cfg(), 28, 4000, 13).unwrap();
        assert!(
            e28.p_late < 0.03,
            "p_late(28) = {} should be around or below 1-2%",
            e28.p_late
        );
        let e33 = estimate_p_late(&cfg(), 33, 2000, 13).unwrap();
        assert!(e33.p_late > 0.15, "p_late(33) = {}", e33.p_late);
    }

    #[test]
    fn p_error_estimate_consistency() {
        let e = estimate_p_error(&cfg(), 31, 300, 3, 8, 14).unwrap();
        assert_eq!(e.stream_samples, 31 * 8);
        assert!(e.failures <= e.stream_samples);
        assert!(e.ci.contains(e.p_error));
        assert!(e.mean_glitches >= 0.0);
        assert!(e.p_late <= 1.0);
    }

    #[test]
    fn p_error_zero_under_light_load() {
        let e = estimate_p_error(&cfg(), 10, 200, 1, 4, 15).unwrap();
        assert_eq!(e.failures, 0);
        assert_eq!(e.p_error, 0.0);
    }

    #[test]
    fn replicated_estimates_are_deterministic_and_consistent() {
        let a = estimate_p_late_par(&cfg(), 27, 2000, 4, 11).unwrap();
        let b = estimate_p_late_par(&cfg(), 27, 2000, 4, 11).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.rounds, 2000);
        assert!(a.ci.contains(a.p_late));
        // The replicated estimator lands in the same statistical regime
        // as the serial one at matched budget.
        let serial = estimate_p_late(&cfg(), 27, 2000, 11).unwrap();
        assert!((a.p_late - serial.p_late).abs() < 0.05);
        // Uneven split still accounts every round.
        let odd = estimate_p_late_par(&cfg(), 27, 1001, 4, 11).unwrap();
        assert_eq!(odd.rounds, 1001);
    }

    #[test]
    fn estimates_deterministic_for_seed() {
        let a = estimate_p_late(&cfg(), 27, 500, 7).unwrap();
        let b = estimate_p_late(&cfg(), 27, 500, 7).unwrap();
        assert_eq!(a, b);
        let c = estimate_p_late(&cfg(), 27, 500, 8).unwrap();
        assert!(a.late_rounds != c.late_rounds || a.mean_service_time != c.mean_service_time);
    }
}
