//! Drift-injection scenario: does the online conformance checker notice
//! when the workload quietly stops matching the §3 analytic model?
//!
//! The scenario runs the round simulator under the paper-reference
//! configuration with a fixed stream count, PIT-transforms every observed
//! round service time through the analytic predicted CDF
//! ([`mzd_core::ServiceTimeCdf`]), and feeds the PIT values to an
//! [`mzd_slo::ConformanceChecker`]. At a configurable round the placement
//! policy is swapped to inner-zone-only ([`PlacementPolicy::InnerZones`])
//! — modeling a layout migration or a mis-modeled allocator that
//! concentrates fragments on the slowest zones — while the model keeps
//! assuming capacity-uniform placement. A healthy monitor raises
//! `slo.drift` shortly after the skew and stays quiet on an unskewed
//! control run.

use crate::round::{RoundSimulator, SimConfig};
use crate::SimError;
use mzd_core::{GuaranteeModel, ServiceTimeCdf};
use mzd_disk::PlacementPolicy;
use mzd_slo::{ConformanceChecker, ConformanceConfig, Transition};

/// Grid resolution for the predicted CDF. Coarser than the library
/// default because the scenario evaluates one fixed `n`: 129 points keep
/// interpolation error well under the conformance tail tolerance while
/// halving the (exact-inversion) table build cost.
const CDF_GRID_POINTS: usize = 129;

/// Parameters of a drift-injection run.
#[derive(Debug, Clone)]
pub struct DriftScenarioConfig {
    /// Streams served every round (constant load, as in Figure 1).
    pub n: u32,
    /// Total rounds to simulate.
    pub rounds: u64,
    /// Round at which placement skews to the inner zones; `None` runs the
    /// unskewed control.
    pub skew_at: Option<u64>,
    /// How many innermost (slowest) zones the skewed placement uses.
    pub skew_zones: usize,
    /// Conformance-checker tuning.
    pub conformance: ConformanceConfig,
}

impl DriftScenarioConfig {
    /// The paper-reference scenario: 26 streams (the Chernoff-admitted
    /// load of Table 1 at moderate tolerance) with default conformance
    /// tuning and a 4-zone inner skew.
    #[must_use]
    pub fn paper_default(rounds: u64, skew_at: Option<u64>) -> Self {
        Self {
            n: 26,
            rounds,
            skew_at,
            skew_zones: 4,
            conformance: ConformanceConfig::default(),
        }
    }
}

/// What a drift-injection run observed.
#[derive(Debug, Clone)]
pub struct DriftScenarioReport {
    /// Rounds actually simulated.
    pub rounds: u64,
    /// First round (0-based) at which the checker raised drift, if any.
    pub drift_round: Option<u64>,
    /// Total raise transitions over the run.
    pub drifts_raised: u64,
    /// Whether the drift alert was still active at the end of the run.
    pub drift_active: bool,
    /// Rounds whose sweep overran the round length.
    pub late_rounds: u64,
    /// KS-style max deviation of the PIT histogram at the end of the run.
    pub final_ks: f64,
    /// Fraction of the final window beyond the model's tail quantile.
    pub final_tail_exceedance: f64,
}

/// Run the drift-injection scenario.
///
/// Emits an `slo.drift` event on every checker transition when an event
/// sink is installed (same enable gate as the simulator's own
/// `sim.round` events), so `--events-out` captures detection latency.
///
/// # Errors
/// [`SimError::Invalid`] if the configuration is degenerate (`n == 0`,
/// `skew_zones == 0`, more skew zones than the disk has) or the model /
/// checker construction fails.
pub fn run_drift_scenario(
    cfg: &DriftScenarioConfig,
    seed: u64,
) -> Result<DriftScenarioReport, SimError> {
    if cfg.n == 0 {
        return Err(SimError::Invalid("drift scenario needs n >= 1".into()));
    }
    if cfg.skew_zones == 0 {
        return Err(SimError::Invalid(
            "drift scenario needs skew_zones >= 1".into(),
        ));
    }
    let sim_cfg = SimConfig::paper_reference()?;
    let model = GuaranteeModel::paper_reference().map_err(|e| SimError::Invalid(e.to_string()))?;
    let cdf = ServiceTimeCdf::with_resolution(&model, cfg.n, CDF_GRID_POINTS)
        .map_err(|e| SimError::Invalid(e.to_string()))?;
    let mut checker =
        ConformanceChecker::new(cfg.conformance).map_err(|e| SimError::Invalid(e.to_string()))?;
    let mut sim = RoundSimulator::new(sim_cfg, seed)?;
    // Fail fast on an impossible skew instead of erroring mid-run.
    PlacementPolicy::InnerZones {
        zones: cfg.skew_zones,
    }
    .validate(&sim.config().disk)
    .map_err(|e| SimError::Invalid(e.to_string()))?;

    let mut drift_round = None;
    let mut late_rounds = 0u64;
    for round in 0..cfg.rounds {
        if cfg.skew_at == Some(round) {
            sim.set_placement(PlacementPolicy::InnerZones {
                zones: cfg.skew_zones,
            })?;
        }
        let outcome = sim.run_round(cfg.n);
        if outcome.late {
            late_rounds += 1;
        }
        let u = cdf.evaluate(outcome.service_time);
        if let Some(transition) = checker.observe(u) {
            if transition == Transition::Raised && drift_round.is_none() {
                drift_round = Some(round);
            }
            if mzd_telemetry::events_enabled() {
                mzd_telemetry::emit(
                    mzd_telemetry::Event::new("slo.drift")
                        .str("transition", transition.as_str())
                        .u64("round", round)
                        .f64("ks", checker.ks_statistic())
                        .f64("tail_exceedance", checker.tail_exceedance()),
                );
            }
        }
    }
    Ok(DriftScenarioReport {
        rounds: cfg.rounds,
        drift_round,
        drifts_raised: checker.drifts_raised(),
        drift_active: checker.drift_active(),
        late_rounds,
        final_ks: checker.ks_statistic(),
        final_tail_exceedance: checker.tail_exceedance(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_configs() {
        let mut cfg = DriftScenarioConfig::paper_default(4, None);
        cfg.n = 0;
        assert!(run_drift_scenario(&cfg, 1).is_err());
        let mut cfg = DriftScenarioConfig::paper_default(4, None);
        cfg.skew_zones = 0;
        assert!(run_drift_scenario(&cfg, 1).is_err());
        let mut cfg = DriftScenarioConfig::paper_default(4, None);
        cfg.skew_zones = 10_000;
        assert!(run_drift_scenario(&cfg, 1).is_err());
    }

    #[test]
    fn skew_raises_service_time_distribution() {
        // Not a full detection-latency test (that lives in the integration
        // suite); just check the injected skew visibly shifts the PIT mass
        // toward the model's tail relative to the control.
        let rounds = 96;
        let control =
            run_drift_scenario(&DriftScenarioConfig::paper_default(rounds, None), 90).unwrap();
        let skewed =
            run_drift_scenario(&DriftScenarioConfig::paper_default(rounds, Some(0)), 90).unwrap();
        assert_eq!(control.rounds, rounds);
        assert!(skewed.final_tail_exceedance > control.final_tail_exceedance);
        assert!(skewed.late_rounds >= control.late_rounds);
    }

    #[test]
    fn set_placement_skew_is_reproducible() {
        let cfg = DriftScenarioConfig::paper_default(32, Some(8));
        let a = run_drift_scenario(&cfg, 7).unwrap();
        let b = run_drift_scenario(&cfg, 7).unwrap();
        assert_eq!(a.late_rounds, b.late_rounds);
        assert_eq!(a.drift_round, b.drift_round);
        assert!((a.final_ks - b.final_ks).abs() < 1e-15);
    }
}
