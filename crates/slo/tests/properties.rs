//! Property tests for the SLO state machines:
//!
//! 1. burn alerts never flap: transitions strictly alternate
//!    Raised → Cleared → Raised …, and every raise→clear pair is at
//!    least `hysteresis` rounds apart, for *any* glitch sequence;
//! 2. a stream with zero glitches never alerts, whatever the traffic;
//! 3. the fast window must be full before the first raise;
//! 4. drift transitions obey the same alternation/hysteresis contract,
//!    and PIT values below the monitored tail quantile never raise.

use mzd_slo::{BurnConfig, BurnRateEngine, ConformanceChecker, ConformanceConfig, Transition};
use proptest::prelude::*;

fn burn_engine(hysteresis: u64) -> BurnRateEngine {
    BurnRateEngine::new(BurnConfig {
        fast_window: 8,
        slow_window: 16,
        long_window: 32,
        hysteresis,
        ..BurnConfig::for_budget(0.01)
    })
    .expect("valid config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// No flapping: under any load/glitch sequence the transition log
    /// alternates Raised, Cleared, Raised, … and consecutive Raised →
    /// Cleared transitions are at least `hysteresis` rounds apart.
    #[test]
    fn burn_transitions_alternate_and_respect_hysteresis(
        rounds in prop::collection::vec((1u64..40, 0u64..50), 1..400),
        hysteresis in 1u64..32,
    ) {
        let mut e = burn_engine(hysteresis);
        let mut transitions: Vec<(u64, Transition)> = Vec::new();
        for (i, &(sr, g)) in rounds.iter().enumerate() {
            if let Some(t) = e.observe_round(sr, g.min(sr)) {
                transitions.push((i as u64, t));
            }
        }
        for (i, (_, t)) in transitions.iter().enumerate() {
            let expected = if i % 2 == 0 {
                Transition::Raised
            } else {
                Transition::Cleared
            };
            prop_assert_eq!(*t, expected, "transition {} out of order", i);
        }
        for pair in transitions.windows(2) {
            if pair[0].1 == Transition::Raised {
                let gap = pair[1].0 - pair[0].0;
                prop_assert!(
                    gap >= hysteresis,
                    "raise at {} cleared {} rounds later (hysteresis {})",
                    pair[0].0, gap, hysteresis
                );
            }
        }
        // Bookkeeping agrees with the log.
        let raises = transitions
            .iter()
            .filter(|(_, t)| *t == Transition::Raised)
            .count() as u64;
        prop_assert_eq!(e.alerts_raised(), raises);
    }

    /// A glitch-free stream never alerts, whatever the per-round load.
    #[test]
    fn zero_glitch_stream_never_alerts(
        loads in prop::collection::vec(0u64..100, 1..600),
        hysteresis in 1u64..32,
    ) {
        let mut e = burn_engine(hysteresis);
        for sr in loads {
            prop_assert_eq!(e.observe_round(sr, 0), None);
            prop_assert!(!e.alert_active());
            prop_assert_eq!(e.burn_fast(), 0.0);
        }
        prop_assert_eq!(e.alerts_raised(), 0);
    }

    /// The first raise can only happen once the fast window has filled:
    /// no alarm off a handful of rounds, however catastrophic.
    #[test]
    fn no_raise_before_fast_window_fills(
        rounds in prop::collection::vec((1u64..40, 0u64..50), 1..40),
    ) {
        let mut e = burn_engine(8);
        let fast_window = e.config().fast_window as u64;
        for (i, &(sr, g)) in rounds.iter().enumerate() {
            let t = e.observe_round(sr, g.min(sr));
            if (i as u64) < fast_window - 1 {
                prop_assert_eq!(t, None, "raised on round {} before window full", i);
            }
        }
    }

    /// Drift transitions alternate Raised/Cleared and raise→clear pairs
    /// are at least `hysteresis` observations apart.
    #[test]
    fn drift_transitions_alternate_and_respect_hysteresis(
        pits in prop::collection::vec(0.0f64..1.0, 1..400),
        hysteresis in 1u64..32,
    ) {
        let mut c = ConformanceChecker::new(ConformanceConfig {
            window: 32,
            min_samples: 8,
            hysteresis,
            ..ConformanceConfig::default()
        })
        .expect("valid config");
        let mut transitions: Vec<(u64, Transition)> = Vec::new();
        for (i, &u) in pits.iter().enumerate() {
            if let Some(t) = c.observe(u) {
                transitions.push((i as u64, t));
            }
        }
        for (i, (_, t)) in transitions.iter().enumerate() {
            let expected = if i % 2 == 0 {
                Transition::Raised
            } else {
                Transition::Cleared
            };
            prop_assert_eq!(*t, expected, "transition {} out of order", i);
        }
        for pair in transitions.windows(2) {
            if pair[0].1 == Transition::Raised {
                prop_assert!(pair[1].0 - pair[0].0 >= hysteresis);
            }
        }
    }

    /// PIT mass entirely below the monitored quantile never raises
    /// drift: the one-sided test ignores a conservatively-biased model.
    #[test]
    fn sub_tail_pit_never_drifts(
        pits in prop::collection::vec(0.0f64..0.95, 1..600),
    ) {
        let mut c = ConformanceChecker::new(ConformanceConfig {
            window: 64,
            min_samples: 16,
            hysteresis: 16,
            ..ConformanceConfig::default()
        })
        .expect("valid config");
        for u in pits {
            prop_assert_eq!(c.observe(u), None);
            prop_assert!(!c.drift_active());
        }
        prop_assert_eq!(c.drifts_raised(), 0);
    }
}
