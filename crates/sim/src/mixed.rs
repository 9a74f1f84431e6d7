//! Mixed continuous/discrete workload simulation — the §6 outlook.
//!
//! Discrete requests (web pages, images, index lookups) arrive as a
//! Poisson stream and queue; each round the disk first serves every
//! continuous stream's fragment in the SCAN sweep, then drains the
//! discrete queue FCFS for as long as requests still *complete* within
//! the round. Measured outputs: continuous glitch behaviour (is the
//! stream guarantee preserved?) and discrete response times in rounds
//! (how long do best-effort requests wait?).
//!
//! Model simplification: a queued discrete request re-draws its placement
//! when retried in a later round (its true position is fixed on a real
//! disk); placements are i.i.d. uniform either way, so the queue-level
//! statistics are unaffected.

use crate::round::{RoundSimulator, SimConfig};
use crate::SimError;
use mzd_numerics::rng::Poisson;
use mzd_numerics::stats::OnlineStats;
use mzd_workload::SizeDistribution;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Configuration of a mixed-workload simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedConfig {
    /// The continuous-service configuration (disk, sizes, round length).
    pub base: SimConfig,
    /// Size law of discrete requests, bytes.
    pub discrete_sizes: SizeDistribution,
    /// Mean discrete arrivals per round (Poisson).
    pub arrivals_per_round: f64,
    /// Queue capacity; arrivals beyond it are dropped (counted).
    pub queue_capacity: usize,
}

impl MixedConfig {
    /// A reference mixed setup: the paper's continuous workload plus
    /// 20 KB ± 20 KB discrete objects at the given arrival rate.
    ///
    /// # Errors
    /// Propagates configuration validation.
    pub fn paper_reference(arrivals_per_round: f64) -> Result<Self, SimError> {
        Ok(Self {
            base: SimConfig::paper_reference()?,
            discrete_sizes: SizeDistribution::gamma(20_000.0, (20_000.0f64).powi(2))
                .map_err(|e| SimError::Invalid(e.to_string()))?,
            arrivals_per_round,
            queue_capacity: 10_000,
        })
    }
}

/// Aggregate results of a mixed-workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedRunStats {
    /// Rounds simulated.
    pub rounds: u64,
    /// Continuous rounds that overran.
    pub late_rounds: u64,
    /// Per-stream continuous glitch counts.
    pub glitches_per_stream: Vec<u64>,
    /// Discrete requests that arrived.
    pub discrete_arrived: u64,
    /// Discrete requests served.
    pub discrete_served: u64,
    /// Discrete requests dropped at the queue cap.
    pub discrete_dropped: u64,
    /// Response time of served discrete requests, in rounds (0 = served
    /// in the round it arrived).
    pub discrete_response_rounds: OnlineStats,
    /// Queue length sampled at each round end.
    pub queue_length: OnlineStats,
    /// Fraction of each round spent on discrete service.
    pub discrete_utilization: OnlineStats,
}

impl MixedRunStats {
    /// Continuous overrun rate.
    #[must_use]
    pub fn p_late(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.late_rounds as f64 / self.rounds as f64
        }
    }

    /// Discrete throughput per round.
    #[must_use]
    pub fn discrete_throughput(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.discrete_served as f64 / self.rounds as f64
        }
    }
}

/// A queued discrete request.
#[derive(Debug, Clone, Copy, PartialEq)]
struct QueuedRequest {
    bytes: f64,
    arrival_round: u64,
}

/// Mixed-workload simulator: continuous streams with priority, discrete
/// queue drained in slack.
#[derive(Debug)]
pub struct MixedSimulator {
    cfg: MixedConfig,
    sim: RoundSimulator,
    arrivals: Poisson,
    rng: StdRng,
    queue: VecDeque<QueuedRequest>,
    round: u64,
}

impl MixedSimulator {
    /// Create a simulator with the given seed.
    ///
    /// # Errors
    /// [`SimError::Invalid`] for a non-positive arrival rate or zero
    /// queue capacity; propagates base-configuration validation.
    pub fn new(cfg: MixedConfig, seed: u64) -> Result<Self, SimError> {
        if !(cfg.arrivals_per_round > 0.0) || !cfg.arrivals_per_round.is_finite() {
            return Err(SimError::Invalid(format!(
                "arrival rate must be positive, got {}",
                cfg.arrivals_per_round
            )));
        }
        if cfg.queue_capacity == 0 {
            return Err(SimError::Invalid("queue capacity must be positive".into()));
        }
        let arrivals =
            Poisson::new(cfg.arrivals_per_round).map_err(|e| SimError::Invalid(e.to_string()))?;
        let sim = RoundSimulator::new(cfg.base.clone(), seed)?;
        Ok(Self {
            cfg,
            sim,
            arrivals,
            rng: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            queue: VecDeque::new(),
            round: 0,
        })
    }

    /// Current discrete queue length.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Run `rounds` rounds with `n` continuous streams.
    pub fn run(&mut self, n: u32, rounds: u64) -> MixedRunStats {
        let mut stats = MixedRunStats {
            rounds,
            late_rounds: 0,
            glitches_per_stream: vec![0; n as usize],
            discrete_arrived: 0,
            discrete_served: 0,
            discrete_dropped: 0,
            discrete_response_rounds: OnlineStats::new(),
            queue_length: OnlineStats::new(),
            discrete_utilization: OnlineStats::new(),
        };
        let round_length = self.cfg.base.round_length;
        for _ in 0..rounds {
            // Arrivals for this round.
            let k = self.arrivals.sample_count(&mut self.rng);
            for _ in 0..k {
                if self.queue.len() >= self.cfg.queue_capacity {
                    stats.discrete_dropped += 1;
                } else {
                    self.queue.push_back(QueuedRequest {
                        bytes: self.cfg.discrete_sizes.sample(&mut self.rng),
                        arrival_round: self.round,
                    });
                }
            }
            stats.discrete_arrived += k;

            // Offer the head of the queue to the round's slack.
            let offered: Vec<f64> = self.queue.iter().map(|q| q.bytes).collect();
            let (outcome, discrete) = self.sim.run_round_with_discrete(n, &offered);
            if outcome.late {
                stats.late_rounds += 1;
            }
            for &s in &outcome.glitched_streams {
                stats.glitches_per_stream[s as usize] += 1;
            }
            for _ in 0..discrete.served {
                let q = self.queue.pop_front().expect("served <= queue length");
                stats
                    .discrete_response_rounds
                    .push((self.round - q.arrival_round) as f64);
            }
            stats.discrete_served += discrete.served as u64;
            stats
                .discrete_utilization
                .push(discrete.time_used / round_length);
            stats.queue_length.push(self.queue.len() as f64);
            self.round += 1;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_mixed_load_serves_everything_immediately() {
        // 10 streams leave ~0.7 s of slack: 5 small requests per round are
        // trivially absorbed with near-zero response time.
        let cfg = MixedConfig::paper_reference(5.0).unwrap();
        let mut sim = MixedSimulator::new(cfg, 1).unwrap();
        let stats = sim.run(10, 500);
        assert_eq!(stats.late_rounds, 0);
        assert!(
            stats.discrete_served > 2_000,
            "served {}",
            stats.discrete_served
        );
        assert!(
            stats.discrete_response_rounds.mean() < 0.05,
            "mean response {} rounds",
            stats.discrete_response_rounds.mean()
        );
        assert_eq!(stats.discrete_dropped, 0);
        // Conservation: arrived = served + still queued + dropped.
        assert_eq!(
            stats.discrete_arrived,
            stats.discrete_served + sim.queue_len() as u64 + stats.discrete_dropped
        );
    }

    #[test]
    fn continuous_guarantee_unaffected_by_discrete_backlog() {
        // Even with an absurd discrete arrival rate, continuous streams
        // keep priority: p_late at N = 26 stays at its paper level.
        let cfg = MixedConfig::paper_reference(500.0).unwrap();
        let mut sim = MixedSimulator::new(cfg, 2).unwrap();
        let stats = sim.run(26, 2_000);
        assert!(
            stats.p_late() < 0.005,
            "continuous p_late {} degraded by discrete load",
            stats.p_late()
        );
        // The queue grows without bound (500 arrivals/round >> capacity
        // to serve): utilization saturates the slack.
        assert!(stats.queue_length.max() > 1_000.0);
        assert!(stats.discrete_utilization.mean() > 0.05);
    }

    #[test]
    fn heavier_continuous_load_squeezes_discrete_throughput() {
        let cfg = MixedConfig::paper_reference(200.0).unwrap();
        let mut a = MixedSimulator::new(cfg.clone(), 3).unwrap();
        let mut b = MixedSimulator::new(cfg, 3).unwrap();
        let light = a.run(12, 500);
        let heavy = b.run(24, 500);
        assert!(
            light.discrete_throughput() > 1.5 * heavy.discrete_throughput(),
            "light {} vs heavy {}",
            light.discrete_throughput(),
            heavy.discrete_throughput()
        );
    }

    #[test]
    fn queue_capacity_drops_excess() {
        let mut cfg = MixedConfig::paper_reference(100.0).unwrap();
        cfg.queue_capacity = 50;
        let mut sim = MixedSimulator::new(cfg, 4).unwrap();
        let stats = sim.run(26, 200);
        assert!(stats.discrete_dropped > 0);
        assert!(sim.queue_len() <= 50);
    }

    #[test]
    fn response_times_grow_with_saturation() {
        let mild = MixedSimulator::new(MixedConfig::paper_reference(5.0).unwrap(), 5)
            .unwrap()
            .run(24, 800);
        let saturated = MixedSimulator::new(MixedConfig::paper_reference(40.0).unwrap(), 5)
            .unwrap()
            .run(24, 800);
        assert!(
            saturated.discrete_response_rounds.mean() > mild.discrete_response_rounds.mean(),
            "saturated {} vs mild {}",
            saturated.discrete_response_rounds.mean(),
            mild.discrete_response_rounds.mean()
        );
    }

    #[test]
    fn validation() {
        let cfg = MixedConfig::paper_reference(0.0);
        assert!(cfg.is_ok()); // constructor builds; simulator rejects:
        assert!(MixedSimulator::new(cfg.unwrap(), 0).is_err());
        let mut cfg = MixedConfig::paper_reference(1.0).unwrap();
        cfg.queue_capacity = 0;
        assert!(MixedSimulator::new(cfg, 0).is_err());
    }

    #[test]
    fn deterministic_for_seed() {
        let cfg = MixedConfig::paper_reference(10.0).unwrap();
        let a = MixedSimulator::new(cfg.clone(), 7).unwrap().run(20, 100);
        let b = MixedSimulator::new(cfg, 7).unwrap().run(20, 100);
        assert_eq!(a, b);
    }
}
