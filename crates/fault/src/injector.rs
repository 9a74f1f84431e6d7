//! Seeded, deterministic per-read fault injection.

use crate::{FaultConfig, FaultProfile, FaultRng, GrayDegradation, RetryPolicy, StallDistribution};

/// Salt mixed into the injector seed to key the private gray stream.
/// Gray phase draws never touch the main fault stream, so enabling a
/// gray profile does not shift the media/stall/remap draw sequence, and
/// a `GrayDegradation::None` profile stays byte-identical.
const GRAY_STREAM_SALT: u64 = 0x6E5F_6772_6179_5F73;

/// What the injector did to one read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadPerturbation {
    /// Extra service time charged to the read (stall + remap detour +
    /// retry backoffs and rereads), in seconds.
    pub extra_time: f64,
    /// The retry-loop portion of `extra_time` alone. Never exceeds the
    /// slack budget the caller passed in.
    pub retry_time: f64,
    /// The read ultimately failed (attempts or budget exhausted, or the
    /// disk was in an unavailability window): the caller must account it
    /// as an explicit glitch.
    pub failed: bool,
}

impl ReadPerturbation {
    /// The identity perturbation: nothing happened.
    #[must_use]
    pub fn none() -> Self {
        Self {
            extra_time: 0.0,
            retry_time: 0.0,
            failed: false,
        }
    }
}

/// Cumulative injection tallies, kept by the injector so callers can
/// export them as `fault.*` metrics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultCounters {
    /// Media-error draws that came up bad (first attempts and retries).
    pub media_errors: u64,
    /// Retry attempts actually issued (and paid for in time).
    pub retries: u64,
    /// Transient stalls injected.
    pub stalls: u64,
    /// Remapped-sector detours injected.
    pub remaps: u64,
    /// Reads that failed outright (become glitches upstream).
    pub failed_reads: u64,
    /// Rounds the disk spent in an unavailability window.
    pub unavailable_rounds: u64,
    /// Reads inflated by gray degradation (silent slowdowns).
    pub gray_reads: u64,
    /// Extra service time injected by gray degradation alone, in
    /// seconds (also included in `fault_time`).
    pub gray_time: f64,
    /// Total extra service time injected, in seconds.
    pub fault_time: f64,
}

impl FaultCounters {
    /// Component-wise difference `self − earlier`, for per-round deltas
    /// out of the cumulative tallies.
    #[must_use]
    pub fn minus(&self, earlier: &Self) -> Self {
        Self {
            media_errors: self.media_errors - earlier.media_errors,
            retries: self.retries - earlier.retries,
            stalls: self.stalls - earlier.stalls,
            remaps: self.remaps - earlier.remaps,
            failed_reads: self.failed_reads - earlier.failed_reads,
            unavailable_rounds: self.unavailable_rounds - earlier.unavailable_rounds,
            gray_reads: self.gray_reads - earlier.gray_reads,
            gray_time: self.gray_time - earlier.gray_time,
            fault_time: self.fault_time - earlier.fault_time,
        }
    }
}

/// Deterministic per-read fault injector for one disk.
///
/// The injector owns a private [`FaultRng`] stream: fault draws never
/// touch the caller's RNG, so a [`FaultProfile::clean`] profile (or no
/// injector at all) produces byte-identical simulations. All state is a
/// pure function of `(config, seed, call sequence)`, which is what makes
/// fault-injected runs bit-identical across worker counts and reruns.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    profile: FaultProfile,
    retry: RetryPolicy,
    rng: FaultRng,
    gray_rng: FaultRng,
    current_round: u64,
    next_round: u64,
    unavail_left: u64,
    unavailable: bool,
    gray_factor: f64,
    gray_phase_down: bool,
    gray_phase_left: u64,
    counters: FaultCounters,
}

impl FaultInjector {
    /// An injector for the given configuration, with its private stream
    /// seeded from `seed` (callers key per-disk seeds via
    /// `mzd_par::derive_seed` or equivalent).
    #[must_use]
    pub fn new(config: &FaultConfig, seed: u64) -> Self {
        Self {
            profile: config.profile.clone(),
            retry: config.retry.clone(),
            rng: FaultRng::seeded(seed),
            gray_rng: FaultRng::seeded(seed ^ GRAY_STREAM_SALT),
            current_round: 0,
            next_round: 0,
            unavail_left: 0,
            unavailable: false,
            gray_factor: 1.0,
            // Start flapping in a (virtual) degraded phase of length 0 so
            // the first `begin_round` toggle lands on a healthy phase.
            gray_phase_down: true,
            gray_phase_left: 0,
            counters: FaultCounters::default(),
        }
    }

    /// Advance to the next round: fixes the scenario multiplier and gray
    /// inflation factor for the round's reads and draws/ages the
    /// unavailability window. Call once per simulated round, before
    /// serving its requests.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn begin_round(&mut self) {
        self.current_round = self.next_round;
        self.next_round += 1;
        if let GrayDegradation::Flapping {
            factor,
            mean_up,
            mean_down,
        } = self.profile.gray
        {
            if self.gray_phase_left == 0 {
                self.gray_phase_down = !self.gray_phase_down;
                let mean = if self.gray_phase_down {
                    mean_down
                } else {
                    mean_up
                };
                self.gray_phase_left = self.gray_rng.exp(mean).ceil().clamp(1.0, 1e12) as u64;
            }
            self.gray_phase_left -= 1;
            self.gray_factor = if self.gray_phase_down { factor } else { 1.0 };
        } else {
            self.gray_factor = self.profile.gray.factor(self.current_round);
        }
        if self.unavail_left > 0 {
            self.unavail_left -= 1;
            self.unavailable = true;
            self.counters.unavailable_rounds += 1;
            return;
        }
        let p = scaled(
            self.profile.p_unavail,
            self.profile.scenario.factor(self.current_round, u32::MAX),
        );
        if self.rng.bernoulli(p) {
            self.unavailable = true;
            self.unavail_left = self.profile.unavail_rounds.saturating_sub(1);
            self.counters.unavailable_rounds += 1;
        } else {
            self.unavailable = false;
        }
    }

    /// Whether the disk is inside an unavailability window this round.
    #[must_use]
    pub fn disk_unavailable(&self) -> bool {
        self.unavailable
    }

    /// The gray inflation multiplier fixed by the last
    /// [`Self::begin_round`] (`1.0` when not degraded).
    #[must_use]
    pub fn gray_factor(&self) -> f64 {
        self.gray_factor
    }

    /// Cumulative tallies so far.
    #[must_use]
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Perturb one fragment read.
    ///
    /// * `zone` — the zone the fragment lives in (for zone-correlated
    ///   scenarios);
    /// * `transfer` — the read's clean transfer time (a media retry
    ///   pays it again);
    /// * `rotation` — one full rotation, priced per reread;
    /// * `full_seek` — full-stroke seek time, scaled by the remap
    ///   factor;
    /// * `slack` — the remaining round-slack budget: total retry
    ///   latency stays within it, and a read that cannot recover inside
    ///   it fails (explicit glitch) instead of stretching the round.
    pub fn perturb_read(
        &mut self,
        zone: u32,
        transfer: f64,
        rotation: f64,
        full_seek: f64,
        slack: f64,
    ) -> ReadPerturbation {
        if self.unavailable {
            self.counters.failed_reads += 1;
            return ReadPerturbation {
                extra_time: 0.0,
                retry_time: 0.0,
                failed: true,
            };
        }
        let f = self.profile.scenario.factor(self.current_round, zone);
        let budget = slack.max(0.0);
        let mut extra = 0.0;
        let mut failed = false;

        // Gray inflation stretches the transfer itself: it is service
        // time, not recovery time, so it is charged outside the retry
        // budget — the read succeeds but the round runs long, which is
        // what silently burns the glitch budget.
        if self.gray_factor > 1.0 {
            let gray_extra = (self.gray_factor - 1.0) * transfer.max(0.0);
            extra += gray_extra;
            self.counters.gray_reads += 1;
            self.counters.gray_time += gray_extra;
        }

        if self.rng.bernoulli(scaled(self.profile.p_stall, f)) {
            let raw = match self.profile.stall_dist {
                StallDistribution::Exponential => self.rng.exp(self.profile.stall_mean),
                StallDistribution::Pareto { shape } => {
                    self.rng.pareto(self.profile.stall_mean, shape)
                }
            };
            extra += raw.min(self.retry.attempt_timeout);
            self.counters.stalls += 1;
        }
        if self.rng.bernoulli(scaled(self.profile.p_remap, f)) {
            extra += self.profile.remap_seek_factor * full_seek;
            self.counters.remaps += 1;
        }

        let mut retry_time = 0.0;
        let p_media = scaled(self.profile.p_media, f);
        if self.rng.bernoulli(p_media) {
            self.counters.media_errors += 1;
            let reread = self.profile.reread_rotations * rotation + transfer.max(0.0);
            let mut prev_backoff = 0.0;
            let mut recovered = false;
            for retry in 0..self.retry.max_retries() {
                let u = self.rng.next_f64();
                let backoff = self.retry.backoff(retry, prev_backoff, u);
                prev_backoff = backoff;
                let cost = backoff + reread;
                if extra + retry_time + cost > budget {
                    break; // budget exhausted → explicit glitch
                }
                retry_time += cost;
                self.counters.retries += 1;
                if self.rng.bernoulli(p_media) {
                    self.counters.media_errors += 1;
                } else {
                    recovered = true;
                    break;
                }
            }
            if !recovered {
                failed = true;
                self.counters.failed_reads += 1;
            }
        }

        let total = extra + retry_time;
        self.counters.fault_time += total;
        ReadPerturbation {
            extra_time: total,
            retry_time,
            failed,
        }
    }
}

/// `p·f` clamped into `[0, 1]`.
fn scaled(p: f64, factor: f64) -> f64 {
    (p * factor).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChaosScenario;

    fn media_config(p: f64) -> FaultConfig {
        FaultConfig {
            profile: FaultProfile {
                p_media: p,
                ..FaultProfile::default()
            },
            ..FaultConfig::default()
        }
    }

    #[test]
    fn clean_profile_injects_nothing() {
        let mut inj = FaultInjector::new(&FaultConfig::default(), 7);
        for _ in 0..64 {
            inj.begin_round();
            for _ in 0..16 {
                let p = inj.perturb_read(0, 0.01, 0.011, 0.02, 0.5);
                assert_eq!(p, ReadPerturbation::none());
            }
        }
        assert_eq!(inj.counters(), FaultCounters::default());
    }

    #[test]
    fn deterministic_for_seed() {
        let cfg = FaultConfig::parse("media=0.1, stall=0.05:0.01, remap=0.02").unwrap();
        let run = |seed: u64| {
            let mut inj = FaultInjector::new(&cfg, seed);
            let mut out = Vec::new();
            for _ in 0..50 {
                inj.begin_round();
                for _ in 0..8 {
                    out.push(inj.perturb_read(1, 0.01, 0.011, 0.02, 0.5));
                }
            }
            out
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn retry_latency_respects_budget() {
        let cfg = FaultConfig::parse("media=1.0, retries=8, backoff=0.01:2:1:0").unwrap();
        let mut inj = FaultInjector::new(&cfg, 1);
        inj.begin_round();
        for slack in [0.0, 0.001, 0.05, 0.2, 1.0] {
            let p = inj.perturb_read(0, 0.01, 0.011, 0.02, slack);
            assert!(
                p.retry_time <= slack + 1e-12,
                "retry time {} over budget {slack}",
                p.retry_time
            );
        }
        // p_media = 1: every read either recovers (impossible here) or fails.
        assert!(inj.counters().failed_reads > 0);
    }

    #[test]
    fn unavailability_fails_reads_for_the_window() {
        let cfg = FaultConfig::parse("unavail=1.0:3").unwrap();
        let mut inj = FaultInjector::new(&cfg, 9);
        for _ in 0..3 {
            inj.begin_round();
            assert!(inj.disk_unavailable());
            let p = inj.perturb_read(0, 0.01, 0.011, 0.02, 0.5);
            assert!(p.failed);
            assert_eq!(p.extra_time, 0.0);
        }
        assert_eq!(inj.counters().unavailable_rounds, 3);
        assert_eq!(inj.counters().failed_reads, 3);
    }

    #[test]
    fn zone_failure_only_hits_its_zone() {
        let cfg = FaultConfig {
            profile: FaultProfile {
                p_media: 0.0,
                scenario: ChaosScenario::ZoneFailure {
                    zone: 2,
                    start: 0,
                    rounds: 100,
                    factor: 1e9, // p_media stays 0 even scaled
                },
                ..FaultProfile::default()
            },
            ..FaultConfig::default()
        };
        let mut inj = FaultInjector::new(&cfg, 5);
        inj.begin_round();
        let p = inj.perturb_read(2, 0.01, 0.011, 0.02, 0.5);
        assert!(!p.failed); // 0 · 1e9 = 0: scaling never invents faults
        assert_eq!(p.extra_time, 0.0);

        let cfg = FaultConfig {
            profile: FaultProfile {
                p_media: 1e-9,
                scenario: ChaosScenario::ZoneFailure {
                    zone: 2,
                    start: 0,
                    rounds: 100,
                    factor: 1e9,
                },
                ..FaultProfile::default()
            },
            ..FaultConfig::default()
        };
        let mut inj = FaultInjector::new(&cfg, 5);
        inj.begin_round();
        // Zone 2 reads now fail with probability 1; other zones ~1e-9.
        let hit = inj.perturb_read(2, 0.01, 0.011, 0.02, 10.0);
        assert!(hit.extra_time > 0.0 || hit.failed);
        let miss = inj.perturb_read(0, 0.01, 0.011, 0.02, 10.0);
        assert_eq!(miss, ReadPerturbation::none());
    }

    #[test]
    fn gray_slow_inflates_without_failing() {
        let cfg = FaultConfig::preset("graynode").unwrap();
        let mut inj = FaultInjector::new(&cfg, 3);
        inj.begin_round();
        assert_eq!(inj.gray_factor(), 1.6);
        let p = inj.perturb_read(0, 0.010, 0.011, 0.02, 0.5);
        assert!(!p.failed);
        assert_eq!(p.retry_time, 0.0);
        assert!((p.extra_time - 0.006).abs() < 1e-12, "{}", p.extra_time);
        let c = inj.counters();
        assert_eq!(c.gray_reads, 1);
        assert!((c.gray_time - 0.006).abs() < 1e-12);
        assert_eq!(c.fault_time, c.gray_time);
        assert_eq!(c.failed_reads, 0);
    }

    #[test]
    fn gray_stream_is_private() {
        // Enabling gray must not shift the main fault stream: a media
        // profile with and without gray draws identical media outcomes.
        let plain = FaultConfig::parse("media=0.1").unwrap();
        let grayed = FaultConfig::parse("media=0.1, gray=flap:2:10:5").unwrap();
        let run = |cfg: &FaultConfig| {
            let mut inj = FaultInjector::new(cfg, 21);
            let mut out = Vec::new();
            for _ in 0..200 {
                inj.begin_round();
                for _ in 0..4 {
                    let p = inj.perturb_read(0, 0.01, 0.011, 0.02, 0.5);
                    out.push((p.failed, p.retry_time.to_bits()));
                }
            }
            out
        };
        assert_eq!(run(&plain), run(&grayed));
    }

    #[test]
    fn gray_none_is_byte_identical_to_clean() {
        let mut inj = FaultInjector::new(&FaultConfig::default(), 7);
        for _ in 0..32 {
            inj.begin_round();
            assert_eq!(inj.gray_factor(), 1.0);
            let p = inj.perturb_read(0, 0.01, 0.011, 0.02, 0.5);
            assert_eq!(p, ReadPerturbation::none());
        }
        assert_eq!(inj.counters(), FaultCounters::default());
    }

    #[test]
    fn flapping_alternates_phases_deterministically() {
        let cfg = FaultConfig::preset("flappy").unwrap();
        let run = || {
            let mut inj = FaultInjector::new(&cfg, 13);
            (0..600)
                .map(|_| {
                    inj.begin_round();
                    inj.gray_factor().to_bits()
                })
                .collect::<Vec<u64>>()
        };
        let factors = run();
        assert_eq!(factors, run());
        let up = factors.iter().filter(|&&f| f == 1.0f64.to_bits()).count();
        let down = factors.len() - up;
        assert!(up > 0 && down > 0, "up {up} down {down}");
        // First phase is healthy: the node starts out looking fine.
        assert_eq!(factors[0], 1.0f64.to_bits());
    }

    #[test]
    fn creep_ramps_to_peak() {
        let cfg = FaultConfig::preset("creep").unwrap();
        let mut inj = FaultInjector::new(&cfg, 2);
        let mut last = 0.0f64;
        for round in 0..500u64 {
            inj.begin_round();
            let f = inj.gray_factor();
            assert!(f >= last, "round {round}: {f} < {last}");
            last = f;
        }
        assert_eq!(last, 2.5);
    }

    #[test]
    fn media_errors_recover_given_slack() {
        let mut inj = FaultInjector::new(&media_config(0.2), 11);
        let mut recovered = 0u32;
        let mut failed = 0u32;
        for _ in 0..2000 {
            inj.begin_round();
            let p = inj.perturb_read(0, 0.005, 0.011, 0.02, 10.0);
            if p.failed {
                failed += 1;
            } else if p.retry_time > 0.0 {
                recovered += 1;
            }
        }
        // At p = 0.2 with 4 attempts and ample slack, recovery dominates.
        assert!(recovered > 250, "recovered {recovered}");
        assert!(failed < 20, "failed {failed}");
        let c = inj.counters();
        assert!(c.media_errors >= u64::from(recovered));
        assert!(c.fault_time > 0.0);
        let d = c.minus(&FaultCounters::default());
        assert_eq!(d, c);
    }
}
