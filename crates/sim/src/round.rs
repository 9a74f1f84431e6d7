//! Single-round mechanics: request generation, sweep ordering and
//! completion times.
//!
//! A round serves one request per active stream. Requests are placed
//! uniformly over the disk's *capacity* (outer zones proportionally more
//! likely, eq. 3.2.1), sorted into SCAN order, and served with
//!
//! ```text
//! completion_i = completion_{i−1} + seek(gap_i) + rot_i + bytes_i / rate(zone_i)
//! ```
//!
//! where `rot_i ~ U(0, ROT)` and the arm alternates sweep direction
//! between rounds (elevator). A stream glitches when its request completes
//! after the round deadline.
//!
//! Since the event-core rewrite, every entry point here is a thin wrapper
//! over the crate-private `event::EventCore` — struct-of-arrays round
//! state, a counting-sort sweep order and one fused serve loop — with a
//! draw schedule bit-identical to the original per-request loop (the
//! test-only `legacy` module below keeps the original loop verbatim as
//! the equivalence oracle).

use crate::event::{EventCore, RoundSizes};
use crate::SimError;
use mzd_disk::placement::PlacementPolicy;
use mzd_disk::scan::SweepDirection;
use mzd_disk::Disk;
use mzd_fault::{FaultConfig, FaultCounters, FaultInjector};
use mzd_workload::SizeDistribution;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Index of the fault injector's sub-stream under `mzd_par::derive_seed`:
/// the injector draws from an independent stream keyed off the simulator
/// seed, so fault draws never perturb the simulator's own RNG (a
/// zero-fault profile is byte-identical to running without an injector).
const FAULT_SEED_STREAM: u64 = 0xFA17;

/// Default per-round request capacity preallocated by
/// [`RoundSimulator::new`]; callers that know their admission cap should
/// use [`RoundSimulator::with_capacity`].
const DEFAULT_ROUND_CAPACITY: usize = 64;

/// Global-registry handles cached per simulator so the per-round hot
/// path never touches the registry's lock.
#[derive(Debug)]
struct RoundMetrics {
    rounds: mzd_telemetry::Counter,
    late: mzd_telemetry::Counter,
    service_time: mzd_telemetry::Histogram,
    seek_time: mzd_telemetry::Histogram,
    rotational_time: mzd_telemetry::Histogram,
    transfer_time: mzd_telemetry::Histogram,
}

impl RoundMetrics {
    fn new() -> Self {
        let g = mzd_telemetry::global();
        Self {
            rounds: g.counter("sim.rounds"),
            late: g.counter("sim.round.late"),
            service_time: g.histogram("sim.round.service_time"),
            seek_time: g.histogram("sim.round.seek_time"),
            rotational_time: g.histogram("sim.round.rotational_time"),
            transfer_time: g.histogram("sim.round.transfer_time"),
        }
    }
}

/// `fault.*` metric handles. Registered eagerly at simulator construction
/// — even fault-free runs expose the full (zeroed) family, so clean and
/// faulted runs present identical metric catalogs to scrapers and the
/// Prometheus exposition.
#[derive(Debug)]
struct FaultMetrics {
    media_errors: mzd_telemetry::Counter,
    retries: mzd_telemetry::Counter,
    stalls: mzd_telemetry::Counter,
    remaps: mzd_telemetry::Counter,
    failed_reads: mzd_telemetry::Counter,
    unavailable_rounds: mzd_telemetry::Counter,
    fault_time: mzd_telemetry::Histogram,
}

impl FaultMetrics {
    fn new() -> Self {
        let g = mzd_telemetry::global();
        Self {
            media_errors: g.counter("fault.media_errors"),
            retries: g.counter("fault.retries"),
            stalls: g.counter("fault.stalls"),
            remaps: g.counter("fault.remaps"),
            failed_reads: g.counter("fault.failed_reads"),
            unavailable_rounds: g.counter("fault.unavailable_rounds"),
            fault_time: g.histogram("fault.round_time"),
        }
    }

    fn observe(&self, delta: &FaultCounters) {
        self.media_errors.add(delta.media_errors);
        self.retries.add(delta.retries);
        self.stalls.add(delta.stalls);
        self.remaps.add(delta.remaps);
        self.failed_reads.add(delta.failed_reads);
        self.unavailable_rounds.add(delta.unavailable_rounds);
        self.fault_time.record(delta.fault_time);
    }
}

/// Disk-arm scheduling policy within a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeekPolicy {
    /// SCAN (elevator): serve in cylinder order, alternating direction
    /// per round — the paper's policy (§2.3).
    #[default]
    Scan,
    /// First-come-first-served in arrival (stream) order with independent
    /// seeks — the baseline assumed by the related work the paper improves
    /// on (\[CZ94\], \[CL96\]).
    Fcfs,
}

/// Configuration of a per-disk round simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The disk being simulated.
    pub disk: Disk,
    /// Fragment-size law (per stream per round, i.i.d.).
    pub sizes: SizeDistribution,
    /// Round length `t`, seconds.
    pub round_length: f64,
    /// Arm scheduling policy.
    pub seek_policy: SeekPolicy,
    /// Where fragments live on the disk.
    pub placement: PlacementPolicy,
    /// Optional fault injection: media-error rereads, transient stalls,
    /// unavailability windows, remap detours and chaos scenarios
    /// ([`mzd_fault::FaultConfig`]). `None` — and a config whose profile
    /// is all-zero — leaves every simulated round byte-identical to the
    /// fault-free simulator. (`only_disk` is a server-layer concern and
    /// ignored here: the per-disk simulator injects whatever it is
    /// given.)
    pub faults: Option<FaultConfig>,
}

impl SimConfig {
    /// The paper's §4 validation setup: Quantum Viking 2.1, Gamma
    /// (200 KB, (100 KB)²) fragments, 1-second rounds, SCAN.
    ///
    /// # Errors
    /// Never in practice; propagated for uniformity.
    pub fn paper_reference() -> Result<Self, SimError> {
        let disk = mzd_disk::profiles::quantum_viking_2_1()
            .build()
            .map_err(|e| SimError::Invalid(e.to_string()))?;
        Ok(Self {
            disk,
            sizes: SizeDistribution::paper_default(),
            round_length: 1.0,
            seek_policy: SeekPolicy::Scan,
            placement: PlacementPolicy::UniformByCapacity,
            faults: None,
        })
    }

    /// Validate the configuration.
    ///
    /// # Errors
    /// [`SimError::Invalid`] for a non-positive round length.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(self.round_length > 0.0) || !self.round_length.is_finite() {
            return Err(SimError::Invalid(format!(
                "round length must be positive, got {}",
                self.round_length
            )));
        }
        self.placement
            .validate(&self.disk)
            .map_err(|e| SimError::Invalid(e.to_string()))?;
        if let Some(f) = &self.faults {
            f.validate().map_err(|e| SimError::Invalid(e.to_string()))?;
        }
        Ok(())
    }
}

/// Outcome of one simulated round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// Total service time of the round's sweep, seconds (the simulated
    /// `T_N` of eq. 3.1.1).
    pub service_time: f64,
    /// Whether the round overran the deadline (`service_time > t`).
    pub late: bool,
    /// Stream indices (0-based) whose requests completed *after* the
    /// deadline — the glitched streams of this round.
    pub glitched_streams: Vec<u32>,
    /// Decomposition: total seek time of the sweep.
    pub seek_time: f64,
    /// Decomposition: total rotational latency.
    pub rotational_time: f64,
    /// Decomposition: total transfer time.
    pub transfer_time: f64,
    /// Decomposition: time added by injected faults — retry rereads,
    /// backoff waits, transient stalls and remap detours (0 when no
    /// injector is configured or no fault fired).
    pub fault_time: f64,
}

/// Outcome of the discrete best-effort phase of a mixed round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscreteOutcome {
    /// Discrete requests completed within the round.
    pub served: usize,
    /// Time spent on them, seconds.
    pub time_used: f64,
}

/// Simulates successive rounds on one disk for a fixed stream count.
///
/// Holds the arm state (position + sweep direction) across rounds; the
/// RNG is owned so runs are reproducible from the seed. All rounds run
/// through the discrete-event core ([`crate::event`]): direct draws,
/// preallocated struct-of-arrays state and one fused serve loop.
///
/// ```
/// use mzd_sim::{RoundSimulator, SimConfig};
/// let mut sim = RoundSimulator::new(SimConfig::paper_reference().unwrap(), 42).unwrap();
/// let outcome = sim.run_round(27);
/// // A typical N = 27 round takes ~0.8 s of the 1 s budget.
/// assert!(outcome.service_time > 0.4 && outcome.service_time < 1.3);
/// ```
#[derive(Debug)]
pub struct RoundSimulator {
    cfg: SimConfig,
    rng: StdRng,
    arm_position: u32,
    direction: SweepDirection,
    /// The discrete-event round core: arenas, placement tables.
    core: EventCore,
    /// Rounds served so far — the logical round id of emitted events.
    rounds_run: u64,
    metrics: RoundMetrics,
    /// Fault injector, when `cfg.faults` is set. Owns a private RNG
    /// stream so the simulator's own draws are untouched.
    injector: Option<FaultInjector>,
    fault_metrics: FaultMetrics,
    /// Injector counters as of the last observed round, for per-round
    /// deltas.
    last_fault_counters: FaultCounters,
}

impl RoundSimulator {
    /// Create a simulator with the given seed.
    ///
    /// # Errors
    /// Propagates configuration validation.
    pub fn new(cfg: SimConfig, seed: u64) -> Result<Self, SimError> {
        Self::with_capacity(cfg, seed, DEFAULT_ROUND_CAPACITY)
    }

    /// Create a simulator preallocating round state (arenas and sort
    /// scratch) for up to `streams` requests per round — the server
    /// passes its admission cap here. Rounds at or below that size do
    /// zero steady-state allocations; larger rounds still work and just
    /// grow the arenas once.
    ///
    /// # Errors
    /// Propagates configuration validation.
    pub fn with_capacity(cfg: SimConfig, seed: u64, streams: usize) -> Result<Self, SimError> {
        cfg.validate()?;
        let weights = cfg
            .placement
            .zone_weights(&cfg.disk)
            .map_err(|e| SimError::Invalid(e.to_string()))?;
        let injector = cfg
            .faults
            .as_ref()
            .map(|fc| FaultInjector::new(fc, mzd_par::derive_seed(seed, FAULT_SEED_STREAM)));
        let core = EventCore::new(&cfg.disk, &weights, streams);
        Ok(Self {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            arm_position: 0,
            direction: SweepDirection::Up,
            core,
            rounds_run: 0,
            metrics: RoundMetrics::new(),
            injector,
            fault_metrics: FaultMetrics::new(),
            last_fault_counters: FaultCounters::default(),
        })
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Rounds served so far — the logical position of this simulator's
    /// RNG stream. Two simulators with the same seed and the same
    /// `rounds_run` have consumed the same draws, so this is the stream
    /// position flight-recorder snapshots carry (the vendored RNG
    /// exposes no internal counter).
    #[must_use]
    pub fn rounds_run(&self) -> u64 {
        self.rounds_run
    }

    /// Cumulative fault-injector counters as of the last observed round.
    /// All-zero when no injector is configured (or none has fired yet) —
    /// callers get one shape for clean and faulted runs alike.
    #[must_use]
    pub fn fault_counters(&self) -> FaultCounters {
        self.last_fault_counters
    }

    /// Swap the placement policy mid-run — the drift-injection primitive:
    /// a layout migration (or a mis-modeled allocator) changes where new
    /// requests land while the analytic model still assumes the old law.
    /// Validates against the disk and recomputes the per-zone selection
    /// weights; arm state, RNG stream and round counter are untouched, so
    /// a seeded run stays reproducible across the switch.
    ///
    /// # Errors
    /// [`SimError::Invalid`] if the policy does not fit the disk (e.g.
    /// more zones than the disk has).
    pub fn set_placement(&mut self, placement: PlacementPolicy) -> Result<(), SimError> {
        placement
            .validate(&self.cfg.disk)
            .map_err(|e| SimError::Invalid(e.to_string()))?;
        let weights = placement
            .zone_weights(&self.cfg.disk)
            .map_err(|e| SimError::Invalid(e.to_string()))?;
        self.core.set_weights(&self.cfg.disk, &weights);
        self.cfg.placement = placement;
        Ok(())
    }

    /// Simulate one round serving `n` streams (stream indices `0..n`),
    /// with fragment sizes drawn i.i.d. from the configured law.
    pub fn run_round(&mut self, n: u32) -> RoundOutcome {
        let outcome = self.core.round(
            &self.cfg,
            RoundSizes::Law {
                n,
                law: &self.cfg.sizes,
            },
            &mut self.rng,
            self.injector.as_mut(),
            &mut self.arm_position,
            &mut self.direction,
        );
        self.observe_round(&outcome, n as usize);
        outcome
    }

    /// Simulate one round with caller-provided fragment sizes (bytes):
    /// stream `i` requests `sizes[i]`. Placement and rotational latency
    /// are still drawn by the simulator. Used by the server layer, where
    /// each stream has its own object and size law.
    pub fn run_round_sized(&mut self, sizes: &[f64]) -> RoundOutcome {
        let outcome = self.core.round(
            &self.cfg,
            RoundSizes::Given(sizes),
            &mut self.rng,
            self.injector.as_mut(),
            &mut self.arm_position,
            &mut self.direction,
        );
        self.observe_round(&outcome, sizes.len());
        outcome
    }

    /// Draw one placement under the configured policy: a zone by the
    /// policy's weights (guide table over prefix sums), then a cylinder
    /// uniform within the zone.
    fn place(&mut self) -> (u32, usize) {
        self.core.place(&mut self.rng)
    }

    /// Serve one round of `n` continuous streams, then as many of the
    /// `discrete` requests (FCFS, given sizes in bytes) as *complete*
    /// within the remaining round time — the mixed-workload discipline of
    /// the paper's §6 outlook: continuous requests keep priority, discrete
    /// requests are served best-effort in the slack.
    ///
    /// Returns the continuous outcome plus the number of discrete requests
    /// served and the time they consumed.
    pub fn run_round_with_discrete(
        &mut self,
        n: u32,
        discrete: &[f64],
    ) -> (RoundOutcome, DiscreteOutcome) {
        let outcome = self.run_round(n);
        let extra = self.serve_extras(outcome.service_time, discrete);
        (outcome, extra)
    }

    /// Like [`Self::run_round_with_discrete`] but with caller-provided
    /// sizes for the priority batch too — the work-ahead prefetching
    /// discipline uses this (mandatory fetches in the SCAN sweep,
    /// prefetches best-effort in the slack).
    pub fn run_round_sized_with_extras(
        &mut self,
        sizes: &[f64],
        extras: &[f64],
    ) -> (RoundOutcome, DiscreteOutcome) {
        let outcome = self.run_round_sized(sizes);
        let extra = self.serve_extras(outcome.service_time, extras);
        (outcome, extra)
    }

    /// Serve `extras` FCFS from the current arm position for as long as
    /// each request still completes before the deadline.
    fn serve_extras(&mut self, start_clock: f64, extras: &[f64]) -> DiscreteOutcome {
        let deadline = self.cfg.round_length;
        let mut clock = start_clock;
        let mut served = 0usize;
        let mut time_used = 0.0;
        for &bytes in extras {
            if clock >= deadline {
                break;
            }
            // Cost the request before committing: the scheduler knows the
            // target position and can bound the service time.
            let (cylinder, zone) = self.place();
            let seek = self
                .cfg
                .disk
                .seek_curve()
                .seek_time_cyl(self.arm_position.abs_diff(cylinder));
            let rotational = self.core.rotational(&mut self.rng);
            let cost = seek + rotational + self.core.transfer_time(zone, bytes);
            if clock + cost > deadline {
                break;
            }
            clock += cost;
            time_used += cost;
            served += 1;
            self.arm_position = cylinder;
        }
        DiscreteOutcome { served, time_used }
    }

    /// Record the round into the metrics registry and (when a sink is
    /// installed) the event log. Keyed by the logical round id, so a
    /// seeded replay emits a byte-identical event stream.
    fn observe_round(&mut self, outcome: &RoundOutcome, n: usize) {
        let round = self.rounds_run;
        self.rounds_run += 1;
        let m = &self.metrics;
        m.rounds.inc();
        if outcome.late {
            m.late.inc();
        }
        m.service_time.record(outcome.service_time);
        m.seek_time.record(outcome.seek_time);
        m.rotational_time.record(outcome.rotational_time);
        m.transfer_time.record(outcome.transfer_time);
        if let Some(inj) = &self.injector {
            let now = inj.counters();
            self.fault_metrics
                .observe(&now.minus(&self.last_fault_counters));
            self.last_fault_counters = now;
        }
        if mzd_telemetry::events_enabled() {
            let glitched: Vec<u64> = outcome
                .glitched_streams
                .iter()
                .map(|&s| u64::from(s))
                .collect();
            mzd_telemetry::emit(
                mzd_telemetry::Event::new("sim.round")
                    .u64("round", round)
                    .u64("n", n as u64)
                    .f64("service_time", outcome.service_time)
                    .f64("seek", outcome.seek_time)
                    .f64("rot", outcome.rotational_time)
                    .f64("transfer", outcome.transfer_time)
                    .f64("fault", outcome.fault_time)
                    .bool("late", outcome.late)
                    .u64_list("glitched", &glitched),
            );
        }
    }
}

/// The pre-event-core round loop, kept verbatim (minus telemetry) as the
/// equivalence oracle: the tests below byte-diff `RoundOutcome` streams
/// of [`RoundSimulator`] against this reference on the paper anchors.
#[cfg(test)]
mod legacy {
    use super::*;
    use rand::RngExt as _;

    #[derive(Debug, Clone, Copy)]
    struct Request {
        stream: u32,
        cylinder: u32,
        zone: usize,
        bytes: f64,
        rotational: f64,
    }

    pub struct LegacySimulator {
        cfg: SimConfig,
        rng: StdRng,
        arm_position: u32,
        direction: SweepDirection,
        zone_cdf: Vec<f64>,
        requests: Vec<Request>,
        injector: Option<FaultInjector>,
    }

    impl LegacySimulator {
        pub fn new(cfg: SimConfig, seed: u64) -> Self {
            let zone_cdf = cfg.placement.zone_weights(&cfg.disk).unwrap();
            let injector = cfg
                .faults
                .as_ref()
                .map(|fc| FaultInjector::new(fc, mzd_par::derive_seed(seed, FAULT_SEED_STREAM)));
            Self {
                cfg,
                rng: StdRng::seed_from_u64(seed),
                arm_position: 0,
                direction: SweepDirection::Up,
                zone_cdf,
                requests: Vec::new(),
                injector,
            }
        }

        pub fn run_round(&mut self, n: u32) -> RoundOutcome {
            self.requests.clear();
            let rot = self.cfg.disk.rotation_time();
            for stream in 0..n {
                let (cylinder, zone) = self.place();
                let bytes = self.cfg.sizes.sample(&mut self.rng);
                let rotational = self.rng.random_range(0.0..rot);
                self.requests.push(Request {
                    stream,
                    cylinder,
                    zone,
                    bytes,
                    rotational,
                });
            }
            self.order_and_serve()
        }

        pub fn run_round_sized(&mut self, sizes: &[f64]) -> RoundOutcome {
            self.requests.clear();
            let rot = self.cfg.disk.rotation_time();
            for (stream, &bytes) in sizes.iter().enumerate() {
                let (cylinder, zone) = self.place();
                let rotational = self.rng.random_range(0.0..rot);
                self.requests.push(Request {
                    stream: stream as u32,
                    cylinder,
                    zone,
                    bytes,
                    rotational,
                });
            }
            self.order_and_serve()
        }

        pub fn run_round_sized_with_extras(
            &mut self,
            sizes: &[f64],
            extras: &[f64],
        ) -> (RoundOutcome, DiscreteOutcome) {
            let outcome = self.run_round_sized(sizes);
            let extra = self.serve_extras(outcome.service_time, extras);
            (outcome, extra)
        }

        fn place(&mut self) -> (u32, usize) {
            let u: f64 = self.rng.random();
            let zone = {
                let target = u.clamp(0.0, 1.0);
                let mut acc = 0.0;
                let mut chosen = self.zone_cdf.len() - 1;
                for (i, &w) in self.zone_cdf.iter().enumerate() {
                    acc += w;
                    if target < acc {
                        chosen = i;
                        break;
                    }
                }
                chosen
            };
            let first = self.cfg.disk.zone_first_cylinder(zone);
            let count = self.cfg.disk.zone_cylinder_count(zone);
            let cyl = first + self.rng.random_range(0..count);
            (cyl, zone)
        }

        fn serve_extras(&mut self, start_clock: f64, extras: &[f64]) -> DiscreteOutcome {
            let deadline = self.cfg.round_length;
            let mut clock = start_clock;
            let mut served = 0usize;
            let mut time_used = 0.0;
            let rot = self.cfg.disk.rotation_time();
            for &bytes in extras {
                if clock >= deadline {
                    break;
                }
                let (cylinder, zone) = self.place();
                let seek = self
                    .cfg
                    .disk
                    .seek_curve()
                    .seek_time_cyl(self.arm_position.abs_diff(cylinder));
                let rotational = self.rng.random_range(0.0..rot);
                let cost = seek + rotational + self.cfg.disk.transfer_time(zone, bytes);
                if clock + cost > deadline {
                    break;
                }
                clock += cost;
                time_used += cost;
                served += 1;
                self.arm_position = cylinder;
            }
            DiscreteOutcome { served, time_used }
        }

        fn order_and_serve(&mut self) -> RoundOutcome {
            match self.cfg.seek_policy {
                SeekPolicy::Scan => match self.direction {
                    SweepDirection::Up => self.requests.sort_by_key(|r| r.cylinder),
                    SweepDirection::Down => {
                        self.requests.sort_by_key(|r| std::cmp::Reverse(r.cylinder));
                    }
                },
                SeekPolicy::Fcfs => {}
            }
            let disk = &self.cfg.disk;
            let curve = disk.seek_curve();
            let deadline = self.cfg.round_length;
            let full_seek = curve.max_seek_time(disk.cylinders());
            let mut injector = self.injector.as_mut();
            if let Some(inj) = injector.as_deref_mut() {
                inj.begin_round();
            }
            let mut clock = 0.0;
            let mut seek_total = 0.0;
            let mut rot_total = 0.0;
            let mut trans_total = 0.0;
            let mut fault_total = 0.0;
            let mut glitched = Vec::new();
            let mut pos = self.arm_position;
            for req in &self.requests {
                let dist = pos.abs_diff(req.cylinder);
                let seek = curve.seek_time_cyl(dist);
                let transfer = disk.transfer_time(req.zone, req.bytes);
                clock += seek + req.rotational + transfer;
                seek_total += seek;
                rot_total += req.rotational;
                trans_total += transfer;
                pos = req.cylinder;
                let mut failed = false;
                if let Some(inj) = injector.as_deref_mut() {
                    let pert = inj.perturb_read(
                        req.zone as u32,
                        transfer,
                        disk.rotation_time(),
                        full_seek,
                        deadline - clock,
                    );
                    clock += pert.extra_time;
                    fault_total += pert.extra_time;
                    failed = pert.failed;
                }
                if failed || clock > deadline {
                    glitched.push(req.stream);
                }
            }
            self.arm_position = pos;
            self.direction = self.direction.reversed();
            RoundOutcome {
                service_time: clock,
                late: clock > deadline,
                glitched_streams: glitched,
                seek_time: seek_total,
                rotational_time: rot_total,
                transfer_time: trans_total,
                fault_time: fault_total,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mzd_disk::oyang;
    use rand::RngExt as _;

    fn sim(seed: u64) -> RoundSimulator {
        RoundSimulator::new(SimConfig::paper_reference().unwrap(), seed).unwrap()
    }

    /// Every field bit-for-bit: the event core must reproduce the legacy
    /// loop's exact f64 stream, not just values within tolerance.
    fn assert_bit_identical(a: &RoundOutcome, b: &RoundOutcome, ctx: &str) {
        assert_eq!(
            a.service_time.to_bits(),
            b.service_time.to_bits(),
            "{ctx}: service_time {} vs {}",
            a.service_time,
            b.service_time
        );
        assert_eq!(a.seek_time.to_bits(), b.seek_time.to_bits(), "{ctx}: seek");
        assert_eq!(
            a.rotational_time.to_bits(),
            b.rotational_time.to_bits(),
            "{ctx}: rot"
        );
        assert_eq!(
            a.transfer_time.to_bits(),
            b.transfer_time.to_bits(),
            "{ctx}: transfer"
        );
        assert_eq!(
            a.fault_time.to_bits(),
            b.fault_time.to_bits(),
            "{ctx}: fault"
        );
        assert_eq!(a.late, b.late, "{ctx}: late");
        assert_eq!(a.glitched_streams, b.glitched_streams, "{ctx}: glitched");
    }

    #[test]
    fn event_core_matches_legacy_on_figure1_anchors() {
        // Figure 1 sweeps N at the paper-reference config.
        for n in [14u32, 20, 27, 34] {
            let seed = 1000 + u64::from(n);
            let cfg = SimConfig::paper_reference().unwrap();
            let mut new = RoundSimulator::new(cfg.clone(), seed).unwrap();
            let mut old = legacy::LegacySimulator::new(cfg, seed);
            for round in 0..300 {
                let a = new.run_round(n);
                let b = old.run_round(n);
                assert_bit_identical(&a, &b, &format!("fig1 n={n} round={round}"));
            }
        }
    }

    #[test]
    fn event_core_matches_legacy_on_table2_anchors() {
        // Table 2 reads off p_error near the admission boundary.
        for n in 28u32..=32 {
            let seed = 2000 + u64::from(n);
            let cfg = SimConfig::paper_reference().unwrap();
            let mut new = RoundSimulator::new(cfg.clone(), seed).unwrap();
            let mut old = legacy::LegacySimulator::new(cfg, seed);
            for round in 0..200 {
                let a = new.run_round(n);
                let b = old.run_round(n);
                assert_bit_identical(&a, &b, &format!("table2 n={n} round={round}"));
            }
        }
    }

    #[test]
    fn event_core_matches_legacy_on_zonefail_faulted_run() {
        let mut cfg = SimConfig::paper_reference().unwrap();
        cfg.faults = Some(mzd_fault::FaultConfig::preset("zonefail").unwrap());
        let mut new = RoundSimulator::new(cfg.clone(), 4242).unwrap();
        let mut old = legacy::LegacySimulator::new(cfg, 4242);
        for round in 0..500 {
            let a = new.run_round(26);
            let b = old.run_round(26);
            assert_bit_identical(&a, &b, &format!("zonefail round={round}"));
        }
    }

    #[test]
    fn event_core_matches_legacy_across_policies() {
        let variants: Vec<(&str, SimConfig)> = vec![
            {
                let mut c = SimConfig::paper_reference().unwrap();
                c.seek_policy = SeekPolicy::Fcfs;
                ("fcfs", c)
            },
            {
                let mut c = SimConfig::paper_reference().unwrap();
                c.faults = Some(mzd_fault::FaultConfig::preset("flaky").unwrap());
                ("flaky", c)
            },
        ];
        for (name, cfg) in variants {
            let mut new = RoundSimulator::new(cfg.clone(), 77).unwrap();
            let mut old = legacy::LegacySimulator::new(cfg, 77);
            // Overload some rounds so the late paths are exercised.
            for (round, n) in [26u32, 34, 200, 27, 40, 26]
                .iter()
                .cycle()
                .take(120)
                .enumerate()
            {
                let a = new.run_round(*n);
                let b = old.run_round(*n);
                assert_bit_identical(&a, &b, &format!("{name} round={round}"));
            }
        }
    }

    #[test]
    fn event_core_matches_legacy_on_sized_rounds_with_extras() {
        let cfg = SimConfig::paper_reference().unwrap();
        let mut new = RoundSimulator::new(cfg.clone(), 909).unwrap();
        let mut old = legacy::LegacySimulator::new(cfg, 909);
        let mut szrng = rand::rngs::StdRng::seed_from_u64(5);
        for round in 0..200 {
            let n = 10 + (round % 17) as usize;
            let sizes: Vec<f64> = (0..n)
                .map(|_| szrng.random_range(50_000.0..400_000.0))
                .collect();
            let extras: Vec<f64> = (0..6)
                .map(|_| szrng.random_range(50_000.0..200_000.0))
                .collect();
            let (a, ax) = new.run_round_sized_with_extras(&sizes, &extras);
            let (b, bx) = old.run_round_sized_with_extras(&sizes, &extras);
            assert_bit_identical(&a, &b, &format!("sized round={round}"));
            assert_eq!(ax.served, bx.served, "extras served, round={round}");
            assert_eq!(
                ax.time_used.to_bits(),
                bx.time_used.to_bits(),
                "extras time, round={round}"
            );
        }
    }

    #[test]
    fn event_core_matches_legacy_at_steady_shape() {
        // The fleet benchmark's disk batch: 267 stored sizes per 8-s
        // round, where the counting sort takes its two passes over a
        // batch ten times the Figure-1 anchors'.
        let mut cfg = SimConfig::paper_reference().unwrap();
        cfg.round_length = 8.0;
        let mut new = RoundSimulator::with_capacity(cfg.clone(), 267, 275).unwrap();
        let mut old = legacy::LegacySimulator::new(cfg.clone(), 267);
        let mut szrng = rand::rngs::StdRng::seed_from_u64(26);
        for round in 0..200 {
            let sizes: Vec<f64> = (0..267).map(|_| cfg.sizes.sample(&mut szrng)).collect();
            let a = new.run_round_sized(&sizes);
            let b = old.run_round_sized(&sizes);
            assert_bit_identical(&a, &b, &format!("steady round={round}"));
        }
    }

    #[test]
    fn empty_round_is_instant() {
        let mut s = sim(1);
        let out = s.run_round(0);
        assert_eq!(out.service_time, 0.0);
        assert!(!out.late);
        assert!(out.glitched_streams.is_empty());
    }

    #[test]
    fn decomposition_sums_to_service_time() {
        let mut s = sim(2);
        for _ in 0..50 {
            let out = s.run_round(27);
            let sum = out.seek_time + out.rotational_time + out.transfer_time + out.fault_time;
            assert!((out.service_time - sum).abs() < 1e-9);
        }
    }

    #[test]
    fn faulty_decomposition_sums_to_service_time() {
        let mut cfg = SimConfig::paper_reference().unwrap();
        cfg.faults = Some(mzd_fault::FaultConfig::preset("flaky").unwrap());
        let mut s = RoundSimulator::new(cfg, 2).unwrap();
        let mut fault_seen = 0.0;
        for _ in 0..200 {
            let out = s.run_round(27);
            let sum = out.seek_time + out.rotational_time + out.transfer_time + out.fault_time;
            assert!((out.service_time - sum).abs() < 1e-9);
            fault_seen += out.fault_time;
        }
        assert!(fault_seen > 0.0, "flaky preset never injected anything");
    }

    #[test]
    fn zero_fault_injector_is_byte_identical_to_no_injector() {
        let mut plain = sim(21);
        let mut cfg = SimConfig::paper_reference().unwrap();
        cfg.faults = Some(mzd_fault::FaultConfig::default());
        assert!(cfg.faults.as_ref().unwrap().profile.is_clean());
        let mut clean = RoundSimulator::new(cfg, 21).unwrap();
        for _ in 0..100 {
            assert_eq!(plain.run_round(26), clean.run_round(26));
        }
    }

    #[test]
    fn faulty_runs_are_deterministic_for_fixed_seed() {
        let cfg = || {
            let mut c = SimConfig::paper_reference().unwrap();
            c.faults = Some(mzd_fault::FaultConfig::preset("flaky").unwrap());
            c
        };
        let mut a = RoundSimulator::new(cfg(), 33).unwrap();
        let mut b = RoundSimulator::new(cfg(), 33).unwrap();
        for _ in 0..50 {
            assert_eq!(a.run_round(26), b.run_round(26));
        }
    }

    #[test]
    fn media_errors_raise_the_glitch_rate() {
        let glitches = |p_media: f64| {
            let mut cfg = SimConfig::paper_reference().unwrap();
            if p_media > 0.0 {
                cfg.faults = Some(mzd_fault::FaultConfig {
                    profile: mzd_fault::FaultProfile {
                        p_media,
                        ..mzd_fault::FaultProfile::default()
                    },
                    ..mzd_fault::FaultConfig::default()
                });
            }
            let mut s = RoundSimulator::new(cfg, 34).unwrap();
            let mut g = 0usize;
            for _ in 0..2000 {
                g += s.run_round(26).glitched_streams.len();
            }
            g
        };
        let clean = glitches(0.0);
        let faulty = glitches(0.05);
        assert!(
            faulty > clean + 20,
            "5% media errors: {faulty} glitches vs clean {clean}"
        );
    }

    #[test]
    fn unavailability_windows_glitch_whole_rounds() {
        let mut cfg = SimConfig::paper_reference().unwrap();
        cfg.faults = Some(mzd_fault::FaultConfig {
            profile: mzd_fault::FaultProfile {
                p_unavail: 0.05,
                unavail_rounds: 2,
                ..mzd_fault::FaultProfile::default()
            },
            ..mzd_fault::FaultConfig::default()
        });
        let mut s = RoundSimulator::new(cfg, 35).unwrap();
        let n = 10u32;
        let mut whole_round_glitches = 0u32;
        for _ in 0..1000 {
            let out = s.run_round(n);
            // An unavailable round fails every read without stretching
            // the clock: all n streams glitch while the sweep itself
            // stays comfortably inside the deadline.
            if out.glitched_streams.len() == n as usize && !out.late {
                whole_round_glitches += 1;
            }
        }
        assert!(
            whole_round_glitches >= 50,
            "only {whole_round_glitches} unavailable rounds observed"
        );
    }

    #[test]
    fn edge_start_sweep_never_exceeds_oyang_bound() {
        // A monotone sweep starting at the disk edge — the configuration
        // Oyang's bound describes — must stay under the bound.
        let disk = SimConfig::paper_reference().unwrap().disk;
        for n in [1u32, 5, 15, 27, 40] {
            let bound = oyang::seek_bound(disk.seek_curve(), disk.cylinders(), n);
            for seed in 0..100 {
                let mut s = sim(seed); // fresh simulator: arm at cylinder 0
                let out = s.run_round(n);
                assert!(
                    out.seek_time <= bound + 1e-12,
                    "n = {n}, seed = {seed}: sweep seek {} > bound {bound}",
                    out.seek_time
                );
            }
        }
    }

    #[test]
    fn steady_state_sweep_seek_bounded_with_backtrack_slack() {
        // In steady state the elevator's direction reversal can add one
        // backtrack seek at the start of a sweep (the previous sweep ends
        // at its extreme *request*, not at the disk edge). The excess over
        // Oyang's idealized bound is at most one maximum seek, and the
        // *mean* sweep seek stays well below the bound.
        let mut s = sim(3);
        let disk = s.config().disk.clone();
        for n in [1u32, 5, 15, 27, 40] {
            let bound = oyang::seek_bound(disk.seek_curve(), disk.cylinders(), n);
            let slack = disk.seek_curve().max_seek_time(disk.cylinders());
            let mut mean = 0.0;
            let rounds = 300;
            for _ in 0..rounds {
                let out = s.run_round(n);
                assert!(
                    out.seek_time <= bound + slack + 1e-12,
                    "n = {n}: sweep seek {} > bound {bound} + slack {slack}",
                    out.seek_time
                );
                mean += out.seek_time;
            }
            mean /= f64::from(rounds);
            assert!(
                mean <= bound,
                "n = {n}: mean sweep seek {mean} > bound {bound}"
            );
        }
    }

    #[test]
    fn rotational_latencies_average_half_rot() {
        let mut s = sim(4);
        let mut acc = 0.0;
        let rounds = 2000;
        let n = 20u32;
        for _ in 0..rounds {
            acc += s.run_round(n).rotational_time;
        }
        let mean_per_request = acc / f64::from(rounds * n);
        let expected = s.config().disk.rotation_time() / 2.0;
        assert!(
            (mean_per_request / expected - 1.0).abs() < 0.02,
            "mean rot {mean_per_request} vs {expected}"
        );
    }

    #[test]
    fn transfer_time_mean_matches_analytic_moment() {
        let mut s = sim(5);
        let disk = s.config().disk.clone();
        let mut acc = 0.0;
        let rounds = 3000;
        let n = 20u32;
        for _ in 0..rounds {
            acc += s.run_round(n).transfer_time;
        }
        let mean = acc / f64::from(rounds * n);
        let expected = 200_000.0 * disk.inverse_rate_moment(1);
        assert!(
            (mean / expected - 1.0).abs() < 0.02,
            "mean transfer {mean} vs analytic {expected}"
        );
    }

    #[test]
    fn glitched_streams_match_lateness() {
        let mut s = sim(6);
        for _ in 0..200 {
            let out = s.run_round(30);
            if out.late {
                assert!(!out.glitched_streams.is_empty());
            } else {
                assert!(out.glitched_streams.is_empty());
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = sim(42);
        let mut b = sim(42);
        for _ in 0..20 {
            assert_eq!(a.run_round(25), b.run_round(25));
        }
    }

    #[test]
    fn capacity_hint_does_not_change_the_stream() {
        // with_capacity only preallocates: the draw stream and outcomes
        // are identical for any capacity hint, including undersized ones.
        let cfg = SimConfig::paper_reference().unwrap();
        let mut small = RoundSimulator::with_capacity(cfg.clone(), 64, 4).unwrap();
        let mut large = RoundSimulator::with_capacity(cfg, 64, 512).unwrap();
        for round in 0..50 {
            let a = small.run_round(27);
            let b = large.run_round(27);
            assert_bit_identical(&a, &b, &format!("capacity round={round}"));
        }
    }

    #[test]
    fn fcfs_has_higher_mean_service_time_than_scan() {
        let mut scan = sim(7);
        let mut cfg = SimConfig::paper_reference().unwrap();
        cfg.seek_policy = SeekPolicy::Fcfs;
        let mut fcfs = RoundSimulator::new(cfg, 7).unwrap();
        let (mut t_scan, mut t_fcfs) = (0.0, 0.0);
        for _ in 0..1000 {
            t_scan += scan.run_round(27).service_time;
            t_fcfs += fcfs.run_round(27).service_time;
        }
        assert!(
            t_fcfs > t_scan * 1.05,
            "FCFS {t_fcfs} not clearly slower than SCAN {t_scan}"
        );
    }

    #[test]
    fn placement_respects_capacity_weighting() {
        // Outer zones must receive proportionally more requests.
        let mut s = sim(9);
        let disk = s.config().disk.clone();
        let mut counts = vec![0u64; disk.zone_count()];
        for _ in 0..60_000 {
            let (_, zone) = s.place();
            counts[zone] += 1;
        }
        let total: u64 = counts.iter().sum();
        for (z, &c) in counts.iter().enumerate() {
            let expected = disk.zones().zone_probability(z);
            let observed = c as f64 / total as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "zone {z}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    fn sized_round_uses_exactly_the_given_sizes() {
        let mut s = sim(10);
        let disk = s.config().disk.clone();
        // One huge request alone: transfer time must be bytes / zone rate,
        // bounded by the innermost and outermost rates.
        let out = s.run_round_sized(&[10_000_000.0]);
        assert!(out.transfer_time >= 10_000_000.0 / disk.max_rate() - 1e-9);
        assert!(out.transfer_time <= 10_000_000.0 / disk.min_rate() + 1e-9);
        // Size ordering carries through on average.
        let mut small_total = 0.0;
        let mut big_total = 0.0;
        for _ in 0..300 {
            small_total += s.run_round_sized(&[100_000.0; 10]).transfer_time;
            big_total += s.run_round_sized(&[300_000.0; 10]).transfer_time;
        }
        assert!((big_total / small_total - 3.0).abs() < 0.05);
    }

    #[test]
    fn sized_round_glitch_indices_are_stream_slots() {
        let mut s = sim(11);
        // Grossly overload with 100 identical big requests: all glitched
        // indices must be valid slots.
        let sizes = vec![1_000_000.0; 100];
        let out = s.run_round_sized(&sizes);
        assert!(out.late);
        for &g in &out.glitched_streams {
            assert!((g as usize) < sizes.len());
        }
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = SimConfig::paper_reference().unwrap();
        cfg.round_length = 0.0;
        assert!(RoundSimulator::new(cfg, 0).is_err());
    }
}
