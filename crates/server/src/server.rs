//! The server proper: stream lifecycle, per-disk round scheduling, and
//! glitch accounting.
//!
//! [`VideoServer`] owns `D` per-disk round simulators, an admission
//! controller derived from the analytic model, and the active sessions.
//! Each call to [`VideoServer::run_round`] advances global time by one
//! round: every active stream requests its next fragment from the disk
//! the striping layout assigns it, each disk serves its batch in one SCAN
//! sweep, and streams whose requests completed after the deadline record
//! a glitch (§2.3).

use crate::admission::{AdmissionController, AdmissionDecision, QualityTarget};
use crate::buffer::BufferTracker;
use crate::degrade::{
    DegradeSettings, DegradeState, DegradeStatus, DegradeTransition, RUNG_DOWNSHIFT,
    RUNG_DROP_PREFETCH, RUNG_FREEZE_OVER_ADMISSION, RUNG_PAUSE_NEWEST,
};
use crate::slo::{SloSettings, SloState, SloStatus};
use crate::striping::StripingLayout;
use crate::tables::ModelTables;
use crate::ServerError;
use mzd_cache::{CacheConfig, CachePolicy, FragmentCache, FragmentKey, Lookup};
use mzd_core::{GuaranteeModel, ZoneHandling};
use mzd_disk::Disk;
use mzd_fault::FaultConfig;
use mzd_sim::round::{RoundSimulator, SeekPolicy, SimConfig};
use mzd_slo::{Tracer, Transition};
use mzd_workload::{ObjectSpec, SizeDistribution};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Rounds of cache-lookup history the hit-ratio measurement window spans.
const HIT_WINDOW_ROUNDS: usize = 64;
/// Minimum lookups in the window before cache-aware admission trusts the
/// measured hit ratio at all (below this, inflation stays off).
const HIT_WINDOW_MIN_TRIALS: u64 = 256;

/// Global-registry handles cached per server so per-round and
/// per-admission paths skip the registry lock.
#[derive(Debug)]
struct ServerMetrics {
    accepted: mzd_telemetry::Counter,
    rejected: mzd_telemetry::Counter,
    queue_depth: mzd_telemetry::Histogram,
    buffer_occupancy: mzd_telemetry::Gauge,
    cache_hits: mzd_telemetry::Counter,
    cache_misses: mzd_telemetry::Counter,
    cache_delayed_hits: mzd_telemetry::Counter,
    cache_evictions: mzd_telemetry::Counter,
    cache_occupancy: mzd_telemetry::Gauge,
    cache_hit_latency: mzd_telemetry::Histogram,
    round_overrun: mzd_telemetry::Counter,
    prefetch_fetched: mzd_telemetry::Counter,
}

impl ServerMetrics {
    fn new() -> Self {
        let g = mzd_telemetry::global();
        Self {
            accepted: g.counter("server.admission.accepted"),
            rejected: g.counter("server.admission.rejected"),
            queue_depth: g.histogram("server.round.queue_depth"),
            buffer_occupancy: g.gauge("server.buffer.occupancy"),
            cache_hits: g.counter("cache.hits"),
            cache_misses: g.counter("cache.misses"),
            cache_delayed_hits: g.counter("cache.delayed_hits"),
            cache_evictions: g.counter("cache.evictions"),
            cache_occupancy: g.gauge("cache.occupancy_bytes"),
            cache_hit_latency: g.histogram("cache.hit_latency_rounds"),
            round_overrun: g.counter("server.round.overrun"),
            prefetch_fetched: g.counter("server.prefetch.fetched"),
        }
    }
}

/// Fragment-cache settings of a server.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheSettings {
    /// Cache byte budget. `0` disables the cache entirely — the server
    /// takes the exact cacheless code path, so a seeded run with a
    /// zero-byte cache is byte-identical to one with no cache configured.
    pub capacity_bytes: f64,
    /// Replacement policy.
    pub policy: CachePolicy,
    /// `Some(safety)` additionally enables cache-aware admission: the
    /// per-disk limit inflates to `N_max / (1 − h·(1−safety))`, `h` a
    /// conservative lower confidence bound on the measured disk-avoidance
    /// ratio over a 64-round sliding window. Needs a positive byte
    /// budget.
    pub admission_safety: Option<f64>,
}

impl CacheSettings {
    /// LRU cache of the given size, without cache-aware admission.
    #[must_use]
    pub fn lru(capacity_bytes: f64) -> Self {
        Self {
            capacity_bytes,
            policy: CachePolicy::Lru,
            admission_safety: None,
        }
    }
}

/// A cache setting a server refuses (see [`ServerConfig::check_cache`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheMisconfig {
    /// The byte budget is not a finite number of at least 0.
    Budget(f64),
    /// The cache-aware admission safety lies outside `[0, 1]`.
    Safety(f64),
    /// Cache-aware admission without a positive byte budget.
    SafetyWithoutCache,
    /// Work-ahead prefetch without a positive byte budget.
    WorkAheadWithoutCache,
}

impl std::fmt::Display for CacheMisconfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Budget(b) => write!(f, "the cache byte budget must be finite and >= 0, got {b}"),
            Self::Safety(s) => write!(f, "the admission safety must be in [0, 1], got {s}"),
            Self::SafetyWithoutCache => {
                write!(
                    f,
                    "cache-aware admission needs a positive cache byte budget"
                )
            }
            Self::WorkAheadWithoutCache => {
                write!(f, "work-ahead prefetch needs a positive cache byte budget")
            }
        }
    }
}

/// Server-wide configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// The (homogeneous) disk model used by every spindle.
    pub disk: Disk,
    /// Number of disks `D`.
    pub disks: u32,
    /// Round length `t`, seconds.
    pub round_length: f64,
    /// The admission quality target.
    pub target: QualityTarget,
    /// Fragment-size moments fed to the admission model (the "workload
    /// statistics" of §2.3 — e.g. [`mzd_workload::ObjectCatalog::pooled_moments`]).
    pub admission_size_mean: f64,
    /// Fragment-size variance for the admission model.
    pub admission_size_variance: f64,
    /// Optional fragment cache in front of the disks. `None` (and
    /// `Some` with a zero byte budget) run the server cacheless.
    pub cache: Option<CacheSettings>,
    /// Optional fault injection on the disks. `FaultConfig::only_disk`
    /// restricts the injector to one spindle (degrading-disk drills);
    /// other disks run clean. `None` runs all disks fault-free.
    pub faults: Option<FaultConfig>,
    /// Work-ahead prefetch depth in fragments (0 = off). Needs a cache:
    /// each disk uses its post-sweep slack to pull up to this many
    /// upcoming fragments per stream into the cache, best-effort.
    /// Dropped at degradation rung 2+.
    pub work_ahead: u32,
    /// Optional graceful-degradation ladder, driven by the SLO layer's
    /// fast-burn alert. A server built with a ladder attaches that layer
    /// itself ([`SloSettings::for_target`] of [`Self::target`], tracing
    /// off); [`VideoServer::enable_slo`] replaces it.
    pub degrade: Option<DegradeSettings>,
}

impl ServerConfig {
    /// The paper's reference server: `disks` Quantum Viking 2.1 spindles,
    /// 1-second rounds, Gamma(200 KB, (100 KB)²) workload statistics, and
    /// the per-stream glitch-rate target (M = 1200, g = 12, ε = 1%).
    ///
    /// # Errors
    /// [`ServerError::Invalid`] for zero disks.
    pub fn paper_reference(disks: u32) -> Result<Self, ServerError> {
        if disks == 0 {
            return Err(ServerError::Invalid(
                "a server needs at least one disk".into(),
            ));
        }
        let disk = mzd_disk::profiles::quantum_viking_2_1()
            .build()
            .map_err(|e| ServerError::Invalid(e.to_string()))?;
        Ok(Self {
            disk,
            disks,
            round_length: 1.0,
            target: QualityTarget {
                m: 1200,
                g: 12,
                epsilon: 0.01,
            },
            admission_size_mean: 200_000.0,
            admission_size_variance: 1e10,
            cache: None,
            faults: None,
            work_ahead: 0,
            degrade: None,
        })
    }

    /// Check the cache settings whatever the budget: the budget is
    /// finite and at least 0, the admission safety lies in `[0, 1]`,
    /// and cache-aware admission or work-ahead needs a positive budget.
    /// A zero budget alone is the cacheless path.
    ///
    /// # Errors
    /// The first [`CacheMisconfig`] found.
    pub fn check_cache(&self) -> Result<(), CacheMisconfig> {
        let (bytes, safety) = self
            .cache
            .as_ref()
            .map_or((0.0, None), |c| (c.capacity_bytes, c.admission_safety));
        if !(bytes.is_finite() && bytes >= 0.0) {
            return Err(CacheMisconfig::Budget(bytes));
        }
        if let Some(s) = safety {
            if !(0.0..=1.0).contains(&s) {
                return Err(CacheMisconfig::Safety(s));
            }
            if bytes == 0.0 {
                return Err(CacheMisconfig::SafetyWithoutCache);
            }
        }
        if self.work_ahead > 0 && bytes == 0.0 {
            return Err(CacheMisconfig::WorkAheadWithoutCache);
        }
        Ok(())
    }

    /// Build the analytic model this configuration implies.
    ///
    /// # Errors
    /// Propagates model-construction errors.
    pub fn model(&self) -> Result<GuaranteeModel, ServerError> {
        Ok(GuaranteeModel::new(
            self.disk.clone(),
            self.admission_size_mean,
            self.admission_size_variance,
            ZoneHandling::Discrete,
        )?)
    }
}

/// Opaque handle to an admitted stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamHandle(u64);

impl StreamHandle {
    /// The raw stream id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.0
    }
}

/// An active session.
#[derive(Debug)]
struct Session {
    id: u64,
    object: ObjectSpec,
    fragments_consumed: u32,
    start_disk: u32,
    /// The disk of fragment `fragments_consumed`: set to `start_disk`
    /// at admission and stepped by [`StripingLayout::next_disk`] as the
    /// stream advances.
    disk: u32,
    glitches: u64,
    buffer: BufferTracker,
    /// Streams the degradation ladder shed at rung 4 hold their
    /// admission reservation but request no fragments, and resume from
    /// where they stopped when the ladder recovers.
    paused: bool,
    /// Degradable streams accept a reduced fragment size at degradation
    /// rung 3+ (a lower-bitrate rendition).
    degradable: bool,
}

/// A point-in-time view of one active session, carrying everything
/// needed to migrate the stream to another server: the object, play-out
/// progress, and the glitches already charged to it.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveStreamInfo {
    /// The stream's handle on this server.
    pub handle: StreamHandle,
    /// The object being played out.
    pub object: ObjectSpec,
    /// Fragments consumed so far (the resume point).
    pub fragments_consumed: u32,
    /// Glitches suffered so far on this server.
    pub glitches: u64,
    /// Whether the degradation ladder has shed (paused) the stream.
    pub paused: bool,
}

/// A finished (played-out or cancelled) stream's record.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedStream {
    /// Stream id.
    pub id: u64,
    /// Object name.
    pub object: String,
    /// Rounds actually played.
    pub rounds_played: u32,
    /// Glitches suffered.
    pub glitches: u64,
    /// Client buffer high-water mark, bytes.
    pub buffer_high_water: f64,
}

/// Report for one global round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// 0-based round index.
    pub round: u64,
    /// Per-disk summaries, carrying the full phase decomposition
    /// (`seek + rotational + transfer + fault == service_time`
    /// exactly — the invariant `mzd postmortem` audits).
    pub disks: Vec<mzd_prof::DiskPhases>,
    /// Stream ids that glitched this round.
    pub glitched_streams: Vec<u64>,
    /// Records of the streams that finished play-out this round, in
    /// retirement order. The server keeps no copy.
    pub completed_streams: Vec<CompletedStream>,
}

/// What a round's stages hand each other: the counts the SLO, degrade,
/// cache and recorder stages read, and the glitched ids the report
/// carries.
#[derive(Debug, Default)]
struct RoundTally {
    /// Logical time of the round, microseconds (the tracer's clock).
    trace_ts: u64,
    /// Ladder rung at round entry.
    rung: u8,
    /// Unpaused streams served this round.
    stream_rounds: u64,
    hits: u64,
    delayed_hits: u64,
    misses: u64,
    /// Requests served at the reduced rendition (rung 3+).
    downshifts: u64,
    /// Cache evictions before the round's fills.
    evictions_before: u64,
    /// Ids of the streams that glitched, in sweep order.
    glitched: Vec<u64>,
}

/// Per-round working buffers, cleared and refilled every round so a
/// steady-state round reuses their allocations.
#[derive(Debug, Default)]
struct RoundScratch {
    /// Per-disk session indices of the round's disk batch.
    batch: Vec<Vec<usize>>,
    /// Per-disk fragment sizes, slot-aligned with `batch`.
    sizes: Vec<Vec<f64>>,
    /// Per-disk cache key each batch slot fetches (None for uncached
    /// requests), slot-aligned with `batch`.
    keys: Vec<Vec<Option<FragmentKey>>>,
    /// Per-disk work-ahead fragments offered to the sweep's slack.
    prefetch_sizes: Vec<Vec<f64>>,
    prefetch_keys: Vec<Vec<FragmentKey>>,
    /// Work-ahead keys already planned this round.
    prefetch_planned: HashSet<FragmentKey>,
    /// Sessions waiting on another stream's in-flight fetch, by fetched
    /// key. Filled by the partition stage and fully drained by the
    /// sweep; never iterated, so map order cannot affect behavior.
    waiters: HashMap<FragmentKey, Vec<usize>>,
}

impl RoundScratch {
    fn new(disks: usize) -> Self {
        Self {
            batch: vec![Vec::new(); disks],
            sizes: vec![Vec::new(); disks],
            keys: vec![Vec::new(); disks],
            prefetch_sizes: vec![Vec::new(); disks],
            prefetch_keys: vec![Vec::new(); disks],
            ..Self::default()
        }
    }

    fn clear(&mut self) {
        for d in 0..self.batch.len() {
            self.batch[d].clear();
            self.sizes[d].clear();
            self.keys[d].clear();
            self.prefetch_sizes[d].clear();
            self.prefetch_keys[d].clear();
        }
        self.prefetch_planned.clear();
        self.waiters.clear();
    }
}

/// The continuous-media server.
#[derive(Debug)]
pub struct VideoServer {
    cfg: ServerConfig,
    layout: StripingLayout,
    /// The solved model behind admission and SLO conformance, shared
    /// with every fleet peer on the same configuration.
    tables: Arc<ModelTables>,
    admission: AdmissionController,
    disks: Vec<RoundSimulator>,
    sessions: Vec<Session>,
    rng: StdRng,
    next_id: u64,
    rounds_run: u64,
    rejected: u64,
    /// Incremental per-disk active-stream counts, kept in lockstep with
    /// session open/close/advance so admission probes and batching never
    /// rescan the session list.
    load: Vec<u32>,
    /// Fragment cache in front of the disks (None = cacheless path).
    cache: Option<FragmentCache>,
    /// Sliding window of per-round `(lookups, disk visits avoided)` used
    /// to measure the hit ratio for cache-aware admission.
    hit_window: VecDeque<(u64, u64)>,
    scratch: RoundScratch,
    metrics: ServerMetrics,
    /// Optional SLO layer: burn alerting, conformance, tracing.
    slo: Option<SloState>,
    /// Optional graceful-degradation ladder.
    degrade: Option<DegradeState>,
    /// Streams paused by the ladder's rung-4 shed, to resume on recovery.
    shed_by_degrade: Vec<u64>,
    /// Optional flight recorder: retains a ring of per-round snapshots
    /// and dumps a post-mortem bundle on alert/escalation/overrun.
    recorder: Option<mzd_prof::Recorder>,
}

impl VideoServer {
    /// Bring up a server: solves the analytic model for its own
    /// [`ModelTables`] (the admission limit) and initializes one round
    /// simulator per disk.
    ///
    /// # Errors
    /// Propagates configuration and model errors.
    pub fn new(cfg: ServerConfig, seed: u64) -> Result<Self, ServerError> {
        let tables = ModelTables::for_config(&cfg)?;
        let limit = tables.per_disk_limit();
        Self::build(cfg, seed, Arc::new(tables), limit)
    }

    /// [`Self::new`] on tables already solved for this configuration,
    /// admitting at most `per_disk_limit` streams per disk before any
    /// cache-aware inflation — how a fleet's nodes share one admission
    /// solve and one set of predicted-CDF tables, each enforcing the
    /// fleet's composed cap itself.
    ///
    /// # Errors
    /// [`ServerError::Invalid`] if `tables` were solved for a different
    /// model, round length or target, or `per_disk_limit` is 0 or above
    /// the tables' limit; otherwise as [`Self::new`].
    pub fn with_tables(
        cfg: ServerConfig,
        seed: u64,
        tables: Arc<ModelTables>,
        per_disk_limit: u32,
    ) -> Result<Self, ServerError> {
        if !tables.fits(&cfg)? {
            return Err(ServerError::Invalid(
                "model tables were solved for a different model, round length or target".into(),
            ));
        }
        if per_disk_limit == 0 || per_disk_limit > tables.per_disk_limit() {
            return Err(ServerError::Invalid(format!(
                "per-disk limit {per_disk_limit} outside 1..={}",
                tables.per_disk_limit()
            )));
        }
        Self::build(cfg, seed, tables, per_disk_limit)
    }

    fn build(
        cfg: ServerConfig,
        seed: u64,
        tables: Arc<ModelTables>,
        per_disk_limit: u32,
    ) -> Result<Self, ServerError> {
        let layout = StripingLayout::new(cfg.disks)?;
        cfg.check_cache()
            .map_err(|e| ServerError::Invalid(e.to_string()))?;
        let mut admission = AdmissionController::with_limit(per_disk_limit);
        let cache = match &cfg.cache {
            Some(settings) if settings.capacity_bytes > 0.0 => Some(
                FragmentCache::new(CacheConfig {
                    capacity_bytes: settings.capacity_bytes,
                    policy: settings.policy,
                })
                .map_err(|e| ServerError::Invalid(e.to_string()))?,
            ),
            _ => None,
        };
        if let Some(safety) = cfg.cache.as_ref().and_then(|s| s.admission_safety) {
            admission.enable_cache_aware(safety)?;
        }
        if let Some(fc) = &cfg.faults {
            fc.validate()
                .map_err(|e| ServerError::Invalid(e.to_string()))?;
            if let Some(d) = fc.only_disk {
                if d >= cfg.disks {
                    return Err(ServerError::Invalid(format!(
                        "fault only_disk {d} out of range for {} disks",
                        cfg.disks
                    )));
                }
            }
        }
        let degrade = cfg.degrade.map(DegradeState::new).transpose()?;
        let sim_cfg = SimConfig {
            disk: cfg.disk.clone(),
            sizes: SizeDistribution::gamma(cfg.admission_size_mean, cfg.admission_size_variance)
                .map_err(|e| ServerError::Invalid(e.to_string()))?,
            round_length: cfg.round_length,
            seek_policy: SeekPolicy::Scan,
            placement: mzd_disk::PlacementPolicy::UniformByCapacity,
            faults: None,
        };
        // Preallocate each simulator's round state for the admission cap
        // (plus headroom for cache-aware over-admission), so steady-state
        // rounds do zero allocations in the event core.
        let round_capacity = admission
            .effective_per_disk_limit()
            .max(admission.per_disk_limit()) as usize
            + 8;
        let disks = (0..cfg.disks)
            .map(|d| {
                let mut sc = sim_cfg.clone();
                // `only_disk` scopes the injector to one spindle; the
                // others run clean (byte-identical to a fault-free disk).
                sc.faults = cfg
                    .faults
                    .as_ref()
                    .filter(|fc| fc.only_disk.map_or(true, |k| k == d))
                    .cloned();
                RoundSimulator::with_capacity(
                    sc,
                    seed.wrapping_add(u64::from(d) + 1),
                    round_capacity,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let disk_count = cfg.disks as usize;
        let mut server = Self {
            cfg,
            layout,
            tables,
            admission,
            disks,
            sessions: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
            rounds_run: 0,
            rejected: 0,
            load: vec![0; disk_count],
            cache,
            hit_window: VecDeque::with_capacity(HIT_WINDOW_ROUNDS + 1),
            scratch: RoundScratch::new(disk_count),
            metrics: ServerMetrics::new(),
            slo: None,
            degrade,
            shed_by_degrade: Vec::new(),
            recorder: None,
        };
        if server.cfg.degrade.is_some() {
            // The ladder escalates on the SLO layer's fast-burn alert, so
            // a server with a ladder brings its burn signal with it.
            server.enable_slo(SloSettings::for_target(server.cfg.target))?;
        }
        Ok(server)
    }

    /// Attach a flight recorder. Every subsequent round pushes one
    /// [`mzd_prof::RoundSnapshot`] into its ring; an SLO fast-burn alert,
    /// a degradation-ladder escalation, or a round overrun triggers a
    /// post-mortem bundle dump (deduplicated per trigger kind by the
    /// recorder itself). Replaces any previously attached recorder.
    pub fn attach_recorder(&mut self, recorder: mzd_prof::Recorder) {
        self.recorder = Some(recorder);
    }

    /// The attached flight recorder, `None` until
    /// [`Self::attach_recorder`].
    #[must_use]
    pub fn recorder(&self) -> Option<&mzd_prof::Recorder> {
        self.recorder.as_ref()
    }

    /// Attach the SLO layer: a burn-rate engine over the admitted glitch
    /// budget, online model-conformance checking, and optional causal
    /// tracing. Replaces any previously attached SLO state, including
    /// the one a server with a degradation ladder starts with.
    ///
    /// # Errors
    /// [`ServerError::Invalid`] for a degenerate burn configuration.
    pub fn enable_slo(&mut self, settings: SloSettings) -> Result<(), ServerError> {
        self.slo = Some(SloState::new(settings)?);
        Ok(())
    }

    /// A point-in-time SLO summary, `None` until [`Self::enable_slo`].
    #[must_use]
    pub fn slo_status(&self) -> Option<SloStatus> {
        self.slo
            .as_ref()
            .map(|s| s.status(self.admission.over_admission_frozen()))
    }

    /// Rebase this server's span-id allocation (see
    /// [`Tracer::set_span_base`]). A cluster assigns each node a
    /// disjoint id range so stitched fleet traces keep every
    /// parent/span edge unambiguous. No-op unless tracing is enabled;
    /// call before any stream opens.
    pub fn set_trace_span_base(&mut self, base: u64) {
        if let Some(tracer) = self.slo.as_mut().and_then(|s| s.tracer.as_mut()) {
            tracer.set_span_base(base);
        }
    }

    /// The span tracer, `None` unless tracing is enabled — what a fleet
    /// hands [`mzd_slo::render_chrome_json`] to stitch per-node traces
    /// into one file.
    #[must_use]
    pub fn tracer(&self) -> Option<&Tracer> {
        self.slo.as_ref()?.tracer.as_ref()
    }

    /// Spans dropped after the tracer's capacity was reached (0 when
    /// tracing is off).
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.slo
            .as_ref()
            .and_then(|s| s.tracer.as_ref())
            .map_or(0, Tracer::dropped)
    }

    /// Logical time of the round about to run, in microseconds (round
    /// index × round length) — the tracer's clock.
    fn trace_now_us(&self) -> u64 {
        (self.rounds_run as f64 * self.cfg.round_length * 1e6) as u64
    }

    /// The solved model in effect, shared with fleet peers built on the
    /// same tables.
    #[must_use]
    pub fn tables(&self) -> &Arc<ModelTables> {
        &self.tables
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The admission controller in effect.
    #[must_use]
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Number of active streams.
    #[must_use]
    pub fn active_streams(&self) -> usize {
        self.sessions.len()
    }

    /// Rounds run so far.
    #[must_use]
    pub fn rounds_run(&self) -> u64 {
        self.rounds_run
    }

    /// Streams rejected by admission control so far.
    #[must_use]
    pub fn rejected_streams(&self) -> u64 {
        self.rejected
    }

    /// Snapshots of every active session, sorted by stream id (admission
    /// order) — the evacuation manifest a cluster layer reads before
    /// migrating this node's streams elsewhere.
    #[must_use]
    pub fn active_session_info(&self) -> Vec<ActiveStreamInfo> {
        let mut info: Vec<ActiveStreamInfo> = self
            .sessions
            .iter()
            .map(|s| ActiveStreamInfo {
                handle: StreamHandle(s.id),
                object: s.object.clone(),
                fragments_consumed: s.fragments_consumed,
                glitches: s.glitches,
                paused: s.paused,
            })
            .collect();
        info.sort_by_key(|s| s.handle.id());
        info
    }

    /// The fragment cache, if one is configured and enabled.
    #[must_use]
    pub fn cache(&self) -> Option<&FragmentCache> {
        self.cache.as_ref()
    }

    /// Per-disk active stream counts *for the next round* (each session is
    /// pinned to one disk per round by the striping rotation). Paused
    /// sessions are counted: they hold their admission reservation so
    /// resumption is always possible without re-admission.
    ///
    /// O(1) and allocation-free: the counts are maintained incrementally
    /// on every open, close, queue drain and round advance rather than
    /// rescanned per call.
    #[must_use]
    pub fn per_disk_load(&self) -> &[u32] {
        debug_assert!(
            self.load_matches_sessions(),
            "incremental per-disk load out of sync with sessions"
        );
        &self.load
    }

    /// Reference recount of the load vector by scanning sessions — the
    /// pre-incremental definition, retained to cross-check the
    /// incremental counts and every session's disk cursor in debug
    /// builds and tests. One pass per disk, so the check allocates
    /// nothing either.
    fn load_matches_sessions(&self) -> bool {
        let cursors_hold = self.sessions.iter().all(|s| {
            s.disk
                == self
                    .layout
                    .disk_of_fragment(s.start_disk, s.fragments_consumed)
        });
        cursors_hold
            && self.load.iter().enumerate().all(|(d, &load)| {
                let counted = self
                    .sessions
                    .iter()
                    .filter(|s| s.disk as usize == d)
                    .count();
                counted == load as usize
            })
    }

    /// Open session `id` on `object`. The caller has already consulted
    /// the admission controller.
    fn admit(
        &mut self,
        id: u64,
        object: ObjectSpec,
        root: Option<mzd_telemetry::SpanContext>,
    ) -> StreamHandle {
        // Start on the least-loaded disk to keep the rotation balanced.
        let start = self
            .load
            .iter()
            .enumerate()
            .min_by_key(|&(_, &l)| l)
            .map_or(0, |(d, _)| d as u32);
        self.load[start as usize] += 1;
        if let (Some(cache), Some(cid)) = (self.cache.as_mut(), object.content_id) {
            cache.update_reader(id, cid, 0);
        }
        self.sessions.push(Session {
            id,
            object,
            fragments_consumed: 0,
            start_disk: start,
            disk: start,
            glitches: 0,
            buffer: BufferTracker::new(),
            paused: false,
            degradable: false,
        });
        self.metrics.accepted.inc();
        let ts = self.trace_now_us();
        if let Some(slo) = self.slo.as_mut() {
            if let Some(root) = root {
                slo.adopt_root(id, root);
            }
            slo.record_stream_span(
                id,
                "admit",
                "admission",
                ts,
                1,
                &[("disk", u64::from(start))],
            );
        }
        if mzd_telemetry::events_enabled() {
            mzd_telemetry::emit(
                mzd_telemetry::Event::new("server.admission")
                    .str("decision", "accept")
                    .u64("stream", id)
                    .u64("disk", u64::from(start)),
            );
        }
        StreamHandle(id)
    }

    /// Retire session `idx`, whose reservation sits on `disk` — the one
    /// retirement path behind [`Self::close_stream`] and the round's
    /// advance stage. Releases the reservation, the cache reader and the
    /// trace root, and returns the stream's record.
    fn retire(&mut self, idx: usize, disk: usize) -> CompletedStream {
        let s = self.sessions.swap_remove(idx);
        self.load[disk] -= 1;
        if let (Some(cache), Some(_)) = (self.cache.as_mut(), s.object.content_id) {
            cache.remove_reader(s.id);
        }
        if let Some(slo) = self.slo.as_mut() {
            slo.forget_stream(s.id);
        }
        CompletedStream {
            id: s.id,
            object: s.object.name,
            rounds_played: s.fragments_consumed,
            glitches: s.glitches,
            buffer_high_water: s.buffer.high_water(),
        }
    }

    /// Try to open a stream on `object`. Admission is stochastic-guarantee
    /// driven: the request is rejected if any disk would exceed the
    /// precomputed per-disk limit.
    ///
    /// # Errors
    /// The controller's [`AdmissionDecision::Reject`] when the server is
    /// at its limit.
    pub fn open_stream(&mut self, object: ObjectSpec) -> Result<StreamHandle, AdmissionDecision> {
        self.try_open(object, None)
    }

    /// Open `object` if the controller admits it, adopting `root` as the
    /// new stream's trace root when given.
    fn try_open(
        &mut self,
        object: ObjectSpec,
        root: Option<mzd_telemetry::SpanContext>,
    ) -> Result<StreamHandle, AdmissionDecision> {
        // The rotation visits every disk, so the binding constraint is the
        // most loaded disk — checked by the controller.
        match self.admission.decide(&self.load) {
            AdmissionDecision::Admit => {
                let id = self.next_id;
                self.next_id += 1;
                Ok(self.admit(id, object, root))
            }
            reject @ AdmissionDecision::Reject { .. } => {
                self.rejected += 1;
                self.metrics.rejected.inc();
                if mzd_telemetry::events_enabled() {
                    mzd_telemetry::emit(
                        mzd_telemetry::Event::new("server.admission")
                            .str("decision", "reject")
                            .u64("active", self.sessions.len() as u64),
                    );
                }
                Err(reject)
            }
        }
    }

    /// [`Self::open_stream`] under an externally minted root span
    /// context: the admission span and every subsequent round span of
    /// the new stream hang off `root` instead of a locally created
    /// root. This is the cluster's trace-stitching entry point — the
    /// dispatcher mints one root per stream at submission and threads
    /// it through queue, lease and migration onto whichever node
    /// finally admits, so a migrated stream renders as one causal
    /// chain. Behaves exactly like `open_stream` when tracing is off.
    ///
    /// # Errors
    /// The admission rejection, exactly as [`Self::open_stream`].
    pub fn open_stream_with_root(
        &mut self,
        object: ObjectSpec,
        root: mzd_telemetry::SpanContext,
    ) -> Result<StreamHandle, AdmissionDecision> {
        self.try_open(object, Some(root))
    }

    /// Close a stream before it finishes (client hang-up), returning
    /// its record.
    ///
    /// # Errors
    /// [`ServerError::UnknownStream`] if the handle is not active.
    pub fn close_stream(&mut self, handle: StreamHandle) -> Result<CompletedStream, ServerError> {
        let idx = self.session_index(handle)?;
        let disk = self.sessions[idx].disk as usize;
        Ok(self.retire(idx, disk))
    }

    /// Glitches suffered so far by an active stream.
    ///
    /// # Errors
    /// [`ServerError::UnknownStream`] if the handle is not active.
    pub fn stream_glitches(&self, handle: StreamHandle) -> Result<u64, ServerError> {
        Ok(self.sessions[self.session_index(handle)?].glitches)
    }

    /// Index of the active session behind `handle`.
    fn session_index(&self, handle: StreamHandle) -> Result<usize, ServerError> {
        self.sessions
            .iter()
            .position(|s| s.id == handle.0)
            .ok_or(ServerError::UnknownStream(handle.0))
    }

    /// Mark a stream degradable: at degradation rung 3+ it is served a
    /// reduced fragment size ([`DegradeSettings::downshift_factor`])
    /// instead of glitching — a lower-bitrate rendition the client opted
    /// into. Idempotent.
    ///
    /// # Errors
    /// [`ServerError::UnknownStream`] if the handle is not active.
    pub fn mark_degradable(&mut self, handle: StreamHandle) -> Result<(), ServerError> {
        let i = self.session_index(handle)?;
        self.sessions[i].degradable = true;
        Ok(())
    }

    /// Point-in-time summary of the degradation ladder, `None` when no
    /// ladder is configured.
    #[must_use]
    pub fn degrade_status(&self) -> Option<DegradeStatus> {
        self.degrade.as_ref().map(|d| DegradeStatus {
            rung: d.rung(),
            escalations: d.escalations(),
            recoveries: d.recoveries(),
            shed_streams: self.shed_by_degrade.len() as u64,
        })
    }

    /// Advance one global round: serve every active stream's next fragment
    /// — from the cache when it is resident or already being fetched,
    /// from the assigned disk otherwise — account glitches and buffers,
    /// retire finished streams.
    ///
    /// The round is six stages in a fixed order, each under its own
    /// profile phase beneath `server.round`: partition, sweep, slo,
    /// degrade, advance, cache.
    pub fn run_round(&mut self) -> RoundReport {
        let _phase = mzd_prof::phase("server.round");
        let mut tally = self.partition_stage();
        let disks = self.sweep_stage(&mut tally);
        let alert_raised = self.slo_stage(&tally, &disks);
        let escalated = self.degrade_stage(tally.downshifts);
        let completed_streams = self.advance_stage();
        self.cache_stage(&tally);

        self.rounds_run += 1;
        let report = RoundReport {
            round: self.rounds_run - 1,
            disks,
            glitched_streams: std::mem::take(&mut tally.glitched),
            completed_streams,
        };
        self.publish_round(&report, &tally, alert_raised, escalated);
        report
    }

    /// Partition stage: put every unpaused session's next fragment in
    /// its disk's batch, consulting the cache first — hits skip disk
    /// service entirely, delayed hits coalesce onto the in-flight fetch
    /// of an earlier stream, misses go to disk and fill the cache on
    /// completion — then plan the round's work-ahead prefetch.
    fn partition_stage(&mut self) -> RoundTally {
        let _phase = mzd_prof::phase("partition");
        self.scratch.clear();
        let (rung, downshift_factor) = self
            .degrade
            .as_ref()
            .map_or((0, 1.0), |d| (d.rung(), d.settings.downshift_factor));
        let mut tally = RoundTally {
            trace_ts: self.trace_now_us(),
            rung,
            evictions_before: self.cache.as_ref().map_or(0, |c| c.stats().evictions),
            ..RoundTally::default()
        };
        let round_us = (self.cfg.round_length * 1e6) as u64;
        for (i, s) in self.sessions.iter_mut().enumerate() {
            if s.paused {
                continue;
            }
            tally.stream_rounds += 1;
            let frag = s.fragments_consumed;
            let d = s.disk as usize;
            // Stored objects have one fixed size per fragment (shared by
            // every reader — the precondition for caching); i.i.d.
            // objects re-draw per round exactly as before.
            let mut size = match s.object.stored_fragment_size(frag) {
                Some(stored) => stored,
                None => s.object.sizes.sample(&mut self.rng),
            };
            // Rung 3+: degradable streams accept a reduced rendition
            // instead of risking glitches at the full rate.
            if rung >= RUNG_DOWNSHIFT && s.degradable {
                tally.downshifts += 1;
                size *= downshift_factor;
            }
            let mut fetch_key = None;
            let mut serve_from_disk = true;
            let mut disposition = "disk.read";
            if let (Some(cache), Some(cid)) = (self.cache.as_mut(), s.object.content_id) {
                cache.update_reader(s.id, cid, frag);
                let key = FragmentKey {
                    object: cid,
                    fragment: frag,
                };
                match cache.lookup(key) {
                    Lookup::Hit => {
                        tally.hits += 1;
                        self.metrics.cache_hit_latency.record(0.0);
                        s.buffer.deliver(size);
                        serve_from_disk = false;
                        disposition = "cache.hit";
                    }
                    Lookup::DelayedHit => {
                        tally.delayed_hits += 1;
                        self.scratch.waiters.entry(key).or_default().push(i);
                        serve_from_disk = false;
                        disposition = "cache.delayed_hit";
                    }
                    Lookup::Miss => {
                        tally.misses += 1;
                        cache.begin_fetch(key);
                        fetch_key = Some(key);
                        disposition = "disk.fetch";
                    }
                }
            }
            if serve_from_disk {
                self.scratch.batch[d].push(i);
                self.scratch.sizes[d].push(size);
                self.scratch.keys[d].push(fetch_key);
            }
            if let Some(slo) = self.slo.as_mut() {
                // One causal chain per stream per round: the round span
                // under the stream root, the disposition under the round.
                if let Some(round_ctx) = slo.record_stream_span(
                    s.id,
                    "stream.round",
                    "stream",
                    tally.trace_ts,
                    round_us,
                    &[
                        ("round", self.rounds_run),
                        ("disk", d as u64),
                        ("fragment", u64::from(frag)),
                    ],
                ) {
                    let cat = if serve_from_disk { "disk" } else { "cache" };
                    let dur = if serve_from_disk { round_us } else { 1 };
                    slo.record_under(
                        round_ctx,
                        disposition,
                        cat,
                        1,
                        s.id,
                        tally.trace_ts,
                        dur,
                        &[],
                    );
                }
            }
        }
        self.plan_work_ahead(rung);
        tally
    }

    /// Work-ahead prefetch: upcoming fragments of cached stored objects
    /// ride each disk's post-sweep slack, best-effort (the mandatory
    /// batch keeps priority). Dropped at degradation rung 2+ — slack
    /// work is the cheapest load to shed.
    fn plan_work_ahead(&mut self, rung: u8) {
        let enabled = self.cfg.work_ahead > 0 && rung < RUNG_DROP_PREFETCH;
        let Some(cache) = self.cache.as_ref().filter(|_| enabled) else {
            return;
        };
        let scratch = &mut self.scratch;
        for s in self.sessions.iter().filter(|s| !s.paused) {
            let Some(cid) = s.object.content_id else {
                continue;
            };
            for look in 1..=self.cfg.work_ahead {
                let frag = s.fragments_consumed + look;
                if frag >= s.object.rounds {
                    break;
                }
                let Some(bytes) = s.object.stored_fragment_size(frag) else {
                    break;
                };
                let key = FragmentKey {
                    object: cid,
                    fragment: frag,
                };
                if cache.contains(key)
                    || cache.fetch_in_flight(key)
                    || !scratch.prefetch_planned.insert(key)
                {
                    continue;
                }
                let d = self.layout.disk_of_fragment(s.start_disk, frag) as usize;
                scratch.prefetch_sizes[d].push(bytes);
                scratch.prefetch_keys[d].push(key);
            }
        }
    }

    /// Sweep stage: each disk serves its batch, plus whatever work-ahead
    /// fits in its slack, in one SCAN sweep (§2.3). Late requests glitch
    /// their stream and every stream coalesced onto them; completed
    /// fetches fill the cache and release their coalesced waiters.
    fn sweep_stage(&mut self, tally: &mut RoundTally) -> Vec<mzd_prof::DiskPhases> {
        let _phase = mzd_prof::phase("sweep");
        // Expected rotational + transfer time a cached copy of one
        // fragment saves the disk per hit — the cost-aware policy's rank.
        let rot_half = self.cfg.disk.rotation_time() / 2.0;
        let inv_rate = self.cfg.disk.inverse_rate_moment(1);
        let scratch = &mut self.scratch;
        let mut disks = Vec::with_capacity(self.disks.len());
        for (d, sim) in self.disks.iter_mut().enumerate() {
            let (batch, sizes, keys) = (&scratch.batch[d], &scratch.sizes[d], &scratch.keys[d]);
            self.metrics.queue_depth.record(sizes.len() as f64);
            let (out, prefetched) =
                sim.run_round_sized_with_extras(sizes, &scratch.prefetch_sizes[d]);
            if out.late {
                self.metrics.round_overrun.inc();
                if mzd_telemetry::events_enabled() {
                    mzd_telemetry::emit(
                        mzd_telemetry::Event::new("server.round.overrun")
                            .u64("round", self.rounds_run)
                            .u64("disk", d as u64)
                            .f64("overrun", out.service_time - self.cfg.round_length)
                            .u64("requests", sizes.len() as u64),
                    );
                }
            }
            if prefetched.served > 0 {
                if let Some(cache) = self.cache.as_mut() {
                    let planned = scratch.prefetch_keys[d]
                        .iter()
                        .zip(&scratch.prefetch_sizes[d]);
                    for (&key, &bytes) in planned.take(prefetched.served) {
                        cache.insert(key, bytes, rot_half + bytes * inv_rate);
                    }
                }
                self.metrics.prefetch_fetched.add(prefetched.served as u64);
            }
            if let Some(slo) = self.slo.as_mut() {
                slo.record_disk_span(
                    d as u64,
                    "disk.sweep",
                    tally.trace_ts,
                    (out.service_time * 1e6) as u64,
                    &[
                        ("requests", sizes.len() as u64),
                        ("late", u64::from(out.late)),
                    ],
                );
            }
            disks.push(mzd_prof::DiskPhases {
                disk: d as u32,
                requests: sizes.len() as u32,
                service_time: out.service_time,
                late: out.late,
                seek_time: out.seek_time,
                rotational_time: out.rotational_time,
                transfer_time: out.transfer_time,
                fault_time: out.fault_time,
            });
            for &slot in &out.glitched_streams {
                let slot = slot as usize;
                let session = &mut self.sessions[batch[slot]];
                session.glitches += 1;
                tally.glitched.push(session.id);
                // A late fetch is late for everyone coalesced onto it.
                let waiters = keys[slot].and_then(|key| scratch.waiters.get(&key));
                for &w in waiters.into_iter().flatten() {
                    self.sessions[w].glitches += 1;
                    tally.glitched.push(self.sessions[w].id);
                }
            }
            // Deliveries: every request of the batch fills its client's
            // buffer for the next round; completed fetches fill the cache
            // and release their coalesced waiters.
            for (slot, &session_idx) in batch.iter().enumerate() {
                let bytes = sizes[slot];
                self.sessions[session_idx].buffer.deliver(bytes);
                let (Some(key), Some(cache)) = (keys[slot], self.cache.as_mut()) else {
                    continue;
                };
                // The cache counts exactly the delayed hits the partition
                // stage queued here, so a fetch nobody joined has no entry.
                if cache.complete_fetch(key, bytes, rot_half + bytes * inv_rate) == 0 {
                    continue;
                }
                if let Some(waiters) = scratch.waiters.remove(&key) {
                    // Waiters receive the fragment when the sweep
                    // finishes: a partial-round latency, not a disk
                    // visit of their own.
                    let latency_rounds = out.service_time / self.cfg.round_length;
                    for w in waiters {
                        self.sessions[w].buffer.deliver(bytes);
                        self.metrics.cache_hit_latency.record(latency_rounds);
                    }
                }
            }
        }
        debug_assert!(
            scratch.waiters.is_empty(),
            "every in-flight fetch completes within its round"
        );
        disks
    }

    /// SLO stage: burn-rate accounting against the admitted glitch
    /// budget, model conformance on each busy disk's observed sweep
    /// time, and the admission brake on alert transitions. Returns
    /// whether a fast-burn alert was raised this round.
    fn slo_stage(&mut self, tally: &RoundTally, disks: &[mzd_prof::DiskPhases]) -> bool {
        let _phase = mzd_prof::phase("slo");
        let Some(slo) = self.slo.as_mut() else {
            return false;
        };
        let round = self.rounds_run;
        if slo.tracer.is_some() {
            for &gid in &tally.glitched {
                slo.record_stream_span(
                    gid,
                    "glitch",
                    "glitch",
                    tally.trace_ts,
                    1,
                    &[("round", round)],
                );
            }
        }
        let alert = slo
            .burn
            .observe_round(tally.stream_rounds, tally.glitched.len() as u64);
        slo.metrics.burn_fast.set(slo.burn.burn_fast());
        slo.metrics.burn_slow.set(slo.burn.burn_slow());
        slo.metrics.burn_long.set(slo.burn.burn_long());
        if let Some(transition) = alert {
            let raised = transition == Transition::Raised;
            if raised {
                slo.metrics.alerts.inc();
            }
            self.admission.set_over_admission_frozen(raised);
            if mzd_telemetry::events_enabled() {
                let mut event = mzd_telemetry::Event::new("slo.alert")
                    .str("transition", transition.as_str())
                    .u64("round", round)
                    .f64("burn_fast", slo.burn.burn_fast());
                if raised {
                    event = event.f64("burn_slow", slo.burn.burn_slow()).u64(
                        "frozen_limit",
                        u64::from(self.admission.effective_per_disk_limit()),
                    );
                }
                mzd_telemetry::emit(event);
            }
        }
        for ds in disks.iter().filter(|ds| ds.requests > 0) {
            let Some(drift) = slo.observe_sweep(&self.tables, ds.requests, ds.service_time) else {
                continue;
            };
            if drift == Transition::Raised {
                slo.metrics.drifts.inc();
            }
            if mzd_telemetry::events_enabled() {
                let (ks, tail) = slo.conformance_stats();
                mzd_telemetry::emit(
                    mzd_telemetry::Event::new("slo.drift")
                        .str("transition", drift.as_str())
                        .u64("round", round)
                        .u64("disk", u64::from(ds.disk))
                        .f64("ks", ks)
                        .f64("tail_exceedance", tail),
                );
            }
        }
        let (ks, tail) = slo.conformance_stats();
        slo.metrics.ks.set(ks);
        slo.metrics.tail.set(tail);
        if mzd_telemetry::events_enabled() {
            mzd_telemetry::emit(
                mzd_telemetry::Event::new("slo.round")
                    .u64("round", round)
                    .u64("stream_rounds", tally.stream_rounds)
                    .u64("glitches", tally.glitched.len() as u64)
                    .f64("burn_fast", slo.burn.burn_fast())
                    .f64("burn_slow", slo.burn.burn_slow())
                    .f64("burn_long", slo.burn.burn_long())
                    .u64("alert", u64::from(slo.burn.alert_active()))
                    .u64("frozen", u64::from(self.admission.over_admission_frozen()))
                    .f64("ks", ks)
                    .f64("tail_exceedance", tail),
            );
        }
        alert == Some(Transition::Raised)
    }

    /// Degrade stage: the ladder climbs on sustained fast-burn alert and
    /// steps down on sustained quiet. Without an SLO layer the burn
    /// signal is absent and the ladder stays at rung 0. Returns whether
    /// the ladder escalated this round.
    fn degrade_stage(&mut self, downshifts: u64) -> bool {
        let _phase = mzd_prof::phase("degrade");
        let Some(ladder) = self.degrade.as_mut() else {
            return false;
        };
        let alert = self.slo.as_ref().is_some_and(|s| s.burn.alert_active());
        let transition = ladder.observe(alert);
        let step = match transition {
            Some(DegradeTransition::Escalated(rung)) => {
                if rung == RUNG_PAUSE_NEWEST {
                    shed_newest(
                        &mut self.sessions,
                        &mut self.shed_by_degrade,
                        ladder.settings.shed_fraction,
                    );
                }
                Some(("escalate", rung))
            }
            Some(DegradeTransition::Recovered(rung)) => {
                if rung == RUNG_PAUSE_NEWEST - 1 {
                    resume_shed(&mut self.sessions, &mut self.shed_by_degrade);
                }
                Some(("recover", rung))
            }
            None => None,
        };
        if let (Some((action, rung)), true) = (step, mzd_telemetry::events_enabled()) {
            mzd_telemetry::emit(
                mzd_telemetry::Event::new("server.degrade")
                    .str("action", action)
                    .u64("rung", u64::from(rung))
                    .u64("round", self.rounds_run)
                    .u64("shed", self.shed_by_degrade.len() as u64),
            );
        }
        // With a ladder attached, the over-admission freeze holds as
        // long as rung 1+ is engaged, independent of the instantaneous
        // alert state the SLO layer reacts to.
        self.admission
            .set_over_admission_frozen(alert || ladder.rung() >= RUNG_FREEZE_OVER_ADMISSION);
        ladder
            .metrics
            .shed_streams
            .set(self.shed_by_degrade.len() as f64);
        ladder.metrics.downshift_rounds.add(downshifts);
        matches!(transition, Some(DegradeTransition::Escalated(_)))
    }

    /// Advance stage: every unpaused session moves to its next fragment;
    /// finished ones retire. Each session's disk cursor, and with it the
    /// incremental load vector, follows the stream's rotation to the
    /// next disk. Returns the retired streams' records.
    fn advance_stage(&mut self) -> Vec<CompletedStream> {
        let _phase = mzd_prof::phase("advance");
        let mut completed = Vec::new();
        let mut i = 0;
        while i < self.sessions.len() {
            let s = &mut self.sessions[i];
            if s.paused {
                i += 1;
                continue;
            }
            s.buffer.advance_round();
            let old_d = s.disk as usize;
            s.fragments_consumed += 1;
            if s.fragments_consumed >= s.object.rounds {
                completed.push(self.retire(i, old_d));
            } else {
                s.disk = self.layout.next_disk(s.disk);
                self.load[old_d] -= 1;
                self.load[s.disk as usize] += 1;
                i += 1;
            }
        }
        completed
    }

    /// Cache stage: cache metrics, and the measured-hit-ratio feed for
    /// cache-aware admission.
    fn cache_stage(&mut self, tally: &RoundTally) {
        let _phase = mzd_prof::phase("cache");
        let Some(cache) = &self.cache else {
            return;
        };
        let (hits, delayed, misses) = (tally.hits, tally.delayed_hits, tally.misses);
        self.metrics.cache_hits.add(hits);
        self.metrics.cache_delayed_hits.add(delayed);
        self.metrics.cache_misses.add(misses);
        self.metrics
            .cache_evictions
            .add(cache.stats().evictions - tally.evictions_before);
        self.metrics.cache_occupancy.set(cache.occupancy_bytes());
        self.hit_window
            .push_back((hits + delayed + misses, hits + delayed));
        if self.hit_window.len() > HIT_WINDOW_ROUNDS {
            self.hit_window.pop_front();
        }
        if self.admission.is_cache_aware() {
            let (trials, avoided) = self
                .hit_window
                .iter()
                .fold((0u64, 0u64), |(t, a), &(lt, la)| (t + lt, a + la));
            let h = if trials >= HIT_WINDOW_MIN_TRIALS {
                mzd_slo::wilson_lower_bound(avoided, trials)
            } else {
                0.0
            };
            self.admission.set_hit_ratio_lower_bound(h);
        }
        if mzd_telemetry::events_enabled() {
            mzd_telemetry::emit(
                mzd_telemetry::Event::new("server.cache")
                    .u64("round", self.rounds_run)
                    .u64("hits", hits)
                    .u64("delayed_hits", delayed)
                    .u64("misses", misses)
                    .f64("occupancy_bytes", cache.occupancy_bytes())
                    .u64("resident", cache.len() as u64),
            );
        }
    }

    /// Publish a finished round: the buffer gauge, the `server.round`
    /// event, and the flight-recorder snapshot with any dump triggers it
    /// tripped. Snapshots carry only logical state (round ids, counters,
    /// phase decompositions) so bundles from a seeded run are
    /// byte-identical across reruns and `--jobs` widths.
    fn publish_round(
        &self,
        report: &RoundReport,
        tally: &RoundTally,
        alert_raised: bool,
        escalated: bool,
    ) {
        let occupancy: f64 = self.sessions.iter().map(|s| s.buffer.occupancy()).sum();
        self.metrics.buffer_occupancy.set(occupancy);
        if mzd_telemetry::events_enabled() {
            let completed: Vec<u64> = report.completed_streams.iter().map(|c| c.id).collect();
            mzd_telemetry::emit(
                mzd_telemetry::Event::new("server.round")
                    .u64("round", report.round)
                    .u64("active", self.sessions.len() as u64)
                    .f64("buffer_occupancy", occupancy)
                    .u64_list("glitched", &report.glitched_streams)
                    .u64_list("completed", &completed),
            );
        }
        let Some(recorder) = self.recorder.as_ref() else {
            return;
        };
        let mut faults = mzd_prof::FaultTotals::default();
        for sim in &self.disks {
            let c = sim.fault_counters();
            faults.media_errors += c.media_errors;
            faults.retries += c.retries;
            faults.stalls += c.stalls;
            faults.remaps += c.remaps;
            faults.failed_reads += c.failed_reads;
            faults.unavailable_rounds += c.unavailable_rounds;
        }
        recorder.push(mzd_prof::RoundSnapshot {
            round: report.round,
            active_streams: self.sessions.len() as u64,
            glitches: report.glitched_streams.len() as u64,
            rung: self.degrade.as_ref().map_or(tally.rung, DegradeState::rung),
            burn_fast: self.slo.as_ref().map_or(0.0, |s| s.burn.burn_fast()),
            burn_slow: self.slo.as_ref().map_or(0.0, |s| s.burn.burn_slow()),
            burn_long: self.slo.as_ref().map_or(0.0, |s| s.burn.burn_long()),
            cache_hits: tally.hits,
            cache_delayed_hits: tally.delayed_hits,
            cache_misses: tally.misses,
            cache_occupancy_bytes: self
                .cache
                .as_ref()
                .map_or(0.0, FragmentCache::occupancy_bytes),
            load: self.load.clone(),
            rng_positions: self.disks.iter().map(RoundSimulator::rounds_run).collect(),
            disks: report.disks.clone(),
            faults,
        });
        let any_late = report.disks.iter().any(|d| d.late);
        // Priority order: the rarest, highest-signal trigger dumps first
        // (the recorder deduplicates per kind and caps total dumps).
        for (fired, trigger) in [
            (alert_raised, mzd_prof::DumpTrigger::SloFastBurn),
            (escalated, mzd_prof::DumpTrigger::DegradeEscalation),
            (any_late, mzd_prof::DumpTrigger::RoundOverrun),
        ] {
            if fired {
                // Best-effort: a dump failure (e.g. unwritable directory)
                // must not take the serving loop down.
                let _ = recorder.trigger_dump(trigger);
            }
        }
    }

    /// Run `rounds` rounds, returning only the aggregate glitch count (for
    /// long batch runs where per-round reports would be noise).
    pub fn run_rounds(&mut self, rounds: u64) -> u64 {
        let mut glitches = 0;
        for _ in 0..rounds {
            glitches += self.run_round().glitched_streams.len() as u64;
        }
        glitches
    }
}

/// Rung 4: pause the newest `fraction` of unpaused sessions, recording
/// their ids in `shed`. They hold their admission reservation and resume
/// when the ladder steps back below rung 4.
fn shed_newest(sessions: &mut [Session], shed: &mut Vec<u64>, fraction: f64) {
    let mut candidates: Vec<(u64, usize)> = sessions
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.paused)
        .map(|(i, s)| (s.id, i))
        .collect();
    // Newest first: the most recently admitted streams lose service
    // first, preserving the oldest commitments.
    candidates.sort_unstable_by_key(|&(id, _)| std::cmp::Reverse(id));
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    #[allow(clippy::cast_sign_loss)]
    let count = ((candidates.len() as f64 * fraction).ceil() as usize).min(candidates.len());
    for &(id, idx) in candidates.iter().take(count) {
        sessions[idx].paused = true;
        shed.push(id);
    }
}

/// Resume every stream the ladder shed, if still active.
fn resume_shed(sessions: &mut [Session], shed: &mut Vec<u64>) {
    for id in shed.drain(..) {
        if let Some(s) = sessions.iter_mut().find(|s| s.id == id) {
            s.paused = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(disks: u32, seed: u64) -> VideoServer {
        VideoServer::new(ServerConfig::paper_reference(disks).unwrap(), seed).unwrap()
    }

    fn short_object(rounds: u32) -> ObjectSpec {
        ObjectSpec::new("test", SizeDistribution::paper_default(), rounds).unwrap()
    }

    #[test]
    fn admits_up_to_per_disk_limit_times_disks() {
        let mut s = server(2, 1);
        let limit = s.admission().per_disk_limit(); // 28 for the paper target
        assert_eq!(limit, 28);
        let mut admitted = 0;
        loop {
            match s.open_stream(short_object(100)) {
                Ok(_) => admitted += 1,
                Err(AdmissionDecision::Reject { per_disk_limit }) => {
                    assert_eq!(per_disk_limit, 28);
                    break;
                }
                Err(AdmissionDecision::Admit) => unreachable!(),
            }
        }
        assert_eq!(admitted, 2 * limit);
        assert_eq!(s.active_streams(), admitted as usize);
        assert_eq!(s.rejected_streams(), 1);
    }

    #[test]
    fn per_disk_load_stays_balanced() {
        let mut s = server(4, 2);
        for _ in 0..20 {
            s.open_stream(short_object(50)).unwrap();
        }
        for _ in 0..10 {
            let load = s.per_disk_load();
            let max = *load.iter().max().unwrap();
            let min = *load.iter().min().unwrap();
            assert!(max - min <= 1, "unbalanced load {load:?}");
            s.run_round();
        }
    }

    #[test]
    fn streams_complete_after_their_round_count() {
        let mut s = server(2, 3);
        let h = s.open_stream(short_object(5)).unwrap();
        let mut completed = Vec::new();
        for r in 0..5 {
            assert_eq!(s.active_streams(), 1, "round {r}");
            let report = s.run_round();
            assert_eq!(report.completed_streams.len(), usize::from(r == 4));
            completed.extend(report.completed_streams);
        }
        assert_eq!(s.active_streams(), 0);
        let rec = &completed[0];
        assert_eq!(rec.id, h.id());
        assert_eq!(rec.rounds_played, 5);
        assert_eq!(rec.object, "test");
        assert!(rec.buffer_high_water > 0.0);
    }

    #[test]
    fn close_stream_retires_early() {
        let mut s = server(1, 4);
        let h = s.open_stream(short_object(100)).unwrap();
        s.run_round();
        assert_eq!(s.stream_glitches(h).unwrap(), 0);
        let rec = s.close_stream(h).unwrap();
        assert_eq!(s.active_streams(), 0);
        assert_eq!((rec.id, rec.rounds_played), (h.id(), 1));
        // Double close / unknown stream.
        assert_eq!(s.close_stream(h), Err(ServerError::UnknownStream(h.id())));
        assert!(s.stream_glitches(h).is_err());
    }

    #[test]
    fn admitted_load_rarely_glitches() {
        // At the admission limit, the per-stream glitch rate must be low
        // (that is the whole guarantee). Run 200 rounds at full admission
        // on one disk and check the total glitch count stays far below one
        // per stream per 100 rounds.
        let mut s = server(1, 5);
        while s.open_stream(short_object(10_000)).is_ok() {}
        let n = s.active_streams() as u64;
        assert_eq!(n, 28);
        let glitches = s.run_rounds(200);
        // 28 streams × 200 rounds = 5600 stream-rounds; the model bounds
        // the per-round glitch probability near 1–2% at N = 28 and the
        // simulated rate is ~0.1% (Figure 1), so < 3% here is generous.
        assert!(
            glitches < 168,
            "glitches {glitches} out of 5600 stream-rounds"
        );
    }

    #[test]
    fn overloaded_server_would_glitch_hence_rejection_matters() {
        // Force a config with a vacuous target to show the machinery: a
        // stream that may glitch in half its rounds admits more streams,
        // and they do glitch.
        let mut cfg = ServerConfig::paper_reference(1).unwrap();
        cfg.target = QualityTarget {
            m: 1200,
            g: 600,
            epsilon: 0.5,
        };
        let mut s = VideoServer::new(cfg, 6).unwrap();
        let limit = s.admission().per_disk_limit();
        assert!(limit > 40, "vacuous target admits a lot, got {limit}");
        for _ in 0..40 {
            let _ = s.open_stream(short_object(1000));
        }
        let glitches = s.run_rounds(50);
        assert!(glitches > 0, "40 streams on one Viking must glitch");
    }

    #[test]
    fn reports_are_structurally_sound() {
        let mut s = server(3, 7);
        for _ in 0..9 {
            s.open_stream(short_object(100)).unwrap();
        }
        let report = s.run_round();
        assert_eq!(report.round, 0);
        assert_eq!(report.disks.len(), 3);
        let total: u32 = report.disks.iter().map(|d| d.requests).sum();
        assert_eq!(total, 9);
        for d in &report.disks {
            assert!(d.service_time >= 0.0);
            assert!(!d.late || d.service_time > s.config().round_length);
        }
        assert_eq!(s.rounds_run(), 1);
    }

    #[test]
    fn active_session_info_is_a_faithful_manifest() {
        let mut s = server(2, 21);
        let a = s.open_stream(short_object(30)).unwrap();
        let b = s.open_stream(short_object(40)).unwrap();
        s.run_round();
        s.run_round();
        let info = s.active_session_info();
        assert_eq!(info.len(), 2);
        assert_eq!(info[0].handle, a);
        assert_eq!(info[1].handle, b);
        assert_eq!(info[0].fragments_consumed, 2);
        assert!(info.iter().all(|i| !i.paused));
        assert_eq!(info[0].object.rounds, 30);
        assert_eq!(info[1].object.rounds, 40);
    }

    #[test]
    fn cache_settings_are_checked_whatever_the_budget() {
        let build = |(bytes, safety, work_ahead): (f64, Option<f64>, u32)| {
            let mut cfg = ServerConfig::paper_reference(1).unwrap();
            let mut cache = CacheSettings::lru(bytes);
            cache.admission_safety = safety;
            cfg.cache = Some(cache);
            cfg.work_ahead = work_ahead;
            VideoServer::new(cfg, 1).map(|_| ())
        };
        let refused = [
            (f64::NAN, None, 0),
            (-5.0, None, 0),
            (0.0, Some(1.5), 0),
            (1e8, Some(1.5), 0),
            (0.0, Some(0.2), 0),
            (0.0, None, 3),
        ];
        for case in refused {
            assert!(
                matches!(build(case), Err(ServerError::Invalid(_))),
                "{case:?}"
            );
        }
        // A zero budget alone is the exact cacheless path.
        build((0.0, None, 0)).unwrap();
    }

    #[test]
    fn zero_disk_config_rejected() {
        assert!(ServerConfig::paper_reference(0).is_err());
    }

    fn cached_server(disks: u32, seed: u64, bytes: f64) -> VideoServer {
        let mut cfg = ServerConfig::paper_reference(disks).unwrap();
        cfg.cache = Some(CacheSettings::lru(bytes));
        VideoServer::new(cfg, seed).unwrap()
    }

    fn stored_object(name: &str, content_id: u64, rounds: u32) -> ObjectSpec {
        ObjectSpec::new(name, SizeDistribution::paper_default(), rounds)
            .unwrap()
            .with_content_id(content_id)
    }

    #[test]
    fn lockstep_readers_coalesce_onto_one_fetch() {
        let mut s = cached_server(1, 21, 1e9);
        // Three streams open the same stored object in the same round:
        // each round, one misses (fetches) and two coalesce.
        for _ in 0..3 {
            s.open_stream(stored_object("movie", 1, 20)).unwrap();
        }
        let mut disk_requests = 0u32;
        for _ in 0..20 {
            let report = s.run_round();
            disk_requests += report.disks[0].requests;
        }
        assert_eq!(disk_requests, 20, "one fetch per round, not three");
        let stats = *s.cache().unwrap().stats();
        assert_eq!(stats.misses, 20);
        assert_eq!(stats.delayed_hits, 40);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn staggered_reader_hits_cached_fragments() {
        let mut s = cached_server(1, 22, 1e9);
        let leader = s.open_stream(stored_object("movie", 2, 40)).unwrap();
        for _ in 0..10 {
            s.run_round();
        }
        // The follower starts from fragment 0, all of which the leader
        // already pulled into the (ample) cache.
        let follower = s.open_stream(stored_object("movie", 2, 40)).unwrap();
        let hits_before = s.cache().unwrap().stats().hits;
        for _ in 0..10 {
            s.run_round();
        }
        let stats = *s.cache().unwrap().stats();
        assert_eq!(
            stats.hits - hits_before,
            10,
            "every follower round is a pure hit"
        );
        assert_eq!(s.stream_glitches(follower).unwrap(), 0);
        assert_eq!(s.stream_glitches(leader).unwrap(), 0);
    }

    #[test]
    fn uncached_objects_bypass_the_cache() {
        let mut s = cached_server(1, 23, 1e9);
        s.open_stream(short_object(10)).unwrap(); // no content_id
        let report = s.run_round();
        assert_eq!(report.disks[0].requests, 1);
        let stats = *s.cache().unwrap().stats();
        assert_eq!(stats.lookups(), 0);
        assert!(s.cache().unwrap().is_empty());
    }

    #[test]
    fn zero_byte_cache_is_identical_to_cacheless() {
        let mut cacheless = server(2, 31);
        let mut zero = {
            let mut cfg = ServerConfig::paper_reference(2).unwrap();
            cfg.cache = Some(CacheSettings::lru(0.0));
            VideoServer::new(cfg, 31).unwrap()
        };
        assert!(zero.cache().is_none(), "zero bytes disables the cache");
        for i in 0..6 {
            cacheless.open_stream(stored_object("m", 5, 30)).unwrap();
            zero.open_stream(stored_object("m", 5, 30)).unwrap();
            if i % 2 == 0 {
                cacheless.open_stream(short_object(30)).unwrap();
                zero.open_stream(short_object(30)).unwrap();
            }
        }
        for _ in 0..30 {
            assert_eq!(cacheless.run_round(), zero.run_round());
        }
    }

    #[test]
    fn incremental_load_stays_consistent_under_churn() {
        let mut s = cached_server(3, 24, 1e8);
        let mut handles = Vec::new();
        for step in 0..200u32 {
            match step % 7 {
                0 | 1 | 4 => {
                    if let Ok(h) = s.open_stream(stored_object("hot", 9, 15)) {
                        handles.push(h);
                    }
                }
                2 => {
                    if let Some(h) = handles.pop() {
                        let _ = s.close_stream(h);
                    }
                }
                _ => {
                    s.run_round();
                    handles.retain(|h| s.stream_glitches(*h).is_ok());
                }
            }
            // per_disk_load() debug-asserts the incremental vector against
            // the O(n) recomputation.
            let load = s.per_disk_load();
            let total: u32 = load.iter().sum();
            assert_eq!(total as usize, s.active_streams());
        }
    }

    #[test]
    fn slo_layer_attaches_traces_and_stays_quiet_under_admitted_load() {
        let mut s = server(2, 51);
        let settings = crate::slo::SloSettings::for_target(s.config().target).with_tracing();
        s.enable_slo(settings).unwrap();
        assert!(s.slo_status().is_some());
        for _ in 0..4 {
            s.open_stream(short_object(10)).unwrap();
        }
        for _ in 0..10 {
            s.run_round();
        }
        let status = s.slo_status().unwrap();
        // Far under the admission limit: the budget cannot be burning.
        assert!(!status.alert_active);
        assert_eq!(status.alerts_raised, 0);
        assert!(!status.over_admission_frozen);
        // 4 streams × 10 rounds produce at least a round span + a
        // disposition span each, plus disk sweeps.
        assert!(status.trace_spans >= 80, "spans {}", status.trace_spans);
        let json = mzd_slo::render_chrome_json(&[s.tracer().unwrap()]);
        let parsed = mzd_telemetry::json::parse(&json).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), status.trace_spans);
        // Without tracing, no trace is exported but status still works.
        let mut plain = server(2, 52);
        plain
            .enable_slo(crate::slo::SloSettings::for_target(plain.config().target))
            .unwrap();
        plain.run_round();
        assert!(plain.tracer().is_none());
        assert_eq!(plain.slo_status().unwrap().trace_spans, 0);
    }

    #[test]
    fn deterministic_for_seed() {
        let mut a = server(2, 42);
        let mut b = server(2, 42);
        for _ in 0..10 {
            a.open_stream(short_object(50)).unwrap();
            b.open_stream(short_object(50)).unwrap();
        }
        for _ in 0..20 {
            let ra = a.run_round();
            let rb = b.run_round();
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn clean_fault_config_is_byte_identical_to_none() {
        let mut plain = server(2, 61);
        let mut clean = {
            let mut cfg = ServerConfig::paper_reference(2).unwrap();
            cfg.faults = Some(mzd_fault::FaultConfig::default());
            VideoServer::new(cfg, 61).unwrap()
        };
        for _ in 0..8 {
            plain.open_stream(short_object(40)).unwrap();
            clean.open_stream(short_object(40)).unwrap();
        }
        for _ in 0..40 {
            assert_eq!(plain.run_round(), clean.run_round());
        }
    }

    #[test]
    fn faulty_disks_glitch_more_than_clean() {
        let run = |faults: Option<mzd_fault::FaultConfig>| {
            let mut cfg = ServerConfig::paper_reference(1).unwrap();
            cfg.faults = faults;
            let mut s = VideoServer::new(cfg, 62).unwrap();
            while s.open_stream(short_object(10_000)).is_ok() {}
            s.run_rounds(300)
        };
        let clean = run(None);
        let faulty = run(Some(mzd_fault::FaultConfig {
            profile: mzd_fault::FaultProfile {
                p_media: 0.05,
                ..mzd_fault::FaultProfile::default()
            },
            ..mzd_fault::FaultConfig::default()
        }));
        // Most media errors recover via in-slack retries; only the ones
        // whose retries exhaust the remaining round slack glitch.
        assert!(
            faulty > clean + 20,
            "faulty glitches {faulty} vs clean {clean}"
        );
    }

    #[test]
    fn only_disk_scopes_the_injector() {
        let faults = |only: Option<u32>| mzd_fault::FaultConfig {
            profile: mzd_fault::FaultProfile {
                p_media: 0.10,
                ..mzd_fault::FaultProfile::default()
            },
            only_disk: only,
            ..mzd_fault::FaultConfig::default()
        };
        // out-of-range disk index rejected
        let mut cfg = ServerConfig::paper_reference(2).unwrap();
        cfg.faults = Some(faults(Some(2)));
        assert!(VideoServer::new(cfg, 63).is_err());
        // scoping to one of two disks roughly halves the damage
        let run = |only: Option<u32>| {
            let mut cfg = ServerConfig::paper_reference(2).unwrap();
            cfg.faults = Some(faults(only));
            let mut s = VideoServer::new(cfg, 63).unwrap();
            while s.open_stream(short_object(10_000)).is_ok() {}
            s.run_rounds(200)
        };
        let both = run(None);
        let one = run(Some(0));
        assert!(
            one * 2 < both + both / 2 && one > 0,
            "one-disk glitches {one} vs both-disk {both}"
        );
    }

    #[test]
    fn work_ahead_prefetch_fills_the_cache_ahead_of_consumption() {
        let mut cfg = ServerConfig::paper_reference(1).unwrap();
        cfg.cache = Some(CacheSettings::lru(1e9));
        cfg.work_ahead = 3;
        let mut s = VideoServer::new(cfg, 64).unwrap();
        s.open_stream(stored_object("movie", 7, 40)).unwrap();
        for _ in 0..5 {
            s.run_round();
        }
        // With one stream and ample slack, fragments beyond the playhead
        // are already resident.
        let cache = s.cache().unwrap();
        let ahead = (5..8)
            .filter(|&f| {
                cache.contains(FragmentKey {
                    object: 7,
                    fragment: f,
                })
            })
            .count();
        assert!(ahead > 0, "no work-ahead fragments resident");
        // And consuming them later is a pure hit, not a disk visit.
        let hits_before = cache.stats().hits;
        for _ in 0..3 {
            s.run_round();
        }
        assert!(s.cache().unwrap().stats().hits > hits_before);
    }

    #[test]
    fn degradation_ladder_escalates_under_fault_storm_and_sheds_newest() {
        let mut cfg = ServerConfig::paper_reference(1).unwrap();
        cfg.faults = Some(mzd_fault::FaultConfig {
            profile: mzd_fault::FaultProfile {
                p_media: 0.30,
                ..mzd_fault::FaultProfile::default()
            },
            ..mzd_fault::FaultConfig::default()
        });
        cfg.degrade = Some(crate::degrade::DegradeSettings {
            escalate_rounds: 4,
            recover_rounds: 16,
            ..crate::degrade::DegradeSettings::default()
        });
        let mut s = VideoServer::new(cfg, 65).unwrap();
        let mut handles = Vec::new();
        while let Ok(h) = s.open_stream(short_object(10_000)) {
            handles.push(h);
        }
        assert_eq!(s.degrade_status().unwrap().rung, 0);
        for _ in 0..120 {
            s.run_round();
        }
        let status = s.degrade_status().unwrap();
        assert_eq!(status.rung, 4, "fault storm must max the ladder");
        assert!(status.escalations >= 4);
        assert!(status.shed_streams > 0, "rung 4 must shed streams");
        // Shed streams are the newest handles and are paused, not gone.
        let shed = status.shed_streams as usize;
        let active = s.active_streams();
        assert_eq!(active, handles.len(), "shedding keeps reservations");
        let info = s.active_session_info();
        let paused: Vec<StreamHandle> =
            info.iter().filter(|i| i.paused).map(|i| i.handle).collect();
        assert_eq!(paused.len(), shed);
        let mut newest: Vec<StreamHandle> = handles.iter().rev().take(shed).copied().collect();
        newest.reverse();
        assert_eq!(paused, newest, "newest streams shed first");
        // Shed sessions keep their per-disk load slot but serve no
        // fragment: each round's disk requests cover only the others.
        for _ in 0..5 {
            let load: u32 = s.per_disk_load().iter().sum();
            assert_eq!(load as usize, active, "shed sessions keep their slot");
            let report = s.run_round();
            let served: u32 = report.disks.iter().map(|d| d.requests).sum();
            assert_eq!(served as usize, active - shed);
        }
        let after = s.active_session_info();
        for (before, now) in info.iter().zip(&after) {
            assert_eq!(before.handle, now.handle);
            if before.paused {
                assert_eq!(now.fragments_consumed, before.fragments_consumed);
            } else {
                assert_eq!(now.fragments_consumed, before.fragments_consumed + 5);
            }
        }
        // Admission stays frozen at rung 1+.
        assert!(s.slo_status().unwrap().over_admission_frozen);
    }

    #[test]
    fn ladder_recovery_resumes_shed_streams_where_they_stopped() {
        // A media-error storm confined to rounds 0..120 drives the ladder
        // to rung 4; once the fast burn clears, stepping back to rung 3
        // resumes every shed stream from the fragment it stopped at.
        let mut cfg = ServerConfig::paper_reference(1).unwrap();
        cfg.faults = Some(mzd_fault::FaultConfig {
            profile: mzd_fault::FaultProfile {
                p_media: 0.0003,
                scenario: mzd_fault::ChaosScenario::Burst {
                    start: 0,
                    rounds: 120,
                    factor: 1000.0,
                },
                ..mzd_fault::FaultProfile::default()
            },
            ..mzd_fault::FaultConfig::default()
        });
        cfg.degrade = Some(crate::degrade::DegradeSettings {
            escalate_rounds: 4,
            recover_rounds: 16,
            ..crate::degrade::DegradeSettings::default()
        });
        let mut s = VideoServer::new(cfg, 65).unwrap();
        s.enable_slo(crate::slo::SloSettings::for_target(s.config().target))
            .unwrap();
        while s.open_stream(short_object(10_000)).is_ok() {}
        let mut rounds = 0;
        while s.degrade_status().unwrap().rung < 4 {
            s.run_round();
            rounds += 1;
            assert!(rounds < 120, "the storm never maxed the ladder");
        }
        let at_shed = s.active_session_info();
        let shed: Vec<&ActiveStreamInfo> = at_shed.iter().filter(|i| i.paused).collect();
        assert!(!shed.is_empty(), "rung 4 must shed streams");
        let stopped_at = |info: &[ActiveStreamInfo], h: StreamHandle| {
            info.iter()
                .find(|i| i.handle == h)
                .unwrap()
                .fragments_consumed
        };
        while s.degrade_status().unwrap().rung >= 4 {
            // Paused: no shed stream moves while the ladder holds rung 4.
            let now = s.active_session_info();
            for before in &shed {
                assert_eq!(stopped_at(&now, before.handle), before.fragments_consumed);
            }
            s.run_round();
            rounds += 1;
            assert!(rounds < 400, "the ladder never recovered after the storm");
        }
        assert_eq!(s.degrade_status().unwrap().shed_streams, 0);
        let resumed = s.active_session_info();
        assert!(resumed.iter().all(|i| !i.paused));
        // The shed round's fragment was delivered before the ladder
        // paused the stream; the recovery round credits it, and the
        // stream then requests the next fragment like any other.
        for before in &shed {
            assert_eq!(
                stopped_at(&resumed, before.handle),
                before.fragments_consumed + 1
            );
        }
        let report = s.run_round();
        let served: u32 = report.disks.iter().map(|d| d.requests).sum();
        assert_eq!(served as usize, s.active_streams());
        let next = s.active_session_info();
        for before in &shed {
            assert_eq!(
                stopped_at(&next, before.handle),
                before.fragments_consumed + 2
            );
        }
    }
}
