//! The fleet: configuration, round loop, failure handling, and the
//! composed guarantee, in one place.
//!
//! [`Cluster`] owns `nodes` [`ServerNode`]s, the [`Placement`] ring,
//! the [`Dispatcher`] queues, and the [`LeaseTable`]. Each
//! [`Cluster::run_round`] advances the whole fleet one round:
//!
//! 1. **revive** nodes whose scripted outage ended (fresh lease);
//! 2. **dispatch** — every live node pulls from the front of its queue
//!    while its own controller, which enforces the composed cap `n*`
//!    per disk, admits;
//! 3. **step** every operational node one round, in parallel via
//!    `mzd_par::par_map_owned` — each node owns its RNG and reports
//!    join in node order, so results are byte-identical at any
//!    `--jobs`;
//! 4. **charge** outage glitches: streams hosted on a silent node, and
//!    migrated streams waiting in queues, receive nothing this round;
//! 5. **expire** leases; each newly failed node's streams are
//!    evacuated and deterministically requeued onto the survivors —
//!    keeping their original sequence numbers, so they re-enter
//!    *ahead of* newer arrivals — and marked degradable so the
//!    adopters' degradation ladders absorb the surge.
//!
//! Node failure is driven by `mzd-fault`'s chaos scenarios: on a fleet
//! of two or more nodes a [`ChaosScenario::ZoneFailure`] on the node
//! config is lifted to fleet scope as a [`NodeOutage`] of node
//! `zone % nodes` (the fleet analogue of a correlated zone loss),
//! while `Burst`/`Ramp` scenarios stay on the disks where they belong.
//! A one-node fleet has no node to adopt the streams, so there the
//! zone failure stays on the disks too.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;

use mzd_fault::{ChaosScenario, GrayDegradation};
use mzd_health::{HealthConfig, HealthDetector, RecomposedGuarantee};
use mzd_obs::SketchFleet;
use mzd_prof::{DumpTrigger, Recorder, RecorderSettings};
use mzd_server::{ModelTables, ServerConfig, SloSettings};
use mzd_slo::Tracer;
use mzd_telemetry::SpanContext;
use mzd_workload::ObjectSpec;

use crate::dispatcher::{Dispatcher, LeaseTable, NodeView, Pending};
use crate::guarantee::ClusterGuarantee;
use crate::metrics::{ClusterMetrics, HealthMetrics};
use crate::node::ServerNode;
use crate::placement::Placement;
use crate::ClusterError;

/// Default lease timeout, in rounds: long enough that one slow round
/// never triggers a spurious migration, short enough that the outage
/// charge `ℓ/m` stays a small fraction of the paper-default glitch
/// budget (`(3 + 2)/1200` against `g/m = 12/1200`).
pub const DEFAULT_LEASE_ROUNDS: u32 = 3;

/// Sketch name: per-disk sweep service time (seconds), recorded once
/// per disk per round into the owning node's labeled scope.
pub const SKETCH_SERVICE_TIME: &str = "cluster.node.service_time";

/// Sketch name: per-node dispatcher queue depth, sampled once per
/// round into the node's labeled scope.
pub const SKETCH_QUEUE_DEPTH: &str = "cluster.node.queue_depth";

/// Span-id base shift for node tracers in a fleet-merged trace: node
/// `i` allocates span ids from `(i + 1) << NODE_SPAN_BASE_SHIFT`
/// while the fleet (dispatcher) tracer keeps the default base 0, so
/// stitched parent/child edges stay unambiguous across nodes.
pub const NODE_SPAN_BASE_SHIFT: u32 = 40;

fn node_span_base(node: u32) -> u64 {
    (u64::from(node) + 1) << NODE_SPAN_BASE_SHIFT
}

/// A scripted whole-node outage: the node goes silent (does not step,
/// pull, or renew its lease) during `[start, start + rounds)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeOutage {
    /// The afflicted node.
    pub node: u32,
    /// First silent round (0-based).
    pub start: u64,
    /// Outage length in rounds.
    pub rounds: u64,
}

impl NodeOutage {
    /// Whether the node is silent during `round`.
    #[must_use]
    pub fn covers(&self, round: u64) -> bool {
        round >= self.start && round < self.start.saturating_add(self.rounds)
    }
}

/// Fleet configuration: the per-node server template plus the fleet
/// shape and failure-detection parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Fleet size.
    pub nodes: u32,
    /// Per-node server configuration, cloned for every member. On two
    /// or more nodes a `ZoneFailure` chaos scenario on its fault config
    /// is lifted to a fleet-scope [`NodeOutage`] at construction.
    pub node: ServerConfig,
    /// Lease timeout in rounds: a node silent this long is declared
    /// failed and its streams migrate.
    pub lease_rounds: u32,
    /// Scripted node outages (merged with any lifted `ZoneFailure`).
    pub outages: Vec<NodeOutage>,
    /// The node that carries any gray degradation configured on the
    /// node template (taken modulo the fleet size). Gray failure is
    /// node-scoped by construction: the template's
    /// [`GrayDegradation`] is kept on this member and stripped from
    /// every other, mirroring how `ZoneFailure` lifts to one
    /// [`NodeOutage`].
    pub gray_node: u32,
}

impl ClusterConfig {
    /// The paper's reference fleet: `nodes` members of `disks_per_node`
    /// Quantum Viking 2.1 spindles each, 1-second rounds, the
    /// per-stream glitch-rate target, and the default lease.
    ///
    /// # Errors
    /// [`ClusterError::Invalid`] for a zero-sized fleet or node.
    pub fn paper_reference(nodes: u32, disks_per_node: u32) -> Result<Self, ClusterError> {
        if nodes == 0 {
            return Err(ClusterError::Invalid(
                "a cluster needs at least one node".into(),
            ));
        }
        Ok(Self {
            nodes,
            node: ServerConfig::paper_reference(disks_per_node)?,
            lease_rounds: DEFAULT_LEASE_ROUNDS,
            outages: Vec::new(),
            gray_node: 0,
        })
    }

    fn validate(&self) -> Result<(), ClusterError> {
        if self.nodes == 0 {
            return Err(ClusterError::Invalid(
                "a cluster needs at least one node".into(),
            ));
        }
        if self.lease_rounds == 0 {
            return Err(ClusterError::Invalid(
                "lease timeout must be at least one round".into(),
            ));
        }
        Ok(())
    }
}

/// What `submit` did with a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Accepted and parked; `node` is the queue it landed in (`None`
    /// while every node is unavailable — it is held and re-routed).
    Queued {
        /// The stream's cluster-wide sequence number.
        seq: u64,
        /// The node whose queue holds it.
        node: Option<u32>,
    },
    /// Refused: the fleet is at its composed capacity. Admitting more
    /// would void the guarantee, so the dispatcher never queues beyond
    /// it.
    Rejected {
        /// The composed fleet capacity that was hit.
        fleet_capacity: u64,
    },
}

/// One stream that finished play-out, with its full fleet history. The
/// round report that retires a stream carries its record; the fleet
/// keeps no copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterCompletedStream {
    /// Cluster-wide sequence number.
    pub seq: u64,
    /// Glitch rounds over the stream's life: host glitches plus outage
    /// and queue-wait charges.
    pub glitches: u64,
    /// How many times the stream migrated between nodes.
    pub migrations: u32,
    /// Play-out length in rounds (the object's `M`).
    pub rounds: u32,
}

/// One stream moved off a failed node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationRecord {
    /// Cluster-wide sequence number.
    pub seq: u64,
    /// The failed node it left.
    pub from: u32,
    /// The queue it was re-routed to.
    pub to: u32,
    /// Rounds of play-out it still had left.
    pub remaining_rounds: u32,
}

/// What one fleet round produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterRoundReport {
    /// The round index this report covers (0-based).
    pub round: u64,
    /// Streams admitted from queues this round.
    pub admitted: u64,
    /// Streams that finished play-out this round.
    pub completed: Vec<ClusterCompletedStream>,
    /// Host glitch events this round (late disks, failed reads).
    pub glitched_streams: u64,
    /// Outage charges this round (silent hosts, migrated queue wait).
    pub outage_glitches: u64,
    /// Nodes declared failed this round (lease expired).
    pub failed_nodes: Vec<u32>,
    /// Nodes revived this round (outage ended).
    pub revived_nodes: Vec<u32>,
    /// Streams migrated this round.
    pub migrations: Vec<MigrationRecord>,
    /// Disks fleet-wide that overran the round.
    pub late_disks: u32,
    /// Per node, this round's per-disk service-time samples — exactly
    /// what was fed into the node's labeled quantile sketch. Empty for
    /// nodes that did not step (failed or in outage), so the
    /// concatenation over rounds reproduces the fleet-merged sketch.
    pub node_service_times: Vec<Vec<f64>>,
}

/// A point-in-time fleet summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterStatus {
    /// Rounds run so far.
    pub round: u64,
    /// Configured fleet size.
    pub nodes: u32,
    /// Nodes holding a live lease.
    pub live_nodes: u32,
    /// Streams hosted right now.
    pub active_streams: usize,
    /// Requests parked in queues (plus any held unrouted).
    pub waiting: usize,
    /// Streams that finished play-out.
    pub completed: usize,
    /// Glitch events so far (host plus outage).
    pub total_glitches: u64,
    /// The outage-charge subset.
    pub outage_glitches: u64,
    /// Stream migrations so far.
    pub migrations: u64,
}

/// Life-of-stream bookkeeping that survives migrations: the stream's
/// one glitch ledger and its one migration record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StreamMeta {
    /// Glitch rounds over the stream's life: host glitches, rounds on
    /// a silent host, and rounds queued after a migration.
    glitches: u64,
    /// Moves between nodes; above 0, the stream is mid play-out, so a
    /// round it waits in a queue is charged as a glitch.
    migrations: u32,
    rounds_total: u32,
    /// The root span minted at submission, adopted by every host the
    /// stream lands on (tracing only).
    root: Option<SpanContext>,
    /// The round the stream (re-)entered a queue, for queue-wait span
    /// durations (tracing only).
    queued_at: Option<u64>,
}

/// A point-in-time health-subsystem summary (see
/// [`Cluster::health_status`]).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthStatus {
    /// Nodes currently on probation (hedged dispatch).
    pub probation_nodes: u32,
    /// Nodes currently ejected.
    pub ejected_nodes: u32,
    /// Probation entries so far.
    pub probations: u64,
    /// Ejections so far.
    pub ejections: u64,
    /// Readmission trials begun so far.
    pub readmissions: u64,
    /// Probations cleared back to healthy so far.
    pub clears: u64,
    /// Hedged duplicate rounds dispatched so far.
    pub hedges_issued: u64,
    /// Hedges the spare completed inside its round slack.
    pub hedges_won: u64,
    /// Cumulative spare round-slack spent on winning hedges, seconds.
    pub hedge_slack_debited: f64,
    /// The re-composed guarantee currently in force.
    pub recomposed: RecomposedGuarantee,
    /// Highest per-node suspicion after the last round.
    pub max_suspicion: f64,
}

/// The health subsystem's runtime state: the detector, the hedging
/// ledger, and the re-composed guarantee admission consults.
#[derive(Debug)]
struct HealthState {
    detector: HealthDetector,
    /// Round-slack cost of one hedged duplicate round on the spare:
    /// the per-stream share of a round at the composed admission
    /// level, `round_length / node_capacity` — the same unit the
    /// retry budget is priced in.
    hedge_cost: f64,
    /// The running summary [`Cluster::health_status`] reports; its
    /// per-node counts are read from the detector instead.
    status: HealthStatus,
    metrics: HealthMetrics,
}

/// A sharded fleet of video-server nodes behind one dispatcher, with
/// the paper's guarantee composed fleet-wide. See the crate docs for
/// the layer map and [`ClusterGuarantee`] for the math.
#[derive(Debug)]
pub struct Cluster {
    cfg: ClusterConfig,
    guarantee: ClusterGuarantee,
    /// Streams the fleet admits now: the spare rule over the nodes'
    /// effective limits, capped by the re-composed guarantee when health
    /// is on. Refreshed at construction and once per round.
    capacity: u64,
    /// Each node's effective stream limit (per-disk limit × disks), as
    /// of the last refresh; routing headroom reads it.
    node_limits: Vec<u32>,
    placement: Placement,
    dispatcher: Dispatcher,
    lease: LeaseTable,
    nodes: Vec<ServerNode>,
    /// (node, node-local id) → seq for every hosted stream.
    by_host: BTreeMap<(u32, u64), u64>,
    /// seq → life-of-stream record for every in-flight stream.
    meta: BTreeMap<u64, StreamMeta>,
    /// Requests held while no node was available to queue on.
    unrouted: Vec<Pending>,
    /// The routing snapshot, one view per node, refreshed in place by
    /// [`Cluster::refresh_views`] so a submission allocates nothing per
    /// node.
    views: Vec<NodeView>,
    /// Streams that finished play-out so far.
    completed: usize,
    next_seq: u64,
    round: u64,
    total_glitches: u64,
    outage_glitches: u64,
    migrations_total: u64,
    metrics: ClusterMetrics,
    /// Per-node labeled quantile sketches (service time, queue depth)
    /// plus their exact fleet-level merge. Always on: recording is a
    /// pure in-memory fold, and the catalog must not depend on flags.
    sketches: SketchFleet,
    /// The fleet (dispatcher) tracer; `None` until
    /// [`Cluster::enable_tracing`].
    tracer: Option<Tracer>,
    /// Fleet postmortem directory; node bundles dump into
    /// `node-{i}/` subdirectories beneath it.
    fleet_dir: Option<PathBuf>,
    /// Fleet manifests written so far, one per distinct trigger kind.
    fleet_dumps: Vec<(DumpTrigger, PathBuf)>,
    /// Gray-failure detection and self-healing; `None` until
    /// [`Cluster::enable_health`].
    health: Option<HealthState>,
}

impl Cluster {
    /// Bring up the fleet: compose the guarantee, build the ring and
    /// queues, and seed node `i` with `derive_seed(seed, i)` so every
    /// node owns an independent, reproducible RNG stream.
    ///
    /// # Errors
    /// [`ClusterError::Invalid`] for a degenerate shape or a lease so
    /// long the composed bound is infeasible.
    pub fn new(mut cfg: ClusterConfig, seed: u64) -> Result<Self, ClusterError> {
        cfg.validate()?;
        // Lift a correlated zone failure to fleet scope: the analogous
        // event at cluster scale is a whole member going dark — when
        // another member could adopt its streams.
        if let Some(fc) = cfg.node.faults.as_mut().filter(|_| cfg.nodes > 1) {
            if let ChaosScenario::ZoneFailure {
                zone,
                start,
                rounds,
                ..
            } = fc.profile.scenario
            {
                cfg.outages.push(NodeOutage {
                    node: zone % cfg.nodes,
                    start,
                    rounds,
                });
                fc.profile = fc.profile.without_scenario();
            }
        }
        // Gray degradation is likewise node-scoped: the template's gray
        // shape stays on the designated gray node only, so one member
        // silently slows down while the rest of the fleet — and the
        // admission math, which never prices gray — stay clean.
        let gray_target = cfg.gray_node % cfg.nodes;
        let fleet_has_gray = cfg
            .node
            .faults
            .as_ref()
            .is_some_and(|fc| fc.profile.gray != GrayDegradation::None);
        // One solve for the whole fleet: the composition and every
        // node's admission read its limit, and the nodes share its
        // predicted-CDF tables.
        let tables = Arc::new(ModelTables::for_config(&cfg.node)?);
        let guarantee =
            ClusterGuarantee::compose(&tables, cfg.nodes, cfg.node.disks, cfg.lease_rounds)?;
        let nodes = (0..cfg.nodes)
            .map(|i| {
                let mut node_cfg = cfg.node.clone();
                if fleet_has_gray && i != gray_target {
                    if let Some(fc) = node_cfg.faults.as_mut() {
                        fc.profile = fc.profile.without_gray();
                    }
                }
                let seed = mzd_par::derive_seed(seed, u64::from(i));
                ServerNode::new(i, node_cfg, seed, Arc::clone(&tables), guarantee.n_star)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let placement = Placement::new(cfg.nodes)?;
        let dispatcher = Dispatcher::new(cfg.nodes);
        let lease = LeaseTable::new(cfg.nodes, cfg.lease_rounds);
        let metrics = ClusterMetrics::new();
        metrics.nodes.set(f64::from(cfg.nodes));
        metrics.nodes_available.set(f64::from(cfg.nodes));
        metrics.p_error_bound.set(guarantee.p_error_stream);
        let mut sketches = SketchFleet::with_nodes(cfg.nodes);
        sketches.declare_all(SKETCH_SERVICE_TIME);
        sketches.declare_all(SKETCH_QUEUE_DEPTH);
        let mut fleet = Self {
            cfg,
            guarantee,
            capacity: 0,
            node_limits: Vec::new(),
            placement,
            dispatcher,
            lease,
            nodes,
            by_host: BTreeMap::new(),
            meta: BTreeMap::new(),
            unrouted: Vec::new(),
            views: Vec::new(),
            completed: 0,
            next_seq: 0,
            round: 0,
            total_glitches: 0,
            outage_glitches: 0,
            migrations_total: 0,
            metrics,
            sketches,
            tracer: None,
            fleet_dir: None,
            fleet_dumps: Vec::new(),
            health: None,
        };
        fleet.refresh_capacity();
        Ok(fleet)
    }

    /// One round expressed in trace microseconds (logical time: round
    /// index × round length, never wall-clock).
    fn round_us(&self) -> u64 {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let us = (self.cfg.node.round_length * 1e6) as u64;
        us.max(1)
    }

    /// Enable cross-node trace stitching: a fleet tracer at the
    /// dispatcher (span base 0) mints one root span per stream at
    /// submission, and every node's server records its spans under
    /// that root with ids rebased to `(node + 1) << 40` — so one
    /// Chrome trace holds a migrated stream's whole causal chain
    /// (submit → queue → lease-expire → requeue → admit → rounds)
    /// across hosts, under one trace id (the stream's seq).
    ///
    /// Call before the first round; re-enables each node's SLO layer
    /// with tracing on.
    ///
    /// # Errors
    /// Propagates per-node server configuration errors.
    pub fn enable_tracing(&mut self) -> Result<(), ClusterError> {
        for node in &mut self.nodes {
            let base = node_span_base(node.id());
            node.enable_tracing(base)?;
        }
        self.tracer = Some(Tracer::new());
        Ok(())
    }

    /// Attach every node's SLO layer untraced: burn-rate alerting and
    /// model conformance against the node's own glitch budget. Call
    /// before the first round; [`Self::enable_tracing`] attaches the
    /// traced layer instead.
    ///
    /// # Errors
    /// Propagates per-node server configuration errors.
    pub fn enable_slo(&mut self) -> Result<(), ClusterError> {
        let settings = SloSettings::for_target(self.cfg.node.target);
        for node in &mut self.nodes {
            node.server_mut().enable_slo(settings)?;
        }
        Ok(())
    }

    /// Attach the gray-failure health subsystem: a deterministic
    /// suspicion detector over the same per-node service-time samples
    /// the observability sketches record, the probation → ejection →
    /// readmission machine, hedged dispatch for probated nodes, and
    /// guarantee re-composition on ejection. Registers the `health.*`
    /// metric family eagerly so calm and degraded runs expose the same
    /// catalog. Call before the first round.
    ///
    /// # Errors
    /// [`ClusterError::Invalid`] for an invalid [`HealthConfig`].
    pub fn enable_health(&mut self, health_cfg: HealthConfig) -> Result<(), ClusterError> {
        let detector = HealthDetector::new(health_cfg, self.cfg.nodes)?;
        let metrics = HealthMetrics::new();
        let recomposed = mzd_health::recompose(
            self.cfg.nodes,
            u64::from(self.guarantee.node_capacity),
            self.guarantee.p_error_stream,
            0,
            self.committed(),
        );
        metrics.enabled.set(1.0);
        #[allow(clippy::cast_precision_loss)]
        metrics
            .fleet_capacity
            .set(recomposed.effective_capacity as f64);
        metrics.degrade_rung.set(f64::from(recomposed.degrade_rung));
        metrics
            .admission_frozen
            .set(f64::from(u8::from(recomposed.frozen)));
        self.health = Some(HealthState {
            detector,
            hedge_cost: self.cfg.node.round_length / f64::from(self.guarantee.node_capacity.max(1)),
            status: HealthStatus {
                probation_nodes: 0,
                ejected_nodes: 0,
                probations: 0,
                ejections: 0,
                readmissions: 0,
                clears: 0,
                hedges_issued: 0,
                hedges_won: 0,
                hedge_slack_debited: 0.0,
                recomposed,
                max_suspicion: 0.0,
            },
            metrics,
        });
        self.refresh_capacity();
        Ok(())
    }

    /// A point-in-time health summary; `None` until
    /// [`Cluster::enable_health`].
    #[must_use]
    pub fn health_status(&self) -> Option<HealthStatus> {
        self.health.as_ref().map(|h| HealthStatus {
            probation_nodes: h.detector.probation_count(),
            ejected_nodes: h.detector.ejected_count(),
            ..h.status.clone()
        })
    }

    /// One node's current position in the health state machine;
    /// `None` until [`Cluster::enable_health`] (or for an out-of-range
    /// node index). Lets operators and sweeps track a *specific* node
    /// through probation → ejection → readmission rather than inferring
    /// it from the fleet-wide counters in [`Cluster::health_status`].
    #[must_use]
    pub fn node_health(&self, node: u32) -> Option<mzd_health::NodeHealth> {
        let h = self.health.as_ref()?;
        (node < self.cfg.nodes).then(|| h.detector.node(node).health)
    }

    /// Streams the fleet is currently responsible for: hosted plus
    /// queued plus held unrouted.
    fn committed(&self) -> u64 {
        (self.by_host.len() + self.dispatcher.queued_total() + self.unrouted.len()) as u64
    }

    /// Re-read every node's effective limit and the fleet capacity they
    /// imply: the sum over nodes, less the largest node when a spare is
    /// held, and with health on no more than the re-composed capacity
    /// (nothing while admission is frozen). Without cache-aware
    /// admission every node's limit is `n*`, so this is the composed
    /// [`ClusterGuarantee::fleet_capacity`].
    fn refresh_capacity(&mut self) {
        self.node_limits.clear();
        self.node_limits.extend(self.nodes.iter().map(|n| {
            let server = n.server();
            server.admission().effective_per_disk_limit() * server.config().disks
        }));
        let sum: u64 = self.node_limits.iter().map(|&l| u64::from(l)).sum();
        let spare = if self.guarantee.spares > 0 {
            self.node_limits.iter().copied().max().unwrap_or(0)
        } else {
            0
        };
        let own = sum - u64::from(spare);
        self.capacity = self.health.as_ref().map_or(own, |h| {
            let recomposed = &h.status.recomposed;
            if recomposed.frozen {
                0
            } else {
                recomposed.effective_capacity.min(own)
            }
        });
    }

    /// Whether the health subsystem has `node` ejected. Ejection is
    /// deliberately *not* expressed through the lease table: an ejected
    /// node is alive (it keeps stepping empty and renewing its lease,
    /// staying warm for readmission) — it is only excluded from
    /// routing, dispatch, and detector baselines.
    fn is_health_ejected(&self, node: u32) -> bool {
        self.health
            .as_ref()
            .is_some_and(|h| h.detector.is_ejected(node))
    }

    /// Attach per-node flight recorders dumping under
    /// `settings.out_dir/node-{i}/` (each node's `config_echo` gains
    /// a `node` key), and arm the fleet-level triggers — lease-expiry
    /// storm, composed-budget breach, fleet fast-burn — that dump
    /// *all* node bundles plus a fleet `MANIFEST.json` keyed by the
    /// logical round (see [`mzd_prof::write_fleet_manifest`]).
    pub fn attach_recorders(&mut self, settings: &RecorderSettings) {
        self.fleet_dir = Some(settings.out_dir.clone());
        for node in &mut self.nodes {
            let i = node.id();
            let mut s = settings.clone();
            s.out_dir = settings.out_dir.join(format!("node-{i}"));
            s.config_echo.push(("node".into(), i.to_string()));
            node.server_mut().attach_recorder(Recorder::new(s));
        }
    }

    /// The fleet sketch registry: per-node labeled quantile sketches
    /// and their exact merge (see [`SketchFleet::render_prom`]).
    #[must_use]
    pub fn sketches(&self) -> &SketchFleet {
        &self.sketches
    }

    /// Fleet postmortem manifests written so far (one per distinct
    /// trigger kind).
    #[must_use]
    pub fn fleet_dumps(&self) -> &[(DumpTrigger, PathBuf)] {
        &self.fleet_dumps
    }

    /// Force a correlated fleet dump now (e.g. `--dump-on-exit`): every
    /// node's recorder dumps its window under `trigger`, subject to its
    /// own per-kind dedupe and bundle cap. Returns the fleet manifest
    /// path when this call wrote it; `None` without attached recorders
    /// or when an earlier fleet trigger already owns `MANIFEST.json`
    /// (the nodes still dump).
    pub fn trigger_fleet_dump(&mut self, trigger: DumpTrigger) -> Option<PathBuf> {
        if self.fleet_dumps.is_empty() {
            self.fleet_dump(trigger, self.round);
            return self.fleet_dumps.first().map(|(_, path)| path.clone());
        }
        for node in &self.nodes {
            if let Some(recorder) = node.server().recorder() {
                // Best-effort, as every postmortem write.
                let _ = recorder.trigger_dump(trigger);
            }
        }
        None
    }

    /// Dump every node's retained flight-recorder window and write the
    /// fleet manifest correlating them, keyed by logical `round`. The
    /// *first* fleet trigger owns `dir/MANIFEST.json` — later in-round
    /// triggers are no-ops, so the root incident's correlation is never
    /// overwritten (an explicit [`Cluster::trigger_fleet_dump`] still
    /// dumps the nodes). A no-op without [`Cluster::attach_recorders`].
    /// I/O failures are swallowed — postmortems are best-effort and must
    /// never perturb the round loop.
    fn fleet_dump(&mut self, trigger: DumpTrigger, round: u64) {
        let Some(dir) = self.fleet_dir.clone() else {
            return;
        };
        if !self.fleet_dumps.is_empty() {
            return;
        }
        let entries: Vec<(u32, Option<PathBuf>)> = self
            .nodes
            .iter()
            .map(|node| {
                let path = node
                    .server()
                    .recorder()
                    .and_then(|r| match r.trigger_dump(trigger) {
                        Ok(Some(p)) => Some(p),
                        // Empty ring, dump cap, or the node's own hook (e.g.
                        // its local fast-burn path) already dumped this kind:
                        // reuse that bundle so the fleet manifest still
                        // correlates it.
                        _ => r
                            .dumps()
                            .into_iter()
                            .find(|(t, _)| *t == trigger)
                            .map(|(_, p)| p),
                    });
                (node.id(), path)
            })
            .collect();
        if let Ok(path) = mzd_prof::write_fleet_manifest(&dir, trigger, round, &entries) {
            self.fleet_dumps.push((trigger, path));
        }
    }

    /// Merged fleet trace: the dispatcher tracer's spans followed by
    /// every node's, in node order, rendered as one Chrome
    /// trace-event JSON object straight from each tracer's store. `None`
    /// until [`Cluster::enable_tracing`].
    #[must_use]
    pub fn trace_chrome_json(&self) -> Option<String> {
        let mut tracers = Vec::with_capacity(self.nodes.len() + 1);
        tracers.push(self.tracer.as_ref()?);
        tracers.extend(self.nodes.iter().filter_map(|node| node.server().tracer()));
        Some(mzd_slo::render_chrome_json(&tracers))
    }

    /// The composed fleet guarantee this cluster enforces.
    #[must_use]
    pub fn guarantee(&self) -> &ClusterGuarantee {
        &self.guarantee
    }

    /// The configuration the fleet runs (outages include any lifted
    /// `ZoneFailure`).
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The capacity [`Cluster::submit`] admits against, as the last
    /// refresh (construction, `enable_health`, each round) set it: the
    /// composed [`ClusterGuarantee::fleet_capacity`] unless cache-aware
    /// admission raised a node's limit or health re-composed the fleet.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Streams hosted fleet-wide right now.
    #[must_use]
    pub fn active_streams(&self) -> usize {
        self.by_host.len()
    }

    /// Requests waiting in queues (plus any held unrouted).
    #[must_use]
    pub fn waiting(&self) -> usize {
        self.dispatcher.queued_total() + self.unrouted.len()
    }

    /// Rounds run so far.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Node `i`, for inspection.
    #[must_use]
    pub fn node(&self, i: u32) -> &ServerNode {
        &self.nodes[i as usize]
    }

    /// A point-in-time fleet summary.
    #[must_use]
    pub fn status(&self) -> ClusterStatus {
        ClusterStatus {
            round: self.round,
            nodes: self.cfg.nodes,
            live_nodes: self.lease.live_count(),
            active_streams: self.by_host.len(),
            waiting: self.waiting(),
            completed: self.completed,
            total_glitches: self.total_glitches,
            outage_glitches: self.outage_glitches,
            migrations: self.migrations_total,
        }
    }

    /// Submit a play-out request. Accepted requests are parked in the
    /// queue placement chose and admitted when their node pulls them;
    /// requests beyond the fleet's capacity (the spare rule over the
    /// nodes' effective limits, as of the last round) are rejected so
    /// the guarantee is never diluted.
    ///
    /// # Errors
    /// Currently infallible (the `Result` reserves room for workload
    /// validation); rejection is the `Ok(`[`SubmitOutcome::Rejected`]`)`
    /// case, not an error.
    pub fn submit(&mut self, object: ObjectSpec) -> Result<SubmitOutcome, ClusterError> {
        // The capacity consults the re-composed guarantee when health
        // is on: ejections debit it, and a frozen fleet (survivors
        // over-committed) rejects everything until it drains or heals.
        if self.committed() >= self.capacity {
            self.metrics.rejected.inc();
            return Ok(SubmitOutcome::Rejected {
                fleet_capacity: self.capacity,
            });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.metrics.submitted.inc();
        // Mint the stream's root span at submission: every host it
        // lands on adopts this context, so the whole fleet itinerary
        // is one causal chain under trace id `seq`.
        let ts = self.round * self.round_us();
        let root = self.tracer.as_mut().map(|tracer| {
            let root = tracer.root(seq);
            tracer.record("fleet.submit", "fleet", 0, seq, ts, 1, root, &[]);
            root
        });
        self.meta.insert(
            seq,
            StreamMeta {
                glitches: 0,
                migrations: 0,
                rounds_total: object.rounds,
                root,
                queued_at: root.map(|_| self.round),
            },
        );
        let node = self.route(Pending { seq, object });
        Ok(SubmitOutcome::Queued { seq, node })
    }

    /// Park `pending` in the queue placement picks, or hold it unrouted
    /// while no node is available. Returns the chosen node.
    fn route(&mut self, pending: Pending) -> Option<u32> {
        self.refresh_views();
        match self.dispatcher.route(pending, &self.views, &self.placement) {
            Ok(node) => Some(node),
            Err(p) => {
                self.unrouted.push(p);
                None
            }
        }
    }

    /// Record a dispatcher span (pid 0, tid = seq) under the stream's
    /// submission-time root. A no-op unless tracing is on.
    fn fleet_span(
        &mut self,
        seq: u64,
        name: &'static str,
        ts: u64,
        dur: u64,
        args: &[(&'static str, u64)],
    ) {
        let root = self.meta.get(&seq).and_then(|m| m.root);
        if let (Some(tracer), Some(root)) = (self.tracer.as_mut(), root) {
            let ctx = tracer.child(&root);
            tracer.record(name, "fleet", 0, seq, ts, dur, ctx, args);
        }
    }

    /// Whether node `i` is *operational* (not inside a scripted outage)
    /// during `round`. Liveness as the cluster believes it is the
    /// lease table's business; this is ground truth.
    fn is_operational(&self, i: u32, round: u64) -> bool {
        !self
            .cfg
            .outages
            .iter()
            .any(|o| o.node == i && o.covers(round))
    }

    /// Routing snapshot: availability is the *lease* view (the cluster
    /// routes on belief — a silent node keeps collecting queue entries
    /// until its lease expires, exactly the window the guarantee's
    /// outage charge pays for), minus health-ejected members (alive
    /// but excluded from routing until readmitted); headroom is under
    /// each node's effective limit as of the last round. Rebuilt in
    /// place, so only the first refresh allocates.
    fn refresh_views(&mut self) {
        let mut views = std::mem::take(&mut self.views);
        views.clear();
        views.extend(self.nodes.iter().map(|n| {
            let id = n.id();
            let server = n.server();
            let active = server.active_streams() as u32;
            let queued = self.dispatcher.queue_len(id) as u32;
            NodeView {
                node: id,
                available: self.lease.is_live(id) && !self.is_health_ejected(id),
                headroom: self.node_limits[id as usize]
                    .saturating_sub(active)
                    .saturating_sub(queued),
                min_disk_load: server.per_disk_load().iter().copied().min().unwrap_or(0),
            }
        }));
        self.views = views;
    }

    /// Finish bookkeeping for a stream that completed play-out.
    fn finish_stream(&mut self, seq: u64) -> ClusterCompletedStream {
        let meta = self.meta.remove(&seq).expect("completed stream has meta");
        self.completed += 1;
        ClusterCompletedStream {
            seq,
            glitches: meta.glitches,
            migrations: meta.migrations,
            rounds: meta.rounds_total,
        }
    }

    /// Evacuate node `from`: pull every hosted stream off it and
    /// requeue the unfinished ones onto the survivors (keeping their
    /// original sequence numbers, so they re-enter ahead of newer
    /// arrivals), then re-route its parked queue entries. Shared by
    /// lease expiry and health ejection — `span_name` labels which
    /// path fired in the stitched trace.
    fn evacuate_node(
        &mut self,
        from: u32,
        span_name: &'static str,
        round: u64,
        round_us: u64,
        report: &mut ClusterRoundReport,
    ) {
        let manifest = self.nodes[from as usize].evacuate();
        for e in manifest {
            let seq = self
                .by_host
                .remove(&(from, e.handle.id()))
                .expect("evacuated stream was hosted");
            let remaining = e.object.rounds - e.fragments_consumed;
            if remaining == 0 {
                let record = self.finish_stream(seq);
                report.completed.push(record);
                continue;
            }
            let meta = self.meta.get_mut(&seq).expect("evacuated stream meta");
            meta.migrations += 1;
            if self.tracer.is_some() {
                meta.queued_at = Some(round);
            }
            self.fleet_span(
                seq,
                span_name,
                round * round_us,
                1,
                &[("node", u64::from(from))],
            );
            let pending = Pending {
                seq,
                object: ObjectSpec {
                    rounds: remaining,
                    ..e.object
                },
            };
            self.migrations_total += 1;
            self.metrics.migrated_streams.inc();
            self.metrics.requeued.inc();
            if let Some(to) = self.route(pending) {
                let args = [("to", u64::from(to))];
                self.fleet_span(seq, "fleet.requeue", round * round_us, 1, &args);
                report.migrations.push(MigrationRecord {
                    seq,
                    from,
                    to,
                    remaining_rounds: remaining,
                });
            }
        }
        // Requests still parked on the evacuated node's queue re-route
        // too, keeping their sequence numbers (and hence their place in
        // line on the adopting queue).
        for pending in self.dispatcher.drain_node(from) {
            self.metrics.requeued.inc();
            self.route(pending);
        }
    }

    /// Advance the whole fleet one round. See the module docs for the
    /// phase order; every phase iterates nodes and streams in index
    /// order, so the loop is deterministic for any worker count.
    pub fn run_round(&mut self) -> ClusterRoundReport {
        let round = self.round;
        let round_us = self.round_us();
        let n = self.cfg.nodes;
        let operational: Vec<bool> = (0..n).map(|i| self.is_operational(i, round)).collect();
        let mut report = ClusterRoundReport {
            round,
            node_service_times: vec![Vec::new(); n as usize],
            ..ClusterRoundReport::default()
        };

        // 1. Revive members whose outage ended: fresh lease, empty
        // node, ready to pull again.
        for i in 0..n {
            if operational[i as usize] && !self.lease.is_live(i) {
                self.lease.revive(i, round);
                report.revived_nodes.push(i);
            }
        }

        // 2. Re-route requests held while the whole fleet was dark.
        for pending in std::mem::take(&mut self.unrouted) {
            self.route(pending);
        }

        // 3. Dispatch: live, operational, non-ejected nodes pull from
        // their queue front while their own controller admits. The pull
        // order (node index) is fixed, so admission is deterministic.
        for i in 0..n {
            if !operational[i as usize] || !self.lease.is_live(i) || self.is_health_ejected(i) {
                continue;
            }
            while self.dispatcher.peek(i).is_some() && self.nodes[i as usize].admits() {
                let Some(pending) = self.dispatcher.pull(i) else {
                    break;
                };
                // Hand the submission-time root to the adopting node:
                // its admit/round spans stitch under it.
                let meta = self.meta.get_mut(&pending.seq).expect("queued stream meta");
                let local_id = self.nodes[i as usize]
                    .try_open_traced(pending.object, meta.root, meta.migrations > 0)
                    .expect("the node's controller admits the stream");
                self.by_host.insert((i, local_id), pending.seq);
                let queued = meta.queued_at.take().unwrap_or(round);
                report.admitted += 1;
                self.metrics.admitted.inc();
                let (ts, dur) = (queued * round_us, (round - queued) * round_us);
                let args = [("node", u64::from(i))];
                self.fleet_span(pending.seq, "fleet.queue.wait", ts, dur, &args);
            }
        }

        // 3½. Hedge selection: each probated node's oldest hosted
        // stream gets its next round duplicated on the healthiest
        // spare (most headroom, lowest id on ties). Winners settle
        // after the step against the spare's actual round slack —
        // first-completion wins, priced like retry recovery.
        let mut hedges: Vec<(u64, u32)> = Vec::new();
        if self.health.is_some() {
            self.refresh_views();
        }
        if let Some(h) = self.health.as_ref() {
            let views = &self.views;
            for i in 0..n {
                if !h.detector.is_probated(i) || !operational[i as usize] || !self.lease.is_live(i)
                {
                    continue;
                }
                let Some((_, &victim)) = self.by_host.range((i, 0)..=(i, u64::MAX)).next() else {
                    continue;
                };
                let mut spare: Option<(u32, u32)> = None; // (headroom, node)
                for v in views {
                    if v.node == i
                        || !v.available
                        || !operational[v.node as usize]
                        || h.detector.is_probated(v.node)
                    {
                        continue;
                    }
                    // Strict `>` keeps the lowest node id on headroom ties.
                    if spare.map_or(true, |(best, _)| v.headroom > best) {
                        spare = Some((v.headroom, v.node));
                    }
                }
                if let Some((_, spare)) = spare {
                    hedges.push((victim, spare));
                }
            }
        }
        if let Some(h) = self.health.as_mut() {
            h.status.hedges_issued += hedges.len() as u64;
            h.metrics.hedges_issued.add(hedges.len() as u64);
        }

        // 4. Step every operational node, in parallel. Nodes are moved
        // into the worker pool and rejoin in node order; each owns its
        // RNG, so the fleet round is byte-identical at any job count.
        let stepped = mzd_par::par_map_owned(std::mem::take(&mut self.nodes), |mut node| {
            let r = if operational[node.id() as usize] {
                Some(node.server_mut().run_round())
            } else {
                None
            };
            (node, r)
        });
        let mut reports = Vec::with_capacity(stepped.len());
        self.nodes = Vec::with_capacity(stepped.len());
        for (node, r) in stepped {
            reports.push(r);
            self.nodes.push(node);
        }

        // 4½. Hedge settlement: a hedge wins iff the spare's observed
        // round slack (round length minus its slowest disk this round)
        // still covers the per-stream hedge cost after earlier hedges
        // on the same spare debited theirs. A winning hedge means the
        // duplicate round completed first, so the victim stream's
        // glitch this round — if any — is never charged.
        let mut covered: BTreeSet<u64> = BTreeSet::new();
        if let Some(h) = self.health.as_mut() {
            let round_length = self.cfg.node.round_length;
            let mut spare_slack: BTreeMap<u32, f64> = BTreeMap::new();
            for &(victim, spare) in &hedges {
                let slack = spare_slack.entry(spare).or_insert_with(|| {
                    reports[spare as usize].as_ref().map_or(0.0, |r| {
                        let worst = r
                            .disks
                            .iter()
                            .fold(0.0_f64, |acc, d| acc.max(d.service_time));
                        (round_length - worst).max(0.0)
                    })
                });
                if *slack >= h.hedge_cost {
                    *slack -= h.hedge_cost;
                    h.status.hedges_won += 1;
                    h.status.hedge_slack_debited += h.hedge_cost;
                    h.metrics.hedges_won.inc();
                    h.metrics.hedge_slack_debited.add(h.hedge_cost);
                    covered.insert(victim);
                }
            }
        }

        // 5. Fold node reports in node order: lease renewals, glitch
        // attribution, completions.
        for (i, node_report) in reports.into_iter().enumerate() {
            let i = i as u32;
            let Some(node_report) = node_report else {
                continue;
            };
            self.lease.renew(i, round);
            self.metrics.lease_renewals.inc();
            report.late_disks += node_report.disks.iter().filter(|d| d.late).count() as u32;
            // Feed the fleet observability plane: one service-time
            // sample per disk into the node's labeled sketch, merged
            // exactly at exposition time.
            let service_times: Vec<f64> =
                node_report.disks.iter().map(|d| d.service_time).collect();
            for &service_time in &service_times {
                self.sketches
                    .node_mut(i)
                    .record(SKETCH_SERVICE_TIME, service_time);
            }
            report.node_service_times[i as usize] = service_times;
            for local in node_report.glitched_streams {
                let seq = self.by_host[&(i, local)];
                if covered.contains(&seq) {
                    // The winning hedge delivered this stream's round
                    // from the spare: first-completion wins, no glitch.
                    continue;
                }
                self.meta
                    .get_mut(&seq)
                    .expect("hosted stream meta")
                    .glitches += 1;
                report.glitched_streams += 1;
                self.total_glitches += 1;
                self.metrics.glitches.inc();
            }
            for local in node_report.completed_streams {
                let seq = self
                    .by_host
                    .remove(&(i, local.id))
                    .expect("completed stream was hosted");
                let record = self.finish_stream(seq);
                report.completed.push(record);
            }
        }

        // 6. Outage charges: a stream on a silent host receives
        // nothing this round — an unconditional glitch the composed
        // bound pays for with its `ℓ/m` term.
        for i in 0..n {
            if operational[i as usize] {
                continue;
            }
            let seqs: Vec<u64> = self
                .by_host
                .range((i, 0)..=(i, u64::MAX))
                .map(|(_, &seq)| seq)
                .collect();
            for seq in seqs {
                self.meta
                    .get_mut(&seq)
                    .expect("hosted stream meta")
                    .glitches += 1;
                report.outage_glitches += 1;
            }
        }
        // Migrated streams waiting in a queue are also mid play-out
        // and also receive nothing: a round in a queue is a glitch
        // round, the latency the guarantee's `REQUEUE_SLACK_ROUNDS`
        // charge budgets for. Fresh arrivals are merely postponed, not
        // glitched, and are not charged.
        for seq in self.dispatcher.queued_seqs() {
            let meta = self.meta.get_mut(&seq).expect("queued stream meta");
            if meta.migrations > 0 {
                meta.glitches += 1;
                report.outage_glitches += 1;
            }
        }
        self.outage_glitches += report.outage_glitches;
        self.total_glitches += report.outage_glitches;
        self.metrics.glitches.add(report.outage_glitches);
        self.metrics.glitches_outage.add(report.outage_glitches);

        // 7. Lease expiry: evacuate each newly failed node and requeue
        // its streams (original seq ⇒ ahead of newer arrivals) and its
        // queued requests onto the survivors.
        for failed in self.lease.expire(round) {
            report.failed_nodes.push(failed);
            self.metrics.lease_expirations.inc();
            self.metrics.nodes_failed.inc();
            self.metrics.migrations.inc();
            self.evacuate_node(failed, "fleet.lease.expire", round, round_us, &mut report);
        }

        // 7½. Health: feed the detector one sample per node — its
        // *per-stream* service time this round (the node's sweep total
        // over its hosted streams, from the same per-disk samples the
        // observability sketches record). Normalizing by load is what
        // makes the fleet baseline comparable: an honest node serving
        // 25 streams spends more wall time per round than one serving
        // 15, and raw sweep times would flag the busy node instead of
        // the gray one. Silent, idle, and ejected nodes contribute
        // nothing. Then act on the verdicts (ejection migrates streams
        // through the same requeue path lease expiry uses) and
        // re-compose the fleet guarantee with the survivors.
        if self.health.is_some() {
            let samples: Vec<Option<f64>> = (0..n)
                .map(|i| {
                    if self.is_health_ejected(i) {
                        return None;
                    }
                    let sweep: f64 = report.node_service_times[i as usize].iter().sum();
                    let load: u32 = self.nodes[i as usize].server().per_disk_load().iter().sum();
                    // A zero sweep or an empty node carries no signal
                    // (and an idle-heavy fleet must not collapse the
                    // baseline median to zero).
                    (sweep > 0.0 && load > 0).then(|| sweep / f64::from(load))
                })
                .collect();
            let outcome = {
                let h = self.health.as_mut().expect("health checked above");
                let outcome = h.detector.observe(round, &samples);
                h.status.probations += outcome.probated.len() as u64;
                h.metrics.probations.add(outcome.probated.len() as u64);
                h.status.readmissions += outcome.readmitted.len() as u64;
                h.metrics.readmissions.add(outcome.readmitted.len() as u64);
                h.status.clears += outcome.cleared.len() as u64;
                h.metrics.clears.add(outcome.cleared.len() as u64);
                h.status.ejections += outcome.ejected.len() as u64;
                h.metrics.ejections.add(outcome.ejected.len() as u64);
                h.status.max_suspicion = outcome.max_suspicion;
                h.metrics.suspicion_max.set(outcome.max_suspicion);
                outcome
            };
            // Ejection is not a lease event: the node stays alive and
            // keeps renewing (warm for readmission), but its streams
            // migrate to the survivors now.
            for &ejected in &outcome.ejected {
                self.metrics.migrations.inc();
                self.evacuate_node(ejected, "fleet.health.eject", round, round_us, &mut report);
            }
            let committed = self.committed();
            let h = self.health.as_mut().expect("health checked above");
            let ejected_count = h.detector.ejected_count();
            h.status.recomposed = mzd_health::recompose(
                n,
                u64::from(self.guarantee.node_capacity),
                self.guarantee.p_error_stream,
                ejected_count,
                committed,
            );
            #[allow(clippy::cast_precision_loss)]
            h.metrics
                .fleet_capacity
                .set(h.status.recomposed.effective_capacity as f64);
            h.metrics
                .degrade_rung
                .set(f64::from(h.status.recomposed.degrade_rung));
            h.metrics
                .admission_frozen
                .set(f64::from(u8::from(h.status.recomposed.frozen)));
            h.metrics
                .nodes_probation
                .set(f64::from(h.detector.probation_count()));
            h.metrics.nodes_ejected.set(f64::from(ejected_count));
            if !outcome.ejected.is_empty() {
                self.fleet_dump(DumpTrigger::HealthEjection, round);
            }
        }

        // 8. The capacity the next submissions see, gauges and the round
        // counter.
        self.refresh_capacity();
        self.metrics.streams_active.set(self.by_host.len() as f64);
        self.metrics.streams_waiting.set(self.waiting() as f64);
        self.metrics
            .nodes_available
            .set(f64::from(self.lease.live_count()));
        self.metrics
            .queue_depth
            .record(self.dispatcher.queued_total() as f64);
        #[allow(clippy::cast_precision_loss)]
        for i in 0..n {
            self.sketches
                .node_mut(i)
                .record(SKETCH_QUEUE_DEPTH, self.dispatcher.queue_len(i) as f64);
        }

        // Correlated fleet postmortems: fleet-level triggers capture
        // every node's retained window around the same logical round.
        if !report.failed_nodes.is_empty() {
            self.fleet_dump(DumpTrigger::LeaseExpiryStorm, round);
        }
        if report
            .completed
            .iter()
            .any(|c| c.glitches >= self.guarantee.g)
        {
            self.fleet_dump(DumpTrigger::BudgetBreach, round);
        }
        if self
            .nodes
            .iter()
            .any(|node| node.server().slo_status().is_some_and(|s| s.alert_active))
        {
            self.fleet_dump(DumpTrigger::SloFastBurn, round);
        }

        self.round += 1;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_object(rounds: u32) -> ObjectSpec {
        ObjectSpec::new(
            "clip",
            mzd_workload::SizeDistribution::paper_default(),
            rounds,
        )
        .unwrap()
    }

    #[test]
    fn nodes_share_one_model_solve() {
        // A gray fault profile makes the per-node configs differ (only
        // the gray node keeps its shape); the model they imply does not.
        let mut cfg = ClusterConfig::paper_reference(4, 2).unwrap();
        cfg.node.faults = Some(mzd_fault::FaultConfig::preset("graynode").unwrap());
        let fleet = Cluster::new(cfg, 3).unwrap();
        let tables = fleet.node(0).server().tables();
        for i in 0..4 {
            let server = fleet.node(i).server();
            assert!(Arc::ptr_eq(tables, server.tables()), "node {i}");
            // Each node enforces the composed cap itself.
            assert_eq!(
                server.admission().per_disk_limit(),
                fleet.guarantee().n_star
            );
        }
        // One tables object, held by the nodes alone: no node solved a
        // copy of its own, and the composition read the same limit.
        assert_eq!(Arc::strong_count(tables), 4);
        assert_eq!(fleet.guarantee().n_max_single, tables.per_disk_limit());
        assert_eq!(tables.per_disk_limit(), 28);
    }

    #[test]
    fn submit_round_trip_admits_and_completes() {
        let cfg = ClusterConfig::paper_reference(4, 2).unwrap();
        let mut fleet = Cluster::new(cfg, 11).unwrap();
        let out = fleet.submit(small_object(3)).unwrap();
        let SubmitOutcome::Queued { seq, node } = out else {
            panic!("first submit must queue, got {out:?}");
        };
        assert_eq!(seq, 0);
        assert!(node.is_some());
        let r0 = fleet.run_round();
        assert_eq!(r0.admitted, 1);
        assert_eq!(fleet.active_streams(), 1);
        let r1 = fleet.run_round();
        let r2 = fleet.run_round();
        assert_eq!(r2.completed.len(), 1);
        assert_eq!(r2.completed[0].seq, 0);
        assert_eq!(r2.completed[0].rounds, 3);
        assert_eq!(fleet.active_streams(), 0);
        let completed = [r0, r1, r2].map(|r| r.completed.len());
        assert_eq!(completed, [0, 0, 1]);
        assert_eq!(fleet.status().completed, 1);
    }

    #[test]
    fn fleet_capacity_rejects_beyond_the_composed_cap() {
        let cfg = ClusterConfig::paper_reference(2, 1).unwrap();
        let mut fleet = Cluster::new(cfg, 3).unwrap();
        let cap = fleet.guarantee().fleet_capacity;
        assert!(cap > 0);
        for _ in 0..cap {
            assert!(matches!(
                fleet.submit(small_object(50)).unwrap(),
                SubmitOutcome::Queued { .. }
            ));
        }
        assert_eq!(
            fleet.submit(small_object(50)).unwrap(),
            SubmitOutcome::Rejected {
                fleet_capacity: cap
            }
        );
        // Completion frees capacity again.
        let mut fleet2 = Cluster::new(ClusterConfig::paper_reference(2, 1).unwrap(), 3).unwrap();
        assert!(matches!(
            fleet2.submit(small_object(1)).unwrap(),
            SubmitOutcome::Queued { .. }
        ));
        fleet2.run_round();
        assert_eq!(fleet2.active_streams(), 0);
    }

    #[test]
    fn zone_failure_scenario_lifts_to_a_node_outage() {
        let mut cfg = ClusterConfig::paper_reference(4, 1).unwrap();
        let mut faults = mzd_fault::FaultConfig::preset("zonefail").unwrap();
        faults.profile.scenario = ChaosScenario::ZoneFailure {
            zone: 6,
            start: 5,
            rounds: 10,
            factor: 20.0,
        };
        cfg.node.faults = Some(faults);
        let fleet = Cluster::new(cfg, 1).unwrap();
        assert_eq!(
            fleet.config().outages,
            vec![NodeOutage {
                node: 2, // 6 % 4
                start: 5,
                rounds: 10,
            }]
        );
        // The disks keep the base rates but not the zone schedule.
        let nf = fleet.config().node.faults.as_ref().unwrap();
        assert_eq!(nf.profile.scenario, ChaosScenario::None);
        assert!(nf.profile.p_media > 0.0);
    }

    #[test]
    fn one_node_keeps_its_zone_failure_on_the_disks() {
        // `zonefail` slows reads of zone 0 twentyfold from round 200;
        // with no node to adopt the streams, the failure stays on the
        // disks and the node overruns instead of going silent.
        let mut cfg = ClusterConfig::paper_reference(1, 1).unwrap();
        cfg.node.faults = Some(mzd_fault::FaultConfig::preset("zonefail").unwrap());
        let mut fleet = Cluster::new(cfg.clone(), 23).unwrap();
        assert_eq!(
            *fleet.config(),
            cfg,
            "no outage lifted, no scenario stripped"
        );
        for _ in 0..fleet.guarantee().fleet_capacity {
            fleet.submit(small_object(10_000)).unwrap();
        }
        let reports: Vec<_> = (0..300).map(|_| fleet.run_round()).collect();
        assert!(reports
            .iter()
            .all(|r| r.failed_nodes.is_empty() && r.outage_glitches == 0));
        assert!(reports[200..].iter().any(|r| r.late_disks > 0));
    }

    #[test]
    fn failed_node_streams_requeue_ahead_and_finish_elsewhere() {
        let mut cfg = ClusterConfig::paper_reference(3, 1).unwrap();
        cfg.lease_rounds = 2;
        // Node 1 goes dark from round 4, long enough to expire its lease.
        cfg.outages.push(NodeOutage {
            node: 1,
            start: 4,
            rounds: 50,
        });
        let mut fleet = Cluster::new(cfg, 9).unwrap();
        // Seed enough streams that every node hosts some.
        for _ in 0..24 {
            fleet.submit(small_object(200)).unwrap();
        }
        for _ in 0..4 {
            fleet.run_round();
        }
        let victim_streams = fleet.node(1).server().active_streams();
        assert!(victim_streams > 0, "node 1 must host streams before dying");
        // Lease = 2: silent at rounds 4 and 5, declared failed at
        // round 5 (renewed last at round 3, lease runs to 3 + 2 = 5).
        let mut failed_round = None;
        let mut migrations = Vec::new();
        for _ in 0..4 {
            let r = fleet.run_round();
            if !r.failed_nodes.is_empty() {
                failed_round = Some(r.round);
                migrations = r.migrations.clone();
            }
        }
        assert_eq!(failed_round, Some(5), "failure must land at lease expiry");
        assert_eq!(fleet.node(1).server().active_streams(), 0);
        assert_eq!(migrations.len(), victim_streams);
        for m in &migrations {
            assert_eq!(m.from, 1);
            assert_ne!(m.to, 1);
            assert!(m.remaining_rounds > 0);
        }
        // Migrated streams carried their outage charges.
        let status = fleet.status();
        assert!(status.outage_glitches > 0);
        assert_eq!(status.migrations, victim_streams as u64);
    }

    #[test]
    fn migrated_streams_are_charged_their_silent_and_queued_rounds() {
        // A light, fault-free fleet (no disk runs late), so every glitch
        // is an outage charge: each round a stream sits on the silent
        // host, and each round it waits in a queue after it moved.
        let mut cfg = ClusterConfig::paper_reference(3, 1).unwrap();
        cfg.lease_rounds = 2;
        cfg.outages.push(NodeOutage {
            node: 1,
            start: 4,
            rounds: 50,
        });
        let mut fleet = Cluster::new(cfg.clone(), 9).unwrap();
        for _ in 0..fleet.capacity() {
            fleet.submit(small_object(80)).unwrap();
        }
        let (mut silent, mut queued) = (BTreeMap::<u64, u64>::new(), BTreeMap::new());
        let mut moved_before: BTreeSet<u64> = BTreeSet::new();
        let (mut charged, mut migrated, mut completed) = (0, Vec::new(), Vec::new());
        for round in 0..200 {
            for (&(node, _), &seq) in &fleet.by_host {
                if cfg
                    .outages
                    .iter()
                    .any(|o| o.node == node && o.covers(round))
                {
                    *silent.entry(seq).or_default() += 1;
                }
            }
            let r = fleet.run_round();
            assert_eq!(r.glitched_streams, 0, "round {round}: a disk ran late");
            charged += r.outage_glitches;
            // The queue charge falls before the round's own migrations.
            for seq in fleet.dispatcher.queued_seqs() {
                if moved_before.contains(&seq) {
                    *queued.entry(seq).or_default() += 1;
                }
            }
            moved_before.extend(r.migrations.iter().map(|m| m.seq));
            migrated.extend(r.migrations);
            completed.extend(r.completed);
            // Keep the fleet at capacity. The spare's share still fits
            // on the survivors, so a moved stream is admitted at the
            // next dispatch here and its queued rounds read 0.
            while let SubmitOutcome::Queued { .. } = fleet.submit(small_object(80)).unwrap() {}
        }
        assert!(!migrated.is_empty(), "the outage must migrate streams");
        let mut total = 0;
        for m in &migrated {
            let record = completed
                .iter()
                .find(|c| c.seq == m.seq)
                .expect("every migrated stream finishes within the run");
            let expect = silent[&m.seq] + queued.get(&m.seq).copied().unwrap_or(0);
            assert_eq!(record.glitches, expect, "stream {}", m.seq);
            assert_eq!(record.migrations, 1);
            total += expect;
        }
        // Every charge of the run belongs to a migrated stream.
        assert_eq!(charged, total);
        assert_eq!(fleet.status().outage_glitches, total);
        for c in completed.iter().filter(|c| c.migrations == 0) {
            assert_eq!(c.glitches, 0, "stream {} never moved", c.seq);
        }
    }

    #[test]
    fn revived_node_pulls_again_after_outage() {
        let mut cfg = ClusterConfig::paper_reference(2, 1).unwrap();
        cfg.lease_rounds = 1;
        cfg.outages.push(NodeOutage {
            node: 0,
            start: 2,
            rounds: 3,
        });
        let mut fleet = Cluster::new(cfg, 4).unwrap();
        for _ in 0..6 {
            fleet.submit(small_object(100)).unwrap();
        }
        let mut revived_at = None;
        for _ in 0..8 {
            let r = fleet.run_round();
            if !r.revived_nodes.is_empty() {
                revived_at = Some((r.round, r.revived_nodes.clone()));
            }
        }
        assert_eq!(revived_at, Some((5, vec![0])), "outage [2,5) revives at 5");
        assert_eq!(fleet.status().live_nodes, 2);
    }

    fn failing_fleet_with(seed: u64, setup: impl Fn(&mut Cluster)) -> Cluster {
        let mut cfg = ClusterConfig::paper_reference(3, 1).unwrap();
        cfg.lease_rounds = 2;
        cfg.outages.push(NodeOutage {
            node: 1,
            start: 4,
            rounds: 50,
        });
        let mut fleet = Cluster::new(cfg, seed).unwrap();
        setup(&mut fleet);
        for _ in 0..24 {
            fleet.submit(small_object(200)).unwrap();
        }
        fleet
    }

    fn failing_fleet(seed: u64) -> Cluster {
        failing_fleet_with(seed, |_| ())
    }

    #[test]
    fn tracing_stitches_a_migrated_stream_across_nodes() {
        let run = || {
            let mut fleet = failing_fleet_with(9, |f| f.enable_tracing().unwrap());
            let mut migrated = Vec::new();
            for _ in 0..10 {
                let r = fleet.run_round();
                migrated.extend(r.migrations);
            }
            (fleet, migrated)
        };
        let (fleet, migrated) = run();
        assert!(!migrated.is_empty(), "the outage must migrate streams");
        let json = fleet.trace_chrome_json().unwrap();
        for name in [
            "fleet.submit",
            "fleet.queue.wait",
            "fleet.lease.expire",
            "fleet.requeue",
        ] {
            assert!(json.contains(name), "missing {name} span");
        }
        // The whole chain shares the stream's seq as trace id, with
        // spans on both hosts in their disjoint rebased id ranges.
        let m = &migrated[0];
        let spans_on = |node: u32| {
            let base = node_span_base(node);
            fleet
                .node(node)
                .server()
                .tracer()
                .unwrap()
                .spans()
                .filter(|e| e.ctx.trace == m.seq)
                .map(|e| e.ctx.span)
                .filter(|&s| s > base && s <= base + (1 << NODE_SPAN_BASE_SHIFT))
                .count()
        };
        assert!(spans_on(m.from) > 0, "origin host recorded no spans");
        assert!(spans_on(m.to) > 0, "adopting host recorded no spans");
        let fleet_spans = fleet
            .tracer
            .as_ref()
            .unwrap()
            .spans()
            .filter(|e| e.ctx.trace == m.seq)
            .count();
        assert!(fleet_spans >= 4, "submit/queue/expire/requeue spans");
        // Byte-stable across reruns.
        assert_eq!(json, run().0.trace_chrome_json().unwrap());
    }

    #[test]
    fn sketches_record_service_time_and_queue_depth_per_node() {
        let mut fleet = failing_fleet(13);
        for _ in 0..6 {
            fleet.run_round();
        }
        let sketches = fleet.sketches();
        let per_node: u64 = (0..3)
            .map(|i| {
                sketches
                    .node(i)
                    .sketch(SKETCH_SERVICE_TIME)
                    .unwrap()
                    .count()
            })
            .sum();
        assert!(per_node > 0, "service-time sketches must fill");
        assert_eq!(sketches.merged(SKETCH_SERVICE_TIME).count(), per_node);
        // Queue depth: one sample per node per round.
        assert_eq!(sketches.merged(SKETCH_QUEUE_DEPTH).count(), 3 * 6);
        let text = sketches.render_prom();
        assert!(text.contains("mzd_cluster_node_service_time_bucket{node=\"0\""));
        assert!(text.contains("mzd_cluster_node_service_time_fleet{quantile=\"0.99\"}"));
    }

    #[test]
    fn lease_expiry_storm_dumps_a_correlated_fleet_bundle() {
        let dir = std::env::temp_dir().join(format!("mzd_cluster_pm_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut fleet = failing_fleet(9);
        fleet.attach_recorders(&RecorderSettings::new(&dir));
        let mut failed = false;
        for _ in 0..10 {
            failed |= !fleet.run_round().failed_nodes.is_empty();
        }
        assert!(failed, "the outage must expire a lease");
        let dumps = fleet.fleet_dumps();
        assert!(
            dumps
                .iter()
                .any(|(t, _)| *t == DumpTrigger::LeaseExpiryStorm),
            "missing lease-expiry-storm fleet dump: {dumps:?}"
        );
        let bundle = mzd_prof::read_fleet_bundle(&dir).unwrap();
        assert_eq!(bundle.trigger, "lease.expiry_storm");
        assert_eq!(bundle.round, 5, "keyed by the logical failure round");
        assert_eq!(bundle.entries.len(), 3);
        // Every node that ran rounds contributed a verified bundle
        // echoing its node id.
        for (i, node_bundle) in bundle.nodes.iter().enumerate() {
            let b = node_bundle.as_ref().expect("every node recorded rounds");
            assert_eq!(b.config_value("node"), Some(i.to_string().as_str()));
        }
        // A forced manual dump (e.g. --dump-on-exit) after the incident
        // writes no fleet manifest (the storm keeps MANIFEST.json) but
        // still dumps every node, once per trigger kind.
        assert!(fleet.trigger_fleet_dump(DumpTrigger::Manual).is_none());
        let manual = |fleet: &Cluster| {
            (0..3)
                .map(|i| {
                    let dumps = fleet.node(i).server().recorder().unwrap().dumps();
                    dumps
                        .iter()
                        .filter(|(t, _)| *t == DumpTrigger::Manual)
                        .count()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(manual(&fleet), [1, 1, 1], "every node dumps `manual`");
        assert!(fleet.trigger_fleet_dump(DumpTrigger::Manual).is_none());
        assert_eq!(manual(&fleet), [1, 1, 1], "deduped per trigger kind");
        assert_eq!(fleet.fleet_dumps().len(), 1);
        let bundle = mzd_prof::read_fleet_bundle(&dir).unwrap();
        assert_eq!(bundle.trigger, "lease.expiry_storm");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lease_debit_infeasibility_errors_on_every_constructor_path() {
        // ℓ = 10 + 2 = 12 consumes the whole g = 12 budget.
        let mut cfg = ClusterConfig::paper_reference(2, 1).unwrap();
        cfg.lease_rounds = 10;
        let tables = ModelTables::for_config(&cfg.node).unwrap();
        // Direct composition.
        let err = ClusterGuarantee::compose(&tables, 2, 1, cfg.lease_rounds).unwrap_err();
        assert!(
            err.to_string().contains("consumes the glitch budget"),
            "{err}"
        );
        // Cluster::new — which builds its AdmissionController via
        // with_limit — must surface the same error, never handing
        // with_limit a degenerate zero limit.
        let err = Cluster::new(cfg.clone(), 1).unwrap_err();
        assert!(
            err.to_string().contains("consumes the glitch budget"),
            "{err}"
        );
        // Far past the budget errs the same way (no panic, no wrap).
        cfg.lease_rounds = 40;
        let err = Cluster::new(cfg.clone(), 1).unwrap_err();
        assert!(
            err.to_string().contains("consumes the glitch budget"),
            "{err}"
        );
        // The ℓ = g − 1 boundary still composes, handing with_limit a
        // positive per-disk limit.
        cfg.lease_rounds = 9;
        let fleet = Cluster::new(cfg, 1).unwrap();
        assert!(fleet.guarantee().n_star >= 1);
        assert_eq!(fleet.guarantee().g_effective, 1);
    }

    #[test]
    fn health_on_a_clean_fleet_is_quiet_and_byte_identical() {
        let run = |health: bool| {
            let cfg = ClusterConfig::paper_reference(4, 1).unwrap();
            let mut fleet = Cluster::new(cfg, 11).unwrap();
            if health {
                fleet.enable_health(HealthConfig::default()).unwrap();
            }
            for _ in 0..12 {
                fleet.submit(small_object(60)).unwrap();
            }
            let reports: Vec<ClusterRoundReport> = (0..80).map(|_| fleet.run_round()).collect();
            (reports, fleet.status())
        };
        // A passive detector perturbs nothing: the health-enabled run
        // is byte-identical to the plain one.
        assert_eq!(run(false), run(true));

        let cfg = ClusterConfig::paper_reference(4, 1).unwrap();
        let mut fleet = Cluster::new(cfg, 11).unwrap();
        fleet.enable_health(HealthConfig::default()).unwrap();
        for _ in 0..12 {
            fleet.submit(small_object(60)).unwrap();
        }
        for _ in 0..80 {
            fleet.run_round();
        }
        let s = fleet.health_status().unwrap();
        assert_eq!(s.probations, 0, "clean fleet must stay healthy: {s:?}");
        assert_eq!(s.ejections, 0);
        assert_eq!(s.hedges_issued, 0);
        assert!(!s.recomposed.frozen);
        assert_eq!(s.recomposed.degrade_rung, 0);
        assert_eq!(
            s.recomposed.effective_capacity,
            fleet.guarantee().fleet_capacity
        );
    }

    #[test]
    fn creeping_gray_node_is_probated_hedged_then_ejected_and_readmitted() {
        let mut cfg = ClusterConfig::paper_reference(8, 1).unwrap();
        cfg.node.faults = Some(mzd_fault::FaultConfig::parse("gray=creep:20:400:2.0").unwrap());
        cfg.gray_node = 2;
        let mut fleet = Cluster::new(cfg, 5).unwrap();
        fleet
            .enable_health(HealthConfig {
                warmup_rounds: 8,
                readmit_after: 50,
                ..HealthConfig::default()
            })
            .unwrap();
        let full_capacity = fleet.guarantee().fleet_capacity;
        for _ in 0..full_capacity {
            assert!(matches!(
                fleet.submit(small_object(400)).unwrap(),
                SubmitOutcome::Queued { .. }
            ));
        }
        let mut min_effective = full_capacity;
        let mut max_rung = 0u8;
        for _ in 0..280 {
            fleet.run_round();
            let s = fleet.health_status().unwrap();
            min_effective = min_effective.min(s.recomposed.effective_capacity);
            max_rung = max_rung.max(s.recomposed.degrade_rung);
        }
        let s = fleet.health_status().unwrap();
        assert!(s.probations >= 1, "creep must raise suspicion: {s:?}");
        assert!(s.ejections >= 1, "creep must eject the gray node: {s:?}");
        assert!(
            s.hedges_issued >= 1,
            "probation rounds must hedge the oldest stream: {s:?}"
        );
        assert!(s.hedges_won <= s.hedges_issued);
        // Hedge accounting: every win debits exactly one hedge cost
        // (round_length / node_capacity) from spare round slack.
        let hedge_cost = 1.0 / f64::from(fleet.guarantee().node_capacity);
        let expected = s.hedges_won as f64 * hedge_cost;
        assert!(
            (s.hedge_slack_debited - expected).abs() < 1e-9,
            "slack ledger {} != {} wins x {hedge_cost}",
            s.hedge_slack_debited,
            s.hedges_won
        );
        // The ejected member holds no streams; the survivors took them
        // through the same requeue path lease expiry uses.
        assert!(
            s.readmissions >= 1,
            "backed-off readmission trial must fire within 280 rounds: {s:?}"
        );
        // Re-composed guarantee: while the node was out, capacity was
        // debited and the degrade rung raised. (The end state may have
        // restored both if a readmission trial is in flight — that is
        // the self-healing working, not a failure.)
        assert!(min_effective < full_capacity);
        assert!(max_rung >= 1);
        assert_eq!(s.recomposed.members, 8 - s.ejected_nodes);
        // No lease ever expired: ejection is not a lease event, and the
        // ejected node keeps renewing while excluded from dispatch.
        assert_eq!(fleet.status().live_nodes, 8);
    }

    #[test]
    fn ejection_that_overcommits_the_survivors_freezes_admission() {
        let mut cfg = ClusterConfig::paper_reference(3, 1).unwrap();
        cfg.node.faults = Some(mzd_fault::FaultConfig::parse("gray=slow:2.5").unwrap());
        cfg.gray_node = 0;
        let mut fleet = Cluster::new(cfg, 7).unwrap();
        fleet
            .enable_health(HealthConfig {
                warmup_rounds: 6,
                ..HealthConfig::default()
            })
            .unwrap();
        let cap = fleet.guarantee().fleet_capacity;
        for _ in 0..cap {
            fleet.submit(small_object(600)).unwrap();
        }
        for _ in 0..60 {
            fleet.run_round();
        }
        let s = fleet.health_status().unwrap();
        assert!(s.ejections >= 1, "persistent slow node must eject: {s:?}");
        assert_eq!(
            fleet.node(0).server().active_streams(),
            0,
            "ejected node drained"
        );
        // Two survivors re-compose to one serving member + one spare:
        // the committed load no longer fits, so admission freezes.
        assert!(s.recomposed.frozen, "{s:?}");
        assert_eq!(s.recomposed.degrade_rung, 2);
        assert_eq!(
            fleet.submit(small_object(10)).unwrap(),
            SubmitOutcome::Rejected { fleet_capacity: 0 }
        );
    }

    #[test]
    fn rounds_are_deterministic_for_a_fixed_seed() {
        let run = || {
            let mut cfg = ClusterConfig::paper_reference(4, 2).unwrap();
            cfg.outages.push(NodeOutage {
                node: 2,
                start: 3,
                rounds: 20,
            });
            let mut fleet = Cluster::new(cfg, 77).unwrap();
            let mut log = Vec::new();
            for i in 0..30 {
                if i % 2 == 0 {
                    fleet.submit(small_object(12)).unwrap();
                }
                log.push(fleet.run_round());
            }
            (log, fleet.status())
        };
        assert_eq!(run(), run());
    }
}
