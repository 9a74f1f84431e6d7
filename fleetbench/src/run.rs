//! One pass: bring a cold fleet up, serve the workload's rounds, and
//! fold every round report into the digest the checks compare.
//!
//! The calls into the program are the ones `mzd serve --nodes` makes:
//! `Cluster::new`, `enable_*`, `submit`, `run_round`, and the
//! exposition renders. Each is wrapped in an `mzd_prof::phase` guard,
//! which is inert (one atomic load) unless the traced run switched the
//! profiler on. The benchmark's own per-round work (input generation,
//! digest folding) sits in a `bench.bookkeeping` phase so the ledger closes.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use mzd_cluster::{Cluster, ClusterRoundReport, SubmitOutcome};
use mzd_prof::phase;

use crate::workload::{Arrivals, Inputs, Shape};

/// Optional layers a pass can leave off, for the marginal-cost runs.
#[derive(Debug, Clone, Copy)]
pub struct Layers {
    pub tracing: bool,
    pub recorders: bool,
}

impl Layers {
    pub fn of(shape: &Shape) -> Self {
        Self {
            tracing: shape.operator_stack,
            recorders: shape.operator_stack,
        }
    }
}

/// What one pass measured and observed.
pub struct Pass {
    /// `Cluster::new` through the initial submissions.
    pub setup: Duration,
    /// Round 0 through the last round, submissions and renders included.
    pub timed: Duration,
    /// Host time of each `run_round` call.
    pub round_times: Vec<Duration>,
    pub rounds: u64,
    /// Stream-rounds the fleet served.
    pub stream_rounds: u64,
    pub submitted: u64,
    pub refused: u64,
    /// Submissions that returned an error.
    pub errors: u64,
    pub completed: u64,
    pub hosted: u64,
    pub waiting: u64,
    pub host_glitches: u64,
    pub outage_glitches: u64,
    /// The composed per-round glitch bound admission enforces.
    pub p_glitch_round: f64,
    pub n_star: u32,
    pub fleet_capacity: u64,
    /// FNV-1a chain over every round report.
    pub digest: u64,
    /// Registry counters and histogram sums (`<name>.sum`): deltas over
    /// set-up (`setup.<name>`) and over the rounds (`<name>`).
    pub counts: BTreeMap<String, f64>,
    pub health: Option<mzd_cluster::HealthStatus>,
    pub trace_spans: u64,
    pub trace_dropped: u64,
}

impl Pass {
    /// Glitched stream-rounds (host glitches plus outage charges) over
    /// stream-rounds.
    pub fn glitch_rate(&self) -> f64 {
        (self.host_glitches + self.outage_glitches) as f64 / self.stream_rounds.max(1) as f64
    }

    pub fn stream_rounds_per_s(&self) -> f64 {
        self.stream_rounds as f64 / self.timed.as_secs_f64()
    }

    /// A registry delta over the rounds; 0 when the metric never
    /// registered.
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// A registry delta over set-up and rounds together.
    pub fn total(&self, name: &str) -> f64 {
        self.count(&format!("setup.{name}")) + self.count(name)
    }
}

fn registry_totals() -> BTreeMap<String, f64> {
    let snap = mzd_telemetry::global().snapshot();
    let mut out: BTreeMap<String, f64> = snap
        .counters
        .into_iter()
        .map(|(k, v)| (k, v as f64))
        .collect();
    for (k, h) in snap.histograms {
        out.insert(format!("{k}.sum"), h.sum);
    }
    out
}

/// `after - before` per name, with set-up deltas under `setup.`.
fn deltas(
    before: &BTreeMap<String, f64>,
    setup: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    let at = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let mut out = BTreeMap::new();
    for k in after.keys() {
        out.insert(format!("setup.{k}"), at(setup, k) - at(before, k));
        out.insert(k.clone(), at(after, k) - at(setup, k));
    }
    out
}

/// Fold one round report into the digest chain: admitted, glitched,
/// outage charges, completions, migrations, late disks, and every
/// per-disk service time.
fn fold(digest: u64, report: &ClusterRoundReport, buf: &mut Vec<u8>) -> u64 {
    buf.clear();
    buf.extend_from_slice(&digest.to_le_bytes());
    for v in [
        report.round,
        report.admitted,
        report.glitched_streams,
        report.outage_glitches,
        u64::from(report.late_disks),
    ] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    for c in &report.completed {
        buf.extend_from_slice(&c.seq.to_le_bytes());
        buf.extend_from_slice(&c.glitches.to_le_bytes());
    }
    for m in &report.migrations {
        buf.extend_from_slice(&m.seq.to_le_bytes());
        buf.extend_from_slice(&m.from.to_le_bytes());
        buf.extend_from_slice(&m.to.to_le_bytes());
    }
    for node in &report.node_service_times {
        buf.extend_from_slice(&(node.len() as u64).to_le_bytes());
        for t in node {
            buf.extend_from_slice(&t.to_bits().to_le_bytes());
        }
    }
    mzd_prof::fnv1a64(buf)
}

/// Submission tallies of one pass.
#[derive(Default)]
struct Tally {
    submitted: u64,
    refused: u64,
    errors: u64,
}

fn submit(fleet: &mut Cluster, inputs: &mut Inputs, tally: &mut Tally) {
    let object = {
        let _p = phase("bench.bookkeeping");
        inputs.next_object()
    };
    let outcome = {
        let _p = phase("cluster.submit");
        fleet.submit(object)
    };
    tally.submitted += 1;
    match outcome {
        Ok(SubmitOutcome::Rejected { .. }) => tally.refused += 1,
        Ok(SubmitOutcome::Queued { .. }) => {}
        Err(_) => tally.errors += 1,
    }
}

/// Run one pass of `shape` on `seed` from a cold fleet; with `rounds`
/// false, only the set-up. `bundle_dir` receives flight-recorder bundles
/// when recorders are on.
pub fn pass(
    shape: &Shape,
    seed: u64,
    layers: Layers,
    bundle_dir: &Path,
    rounds: bool,
) -> Result<Pass, String> {
    let cfg = shape.config()?;
    let mut inputs = Inputs::generate(shape, seed)?;
    let before = registry_totals();

    let t0 = Instant::now();
    let mut fleet = {
        let _p = phase("cluster.new");
        Cluster::new(cfg, inputs.fleet_seed).map_err(|e| e.to_string())?
    };
    {
        let _p = phase("cluster.enable");
        if shape.operator_stack {
            fleet
                .enable_health(mzd_health::HealthConfig::default())
                .map_err(|e| e.to_string())?;
        }
        if layers.tracing {
            fleet.enable_tracing().map_err(|e| e.to_string())?;
        }
        if layers.recorders {
            fleet.attach_recorders(&mzd_prof::RecorderSettings::new(bundle_dir));
        }
    }
    let capacity = fleet.guarantee().fleet_capacity;
    let mut tally = Tally::default();
    {
        let _p = phase("cluster.populate");
        for _ in 0..capacity {
            submit(&mut fleet, &mut inputs, &mut tally);
        }
    }
    let setup = t0.elapsed();
    let after_setup = registry_totals();

    let rounds = if rounds { shape.rounds } else { 0 };
    let open_rate = match shape.arrivals {
        Arrivals::Open { load } => Some(load * capacity as f64 / inputs.mean_object_rounds()),
        Arrivals::Closed => None,
    };
    let mut round_times = Vec::with_capacity(rounds as usize);
    let mut digest = 0u64;
    let mut buf = Vec::with_capacity(4096);
    let (mut stream_rounds, mut host_glitches, mut outage_glitches) = (0u64, 0u64, 0u64);

    let t1 = Instant::now();
    for round in 0..rounds {
        let r0 = Instant::now();
        let report = {
            let _p = phase("cluster.run_round");
            fleet.run_round()
        };
        round_times.push(r0.elapsed());
        let arrivals = {
            let _p = phase("bench.bookkeeping");
            // Streams hosted through this round: still hosted, finished,
            // or evacuated at its end. A silent node's streams count
            // too; they are charged an outage glitch instead of served.
            stream_rounds +=
                (fleet.active_streams() + report.completed.len() + report.migrations.len()) as u64;
            host_glitches += report.glitched_streams;
            outage_glitches += report.outage_glitches;
            digest = fold(digest, &report, &mut buf);
            match open_rate {
                None => report.completed.len() as u32,
                Some(rate) => inputs.arrivals_through(round, rate),
            }
        };
        for _ in 0..arrivals {
            submit(&mut fleet, &mut inputs, &mut tally);
        }
        if shape.operator_stack {
            // In memory, as `serve --prom-out/--metrics-out` render the
            // exposition every round before writing it out.
            {
                let _p = phase("telemetry.render");
                let prom = mzd_telemetry::prom::render(mzd_telemetry::global());
                let json = mzd_telemetry::global().snapshot().to_json();
                black_box((prom, json));
            }
            {
                let _p = phase("obs.render");
                black_box(fleet.sketches().render_prom());
            }
        }
    }
    let timed = t1.elapsed();
    let after_rounds = registry_totals();

    let status = fleet.status();
    let guarantee = fleet.guarantee();
    let (mut trace_spans, mut trace_dropped) = (0u64, 0u64);
    for i in 0..shape.nodes {
        let server = fleet.node(i).server();
        if let Some(slo) = server.slo_status() {
            trace_spans += slo.trace_spans as u64;
        }
        trace_dropped += server.trace_dropped();
    }
    Ok(Pass {
        setup,
        timed,
        round_times,
        rounds,
        stream_rounds,
        submitted: tally.submitted,
        refused: tally.refused,
        errors: tally.errors,
        completed: status.completed as u64,
        hosted: status.active_streams as u64,
        waiting: status.waiting as u64,
        host_glitches,
        outage_glitches,
        p_glitch_round: guarantee.p_glitch_round,
        n_star: guarantee.n_star,
        fleet_capacity: guarantee.fleet_capacity,
        digest,
        counts: deltas(&before, &after_setup, &after_rounds),
        health: fleet.health_status(),
        trace_spans,
        trace_dropped,
    })
}
