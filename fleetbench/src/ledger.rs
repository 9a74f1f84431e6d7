//! The per-layer ledger of a traced run.
//!
//! The phase profile holds self time per collapsed stack. Set-up stacks
//! are rooted at the benchmark's `cluster.new`, `cluster.enable` and
//! `cluster.populate` phases; every other stack belongs to the timed
//! rounds. A timed stack goes to the layer of its innermost frame that
//! the table below names, so a scope added inside the program later
//! lands in its enclosing layer until the ledger learns its name.

use std::fmt::Write as _;

use crate::run::Pass;

/// The passes a traced run made, grouped by which layers were on.
#[derive(Default)]
pub struct Runs {
    pub untraced: Vec<Pass>,
    pub traced: Vec<Pass>,
    pub no_tracing: Vec<Pass>,
    pub no_recorders: Vec<Pass>,
}

/// Per-stream-round time layers, in table order, with the profile
/// frames each owns. `degrade` is the server's ladder phase, off in
/// every workload; it folds into the server's own round.
const ROUND_LAYERS: [(&str, &[&str]); 11] = [
    ("server.partition_ns", &["partition"]),
    ("sim.sweep_ns", &["sweep"]),
    ("server.advance_ns", &["advance"]),
    ("server.round_ns", &["server.round", "degrade"]),
    ("cache.round_ns", &["cache"]),
    ("slo.round_ns", &["slo"]),
    ("cluster.round_ns", &["cluster.run_round"]),
    ("cluster.submit_ns", &["cluster.submit"]),
    ("telemetry.render_ns", &["telemetry.render"]),
    ("obs.render_ns", &["obs.render"]),
    ("bench.bookkeeping_ns", &["bench.bookkeeping"]),
];

/// Set-up root frames, in the order of `cluster.new_s`,
/// `cluster.enable_s` and `cluster.populate_s`.
const SETUP_FRAMES: [&str; 3] = ["cluster.new", "cluster.enable", "cluster.populate"];

pub struct Ledger {
    /// `(name, value, unit)` in output order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Self time no layer frame encloses, ns per stream-round.
    unattributed_ns: f64,
    wall_ns: f64,
}

fn sum(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    passes.iter().map(f).sum()
}

/// Host nanoseconds per stream-round over a set of passes.
fn ns_per_stream_round(passes: &[Pass]) -> f64 {
    1e9 * sum(passes, |p| p.timed.as_secs_f64()) / sum(passes, |p| p.stream_rounds as f64)
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl Ledger {
    pub fn build(folded: &str, runs: &Runs) -> Self {
        let traced = &runs.traced;
        let setups = traced.len() as f64;
        let stream_rounds = sum(traced, |p| p.stream_rounds as f64);
        let mut round_ns = [0.0f64; ROUND_LAYERS.len()];
        let mut setup_ns = [0.0f64; SETUP_FRAMES.len()];
        let mut unattributed = 0.0;
        for line in folded.lines() {
            let Some((stack, ns)) = line.rsplit_once(' ') else {
                continue;
            };
            let ns: f64 = ns.parse().unwrap_or(0.0);
            let frames: Vec<&str> = stack.split(';').collect();
            if let Some(i) = SETUP_FRAMES.iter().position(|f| *f == frames[0]) {
                setup_ns[i] += ns;
                continue;
            }
            let layer = frames.iter().rev().find_map(|frame| {
                ROUND_LAYERS
                    .iter()
                    .position(|(_, owned)| owned.contains(frame))
            });
            match layer {
                Some(i) => round_ns[i] += ns,
                None => unattributed += ns,
            }
        }

        let mut metrics = Vec::new();
        for ((name, _), ns) in ROUND_LAYERS.iter().zip(round_ns) {
            metrics.push((*name, ns / stream_rounds, "ns"));
        }
        let count = |name: &str| sum(traced, |p| p.count(name));
        metrics.push(("cluster.new_s", setup_ns[0] / 1e9 / setups, "s"));
        metrics.push((
            "core.chernoff_s",
            count("setup.core.chernoff.minimize.sum") / setups,
            "s",
        ));
        metrics.push(("cluster.populate_s", setup_ns[2] / 1e9 / setups, "s"));
        metrics.push(("cluster.enable_s", setup_ns[1] / 1e9 / setups, "s"));

        let full = ns_per_stream_round(&runs.untraced);
        let marginal = |without: &[Pass]| {
            if without.is_empty() {
                0.0
            } else {
                full - ns_per_stream_round(without)
            }
        };
        metrics.push(("slo.marginal_ns", marginal(&runs.no_tracing), "ns"));
        metrics.push((
            "prof.recorder_marginal_ns",
            marginal(&runs.no_recorders),
            "ns",
        ));

        for (metric, counter) in [
            ("cluster.admitted", "cluster.dispatch.admitted"),
            ("cluster.requeued", "cluster.dispatch.requeued"),
            ("cluster.migrations", "cluster.migrated_streams"),
            ("sim.disk_rounds", "sim.rounds"),
            ("cache.hits", "cache.hits"),
            ("cache.delayed_hits", "cache.delayed_hits"),
            ("cache.misses", "cache.misses"),
            ("cache.evictions", "cache.evictions"),
        ] {
            metrics.push((metric, count(counter), "count"));
        }
        let lookups = count("cache.hits") + count("cache.delayed_hits") + count("cache.misses");
        let avoided = count("cache.hits") + count("cache.delayed_hits");
        metrics.push((
            "cache.hit_ratio",
            if lookups > 0.0 {
                avoided / lookups
            } else {
                0.0
            },
            "1",
        ));
        for (metric, counter) in [
            ("fault.media_errors", "fault.media_errors"),
            ("fault.retries", "fault.retries"),
            ("fault.failed_reads", "fault.failed_reads"),
        ] {
            metrics.push((metric, count(counter), "count"));
        }
        let health = |f: fn(&mzd_cluster::HealthStatus) -> u64| {
            sum(traced, |p| p.health.as_ref().map_or(0.0, |h| f(h) as f64))
        };
        let issued = health(|h| h.hedges_issued);
        metrics.push(("health.probations", health(|h| h.probations), "count"));
        metrics.push(("health.ejections", health(|h| h.ejections), "count"));
        metrics.push(("health.hedges_issued", issued, "count"));
        metrics.push((
            "health.hedge_win_ratio",
            if issued > 0.0 {
                health(|h| h.hedges_won) / issued
            } else {
                0.0
            },
            "1",
        ));
        metrics.push((
            "slo.trace_spans",
            sum(traced, |p| p.trace_spans as f64),
            "count",
        ));
        metrics.push((
            "slo.trace_dropped",
            sum(traced, |p| p.trace_dropped as f64),
            "count",
        ));
        metrics.push((
            "core.chernoff_iterations",
            sum(traced, |p| p.total("core.chernoff.iterations.sum")),
            "count",
        ));

        let wall_ns = ns_per_stream_round(traced);
        metrics.push(("trace.overhead", wall_ns / full, "1"));
        let mut rounds: Vec<f64> = traced
            .iter()
            .flat_map(|p| p.round_times.iter().map(|d| d.as_secs_f64() * 1e3))
            .collect();
        rounds.sort_by(f64::total_cmp);
        metrics.push(("round_ms.p50", percentile(&rounds, 0.50), "ms"));
        metrics.push(("round_ms.p99", percentile(&rounds, 0.99), "ms"));

        Self {
            metrics,
            unattributed_ns: unattributed / stream_rounds,
            wall_ns,
        }
    }

    pub fn metrics(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.metrics.iter().copied()
    }

    /// The per-stream-round time layers: the first metrics, in
    /// `ROUND_LAYERS` order.
    fn round_layers(&self) -> &[(&'static str, f64, &'static str)] {
        &self.metrics[..ROUND_LAYERS.len()]
    }

    /// Sum of the per-stream-round time layers (plus any unattributed
    /// self time).
    pub fn layer_sum_ns(&self) -> f64 {
        self.round_layers().iter().map(|m| m.1).sum::<f64>() + self.unattributed_ns
    }

    /// 1e9 over the traced passes' stream-rounds per second.
    pub fn wall_ns(&self) -> f64 {
        self.wall_ns
    }

    /// Relative gap between the layer sum and the traced wall time.
    pub fn closure_gap(&self) -> f64 {
        self.layer_sum_ns() / self.wall_ns - 1.0
    }

    /// The human-readable table.
    pub fn table(&self) -> String {
        let total = self.layer_sum_ns();
        let mut out = String::from("  per-layer ledger (traced passes), ns per stream-round:\n");
        let mut row = |name: &str, ns: f64| {
            let _ = writeln!(
                out,
                "    {name:<22} {ns:>12.2}  {:>6.2}%",
                100.0 * ns / total
            );
        };
        for &(name, ns, _) in self.round_layers() {
            row(name, ns);
        }
        if self.unattributed_ns > 0.0 {
            row("(unattributed)", self.unattributed_ns);
        }
        let _ = writeln!(
            out,
            "    {:<22} {total:>12.2}  vs 1e9 / traced stream_rounds_per_s = {:.2}",
            "sum", self.wall_ns
        );
        let _ = writeln!(out, "  other per-layer metrics:");
        for (name, value, unit) in &self.metrics[ROUND_LAYERS.len()..] {
            let _ = writeln!(out, "    {name:<26} {value:>16.6} {unit}");
        }
        out
    }

    /// The ledger as JSON: every metric with its unit, plus the closure.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"metrics\": {");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            mzd_telemetry::json::write_escaped(&mut out, name);
            out.push_str(": {\"value\": ");
            mzd_telemetry::json::write_f64(&mut out, *value);
            out.push_str(", \"unit\": ");
            mzd_telemetry::json::write_escaped(&mut out, unit);
            out.push('}');
        }
        out.push_str("\n  },\n  \"layer_sum_ns\": ");
        mzd_telemetry::json::write_f64(&mut out, self.layer_sum_ns());
        out.push_str(",\n  \"unattributed_ns\": ");
        mzd_telemetry::json::write_f64(&mut out, self.unattributed_ns);
        out.push_str(",\n  \"wall_ns\": ");
        mzd_telemetry::json::write_f64(&mut out, self.wall_ns);
        out.push_str("\n}\n");
        out
    }
}
