//! Multi-round simulation with per-stream glitch accounting.
//!
//! [`run_window`] and its siblings drive a [`RoundSimulator`] over many
//! rounds and aggregate what the paper's §4 experiments measure: the
//! distribution of the round service time, the rate of late rounds, and
//! — for stream lifetimes of `M` rounds — the per-stream glitch counts
//! that define `p_error`.

use crate::round::{RoundOutcome, RoundSimulator, SimConfig};
use crate::SimError;
use mzd_numerics::stats::OnlineStats;

/// Per-stream glitch accounting over a window of rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct GlitchAccounting {
    /// Number of rounds simulated.
    pub rounds: u64,
    /// Number of rounds that overran the deadline.
    pub late_rounds: u64,
    /// Per-stream glitch counts (index = stream id).
    pub glitches_per_stream: Vec<u64>,
    /// Service-time statistics across rounds.
    pub service_time: OnlineStats,
    /// Seek-time statistics across rounds.
    pub seek_time: OnlineStats,
}

impl GlitchAccounting {
    /// No rounds yet, over `streams` streams with no glitches.
    #[must_use]
    pub fn new(streams: usize) -> Self {
        Self {
            rounds: 0,
            late_rounds: 0,
            glitches_per_stream: vec![0; streams],
            service_time: OnlineStats::new(),
            seek_time: OnlineStats::new(),
        }
    }

    /// Account one round.
    pub fn record(&mut self, out: &RoundOutcome) {
        self.rounds += 1;
        self.service_time.push(out.service_time);
        self.seek_time.push(out.seek_time);
        if out.late {
            self.late_rounds += 1;
        }
        for &s in &out.glitched_streams {
            self.glitches_per_stream[s as usize] += 1;
        }
    }

    /// Append another window: its rounds add up, its per-stream counts
    /// follow this window's, and its round statistics merge in.
    pub fn absorb(&mut self, w: GlitchAccounting) {
        self.rounds += w.rounds;
        self.late_rounds += w.late_rounds;
        self.glitches_per_stream.extend(w.glitches_per_stream);
        self.service_time.merge(&w.service_time);
        self.seek_time.merge(&w.seek_time);
    }

    /// Fraction of rounds that overran.
    #[must_use]
    pub fn p_late(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.late_rounds as f64 / self.rounds as f64
        }
    }

    /// Fraction of streams with at least `g` glitches — the empirical
    /// per-stream failure rate behind `p_error`.
    #[must_use]
    pub fn stream_failure_fraction(&self, g: u64) -> f64 {
        if self.glitches_per_stream.is_empty() {
            return 0.0;
        }
        let failures = self.glitches_per_stream.iter().filter(|&&c| c >= g).count();
        failures as f64 / self.glitches_per_stream.len() as f64
    }

    /// Mean glitches per stream over the window.
    #[must_use]
    pub fn mean_glitches_per_stream(&self) -> f64 {
        if self.glitches_per_stream.is_empty() {
            return 0.0;
        }
        self.glitches_per_stream.iter().sum::<u64>() as f64 / self.glitches_per_stream.len() as f64
    }
}

/// Run `rounds` rounds of `sim` with `n` concurrent streams, accounting
/// glitches per stream (stream ids are stable across the window — this
/// models `n` streams whose lifetime spans the window, as in the paper's
/// Table 2 setup where all streams run for `M` rounds).
pub fn run_window(sim: &mut RoundSimulator, n: u32, rounds: u64) -> GlitchAccounting {
    let mut acc = GlitchAccounting::new(n as usize);
    for _ in 0..rounds {
        acc.record(&sim.run_round(n));
    }
    acc
}

/// Run a window where each stream's fragment sizes come from its own
/// recorded trace, played sequentially (wrapping) — preserving the
/// temporal correlation of real VBR video that the i.i.d. draws of
/// [`run_window`] idealize away (§3.3 assumes independence; this entry
/// point measures what correlation costs).
///
/// Stream `i` in round `r` requests `traces[i].size(r mod len_i)` bytes.
pub fn run_window_traced(
    sim: &mut RoundSimulator,
    traces: &[mzd_workload::Trace],
    rounds: u64,
) -> GlitchAccounting {
    let mut acc = GlitchAccounting::new(traces.len());
    let mut sizes = vec![0.0f64; traces.len()];
    for r in 0..rounds {
        for (i, t) in traces.iter().enumerate() {
            sizes[i] = t.size((r % t.len() as u64) as usize);
        }
        acc.record(&sim.run_round_sized(&sizes));
    }
    acc
}

/// Run `batches` consecutive windows of `m` rounds each with `n`
/// streams, concatenating the per-stream glitch counts — yielding
/// `batches × n` independent stream-lifetime samples for `p_error`
/// estimation (Table 2).
pub fn run_stream_lifetimes(
    sim: &mut RoundSimulator,
    n: u32,
    m: u64,
    batches: u32,
) -> GlitchAccounting {
    let mut all = GlitchAccounting::new(0);
    for _ in 0..batches {
        all.absorb(run_window(sim, n, m));
    }
    all
}

/// Run `reps` independent replications of an `n`-stream window totalling
/// `rounds` rounds, fanned out across the worker pool.
///
/// Replication `i` gets its own simulator seeded
/// `mzd_par::derive_seed(seed, i)` and `rounds / reps` rounds, with the
/// remainder spread over the first replications. Results merge in
/// replication order: per-stream glitch counts concatenate (yielding
/// `reps × n` stream samples, as in [`run_stream_lifetimes`]) and the
/// round statistics merge. The output is a pure function of
/// `(cfg, n, rounds, reps, seed)` — the worker count only moves
/// wall-clock time, and `reps = 1` runs the very same code path as a
/// wide fan-out.
///
/// # Errors
/// Propagates configuration validation.
pub fn run_replicated_windows(
    cfg: &SimConfig,
    n: u32,
    rounds: u64,
    reps: u32,
    seed: u64,
) -> Result<GlitchAccounting, SimError> {
    let reps = u64::from(reps.max(1));
    let base = rounds / reps;
    let extra = rounds % reps;
    let parts = mzd_par::par_map_indexed(reps as usize, |i| {
        let share = base + u64::from((i as u64) < extra);
        let mut sim = RoundSimulator::new(cfg.clone(), mzd_par::derive_seed(seed, i as u64))?;
        Ok::<GlitchAccounting, SimError>(run_window(&mut sim, n, share))
    });
    let mut all = GlitchAccounting::new(0);
    for part in parts {
        all.absorb(part?);
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(seed: u64) -> RoundSimulator {
        RoundSimulator::new(SimConfig::paper_reference().unwrap(), seed).unwrap()
    }

    #[test]
    fn window_bookkeeping_is_consistent() {
        let acc = run_window(&mut sim(1), 20, 500);
        assert_eq!(acc.rounds, 500);
        assert_eq!(acc.glitches_per_stream.len(), 20);
        assert_eq!(acc.service_time.count(), 500);
        assert!(acc.late_rounds <= 500);
        // Total glitches is at least the number of late rounds (a late
        // round glitches ≥ 1 stream).
        let total: u64 = acc.glitches_per_stream.iter().sum();
        assert!(total >= acc.late_rounds);
        assert!(acc.p_late() <= 1.0);
    }

    #[test]
    fn light_load_never_glitches() {
        let acc = run_window(&mut sim(2), 5, 500);
        assert_eq!(acc.late_rounds, 0);
        assert_eq!(acc.p_late(), 0.0);
        assert_eq!(acc.mean_glitches_per_stream(), 0.0);
        assert_eq!(acc.stream_failure_fraction(1), 0.0);
    }

    #[test]
    fn heavy_load_always_glitches() {
        let acc = run_window(&mut sim(3), 60, 100);
        assert_eq!(acc.late_rounds, 100);
        assert_eq!(acc.p_late(), 1.0);
        assert!(acc.stream_failure_fraction(1) > 0.9);
    }

    #[test]
    fn stream_lifetimes_concatenate_batches() {
        let acc = run_stream_lifetimes(&mut sim(4), 10, 50, 8);
        assert_eq!(acc.rounds, 400);
        assert_eq!(acc.glitches_per_stream.len(), 80);
        assert_eq!(acc.service_time.count(), 400);
    }

    #[test]
    fn failure_fraction_thresholds_are_monotone() {
        let acc = run_window(&mut sim(5), 31, 1200);
        let mut prev = 1.0;
        for g in [0u64, 1, 2, 5, 12, 100] {
            let f = acc.stream_failure_fraction(g);
            assert!(f <= prev, "g = {g}");
            prev = f;
        }
        assert_eq!(acc.stream_failure_fraction(0), 1.0);
    }

    #[test]
    fn traced_window_uses_trace_sizes_in_order() {
        use mzd_workload::Trace;
        // Constant traces at the paper's mean must behave like the
        // constant-size law: no glitches at N = 20.
        let traces: Vec<Trace> = (0..20)
            .map(|_| Trace::new(vec![200_000.0; 7], 1.0).unwrap())
            .collect();
        let acc = run_window_traced(&mut sim(6), &traces, 300);
        assert_eq!(acc.rounds, 300);
        assert_eq!(acc.glitches_per_stream.len(), 20);
        assert_eq!(acc.late_rounds, 0);
    }

    #[test]
    fn traced_window_with_burst_traces_glitches_in_bursts() {
        use mzd_workload::Trace;
        // All streams share a trace with one huge fragment: every len-th
        // round all streams spike together and the round overruns.
        let trace = Trace::new(vec![100_000.0, 100_000.0, 2_000_000.0], 1.0).unwrap();
        let traces: Vec<Trace> = (0..20).map(|_| trace.clone()).collect();
        let acc = run_window_traced(&mut sim(7), &traces, 300);
        // Exactly one round in three spikes: 100 late rounds.
        assert_eq!(acc.late_rounds, 100);
    }

    #[test]
    fn empty_accounting_edge_cases() {
        let acc = GlitchAccounting::new(0);
        assert_eq!(acc.p_late(), 0.0);
        assert_eq!(acc.stream_failure_fraction(1), 0.0);
        assert_eq!(acc.mean_glitches_per_stream(), 0.0);
    }
}
