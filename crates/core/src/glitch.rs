//! Per-stream glitch probability (§3.3).
//!
//! When a round overruns, only the requests served after the deadline are
//! late. With fragments allocated at uncorrelated sweep positions across
//! rounds, the late streams are a uniformly random subset, so
//!
//! ```text
//! P[stream i glitches in one round] = (1/N) Σ_{k=1..N} p_late(k, t)   (eq. 3.3.2)
//! ```
//!
//! Over a stream of `M` rounds the glitch count is Binomial(M, p_glitch)
//! (eq. 3.3.4); its tail is bounded by the Hagerup–Rüb form of the
//! Chernoff bound (eq. 3.3.5), with the exact tail also provided for
//! validation.

use mzd_numerics::special::ln_choose;

/// The per-round, per-stream glitch probability bound
/// `b_glitch(N, t) = (1/N) Σ_{k=1..N} b_late(k, t)` (eq. 3.3.3).
///
/// `p_late(k)` must return the (bound on the) probability that a round of
/// `k` requests misses the deadline; it is evaluated for `k = 1..=n`.
/// Returns 0 for `n == 0`.
pub fn glitch_probability_bound<F: FnMut(u32) -> f64>(n: u32, mut p_late: F) -> f64 {
    let mut sum = GlitchSum::default();
    for k in 1..=n {
        sum.push(p_late(k));
    }
    sum.bound()
}

/// The running form of [`glitch_probability_bound`]: push `b_late(k, t)`
/// for `k = 1, 2, …` in order and read `b_glitch(k, t)` after each push.
/// It is the same left fold, so every partial bound is bit-identical to
/// a fresh [`glitch_probability_bound`] at that `k`. An `N_max` scan over
/// eq. 3.3.6 therefore pays one Chernoff solve per probe, not `N`.
#[derive(Debug, Clone, Copy)]
pub struct GlitchSum {
    terms: u32,
    sum: f64,
}

impl Default for GlitchSum {
    fn default() -> Self {
        // -0.0 is the identity `Iterator::sum` folds f64s from.
        Self {
            terms: 0,
            sum: -0.0,
        }
    }
}

impl GlitchSum {
    /// Add the next term `b_late(k, t)`, `k` one past the terms so far,
    /// and return `b_glitch(k, t)`.
    pub fn push(&mut self, p_late: f64) -> f64 {
        self.terms += 1;
        self.sum += p_late.clamp(0.0, 1.0);
        self.bound()
    }

    /// `b_glitch` over the terms pushed so far; 0 before the first.
    #[must_use]
    pub fn bound(&self) -> f64 {
        if self.terms == 0 {
            return 0.0;
        }
        (self.sum / f64::from(self.terms)).min(1.0)
    }
}

/// The Hagerup–Rüb Chernoff bound on the upper binomial tail
/// `P[Bin(m, p) ≥ g]` (eq. 3.3.5):
///
/// ```text
/// (mp/g)^g · ((m − mp)/(m − g))^(m−g)      for g/m > p
/// ```
///
/// Evaluated in the log domain. Returns 1 when `g/m ≤ p` (the bound is
/// only valid — and only useful — above the mean), 1 for `g == 0`, and
/// `p^m` for `g == m` (the formula's continuous limit, which equals the
/// exact tail there).
#[must_use]
pub fn binomial_tail_chernoff(p: f64, m: u64, g: u64) -> f64 {
    let p = p.clamp(0.0, 1.0);
    if g == 0 || m == 0 {
        return 1.0;
    }
    if g > m {
        return 0.0;
    }
    let mf = m as f64;
    let gf = g as f64;
    if gf / mf <= p {
        return 1.0;
    }
    if p == 0.0 {
        return 0.0;
    }
    let mut ln_bound = gf * (mf * p / gf).ln();
    if g < m {
        ln_bound += (mf - gf) * ((mf - mf * p) / (mf - gf)).ln();
    }
    ln_bound.exp().min(1.0)
}

/// Exact upper binomial tail `P[Bin(m, p) ≥ g]`, summed in the log domain
/// with a max shift for numerical stability. `O(m − g)` terms; fine for
/// the paper's `M = 1200`.
#[must_use]
pub fn binomial_tail_exact(p: f64, m: u64, g: u64) -> f64 {
    let p = p.clamp(0.0, 1.0);
    if g == 0 {
        return 1.0;
    }
    if g > m {
        return 0.0;
    }
    if p == 0.0 {
        return 0.0;
    }
    if p == 1.0 {
        return 1.0;
    }
    let ln_p = p.ln();
    let ln_q = (-p).ln_1p(); // ln(1 − p) without cancellation for small p
    let terms: Vec<f64> = (g..=m)
        .map(|k| ln_choose(m, k) + k as f64 * ln_p + (m - k) as f64 * ln_q)
        .collect();
    let max = terms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max == f64::NEG_INFINITY {
        return 0.0;
    }
    let sum: f64 = terms.iter().map(|&t| (t - max).exp()).sum();
    (max + sum.ln()).exp().min(1.0)
}

/// The probability that a stream of `m` rounds suffers `g` or more
/// glitches, given the per-round glitch probability bound — the paper's
/// `p_error` (eq. 3.3.5). Uses Hagerup–Rüb by default.
#[must_use]
pub fn stream_error_bound(p_glitch: f64, m: u64, g: u64) -> f64 {
    binomial_tail_chernoff(p_glitch, m, g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glitch_bound_averages_p_late() {
        // p_late(k) = k/10 → average over k=1..4 is (1+2+3+4)/(10·4) = 0.25.
        let b = glitch_probability_bound(4, |k| f64::from(k) / 10.0);
        assert!((b - 0.25).abs() < 1e-12);
    }

    #[test]
    fn glitch_bound_edge_cases() {
        assert_eq!(glitch_probability_bound(0, |_| 0.5), 0.0);
        // Clamped to 1 even if the per-round bounds are vacuous.
        assert_eq!(glitch_probability_bound(5, |_| 2.0), 1.0);
        // All-zero late probabilities → zero glitch probability.
        assert_eq!(glitch_probability_bound(5, |_| 0.0), 0.0);
    }

    #[test]
    fn glitch_bound_evaluates_every_k_once() {
        let mut calls = Vec::new();
        let _ = glitch_probability_bound(6, |k| {
            calls.push(k);
            0.0
        });
        assert_eq!(calls, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn running_sum_is_the_iterator_sum_fold_at_every_prefix() {
        // Bit-identical to re-summing each prefix with `Iterator::sum`,
        // the form every bound was computed with before the running sum.
        let p_late = |k: u32| (f64::from(k) * 0.37).sin().abs() * 1e-3 * f64::from(k);
        let mut sum = GlitchSum::default();
        assert_eq!(sum.bound(), 0.0);
        for n in 1..=300 {
            let folded: f64 = (1..=n).map(|k| p_late(k).clamp(0.0, 1.0)).sum();
            let want = (folded / f64::from(n)).min(1.0);
            assert_eq!(sum.push(p_late(n)).to_bits(), want.to_bits(), "n = {n}");
        }
    }

    #[test]
    fn chernoff_tail_dominates_exact_tail() {
        for &p in &[0.001, 0.005, 0.02, 0.1] {
            for &(m, g) in &[(1200u64, 12u64), (1200, 24), (100, 5), (50, 50)] {
                let exact = binomial_tail_exact(p, m, g);
                let bound = binomial_tail_chernoff(p, m, g);
                assert!(
                    bound >= exact - 1e-12,
                    "p={p}, m={m}, g={g}: bound {bound} < exact {exact}"
                );
            }
        }
    }

    #[test]
    fn chernoff_tail_paper_example() {
        // §3.3: N = 28 gives p_glitch such that P[≥ 12 glitches in 1200
        // rounds] ≤ 0.14e-3. With p_glitch ≈ 2.4e-3 the bound is ≈ 1.4e-4;
        // check the formula's value for a representative p.
        let b = binomial_tail_chernoff(0.0024, 1200, 12);
        assert!(b < 1e-3 && b > 1e-6, "bound = {b}");
    }

    #[test]
    fn tails_handle_edges() {
        // g = 0: trivially 1.
        assert_eq!(binomial_tail_chernoff(0.5, 100, 0), 1.0);
        assert_eq!(binomial_tail_exact(0.5, 100, 0), 1.0);
        // g > m: impossible.
        assert_eq!(binomial_tail_chernoff(0.5, 10, 11), 0.0);
        assert_eq!(binomial_tail_exact(0.5, 10, 11), 0.0);
        // g = m: both equal p^m.
        let p = 0.3f64;
        assert!((binomial_tail_chernoff(p, 10, 10) - p.powi(10)).abs() < 1e-15);
        assert!((binomial_tail_exact(p, 10, 10) - p.powi(10)).abs() < 1e-15);
        // Below-mean g: the bound is vacuous.
        assert_eq!(binomial_tail_chernoff(0.5, 100, 40), 1.0);
        // p = 0 / p = 1.
        assert_eq!(binomial_tail_chernoff(0.0, 100, 5), 0.0);
        assert_eq!(binomial_tail_exact(0.0, 100, 5), 0.0);
        assert_eq!(binomial_tail_exact(1.0, 100, 5), 1.0);
        // m = 0 with g = 0.
        assert_eq!(binomial_tail_exact(0.5, 0, 0), 1.0);
    }

    #[test]
    fn exact_tail_matches_direct_small_case() {
        // Bin(4, 0.5): P[X ≥ 3] = (4 + 1)/16 = 0.3125.
        let t = binomial_tail_exact(0.5, 4, 3);
        assert!((t - 0.3125).abs() < 1e-12);
        // Bin(3, 0.2): P[X ≥ 1] = 1 − 0.8³ = 0.488.
        let t = binomial_tail_exact(0.2, 3, 1);
        assert!((t - 0.488).abs() < 1e-12);
    }

    #[test]
    fn exact_tail_extreme_small_probability() {
        // P[Bin(1200, 1e-5) ≥ 12] is astronomically small but must not
        // underflow to garbage.
        let t = binomial_tail_exact(1e-5, 1200, 12);
        assert!(t > 0.0 && t < 1e-20);
        let b = binomial_tail_chernoff(1e-5, 1200, 12);
        assert!(b >= t);
    }

    #[test]
    fn chernoff_tail_is_monotone_in_p() {
        let mut prev = 0.0;
        for i in 1..40 {
            let p = f64::from(i) * 0.0002;
            let b = binomial_tail_chernoff(p, 1200, 12);
            assert!(b >= prev - 1e-15, "p = {p}");
            prev = b;
        }
    }

    #[test]
    fn stream_error_bound_is_hagerup_rub() {
        assert_eq!(
            stream_error_bound(0.002, 1200, 12),
            binomial_tail_chernoff(0.002, 1200, 12)
        );
    }
}
