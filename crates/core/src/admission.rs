//! Admission-control searches and lookup tables (eq. 3.1.7, eq. 3.3.6, §5).
//!
//! Both `N_max` definitions are maxima of a monotone predicate — the
//! quality bound degrades as `N` grows — so a linear upward scan with a
//! hard cap is exact, simple and fast. Each probe costs one Chernoff
//! optimization (microseconds): for `p_late` directly, and for `p_error`
//! because eq. 3.3.3's `b_glitch(N)` is a running mean of `b_late(k)`,
//! which the scan folds one term per probe ([`n_max_fold_par`]). §5
//! suggests precomputing a lookup table of `N_max` per tolerance
//! threshold so the run-time admission decision is a table lookup;
//! [`AdmissionTable`] is that table.

use crate::CoreError;

/// Hard cap on the admission search: no single disk round can hold more
/// requests than this in any configuration this model targets.
pub const N_SEARCH_CAP: u32 = 100_000;

/// Largest `n` with `quality(n) ≤ threshold`, where `quality` is
/// nondecreasing in `n` (e.g. `p_late(·, t)` or `p_error(·, t, M, g)`).
/// Returns 0 if even `n = 1` violates the threshold.
///
/// The scan is linear from 1 but exits as soon as the (monotone) bound
/// crosses the threshold: `N_max + 1` probes, a few dozen at 1-s rounds
/// and a few hundred at 8-s rounds.
pub fn n_max<F: FnMut(u32) -> f64>(mut quality: F, threshold: f64) -> u32 {
    let mut best = 0;
    for n in 1..=N_SEARCH_CAP {
        if quality(n) <= threshold {
            best = n;
        } else {
            break;
        }
    }
    best
}

/// Candidate block evaluated per parallel round of the admission scans:
/// wide enough to keep every worker busy past the ramp-up, narrow enough
/// that the overshoot past the first violation stays a handful of probes.
pub(crate) fn scan_block(jobs: usize) -> usize {
    (jobs * 8).max(32)
}

/// Evaluate `term(1), term(2), …, term(N_SEARCH_CAP)` in blocks fanned
/// out across the worker pool, handing each value to `consume(k,
/// term(k))` serially in `k` order until it returns `false`. Terms past
/// that point in the last block are computed and dropped; `consume`
/// never sees them, so scheduling cannot change what it computes.
fn scan_par<T, C>(term: T, mut consume: C)
where
    T: Fn(u32) -> f64 + Sync,
    C: FnMut(u32, f64) -> bool,
{
    let mut from = 0u32;
    while from < N_SEARCH_CAP {
        let block = scan_block(mzd_par::jobs()).min((N_SEARCH_CAP - from) as usize);
        let terms = mzd_par::par_map_indexed(block, |i| term(from + 1 + i as u32));
        for (k, value) in (from + 1..).zip(terms) {
            if !consume(k, value) {
                return;
            }
        }
        from += block as u32;
    }
}

/// [`n_max`] with the candidate probes fanned out across the worker
/// pool. Returns exactly what the serial scan returns: candidates are
/// evaluated in fixed blocks and the answer is read off the *first*
/// violation in candidate order, so scheduling cannot change the result
/// — only non-monotone `quality` past the first violation is probed
/// differently, and those probes never influence the answer.
///
/// Worth it when one probe costs a Chernoff optimization (µs–ms);
/// pointless for trivially cheap bounds.
pub fn n_max_par<F: Fn(u32) -> f64 + Sync>(quality: F, threshold: f64) -> u32 {
    n_max_fold_par(quality, |q| q, threshold)
}

/// [`n_max_par`] for a quality that folds every term up to `n`:
/// `quality(n) = fold(term(n))`, with `fold` called once per `n` in
/// increasing order, so it may carry state — eq. 3.3.6's `p_error(n)`
/// folds `b_late(k)` into the running mean of eq. 3.3.3. The terms are
/// evaluated in parallel, one per candidate `n`; the fold runs serially.
pub fn n_max_fold_par<T, Q>(term: T, mut fold: Q, threshold: f64) -> u32
where
    T: Fn(u32) -> f64 + Sync,
    Q: FnMut(f64) -> f64,
{
    let mut best = 0;
    scan_par(term, |n, value| {
        // NaN counts as a violation, exactly like the serial scan's
        // `quality(n) <= threshold` failing.
        let holds = fold(value) <= threshold;
        if holds {
            best = n;
        }
        holds
    });
    best
}

/// A precomputed tolerance → `N_max` lookup table (§5: "a lookup table
/// with precomputed values of N_max for different tolerance thresholds …
/// incurs almost no run-time overhead").
///
/// Thresholds are stored ascending; looking up a tolerance returns the
/// `N_max` of the largest table threshold that does not exceed it.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionTable {
    thresholds: Vec<f64>,
    n_max: Vec<u32>,
}

impl AdmissionTable {
    /// Build the table by evaluating the monotone `quality` bound once per
    /// threshold. `thresholds` must be strictly ascending and in `(0, 1)`.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] for an empty, unsorted or out-of-range
    /// threshold list.
    pub fn build<F: FnMut(u32) -> f64>(
        thresholds: &[f64],
        mut quality: F,
    ) -> Result<Self, CoreError> {
        Self::validate(thresholds)?;
        // The quality bound is monotone in n, so N_max is nondecreasing in
        // the threshold: resume each search where the previous stopped.
        let mut n_max_col = Vec::with_capacity(thresholds.len());
        let mut n = 0u32;
        for &thr in thresholds {
            while n < N_SEARCH_CAP && quality(n + 1) <= thr {
                n += 1;
            }
            n_max_col.push(n);
        }
        Ok(Self {
            thresholds: thresholds.to_vec(),
            n_max: n_max_col,
        })
    }

    /// [`Self::build`] with the quality probes fanned out across the
    /// worker pool. Candidates are evaluated in blocks, caching every
    /// probe up to the first that fails the *largest* threshold; the
    /// serial resumed scan then replays over the cache. Since the serial
    /// scan never probes past the largest threshold's first violation,
    /// the cache covers everything it reads and the resulting table is
    /// identical.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] for an empty, unsorted or out-of-range
    /// threshold list.
    pub fn build_par<F: Fn(u32) -> f64 + Sync>(
        thresholds: &[f64],
        quality: F,
    ) -> Result<Self, CoreError> {
        Self::build_fold_par(thresholds, quality, |q| q)
    }

    /// [`Self::build_par`] for a quality that folds every term up to
    /// `n`, as in [`n_max_fold_par`]: the terms are evaluated in
    /// parallel, `fold` runs once per `n` in increasing order, and the
    /// scan stops at the first `n` whose quality fails the largest
    /// threshold.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] for an empty, unsorted or out-of-range
    /// threshold list.
    pub fn build_fold_par<T, Q>(thresholds: &[f64], term: T, mut fold: Q) -> Result<Self, CoreError>
    where
        T: Fn(u32) -> f64 + Sync,
        Q: FnMut(f64) -> f64,
    {
        Self::validate(thresholds)?;
        let thr_max = *thresholds.last().expect("validated non-empty");
        let mut cache: Vec<f64> = Vec::new();
        scan_par(term, |_, value| {
            let q = fold(value);
            cache.push(q);
            q <= thr_max
        });
        let mut n_max_col = Vec::with_capacity(thresholds.len());
        let mut n = 0u32;
        for &thr in thresholds {
            while n < N_SEARCH_CAP && cache.get(n as usize).is_some_and(|&q| q <= thr) {
                n += 1;
            }
            n_max_col.push(n);
        }
        Ok(Self {
            thresholds: thresholds.to_vec(),
            n_max: n_max_col,
        })
    }

    fn validate(thresholds: &[f64]) -> Result<(), CoreError> {
        if thresholds.is_empty() {
            return Err(CoreError::Invalid("threshold list is empty".into()));
        }
        let mut prev = 0.0;
        for &t in thresholds {
            crate::validate_threshold(t)?;
            if !(t > prev) {
                return Err(CoreError::Invalid(format!(
                    "thresholds must be strictly ascending, got {t} after {prev}"
                )));
            }
            prev = t;
        }
        Ok(())
    }

    /// The admission limit for the given tolerance: the `N_max` of the
    /// largest stored threshold `≤ tolerance` (0 if the tolerance is below
    /// every stored threshold — conservative by construction).
    #[must_use]
    pub fn lookup(&self, tolerance: f64) -> u32 {
        match self
            .thresholds
            .partition_point(|&t| t <= tolerance)
            .checked_sub(1)
        {
            Some(i) => self.n_max[i],
            None => 0,
        }
    }

    /// The stored (threshold, `N_max`) rows.
    pub fn rows(&self) -> impl Iterator<Item = (f64, u32)> + '_ {
        self.thresholds
            .iter()
            .copied()
            .zip(self.n_max.iter().copied())
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.thresholds.len()
    }

    /// Whether the table is empty (never after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.thresholds.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_max_of_linear_quality() {
        // quality(n) = n/100 → N_max(0.25) = 25.
        assert_eq!(n_max(|n| f64::from(n) / 100.0, 0.25), 25);
        assert_eq!(n_max(|n| f64::from(n) / 100.0, 1.0), 100);
        // Threshold below quality(1).
        assert_eq!(n_max(|n| f64::from(n) / 100.0, 0.001), 0);
    }

    #[test]
    fn n_max_counts_evaluations_lazily() {
        let mut evals = 0;
        let _ = n_max(
            |n| {
                evals += 1;
                f64::from(n) / 10.0
            },
            0.3,
        );
        // Stops at the first violation: n = 1, 2, 3 pass, 4 fails.
        assert_eq!(evals, 4);
    }

    #[test]
    fn parallel_n_max_matches_serial() {
        let quality = |n: u32| f64::from(n) / 100.0;
        for thr in [0.001, 0.25, 0.573, 1.0] {
            assert_eq!(n_max_par(quality, thr), n_max(quality, thr), "thr {thr}");
        }
        // Unbounded quality: both scans hit the cap.
        assert_eq!(n_max_par(|_| 0.0, 0.5), n_max(|_| 0.0, 0.5));
        // NaN is a violation in both scans.
        let spiky = |n: u32| {
            if n == 7 {
                f64::NAN
            } else {
                f64::from(n) / 100.0
            }
        };
        assert_eq!(n_max_par(spiky, 0.5), 6);
        assert_eq!(n_max(spiky, 0.5), 6);
    }

    #[test]
    fn parallel_table_matches_serial() {
        let quality = |n: u32| (f64::from(n) / 37.0).powi(2);
        let thresholds = [0.01, 0.1, 0.5, 0.9];
        let serial = AdmissionTable::build(&thresholds, quality).unwrap();
        let parallel = AdmissionTable::build_par(&thresholds, quality).unwrap();
        assert_eq!(serial, parallel);
        assert!(AdmissionTable::build_par(&[], quality).is_err());
        assert!(AdmissionTable::build_par(&[0.5, 0.2], quality).is_err());
    }

    #[test]
    fn table_build_and_lookup() {
        let quality = |n: u32| f64::from(n) / 100.0;
        let t = AdmissionTable::build(&[0.01, 0.05, 0.10, 0.50], quality).unwrap();
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.lookup(0.01), 1);
        assert_eq!(t.lookup(0.05), 5);
        assert_eq!(t.lookup(0.07), 5); // rounds down to the 0.05 row
        assert_eq!(t.lookup(0.5), 50);
        assert_eq!(t.lookup(0.99), 50); // beyond the last row: last row
        assert_eq!(t.lookup(0.001), 0); // below the first row: conservative 0
        let rows: Vec<_> = t.rows().collect();
        assert_eq!(rows[0], (0.01, 1));
        assert_eq!(rows[3], (0.50, 50));
    }

    #[test]
    fn table_resumed_search_matches_independent_search() {
        let quality = |n: u32| (f64::from(n) / 37.0).powi(2);
        let t = AdmissionTable::build(&[0.01, 0.1, 0.5, 0.9], quality).unwrap();
        for (thr, nm) in t.rows() {
            assert_eq!(nm, n_max(quality, thr), "threshold {thr}");
        }
    }

    #[test]
    fn table_rejects_bad_thresholds() {
        let q = |_: u32| 0.5;
        assert!(AdmissionTable::build(&[], q).is_err());
        assert!(AdmissionTable::build(&[0.5, 0.2], q).is_err());
        assert!(AdmissionTable::build(&[0.0, 0.5], q).is_err());
        assert!(AdmissionTable::build(&[0.5, 1.0], q).is_err());
        assert!(AdmissionTable::build(&[0.5, 1.5], q).is_err());
        assert!(AdmissionTable::build(&[0.5, 0.5], q).is_err());
    }
}
