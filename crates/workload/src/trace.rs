//! Fragment traces: a sequence of fragment sizes, all with the same
//! display time (§2.1 — "all data fragments stored by the server have the
//! same display time").

use crate::WorkloadError;

/// A recorded or synthesized fragment trace.
///
/// Traces round-trip through a simple text format (see [`Trace::parse`])
/// so measured workloads can be fed to the model and the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    sizes: Vec<f64>,
    display_time: f64,
}

impl Trace {
    /// Build a trace from per-fragment sizes (bytes) and the uniform
    /// per-fragment display time (seconds).
    ///
    /// # Errors
    /// [`WorkloadError::Invalid`] if empty, if any size is non-positive or
    /// non-finite, or if the display time is non-positive.
    pub fn new(sizes: Vec<f64>, display_time: f64) -> Result<Self, WorkloadError> {
        if sizes.is_empty() {
            return Err(WorkloadError::Invalid("trace must be non-empty".into()));
        }
        if !(display_time > 0.0) || !display_time.is_finite() {
            return Err(WorkloadError::Invalid(format!(
                "display time must be positive, got {display_time}"
            )));
        }
        if let Some(&bad) = sizes.iter().find(|&&s| !(s > 0.0) || !s.is_finite()) {
            return Err(WorkloadError::Invalid(format!(
                "trace contains invalid fragment size {bad}"
            )));
        }
        Ok(Self {
            sizes,
            display_time,
        })
    }

    /// Number of fragments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether the trace is empty (never true after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Per-fragment display time, seconds.
    #[must_use]
    pub fn display_time(&self) -> f64 {
        self.display_time
    }

    /// Total play-out duration, seconds.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.display_time * self.sizes.len() as f64
    }

    /// The fragment sizes, bytes.
    #[must_use]
    pub fn sizes(&self) -> &[f64] {
        &self.sizes
    }

    /// Size of fragment `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn size(&self, i: usize) -> f64 {
        self.sizes[i]
    }

    /// Mean fragment size, bytes.
    #[must_use]
    pub fn mean(&self) -> f64 {
        mzd_numerics::stats::mean(&self.sizes)
    }

    /// Unbiased fragment-size variance, bytes² (0 for a 1-fragment trace).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.sizes.len() < 2 {
            0.0
        } else {
            mzd_numerics::stats::variance(&self.sizes)
        }
    }

    /// Mean display bandwidth, bits/second.
    #[must_use]
    pub fn mean_bandwidth_bits(&self) -> f64 {
        self.mean() * 8.0 / self.display_time
    }

    /// Peak fragment size, bytes.
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.sizes.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Empirical quantile of fragment size at level `q ∈ [0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        mzd_numerics::stats::quantile(&self.sizes, q)
    }

    /// Lag-1 autocorrelation of fragment sizes — a measure of the scene
    /// correlation the analytic model idealizes away (§3.3). Returns 0 for
    /// traces shorter than 3 fragments or with zero variance.
    #[must_use]
    pub fn lag1_autocorrelation(&self) -> f64 {
        if self.sizes.len() < 3 {
            return 0.0;
        }
        let m = self.mean();
        let denom: f64 = self.sizes.iter().map(|s| (s - m) * (s - m)).sum();
        if denom == 0.0 {
            return 0.0;
        }
        let num: f64 = self.sizes.windows(2).map(|w| (w[0] - m) * (w[1] - m)).sum();
        num / denom
    }

    /// Parse the plain-text trace format: one fragment size (bytes) per
    /// line; blank lines and `#` comments ignored; an optional header
    /// line `display_time: <seconds>` sets the per-fragment display time
    /// (default 1 s). The format the `mzd analyze-trace` command and the
    /// MPEG-trace literature's simple dumps use.
    ///
    /// # Errors
    /// [`WorkloadError::Invalid`] for unparseable lines or an empty trace.
    pub fn parse(text: &str) -> Result<Trace, WorkloadError> {
        let mut display_time = 1.0;
        let mut sizes = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("display_time:") {
                display_time = rest.trim().parse().map_err(|_| {
                    WorkloadError::Invalid(format!(
                        "line {}: bad display_time `{}`",
                        lineno + 1,
                        rest.trim()
                    ))
                })?;
                continue;
            }
            let size: f64 = line.parse().map_err(|_| {
                WorkloadError::Invalid(format!(
                    "line {}: expected a fragment size in bytes, got `{line}`",
                    lineno + 1
                ))
            })?;
            sizes.push(size);
        }
        Trace::new(sizes, display_time)
    }

    /// Serialize to the format [`Trace::parse`] reads.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "# mzd fragment trace: {} fragments\ndisplay_time: {}\n",
            self.sizes.len(),
            self.display_time
        );
        for s in &self.sizes {
            out.push_str(&format!("{s}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Trace {
        Trace::new(vec![100.0, 200.0, 300.0, 400.0], 1.0).unwrap()
    }

    #[test]
    fn basic_statistics() {
        let tr = t();
        assert_eq!(tr.len(), 4);
        assert!(!tr.is_empty());
        assert_eq!(tr.mean(), 250.0);
        assert!((tr.variance() - 50_000.0 / 3.0).abs() < 1e-9);
        assert_eq!(tr.peak(), 400.0);
        assert_eq!(tr.duration(), 4.0);
        assert_eq!(tr.size(2), 300.0);
        assert_eq!(tr.mean_bandwidth_bits(), 2000.0);
        assert_eq!(tr.quantile(1.0), 400.0);
    }

    #[test]
    fn construction_validation() {
        assert!(Trace::new(vec![], 1.0).is_err());
        assert!(Trace::new(vec![1.0], 0.0).is_err());
        assert!(Trace::new(vec![1.0, 0.0], 1.0).is_err());
        assert!(Trace::new(vec![1.0, f64::NAN], 1.0).is_err());
    }

    #[test]
    fn text_round_trip() {
        let tr = Trace::new(vec![100.5, 200.0, 300.25], 0.5).unwrap();
        let text = tr.to_text();
        let back = Trace::parse(&text).unwrap();
        assert_eq!(back.sizes(), tr.sizes());
        assert_eq!(back.display_time(), 0.5);
    }

    #[test]
    fn parse_handles_comments_blanks_and_default_display_time() {
        let text = "# a comment\n\n1000\n  2000  \n# more\n3000\n";
        let tr = Trace::parse(text).unwrap();
        assert_eq!(tr.sizes(), &[1000.0, 2000.0, 3000.0]);
        assert_eq!(tr.display_time(), 1.0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Trace::parse("abc\n").is_err());
        assert!(Trace::parse("display_time: xyz\n1000\n").is_err());
        assert!(Trace::parse("# only comments\n").is_err());
        assert!(Trace::parse("display_time: 0\n1000\n").is_err());
        assert!(Trace::parse("-5\n").is_err());
    }

    #[test]
    fn autocorrelation_detects_trend_and_noise() {
        // A strongly trending series has positive lag-1 autocorrelation.
        let trend = Trace::new((1..=100).map(f64::from).collect(), 1.0).unwrap();
        assert!(trend.lag1_autocorrelation() > 0.9);
        // An alternating series has a negative one.
        let alt = Trace::new(
            (0..100)
                .map(|i| if i % 2 == 0 { 1.0 } else { 2.0 })
                .collect(),
            1.0,
        )
        .unwrap();
        assert!(alt.lag1_autocorrelation() < -0.9);
        // Degenerate cases.
        let constant = Trace::new(vec![5.0; 10], 1.0).unwrap();
        assert_eq!(constant.lag1_autocorrelation(), 0.0);
        let short = Trace::new(vec![1.0, 2.0], 1.0).unwrap();
        assert_eq!(short.lag1_autocorrelation(), 0.0);
    }
}
