//! Stream and object specifications.
//!
//! A *continuous object* (video/audio) is a stored sequence of fragments;
//! a *stream* is an active play-out of an object by one client (§2). The
//! analytic model needs only the per-round fragment-size law and the
//! stream length in rounds; the simulator and server additionally track
//! identities and lifecycles.

use crate::size::SizeDistribution;
use crate::WorkloadError;

/// Specification of a stored continuous object.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectSpec {
    /// Human-readable name.
    pub name: String,
    /// Fragment-size law of the object.
    pub sizes: SizeDistribution,
    /// Play-out length in rounds (`M` in the paper).
    pub rounds: u32,
    /// Content identity for *stored* objects.
    ///
    /// `None` (the default) keeps the paper's i.i.d. model: each play-out
    /// re-draws its fragment sizes from `sizes` independently. `Some(id)`
    /// declares the object a fixed stored artifact: fragment `f` always
    /// has size [`SizeDistribution::sample_at`]`(id, f)`, identical across
    /// streams — the precondition for fragments being cacheable and for
    /// two readers to share a fetch.
    pub content_id: Option<u64>,
}

impl ObjectSpec {
    /// Create an object spec.
    ///
    /// # Errors
    /// [`WorkloadError::Invalid`] if `rounds == 0`.
    pub fn new(
        name: impl Into<String>,
        sizes: SizeDistribution,
        rounds: u32,
    ) -> Result<Self, WorkloadError> {
        if rounds == 0 {
            return Err(WorkloadError::Invalid(
                "object must last at least one round".into(),
            ));
        }
        Ok(Self {
            name: name.into(),
            sizes,
            rounds,
            content_id: None,
        })
    }

    /// Mark this object as stored content with the given identity (see
    /// [`ObjectSpec::content_id`]).
    #[must_use]
    pub fn with_content_id(mut self, id: u64) -> Self {
        self.content_id = Some(id);
        self
    }

    /// The size of stored fragment `fragment`, or `None` for i.i.d.
    /// objects (no fixed per-fragment size exists — the caller samples).
    #[must_use]
    pub fn stored_fragment_size(&self, fragment: u32) -> Option<f64> {
        self.content_id.map(|id| self.sizes.sample_at(id, fragment))
    }

    /// The paper's reference object: Gamma(200 KB, (100 KB)²) fragments
    /// over `M = 1200` rounds (Table 1 — a 20-minute video at `t = 1 s`).
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            name: "paper-default".into(),
            sizes: SizeDistribution::paper_default(),
            rounds: 1200,
            content_id: None,
        }
    }

    /// Expected total object size, bytes.
    #[must_use]
    pub fn expected_bytes(&self) -> f64 {
        self.sizes.mean() * f64::from(self.rounds)
    }
}

/// A catalog of stored objects, from which streams are opened.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObjectCatalog {
    objects: Vec<ObjectSpec>,
}

impl ObjectCatalog {
    /// Empty catalog.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A small demo catalog with heterogeneous bandwidths: a news clip,
    /// a feature movie and an audio track — the mixed-media setting the
    /// paper's introduction motivates.
    ///
    /// # Errors
    /// Never in practice (all parameters are valid); propagated for
    /// uniformity.
    pub fn demo() -> Result<Self, WorkloadError> {
        let mut c = Self::new();
        // News clip: 5 minutes, high-variability MPEG-2 (~4 Mbit/s).
        c.add(ObjectSpec::new(
            "news-clip",
            SizeDistribution::gamma(500_000.0, (300_000.0f64).powi(2))?,
            300,
        )?);
        // Feature movie: 90 minutes, 4 Mbit/s.
        c.add(ObjectSpec::new(
            "feature-movie",
            SizeDistribution::gamma(500_000.0, (250_000.0f64).powi(2))?,
            5400,
        )?);
        // Audio: 4 minutes, 256 kbit/s, low variability.
        c.add(ObjectSpec::new(
            "audio-track",
            SizeDistribution::gamma(32_000.0, (4_000.0f64).powi(2))?,
            240,
        )?);
        Ok(c)
    }

    /// Add an object.
    pub fn add(&mut self, object: ObjectSpec) {
        self.objects.push(object);
    }

    /// All objects.
    #[must_use]
    pub fn objects(&self) -> &[ObjectSpec] {
        &self.objects
    }

    /// Look up an object by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&ObjectSpec> {
        self.objects.iter().find(|o| o.name == name)
    }

    /// Number of objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the catalog is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Pooled fragment-size moments across the catalog, weighting every
    /// object equally — the "workload statistics … fed into the admission
    /// control" of §2.3. Returns `(mean, variance)` of a fragment drawn
    /// from a uniformly-chosen object (law of total variance).
    #[must_use]
    pub fn pooled_moments(&self) -> Option<(f64, f64)> {
        if self.objects.is_empty() {
            return None;
        }
        let n = self.objects.len() as f64;
        let mean: f64 = self.objects.iter().map(|o| o.sizes.mean()).sum::<f64>() / n;
        let within: f64 = self.objects.iter().map(|o| o.sizes.variance()).sum::<f64>() / n;
        let between: f64 = self
            .objects
            .iter()
            .map(|o| {
                let d = o.sizes.mean() - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        Some((mean, within + between))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_object() {
        let o = ObjectSpec::paper_default();
        assert_eq!(o.rounds, 1200);
        assert_eq!(o.sizes.mean(), 200_000.0);
        // 1200 rounds × 200 KB = 240 MB expected.
        assert_eq!(o.expected_bytes(), 240e6);
    }

    #[test]
    fn content_id_gates_stored_sizes() {
        let iid = ObjectSpec::paper_default();
        assert_eq!(iid.content_id, None);
        assert_eq!(iid.stored_fragment_size(0), None);
        let stored = ObjectSpec::paper_default().with_content_id(9);
        assert_eq!(stored.content_id, Some(9));
        let s0 = stored.stored_fragment_size(0).unwrap();
        assert_eq!(stored.stored_fragment_size(0), Some(s0));
        assert_ne!(stored.stored_fragment_size(1), Some(s0));
        assert_eq!(
            s0,
            stored.sizes.sample_at(9, 0),
            "stored size comes from sample_at"
        );
    }

    #[test]
    fn object_requires_positive_rounds() {
        assert!(ObjectSpec::new("x", SizeDistribution::paper_default(), 0).is_err());
    }

    #[test]
    fn demo_catalog_contents() {
        let c = ObjectCatalog::demo().unwrap();
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert!(c.get("feature-movie").is_some());
        assert!(c.get("nonexistent").is_none());
        // The movie dominates storage.
        let movie = c.get("feature-movie").unwrap();
        assert!(movie.expected_bytes() > 2e9);
    }

    #[test]
    fn pooled_moments_law_of_total_variance() {
        let mut c = ObjectCatalog::new();
        assert_eq!(c.pooled_moments(), None);
        c.add(ObjectSpec::new("a", SizeDistribution::constant(100.0).unwrap(), 10).unwrap());
        c.add(ObjectSpec::new("b", SizeDistribution::constant(300.0).unwrap(), 10).unwrap());
        let (m, v) = c.pooled_moments().unwrap();
        assert_eq!(m, 200.0);
        // Two constants: within-variance 0, between-variance 100².
        assert_eq!(v, 10_000.0);
    }
}
