//! The analytic model, solved once: [`ModelTables`].
//!
//! What a server derives from the §3 model before and while serving —
//! the per-disk admission limit (§5's precomputed `N_max`) and the
//! predicted service-time CDF tables the SLO layer's conformance check
//! reads — is a pure function of the model, the round length and the
//! quality target. A fleet whose nodes share one configuration solves
//! it once: `Cluster::new` builds one `ModelTables` and hands every node
//! the same `Arc` ([`crate::VideoServer::with_tables`]). A standalone
//! server ([`crate::VideoServer::new`]) builds its own.

use std::borrow::Cow;
use std::sync::OnceLock;

use mzd_core::{GuaranteeModel, ServiceTimeCdf};

use crate::admission::MAX_CACHE_INFLATION;
use crate::{QualityTarget, ServerConfig, ServerError};

/// Grid resolution of the per-`n` predicted-CDF tables built for online
/// conformance: coarse enough to build lazily mid-run, fine enough that
/// interpolation error is far below the checker's tail tolerance.
const CDF_GRID_POINTS: usize = 65;

/// The analytic model with everything solved from it: the per-disk
/// admission limit, computed once at construction, and one predicted
/// CDF table per round population `n`, built on first use. Shareable
/// across threads: fleet nodes stepping in parallel read one instance.
#[derive(Debug)]
pub struct ModelTables {
    model: GuaranteeModel,
    round_length: f64,
    target: QualityTarget,
    /// `b_glitch(k)` at index `k − 1` for `k` up to the per-disk limit,
    /// kept from the admission scan; its length is the limit.
    glitch_bounds: Vec<f64>,
    /// `F_n` at index `n − 1`, for every `n` a disk batch can reach under
    /// the limit (cache-aware inflation included). `None` inside a set
    /// cell marks a grid build that failed. Boxed so the cells a fleet
    /// never observes (most of them) cost a pointer each.
    cdfs: Box<[OnceLock<Option<Box<ServiceTimeCdf>>>]>,
}

impl ModelTables {
    /// Solve `model` for `target` at `round_length`: the per-disk limit
    /// now (one admission scan, whose glitch bounds are kept), the CDF
    /// tables on demand.
    ///
    /// # Errors
    /// Propagates model-evaluation errors (invalid `t` or thresholds).
    pub fn solve(
        model: GuaranteeModel,
        round_length: f64,
        target: QualityTarget,
    ) -> Result<Self, ServerError> {
        let QualityTarget { m, g, epsilon } = target;
        let glitch_bounds = model.p_glitch_prefix(round_length, m, g, epsilon)?;
        let cells = glitch_bounds.len() * MAX_CACHE_INFLATION as usize;
        Ok(Self {
            model,
            round_length,
            target,
            glitch_bounds,
            cdfs: (0..cells).map(|_| OnceLock::new()).collect(),
        })
    }

    /// The tables a server configuration implies.
    ///
    /// # Errors
    /// Propagates model-construction and model-evaluation errors.
    pub fn for_config(cfg: &ServerConfig) -> Result<Self, ServerError> {
        Self::solve(cfg.model()?, cfg.round_length, cfg.target)
    }

    /// Whether these tables were solved for `cfg`'s model, round length
    /// and target.
    ///
    /// # Errors
    /// Propagates model-construction errors.
    pub(crate) fn fits(&self, cfg: &ServerConfig) -> Result<bool, ServerError> {
        Ok(self.round_length == cfg.round_length
            && self.target == cfg.target
            && self.model == cfg.model()?)
    }

    /// The analytic model the tables were solved from.
    #[must_use]
    pub fn model(&self) -> &GuaranteeModel {
        &self.model
    }

    /// The round length, seconds.
    #[must_use]
    pub fn round_length(&self) -> f64 {
        self.round_length
    }

    /// The quality target the limit was solved for.
    #[must_use]
    pub fn target(&self) -> QualityTarget {
        self.target
    }

    /// The per-disk stream limit the model yields for the target (before
    /// any cache-aware inflation).
    #[must_use]
    pub fn per_disk_limit(&self) -> u32 {
        self.glitch_bounds.len() as u32
    }

    /// The per-round glitch bounds `b_glitch(k, t)` of eq. 3.3.3 for
    /// `k = 1..=`[`Self::per_disk_limit`], kept from the eq. 3.3.6 scan
    /// that solved the limit ([`GuaranteeModel::p_glitch_prefix`]).
    #[must_use]
    pub fn glitch_bounds(&self) -> &[f64] {
        &self.glitch_bounds
    }

    /// The predicted CDF `F_n`, tabulated on first use for this `n`;
    /// `None` for `n = 0` or a failed grid build. Concurrent first users
    /// may each build the table — no lock is held while building — and
    /// one result is kept; a table is a pure function of `(model, n)`,
    /// so which one does not matter. A batch beyond the limit's
    /// [`MAX_CACHE_INFLATION`]-fold reach gets an uncached table.
    #[must_use]
    pub fn cdf_for(&self, n: u32) -> Option<Cow<'_, ServiceTimeCdf>> {
        if n == 0 {
            return None;
        }
        let build = || ServiceTimeCdf::with_resolution(&self.model, n, CDF_GRID_POINTS).ok();
        let Some(cell) = self.cdfs.get(n as usize - 1) else {
            return build().map(Cow::Owned);
        };
        if cell.get().is_none() {
            let _ = cell.set(build().map(Box::new));
        }
        cell.get()?.as_deref().map(Cow::Borrowed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's reference model at 1-s rounds under a three-glitch
    /// target, which solves to N_max = 26.
    fn tables() -> ModelTables {
        let model = GuaranteeModel::paper_reference().unwrap();
        let target = QualityTarget {
            m: 1200,
            g: 3,
            epsilon: 0.01,
        };
        ModelTables::solve(model, 1.0, target).unwrap()
    }

    #[test]
    fn cdf_tables_are_cached_per_n_and_reject_zero() {
        let st = tables();
        assert!(st.cdf_for(0).is_none());
        let v1 = st.cdf_for(4).unwrap().evaluate(1.0);
        let v2 = st.cdf_for(4).unwrap().evaluate(1.0);
        assert_eq!(v1, v2);
    }

    #[test]
    fn cached_and_uncached_tables_agree() {
        let st = tables();
        assert_eq!(st.per_disk_limit(), 26);
        // Cached: the same table on every call.
        let a = st.cdf_for(27).unwrap();
        assert!(matches!(a, Cow::Borrowed(_)));
        let b = st.cdf_for(27).unwrap();
        assert!(std::ptr::eq(a.as_ref(), b.as_ref()));
        // Past the limit's 8x reach: built fresh, same values.
        let far = st.cdf_for(26 * MAX_CACHE_INFLATION + 1).unwrap();
        assert!(matches!(far, Cow::Owned(_)));
        let direct = ServiceTimeCdf::with_resolution(
            st.model(),
            26 * MAX_CACHE_INFLATION + 1,
            CDF_GRID_POINTS,
        )
        .unwrap()
        .evaluate(4.0);
        assert_eq!(far.evaluate(4.0).to_bits(), direct.to_bits());
    }

    #[test]
    fn tables_know_what_they_were_solved_for() {
        let cfg = ServerConfig::paper_reference(2).unwrap();
        let st = ModelTables::for_config(&cfg).unwrap();
        assert_eq!(st.per_disk_limit(), 28);
        assert_eq!(st.round_length(), 1.0);
        assert_eq!(st.target(), cfg.target);
        assert!(st.fits(&cfg).unwrap());
        let mut other = cfg.clone();
        other.round_length = 2.0;
        assert!(!st.fits(&other).unwrap());
        let mut other = cfg.clone();
        other.admission_size_mean = 300_000.0;
        assert!(!st.fits(&other).unwrap());
        let mut other = cfg.clone();
        other.target.g = 3;
        assert!(!st.fits(&other).unwrap());
        // The fleet constructor refuses them, and a limit above the
        // tables' own; a fitting config is served at the limit it asks.
        let st = std::sync::Arc::new(st);
        let err = crate::VideoServer::with_tables(other, 1, st.clone(), 28).unwrap_err();
        assert!(matches!(err, ServerError::Invalid(_)), "{err}");
        for limit in [0, 29] {
            let err = crate::VideoServer::with_tables(cfg.clone(), 1, st.clone(), limit);
            assert!(matches!(err, Err(ServerError::Invalid(_))), "limit {limit}");
        }
        let server = crate::VideoServer::with_tables(cfg, 1, st.clone(), 27).unwrap();
        assert!(std::sync::Arc::ptr_eq(server.tables(), &st));
        assert_eq!(server.admission().per_disk_limit(), 27);
    }
}
