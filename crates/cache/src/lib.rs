//! Server-side fragment buffer cache with delayed-hit accounting.
//!
//! The paper's admission bound caps each disk at `N_max` concurrent
//! streams, so scaling past the spindles requires stopping hot fragments
//! from reaching the disks at all. This crate provides the cache layer the
//! server puts in front of its per-disk round scheduling:
//!
//! * [`FragmentCache`] — a fragment-granular store keyed by
//!   [`FragmentKey`] (`(object, fragment_index)`) under a byte-capacity
//!   budget, with pluggable replacement ([`CachePolicy`]). Each policy
//!   pays only for the state it reads:
//!   * **LRU** — classic recency order, `O(1)` on every path: a lookup,
//!     fetch or fill is a few hash-table operations and list relinks,
//!     and [`FragmentCache::update_reader`] is a no-op;
//!   * **interval caching** — for sequential streams, never evict a
//!     fragment lying between two active readers of the same object (the
//!     trailing reader is guaranteed to want it; Dan & Sitaram's interval
//!     caching adapted to the paper's round/fragment vocabulary). Only
//!     this policy tracks reader positions: each
//!     [`FragmentCache::update_reader`] moves the reader in a per-object
//!     ordered set, `O(log readers)`, and a victim scan walks the LRU
//!     list past protected fragments;
//!   * **cost-aware** — rank entries by expected disk-service-time saved
//!     per unit of time-to-next-access (the LRU-MAD idea from Atre et
//!     al.'s "Caches with Delayed Hits"), using the per-fragment
//!     `E[T_rot] + E[T_trans]` the caller computes from the `mzd-core`
//!     analytic model. `O(1)` per request like LRU, `O(resident
//!     entries)` per eviction.
//! * **Delayed-hit accounting** — a request for a fragment *currently
//!   being fetched* is neither a hit nor a full miss: it coalesces onto
//!   the outstanding fetch ([`FragmentCache::begin_fetch`] /
//!   [`FragmentCache::complete_fetch`]) and waits a fraction of a round —
//!   exactly a *potential glitch* in the paper's vocabulary, and charged
//!   as partial-round latency by the server rather than a disk visit.
//!
//! The crate is dependency-free (std only) and fully deterministic: no
//! hash-map iteration order ever influences an eviction decision (victim
//! scans walk the insertion-ordered slab), so a seeded simulation using
//! the cache replays byte-identically.
//!
//! Its tables hash with a small deterministic integer hasher (a
//! rotate-and-xor fold finished by the SplitMix64 finalizer) instead of
//! the standard library's keyed SipHash, whose rounds a request would
//! otherwise pay on every table operation. SipHash's per-process key
//! defends a table against keys crafted to collide; the cache needs no
//! such defence, because every key it hashes is assigned by the program
//! — catalog content ids, fragment indices and stream ids — never read
//! from outside it.
//!
//! # Example
//!
//! ```
//! use mzd_cache::{CacheConfig, CachePolicy, FragmentCache, FragmentKey, Lookup};
//!
//! let mut cache = FragmentCache::new(CacheConfig {
//!     capacity_bytes: 1_000_000.0,
//!     policy: CachePolicy::Lru,
//! })
//! .unwrap();
//! let key = FragmentKey { object: 7, fragment: 0 };
//!
//! // First stream: miss → fetch from disk.
//! assert_eq!(cache.lookup(key), Lookup::Miss);
//! cache.begin_fetch(key);
//! // Second stream, same round: coalesces onto the in-flight fetch.
//! assert_eq!(cache.lookup(key), Lookup::DelayedHit);
//! // The disk round completes: fill the cache, learn how many waited.
//! let waiters = cache.complete_fetch(key, 200_000.0, 0.016);
//! assert_eq!(waiters, 1);
//! // Next round: the fragment is resident.
//! assert_eq!(cache.lookup(key), Lookup::Hit);
//! ```

#![warn(missing_docs)]

mod store;

pub use store::{FragmentCache, Lookup};

/// Errors from cache construction.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheError {
    /// A configuration parameter was invalid.
    Invalid(String),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Invalid(msg) => write!(f, "invalid cache parameters: {msg}"),
        }
    }
}

impl std::error::Error for CacheError {}

/// Cache key: one fragment of one stored object.
///
/// `object` is the content identity (two streams playing the same stored
/// object share it); `fragment` is the fragment index — the paper's round
/// counter within the object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FragmentKey {
    /// Content identity of the stored object.
    pub object: u64,
    /// Fragment index within the object (0-based).
    pub fragment: u32,
}

/// Replacement policy of a [`FragmentCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Evict the least-recently-used entry. `O(1)`.
    #[default]
    Lru,
    /// LRU, but never evict a fragment lying between two active
    /// sequential readers of its object (the trailing reader will
    /// consume it). When every resident fragment is protected, new
    /// insertions are refused instead — capacity is never exceeded.
    Interval,
    /// Evict the entry with the smallest `cost / (age + 1)` score, where
    /// `cost` is the expected disk service time the entry saves per hit
    /// (supplied by the caller on fill) and `age` is the time since last
    /// access — keep fragments that are expensive to re-fetch and likely
    /// to be re-read soon. `O(resident entries)` per eviction.
    CostAware,
}

impl CachePolicy {
    /// Parse a policy name as used by the CLI (`lru`, `interval`, `cost`).
    ///
    /// # Errors
    /// [`CacheError::Invalid`] for unknown names.
    pub fn parse(name: &str) -> Result<Self, CacheError> {
        match name {
            "lru" => Ok(Self::Lru),
            "interval" => Ok(Self::Interval),
            "cost" | "cost-aware" => Ok(Self::CostAware),
            other => Err(CacheError::Invalid(format!(
                "unknown cache policy `{other}` (expected lru, interval or cost)"
            ))),
        }
    }

    /// The canonical name (`lru`, `interval`, `cost`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Lru => "lru",
            Self::Interval => "interval",
            Self::CostAware => "cost",
        }
    }
}

/// Configuration of a [`FragmentCache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Byte budget. Entries are admitted only while the total resident
    /// bytes stay at or below this.
    pub capacity_bytes: f64,
    /// Replacement policy.
    pub policy: CachePolicy,
}

/// Running counters of a [`FragmentCache`].
///
/// The classification is exhaustive: every [`FragmentCache::lookup`] is
/// exactly one of hit, delayed hit or miss, so
/// `hits + delayed_hits + misses == lookups()` always.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from resident entries.
    pub hits: u64,
    /// Lookups that coalesced onto an in-flight fetch.
    pub delayed_hits: u64,
    /// Lookups that found neither a resident entry nor an in-flight fetch.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries admitted (fills and updates).
    pub insertions: u64,
    /// Fills refused because no admissible victim could free enough room
    /// (oversized entry, or all residents protected under interval
    /// caching).
    pub rejected_fills: u64,
}

impl CacheStats {
    /// Total lookups classified.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.delayed_hits + self.misses
    }

    /// Fraction of lookups that avoided a dedicated disk visit (hits plus
    /// delayed hits), or 0 before any lookup.
    #[must_use]
    pub fn disk_avoidance_ratio(&self) -> f64 {
        let n = self.lookups();
        if n == 0 {
            return 0.0;
        }
        (self.hits + self.delayed_hits) as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_round_trip() {
        for p in [
            CachePolicy::Lru,
            CachePolicy::Interval,
            CachePolicy::CostAware,
        ] {
            assert_eq!(CachePolicy::parse(p.name()).unwrap(), p);
        }
        assert_eq!(
            CachePolicy::parse("cost-aware").unwrap(),
            CachePolicy::CostAware
        );
        assert!(CachePolicy::parse("mru").is_err());
    }

    #[test]
    fn stats_classification_is_exhaustive() {
        let s = CacheStats {
            hits: 3,
            delayed_hits: 2,
            misses: 5,
            ..CacheStats::default()
        };
        assert_eq!(s.lookups(), 10);
        assert!((s.disk_avoidance_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().disk_avoidance_ratio(), 0.0);
    }
}
