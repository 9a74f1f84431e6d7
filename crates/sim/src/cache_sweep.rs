//! Glitch rate vs cache size vs popularity skew.
//!
//! The paper's validation (§4) simulates independent streams; a fragment
//! cache changes the picture only when streams *share* objects. This
//! module provides a compact shared-catalog round simulator: `N` streams
//! play stored objects drawn from a [`Zipf`] popularity law, every round
//! each stream's next fragment is looked up in a [`FragmentCache`] and
//! only the misses go to the disk's SCAN sweep. Delayed hits coalesce
//! onto the in-flight fetch and inherit its lateness, exactly as the
//! server layer does.
//!
//! [`sweep`] maps out the experiment of the caching story: how the
//! per-stream glitch rate falls as the cache grows, and how strongly that
//! depends on the Zipf skew.

use crate::round::{RoundSimulator, SeekPolicy, SimConfig};
use crate::SimError;
use mzd_cache::{CacheConfig, CachePolicy, FragmentCache, FragmentKey, Lookup};
use mzd_disk::Disk;
use mzd_workload::{SizeDistribution, Zipf};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

/// Configuration of one cache-sweep simulation point.
#[derive(Debug, Clone)]
pub struct CacheSweepConfig {
    /// Disk model serving the misses.
    pub disk: Disk,
    /// Round length, seconds.
    pub round_length: f64,
    /// Concurrent streams.
    pub streams: u32,
    /// Catalog size (number of stored objects).
    pub objects: u32,
    /// Length of every object, rounds.
    pub object_rounds: u32,
    /// Fragment-size law of the stored objects.
    pub sizes: SizeDistribution,
    /// Zipf skew of object popularity (0 = uniform).
    pub zipf_skew: f64,
    /// Cache byte budget (0 disables the cache).
    pub cache_bytes: f64,
    /// Cache replacement policy.
    pub policy: CachePolicy,
    /// Rounds to simulate.
    pub rounds: u64,
}

impl CacheSweepConfig {
    /// A reference configuration: the paper's disk and fragment law, a
    /// 40-object catalog of 20-minute videos, Zipf(1.0) popularity.
    ///
    /// # Errors
    /// Propagates disk-profile construction errors.
    pub fn reference() -> Result<Self, SimError> {
        let disk = mzd_disk::profiles::quantum_viking_2_1()
            .build()
            .map_err(|e| SimError::Invalid(e.to_string()))?;
        Ok(Self {
            disk,
            round_length: 1.0,
            streams: 28,
            objects: 40,
            object_rounds: 1200,
            sizes: SizeDistribution::paper_default(),
            zipf_skew: 1.0,
            cache_bytes: 0.0,
            policy: CachePolicy::Lru,
            rounds: 2_000,
        })
    }
}

/// Measured outcome of one `(cache size, skew)` simulation point.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheSweepPoint {
    /// Cache byte budget simulated.
    pub cache_bytes: f64,
    /// Zipf skew simulated.
    pub zipf_skew: f64,
    /// Stream-rounds simulated (streams × rounds).
    pub stream_rounds: u64,
    /// Total glitches over all streams (late fetches plus the coalesced
    /// waiters they delayed).
    pub glitches: u64,
    /// Requests that reached a disk sweep.
    pub disk_requests: u64,
    /// Fraction of lookups the cache absorbed (hits + delayed hits).
    pub hit_ratio: f64,
    /// Fraction of lookups that were delayed hits.
    pub delayed_hit_share: f64,
}

impl CacheSweepPoint {
    /// Glitches per stream-round.
    #[must_use]
    pub fn glitch_rate(&self) -> f64 {
        if self.stream_rounds == 0 {
            return 0.0;
        }
        self.glitches as f64 / self.stream_rounds as f64
    }
}

struct Stream {
    object: u32,
    position: u32,
}

/// Simulate one point: `cfg.streams` concurrent readers over a shared
/// Zipf-popular catalog, with the configured cache in front of one disk.
/// Deterministic for a given `(cfg, seed)`.
///
/// # Errors
/// [`SimError::Invalid`] for zero streams/objects/rounds or invalid skew.
pub fn run_point(cfg: &CacheSweepConfig, seed: u64) -> Result<CacheSweepPoint, SimError> {
    if cfg.streams == 0 || cfg.objects == 0 || cfg.object_rounds == 0 || cfg.rounds == 0 {
        return Err(SimError::Invalid(
            "cache sweep needs at least one stream, object and round".into(),
        ));
    }
    let zipf = Zipf::new(cfg.objects as usize, cfg.zipf_skew)
        .map_err(|e| SimError::Invalid(e.to_string()))?;
    let mut cache = if cfg.cache_bytes > 0.0 {
        Some(
            FragmentCache::new(CacheConfig {
                capacity_bytes: cfg.cache_bytes,
                policy: cfg.policy,
            })
            .map_err(|e| SimError::Invalid(e.to_string()))?,
        )
    } else {
        None
    };
    let sim_cfg = SimConfig {
        disk: cfg.disk.clone(),
        sizes: cfg.sizes.clone(),
        round_length: cfg.round_length,
        seek_policy: SeekPolicy::Scan,
        placement: mzd_disk::PlacementPolicy::UniformByCapacity,
        faults: None,
    };
    let mut disk = RoundSimulator::new(sim_cfg, seed.wrapping_add(1))?;
    let mut rng = StdRng::seed_from_u64(seed);

    // Staggered start positions so trailing readers can hit what leaders
    // fetched; object choice is Zipf.
    let mut streams: Vec<Stream> = (0..cfg.streams)
        .map(|_| Stream {
            object: zipf.sample(&mut rng) as u32,
            position: rng.random_range(0..cfg.object_rounds),
        })
        .collect();

    let rot_half = cfg.disk.rotation_time() / 2.0;
    let inv_rate = cfg.disk.inverse_rate_moment(1);
    let mut glitches = 0u64;
    let mut disk_requests = 0u64;
    let mut batch_sizes: Vec<f64> = Vec::new();
    let mut batch_keys: Vec<FragmentKey> = Vec::new();

    for _ in 0..cfg.rounds {
        batch_sizes.clear();
        batch_keys.clear();
        for (i, s) in streams.iter().enumerate() {
            let key = FragmentKey {
                object: u64::from(s.object),
                fragment: s.position,
            };
            // Content seed `object + 1` keeps object 0 distinct from the
            // 0-seed degenerate stream.
            let bytes = cfg.sizes.sample_at(u64::from(s.object) + 1, s.position);
            match &mut cache {
                Some(c) => {
                    c.update_reader(i as u64, key.object, s.position);
                    match c.lookup(key) {
                        // The cache counts a delayed hit's wait on the
                        // in-flight fetch itself.
                        Lookup::Hit | Lookup::DelayedHit => {}
                        Lookup::Miss => {
                            c.begin_fetch(key);
                            batch_sizes.push(bytes);
                            batch_keys.push(key);
                        }
                    }
                }
                None => {
                    batch_sizes.push(bytes);
                    batch_keys.push(key);
                }
            }
        }
        disk_requests += batch_sizes.len() as u64;
        let out = disk.run_round_sized(&batch_sizes);
        for &slot in &out.glitched_streams {
            // The fetching stream glitches, and so does every stream that
            // coalesced onto its fetch.
            glitches += 1;
            let key = batch_keys[slot as usize];
            glitches += cache.as_ref().map_or(0, |c| u64::from(c.waiters(key)));
        }
        if let Some(c) = &mut cache {
            for (slot, &key) in batch_keys.iter().enumerate() {
                let bytes = batch_sizes[slot];
                c.complete_fetch(key, bytes, rot_half + bytes * inv_rate);
            }
        }
        for (i, s) in streams.iter_mut().enumerate() {
            s.position += 1;
            if s.position >= cfg.object_rounds {
                // Play-out finished: the slot is immediately reused by a
                // fresh request (constant load), drawn from the same law.
                s.object = zipf.sample(&mut rng) as u32;
                s.position = 0;
                if let Some(c) = &mut cache {
                    c.update_reader(i as u64, u64::from(s.object), 0);
                }
            }
        }
    }

    let stream_rounds = u64::from(cfg.streams) * cfg.rounds;
    let (hit_ratio, delayed_hit_share) = match &cache {
        Some(c) => {
            let s = c.stats();
            let lookups = s.lookups().max(1);
            (
                s.disk_avoidance_ratio(),
                s.delayed_hits as f64 / lookups as f64,
            )
        }
        None => (0.0, 0.0),
    };
    Ok(CacheSweepPoint {
        cache_bytes: cfg.cache_bytes,
        zipf_skew: cfg.zipf_skew,
        stream_rounds,
        glitches,
        disk_requests,
        hit_ratio,
        delayed_hit_share,
    })
}

/// Run the full grid: every `(cache size, skew)` combination on the base
/// configuration. Each point uses a seed derived from `seed` and its grid
/// coordinates, so the grid is reproducible and points are independent —
/// which also makes them safe to fan out across the worker pool. Results
/// come back in grid order (cache sizes outer, skews inner), identical
/// to the serial nesting for any worker count.
///
/// # Errors
/// Propagates the first (in grid order) failing point's error, if any.
pub fn sweep(
    base: &CacheSweepConfig,
    cache_sizes: &[f64],
    skews: &[f64],
    seed: u64,
) -> Result<Vec<CacheSweepPoint>, SimError> {
    let cells: Vec<(usize, usize)> = (0..cache_sizes.len())
        .flat_map(|i| (0..skews.len()).map(move |j| (i, j)))
        .collect();
    mzd_par::par_map(&cells, |&(i, j)| {
        let mut cfg = base.clone();
        cfg.cache_bytes = cache_sizes[i];
        cfg.zipf_skew = skews[j];
        let point_seed = seed
            .wrapping_add((i as u64) << 32)
            .wrapping_add(j as u64 + 1);
        run_point(&cfg, point_seed)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> CacheSweepConfig {
        let mut cfg = CacheSweepConfig::reference().unwrap();
        cfg.streams = 20;
        cfg.objects = 8;
        cfg.object_rounds = 60;
        cfg.rounds = 300;
        cfg
    }

    #[test]
    fn rejects_degenerate_configs() {
        let mut cfg = quick();
        cfg.streams = 0;
        assert!(run_point(&cfg, 1).is_err());
        let mut cfg = quick();
        cfg.rounds = 0;
        assert!(run_point(&cfg, 1).is_err());
        let mut cfg = quick();
        cfg.zipf_skew = -1.0;
        assert!(run_point(&cfg, 1).is_err());
    }

    #[test]
    fn deterministic_for_seed() {
        let mut cfg = quick();
        cfg.cache_bytes = 50e6;
        let a = run_point(&cfg, 7).unwrap();
        let b = run_point(&cfg, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cache_absorbs_disk_traffic() {
        let mut cfg = quick();
        let cacheless = run_point(&cfg, 11).unwrap();
        assert_eq!(cacheless.hit_ratio, 0.0);
        assert_eq!(cacheless.disk_requests, cacheless.stream_rounds);
        cfg.cache_bytes = 200e6;
        let cached = run_point(&cfg, 11).unwrap();
        assert!(cached.hit_ratio > 0.2, "hit ratio {}", cached.hit_ratio);
        assert!(cached.disk_requests < cacheless.disk_requests);
        assert_eq!(
            cached.disk_requests + (cached.hit_ratio * cached.stream_rounds as f64).round() as u64,
            cached.stream_rounds,
            "hits + disk visits account for every lookup"
        );
    }

    #[test]
    fn skew_increases_cache_value() {
        let mut cfg = quick();
        cfg.cache_bytes = 60e6;
        cfg.zipf_skew = 0.0;
        let flat = run_point(&cfg, 13).unwrap();
        cfg.zipf_skew = 1.4;
        let steep = run_point(&cfg, 13).unwrap();
        assert!(
            steep.hit_ratio > flat.hit_ratio,
            "steep {} vs flat {}",
            steep.hit_ratio,
            flat.hit_ratio
        );
    }

    #[test]
    fn overload_glitches_fall_with_cache_size() {
        // 40 streams on one Viking disk is past the admission limit:
        // without a cache the sweep overruns chronically; a large cache
        // thins the batches back under control.
        let mut cfg = quick();
        cfg.streams = 40;
        let hot = run_point(&cfg, 17).unwrap();
        assert!(hot.glitch_rate() > 0.05, "rate {}", hot.glitch_rate());
        cfg.cache_bytes = 400e6;
        let cooled = run_point(&cfg, 17).unwrap();
        assert!(
            cooled.glitch_rate() < hot.glitch_rate() / 2.0,
            "cooled {} vs hot {}",
            cooled.glitch_rate(),
            hot.glitch_rate()
        );
    }

    #[test]
    fn sweep_runs_the_grid() {
        let cfg = quick();
        let points = sweep(&cfg, &[0.0, 100e6], &[0.5, 1.0], 19).unwrap();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].cache_bytes, 0.0);
        assert_eq!(points[3].zipf_skew, 1.0);
        for p in &points {
            assert!(p.glitch_rate() >= 0.0);
            assert!((0.0..=1.0).contains(&p.hit_ratio));
        }
    }
}
