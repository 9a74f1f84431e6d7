//! Property tests for the cache invariants called out in the design:
//!
//! 1. resident bytes never exceed the configured capacity;
//! 2. LRU evicts strictly in recency order (checked against a reference
//!    model that tracks the recency list independently);
//! 3. interval caching never evicts a fragment lying between two active
//!    sequential readers of the same object;
//! 4. delayed-hit count never exceeds `lookups − hits − misses` (in fact
//!    the classification is exhaustive, so equality holds).

use mzd_cache::{CacheConfig, CachePolicy, FragmentCache, FragmentKey, Lookup};
use proptest::prelude::*;

/// One step of a randomly generated cache workload.
#[derive(Debug, Clone)]
enum Op {
    Lookup {
        object: u64,
        fragment: u32,
    },
    BeginFetch {
        object: u64,
        fragment: u32,
    },
    CompleteFetch {
        object: u64,
        fragment: u32,
        bytes: u32,
    },
    Insert {
        object: u64,
        fragment: u32,
        bytes: u32,
    },
    MoveReader {
        reader: u64,
        object: u64,
        position: u32,
    },
    RemoveReader {
        reader: u64,
    },
}

fn key(object: u64, fragment: u32) -> FragmentKey {
    FragmentKey { object, fragment }
}

/// Small key universe so operations collide often enough to exercise
/// every path (replace, coalesce, evict-then-reinsert, ...).
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..4, 0u32..8).prop_map(|(o, f)| Op::Lookup {
            object: o,
            fragment: f
        }),
        (0u64..4, 0u32..8).prop_map(|(o, f)| Op::BeginFetch {
            object: o,
            fragment: f
        }),
        (0u64..4, 0u32..8, 1u32..400).prop_map(|(o, f, b)| Op::CompleteFetch {
            object: o,
            fragment: f,
            bytes: b
        }),
        (0u64..4, 0u32..8, 1u32..400).prop_map(|(o, f, b)| Op::Insert {
            object: o,
            fragment: f,
            bytes: b
        }),
        (0u64..3, 0u64..4, 0u32..8).prop_map(|(r, o, p)| Op::MoveReader {
            reader: r,
            object: o,
            position: p
        }),
        (0u64..3).prop_map(|r| Op::RemoveReader { reader: r }),
    ]
}

fn apply(cache: &mut FragmentCache, op: &Op) {
    match *op {
        Op::Lookup { object, fragment } => {
            cache.lookup(key(object, fragment));
        }
        Op::BeginFetch { object, fragment } => cache.begin_fetch(key(object, fragment)),
        Op::CompleteFetch {
            object,
            fragment,
            bytes,
        } => {
            // Only meaningful after begin_fetch; make it well-formed so
            // the sequence exercises the coalescing path.
            let k = key(object, fragment);
            cache.begin_fetch(k);
            cache.complete_fetch(k, f64::from(bytes), 0.01);
        }
        Op::Insert {
            object,
            fragment,
            bytes,
        } => {
            cache.insert(key(object, fragment), f64::from(bytes), 0.01);
        }
        Op::MoveReader {
            reader,
            object,
            position,
        } => cache.update_reader(reader, object, position),
        Op::RemoveReader { reader } => cache.remove_reader(reader),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Invariant 1: under any operation sequence and any policy, the
    /// resident bytes stay within the byte budget after every step.
    #[test]
    fn occupancy_never_exceeds_capacity(
        ops in prop::collection::vec(op_strategy(), 1..120),
        capacity in 0u32..2_000,
        policy in prop_oneof![
            Just(CachePolicy::Lru),
            Just(CachePolicy::Interval),
            Just(CachePolicy::CostAware),
        ],
    ) {
        let mut cache = FragmentCache::new(CacheConfig {
            capacity_bytes: f64::from(capacity),
            policy,
        })
        .unwrap();
        for op in &ops {
            apply(&mut cache, op);
            prop_assert!(
                cache.occupancy_bytes() <= cache.capacity_bytes(),
                "occupancy {} > capacity {} after {:?}",
                cache.occupancy_bytes(),
                cache.capacity_bytes(),
                op
            );
            // The slab view and the byte ledger agree.
            prop_assert_eq!(cache.keys().count(), cache.len());
        }
    }

    /// Invariant 2: LRU evicts in recency order. A reference model keeps
    /// its own recency list (most-recent first); whenever the cache must
    /// evict, the victims must be a suffix of that list (the least
    /// recently used entries, in order).
    #[test]
    fn lru_evicts_in_recency_order(
        ops in prop::collection::vec(
            (0u64..5, 0u32..6, 1u32..300, ..), 1..150),
    ) {
        let capacity = 1_000.0;
        let mut cache = FragmentCache::new(CacheConfig {
            capacity_bytes: capacity,
            policy: CachePolicy::Lru,
        })
        .unwrap();
        // Model: (key, bytes) most-recently-used first.
        let mut model: Vec<(FragmentKey, f64)> = Vec::new();

        for (object, fragment, bytes, is_lookup) in ops {
            let k = key(object, fragment);
            if is_lookup {
                let before = model.iter().position(|(mk, _)| *mk == k);
                let got = cache.lookup(k);
                match before {
                    Some(i) => {
                        prop_assert_eq!(got, Lookup::Hit);
                        let e = model.remove(i);
                        model.insert(0, e);
                    }
                    None => prop_assert_eq!(got, Lookup::Miss),
                }
            } else {
                let bytes = f64::from(bytes);
                let admitted = cache.insert(k, bytes, 0.01);
                // Model the same transition: drop a resident copy, then
                // evict from the tail until the new entry fits.
                if let Some(i) = model.iter().position(|(mk, _)| *mk == k) {
                    model.remove(i);
                }
                if admitted {
                    let mut used: f64 = model.iter().map(|(_, b)| b).sum();
                    while used + bytes > capacity {
                        let (_, b) = model.pop().expect("cache admitted, model must fit");
                        used -= b;
                    }
                    model.insert(0, (k, bytes));
                } else {
                    // Only an oversized entry is refused under pure LRU.
                    prop_assert!(bytes > capacity);
                }
            }
            // Residency must match the model exactly after every step.
            prop_assert_eq!(cache.len(), model.len());
            for (mk, _) in &model {
                prop_assert!(cache.contains(*mk), "model key {:?} missing", mk);
            }
        }
    }

    /// Invariant 3: with interval caching, a fragment lying strictly
    /// between (or on) two active readers of its object is never evicted
    /// to make room — insert pressure may be refused instead.
    #[test]
    fn interval_never_evicts_straddled_fragments(
        readers in prop::collection::vec((0u64..2, 0u32..10), 2..4),
        fills in prop::collection::vec((0u64..2, 0u32..10, 50u32..200), 1..60),
    ) {
        let mut cache = FragmentCache::new(CacheConfig {
            capacity_bytes: 500.0,
            policy: CachePolicy::Interval,
        })
        .unwrap();
        for (i, (object, position)) in readers.iter().enumerate() {
            cache.update_reader(i as u64, *object, *position);
        }
        let mut protected_resident: Vec<FragmentKey> = Vec::new();
        for (object, fragment, bytes) in fills {
            let k = key(object, fragment);
            // Re-inserting a resident key is a caller-requested replace
            // (and may be refused), not a policy eviction: it is exempt
            // from the no-evict guarantee for this step.
            protected_resident.retain(|pk| *pk != k);
            cache.insert(k, f64::from(bytes), 0.01);
            if cache.contains(k) && cache.protected(object, fragment) {
                protected_resident.push(k);
            }
            // No previously protected resident fragment may have been
            // evicted (readers never move in this scenario, so
            // protection never lapses).
            for pk in &protected_resident {
                prop_assert!(
                    cache.contains(*pk),
                    "protected fragment {:?} was evicted",
                    pk
                );
            }
            prop_assert!(cache.occupancy_bytes() <= cache.capacity_bytes());
        }
    }

    /// Invariant 4: delayed hits never exceed `lookups − hits − misses`;
    /// with the exhaustive classification this is an equality.
    #[test]
    fn delayed_hits_bounded_by_unclassified_lookups(
        ops in prop::collection::vec(op_strategy(), 1..200),
    ) {
        let mut cache = FragmentCache::new(CacheConfig {
            capacity_bytes: 800.0,
            policy: CachePolicy::Lru,
        })
        .unwrap();
        for op in &ops {
            apply(&mut cache, op);
            let s = *cache.stats();
            prop_assert!(s.delayed_hits <= s.lookups() - s.hits - s.misses);
            prop_assert_eq!(s.delayed_hits, s.lookups() - s.hits - s.misses);
        }
    }
}
