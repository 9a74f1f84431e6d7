//! The cache store: slab-backed LRU list, in-flight fetch table and,
//! for the interval policy only, reader-position tracking.
//!
//! All structures are designed so that no `HashMap` iteration order ever
//! reaches an eviction decision: the LRU order is an intrusive doubly
//! linked list over a slab, and the cost-aware victim scan walks the slab
//! by index. A seeded simulation through this cache is therefore
//! deterministic and replayable.

use crate::{CacheConfig, CacheError, CachePolicy, CacheStats, FragmentKey};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Sentinel for "no slab slot".
const NIL: usize = usize::MAX;

/// A hash map keyed by program-assigned integers, hashed by [`KeyHasher`].
type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// Deterministic integer hasher for the cache's tables. Words are folded
/// in by rotate-and-xor, so a [`FragmentKey`]'s object id and fragment
/// index land in opposite halves of the state, and [`Hasher::finish`]
/// mixes the state with the SplitMix64 finalizer (the constants of
/// `mzd_par::derive_seed`, copied here to keep the crate std-only). The
/// finalizer is a bijection, so keys that fold to distinct states —
/// every key whose object id fits in 32 bits — never collide, and every
/// output bit depends on every input bit.
///
/// It has no per-process key, so unlike the default SipHash it does not
/// resist keys crafted to collide. Every key hashed here is assigned by
/// the program — catalog content ids, fragment indices, stream ids —
/// never read from outside it.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    /// Byte-wise fallback; the cache's keys write whole words.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = self.0.rotate_left(32) ^ word;
    }

    fn finish(&self) -> u64 {
        let mut z = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Outcome of a [`FragmentCache::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The fragment is resident: serve it now, no disk visit, no glitch
    /// risk.
    Hit,
    /// The fragment is being fetched for another stream this round: the
    /// request coalesces onto that fetch and waits a fraction of a round
    /// (a *potential glitch*), but costs no extra disk visit.
    DelayedHit,
    /// Not resident and not in flight: the caller must fetch from disk
    /// ([`FragmentCache::begin_fetch`], then
    /// [`FragmentCache::complete_fetch`] when the sweep delivers it).
    Miss,
}

/// One resident entry.
#[derive(Debug, Clone)]
struct Entry {
    key: FragmentKey,
    bytes: f64,
    /// Expected disk service time this entry saves per hit, seconds
    /// (`E[T_rot] + E[T_trans]` of the fragment, from the analytic model).
    cost: f64,
    /// Logical clock of the last access (lookup hit or fill).
    last_access: u64,
    prev: usize,
    next: usize,
}

/// Fragment-granular buffer cache under a byte budget. See the crate docs
/// for the design; see [`CachePolicy`] for replacement behaviour.
#[derive(Debug)]
pub struct FragmentCache {
    cfg: CacheConfig,
    /// Slab of entries; `free` stacks spare slot indices.
    slab: Vec<Option<Entry>>,
    free: Vec<usize>,
    /// Key → slab index of resident entries.
    map: KeyMap<FragmentKey, usize>,
    /// LRU list: `head` is most recent, `tail` least recent.
    head: usize,
    tail: usize,
    /// Outstanding fetches → number of coalesced waiters.
    in_flight: KeyMap<FragmentKey, u32>,
    /// Reader positions, held only under [`CachePolicy::Interval`] — the
    /// one policy that reads them.
    readers: Option<Readers>,
    occupancy: f64,
    clock: u64,
    stats: CacheStats,
}

impl FragmentCache {
    /// Create a cache.
    ///
    /// # Errors
    /// [`CacheError::Invalid`] for a negative or non-finite capacity.
    pub fn new(cfg: CacheConfig) -> Result<Self, CacheError> {
        if !(cfg.capacity_bytes >= 0.0) || !cfg.capacity_bytes.is_finite() {
            return Err(CacheError::Invalid(format!(
                "capacity must be finite and non-negative, got {}",
                cfg.capacity_bytes
            )));
        }
        Ok(Self {
            cfg,
            slab: Vec::new(),
            free: Vec::new(),
            map: KeyMap::default(),
            head: NIL,
            tail: NIL,
            in_flight: KeyMap::default(),
            readers: (cfg.policy == CachePolicy::Interval).then(Readers::default),
            occupancy: 0.0,
            clock: 0,
            stats: CacheStats::default(),
        })
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Byte budget.
    #[must_use]
    pub fn capacity_bytes(&self) -> f64 {
        self.cfg.capacity_bytes
    }

    /// Resident bytes.
    #[must_use]
    pub fn occupancy_bytes(&self) -> f64 {
        self.occupancy
    }

    /// Resident entry count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no entries are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Running counters.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Whether `key` is resident (no recency update, no stats).
    #[must_use]
    pub fn contains(&self, key: FragmentKey) -> bool {
        self.map.contains_key(&key)
    }

    /// Whether a fetch for `key` is outstanding.
    #[must_use]
    pub fn fetch_in_flight(&self, key: FragmentKey) -> bool {
        self.in_flight.contains_key(&key)
    }

    /// Resident keys in slab order (deterministic; for tests and
    /// diagnostics, not a recency order).
    pub fn keys(&self) -> impl Iterator<Item = FragmentKey> + '_ {
        self.slab
            .iter()
            .filter_map(|slot| slot.as_ref().map(|e| e.key))
    }

    /// Classify a request for `key` and update recency/coalescing state.
    /// Exactly one of [`Lookup::Hit`], [`Lookup::DelayedHit`],
    /// [`Lookup::Miss`] per call; the three stats counters partition the
    /// lookup count.
    pub fn lookup(&mut self, key: FragmentKey) -> Lookup {
        self.clock += 1;
        if let Some(&idx) = self.map.get(&key) {
            self.detach(idx);
            self.attach_front(idx);
            if let Some(e) = &mut self.slab[idx] {
                e.last_access = self.clock;
            }
            self.stats.hits += 1;
            return Lookup::Hit;
        }
        if let Some(waiters) = self.in_flight.get_mut(&key) {
            *waiters += 1;
            self.stats.delayed_hits += 1;
            return Lookup::DelayedHit;
        }
        self.stats.misses += 1;
        Lookup::Miss
    }

    /// Register an outstanding fetch for `key` (after a [`Lookup::Miss`]).
    /// Subsequent lookups for `key` coalesce as delayed hits until
    /// [`Self::complete_fetch`]. Idempotent.
    pub fn begin_fetch(&mut self, key: FragmentKey) {
        self.in_flight.entry(key).or_insert(0);
    }

    /// Waiters currently coalesced onto the fetch of `key`.
    #[must_use]
    pub fn waiters(&self, key: FragmentKey) -> u32 {
        self.in_flight.get(&key).copied().unwrap_or(0)
    }

    /// The fetch of `key` delivered: clear the in-flight record, admit the
    /// fragment (evicting per policy as needed) and return how many
    /// requests had coalesced onto the fetch. `cost` is the expected disk
    /// service time a future hit on this fragment saves.
    pub fn complete_fetch(&mut self, key: FragmentKey, bytes: f64, cost: f64) -> u32 {
        let waiters = self.in_flight.remove(&key).unwrap_or(0);
        self.insert(key, bytes, cost);
        waiters
    }

    /// Admit `key` directly (fills and updates). Returns whether the entry
    /// is resident afterwards: `false` when it does not fit — larger than
    /// the whole budget, or no admissible victims (interval caching with
    /// every resident fragment protected).
    pub fn insert(&mut self, key: FragmentKey, bytes: f64, cost: f64) -> bool {
        if !(bytes >= 0.0) || !bytes.is_finite() {
            self.stats.rejected_fills += 1;
            return false;
        }
        self.clock += 1;
        if let Some(&idx) = self.map.get(&key) {
            // Replace: release the old bytes first so the policy never
            // has to consider the entry being updated as its own victim.
            // (Not counted as an eviction; if the new version then fails
            // admission the key ends up non-resident.)
            self.remove_slot(idx);
        }
        if bytes > self.cfg.capacity_bytes || !self.make_room(bytes) {
            self.stats.rejected_fills += 1;
            return false;
        }
        let idx = self.alloc(Entry {
            key,
            bytes,
            cost,
            last_access: self.clock,
            prev: NIL,
            next: NIL,
        });
        self.attach_front(idx);
        self.map.insert(key, idx);
        self.occupancy += bytes;
        self.stats.insertions += 1;
        true
    }

    /// Move `reader` (an opaque id — the server uses stream ids) to
    /// `position` within `object`, for interval protection. Call on every
    /// sequential request the reader makes. A no-op for LRU and
    /// cost-aware caches, which track no readers.
    pub fn update_reader(&mut self, reader: u64, object: u64, position: u32) {
        if let Some(readers) = &mut self.readers {
            readers.update(reader, object, position);
        }
    }

    /// Forget `reader` (stream closed or finished). Idempotent; a no-op
    /// for LRU and cost-aware caches.
    pub fn remove_reader(&mut self, reader: u64) {
        if let Some(readers) = &mut self.readers {
            readers.remove(reader);
        }
    }

    /// Whether fragment `fragment` of `object` lies between two active
    /// readers: some reader is strictly before it (will consume it) and
    /// some reader is at or past it (has produced it). Interval caching
    /// never evicts protected fragments. Always `false` for LRU and
    /// cost-aware caches, which track no readers.
    #[must_use]
    pub fn protected(&self, object: u64, fragment: u32) -> bool {
        self.readers
            .as_ref()
            .is_some_and(|readers| readers.straddle(object, fragment))
    }

    /// Free at least `bytes` of headroom by policy-chosen evictions.
    /// Returns `false` (leaving the cache consistent, possibly after some
    /// evictions) when no admissible victim remains.
    fn make_room(&mut self, bytes: f64) -> bool {
        while self.occupancy + bytes > self.cfg.capacity_bytes {
            let victim = match self.cfg.policy {
                CachePolicy::Lru => self.tail,
                CachePolicy::Interval => self.interval_victim(),
                CachePolicy::CostAware => self.cost_victim(),
            };
            if victim == NIL {
                return false;
            }
            self.remove_slot(victim);
            self.stats.evictions += 1;
        }
        true
    }

    /// LRU order from the tail, skipping protected fragments.
    fn interval_victim(&self) -> usize {
        let mut idx = self.tail;
        while idx != NIL {
            let e = self.slab[idx].as_ref().expect("list nodes are occupied");
            if !self.protected(e.key.object, e.key.fragment) {
                return idx;
            }
            idx = e.prev;
        }
        NIL
    }

    /// Minimum `cost / (age + 1)` over the slab; ties break on the lower
    /// slab index. Deterministic: walks the slab, never a hash map.
    fn cost_victim(&self) -> usize {
        let mut best = NIL;
        let mut best_score = f64::INFINITY;
        for (idx, slot) in self.slab.iter().enumerate() {
            if let Some(e) = slot {
                let age = (self.clock - e.last_access) as f64;
                let score = e.cost / (age + 1.0);
                if score < best_score {
                    best_score = score;
                    best = idx;
                }
            }
        }
        best
    }

    fn alloc(&mut self, entry: Entry) -> usize {
        if let Some(idx) = self.free.pop() {
            self.slab[idx] = Some(entry);
            idx
        } else {
            self.slab.push(Some(entry));
            self.slab.len() - 1
        }
    }

    /// Unlink, unmap and free one occupied slot.
    fn remove_slot(&mut self, idx: usize) {
        self.detach(idx);
        let e = self.slab[idx].take().expect("removing an occupied slot");
        self.map.remove(&e.key);
        self.occupancy -= e.bytes;
        if self.occupancy < 0.0 {
            self.occupancy = 0.0; // float dust from repeated adds/subs
        }
        self.free.push(idx);
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = match self.slab[idx].as_ref() {
            Some(e) => (e.prev, e.next),
            None => return,
        };
        if prev != NIL {
            if let Some(p) = &mut self.slab[prev] {
                p.next = next;
            }
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            if let Some(n) = &mut self.slab[next] {
                n.prev = prev;
            }
        } else if self.tail == idx {
            self.tail = prev;
        }
        if let Some(e) = &mut self.slab[idx] {
            e.prev = NIL;
            e.next = NIL;
        }
    }

    fn attach_front(&mut self, idx: usize) {
        let old_head = self.head;
        if let Some(e) = &mut self.slab[idx] {
            e.prev = NIL;
            e.next = old_head;
        }
        if old_head != NIL {
            if let Some(h) = &mut self.slab[old_head] {
                h.prev = idx;
            }
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// The interval policy's view of its sequential readers.
#[derive(Debug, Default)]
struct Readers {
    /// Reader id → current `(object, position)`.
    at: KeyMap<u64, (u64, u32)>,
    /// Object → multiset of reader positions (position → reader count).
    positions: KeyMap<u64, BTreeMap<u32, u32>>,
}

impl Readers {
    fn update(&mut self, reader: u64, object: u64, position: u32) {
        self.remove(reader);
        self.at.insert(reader, (object, position));
        *self
            .positions
            .entry(object)
            .or_default()
            .entry(position)
            .or_insert(0) += 1;
    }

    fn remove(&mut self, reader: u64) {
        let Some((object, position)) = self.at.remove(&reader) else {
            return;
        };
        if let Some(set) = self.positions.get_mut(&object) {
            if let Some(count) = set.get_mut(&position) {
                *count -= 1;
                if *count == 0 {
                    set.remove(&position);
                }
            }
            if set.is_empty() {
                self.positions.remove(&object);
            }
        }
    }

    /// Some reader strictly before `fragment` and some at or past it.
    fn straddle(&self, object: u64, fragment: u32) -> bool {
        self.positions.get(&object).is_some_and(|set| {
            set.range(..fragment).next().is_some() && set.range(fragment..).next().is_some()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(object: u64, fragment: u32) -> FragmentKey {
        FragmentKey { object, fragment }
    }

    fn cache(capacity: f64, policy: CachePolicy) -> FragmentCache {
        FragmentCache::new(CacheConfig {
            capacity_bytes: capacity,
            policy,
        })
        .unwrap()
    }

    #[test]
    fn invalid_capacity_rejected() {
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(FragmentCache::new(CacheConfig {
                capacity_bytes: bad,
                policy: CachePolicy::Lru,
            })
            .is_err());
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = cache(300.0, CachePolicy::Lru);
        assert!(c.insert(key(1, 0), 100.0, 0.01));
        assert!(c.insert(key(1, 1), 100.0, 0.01));
        assert!(c.insert(key(1, 2), 100.0, 0.01));
        // Touch fragment 0 so fragment 1 is now least recent.
        assert_eq!(c.lookup(key(1, 0)), Lookup::Hit);
        assert!(c.insert(key(1, 3), 100.0, 0.01));
        assert!(c.contains(key(1, 0)));
        assert!(!c.contains(key(1, 1)), "LRU victim should be fragment 1");
        assert!(c.contains(key(1, 2)));
        assert!(c.contains(key(1, 3)));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.occupancy_bytes(), 300.0);
    }

    #[test]
    fn oversized_entry_refused_without_flushing() {
        let mut c = cache(250.0, CachePolicy::Lru);
        assert!(c.insert(key(1, 0), 100.0, 0.01));
        assert!(!c.insert(key(1, 1), 500.0, 0.01));
        assert!(c.contains(key(1, 0)), "refusal must not flush residents");
        assert_eq!(c.stats().rejected_fills, 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut c = cache(0.0, CachePolicy::Lru);
        assert!(!c.insert(key(1, 0), 1.0, 0.01));
        assert!(c.is_empty());
        assert_eq!(c.lookup(key(1, 0)), Lookup::Miss);
        // A zero-byte entry does fit a zero-byte budget.
        assert!(c.insert(key(1, 1), 0.0, 0.01));
        assert_eq!(c.len(), 1);
        assert_eq!(c.occupancy_bytes(), 0.0);
    }

    #[test]
    fn delayed_hit_lifecycle() {
        let mut c = cache(1000.0, CachePolicy::Lru);
        let k = key(9, 4);
        assert_eq!(c.lookup(k), Lookup::Miss);
        c.begin_fetch(k);
        assert!(c.fetch_in_flight(k));
        assert_eq!(c.waiters(k), 0);
        assert_eq!(c.lookup(k), Lookup::DelayedHit);
        assert_eq!(c.lookup(k), Lookup::DelayedHit);
        assert_eq!(c.waiters(k), 2);
        // begin_fetch is idempotent: waiters survive.
        c.begin_fetch(k);
        assert_eq!(c.waiters(k), 2);
        let waiters = c.complete_fetch(k, 200.0, 0.015);
        assert_eq!(waiters, 2);
        assert!(!c.fetch_in_flight(k));
        assert_eq!(c.lookup(k), Lookup::Hit);
        let s = c.stats();
        assert_eq!((s.hits, s.delayed_hits, s.misses), (1, 2, 1));
        assert_eq!(s.lookups(), 4);
    }

    #[test]
    fn interval_policy_protects_straddled_fragments() {
        let mut c = cache(300.0, CachePolicy::Interval);
        // Leader at fragment 5, follower at fragment 1 of object 3:
        // fragments 2..=5 are protected.
        c.update_reader(100, 3, 5);
        c.update_reader(101, 3, 1);
        assert!(c.protected(3, 3));
        assert!(c.protected(3, 5));
        assert!(!c.protected(3, 1), "nothing trails the follower");
        assert!(!c.protected(3, 6), "nothing leads past the leader");
        assert!(!c.protected(4, 3), "other objects unprotected");

        assert!(c.insert(key(3, 3), 100.0, 0.01)); // protected
        assert!(c.insert(key(3, 9), 100.0, 0.01)); // unprotected
        assert!(c.insert(key(3, 4), 100.0, 0.01)); // protected
                                                   // Full. The next insert must evict the unprotected fragment 9
                                                   // even though fragment 3 is older.
        assert!(c.insert(key(3, 5), 100.0, 0.01));
        assert!(c.contains(key(3, 3)));
        assert!(c.contains(key(3, 4)));
        assert!(!c.contains(key(3, 9)));

        // Now everything resident is protected: further inserts of
        // unprotected fragments are refused, capacity never exceeded.
        assert!(!c.insert(key(3, 10), 100.0, 0.01));
        assert_eq!(c.len(), 3);
        assert!(c.occupancy_bytes() <= c.capacity_bytes());

        // The follower finishes: protection lapses, eviction resumes.
        c.remove_reader(101);
        assert!(!c.protected(3, 3));
        assert!(c.insert(key(3, 10), 100.0, 0.01));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn reader_bookkeeping_handles_moves_and_duplicates() {
        let mut c = cache(100.0, CachePolicy::Interval);
        c.update_reader(1, 5, 10);
        c.update_reader(2, 5, 10); // two readers on the same position
        c.update_reader(3, 5, 20);
        assert!(c.protected(5, 15));
        // Reader 1 moves forward; position 10 still held by reader 2.
        c.update_reader(1, 5, 16);
        assert!(c.protected(5, 15));
        // Reader 2 leaves; 15 still straddled by 1@16? No: 16 > 15 needs
        // a trailing reader strictly below 15 — none left at 10? Reader 2
        // removal clears 10, but reader 1 sits at 16 and reader 3 at 20:
        // both lead, nothing trails.
        c.remove_reader(2);
        assert!(!c.protected(5, 15));
        // Removing twice is a no-op.
        c.remove_reader(2);
        // A reader switching objects clears its old position.
        c.update_reader(3, 6, 0);
        assert!(!c.protected(5, 17));
    }

    #[test]
    fn only_the_interval_policy_tracks_readers() {
        for policy in [CachePolicy::Lru, CachePolicy::CostAware] {
            let mut c = cache(300.0, policy);
            c.update_reader(100, 3, 5);
            c.update_reader(101, 3, 1);
            assert!(!c.protected(3, 3), "{policy:?} tracks no readers");
            c.remove_reader(101);
            c.remove_reader(7);
        }
    }

    #[test]
    fn key_hasher_is_deterministic_and_separates_fragment_keys() {
        use std::hash::BuildHasher;
        let hash = |k: FragmentKey| BuildHasherDefault::<KeyHasher>::default().hash_one(k);
        assert_eq!(hash(key(7, 3)), hash(key(7, 3)));
        let mut hashes: Vec<u64> = (0..64)
            .flat_map(|o| (0..64).map(move |f| key(o, f)))
            .map(hash)
            .collect();
        // The table indexes buckets by the low bits and tags slots with
        // the top seven: both must spread like random draws (4 096 keys
        // into 4 096 buckets fill ~63 %, into 128 tags ~100 %).
        let distinct = |bits: fn(u64) -> u64| {
            let mut seen: Vec<u64> = hashes.iter().map(|&h| bits(h)).collect();
            seen.sort_unstable();
            seen.dedup();
            seen.len()
        };
        assert!(distinct(|h| h & 0xFFF) > 2_400);
        assert_eq!(distinct(|h| h >> 57), 128);
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 64 * 64);
    }

    #[test]
    fn cost_aware_keeps_expensive_fragments() {
        let mut c = cache(300.0, CachePolicy::CostAware);
        assert!(c.insert(key(1, 0), 100.0, 0.050)); // expensive
        assert!(c.insert(key(1, 1), 100.0, 0.001)); // cheap
        assert!(c.insert(key(1, 2), 100.0, 0.050)); // expensive
                                                    // All same recency order; the cheap entry has the lowest score.
        assert!(c.insert(key(1, 3), 100.0, 0.050));
        assert!(!c.contains(key(1, 1)), "cheap fragment should go first");
        assert!(c.contains(key(1, 0)));
        assert!(c.contains(key(1, 2)));
    }

    #[test]
    fn cost_aware_ages_out_stale_entries() {
        let mut c = cache(200.0, CachePolicy::CostAware);
        assert!(c.insert(key(1, 0), 100.0, 0.050));
        assert!(c.insert(key(1, 1), 100.0, 0.010));
        // Hammer lookups on the cheap entry: the expensive one ages.
        for _ in 0..100 {
            assert_eq!(c.lookup(key(1, 1)), Lookup::Hit);
        }
        // Score of (1,0): 0.05/101 ≈ 0.0005 < score of (1,1): 0.01/1.
        assert!(c.insert(key(1, 2), 100.0, 0.010));
        assert!(!c.contains(key(1, 0)), "stale expensive entry ages out");
        assert!(c.contains(key(1, 1)));
    }

    #[test]
    fn replace_updates_bytes_exactly() {
        let mut c = cache(300.0, CachePolicy::Lru);
        assert!(c.insert(key(1, 0), 100.0, 0.01));
        assert!(c.insert(key(1, 0), 250.0, 0.01));
        assert_eq!(c.len(), 1);
        assert_eq!(c.occupancy_bytes(), 250.0);
        assert_eq!(c.stats().evictions, 0, "replacement is not an eviction");
        // Shrink.
        assert!(c.insert(key(1, 0), 50.0, 0.01));
        assert_eq!(c.occupancy_bytes(), 50.0);
        // Replace with something too big: the key ends up non-resident.
        assert!(!c.insert(key(1, 0), 400.0, 0.01));
        assert!(!c.contains(key(1, 0)));
        assert_eq!(c.occupancy_bytes(), 0.0);
    }

    #[test]
    fn keys_list_residents_and_evictions_free_their_slots() {
        let mut c = cache(200.0, CachePolicy::Lru);
        c.insert(key(1, 0), 100.0, 0.01);
        c.insert(key(2, 0), 100.0, 0.01);
        let keys: Vec<_> = c.keys().collect();
        assert_eq!(keys, vec![key(1, 0), key(2, 0)]);
        // A third fill evicts the LRU entry, and the freed slot is reused
        // (the slab does not grow): keys come back in slot order.
        c.insert(key(3, 0), 100.0, 0.01);
        assert_eq!(c.len(), 2);
        assert_eq!(c.occupancy_bytes(), 200.0);
        let keys: Vec<_> = c.keys().collect();
        assert_eq!(keys, vec![key(3, 0), key(2, 0)]);
    }

    #[test]
    fn non_finite_bytes_rejected() {
        let mut c = cache(300.0, CachePolicy::Lru);
        assert!(!c.insert(key(1, 0), f64::NAN, 0.01));
        assert!(!c.insert(key(1, 0), -5.0, 0.01));
        assert!(c.is_empty());
        assert_eq!(c.stats().rejected_fills, 2);
    }

    #[test]
    fn long_churn_keeps_budget_and_list_consistent() {
        let mut c = cache(1_000.0, CachePolicy::Lru);
        for i in 0..10_000u32 {
            let k = key(u64::from(i % 37), i % 11);
            match c.lookup(k) {
                Lookup::Hit => {}
                Lookup::Miss => {
                    c.begin_fetch(k);
                    c.complete_fetch(k, f64::from(i % 300) + 1.0, 0.01);
                }
                Lookup::DelayedHit => unreachable!("fetches complete synchronously here"),
            }
            assert!(c.occupancy_bytes() <= c.capacity_bytes() + 1e-9);
        }
        let total: f64 = c.keys().count() as f64;
        assert!(total > 0.0);
        let s = *c.stats();
        assert_eq!(s.lookups(), 10_000);
    }
}
