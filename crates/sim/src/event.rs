//! Discrete-event round core: the fused serve loop, struct-of-arrays
//! round state, and direct RNG draws.
//!
//! This module is the hot path of the whole stack — every experiment
//! (`engine`, `cache_sweep`, `drift`, the server's per-disk rounds, the
//! cluster fleet) bottoms out in the crate-private `EventCore::round`.
//! Four ideas:
//!
//! 1. **One fused serve order.** On a single-armed disk the sweep
//!    serves requests one at a time, so a request's seek, rotational
//!    latency, transfer and fault detour happen back to back on one
//!    logical clock. The serve loop walks the sweep once and advances
//!    the clock through those phases in that order — the round's
//!    service time is SEEK + Σ T_rot,i + Σ T_trans,i (eq. 3.1.1) plus
//!    the fault term. Debug builds assert that every phase time is
//!    finite and non-negative (the clock never runs backwards) and that
//!    the service time equals seek + rotational + transfer + fault on
//!    every round.
//! 2. **Struct-of-arrays state, counting-sort sweep order.** Per-request
//!    fields live in parallel preallocated arrays (`cylinder[]`,
//!    `zone[]`, `bytes[]`, `rotational[]`) reused across rounds. SCAN
//!    order comes from a stable LSD counting sort on the sweep key (the
//!    cylinder on an up sweep, its mirror on a down sweep), in as few
//!    passes of at most 8 bits as the disk's cylinder count needs, so
//!    ties keep stream order exactly as the legacy stable sort does and
//!    steady-state rounds allocate nothing.
//! 3. **Direct draws.** Placement, fragment size and rotational
//!    latency take their words straight from the simulator's seeded
//!    stream, in the legacy per-request order and through the vendored
//!    `rand` recipes (top 53 bits for a unit `f64`, `start + u·(end −
//!    start)` with its round-up guard for a range), so every seeded
//!    anchor is byte-stable.
//! 4. **Guide-table zone pick.** A 256-entry guide table maps a draw's
//!    top 8 bits — exactly `⌊u·256⌋` of its unit `f64` `u` — to the
//!    lowest zone that bucket can pick; a short forward walk over the
//!    weight prefix sums finishes the pick. It selects the same zone as
//!    the legacy linear scan for every draw.

use crate::round::{RoundOutcome, SeekPolicy, SimConfig};
use mzd_disk::scan::SweepDirection;
use mzd_disk::Disk;
use mzd_fault::FaultInjector;
use mzd_workload::SizeDistribution;
use rand::{Rng, RngExt as _};

/// Struct-of-arrays per-round request state, reused across rounds.
#[derive(Debug, Default)]
struct Arena {
    cylinder: Vec<u32>,
    zone: Vec<u32>,
    bytes: Vec<f64>,
    rotational: Vec<f64>,
    /// Serve order: `(sweep key << 32) | index`.
    order: Vec<u64>,
    /// The counting sort's second buffer.
    spare: Vec<u64>,
}

impl Arena {
    /// Grow every column to hold at least `n` requests.
    fn ensure(&mut self, n: usize) {
        if self.cylinder.len() < n {
            self.cylinder.resize(n, 0);
            self.zone.resize(n, 0);
            self.bytes.resize(n, 0.0);
            self.rotational.resize(n, 0.0);
            self.order.resize(n, 0);
            self.spare.resize(n, 0);
        }
    }
}

/// The LSD pass plan for sweep keys below a cylinder count: as few
/// passes of at most 8 bits as cover the key's width, the width split
/// evenly between them (two 7-bit passes for every catalog disk).
#[derive(Debug, Clone, Copy)]
struct Radix {
    passes: u32,
    bits: u32,
}

impl Radix {
    fn for_keys_below(cylinders: u32) -> Self {
        let width = u32::BITS - cylinders.saturating_sub(1).leading_zeros();
        let passes = width.div_ceil(8);
        let bits = width.div_ceil(passes.max(1));
        Self { passes, bits }
    }
}

/// Stable LSD counting sort of `order[..n]` by the key in the high 32
/// bits of each entry; `spare` holds at least `n` entries. Entries with
/// equal keys keep their input order.
fn counting_sort(order: &mut Vec<u64>, spare: &mut Vec<u64>, n: usize, radix: Radix) {
    let mask = (1u64 << radix.bits) - 1;
    let mut shift = 32;
    for _ in 0..radix.passes {
        let mut start = [0u32; 256];
        for &v in &order[..n] {
            start[((v >> shift) & mask) as usize] += 1;
        }
        let mut at = 0;
        for slot in &mut start[..=mask as usize] {
            let count = *slot;
            *slot = at;
            at += count;
        }
        for &v in &order[..n] {
            let digit = ((v >> shift) & mask) as usize;
            spare[start[digit] as usize] = v;
            start[digit] += 1;
        }
        std::mem::swap(order, spare);
        shift += radix.bits;
    }
}

/// Guide-table buckets: a draw's top `GUIDE_BITS` bits pick one.
const GUIDE_BITS: u32 = 8;

/// Precomputed placement tables for the configured zone weights.
#[derive(Debug)]
struct PlacementTables {
    /// Prefix sums of the zone weights, accumulated left-to-right in
    /// the same order as the legacy linear scan (so the selected zone
    /// is identical for every draw, down to f64 rounding).
    cum: Vec<f64>,
    /// `guide[b]`: the zone picked at `u = b/256`, the lowest zone any
    /// draw of bucket `b` can pick. `u32` holds any zone count the disk
    /// model admits (no more zones than `u32` cylinders).
    guide: [u32; 1 << GUIDE_BITS],
    /// First cylinder of each zone.
    first: Vec<u32>,
    /// Cylinders in each zone.
    span: Vec<u64>,
    /// Lemire rejection threshold per zone: `2^64 mod span`, hoisted
    /// out of the per-draw loop (the vendored `random_range` recomputes
    /// this 64-bit modulo on every call).
    thr: Vec<u64>,
    /// Transfer rate of each zone, bytes/second.
    rate: Vec<f64>,
}

impl PlacementTables {
    fn new(disk: &Disk, weights: &[f64]) -> Self {
        let nz = weights.len();
        let mut cum = Vec::with_capacity(nz);
        let mut acc = 0.0f64;
        for &w in weights {
            acc += w;
            cum.push(acc);
        }
        // One merge pass over buckets and prefix sums: both ascend.
        let mut guide = [0u32; 1 << GUIDE_BITS];
        let mut zone = 0;
        for (b, slot) in guide.iter_mut().enumerate() {
            zone = walk(&cum, zone, b as f64 / f64::from(1u32 << GUIDE_BITS));
            *slot = zone as u32;
        }
        let first: Vec<u32> = (0..nz).map(|z| disk.zone_first_cylinder(z)).collect();
        let span: Vec<u64> = (0..nz)
            .map(|z| u64::from(disk.zone_cylinder_count(z)))
            .collect();
        let thr: Vec<u64> = span.iter().map(|&s| s.wrapping_neg() % s).collect();
        let rate: Vec<f64> = (0..nz).map(|z| disk.zone_rate(z)).collect();
        Self {
            cum,
            guide,
            first,
            span,
            thr,
            rate,
        }
    }

    /// The zone of a unit draw `u` in guide bucket `bucket = ⌊u·256⌋`.
    #[inline]
    fn zone(&self, bucket: usize, u: f64) -> usize {
        walk(&self.cum, self.guide[bucket] as usize, u)
    }
}

/// The linear scan's zone for `u` — the first zone whose prefix sum
/// exceeds `u`, or the last zone — found by walking forward from
/// `zone`, below which every prefix sum is `≤ u`.
#[inline]
fn walk(cum: &[f64], mut zone: usize, u: f64) -> usize {
    while zone + 1 < cum.len() && cum[zone] <= u {
        zone += 1;
    }
    zone
}

/// Where a round's fragment sizes come from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RoundSizes<'a> {
    /// Draw `n` sizes i.i.d. from the configured law.
    Law {
        /// Streams served this round.
        n: u32,
        /// The size law to draw from.
        law: &'a SizeDistribution,
    },
    /// Caller-provided sizes, one per stream.
    Given(&'a [f64]),
}

impl RoundSizes<'_> {
    fn len(&self) -> usize {
        match *self {
            RoundSizes::Law { n, .. } => n as usize,
            RoundSizes::Given(s) => s.len(),
        }
    }
}

/// The discrete-event round core: arena state, placement tables, the
/// fused serve loop. One per [`crate::RoundSimulator`]; all round entry
/// points funnel through [`EventCore::round`].
#[derive(Debug)]
pub(crate) struct EventCore {
    arena: Arena,
    tables: PlacementTables,
    radix: Radix,
    /// Cached disk constants (pure functions of the immutable disk).
    rot: f64,
    full_seek: f64,
    top_cylinder: u32,
}

impl EventCore {
    /// Build a core for `disk` with placement `weights`, preallocating
    /// arena storage for rounds of up to `capacity` requests
    /// (steady-state rounds at or below that size allocate nothing).
    pub(crate) fn new(disk: &Disk, weights: &[f64], capacity: usize) -> Self {
        let mut arena = Arena::default();
        arena.ensure(capacity);
        Self {
            arena,
            tables: PlacementTables::new(disk, weights),
            radix: Radix::for_keys_below(disk.cylinders()),
            rot: disk.rotation_time(),
            full_seek: disk.seek_curve().max_seek_time(disk.cylinders()),
            top_cylinder: disk.cylinders() - 1,
        }
    }

    /// Swap the placement weights (drift injection / `set_placement`).
    pub(crate) fn set_weights(&mut self, disk: &Disk, weights: &[f64]) {
        self.tables = PlacementTables::new(disk, weights);
    }

    /// Draw one placement: a zone by the configured weights (guide
    /// table, then a forward walk over the prefix sums), then a
    /// cylinder uniform within the zone (Lemire rejection with the
    /// hoisted threshold). Draw-for-draw and bit-for-bit identical to
    /// the legacy linear scan + `random_range(0..count)`.
    #[inline]
    pub(crate) fn place<R: Rng + ?Sized>(&self, rng: &mut R) -> (u32, usize) {
        let w = rng.next_u64();
        // The vendored `rand`'s unit `f64`: the top 53 bits of one word.
        let u = (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let t = &self.tables;
        let zone = t.zone((w >> (64 - GUIDE_BITS)) as usize, u);
        let span = t.span[zone];
        let thr = t.thr[zone];
        let off = loop {
            let m = u128::from(rng.next_u64()) * u128::from(span);
            if (m as u64) >= thr {
                break (m >> 64) as u32;
            }
        };
        (t.first[zone] + off, zone)
    }

    /// Draw one rotational latency, `U(0, ROT)`.
    #[inline]
    pub(crate) fn rotational<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        rng.random_range(0.0..self.rot)
    }

    /// Transfer time of `bytes` in `zone` (precomputed rate).
    #[inline]
    pub(crate) fn transfer_time(&self, zone: usize, bytes: f64) -> f64 {
        bytes / self.tables.rate[zone]
    }

    /// Run one round: generate requests (direct draws, arena state),
    /// order the sweep, and serve it against the logical clock.
    ///
    /// `arm` and `direction` are the cross-round elevator state, owned
    /// by the caller.
    ///
    /// The draw schedule is exactly the legacy per-request sequence —
    /// zone, cylinder, [size when drawn from a law,] rotational latency
    /// per request in stream order — so a seeded run is byte-identical
    /// to the pre-event-core simulator.
    pub(crate) fn round<R: Rng + ?Sized>(
        &mut self,
        cfg: &SimConfig,
        sizes: RoundSizes<'_>,
        rng: &mut R,
        mut injector: Option<&mut FaultInjector>,
        arm: &mut u32,
        direction: &mut SweepDirection,
    ) -> RoundOutcome {
        let n = sizes.len();
        self.arena.ensure(n);

        for i in 0..n {
            let (cylinder, zone) = self.place(rng);
            let bytes = match sizes {
                RoundSizes::Law { law, .. } => law.sample(rng),
                RoundSizes::Given(s) => s[i],
            };
            let rotational = self.rotational(rng);
            self.arena.cylinder[i] = cylinder;
            self.arena.zone[i] = zone as u32;
            self.arena.bytes[i] = bytes;
            self.arena.rotational[i] = rotational;
        }

        let arena = &mut self.arena;
        match cfg.seek_policy {
            SeekPolicy::Scan => {
                // The index in the low 32 bits travels with its key.
                let up = *direction == SweepDirection::Up;
                for (i, (slot, &cylinder)) in arena.order[..n]
                    .iter_mut()
                    .zip(&arena.cylinder[..n])
                    .enumerate()
                {
                    let key = if up {
                        cylinder
                    } else {
                        self.top_cylinder - cylinder
                    };
                    *slot = u64::from(key) << 32 | i as u64;
                }
                counting_sort(&mut arena.order, &mut arena.spare, n, self.radix);
            }
            SeekPolicy::Fcfs => {
                for (i, slot) in arena.order[..n].iter_mut().enumerate() {
                    *slot = i as u64;
                }
            }
        }

        let curve = cfg.disk.seek_curve();
        let deadline = cfg.round_length;
        if let Some(inj) = injector.as_deref_mut() {
            inj.begin_round();
        }
        let mut clock = 0.0;
        let mut seek_total = 0.0;
        let mut rot_total = 0.0;
        let mut trans_total = 0.0;
        let mut fault_total = 0.0;
        let mut glitched = Vec::new();
        let mut pos = *arm;
        for k in 0..n {
            let i = (self.arena.order[k] & 0xffff_ffff) as usize;
            let cylinder = self.arena.cylinder[i];
            let zone = self.arena.zone[i] as usize;
            let dist = pos.abs_diff(cylinder);
            let seek = curve.seek_time_cyl(dist);
            let rotational = self.arena.rotational[i];
            let transfer = self.arena.bytes[i] / self.tables.rate[zone];
            debug_assert!(
                [seek, rotational, transfer]
                    .iter()
                    .all(|t| t.is_finite() && *t >= 0.0),
                "clock would run backwards: seek {seek}, rot {rotational}, transfer {transfer}"
            );
            // One expression: the addition order is load-bearing for
            // bit-identity with the legacy loop.
            clock += seek + rotational + transfer;
            seek_total += seek;
            rot_total += rotational;
            trans_total += transfer;
            pos = cylinder;
            let mut failed = false;
            if let Some(inj) = injector.as_deref_mut() {
                let pert = inj.perturb_read(
                    zone as u32,
                    transfer,
                    self.rot,
                    self.full_seek,
                    deadline - clock,
                );
                debug_assert!(
                    pert.extra_time.is_finite() && pert.extra_time >= 0.0,
                    "clock would run backwards: fault time {}",
                    pert.extra_time
                );
                clock += pert.extra_time;
                fault_total += pert.extra_time;
                failed = pert.failed;
            }
            if failed || clock > deadline {
                glitched.push(i as u32);
            }
        }
        *arm = pos;
        *direction = direction.reversed();
        debug_assert!(
            (clock - (seek_total + rot_total + trans_total + fault_total)).abs()
                <= 1e-9 * clock.max(1.0),
            "service time {clock} != seek {seek_total} + rot {rot_total} \
             + transfer {trans_total} + fault {fault_total}"
        );
        RoundOutcome {
            service_time: clock,
            late: clock > deadline,
            glitched_streams: glitched,
            seek_time: seek_total,
            rotational_time: rot_total,
            transfer_time: trans_total,
            fault_time: fault_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mzd_disk::placement::PlacementPolicy;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The guide-table pick must agree with the legacy linear scan (and
    /// with the binary search it replaced) for every draw, including
    /// exact prefix-sum and bucket boundaries, on every catalog disk
    /// under every placement policy.
    #[test]
    fn partition_point_matches_linear_scan_on_boundaries() {
        let catalog = [
            mzd_disk::profiles::quantum_viking_2_1(),
            mzd_disk::profiles::single_zone_75kb(),
            mzd_disk::profiles::legacy_single_zone(),
            mzd_disk::profiles::next_generation(),
            mzd_disk::profiles::synthetic_two_to_one(),
        ];
        // Both neighbours of a non-negative probe, one ulp away.
        let around = |x: f64, probes: &mut Vec<f64>| {
            probes.push(x);
            if x > 0.0 {
                probes.push(f64::from_bits(x.to_bits() - 1));
            }
            probes.push(f64::from_bits(x.to_bits() + 1));
        };
        for profile in catalog {
            let disk = profile.build().unwrap();
            let z = disk.zone_count();
            let mut policies = vec![
                PlacementPolicy::UniformByCapacity,
                PlacementPolicy::UniformByCylinder,
            ];
            for zones in [1, z.div_ceil(2), z] {
                policies.push(PlacementPolicy::OuterZones { zones });
                policies.push(PlacementPolicy::InnerZones { zones });
            }
            for policy in policies {
                let weights = policy.zone_weights(&disk).unwrap();
                let tables = PlacementTables::new(&disk, &weights);
                let legacy = |target: f64| {
                    let mut acc = 0.0;
                    let mut chosen = weights.len() - 1;
                    for (i, &w) in weights.iter().enumerate() {
                        acc += w;
                        if target < acc {
                            chosen = i;
                            break;
                        }
                    }
                    chosen
                };
                let binary = |target: f64| {
                    tables
                        .cum
                        .partition_point(|&c| c <= target)
                        .min(tables.cum.len() - 1)
                };
                let mut probes = vec![0.5, 1.0 - 1e-16];
                for &c in &tables.cum {
                    around(c, &mut probes);
                }
                for b in 0..=256u32 {
                    around(f64::from(b) / 256.0, &mut probes);
                }
                let mut rng = StdRng::seed_from_u64(3);
                for _ in 0..10_000 {
                    // A real draw: its bucket is its top 8 bits.
                    let w = rng.next_u64();
                    let u = (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                    assert_eq!((w >> 56) as usize, (u * 256.0) as usize);
                    probes.push(u);
                }
                for u in probes {
                    let target = u.clamp(0.0, 1.0);
                    let want = legacy(target);
                    assert_eq!(binary(target), want, "binary search at u = {u:?}");
                    // A unit draw never reaches 1.
                    if (0.0..1.0).contains(&u) {
                        assert_eq!(
                            tables.zone((u * 256.0) as usize, u),
                            want,
                            "guide table diverged at u = {u:?} ({policy:?})"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        /// The counting sort puts a sweep in the order `sort_unstable`
        /// gives the packed `(key << 32) | index` entries: key order,
        /// ties in stream order.
        #[test]
        fn counting_sort_matches_packed_sort_unstable(
            cylinders in prop_oneof![
                Just(1u32),
                Just(2u32),
                Just(6_720u32),
                Just(10_000u32),
                Just(1u32 << 20),
            ],
            up in 0u8..2,
            pool in 1u32..16,
            picks in prop::collection::vec((0u32..u32::MAX, 0u8..4), 0..=600),
        ) {
            let top = cylinders - 1;
            let n = picks.len();
            let mut order = vec![0u64; n];
            for (i, &(raw, kind)) in picks.iter().enumerate() {
                let cylinder = match kind {
                    0 => 0,
                    1 => top,
                    // Few distinct values: many ties.
                    2 => (raw % pool) * (top / pool),
                    _ => raw % cylinders,
                };
                let key = if up == 1 { cylinder } else { top - cylinder };
                order[i] = u64::from(key) << 32 | i as u64;
            }
            let mut want = order.clone();
            want.sort_unstable();
            let mut spare = vec![0u64; n];
            let radix = Radix::for_keys_below(cylinders);
            prop_assert!(radix.bits <= 8);
            prop_assert_eq!(radix.passes, match cylinders {
                1 => 0,
                2 => 1,
                c if c <= 1 << 16 => 2,
                _ => 3,
            });
            counting_sort(&mut order, &mut spare, n, radix);
            prop_assert_eq!(order, want);
        }
    }
}
