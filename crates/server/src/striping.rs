//! Coarse-grained round-robin striping (§2.1).
//!
//! In the paper's scheme, fragment `k` of an object that starts on disk
//! `d₀` lives on disk `(d₀ + k) mod D`: consecutive fragments — consumed
//! in consecutive rounds — hit consecutive disks, a stream imposes
//! exactly one request per round on exactly one disk, and staggered start
//! disks keep the per-disk multiprogramming level balanced. Every stream
//! steps one disk per round in lockstep, which is why admission only has
//! to check the least-loaded disk.

use crate::ServerError;

/// The fragment→disk map of §2.1: `disk(k) = (start + k) mod D`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripingLayout {
    disks: u32,
}

impl StripingLayout {
    /// The paper's layout over `disks ≥ 1` disks.
    ///
    /// # Errors
    /// [`ServerError::Invalid`] for zero disks.
    pub fn new(disks: u32) -> Result<Self, ServerError> {
        if disks == 0 {
            return Err(ServerError::Invalid(
                "a server needs at least one disk".into(),
            ));
        }
        Ok(Self { disks })
    }

    /// Number of disks.
    #[must_use]
    pub fn disks(&self) -> u32 {
        self.disks
    }

    /// The disk holding fragment `fragment` of an object whose fragment 0
    /// is on `start_disk`.
    #[must_use]
    pub fn disk_of_fragment(&self, start_disk: u32, fragment: u32) -> u32 {
        let d = u64::from(self.disks);
        ((u64::from(start_disk) + u64::from(fragment) % d) % d) as u32
    }

    /// The disk holding the fragment after the one on `disk` — how a
    /// session steps through the layout one round at a time without
    /// re-deriving its disk.
    #[must_use]
    pub fn next_disk(&self, disk: u32) -> u32 {
        debug_assert!(disk < self.disks, "disk {disk} out of range");
        let next = disk + 1;
        if next == self.disks {
            0
        } else {
            next
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_disks() {
        assert!(StripingLayout::new(0).is_err());
    }

    #[test]
    fn next_disk_steps_match_disk_of_fragment() {
        for disks in 1..=8u32 {
            let s = StripingLayout::new(disks).unwrap();
            for start in 0..disks {
                let mut disk = start;
                for f in 0..40u32 {
                    assert_eq!(
                        disk,
                        s.disk_of_fragment(start, f),
                        "{disks} disks, start {start}, fragment {f}"
                    );
                    disk = s.next_disk(disk);
                }
            }
        }
    }

    #[test]
    fn no_fragment_index_overflow() {
        // u32::MAX = 7 · 613 566 756 + 3, so the last fragment of an
        // object starting on disk 3 sits on disk 6.
        let s = StripingLayout::new(7).unwrap();
        assert_eq!(s.disk_of_fragment(3, u32::MAX), 6);
        // Start and fragment offset together pass u32::MAX on the widest
        // layout: the sum must not wrap.
        let wide = StripingLayout::new(u32::MAX).unwrap();
        assert_eq!(
            wide.disk_of_fragment(u32::MAX - 1, u32::MAX - 1),
            u32::MAX - 2
        );
    }

    #[test]
    fn fragments_cycle_over_disks() {
        let s = StripingLayout::new(4).unwrap();
        assert_eq!(s.disks(), 4);
        let seq: Vec<u32> = (0..8).map(|k| s.disk_of_fragment(1, k)).collect();
        assert_eq!(seq, vec![1, 2, 3, 0, 1, 2, 3, 0]);
    }

    #[test]
    fn single_disk_degenerates() {
        let s = StripingLayout::new(1).unwrap();
        for k in 0..5 {
            assert_eq!(s.disk_of_fragment(0, k), 0);
        }
    }

    #[test]
    fn per_round_load_is_balanced_for_staggered_streams() {
        // With S streams started round-robin over the disks and playing
        // in lockstep, every round puts exactly ceil/floor(S/D) requests
        // on each disk.
        let s = StripingLayout::new(4).unwrap();
        let streams = 10u64;
        for round in 0..12u32 {
            let mut load = [0u32; 4];
            for i in 0..streams {
                let d = s.disk_of_fragment((i % 4) as u32, round);
                load[d as usize] += 1;
            }
            let (min, max) = (*load.iter().min().unwrap(), *load.iter().max().unwrap());
            assert!(max - min <= 1, "round {round}: load {load:?}");
        }
    }
}
