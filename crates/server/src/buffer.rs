//! Client buffer accounting (§2).
//!
//! The server delivers fragment `k+1` during the round in which the client
//! displays fragment `k` (double buffering): the client must hold the
//! fragment being displayed plus the one arriving. [`BufferTracker`]
//! accounts those bytes per client and reports the high-water mark — the
//! minimum buffer the client must provision.

/// Per-client buffer occupancy tracker.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BufferTracker {
    /// Bytes of the fragment currently being displayed (consumed this
    /// round).
    displaying: f64,
    /// Bytes of the fragment that arrived this round (displayed next).
    arriving: f64,
    /// Highest simultaneous occupancy seen, bytes.
    high_water: f64,
}

impl BufferTracker {
    /// Fresh tracker with an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the delivery of the next fragment (`bytes` long) while the
    /// previous one is displayed. Returns the occupancy after the
    /// delivery.
    pub fn deliver(&mut self, bytes: f64) -> f64 {
        self.arriving = bytes;
        let occupancy = self.displaying + self.arriving;
        if occupancy > self.high_water {
            self.high_water = occupancy;
        }
        occupancy
    }

    /// Advance one round: the arrived fragment starts displaying, the
    /// displayed one is released.
    pub fn advance_round(&mut self) {
        self.displaying = self.arriving;
        self.arriving = 0.0;
    }

    /// Current occupancy, bytes.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        self.displaying + self.arriving
    }

    /// Highest occupancy observed, bytes — the client's minimum buffer
    /// provision.
    #[must_use]
    pub fn high_water(&self) -> f64 {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_double_buffer_occupancy() {
        let mut b = BufferTracker::new();
        assert_eq!(b.occupancy(), 0.0);
        // Round 0: first fragment arrives, nothing displaying.
        assert_eq!(b.deliver(100.0), 100.0);
        b.advance_round();
        assert_eq!(b.occupancy(), 100.0);
        // Round 1: fragment 2 arrives while fragment 1 displays.
        assert_eq!(b.deliver(250.0), 350.0);
        assert_eq!(b.high_water(), 350.0);
        b.advance_round();
        assert_eq!(b.occupancy(), 250.0);
        // Smaller fragments don't move the high-water mark.
        b.deliver(50.0);
        assert_eq!(b.high_water(), 350.0);
    }

    #[test]
    fn high_water_is_at_most_sum_of_two_largest() {
        let sizes = [120.0, 500.0, 80.0, 450.0, 470.0];
        let mut b = BufferTracker::new();
        for &s in &sizes {
            b.deliver(s);
            b.advance_round();
        }
        // Two largest adjacent: 450 + 470 = 920; global two largest 970.
        assert!(b.high_water() <= 970.0);
        assert!(b.high_water() >= 500.0);
    }
}
