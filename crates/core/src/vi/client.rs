//! The client-side runtime (Section 1.2).
//!
//! Clients are the user programs running on mobile devices. From a
//! client's perspective the system "appears equivalent to a system in
//! which each virtual node is replaced with a reliable, immobile real
//! device": the client broadcasts in the client phase of each virtual
//! round and receives, at the end of the round, whatever the virtual
//! broadcast service delivered — messages from other clients and from
//! virtual nodes — together with a (virtual) collision indication. A
//! co-located replica whose agreement instance ended ⊥ injects a
//! simulated collision, preserving the virtual collision detector's
//! completeness (Section 3.3).

use crate::vi::automaton::VnId;
use std::any::Any;
use vi_radio::geometry::Point;

/// What a client observes in one virtual round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VirtualReception<A> {
    /// Messages received (from clients and virtual nodes), in arrival
    /// order within the round.
    pub messages: Vec<A>,
    /// The sender of each message, index-aligned with `messages`
    /// (kept so by [`VirtualReception::push`]): `Some(vn)` for virtual
    /// node `vn`'s broadcast, `None` for a client's. A client between
    /// two regions can hear either virtual node, so this — not the
    /// client's position — says which one answered.
    senders: Vec<Option<VnId>>,
    /// Virtual collision indication: a physical collision during the
    /// message sub-protocol, or a co-located replica reporting an
    /// undecided round.
    pub collision: bool,
}

impl<A> Default for VirtualReception<A> {
    fn default() -> Self {
        VirtualReception {
            messages: Vec::new(),
            senders: Vec::new(),
            collision: false,
        }
    }
}

impl<A> VirtualReception<A> {
    /// `true` if nothing was received and no collision indicated.
    pub fn is_silent(&self) -> bool {
        self.messages.is_empty() && !self.collision
    }

    /// Appends a message heard from `sender` (`None` = a client).
    pub fn push(&mut self, sender: Option<VnId>, message: A) {
        self.messages.push(message);
        self.senders.push(sender);
    }

    /// The messages with their senders, in arrival order.
    pub fn with_senders(&self) -> impl Iterator<Item = (Option<VnId>, &A)> {
        self.senders.iter().copied().zip(&self.messages)
    }

    /// Empties the reception, keeping its buffers.
    pub fn clear(&mut self) {
        self.messages.clear();
        self.senders.clear();
        self.collision = false;
    }
}

/// A client program, driven once per virtual round.
pub trait ClientApp<A>: 'static {
    /// Called at the start of virtual round `vr` with the device's
    /// current position (the GPS / location-service reading) and the
    /// previous round's reception; returns the message to broadcast
    /// this round, if any.
    fn on_virtual_round(&mut self, vr: u64, pos: Point, prev: &VirtualReception<A>) -> Option<A>;

    /// Upcast for typed extraction; implement as `self`.
    fn as_any(&self) -> &dyn Any;
}

/// A client that never sends and records everything it observes.
#[derive(Clone, Debug, Default)]
pub struct CollectorClient<A> {
    /// Per-virtual-round receptions, indexed from virtual round 1.
    pub log: Vec<VirtualReception<A>>,
}

impl<A: Clone + 'static> ClientApp<A> for CollectorClient<A> {
    fn on_virtual_round(&mut self, _vr: u64, _pos: Point, prev: &VirtualReception<A>) -> Option<A> {
        self.log.push(prev.clone());
        None
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A client that broadcasts a scripted message every `period` virtual
/// rounds (starting at round `offset`) and records receptions.
pub struct PeriodicClient<A> {
    make: Box<dyn FnMut(u64) -> A>,
    period: u64,
    offset: u64,
    /// Receptions observed, like [`CollectorClient`].
    pub log: Vec<VirtualReception<A>>,
}

impl<A> PeriodicClient<A> {
    /// Creates a periodic sender; `make(vr)` builds the message for
    /// virtual round `vr`.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(period: u64, offset: u64, make: Box<dyn FnMut(u64) -> A>) -> Self {
        assert!(period > 0, "period must be positive");
        PeriodicClient {
            make,
            period,
            offset,
            log: Vec::new(),
        }
    }
}

impl<A: Clone + 'static> ClientApp<A> for PeriodicClient<A> {
    fn on_virtual_round(&mut self, vr: u64, _pos: Point, prev: &VirtualReception<A>) -> Option<A> {
        self.log.push(prev.clone());
        (vr >= self.offset && (vr - self.offset).is_multiple_of(self.period))
            .then(|| (self.make)(vr))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_records_in_order() {
        let mut c = CollectorClient::<u64>::default();
        let mut r1 = VirtualReception::default();
        r1.push(Some(VnId(2)), 1);
        let r2 = VirtualReception {
            collision: true,
            ..VirtualReception::default()
        };
        assert_eq!(c.on_virtual_round(1, Point::ORIGIN, &r1), None);
        assert_eq!(c.on_virtual_round(2, Point::ORIGIN, &r2), None);
        assert_eq!(c.log, vec![r1, r2]);
        assert_eq!(
            c.log[0].with_senders().collect::<Vec<_>>(),
            vec![(Some(VnId(2)), &1)]
        );
    }

    #[test]
    fn periodic_fires_on_schedule() {
        let mut p = PeriodicClient::new(3, 2, Box::new(|vr| vr * 10));
        let quiet = VirtualReception::default();
        let sent: Vec<Option<u64>> = (1..=8)
            .map(|vr| p.on_virtual_round(vr, Point::ORIGIN, &quiet))
            .collect();
        assert_eq!(
            sent,
            vec![None, Some(20), None, None, Some(50), None, None, Some(80)]
        );
    }

    #[test]
    fn silence_detection() {
        assert!(VirtualReception::<u64>::default().is_silent());
        let mut r = VirtualReception::<u64> {
            collision: true,
            ..VirtualReception::default()
        };
        assert!(!r.is_silent());
        r.push(None, 7);
        r.clear();
        assert!(r.is_silent() && r.senders.is_empty());
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn periodic_rejects_zero_period() {
        let _ = PeriodicClient::<u64>::new(0, 0, Box::new(|_| 0));
    }
}
