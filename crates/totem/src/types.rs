//! Public identifier and event types of the Totem layer.

use ftd_sim::{Bytes, ProcessorId};
use std::fmt;

/// Identifies a process group (an *object group* at the Eternal layer).
///
/// Within a fault tolerance domain "each replicated object is assigned a
/// unique object group identifier" and "the Replication Mechanisms hosting
/// the replicas of an object are addressed by multicasting messages to the
/// object's group identifier" (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A ring incarnation number; strictly increases across membership changes.
///
/// The value is composite: a formation-round counter in the high bits and
/// the representative's processor id in the low byte, so two
/// representatives racing to form rings in the same round still produce
/// *distinct, ordered* epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RingEpoch(pub u64);

impl RingEpoch {
    /// Builds the epoch for the next formation round after `seen`, led by
    /// representative `rep` (its id is folded into the low byte).
    pub fn next_round(seen: RingEpoch, rep_id: u32) -> RingEpoch {
        RingEpoch(((seen.round() + 1) << 8) | u64::from(rep_id & 0xFF))
    }

    /// The formation-round counter.
    pub fn round(self) -> u64 {
        self.0 >> 8
    }
}

impl fmt::Display for RingEpoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch{}.{}", self.round(), self.0 & 0xFF)
    }
}

/// A message delivered in total order to a subscribed group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupMessage {
    /// The totally ordered sequence number — system-wide unique, and the
    /// source of the paper's operation-identifier "timestamps" (§3.3:
    /// "derived from the totally-ordered message sequence numbers assigned
    /// by the Totem multicast group communication system").
    pub seq: u64,
    /// The processor that originated the message.
    pub sender: ProcessorId,
    /// The destination group.
    pub group: GroupId,
    /// Application payload: a shared slice of the frame it arrived in (or
    /// of the sender's own buffer), never a copy.
    pub payload: Bytes,
}

/// A newly installed ring membership view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipView {
    /// The new ring's epoch.
    pub epoch: RingEpoch,
    /// Ring members, sorted ascending.
    pub members: Vec<ProcessorId>,
}

/// Events emitted by a [`TotemNode`](crate::TotemNode) toward its host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TotemEvent {
    /// A totally ordered message for a group this node subscribes to.
    Deliver(GroupMessage),
    /// A membership change was installed.
    Membership(MembershipView),
    /// This node was excluded from the ring long enough that messages in
    /// `(missed_from, missed_to]` were garbage-collected ring-wide and can
    /// never be delivered here. The hosting layer must recover application
    /// state out of band (Eternal answers this with state transfer from a
    /// live replica).
    Gap {
        /// Last sequence number delivered before the hole.
        missed_from: u64,
        /// Delivery resumes after this sequence number.
        missed_to: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(GroupId(4).to_string(), "g4");
        assert_eq!(RingEpoch(2).to_string(), "epoch0.2");
        assert_eq!(
            RingEpoch::next_round(RingEpoch(2), 7).to_string(),
            "epoch1.7"
        );
        assert_eq!(RingEpoch::next_round(RingEpoch(2), 7).round(), 1);
    }

    #[test]
    fn ids_order() {
        assert!(GroupId(1) < GroupId(2));
        assert!(RingEpoch(1) < RingEpoch(2));
    }
}
