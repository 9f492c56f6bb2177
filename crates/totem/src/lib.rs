//! # ftd-totem — reliable totally-ordered multicast (Totem single-ring)
//!
//! The fault tolerance domain of the paper runs all internal communication
//! over "a reliable totally ordered multicast protocol" — Totem. This crate
//! implements a Totem-style single-ring protocol over the lossy LAN
//! datagrams of [`ftd_sim`]:
//!
//! * a rotating **token** assigns sequence numbers, carries the
//!   all-received-up-to point and retransmission requests;
//! * **agreed** and **safe** delivery modes ([`DeliveryMode`]);
//! * **membership**: token loss triggers a gather/commit reformation led by
//!   the lowest-id survivor; recovered processors rejoin the ring and the
//!   survivors rebroadcast messages the ring still needs;
//! * ring-frame **packing**: a burst broadcast at one token visit shares
//!   [`Pack`] datagrams (bounded by count and bytes), amortizing the
//!   per-datagram cost while every message keeps its own sequence number;
//! * a **process group** layer: nodes join [`GroupId`]s, group membership
//!   changes travel through the ordered stream itself, so every node's
//!   directory view changes at the same point in the total order.
//!
//! The totally ordered sequence numbers exposed on [`GroupMessage::seq`]
//! are exactly what the paper's §3.3 operation identifiers are built from.
//!
//! The [`TotemNode`] is a sans-I/O-style component: a host actor forwards
//! datagrams/timers into it and drains [`TotemEvent`]s. See the
//! integration tests for complete hosts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod node;
mod store;
mod types;
mod wire;

pub use config::{DeliveryMode, TotemConfig};
pub use node::{TotemNode, TOTEM_TAG_SPAN};
pub use types::{GroupId, GroupMessage, MembershipView, RingEpoch, TotemEvent};
pub use wire::{
    Beacon, Commit, Join, Pack, PackEntry, Regular, Token, TotemMsg, WireError, TOTEM_MAGIC,
};
