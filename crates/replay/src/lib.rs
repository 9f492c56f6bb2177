//! # ftd-replay — deterministic full-system record/replay
//!
//! The simulation is deterministic by construction; the live gateway is
//! not reproducible after the fact — a chaos-soak failure at seed 42
//! tells you *that* something broke, not *what happened*. This crate
//! closes that gap with the message-logging discipline of the CORBA
//! disaster-recovery literature, applied as correctness tooling rather
//! than recovery:
//!
//! * [`Recorder`] — captures every nondeterministic input crossing the
//!   gateway boundary (connection accepts, inbound GIOP wire frames,
//!   ordered ring deliveries, engine clock reads, domain fault-plan
//!   events, recovery seeding) into a typed, versioned [`ReplayEvent`]
//!   log on the ftd-store WAL (`[len][crc32][payload]` frames,
//!   segmented, torn-tail-tolerant).
//! * [`Replayer`] — re-drives fresh [`ftd_core::GatewayEngine`]s and a
//!   [`ReplayDomain`] from the log, offline and single-threaded, feeding
//!   recorded clock reads back through [`ReplayClock`]s.
//! * [`StateDigest`] — the canonical fingerprint both runs reduce to:
//!   per-shard engine state and action streams, plus per-group domain
//!   replica state, hashed with the workspace's existing CRC32/splitmix
//!   primitives. Record-run ≡ replay-run is one comparison; when it
//!   fails, the per-event action CRCs pinpoint the first diverging
//!   event by log offset.
//!
//! Hosts wire recording in through two seams: [`ShardTap`] is the
//! [`ftd_core::EngineTap`] each shard reports its engine calls to, and
//! [`RecordingClock`] wraps the
//! engine's time source. `ftd-net` provides the live plumbing
//! (`GatewayServer::builder().record_dir(..)`) and the domain-side
//! rebuild; this crate stays transport-agnostic and std-only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod event;
pub mod log;
pub mod recorder;
pub mod replayer;
pub mod tap;

pub use digest::{
    actions_crc, encode_action, fold64, hash64, hash_domain_state, mix64, DomainDigest,
    ShardDigest, StateDigest,
};
pub use event::{
    decode_header, encode_header, style_from_tag, style_tag, EngineSetup, GroupSpec, RecordedView,
    ReplayEvent, LOG_MAGIC, LOG_VERSION,
};
pub use log::{read_log, EventLog};
pub use recorder::{Recorder, RecordingClock};
pub use replayer::{
    replay_events, Divergence, NullDomain, ReplayClock, ReplayDomain, ReplayOutcome, Replayer,
};
pub use tap::ShardTap;
