//! The [`ShardTap`]: the recording seam around one shard's engine.
//!
//! A tap is a [`ftd_core::EngineTap`]: the shard tells it about every
//! engine call it makes, after the call returns. For each call the tap
//! fingerprints the emitted actions ([`actions_crc`]), folds the
//! fingerprint into the shard's running action-stream hash, and records
//! the event. Keeping the tap here (rather than inside `ftd-net`) means
//! the recording logic is host-agnostic and testable against a bare
//! [`ftd_core::Shard`].

use crate::digest::{actions_crc, fold64, hash64};
use crate::event::ReplayEvent;
use crate::recorder::Recorder;
use ftd_core::{Action, EngineCall, EngineTap, GatewayEngine};
use std::sync::Arc;

/// Records one shard's engine invocations. Owned by the shard thread —
/// no internal locking beyond the shared [`Recorder`]'s.
#[derive(Debug)]
pub struct ShardTap {
    recorder: Arc<Recorder>,
    shard: u32,
    actions_hash: u64,
    events: u64,
}

impl ShardTap {
    /// A tap for shard `shard` writing through `recorder`.
    pub fn new(recorder: Arc<Recorder>, shard: u32) -> Self {
        ShardTap {
            recorder,
            shard,
            actions_hash: 0,
            events: 0,
        }
    }

    fn note(&mut self, actions: &[Action]) -> u32 {
        let crc = actions_crc(actions);
        self.actions_hash = fold64(self.actions_hash, crc as u64);
        self.events += 1;
        crc
    }
}

impl EngineTap for ShardTap {
    /// The wire bytes are copied once here, into the recording; replaying
    /// them through [`GatewayEngine::on_client_frame`] reproduces the
    /// call exactly.
    fn record(&mut self, call: EngineCall<'_>, actions: &[Action]) {
        let shard = self.shard;
        let event = match call {
            EngineCall::Accepted(conn) => ReplayEvent::ConnAccepted {
                shard,
                conn: conn.0,
                actions_crc: self.note(actions),
            },
            EngineCall::Frame { conn, wire, view } => ReplayEvent::ClientMsg {
                shard,
                conn: conn.0,
                view: view.clone(),
                bytes: wire.to_vec(),
                actions_crc: self.note(actions),
            },
            EngineCall::Closed(conn) => ReplayEvent::ConnClosed {
                shard,
                conn: conn.0,
                actions_crc: self.note(actions),
            },
            EngineCall::Delivery {
                group,
                payload,
                view,
            } => ReplayEvent::Delivery {
                shard,
                group: group.0,
                payload: payload.to_vec(),
                view: view.clone(),
                actions_crc: self.note(actions),
            },
            EngineCall::SeedCounter { server, value } => ReplayEvent::SeedCounter {
                shard,
                server,
                value,
            },
            EngineCall::RestoreResponse { op, reply } => ReplayEvent::RestoreResponse {
                shard,
                op,
                reply: reply.to_vec(),
            },
        };
        self.recorder.record(&event);
    }

    /// Finishes the shard's recording: the final digest, from the
    /// engine's canonical state.
    fn finish(&mut self, engine: &GatewayEngine) {
        self.recorder.record(&ReplayEvent::ShardDigest {
            shard: self.shard,
            engine: hash64(&engine.state_bytes()),
            actions: self.actions_hash,
            events: self.events,
        });
    }
}
