//! The [`ShardTap`]: the recording seam around one shard's engine.
//!
//! A tap wraps every engine entry point a host drives. Each call runs
//! the engine, fingerprints the emitted actions ([`actions_crc`]), folds
//! the fingerprint into the shard's running action-stream hash, records
//! the event, and hands the actions back for the host to apply exactly
//! as it would untapped. Keeping the tap here (rather than inside
//! `ftd-net`) means the recording logic is host-agnostic and testable
//! against a bare engine.

use crate::digest::{actions_crc, fold64, hash64, ShardDigest};
use crate::event::{RecordedView, ReplayEvent};
use crate::recorder::Recorder;
use ftd_core::{Action, GatewayEngine, GwConn};
use ftd_giop::Frame;
use ftd_totem::GroupId;
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

    /// Tapped [`GatewayEngine::on_client_accepted`].
    pub fn on_accepted(&mut self, engine: &mut GatewayEngine, conn: GwConn) -> Vec<Action> {
        let actions = engine.on_client_accepted(conn);
        let crc = self.note(&actions);
        self.recorder.record(&ReplayEvent::ConnAccepted {
            shard: self.shard,
            conn: conn.0,
            actions_crc: crc,
        });
        actions
    }

    /// Tapped [`GatewayEngine::on_client_frame`]. The wire bytes are
    /// copied once here, into the recording; replaying them through
    /// [`GatewayEngine::on_client_frame`] reproduces the call exactly.
    pub fn on_frame(
        &mut self,
        engine: &mut GatewayEngine,
        conn: GwConn,
        frame: Frame<'_>,
        view: &RecordedView,
    ) -> Vec<Action> {
        let bytes = frame.wire().to_vec();
        let actions = engine.on_client_frame(conn, frame, view);
        let crc = self.note(&actions);
        self.recorder.record(&ReplayEvent::ClientMsg {
            shard: self.shard,
            conn: conn.0,
            view: view.clone(),
            bytes,
            actions_crc: crc,
        });
        actions
    }

    /// Tapped [`GatewayEngine::on_client_closed`].
    pub fn on_closed(&mut self, engine: &mut GatewayEngine, conn: GwConn) -> Vec<Action> {
        let actions = engine.on_client_closed(conn);
        let crc = self.note(&actions);
        self.recorder.record(&ReplayEvent::ConnClosed {
            shard: self.shard,
            conn: conn.0,
            actions_crc: crc,
        });
        actions
    }

    /// Tapped [`GatewayEngine::on_delivery_from_domain`] — one recorded
    /// ring delivery in arrival order.
    pub fn on_delivery(
        &mut self,
        engine: &mut GatewayEngine,
        group: GroupId,
        payload: &[u8],
        view: &RecordedView,
    ) -> Vec<Action> {
        let actions = engine.on_delivery_from_domain(group, payload, view);
        let crc = self.note(&actions);
        self.recorder.record(&ReplayEvent::Delivery {
            shard: self.shard,
            group: group.0,
            payload: payload.to_vec(),
            view: view.clone(),
            actions_crc: crc,
        });
        actions
    }

    /// Tapped [`GatewayEngine::seed_counter`] (recovery seeding).
    pub fn seed_counter(&mut self, engine: &mut GatewayEngine, server: u32, value: u32) {
        engine.seed_counter(server, value);
        self.recorder.record(&ReplayEvent::SeedCounter {
            shard: self.shard,
            server,
            value,
        });
    }

    /// Tapped [`GatewayEngine::restore_cached_response`] (recovery
    /// seeding).
    pub fn restore_response(
        &mut self,
        engine: &mut GatewayEngine,
        op: ftd_eternal::OperationId,
        reply: Vec<u8>,
    ) {
        self.recorder.record(&ReplayEvent::RestoreResponse {
            shard: self.shard,
            op,
            reply: reply.clone(),
        });
        engine.restore_cached_response(op, reply);
    }

    /// Finishes the shard's recording: computes the final digest from
    /// the engine's canonical state, records it, and returns it.
    pub fn finish(&mut self, engine: &GatewayEngine) -> ShardDigest {
        let digest = ShardDigest {
            shard: self.shard,
            engine: hash64(&engine.state_bytes()),
            actions: self.actions_hash,
            events: self.events,
        };
        self.recorder.record(&ReplayEvent::ShardDigest {
            shard: digest.shard,
            engine: digest.engine,
            actions: digest.actions,
            events: digest.events,
        });
        digest
    }
}
