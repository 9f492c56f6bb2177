//! [`GroupRelay`] — the net-side brain of an out-of-process gateway
//! group: leadership, sequencing, gap repair, and rejoin by state
//! transfer.
//!
//! PR 7 relayed invocations peer-to-peer and applied them in arrival
//! order, which only converges for commutative workloads. This module
//! closes that hole with a **cross-member sequencer** (the lowest-id
//! member of the current view stamps every relayed server-group
//! invocation; everyone applies strictly in stamp order), and makes the
//! group self-healing: a member that lost frames re-requests the gap
//! from the sender's retained window, and one that fell too far behind —
//! or restarted from nothing — asks a peer for a **state transfer**: the
//! donor pauses sequenced delivery at an exact cut, quiesces its domain
//! replica, streams its per-group checkpoints, completed responses, and
//! reply digests in one CRC-sealed frame, and the receiver installs the
//! lot, jumps its apply cursor past the snapshot, and re-enters the
//! ordered stream with byte-identical state.
//!
//! The relay sits between the shard threads (which hand it admitted
//! invocations), the mesh reader threads (which hand it peer frames),
//! and the domain thread (which executes the ordered stream). All
//! sequencing state lives behind one mutex that is only ever held for
//! queue pushes and channel sends — never across the quiesce/export
//! barriers a state transfer needs.

use crate::domain::DomainLink;
use crate::server::{ShardEv, ShardQueue};
use crate::store::{read_len_bytes, read_opid, write_len_bytes, write_opid};
use crate::GroupSnapshot;
use ftd_core::{GwMsg, ShardRouter};
use ftd_eternal::{DomainMsg, OperationKind};
use ftd_group::{GroupNode, PeerMesh, RelayMsg, SequencedOp, Sequencer};
use ftd_obs::{names, Registry};
use ftd_totem::GroupId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// How long the relay waits for the domain thread / a shard barrier
/// while assembling or installing a state transfer.
const TRANSFER_STEP_TIMEOUT: Duration = Duration::from_secs(5);

/// How long [`GroupRelay::sync_state`] waits for one requested transfer
/// before re-requesting (possibly from a different peer).
const SYNC_RETRY: Duration = Duration::from_millis(500);

/// The mutable half of the relay: the sequencer plus the pause state a
/// donor uses to take an exact-cut snapshot.
struct SeqState {
    sequencer: Sequencer,
    /// While `true` (a state transfer is being assembled) sequenced ops
    /// queue in `pending` instead of reaching the domain, so the
    /// snapshot's cut (`applied_through`) stays exact.
    paused: bool,
    pending: Vec<SequencedOp>,
    /// The last gap already re-requested — a second identical request is
    /// suppressed until the hole moves.
    last_gap: Option<(u64, u64)>,
}

/// The per-member group relay. One per grouped [`GatewayServer`]
/// (`None` otherwise); shards call [`GroupRelay::submit`], the mesh
/// calls [`GroupRelay::on_frame`].
///
/// [`GatewayServer`]: crate::GatewayServer
pub(crate) struct GroupRelay {
    node: Arc<GroupNode>,
    /// Set right after [`PeerMesh::start`] (the mesh's frame handler
    /// needs the relay, so the relay is built first).
    mesh: OnceLock<Arc<PeerMesh>>,
    domain: DomainLink,
    queues: Vec<ShardQueue>,
    router: Arc<ShardRouter>,
    registry: Arc<Registry>,
    /// The gateway group id — coordination multicasts addressed to it
    /// ride the mesh unsequenced (they are idempotent by construction).
    gw_group: GroupId,
    /// The configured full group size, for the quorum gate. 0 or 1
    /// disables gating (unknown / singleton deployments).
    group_size: usize,
    seq: Mutex<SeqState>,
    /// Serializes state transfers (donor or receiver side) so two
    /// concurrent requests cannot interleave their pause windows.
    transfer: Mutex<()>,
    /// Set once a state transfer installed; [`GroupRelay::sync_state`]
    /// waits on it.
    synced: Mutex<bool>,
    synced_cv: Condvar,
    fenced: AtomicBool,
}

impl GroupRelay {
    pub(crate) fn new(
        node: Arc<GroupNode>,
        domain: DomainLink,
        queues: Vec<ShardQueue>,
        router: Arc<ShardRouter>,
        registry: Arc<Registry>,
        gw_group: GroupId,
        group_size: usize,
    ) -> GroupRelay {
        GroupRelay {
            node,
            mesh: OnceLock::new(),
            domain,
            queues,
            router,
            registry,
            gw_group,
            group_size,
            seq: Mutex::new(SeqState {
                sequencer: Sequencer::new(),
                paused: false,
                pending: Vec::new(),
                last_gap: None,
            }),
            transfer: Mutex::new(()),
            synced: Mutex::new(false),
            synced_cv: Condvar::new(),
            fenced: AtomicBool::new(false),
        }
    }

    pub(crate) fn set_mesh(&self, mesh: Arc<PeerMesh>) {
        let _ = self.mesh.set(mesh);
    }

    fn mesh(&self) -> Option<&Arc<PeerMesh>> {
        self.mesh.get()
    }

    /// The sequencer for the current view: the lowest node id among the
    /// live members (self included).
    fn leader(&self) -> u32 {
        self.node
            .members()
            .iter()
            .map(|m| m.node)
            .min()
            .unwrap_or_else(|| self.node.node_id())
    }

    /// Fences this member out of the group: it stops sequencing,
    /// relaying, and applying, and leaves the membership view so peers
    /// and the multi-profile IOR stop naming it. Idempotent.
    pub(crate) fn fence(&self) {
        if !self.fenced.swap(true, Ordering::SeqCst) {
            self.node.fence();
        }
    }

    pub(crate) fn is_fenced(&self) -> bool {
        self.fenced.load(Ordering::SeqCst) || self.node.is_fenced()
    }

    /// Broadcasts gateway-group coordination (Record / PeerReply /
    /// ClientGone) to the live peers, unsequenced — these are idempotent
    /// and carry their own operation identity.
    pub(crate) fn relay_gateway(&self, payload: Vec<u8>) {
        if self.is_fenced() {
            return;
        }
        if let Some(mesh) = self.mesh() {
            mesh.broadcast(&RelayMsg::Gateway { payload });
        }
    }

    /// An admitted server-group invocation from a local shard. The
    /// leader stamps and broadcasts it; a follower hands it to the
    /// leader for stamping. Below quorum the invocation is dropped
    /// (counted) — the client's retry policy redrives it once the view
    /// heals, instead of the minority diverging from the majority.
    pub(crate) fn submit(&self, group: GroupId, payload: Vec<u8>) {
        if self.is_fenced() {
            return;
        }
        let members = self.node.members();
        if self.group_size > 1 && members.len() * 2 <= self.group_size {
            self.registry.inc(names::GROUP_NO_QUORUM_DROPS);
            return;
        }
        let me = self.node.node_id();
        let leader = members.iter().map(|m| m.node).min().unwrap_or(me);
        if leader == me {
            self.stamp_and_deliver(me, group.0, payload);
        } else if let Some(mesh) = self.mesh() {
            // Best effort: a frame lost to a dying leader is redriven by
            // the client's reissue after the view moves on.
            let _ = mesh.send_to(
                leader,
                &RelayMsg::Invocation {
                    group: group.0,
                    payload,
                },
            );
        }
    }

    /// Leader path: stamp, broadcast, and apply (or queue while paused).
    /// Broadcasting under the sequencer lock keeps the stream ordered on
    /// the wire, so followers almost never see an artificial gap.
    fn stamp_and_deliver(&self, origin: u32, group: u32, payload: Vec<u8>) {
        let mut st = self.seq.lock().expect("sequencer state");
        let op = st.sequencer.stamp(origin, group, payload);
        self.registry.inc(names::GROUP_SEQ_STAMPED);
        if let Some(mesh) = self.mesh() {
            mesh.broadcast(&RelayMsg::Sequenced {
                seq: op.seq,
                origin: op.origin,
                group: op.group,
                payload: op.payload.clone(),
            });
        }
        if st.paused {
            st.pending.push(op);
            return;
        }
        let ready = st.sequencer.on_sequenced(op);
        for op in &ready {
            self.deliver(op);
        }
    }

    /// Applies one sequenced op: relayed admissions synthesize the same
    /// [`GwMsg::Record`] bookkeeping an in-process peer would have seen,
    /// then the untouched payload multicasts into the local domain
    /// replica — every member executes the identical ordered stream.
    fn deliver(&self, op: &SequencedOp) {
        if op.origin != self.node.node_id() {
            if let Ok(DomainMsg::Iiop { header, .. }) = DomainMsg::decode(&op.payload) {
                if header.kind == OperationKind::Invocation {
                    let record = GwMsg::Record {
                        client: header.client,
                        request_id: header.child_seq,
                        server: header.target,
                    }
                    .encode();
                    self.queues[self.router.route(header.target)]
                        .send(ShardEv::Delivery(self.gw_group, record));
                }
            }
        }
        self.domain.multicast(GroupId(op.group), op.payload.clone());
    }

    /// One frame from peer `from`, on a mesh reader thread.
    pub(crate) fn on_frame(&self, from: u32, msg: RelayMsg) {
        match msg {
            RelayMsg::Hello { .. } => {}
            RelayMsg::Invocation { group, payload } => {
                if self.is_fenced() {
                    return;
                }
                let me = self.node.node_id();
                let leader = self.leader();
                if leader == me {
                    self.stamp_and_deliver(from, group, payload);
                } else if leader != from {
                    // The sender's view is stale (it thought we lead).
                    // Forward one hop toward the leader we see; never
                    // back at the sender, so two stale views cannot
                    // ping-pong a frame forever.
                    if let Some(mesh) = self.mesh() {
                        let _ = mesh.send_to(leader, &RelayMsg::Invocation { group, payload });
                    }
                }
            }
            RelayMsg::Gateway { payload } => {
                if self.is_fenced() {
                    return;
                }
                match GwMsg::decode(&payload) {
                    Ok(GwMsg::ClientGone { .. }) => {
                        for queue in &self.queues {
                            queue.send(ShardEv::PeerGone(payload.clone()));
                        }
                    }
                    Ok(GwMsg::PeerReply { server, .. }) | Ok(GwMsg::Record { server, .. }) => {
                        self.queues[self.router.route(server)]
                            .send(ShardEv::Delivery(self.gw_group, payload));
                    }
                    _ => {}
                }
            }
            RelayMsg::Sequenced {
                seq,
                origin,
                group,
                payload,
            } => {
                if self.is_fenced() {
                    return;
                }
                let op = SequencedOp {
                    seq,
                    origin,
                    group,
                    payload,
                };
                let mut st = self.seq.lock().expect("sequencer state");
                if st.paused {
                    st.pending.push(op);
                    return;
                }
                let ready = st.sequencer.on_sequenced(op);
                for op in &ready {
                    self.deliver(op);
                }
                self.request_gap(&mut st, from);
            }
            RelayMsg::GapRequest { from_seq, to_seq } => {
                let (frames, covered) = {
                    let st = self.seq.lock().expect("sequencer state");
                    let frames = st.sequencer.retained_range(from_seq, to_seq);
                    let covered = frames.first().is_some_and(|f| f.seq == from_seq);
                    (frames, covered)
                };
                if covered {
                    if let Some(mesh) = self.mesh() {
                        for op in frames {
                            let _ = mesh.send_to(
                                from,
                                &RelayMsg::Sequenced {
                                    seq: op.seq,
                                    origin: op.origin,
                                    group: op.group,
                                    payload: op.payload,
                                },
                            );
                        }
                    }
                } else {
                    // The hole reaches past our retained window: only a
                    // full state transfer can catch the peer up.
                    self.registry.inc(names::GROUP_STATE_TRANSFERS);
                    self.send_state(from);
                }
            }
            RelayMsg::StateRequest => {
                self.registry.inc(names::GROUP_STATE_TRANSFERS);
                self.send_state(from);
            }
            RelayMsg::StateReply { upto_seq, payload } => {
                self.install_state(upto_seq, &payload);
            }
        }
    }

    /// Re-requests the hole in front of the apply cursor from the peer
    /// whose frame exposed it, once per distinct hole.
    fn request_gap(&self, st: &mut SeqState, from: u32) {
        match st.sequencer.gap() {
            Some(gap) if st.last_gap != Some(gap) => {
                st.last_gap = Some(gap);
                self.registry.inc(names::GROUP_GAP_REQUESTS);
                let (from_seq, to_seq) = gap;
                if let Some(mesh) = self.mesh() {
                    let _ = mesh.send_to(from, &RelayMsg::GapRequest { from_seq, to_seq });
                }
            }
            Some(_) => {}
            None => st.last_gap = None,
        }
    }

    /// Donor side of a state transfer: pause sequenced delivery at an
    /// exact cut, quiesce the domain so every op at or below the cut has
    /// executed, collect the engines' reply digests (a FIFO barrier per
    /// shard), export the replicas, seal the lot, resume, and send.
    fn send_state(&self, to: u32) {
        let _serial = self.transfer.lock().expect("transfer serial");
        let upto = {
            let mut st = self.seq.lock().expect("sequencer state");
            st.paused = true;
            st.sequencer.applied_through()
        };
        self.domain.quiesce(TRANSFER_STEP_TIMEOUT);
        let mut chains: Vec<(u32, u64, u64)> = Vec::new();
        let mut barriers = Vec::with_capacity(self.queues.len());
        for queue in &self.queues {
            let (ack_tx, ack_rx) = mpsc::channel();
            if queue.send(ShardEv::ExportChains(ack_tx)) {
                barriers.push(ack_rx);
            }
        }
        for rx in barriers {
            if let Ok(mut part) = rx.recv_timeout(TRANSFER_STEP_TIMEOUT) {
                chains.append(&mut part);
            }
        }
        chains.sort_unstable();
        let snapshots = self
            .domain
            .export_groups(TRANSFER_STEP_TIMEOUT)
            .unwrap_or_default();
        let payload = ftd_store::frame::seal(&encode_transfer(&chains, &snapshots));
        {
            let mut st = self.seq.lock().expect("sequencer state");
            st.paused = false;
            let pending = std::mem::take(&mut st.pending);
            for op in pending {
                let ready = st.sequencer.on_sequenced(op);
                for op in &ready {
                    self.deliver(op);
                }
            }
        }
        if let Some(mesh) = self.mesh() {
            let _ = mesh.send_to(
                to,
                &RelayMsg::StateReply {
                    upto_seq: upto,
                    payload,
                },
            );
        }
    }

    /// Receiver side: verify the seal, seed every shard engine (reply
    /// digests so cross-checks at covered sequences skip instead of
    /// misfiring, §3.2 counters recovered from the transferred operation
    /// ids, cached responses for reissue suppression), install the
    /// replica snapshots, jump the apply cursor past the cut, and wake
    /// [`GroupRelay::sync_state`].
    fn install_state(&self, upto: u64, sealed: &[u8]) {
        let _serial = self.transfer.lock().expect("transfer serial");
        let Some(payload) = ftd_store::frame::open(sealed) else {
            self.registry.inc(names::GROUP_RELAY_ERRORS);
            return;
        };
        let Some((chains, snapshots)) = decode_transfer(payload) else {
            self.registry.inc(names::GROUP_RELAY_ERRORS);
            return;
        };
        {
            // A duplicate or stale reply (we re-request on a timer while
            // catching up) has nothing to install.
            let st = self.seq.lock().expect("sequencer state");
            if st.sequencer.applied_through() >= upto {
                drop(st);
                self.mark_synced();
                return;
            }
        }
        // §3.2: the transferred responses carry the operation ids this
        // member assigned in a previous life — recover the per-group
        // counters so a restarted member never reuses an id.
        let me = self.node.node_id();
        let mut counters: BTreeMap<u32, u32> = BTreeMap::new();
        for snap in &snapshots {
            for (op, _) in &snap.responses {
                if op.client >> 24 == me {
                    let c = counters.entry(op.target.0).or_insert(0);
                    *c = (*c).max(op.client & 0x00FF_FFFF);
                }
            }
        }
        for (idx, queue) in self.queues.iter().enumerate() {
            let shard_chains: Vec<(u32, u64, u64)> = chains
                .iter()
                .copied()
                .filter(|&(g, _, _)| self.router.route(GroupId(g)) == idx)
                .collect();
            let shard_counters: Vec<(u32, u32)> = counters
                .iter()
                .map(|(&g, &v)| (g, v))
                .filter(|&(g, _)| self.router.route(GroupId(g)) == idx)
                .collect();
            let shard_responses: Vec<_> = snapshots
                .iter()
                .flat_map(|s| s.responses.iter().cloned())
                .filter(|(op, _)| self.router.route(op.target) == idx)
                .collect();
            let (ack_tx, ack_rx) = mpsc::channel();
            let ev = ShardEv::SeedTransfer {
                chains: shard_chains,
                counters: shard_counters,
                responses: shard_responses,
                ack: ack_tx,
            };
            if queue.send(ev) {
                let _ = ack_rx.recv_timeout(TRANSFER_STEP_TIMEOUT);
            }
        }
        let _ = self.domain.restore_groups(snapshots, TRANSFER_STEP_TIMEOUT);
        {
            let mut st = self.seq.lock().expect("sequencer state");
            let ready = st.sequencer.advance_to(upto);
            for op in &ready {
                self.deliver(op);
            }
            st.last_gap = None;
        }
        self.registry.inc(names::GROUP_STATE_TRANSFERS);
        self.mark_synced();
    }

    fn mark_synced(&self) {
        let mut synced = self.synced.lock().expect("synced flag");
        *synced = true;
        self.synced_cv.notify_all();
    }

    /// Requests a state transfer from a live peer and waits for it to
    /// install, re-requesting every [`SYNC_RETRY`] (rotating peers)
    /// until `timeout`. What a restarted or rejoining member runs before
    /// accepting clients. `true` once synced.
    pub(crate) fn sync_state(&self, timeout: Duration) -> bool {
        // Budgeted by counting condvar waits rather than reading a wall
        // clock: each iteration spends at most SYNC_RETRY, so the budget
        // drains deterministically without ambient time.
        let mut remaining = timeout;
        let mut attempt = 0usize;
        loop {
            if *self.synced.lock().expect("synced flag") {
                return true;
            }
            if remaining.is_zero() {
                return false;
            }
            let peers = self.node.peers();
            if !peers.is_empty() {
                let target = peers[attempt % peers.len()].node;
                if let Some(mesh) = self.mesh() {
                    let _ = mesh.send_to(target, &RelayMsg::StateRequest);
                }
                attempt += 1;
            }
            let guard = self.synced.lock().expect("synced flag");
            let (guard, _) = self
                .synced_cv
                .wait_timeout(guard, SYNC_RETRY.min(remaining))
                .expect("synced wait");
            remaining = remaining.saturating_sub(SYNC_RETRY);
            if *guard {
                return true;
            }
        }
    }

    /// The group sequence applied so far (admin/digest surface).
    pub(crate) fn applied_through(&self) -> u64 {
        self.seq
            .lock()
            .expect("sequencer state")
            .sequencer
            .applied_through()
    }
}

/// Encodes a state transfer: the engines' per-group reply digests, then
/// the domain's per-group snapshots. Framing reuses the store codec
/// (`opid` and length-prefixed bytes); the caller seals the result.
fn encode_transfer(chains: &[(u32, u64, u64)], snapshots: &[GroupSnapshot]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend((chains.len() as u32).to_be_bytes());
    for &(group, seq, digest) in chains {
        buf.extend(group.to_be_bytes());
        buf.extend(seq.to_be_bytes());
        buf.extend(digest.to_be_bytes());
    }
    buf.extend((snapshots.len() as u32).to_be_bytes());
    for snap in snapshots {
        buf.extend(snap.group.to_be_bytes());
        write_len_bytes(&mut buf, &snap.state);
        buf.extend((snap.responses.len() as u32).to_be_bytes());
        for (op, reply) in &snap.responses {
            write_opid(&mut buf, op);
            write_len_bytes(&mut buf, reply);
        }
    }
    buf
}

#[allow(clippy::type_complexity)]
fn decode_transfer(mut buf: &[u8]) -> Option<(Vec<(u32, u64, u64)>, Vec<GroupSnapshot>)> {
    let read_u32 = |buf: &mut &[u8]| -> Option<u32> {
        let v = u32::from_be_bytes(buf.get(..4)?.try_into().ok()?);
        *buf = &buf[4..];
        Some(v)
    };
    let read_u64 = |buf: &mut &[u8]| -> Option<u64> {
        let v = u64::from_be_bytes(buf.get(..8)?.try_into().ok()?);
        *buf = &buf[8..];
        Some(v)
    };
    let n_chains = read_u32(&mut buf)?;
    let mut chains = Vec::with_capacity(n_chains.min(1 << 20) as usize);
    for _ in 0..n_chains {
        let group = read_u32(&mut buf)?;
        let seq = read_u64(&mut buf)?;
        let digest = read_u64(&mut buf)?;
        chains.push((group, seq, digest));
    }
    let n_snaps = read_u32(&mut buf)?;
    let mut snapshots = Vec::with_capacity(n_snaps.min(1 << 20) as usize);
    for _ in 0..n_snaps {
        let group = read_u32(&mut buf)?;
        let (state, rest) = read_len_bytes(buf)?;
        buf = rest;
        let n_resp = read_u32(&mut buf)?;
        let mut responses = Vec::with_capacity(n_resp.min(1 << 20) as usize);
        for _ in 0..n_resp {
            let (op, rest) = read_opid(buf)?;
            buf = rest;
            let (reply, rest) = read_len_bytes(buf)?;
            buf = rest;
            responses.push((op, reply.to_vec()));
        }
        snapshots.push(GroupSnapshot {
            group,
            state: state.to_vec(),
            responses,
        });
    }
    buf.is_empty().then_some((chains, snapshots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftd_eternal::OperationId;

    #[test]
    fn transfer_codec_round_trips() {
        let chains = vec![(10, 7, 0xDEAD_BEEF), (11, 9, 42)];
        let snapshots = vec![
            GroupSnapshot {
                group: 10,
                state: vec![1, 2, 3],
                responses: vec![(
                    OperationId {
                        source: GroupId(10),
                        target: GroupId(100),
                        client: 0x0100_0005,
                        parent_ts: 0,
                        child_seq: 1,
                    },
                    vec![9, 9],
                )],
            },
            GroupSnapshot {
                group: 11,
                state: Vec::new(),
                responses: Vec::new(),
            },
        ];
        let encoded = encode_transfer(&chains, &snapshots);
        let (c, s) = decode_transfer(&encoded).expect("decodes");
        assert_eq!(c, chains);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].group, 10);
        assert_eq!(s[0].state, vec![1, 2, 3]);
        assert_eq!(s[0].responses.len(), 1);
        assert_eq!(s[0].responses[0].1, vec![9, 9]);
        assert_eq!(s[1].group, 11);
        assert!(s[1].state.is_empty());
    }

    #[test]
    fn truncated_or_padded_transfers_are_rejected() {
        let chains = vec![(10, 1, 2)];
        let snapshots = vec![GroupSnapshot {
            group: 10,
            state: vec![5; 32],
            responses: Vec::new(),
        }];
        let encoded = encode_transfer(&chains, &snapshots);
        for cut in 0..encoded.len() {
            assert!(decode_transfer(&encoded[..cut]).is_none(), "cut at {cut}");
        }
        let mut padded = encoded.clone();
        padded.push(0);
        assert!(decode_transfer(&padded).is_none(), "trailing garbage");
    }
}
