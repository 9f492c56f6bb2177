//! Sharding the gateway hot path by server group.
//!
//! §3.2 assigns client identifiers from *per-server-group* counters, and
//! every other piece of hot-path engine state — the response cache keys,
//! the duplicate-suppression filter entries, the voting ballots — is
//! likewise keyed by the operation's target group. That makes the engine
//! naturally partitionable: a [`Shard`] owns the complete §3 state
//! machine for the server groups routed to it, and shards never share a
//! group, so they never share mutable state.
//!
//! The piece that *is* shared — the group→shard routing table — is read
//! on every frame by every shard thread, so [`ShardRouter`] is
//! lock-free: a fixed open-addressed table of `AtomicU64` slots, each
//! packing `(group, shard + 1)`. Readers probe with `Acquire` loads;
//! pinning CASes a slot in place. Groups that were never pinned fall back
//! to a deterministic hash of the group id, so the table only needs
//! entries for deliberate placements.
//!
//! [`Shard`] is the shard's decision half, sans-IO: which shard a client
//! frame belongs to, the in-flight admission window and its FIFO
//! deferral queue, the per-connection inbound budget, the stall reset,
//! the linger before a peer's client-gone notice is applied, and the
//! rule that connection-lifecycle counters count once across the
//! fan-out. It never reads a clock, a socket or a channel: time comes in
//! as `now_us`, and what it wants done goes out as [`ShardOutput`]s into
//! a [`ShardSink`] the caller owns. `ftd-net` runs one per shard thread
//! around its sockets and queues, applying each output as it arrives;
//! tests run several in one thread over a `Vec`, handing each
//! [`ShardOutput::Forward`] to its destination as the server's channels
//! do.

use crate::engine::{Action, DomainView, GatewayEngine, GwConn};
use crate::error::ShardError;
use crate::gwmsg::GwMsg;
use ftd_eternal::{DomainMsg, IiopView, OperationId, OperationKind};
use ftd_giop::{ByteOrder, Frame, GiopError, GiopMessage, MsgType, ObjectKey};
use ftd_obs::names;
use ftd_totem::GroupId;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Default slot capacity of a [`ShardRouter`]. Plenty for any realistic
/// number of deliberately placed groups; unpinned groups cost no slot.
pub const DEFAULT_ROUTER_SLOTS: usize = 1024;

/// The deterministic fallback placement for groups without a pinned
/// route: a splitmix-style hash of the group id, reduced to `shards`.
/// Stable across processes and restarts, so redundant gateways of one
/// domain agree on placement without coordination.
pub fn shard_of(group: GroupId, shards: usize) -> usize {
    debug_assert!(shards > 0);
    if shards <= 1 {
        return 0;
    }
    let mut x = (group.0 as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

/// The lock-free group→shard routing table. See the module docs.
///
/// Shared between the shard threads (and the domain thread) behind one
/// gateway; all operations are atomic loads and CASes — no locks, no
/// allocation after construction.
#[derive(Debug)]
pub struct ShardRouter {
    shards: usize,
    /// Each slot packs `group` in the high 32 bits and `shard + 1` in the
    /// low 32; `0` in the low half means the slot is empty.
    slots: Box<[AtomicU64]>,
}

impl ShardRouter {
    /// A router over `shards` shards with [`DEFAULT_ROUTER_SLOTS`] pin
    /// capacity.
    pub fn new(shards: usize) -> Result<Self, ShardError> {
        Self::with_capacity(shards, DEFAULT_ROUTER_SLOTS)
    }

    /// A router with an explicit pin capacity (rounded up to 1 slot).
    pub fn with_capacity(shards: usize, capacity: usize) -> Result<Self, ShardError> {
        if shards == 0 {
            return Err(ShardError::ZeroShards);
        }
        let capacity = capacity.max(1);
        let slots = (0..capacity).map(|_| AtomicU64::new(0)).collect();
        Ok(ShardRouter { shards, slots })
    }

    /// How many shards this router fans across.
    pub fn shards(&self) -> usize {
        self.shards
    }

    fn encode(group: GroupId, shard: usize) -> u64 {
        ((group.0 as u64) << 32) | (shard as u64 + 1)
    }

    /// The shard serving `group`: the pinned placement if one exists,
    /// else the deterministic [`shard_of`] hash. Lock-free; safe from any
    /// thread.
    pub fn route(&self, group: GroupId) -> usize {
        if self.shards == 1 {
            return 0;
        }
        let cap = self.slots.len();
        let start = shard_of(group, cap.max(1));
        for i in 0..cap {
            let slot = self.slots[(start + i) % cap].load(Ordering::Acquire);
            if slot & 0xFFFF_FFFF == 0 {
                break; // never pinned past an empty slot
            }
            if (slot >> 32) as u32 == group.0 {
                return ((slot & 0xFFFF_FFFF) - 1) as usize;
            }
        }
        shard_of(group, self.shards)
    }

    /// Pins `group` to `shard`, overriding the hash placement. Re-pinning
    /// an already-pinned group atomically replaces its route. Lock-free.
    ///
    /// # Errors
    ///
    /// [`ShardError::ShardOutOfRange`] for a shard index past the fan-out,
    /// [`ShardError::TableFull`] when every slot is taken by other groups.
    pub fn pin(&self, group: GroupId, shard: usize) -> Result<(), ShardError> {
        if shard >= self.shards {
            return Err(ShardError::ShardOutOfRange {
                shard,
                shards: self.shards,
            });
        }
        let val = Self::encode(group, shard);
        let cap = self.slots.len();
        let start = shard_of(group, cap.max(1));
        for i in 0..cap {
            let slot = &self.slots[(start + i) % cap];
            loop {
                let current = slot.load(Ordering::Acquire);
                let empty = current & 0xFFFF_FFFF == 0;
                let ours = (current >> 32) as u32 == group.0;
                if !empty && !ours {
                    break; // another group's slot — keep probing
                }
                match slot.compare_exchange(current, val, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => return Ok(()),
                    Err(_) => continue, // raced; re-examine this slot
                }
            }
        }
        Err(ShardError::TableFull {
            capacity: self.slots.len(),
        })
    }

    /// Every pinned `(group, shard)` pair, in probe order — diagnostics
    /// and snapshot food, not a hot path.
    pub fn pins(&self) -> Vec<(GroupId, usize)> {
        self.slots
            .iter()
            .filter_map(|slot| {
                let v = slot.load(Ordering::Acquire);
                (v & 0xFFFF_FFFF != 0)
                    .then(|| (GroupId((v >> 32) as u32), ((v & 0xFFFF_FFFF) - 1) as usize))
            })
            .collect()
    }
}

/// Where one client-side GIOP message must be processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgRoute {
    /// State for this server group lives on one shard — route there.
    Group(GroupId),
    /// Stateless (or any-shard) handling: one shard, by convention 0.
    Any,
    /// Connection-scoped state exists on every shard — fan out.
    All,
}

/// Classifies a client frame for shard dispatch ([`Shard::on_frame`]).
/// Requests (including foreign-domain bridge requests) route by the
/// object key's group, read in place; connection-lifecycle messages fan
/// to every shard (each shard tracks the connections it serves);
/// everything else is stateless.
///
/// # Errors
///
/// Returns the [`GiopError`] of a Request or LocateRequest whose body
/// does not decode — a protocol error on that connection.
pub fn classify_client_frame(frame: &Frame<'_>) -> Result<MsgRoute, GiopError> {
    let by_key = |key: &[u8]| match ObjectKey::parse(key) {
        Ok(key) => MsgRoute::Group(GroupId(key.group)),
        Err(_) => MsgRoute::Any, // draws a bad-key exception reply
    };
    Ok(match frame.msg_type() {
        MsgType::Request => match frame.request()? {
            Some(req) => by_key(req.object_key),
            None => MsgRoute::Any,
        },
        MsgType::LocateRequest => match frame.to_message()? {
            GiopMessage::LocateRequest { object_key, .. } => by_key(&object_key),
            _ => MsgRoute::Any,
        },
        MsgType::CloseConnection | MsgType::MessageError => MsgRoute::All,
        MsgType::CancelRequest | MsgType::Reply | MsgType::LocateReply => MsgRoute::Any,
    })
}

/// Where one totally-ordered delivery from the domain must be processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryRoute {
    /// Exactly this shard.
    Shard(usize),
    /// Every shard (client-gone garbage collection).
    All,
}

/// Classifies a gateway-group delivery for shard dispatch: server
/// responses and §3.5 Records route by their server group; ClientGone
/// fans out (any shard may hold cached state for the departed client).
pub fn classify_delivery(router: &ShardRouter, payload: &[u8]) -> DeliveryRoute {
    if let Ok(gw) = GwMsg::decode(payload) {
        return match gw {
            GwMsg::Record { server, .. } => DeliveryRoute::Shard(router.route(server)),
            GwMsg::ClientGone { .. } => DeliveryRoute::All,
            // A relayed reply lives in the same shard that would serve
            // the reissue: the one routing `server`'s client requests.
            GwMsg::PeerReply { server, .. } => DeliveryRoute::Shard(router.route(server)),
        };
    }
    // The FT header alone decides; it is read in place, body untouched.
    if let Ok(Some(IiopView { header, .. })) = DomainMsg::peek_iiop(payload) {
        if header.kind == OperationKind::Response {
            // For a response the FT header's source is the server group
            // that executed the invocation — the shard that forwarded it.
            return DeliveryRoute::Shard(router.route(header.source));
        }
    }
    // Unknown / non-response domain traffic: the engine ignores it, one
    // shard's worth of ignoring is enough.
    DeliveryRoute::Shard(0)
}

/// Most bytes a single connection may have queued inside the gateway:
/// frames waiting at its owning shard's admission gate plus frames
/// forwarded to other shards and not yet processed. A client that
/// outruns the gateway by more than this is disconnected
/// (`net.queue_overflows`) instead of growing a queue without bound.
pub const CONN_INBOUND_BUDGET: usize = 1 << 20;

/// If a shard's admission window stays occupied this long (microseconds
/// of the host's clock) with no reply progress (replies lost to chaos,
/// oneway traffic), the window resets rather than wedging the shard.
const STALL_RESET_US: u64 = 500_000;

/// Counters that describe a *connection* rather than a group, and so
/// must be counted once per event even though connection lifecycle is
/// fanned out to every shard: only shard 0 passes them on.
const FANOUT_ONCE_COUNTERS: &[&str] = &[
    "gateway.clients_accepted",
    "gateway.client_disconnects",
    "gateway.clients_gced",
];

/// The domain view as a value: gateway peer count, per-group voting
/// flags and live-replica counts. Hosts snapshot their live view into
/// one of these and hand it to every [`Shard`] call; the replay log
/// stores it inline with each engine event, so a replayed engine
/// consults exactly the facts the recorded one did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordedView {
    /// Live gateways of this domain's gateway group (including ours).
    pub peers: u32,
    /// `(group, votes)` — groups replicated active-with-voting.
    pub votes: Vec<(u32, bool)>,
    /// `(group, live replicas)` — the electorate size per group.
    pub replicas: Vec<(u32, u32)>,
}

impl DomainView for RecordedView {
    fn live_gateway_peers(&self) -> usize {
        self.peers as usize
    }

    fn votes(&self, group: GroupId) -> bool {
        self.votes
            .iter()
            .find(|(g, _)| *g == group.0)
            .map(|&(_, v)| v)
            .unwrap_or(false)
    }

    fn live_replicas(&self, group: GroupId) -> usize {
        self.replicas
            .iter()
            .find(|(g, _)| *g == group.0)
            .map(|&(_, n)| n as usize)
            .unwrap_or(0)
    }
}

/// One call a [`Shard`] made into its engine, as its [`EngineTap`] sees
/// it.
#[derive(Debug, Clone, Copy)]
pub enum EngineCall<'a> {
    /// [`GatewayEngine::on_client_accepted`].
    Accepted(GwConn),
    /// [`GatewayEngine::on_client_frame`] on the complete wire frame.
    Frame {
        /// The client connection.
        conn: GwConn,
        /// The frame's bytes, as the client sent them.
        wire: &'a [u8],
        /// The view the engine consulted.
        view: &'a RecordedView,
    },
    /// [`GatewayEngine::on_client_closed`].
    Closed(GwConn),
    /// [`GatewayEngine::on_delivery_from_domain`].
    Delivery {
        /// The delivery's group.
        group: GroupId,
        /// The delivered payload.
        payload: &'a [u8],
        /// The view the engine consulted.
        view: &'a RecordedView,
    },
    /// [`GatewayEngine::seed_counter`] (recovery seeding).
    SeedCounter {
        /// The server group.
        server: u32,
        /// The seeded value.
        value: u32,
    },
    /// [`GatewayEngine::restore_cached_response`] (recovery seeding).
    RestoreResponse {
        /// The answered operation.
        op: OperationId,
        /// Its reply bytes.
        reply: &'a [u8],
    },
}

/// The recording seam around a [`Shard`]'s engine: told about every
/// engine call the shard makes, in order, together with the actions the
/// call returned. `ftd-replay`'s `ShardTap` implements it.
pub trait EngineTap: Send + std::fmt::Debug {
    /// `call` just ran and returned `actions` (none for the seeding
    /// calls).
    fn record(&mut self, call: EngineCall<'_>, actions: &[Action]);
    /// The shard is stopping; `engine` is its final state.
    fn finish(&mut self, engine: &GatewayEngine);
}

/// What a [`Shard`] asks its host to do, in the order it must be done.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardOutput {
    /// Apply an engine action — a write, a close, a multicast, a store
    /// append, a count. Closes the shard decides on (a protocol error, a
    /// blown inbound budget) arrive as [`Action::CloseClient`] too.
    Action(Action),
    /// Hand a copy of a client frame to shard `shard`'s
    /// [`Shard::on_forwarded`]. Its length is already charged to the
    /// connection's inbound budget.
    Forward {
        /// The destination shard.
        shard: usize,
        /// The client connection the frame was read from.
        conn: GwConn,
        /// The complete wire frame.
        wire: Box<[u8]>,
    },
}

/// Where a [`Shard`] writes its [`ShardOutput`]s, in order. A
/// `Vec<ShardOutput>` collects them; a host that applies each output as
/// it arrives implements this itself, so a multicast leaves for the
/// domain before the rest of a batch pass runs.
pub trait ShardSink {
    /// Takes the next output.
    fn push(&mut self, output: ShardOutput);
}

impl ShardSink for Vec<ShardOutput> {
    fn push(&mut self, output: ShardOutput) {
        Vec::push(self, output);
    }
}

/// What one [`Shard::on_tick`] did with the requests that waited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Requests that arrived during the tick and were admitted by the
    /// end-of-tick batch pass (`gateway.shard.tick_admits`).
    pub admitted: u64,
    /// Requests that missed the whole tick and now wait in the deferral
    /// FIFO (`gateway.shard.deferrals`).
    pub deferred: u64,
}

/// A client frame waiting for admission: the connection and the
/// complete wire frame, whose length is the budget to release.
type Queued = (GwConn, Box<[u8]>);

/// One shard of a gateway: its [`GatewayEngine`] plus every admission
/// and routing decision around it. See the module docs.
///
/// Admission is an in-flight window. A Request is admitted at once while
/// the window has room and nothing waits ahead of it; otherwise it
/// queues FIFO for the end-of-tick batch pass ([`Shard::on_tick`]), and
/// only what that pass cannot admit becomes a deferral. Forwarded and
/// bridged requests take a slot; the first reply to each frees it.
#[derive(Debug)]
pub struct Shard {
    index: usize,
    engine: GatewayEngine,
    router: Arc<ShardRouter>,
    tap: Option<Box<dyn EngineTap>>,
    /// Inbound budgets of the connections this shard knows.
    budgets: BTreeMap<GwConn, Arc<AtomicUsize>>,
    /// Requests that found the gate closed during this tick.
    arrivals: VecDeque<Queued>,
    /// Requests deferred past a full tick, FIFO.
    deferred: VecDeque<Queued>,
    window: usize,
    inflight: usize,
    /// Reply progress (or a window that just opened) since the last
    /// tick; [`Shard::on_tick`] turns it into `last_progress_us`.
    progressed: bool,
    last_progress_us: u64,
    /// How long a peer's client-gone notice lingers before the GC runs.
    linger_us: u64,
    /// Lingering peer client-gone payloads, `(deadline_us, GwMsg)`, FIFO
    /// (notices arrive in time order, so deadlines are monotone).
    gone: VecDeque<(u64, Vec<u8>)>,
}

impl Shard {
    /// Shard `index` of `router.shards()`, owning `engine`, admitting at
    /// most `window` requests at once (clamped to at least 1), holding a
    /// peer's client-gone notice for `linger_us`, and reporting every
    /// engine call to `tap` when recording.
    pub fn new(
        index: usize,
        engine: GatewayEngine,
        router: Arc<ShardRouter>,
        window: usize,
        linger_us: u64,
        tap: Option<Box<dyn EngineTap>>,
    ) -> Self {
        Shard {
            index,
            engine,
            router,
            tap,
            budgets: BTreeMap::new(),
            arrivals: VecDeque::new(),
            deferred: VecDeque::new(),
            window: window.max(1),
            inflight: 0,
            progressed: false,
            last_progress_us: 0,
            linger_us,
            gone: VecDeque::new(),
        }
    }

    /// The shard's engine (gauges, response digests).
    pub fn engine(&self) -> &GatewayEngine {
        &self.engine
    }

    /// Requests admitted into the domain and not yet answered.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// A connection was accepted (every shard hears of it). `budget` is
    /// its inbound budget, shared by every shard that queues its frames.
    pub fn on_accepted(&mut self, conn: GwConn, budget: Arc<AtomicUsize>, out: &mut dyn ShardSink) {
        self.budgets.insert(conn, budget);
        let actions = self.engine.on_client_accepted(conn);
        self.tap(EngineCall::Accepted(conn), &actions);
        self.absorb(actions, out);
    }

    /// One complete wire frame read off `conn` by the shard that owns
    /// its socket: classified in place, forwarded to whichever other
    /// shard owns its state, and run through the engine here — at once
    /// when the admission gate is open, from the admission queue
    /// otherwise. Returns `false` when the connection must close (a
    /// protocol violation or a blown budget; the close is in `out`).
    pub fn on_frame(
        &mut self,
        conn: GwConn,
        wire: &[u8],
        view: &RecordedView,
        out: &mut dyn ShardSink,
    ) -> bool {
        let Ok(frame) = Frame::parse(wire) else {
            return self.on_protocol_error(conn, out);
        };
        let dest = match classify_client_frame(&frame) {
            Ok(MsgRoute::Group(group)) => self.router.route(group),
            Ok(MsgRoute::Any) => 0,
            Ok(MsgRoute::All) => {
                for dest in 0..self.router.shards() {
                    if dest != self.index && !self.forward(conn, dest, wire, out) {
                        return false;
                    }
                }
                self.index
            }
            Err(_) => return self.on_protocol_error(conn, out),
        };
        if dest != self.index {
            return self.forward(conn, dest, wire, out);
        }
        if frame.msg_type() == MsgType::Request && self.must_queue() {
            // The borrowed bytes cannot outlive this read, so the queue
            // takes the one copy.
            if !self.charge(conn, wire.len(), out) {
                return false;
            }
            self.arrivals.push_back((conn, wire.into()));
            return true;
        }
        self.process(conn, frame, view, out);
        true
    }

    /// The host's framer tripped on `conn`'s byte stream: answer
    /// MessageError and close the connection (§3.3). Returns `false`,
    /// like [`Shard::on_frame`] for a frame that does not decode.
    pub fn on_protocol_error(&mut self, conn: GwConn, out: &mut dyn ShardSink) -> bool {
        for action in [
            Action::Count {
                counter: "gateway.protocol_errors",
            },
            Action::ToClient {
                conn,
                bytes: GiopMessage::MessageError.encode(ByteOrder::Big),
            },
            Action::CloseClient { conn },
        ] {
            out.push(ShardOutput::Action(action));
        }
        false
    }

    /// A frame another shard read and forwarded here
    /// ([`ShardOutput::Forward`]): a Request meets the admission gate,
    /// anything else runs at once.
    pub fn on_forwarded(
        &mut self,
        conn: GwConn,
        wire: Box<[u8]>,
        view: &RecordedView,
        out: &mut dyn ShardSink,
    ) {
        let is_request = Frame::parse(&wire).is_ok_and(|f| f.msg_type() == MsgType::Request);
        if is_request && self.must_queue() {
            self.arrivals.push_back((conn, wire));
        } else {
            self.admit_queued(conn, &wire, view, out);
        }
    }

    /// A connection closed (every shard hears of it): its queued frames
    /// are dropped and the engine forgets it.
    pub fn on_closed(&mut self, conn: GwConn, out: &mut dyn ShardSink) {
        self.deferred.retain(|&(c, _)| c != conn);
        self.arrivals.retain(|&(c, _)| c != conn);
        let actions = self.engine.on_client_closed(conn);
        self.tap(EngineCall::Closed(conn), &actions);
        self.absorb(actions, out);
        self.budgets.remove(&conn);
    }

    /// One ordered delivery routed to this shard — from the domain, from
    /// a peer gateway, or a lingered client-gone notice.
    pub fn on_delivery(
        &mut self,
        group: GroupId,
        payload: &[u8],
        view: &RecordedView,
        out: &mut dyn ShardSink,
    ) {
        let actions = self.engine.on_delivery_from_domain(group, payload, view);
        self.tap(
            EngineCall::Delivery {
                group,
                payload,
                view,
            },
            &actions,
        );
        self.absorb(actions, out);
    }

    /// A peer gateway lost one of its clients (an encoded
    /// [`GwMsg::ClientGone`]). The client may be failing over to this
    /// gateway, so its state is collected only once `now_us` has passed
    /// the linger — by [`Shard::on_tick`].
    pub fn on_peer_gone(&mut self, payload: Vec<u8>, now_us: u64) {
        self.gone
            .push_back((now_us.saturating_add(self.linger_us), payload));
    }

    /// The end of one host tick at `now_us`. The batch pass admits every
    /// request the window now has room for — deferrals first, then this
    /// tick's arrivals; what still waits becomes a deferral. With
    /// `draining` (shutdown) everything queued is admitted regardless of
    /// the window. Then expired client-gone notices are applied, and a
    /// window that saw no reply progress for [`STALL_RESET_US`] resets.
    pub fn on_tick(
        &mut self,
        now_us: u64,
        view: &RecordedView,
        draining: bool,
        out: &mut dyn ShardSink,
    ) -> TickReport {
        let mut report = TickReport::default();
        while draining || self.inflight < self.window {
            let (conn, wire) = match self.deferred.pop_front() {
                Some(queued) => queued,
                None => match self.arrivals.pop_front() {
                    Some(queued) => {
                        report.admitted += 1;
                        queued
                    }
                    None => break,
                },
            };
            self.admit_queued(conn, &wire, view, out);
        }
        report.deferred = self.arrivals.len() as u64;
        self.deferred.extend(self.arrivals.drain(..));

        while self.gone.front().is_some_and(|&(due, _)| due <= now_us) {
            let (_, payload) = self.gone.pop_front().expect("non-empty gone queue");
            self.on_delivery(self.engine.group(), &payload, view, out);
        }

        if std::mem::take(&mut self.progressed) {
            self.last_progress_us = now_us;
        } else if self.inflight > 0
            && now_us.saturating_sub(self.last_progress_us) >= STALL_RESET_US
        {
            self.inflight = 0;
            self.last_progress_us = now_us;
        }
        report
    }

    /// Seeds a §3.2 counter (recovery), recorded when tapped.
    pub fn seed_counter(&mut self, server: u32, value: u32) {
        self.engine.seed_counter(server, value);
        self.tap(EngineCall::SeedCounter { server, value }, &[]);
    }

    /// Installs a recovered §3.5 reply, recorded when tapped.
    pub fn restore_response(&mut self, op: OperationId, reply: Vec<u8>) {
        self.tap(EngineCall::RestoreResponse { op, reply: &reply }, &[]);
        self.engine.restore_cached_response(op, reply);
    }

    /// Primes the engine from a gateway-group state transfer: reply
    /// digests (so cross-checks at covered sequences skip instead of
    /// misfiring), recovered §3.2 counters, and transferred replies —
    /// already answered, so a replica re-answering one is never
    /// fingerprinted again, and cached for §3.5 reissues.
    pub fn seed_transfer(
        &mut self,
        chains: Vec<(u32, u64, u64)>,
        counters: Vec<(u32, u32)>,
        responses: Vec<(OperationId, Vec<u8>)>,
    ) {
        for (group, seq, digest) in chains {
            self.engine.seed_chain(group, seq, digest);
        }
        for (server, value) in counters {
            self.seed_counter(server, value);
        }
        for (op, reply) in responses {
            self.engine.note_domain_response(op);
            self.restore_response(op, reply);
        }
    }

    /// Stops the shard: closes its recording and hands back the engine
    /// (for the shutdown drain of its caches and counters).
    pub fn into_engine(mut self) -> GatewayEngine {
        if let Some(tap) = self.tap.as_mut() {
            tap.finish(&self.engine);
        }
        self.engine
    }

    /// Whether a Request must wait its turn: the window is full, or
    /// earlier requests are already waiting (FIFO fairness).
    fn must_queue(&self) -> bool {
        !(self.deferred.is_empty() && self.arrivals.is_empty() && self.inflight < self.window)
    }

    /// Charges `cost` queued bytes to `conn`'s inbound budget. A client
    /// outrunning the gateway past [`CONN_INBOUND_BUDGET`] is closed
    /// (`false`), protecting every other client from its backlog.
    fn charge(&mut self, conn: GwConn, cost: usize, out: &mut dyn ShardSink) -> bool {
        let Some(budget) = self.budgets.get(&conn) else {
            return true;
        };
        if budget.fetch_add(cost, Ordering::SeqCst) + cost <= CONN_INBOUND_BUDGET {
            return true;
        }
        out.push(ShardOutput::Action(Action::Count {
            counter: names::NET_QUEUE_OVERFLOWS,
        }));
        out.push(ShardOutput::Action(Action::CloseClient { conn }));
        false
    }

    /// Forwards a copy of one wire frame to another shard, charged to
    /// the connection's inbound budget.
    fn forward(
        &mut self,
        conn: GwConn,
        shard: usize,
        wire: &[u8],
        out: &mut dyn ShardSink,
    ) -> bool {
        if !self.charge(conn, wire.len(), out) {
            return false;
        }
        out.push(ShardOutput::Forward {
            shard,
            conn,
            wire: wire.into(),
        });
        true
    }

    /// Runs a queued frame: releases its budget and processes it.
    fn admit_queued(
        &mut self,
        conn: GwConn,
        wire: &[u8],
        view: &RecordedView,
        out: &mut dyn ShardSink,
    ) {
        if let Some(budget) = self.budgets.get(&conn) {
            budget.fetch_sub(wire.len(), Ordering::SeqCst);
        }
        // Validated by the shard that read it before it was queued.
        if let Ok(frame) = Frame::parse(wire) {
            self.process(conn, frame, view, out);
        }
    }

    fn process(
        &mut self,
        conn: GwConn,
        frame: Frame<'_>,
        view: &RecordedView,
        out: &mut dyn ShardSink,
    ) {
        if !self.budgets.contains_key(&conn) {
            // The connection closed while this frame sat queued; never
            // resurrect it through the engine's auto-registration.
            return;
        }
        let wire = frame.wire();
        let actions = self.engine.on_client_frame(conn, frame, view);
        self.tap(EngineCall::Frame { conn, wire, view }, &actions);
        self.absorb(actions, out);
    }

    fn tap(&mut self, call: EngineCall<'_>, actions: &[Action]) {
        if let Some(tap) = self.tap.as_mut() {
            tap.record(call, actions);
        }
    }

    /// Moves the engine's actions into `out`, keeping the window's
    /// books from its counters: a forwarded or bridged request takes a
    /// slot, and one slot is freed per *operation*, on its first reply —
    /// the suppressed duplicates from the other replicas only count as
    /// progress. Connection-lifecycle counters count on shard 0 alone.
    fn absorb(&mut self, actions: Vec<Action>, out: &mut dyn ShardSink) {
        for action in actions {
            if let Action::Count { counter } = action {
                match counter {
                    "gateway.requests_forwarded" | "gateway.bridge_requests" => {
                        self.progressed |= self.inflight == 0;
                        self.inflight += 1;
                    }
                    "gateway.replies_delivered" | "gateway.bridge_replies" => {
                        self.inflight = self.inflight.saturating_sub(1);
                        self.progressed = true;
                    }
                    "gateway.duplicate_responses_suppressed" => self.progressed = true,
                    _ if self.index != 0 && FANOUT_ONCE_COUNTERS.contains(&counter) => continue,
                    _ => {}
                }
            }
            out.push(ShardOutput::Action(action));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use ftd_giop::Request;

    #[test]
    fn zero_shards_is_an_error_and_one_shard_routes_everything_to_zero() {
        assert!(matches!(ShardRouter::new(0), Err(ShardError::ZeroShards)));
        let r = ShardRouter::new(1).unwrap();
        for g in 0..100 {
            assert_eq!(r.route(GroupId(g)), 0);
        }
    }

    #[test]
    fn hash_placement_is_deterministic_and_covers_all_shards() {
        let r = ShardRouter::new(4).unwrap();
        let mut seen = [false; 4];
        for g in 0..256 {
            let s = r.route(GroupId(g));
            assert_eq!(s, r.route(GroupId(g)), "stable per group");
            assert_eq!(s, shard_of(GroupId(g), 4), "unpinned = hash placement");
            seen[s] = true;
        }
        assert!(seen.iter().all(|&b| b), "256 groups hit all 4 shards");
    }

    #[test]
    fn pins_override_the_hash_and_can_be_replaced() {
        let r = ShardRouter::new(4).unwrap();
        let g = GroupId(77);
        let hashed = r.route(g);
        let pinned = (hashed + 1) % 4;
        r.pin(g, pinned).unwrap();
        assert_eq!(r.route(g), pinned);
        r.pin(g, hashed).unwrap();
        assert_eq!(r.route(g), hashed, "re-pin replaces the route");
        assert_eq!(r.pins(), vec![(g, hashed)]);
        assert!(matches!(
            r.pin(g, 9),
            Err(ShardError::ShardOutOfRange {
                shard: 9,
                shards: 4
            })
        ));
    }

    #[test]
    fn full_table_reports_table_full_but_keeps_routing() {
        let r = ShardRouter::with_capacity(2, 4).unwrap();
        for g in 0..4 {
            r.pin(GroupId(g), (g % 2) as usize).unwrap();
        }
        assert!(matches!(
            r.pin(GroupId(99), 0),
            Err(ShardError::TableFull { capacity: 4 })
        ));
        // Unpinned groups still route via the hash.
        let _ = r.route(GroupId(99));
    }

    fn request_for(group: u32, id: u32) -> Vec<u8> {
        GiopMessage::Request(Request {
            request_id: id,
            response_expected: true,
            object_key: ObjectKey::new(0, group).to_bytes(),
            operation: "get".into(),
            ..Request::default()
        })
        .encode(ByteOrder::Big)
    }

    fn route_of(wire: &[u8]) -> MsgRoute {
        classify_client_frame(&Frame::parse(wire).unwrap()).unwrap()
    }

    #[test]
    fn requests_route_by_group_and_close_fans_out() {
        assert_eq!(route_of(&request_for(7, 1)), MsgRoute::Group(GroupId(7)));
        let control = |m: GiopMessage| route_of(&m.encode(ByteOrder::Little));
        assert_eq!(control(GiopMessage::CloseConnection), MsgRoute::All);
        assert_eq!(
            control(GiopMessage::CancelRequest { request_id: 1 }),
            MsgRoute::Any
        );
        assert_eq!(
            control(GiopMessage::LocateRequest {
                request_id: 1,
                object_key: ObjectKey::new(0, 9).to_bytes(),
            }),
            MsgRoute::Group(GroupId(9))
        );
    }

    const GW: GroupId = GroupId(100);

    fn fleet(shards: usize, window: usize) -> Vec<Shard> {
        let router = Arc::new(ShardRouter::new(shards).unwrap());
        (0..shards)
            .map(|i| {
                let engine = GatewayEngine::new(EngineConfig::new(0, GW, 0), BTreeMap::new());
                Shard::new(i, engine, router.clone(), window, 0, None)
            })
            .collect()
    }

    fn actions(out: Vec<ShardOutput>) -> Vec<Action> {
        out.into_iter()
            .filter_map(|o| match o {
                ShardOutput::Action(a) => Some(a),
                ShardOutput::Forward { .. } => None,
            })
            .collect()
    }

    fn count(actions: &[Action], name: &str) -> usize {
        actions
            .iter()
            .filter(|a| matches!(a, Action::Count { counter } if *counter == name))
            .count()
    }

    fn multicasts(actions: &[Action]) -> Vec<GroupId> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Multicast { group, .. } => Some(*group),
                _ => None,
            })
            .collect()
    }

    /// Fans an accept to every shard, as the accept thread does.
    fn accept(shards: &mut [Shard], conn: GwConn) -> Vec<Action> {
        let budget = Arc::new(AtomicUsize::new(0));
        let mut out = Vec::new();
        for shard in shards.iter_mut() {
            shard.on_accepted(conn, budget.clone(), &mut out);
        }
        actions(out)
    }

    /// Reads `wire` off `conn` on shard `owner` and hands every
    /// forwarded copy to its destination, as the server's channels do.
    fn feed(shards: &mut [Shard], owner: usize, conn: GwConn, wire: &[u8]) -> Vec<Action> {
        let view = RecordedView::default();
        let mut out = Vec::new();
        assert!(shards[owner].on_frame(conn, wire, &view, &mut out));
        let mut i = 0;
        while i < out.len() {
            if let ShardOutput::Forward { shard, conn, wire } = &out[i] {
                let (dest, conn, wire) = (*shard, *conn, wire.clone());
                shards[dest].on_forwarded(conn, wire, &view, &mut out);
            }
            i += 1;
        }
        actions(out)
    }

    fn response(group: u32, client: u32, id: u32) -> Vec<u8> {
        DomainMsg::Iiop {
            header: ftd_eternal::FtHeader {
                client,
                source: GroupId(group),
                target: GW,
                kind: OperationKind::Response,
                parent_ts: 0,
                child_seq: id,
            },
            iiop: GiopMessage::Reply(ftd_giop::Reply::success(id, vec![id as u8]))
                .encode(ByteOrder::Big),
        }
        .encode()
    }

    #[test]
    fn sharded_engine_keeps_group_state_on_one_shard_only() {
        let mut shards = fleet(4, 64);

        // One plain client per group, each read by a round-robin owner:
        // the group's shard must assign a key from its own §3.2 counter.
        let groups = [GroupId(3), GroupId(8), GroupId(21), GroupId(40)];
        for (i, &g) in groups.iter().enumerate() {
            let conn = GwConn(i as u64 + 1);
            accept(&mut shards, conn);
            let actions = feed(&mut shards, i % 4, conn, &request_for(g.0, (i + 1) as u32));
            assert_eq!(multicasts(&actions), [g], "request for {g:?} forwarded");
        }
        for &g in &groups {
            let owner = shards[0].router.route(g);
            for (i, shard) in shards.iter().enumerate() {
                let counter = shard.engine().counter_for(g);
                if i == owner {
                    assert_eq!(counter, 1, "owner shard assigned the client key");
                } else {
                    assert_eq!(counter, 0, "group state never leaks off its shard");
                }
            }
        }
    }

    #[test]
    fn accept_and_close_fanout_count_once() {
        let mut shards = fleet(4, 64);
        let accepted = accept(&mut shards, GwConn(9));
        assert_eq!(count(&accepted, "gateway.clients_accepted"), 1);
        let mut out = Vec::new();
        for shard in &mut shards {
            shard.on_closed(GwConn(9), &mut out);
        }
        assert_eq!(count(&actions(out), "gateway.client_disconnects"), 1);
    }

    /// Pipelines far more than [`CONN_INBOUND_BUDGET`] of requests at a
    /// closed gate, ticking now and then; the frames queue on the
    /// owning shard with one shard, on the group's shard across the
    /// forward with two. The connection must be closed at the budget,
    /// and nothing queued may exceed it.
    fn flood_is_disconnected_at_the_inbound_budget(shard_count: usize) {
        let mut shards = fleet(shard_count, 1);
        let target = shard_count - 1;
        shards[0].router.pin(GroupId(10), target).unwrap();
        let conn = GwConn(1);
        accept(&mut shards, conn);
        let view = RecordedView::default();

        let frame_len = request_for(10, 0).len();
        let mut closed = None;
        for id in 0..(2 * CONN_INBOUND_BUDGET / frame_len) as u32 {
            let mut out = Vec::new();
            if !shards[0].on_frame(conn, &request_for(10, id), &view, &mut out) {
                closed = Some((id, out));
                break;
            }
            for o in out {
                if let ShardOutput::Forward { shard, conn, wire } = o {
                    shards[shard].on_forwarded(conn, wire, &view, &mut Vec::new());
                }
            }
            if id % 64 == 0 {
                shards[target].on_tick(id as u64, &view, false, &mut Vec::new());
            }
        }
        let (id, out) = closed.expect("a flooding client is disconnected");
        let out = actions(out);
        assert_eq!(count(&out, names::NET_QUEUE_OVERFLOWS), 1);
        assert_eq!(out.last(), Some(&Action::CloseClient { conn }));
        let queued: usize = shards[target]
            .deferred
            .iter()
            .chain(&shards[target].arrivals)
            .map(|(_, wire)| wire.len())
            .sum();
        assert!(queued <= CONN_INBOUND_BUDGET, "{queued} bytes queued");
        let id = id as usize;
        assert!(
            (id - 1) * frame_len <= CONN_INBOUND_BUDGET && id * frame_len > CONN_INBOUND_BUDGET
        );
    }

    #[test]
    fn a_flood_at_the_owning_shard_is_disconnected_at_the_inbound_budget() {
        flood_is_disconnected_at_the_inbound_budget(1);
    }

    #[test]
    fn a_flood_across_the_shard_queue_is_disconnected_at_the_inbound_budget() {
        flood_is_disconnected_at_the_inbound_budget(2);
    }

    /// One shard with a window of one and a client on `GwConn(1)`; the
    /// first request (id 1) is admitted and holds the window.
    fn one_slot_busy() -> (Shard, RecordedView) {
        let mut shards = fleet(1, 1);
        accept(&mut shards, GwConn(1));
        let mut shard = shards.pop().unwrap();
        let view = RecordedView::default();
        let mut out = Vec::new();
        assert!(shard.on_frame(GwConn(1), &request_for(10, 1), &view, &mut out));
        assert_eq!(multicasts(&actions(out)), [GroupId(10)]);
        (shard, view)
    }

    /// Feeds request `id` on `GwConn(1)`; returns the groups it
    /// multicast (empty when it had to queue).
    fn send(shard: &mut Shard, view: &RecordedView, id: u32) -> Vec<GroupId> {
        let mut out = Vec::new();
        assert!(shard.on_frame(GwConn(1), &request_for(10, id), view, &mut out));
        multicasts(&actions(out))
    }

    fn answer(shard: &mut Shard, view: &RecordedView, id: u32) {
        shard.on_delivery(GW, &response(10, 1, id), view, &mut Vec::new());
    }

    fn tick(shard: &mut Shard, view: &RecordedView, now_us: u64, draining: bool) -> Vec<Action> {
        let mut out = Vec::new();
        shard.on_tick(now_us, view, draining, &mut out);
        actions(out)
    }

    #[test]
    fn a_request_behind_a_waiting_one_queues_even_when_the_window_opens() {
        let (mut shard, view) = one_slot_busy();
        assert!(send(&mut shard, &view, 2).is_empty(), "window full");
        answer(&mut shard, &view, 1);
        assert_eq!(shard.inflight(), 0);
        assert!(send(&mut shard, &view, 3).is_empty(), "queued behind 2");
        let mut out = Vec::new();
        let report = shard.on_tick(0, &view, false, &mut out);
        assert_eq!(
            report,
            TickReport {
                admitted: 1,
                deferred: 1
            }
        );
        let admitted: Vec<_> = actions(out)
            .into_iter()
            .filter_map(|a| match a {
                Action::Multicast { payload, .. } => match DomainMsg::decode(&payload) {
                    Ok(DomainMsg::Iiop { header, .. }) => Some(header.child_seq),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        assert_eq!(admitted, [2], "the older request takes the slot");
    }

    #[test]
    fn a_request_is_a_deferral_only_after_missing_a_whole_tick() {
        let (mut shard, view) = one_slot_busy();
        assert!(send(&mut shard, &view, 2).is_empty());
        answer(&mut shard, &view, 1);
        let mut out = Vec::new();
        let report = shard.on_tick(0, &view, false, &mut out);
        assert_eq!(
            report,
            TickReport {
                admitted: 1,
                deferred: 0
            }
        );
        assert!(send(&mut shard, &view, 3).is_empty());
        let report = shard.on_tick(1, &view, false, &mut out);
        assert_eq!(
            report,
            TickReport {
                admitted: 0,
                deferred: 1
            }
        );
        let report = shard.on_tick(2, &view, false, &mut out);
        assert_eq!(report, TickReport::default(), "counted once");
    }

    #[test]
    fn a_stalled_window_resets_after_stall_reset_us() {
        let (mut shard, view) = one_slot_busy();
        tick(&mut shard, &view, 1_000, false);
        assert!(send(&mut shard, &view, 2).is_empty());
        tick(&mut shard, &view, 1_000 + STALL_RESET_US - 1, false);
        assert_eq!(shard.inflight(), 1, "not yet");
        let at_reset = tick(&mut shard, &view, 1_000 + STALL_RESET_US, false);
        assert!(multicasts(&at_reset).is_empty());
        assert_eq!(shard.inflight(), 0, "reset");
        let after = tick(&mut shard, &view, 1_001 + STALL_RESET_US, false);
        assert_eq!(multicasts(&after), [GroupId(10)], "the deferral admitted");
    }

    #[test]
    fn the_shutdown_drain_admits_everything_queued() {
        let (mut shard, view) = one_slot_busy();
        for id in 2..=4 {
            assert!(send(&mut shard, &view, id).is_empty());
        }
        tick(&mut shard, &view, 0, false);
        let drained = tick(&mut shard, &view, 1, true);
        assert_eq!(multicasts(&drained).len(), 3);
        assert_eq!(shard.inflight(), 4);
    }

    /// Pipelined requests, a LocateRequest, a reissue served from the
    /// §3.5 cache and a close with a request still in flight: exactly
    /// one latency observation per admitted operation, each measured
    /// from its own admission, and nothing of the connection left
    /// behind.
    #[test]
    fn one_latency_observation_per_admitted_operation() {
        let clock = Arc::new(ftd_obs::ManualClock::new());
        let mut shards = fleet(1, 64);
        shards[0].engine.set_clock(clock.clone());
        accept(&mut shards, GwConn(1));
        let mut shard = shards.pop().unwrap();
        let view = RecordedView::default();
        let mut out = Vec::new();

        for id in 1..=3 {
            assert_eq!(send(&mut shard, &view, id), [GroupId(10)]);
            clock.advance(100);
        }
        let locate = GiopMessage::LocateRequest {
            request_id: 9,
            object_key: ObjectKey::new(0, 10).to_bytes(),
        }
        .encode(ByteOrder::Big);
        assert!(shard.on_frame(GwConn(1), &locate, &view, &mut out));
        for id in [2, 1, 2] {
            shard.on_delivery(GW, &response(10, 1, id), &view, &mut out);
        }
        assert!(send(&mut shard, &view, 1).is_empty(), "served from cache");
        shard.on_closed(GwConn(1), &mut out);
        clock.advance(50);
        shard.on_delivery(GW, &response(10, 1, 3), &view, &mut out);

        let latencies: Vec<u64> = actions(out)
            .into_iter()
            .filter_map(|a| match a {
                Action::Latency { micros, .. } => Some(micros),
                _ => None,
            })
            .collect();
        assert_eq!(latencies, [200, 300, 150]);
        assert!(shard.budgets.is_empty());
        assert!(shard.arrivals.is_empty() && shard.deferred.is_empty());
    }
}
