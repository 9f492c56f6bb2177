//! Sharding the gateway hot path by server group.
//!
//! §3.2 assigns client identifiers from *per-server-group* counters, and
//! every other piece of hot-path engine state — the response cache keys,
//! the duplicate-suppression filter entries, the voting ballots — is
//! likewise keyed by the operation's target group. That makes the engine
//! naturally partitionable: an [`EngineShard`] owns the complete §3 state
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
//! [`ShardedEngine`] is the single-threaded composition used by the
//! simulation host and by tests: it owns N engines and routes between
//! them exactly as the multi-threaded `ftd-net` server does across its
//! shard threads, so routing properties proven here hold there.

use crate::engine::{Action, DomainView, EngineConfig, GatewayEngine, GwConn};
use crate::error::{Error, ShardError};
use crate::gwmsg::GwMsg;
use ftd_eternal::{DomainMsg, OperationId, OperationKind};
use ftd_giop::{Frame, GiopError, GiopMessage, MsgType, ObjectKey};
use ftd_totem::GroupId;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Classifies a client frame for shard dispatch — the one classifier
/// the threaded `ftd-net` shards and [`ShardedEngine`] both call.
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
    if let Ok(DomainMsg::Iiop { header, .. }) = DomainMsg::decode(payload) {
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

/// Counters that describe a *connection* rather than a group, and so
/// must be counted once per event even though connection lifecycle is
/// fanned out to every shard. Hosts keep these only from shard 0.
pub const FANOUT_ONCE_COUNTERS: &[&str] = &[
    "gateway.clients_accepted",
    "gateway.client_disconnects",
    "gateway.clients_gced",
];

/// Drops the [`FANOUT_ONCE_COUNTERS`] from a non-zero shard's action
/// batch, so fanned-out lifecycle events count once across the fleet.
pub fn dedupe_fanout(shard: usize, actions: Vec<Action>) -> Vec<Action> {
    if shard == 0 {
        return actions;
    }
    actions
        .into_iter()
        .filter(
            |a| !matches!(a, Action::Count { counter } if FANOUT_ONCE_COUNTERS.contains(counter)),
        )
        .collect()
}

/// One shard of a sharded gateway: a complete [`GatewayEngine`] plus its
/// index in the fan-out. Shards partition server groups, so per-group
/// counters, response caches, and dedup tables never cross shards.
#[derive(Debug)]
pub struct EngineShard {
    /// This shard's index (0-based).
    pub index: usize,
    /// The full §3 state machine for this shard's groups.
    pub engine: GatewayEngine,
}

/// N engine shards behind one lock-free router, driven from a single
/// thread. This is the composition the simulated host and the tests use;
/// `ftd-net` runs the same routing across real threads. See module docs.
#[derive(Debug)]
pub struct ShardedEngine {
    router: ShardRouter,
    shards: Vec<EngineShard>,
}

impl ShardedEngine {
    /// `shards` engines, each a clone of `config` (the gateway index in
    /// the config namespaces client keys per *gateway*; shard disjointness
    /// comes from group partitioning, not the index).
    pub fn new(config: EngineConfig, shards: usize) -> Result<Self, Error> {
        let router = ShardRouter::new(shards)?;
        let shards = (0..shards)
            .map(|index| EngineShard {
                index,
                engine: GatewayEngine::new(config.clone(), Default::default()),
            })
            .collect();
        Ok(ShardedEngine { router, shards })
    }

    /// The routing table (e.g. to pin groups before serving).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard serving `group`.
    pub fn route(&self, group: GroupId) -> usize {
        self.router.route(group)
    }

    /// Immutable access to shard `i`'s engine.
    pub fn shard(&self, i: usize) -> &GatewayEngine {
        &self.shards[i].engine
    }

    /// Mutable access to shard `i`'s engine (tests, counter seeding).
    pub fn shard_mut(&mut self, i: usize) -> &mut GatewayEngine {
        &mut self.shards[i].engine
    }

    /// Fans a new connection to every shard (each may serve groups for
    /// it later); the accept is counted once.
    pub fn on_client_accepted(&mut self, conn: GwConn) -> Vec<Action> {
        let mut out = Vec::new();
        for shard in &mut self.shards {
            out.extend(dedupe_fanout(
                shard.index,
                shard.engine.on_client_accepted(conn),
            ));
        }
        out
    }

    /// Routes one client frame to the shard(s) that own its state,
    /// exactly as the threaded host dispatches across queues. A frame
    /// the classifier cannot decode goes to shard 0, whose engine
    /// answers the protocol error.
    pub fn on_client_frame(
        &mut self,
        conn: GwConn,
        frame: Frame<'_>,
        view: &dyn DomainView,
    ) -> Vec<Action> {
        match classify_client_frame(&frame).unwrap_or(MsgRoute::Any) {
            MsgRoute::Group(group) => {
                let i = self.router.route(group);
                self.shards[i].engine.on_client_frame(conn, frame, view)
            }
            MsgRoute::Any => self.shards[0].engine.on_client_frame(conn, frame, view),
            MsgRoute::All => {
                let mut out = Vec::new();
                for shard in &mut self.shards {
                    out.extend(dedupe_fanout(
                        shard.index,
                        shard.engine.on_client_frame(conn, frame, view),
                    ));
                }
                out
            }
        }
    }

    /// Fans a connection close to every shard; counted once.
    pub fn on_client_closed(&mut self, conn: GwConn) -> Vec<Action> {
        let mut out = Vec::new();
        for shard in &mut self.shards {
            out.extend(dedupe_fanout(
                shard.index,
                shard.engine.on_client_closed(conn),
            ));
        }
        out
    }

    /// Routes a gateway-group delivery to the owning shard (responses,
    /// Records) or every shard (ClientGone).
    pub fn on_delivery_from_domain(
        &mut self,
        group: GroupId,
        payload: &[u8],
        view: &dyn DomainView,
    ) -> Vec<Action> {
        match classify_delivery(&self.router, payload) {
            DeliveryRoute::Shard(i) => self.shards[i]
                .engine
                .on_delivery_from_domain(group, payload, view),
            DeliveryRoute::All => {
                let mut out = Vec::new();
                for shard in &mut self.shards {
                    out.extend(dedupe_fanout(
                        shard.index,
                        shard.engine.on_delivery_from_domain(group, payload, view),
                    ));
                }
                out
            }
        }
    }

    /// Clients known across all shards. A client appears once per shard
    /// it has live group state on, so this tracks identity-table size,
    /// not distinct sockets.
    pub fn connected_clients(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.engine.connected_clients())
            .sum()
    }

    /// Duplicate responses suppressed, summed across shards.
    pub fn duplicates_suppressed(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.engine.duplicates_suppressed())
            .sum()
    }

    /// Replies cached for §3.5 reissues, summed across shards.
    pub fn cached_responses(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.engine.cached_responses())
            .sum()
    }

    /// The §3.2 counter for `group` — read from the one shard that owns it.
    pub fn counter_for(&self, group: GroupId) -> u32 {
        self.shards[self.router.route(group)]
            .engine
            .counter_for(group)
    }

    /// Seeds a §3.2 counter on the shard owning `server` (max-merge, see
    /// [`GatewayEngine::seed_counter`]).
    pub fn seed_counter(&mut self, server: u32, value: u32) {
        let i = self.router.route(GroupId(server));
        self.shards[i].engine.seed_counter(server, value);
    }

    /// Installs a recovered §3.5 reply on the shard owning its target
    /// group (see [`GatewayEngine::restore_cached_response`]).
    pub fn restore_cached_response(&mut self, op: OperationId, reply: Vec<u8>) {
        let i = self.router.route(op.target);
        self.shards[i].engine.restore_cached_response(op, reply);
    }

    /// Drains every shard's response cache (shutdown flush).
    pub fn drain_cached_responses(&mut self) -> Vec<(OperationId, Vec<u8>)> {
        self.shards
            .iter_mut()
            .flat_map(|s| s.engine.drain_cached_responses())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SoloView;
    use ftd_giop::{ByteOrder, Request};

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

    #[test]
    fn sharded_engine_keeps_group_state_on_one_shard_only() {
        let config = EngineConfig::new(0, GroupId(100), 0);
        let mut sharded = ShardedEngine::new(config, 4).unwrap();

        // One plain client per group: each owner shard must assign a key
        // from that group's own §3.2 counter.
        let groups = [GroupId(3), GroupId(8), GroupId(21), GroupId(40)];
        for (i, &g) in groups.iter().enumerate() {
            let conn = GwConn(i as u64 + 1);
            sharded.on_client_accepted(conn);
            let wire = request_for(g.0, (i + 1) as u32);
            let actions = sharded.on_client_frame(conn, Frame::parse(&wire).unwrap(), &SoloView);
            assert!(
                actions
                    .iter()
                    .any(|a| matches!(a, Action::Multicast { group, .. } if *group == g)),
                "request for {g:?} forwarded"
            );
        }
        for &g in &groups {
            let owner = sharded.route(g);
            for i in 0..sharded.shard_count() {
                let counter = sharded.shard(i).counter_for(g);
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
        let config = EngineConfig::new(0, GroupId(100), 0);
        let mut sharded = ShardedEngine::new(config, 4).unwrap();
        let accepts = sharded
            .on_client_accepted(GwConn(9))
            .into_iter()
            .filter(|a| matches!(a, Action::Count { counter } if *counter == "gateway.clients_accepted"))
            .count();
        assert_eq!(accepts, 1);
        let closes = sharded
            .on_client_closed(GwConn(9))
            .into_iter()
            .filter(|a| matches!(a, Action::Count { counter } if *counter == "gateway.client_disconnects"))
            .count();
        assert_eq!(closes, 1);
    }
}
