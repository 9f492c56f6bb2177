//! The simulated-world gateway host: a thin [`DaemonExtension`] adapter
//! over the transport-agnostic [`GatewayEngine`].
//!
//! All of the paper's §3 logic — IIOP parsing, object-key → server-group
//! mapping, §3.2 client identification, Fig. 4 wrapping, duplicate
//! response suppression and voting, §3.5 gateway-group coordination and
//! response caching, Fig. 1 wide-area bridging — lives in the engine
//! (`crate::engine`). This adapter only translates between the engine's
//! [`Action`]s and the deterministic world's primitives: simulated TCP
//! streams (framed through one [`FrameBuf`] per client connection,
//! exactly as `ftd-net`'s reactor frames real sockets), the in-process
//! Totem node, the stats sink, and the cold-passive stable-counter
//! store. `ftd-net` hosts the very same engine over real sockets.

use crate::engine::{
    Action, DomainView, EngineConfig, GatewayEngine, GwConn, ENGINE_LATENCY_SERIES,
};
use ftd_eternal::{DaemonExtension, Mechanisms};
use ftd_giop::{Frame, FrameBuf};
use ftd_obs::ManualClock;
use ftd_sim::{ConnId, Context, NetAddr, ProcessorId, TcpEvent};
use ftd_totem::{GroupId, GroupMessage, MembershipView, TotemNode};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// Persistent per-server-group client-id counters — the piece of gateway
/// state a *cold passive* gateway checkpoints to stable storage so that a
/// recovered incarnation never reuses client identifiers (§3.4). Share one
/// instance between the factory closures of successive incarnations.
pub type StableCounters = Rc<RefCell<BTreeMap<u32, u32>>>;

/// Gateway configuration.
#[derive(Clone)]
pub struct GatewayConfig {
    /// This fault tolerance domain's id (object keys are checked against it).
    pub domain: u32,
    /// The gateway group shared by all redundant gateways of this domain.
    pub group: GroupId,
    /// TCP port the gateway listens on.
    pub port: u16,
    /// Index of this gateway among its domain's gateways; namespaces the
    /// counter-assigned client ids so redundant gateways never collide by
    /// accident (they still cannot *recognize* each other's clients —
    /// exactly the §3.4 limitation).
    pub index: u32,
    /// Routes to peer domains: domain id → that domain's gateway address.
    pub routes: BTreeMap<u32, NetAddr>,
    /// Client id presented to peer domains when bridging.
    pub bridge_client_id: u32,
    /// Response-cache capacity (ops retained for failover reissues).
    pub cache_capacity: usize,
    /// Cold-passive gateway state: counters persisted across crashes.
    pub stable_counters: Option<StableCounters>,
}

impl GatewayConfig {
    /// A single-domain configuration with sensible defaults.
    pub fn new(domain: u32, group: GroupId, port: u16, index: u32) -> Self {
        GatewayConfig {
            domain,
            group,
            port,
            index,
            routes: BTreeMap::new(),
            bridge_client_id: 0x6000_0000 | (domain << 8) | index,
            cache_capacity: 4096,
            stable_counters: None,
        }
    }

    fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            domain: self.domain,
            group: self.group,
            index: self.index,
            peer_domains: self.routes.keys().copied().collect(),
            bridge_client_id: self.bridge_client_id,
            cache_capacity: self.cache_capacity,
            max_body: ftd_giop::DEFAULT_MAX_BODY_LEN,
            persist_responses: false,
            relay_replies: false,
            sequenced: false,
            corrupt_after: None,
        }
    }
}

impl std::fmt::Debug for GatewayConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayConfig")
            .field("domain", &self.domain)
            .field("group", &self.group)
            .field("port", &self.port)
            .field("index", &self.index)
            .finish()
    }
}

/// [`DomainView`] over the simulated domain: peer liveness from the Totem
/// ring, replication styles from the mechanisms' directory.
struct SimView<'a> {
    totem: &'a TotemNode,
    mech: Option<&'a Mechanisms>,
    membership: &'a [ProcessorId],
    group: GroupId,
}

impl DomainView for SimView<'_> {
    fn live_gateway_peers(&self) -> usize {
        let ring = self.totem.ring();
        self.totem
            .group_members(self.group)
            .into_iter()
            .filter(|p| ring.contains(p))
            .count()
    }

    fn votes(&self, group: GroupId) -> bool {
        self.mech
            .and_then(|m| m.directory().meta(group))
            .map(|m| m.properties.style.votes())
            .unwrap_or(false)
    }

    fn live_replicas(&self, group: GroupId) -> usize {
        self.mech
            .map(|m| m.directory().live_hosts(group, self.membership).len())
            .unwrap_or(0)
    }
}

/// The gateway extension. See the module docs.
#[derive(Debug)]
pub struct Gateway {
    config: GatewayConfig,
    engine: GatewayEngine,
    /// Client connections: simulated connection → its frame buffer.
    client_bufs: BTreeMap<ConnId, FrameBuf>,
    /// Bridge links: simulated connection → peer domain.
    bridge_conns: BTreeMap<ConnId, u32>,
    membership: Vec<ProcessorId>,
    /// Virtual-time clock behind the engine's latency spans; synced to
    /// the world clock before every engine call, so measured latencies
    /// are exact virtual durations.
    clock: Arc<ManualClock>,
}

impl Gateway {
    /// Creates a gateway with the given configuration.
    pub fn new(config: GatewayConfig) -> Self {
        let counters = config
            .stable_counters
            .as_ref()
            .map(|s| s.borrow().clone())
            .unwrap_or_default();
        let mut engine = GatewayEngine::new(config.engine_config(), counters);
        let clock = Arc::new(ManualClock::new());
        engine.set_clock(clock.clone());
        Gateway {
            config,
            engine,
            client_bufs: BTreeMap::new(),
            bridge_conns: BTreeMap::new(),
            membership: Vec::new(),
            clock,
        }
    }

    /// The gateway group id.
    pub fn group(&self) -> GroupId {
        self.engine.group()
    }

    /// Number of currently connected clients.
    pub fn connected_clients(&self) -> usize {
        self.engine.connected_clients()
    }

    /// Duplicate responses suppressed so far (Fig. 3's headline number).
    pub fn duplicates_suppressed(&self) -> u64 {
        self.engine.duplicates_suppressed()
    }

    /// Responses currently cached for failover reissues.
    pub fn cached_responses(&self) -> usize {
        self.engine.cached_responses()
    }

    /// The §3.2 counter value for a server group (0 if untouched) —
    /// observable so experiments can verify cold-gateway persistence.
    pub fn counter_for(&self, server: GroupId) -> u32 {
        self.engine.counter_for(server)
    }

    /// Assigns the next §3.2 client identifier for `server` (exposed for
    /// tests and the experiment harness; the gateway calls it internally
    /// on a connection's first request).
    pub fn assign_client_key(&mut self, server: GroupId) -> u32 {
        let key = self.engine.assign_client_key(server);
        self.persist_counter(server.0, self.engine.counter_for(server));
        key
    }

    fn persist_counter(&self, server: u32, value: u32) {
        if let Some(stable) = &self.config.stable_counters {
            stable.borrow_mut().insert(server, value);
        }
    }

    /// Applies engine actions to the simulated transports.
    fn apply(&mut self, ctx: &mut Context<'_>, totem: &mut TotemNode, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::ToClient { conn, bytes } => {
                    let _ = ctx.tcp_send(ConnId(conn.0), bytes);
                }
                Action::CloseClient { conn } => {
                    let _ = ctx.tcp_close(ConnId(conn.0));
                }
                Action::Multicast { group, payload } => {
                    totem.multicast(group, payload);
                }
                Action::BridgeConnect { domain } => {
                    if let Some(&addr) = self.config.routes.get(&domain) {
                        if let Ok(conn) = ctx.tcp_connect(addr) {
                            self.bridge_conns.insert(conn, domain);
                        }
                    }
                }
                Action::ToBridge { domain, bytes } => {
                    let conn = self
                        .bridge_conns
                        .iter()
                        .find(|(_, &d)| d == domain)
                        .map(|(&c, _)| c);
                    if let Some(conn) = conn {
                        let _ = ctx.tcp_send(conn, bytes);
                    }
                }
                Action::PersistCounter { server, value } => {
                    self.persist_counter(server, value);
                }
                // The simulated host has no response store; the threaded
                // `ftd-net` host persists these to its write-ahead log.
                Action::PersistResponse { .. } => {}
                Action::Count { counter } => {
                    ctx.stats().inc(counter);
                }
                Action::Latency { group, micros } => {
                    ctx.stats().sample(
                        &format!("{ENGINE_LATENCY_SERIES}{{group=\"{}\"}}", group.0),
                        micros,
                    );
                }
                // Out-of-process group signals: the simulated host's
                // gateways share one domain and never set
                // `relay_replies`, so no fingerprints circulate.
                Action::Divergence { .. } | Action::Fence => {}
            }
        }
    }
}

/// Frames `bytes` through a client connection's buffer and feeds the
/// engine one frame at a time. Returns the actions and whether the
/// connection survives: once the engine closes it (`MessageError`, a
/// protocol error, fencing) the rest of the batch dies with it rather
/// than re-registering the connection through a later frame.
fn feed_client(
    engine: &mut GatewayEngine,
    fbuf: &mut FrameBuf,
    conn: GwConn,
    bytes: &[u8],
    view: &dyn DomainView,
) -> (Vec<Action>, bool) {
    let mut out = Vec::new();
    fbuf.push(bytes);
    loop {
        let step = match fbuf.next_span() {
            Ok(Some(span)) => match Frame::parse(&fbuf.bytes()[span]) {
                Ok(frame) => engine.on_client_frame(conn, frame, view),
                Err(_) => engine.on_client_protocol_error(conn),
            },
            Ok(None) => return (out, true),
            Err(_) => engine.on_client_protocol_error(conn),
        };
        let closed = step.contains(&Action::CloseClient { conn });
        out.extend(step);
        if closed {
            return (out, false);
        }
    }
}

impl DaemonExtension for Gateway {
    fn on_start(&mut self, ctx: &mut Context<'_>, totem: &mut TotemNode, _mech: &mut Mechanisms) {
        ctx.tcp_listen(self.config.port)
            .expect("gateway port is dedicated (§3.1)");
        totem.join_group(self.config.group);
    }

    fn on_deliver(
        &mut self,
        ctx: &mut Context<'_>,
        totem: &mut TotemNode,
        mech: &mut Mechanisms,
        msg: &GroupMessage,
    ) {
        self.clock.set(ctx.now().as_micros());
        let actions = {
            let view = SimView {
                totem,
                mech: Some(mech),
                membership: &self.membership,
                group: self.config.group,
            };
            self.engine
                .on_delivery_from_domain(msg.group, &msg.payload, &view)
        };
        self.apply(ctx, totem, actions);
    }

    fn on_membership(
        &mut self,
        _ctx: &mut Context<'_>,
        _totem: &mut TotemNode,
        _mech: &mut Mechanisms,
        view: &MembershipView,
    ) {
        self.membership = view.members.clone();
    }

    fn on_tcp(
        &mut self,
        ctx: &mut Context<'_>,
        totem: &mut TotemNode,
        _mech: &mut Mechanisms,
        ev: TcpEvent,
    ) {
        self.clock.set(ctx.now().as_micros());
        let actions = match ev {
            TcpEvent::Accepted { conn, .. } => {
                self.client_bufs.insert(conn, FrameBuf::new());
                self.engine.on_client_accepted(GwConn(conn.0))
            }
            TcpEvent::Data { conn, bytes } => {
                if let Some(&domain) = self.bridge_conns.get(&conn) {
                    self.engine.on_bridge_data(domain, &bytes)
                } else if let Some(fbuf) = self.client_bufs.get_mut(&conn) {
                    let view = SimView {
                        totem,
                        mech: None,
                        membership: &self.membership,
                        group: self.config.group,
                    };
                    let (actions, alive) =
                        feed_client(&mut self.engine, fbuf, GwConn(conn.0), &bytes, &view);
                    if !alive {
                        self.client_bufs.remove(&conn);
                    }
                    actions
                } else {
                    // Unknown connection: the transport may race a close
                    // against late data.
                    Vec::new()
                }
            }
            TcpEvent::Closed { conn } => {
                if let Some(domain) = self.bridge_conns.remove(&conn) {
                    self.engine.on_bridge_broken(domain)
                } else {
                    self.client_bufs.remove(&conn);
                    self.engine.on_client_closed(GwConn(conn.0))
                }
            }
            TcpEvent::Connected { conn } => {
                if let Some(&domain) = self.bridge_conns.get(&conn) {
                    self.engine.on_bridge_connected(domain)
                } else {
                    Vec::new()
                }
            }
            TcpEvent::ConnectFailed { conn, .. } => {
                if let Some(domain) = self.bridge_conns.remove(&conn) {
                    self.engine.on_bridge_broken(domain)
                } else {
                    Vec::new()
                }
            }
        };
        self.apply(ctx, totem, actions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_counters_survive_reincarnation() {
        let store: StableCounters = Rc::new(RefCell::new(BTreeMap::new()));
        let mut config = GatewayConfig::new(0, GroupId(100), 9000, 0);
        config.stable_counters = Some(store.clone());
        let mut gw1 = Gateway::new(config.clone());
        gw1.assign_client_key(GroupId(1));
        gw1.assign_client_key(GroupId(1));
        drop(gw1); // crash
        let mut gw2 = Gateway::new(config);
        // The recovered incarnation continues counting, never reuses ids.
        assert_eq!(gw2.assign_client_key(GroupId(1)), 3);
    }

    #[test]
    fn client_keys_are_namespaced_per_gateway_and_counted_per_group() {
        let mut gw = Gateway::new(GatewayConfig::new(0, GroupId(100), 9000, 2));
        let a1 = gw.assign_client_key(GroupId(1));
        let a2 = gw.assign_client_key(GroupId(1));
        let b1 = gw.assign_client_key(GroupId(2));
        assert_eq!(a1, (2 << 24) | 1);
        assert_eq!(a2, (2 << 24) | 2);
        assert_eq!(b1, (2 << 24) | 1); // separate counter per server group
    }
}
