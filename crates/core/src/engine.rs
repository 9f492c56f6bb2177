//! The transport-agnostic gateway engine: the paper's §3 state machine
//! with every transport concern factored out.
//!
//! The engine is a pure function of the inputs fed into it. It takes
//! each client message as one complete wire frame
//! ([`GatewayEngine::on_client_frame`] — the host frames the byte
//! stream), maps object keys to server groups, assigns §3.2
//! per-server-group client identifiers, wraps the client's request
//! bytes — verbatim, the gateway encapsulates rather than re-marshals —
//! in the Fig. 4 header, suppresses duplicate responses (with
//! majority voting for active-with-voting groups), caches replies for
//! §3.5 failover reissues, coordinates with redundant peer gateways over
//! the gateway group, and bridges foreign-domain requests toward peer
//! domains (Fig. 1) — all by *returning* [`Action`]s rather than touching
//! any socket or multicast primitive itself.
//!
//! Two hosts drive the same engine:
//!
//! * the simulated [`Gateway`](crate::Gateway) daemon extension, which
//!   maps actions onto the deterministic world's TCP streams and the
//!   in-process Totem node, and
//! * `ftd-net`'s `GatewayServer`, which maps them onto real
//!   `std::net::TcpStream` sockets.
//!
//! Connections are named by the opaque [`GwConn`] handle; what a handle
//! *is* (a simulated stream id, an OS socket) is the host's business.
//! Domain-side facts the engine cannot know on its own — how many peer
//! gateways are live, whether a server group votes, how many replicas are
//! reachable — are supplied per call through the [`DomainView`] trait.

use crate::gwmsg::GwMsg;
use ftd_eternal::DomainMsg;
use ftd_eternal::{FtHeader, OperationId, OperationKind, ResponseFilter, Voter};
use ftd_giop::{
    ByteOrder, Frame, FrameBuf, GiopMessage, MsgType, ObjectKey, Reply, Request, RequestView,
    ServiceContext, DEFAULT_MAX_BODY_LEN, FT_CLIENT_ID_SERVICE_CONTEXT,
};
use ftd_obs::Clock;
use ftd_totem::GroupId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// An opaque transport-neutral connection handle. The hosting transport
/// chooses the numbering; the engine only compares handles for equality
/// and ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GwConn(pub u64);

/// What the engine asks its hosting transport to do. Actions are returned
/// in order and must be applied in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Write `bytes` to a client connection.
    ToClient {
        /// The client connection.
        conn: GwConn,
        /// The IIOP bytes to write.
        bytes: Vec<u8>,
    },
    /// Close a client connection.
    CloseClient {
        /// The client connection.
        conn: GwConn,
    },
    /// Multicast `payload` to `group` on the domain's ordered transport.
    Multicast {
        /// The destination process group.
        group: GroupId,
        /// The encoded payload.
        payload: Vec<u8>,
    },
    /// Establish (or re-establish) the TCP link to a peer domain's
    /// gateway. The host owns the route table; once the link is up it
    /// must call [`GatewayEngine::on_bridge_connected`].
    BridgeConnect {
        /// The peer fault tolerance domain.
        domain: u32,
    },
    /// Write `bytes` on the (established) link to a peer domain.
    ToBridge {
        /// The peer fault tolerance domain.
        domain: u32,
        /// The IIOP bytes to write.
        bytes: Vec<u8>,
    },
    /// Persist a §3.4 client-id counter to stable storage (cold-passive
    /// gateways; hosts without stable storage may ignore this).
    PersistCounter {
        /// The server group the counter belongs to.
        server: u32,
        /// The new counter value.
        value: u32,
    },
    /// Persist a §3.5 cached reply to stable storage, so a restarted
    /// gateway can still answer a client's reissue of a request it
    /// acknowledged before dying. Emitted only when
    /// [`EngineConfig::persist_responses`] is set; emitted *before* the
    /// [`Action::ToClient`] carrying the same reply, so a host applying
    /// actions in order makes the reply durable before the client can
    /// observe it.
    PersistResponse {
        /// The operation whose reply is being cached.
        operation: OperationId,
        /// The full IIOP reply bytes.
        reply: Vec<u8>,
    },
    /// Increment a named statistics counter.
    Count {
        /// The counter name.
        counter: &'static str,
    },
    /// Record one request-admission→reply latency observation for a
    /// server group. Emitted only when the engine was given a clock via
    /// [`GatewayEngine::set_clock`]; `micros` is measured on that clock
    /// (real time under `ftd-net`, virtual time in the simulation).
    Latency {
        /// The server group the operation targeted.
        group: GroupId,
        /// Admission→reply duration in clock microseconds.
        micros: u64,
    },
    /// A peer gateway's piggybacked reply CRC or rolling digest for a
    /// response sequence this gateway also executed disagrees with the
    /// local computation: the members' replicas have diverged. The host
    /// raises the `group.divergence` alarm and logs the sequence.
    Divergence {
        /// The server group whose response stream diverged.
        group: u32,
        /// The per-group response sequence number that disagreed.
        seq: u64,
        /// The member index whose piggybacked values disagreed.
        member: u32,
    },
    /// Two or more distinct peers disagree with this gateway's response
    /// stream: it is the minority and has fenced itself. The host must
    /// stop serving — shed client connections, leave the membership
    /// view, withdraw from the IOR profile set.
    Fence,
}

/// Every counter name the engine can emit through [`Action::Count`],
/// sorted. The sim reports and the `/metrics` exposition share this
/// vocabulary; a snapshot test in `tests/counters.rs` pins the source
/// against this list so names cannot silently drift.
pub const ENGINE_COUNTERS: &[&str] = &[
    "gateway.bad_object_keys",
    "gateway.bridge_reconnects",
    "gateway.bridge_replies",
    "gateway.bridge_requests",
    "gateway.cancels_ignored",
    "gateway.client_disconnects",
    "gateway.clients_accepted",
    "gateway.clients_gced",
    "gateway.duplicate_responses_suppressed",
    "gateway.enhanced_clients_seen",
    "gateway.protocol_errors",
    "gateway.records_seen",
    "gateway.reissues_served_from_cache",
    "gateway.replies_cached_for_peer_clients",
    "gateway.replies_delivered",
    "gateway.requests_forwarded",
    "gateway.responses_evicted",
    "gateway.unexpected_messages",
    "gateway.unroutable_domains",
];

/// The histogram series name [`Action::Latency`] observations belong to;
/// hosts append a `{group="N"}` label per server group.
pub const ENGINE_LATENCY_SERIES: &str = "gateway.request_latency_us";

/// Per-server-group entries retained for peer divergence cross-checks.
/// A peer whose piggybacked sequence is older than this window is
/// simply not checked (it needs a state transfer anyway).
const RESPONSE_WINDOW: usize = 1024;

/// CRC-32 (IEEE) over `bytes` — the reply fingerprint piggybacked on
/// [`GwMsg::PeerReply`]. Bitwise (no table): replies are small and the
/// fingerprint is off the hot path unless `relay_replies` is set.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Folds one `(seq, crc)` response into a rolling per-group digest
/// (splitmix64 finalizer). Equal digests at equal sequence numbers mean
/// the entire response history up to that point matched byte-for-byte.
fn mix(digest: u64, seq: u64, crc: u32) -> u64 {
    let mut z = (digest ^ seq.rotate_left(32) ^ crc as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One server group's response-stream fingerprint: how many responses
/// the local domain has produced for it, the rolling digest over all of
/// them, and a bounded window of recent `(crc, digest)` pairs for
/// cross-checking peers' piggybacked values.
#[derive(Debug, Default)]
struct ResponseChain {
    seq: u64,
    digest: u64,
    window: BTreeMap<u64, (u32, u64)>,
}

/// Domain-side facts the engine needs but cannot derive from its inputs.
/// Hosts implement this over whatever their domain substrate is (the
/// simulated Totem node and mechanisms, an in-process domain, ...).
pub trait DomainView {
    /// Gateways of this domain's gateway group currently live (including
    /// this one). Controls whether §3.5 Record coordination is worth
    /// multicasting.
    fn live_gateway_peers(&self) -> usize;
    /// Whether `group` replicates with active-with-voting (the gateway
    /// then votes on responses instead of taking the first).
    fn votes(&self, group: GroupId) -> bool;
    /// Live replicas of `group` — the electorate size for voting.
    fn live_replicas(&self, group: GroupId) -> usize;
}

/// A [`DomainView`] for hosts without peers or voting groups (and for
/// tests): one gateway, no voting.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoloView;

impl DomainView for SoloView {
    fn live_gateway_peers(&self) -> usize {
        1
    }
    fn votes(&self, _group: GroupId) -> bool {
        false
    }
    fn live_replicas(&self, _group: GroupId) -> usize {
        1
    }
}

/// Engine configuration: the transport-free subset of
/// [`GatewayConfig`](crate::GatewayConfig).
///
/// Marked `#[non_exhaustive]`: construct with [`EngineConfig::new`] or
/// [`EngineConfig::builder`] and adjust the public fields — future knobs
/// then arrive without breaking callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EngineConfig {
    /// This fault tolerance domain's id (object keys are checked against it).
    pub domain: u32,
    /// The gateway group shared by all redundant gateways of this domain.
    pub group: GroupId,
    /// Index of this gateway among its domain's gateways; namespaces the
    /// counter-assigned client ids.
    pub index: u32,
    /// Peer domains this gateway can bridge to. The host owns the actual
    /// addresses; the engine only decides *that* a request must bridge.
    pub peer_domains: BTreeSet<u32>,
    /// Client id presented to peer domains when bridging.
    pub bridge_client_id: u32,
    /// Response-cache capacity (ops retained for failover reissues).
    pub cache_capacity: usize,
    /// Largest GIOP body accepted on any connection the engine reads
    /// (clients and bridge links). Oversized frames are protocol errors.
    pub max_body: usize,
    /// Emit [`Action::PersistResponse`] for every reply entering the
    /// §3.5 response cache. Off by default: only hosts with stable
    /// storage behind them (`--data-dir`) pay the copy.
    pub persist_responses: bool,
    /// Relay every reply this gateway delivers to one of its own
    /// clients as a [`GwMsg::PeerReply`] multicast on the gateway
    /// group, priming peer gateways' §3.5 relayed-response caches. Off
    /// by default: only out-of-process gateway groups (where a peer
    /// cannot see this gateway's domain responses) need the copy.
    pub relay_replies: bool,
    /// The out-of-process gateway group routes relayed invocations
    /// through a cross-member sequencer (the lowest-id member stamps a
    /// group-wide order) instead of applying them in arrival order. The
    /// engine itself does not sequence — the host's relay layer does —
    /// but the flag rides here so record/replay preserves the topology.
    pub sequenced: bool,
    /// Test hook: after this many responses have been fingerprinted,
    /// flip one byte of every subsequent domain response before it is
    /// hashed, cached, and delivered — simulating a diverged local
    /// replica so divergence detection can be exercised end to end.
    /// Never recorded; replay of a corrupting run re-corrupts
    /// deterministically only if the hook is re-armed by hand.
    pub corrupt_after: Option<u64>,
}

impl EngineConfig {
    /// A single-domain configuration with sensible defaults.
    pub fn new(domain: u32, group: GroupId, index: u32) -> Self {
        EngineConfig {
            domain,
            group,
            index,
            peer_domains: BTreeSet::new(),
            bridge_client_id: 0x6000_0000 | (domain << 8) | index,
            cache_capacity: 4096,
            max_body: DEFAULT_MAX_BODY_LEN,
            persist_responses: false,
            relay_replies: false,
            sequenced: false,
            corrupt_after: None,
        }
    }

    /// A builder seeded with [`EngineConfig::new`]'s defaults.
    pub fn builder(domain: u32, group: GroupId, index: u32) -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: EngineConfig::new(domain, group, index),
        }
    }
}

/// Builder for [`EngineConfig`]; see [`EngineConfig::builder`].
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Adds a peer domain this gateway may bridge to (Fig. 1).
    pub fn peer_domain(mut self, domain: u32) -> Self {
        self.config.peer_domains.insert(domain);
        self
    }

    /// Sets the client id presented to peer domains when bridging.
    pub fn bridge_client_id(mut self, id: u32) -> Self {
        self.config.bridge_client_id = id;
        self
    }

    /// Sets the response-cache capacity (§3.5 failover reissues).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.config.cache_capacity = capacity;
        self
    }

    /// Sets the largest GIOP body accepted on any connection.
    pub fn max_body(mut self, max_body: usize) -> Self {
        self.config.max_body = max_body;
        self
    }

    /// Emits [`Action::PersistResponse`] for every newly cached reply
    /// (hosts with stable storage behind them).
    pub fn persist_responses(mut self, persist: bool) -> Self {
        self.config.persist_responses = persist;
        self
    }

    /// Relays every locally delivered reply to peer gateways as a
    /// [`GwMsg::PeerReply`] (out-of-process gateway groups).
    pub fn relay_replies(mut self, relay: bool) -> Self {
        self.config.relay_replies = relay;
        self
    }

    /// Marks the host's relay layer as sequencing relayed invocations
    /// through the group-wide total order (recorded for replay).
    pub fn sequenced(mut self, sequenced: bool) -> Self {
        self.config.sequenced = sequenced;
        self
    }

    /// Arms the divergence-injection test hook: corrupt every domain
    /// response after the first `after` fingerprinted ones.
    pub fn corrupt_after(mut self, after: u64) -> Self {
        self.config.corrupt_after = Some(after);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> EngineConfig {
        self.config
    }
}

#[derive(Debug, Default)]
struct ClientConn {
    /// Assigned on the first request (§3.2) or taken from the service
    /// context (§3.5).
    client_key: Option<u32>,
    /// Whether the peer announced itself graceful (CloseConnection seen).
    graceful_close: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkState {
    Down,
    Connecting,
    Up,
}

#[derive(Debug)]
struct BridgeLink {
    state: LinkState,
    reader: FrameBuf,
    /// Requests sent and not yet answered: forward id → origin.
    pending: BTreeMap<u32, BridgeOrigin>,
    /// Requests queued while (re)connecting.
    queue: VecDeque<Vec<u8>>,
}

impl BridgeLink {
    fn new(max_body: usize) -> Self {
        BridgeLink {
            state: LinkState::Down,
            reader: FrameBuf::with_max_body(max_body),
            pending: BTreeMap::new(),
            queue: VecDeque::new(),
        }
    }
}

#[derive(Debug, Clone)]
struct BridgeOrigin {
    client_key: u32,
    request_id: u32,
    server: GroupId,
}

/// The §3 gateway state machine. See the module docs.
pub struct GatewayEngine {
    config: EngineConfig,
    conns: BTreeMap<GwConn, ClientConn>,
    /// (server group, client id) → the connection currently serving that
    /// client (§3.2: destination group + client id collectively).
    client_conns: BTreeMap<(GroupId, u32), GwConn>,
    /// §3.2 per-server-group counters.
    counters: BTreeMap<u32, u32>,
    filter: ResponseFilter,
    voter: Voter,
    /// Response cache for failover reissues: operation → reply IIOP bytes.
    cache: BTreeMap<OperationId, Vec<u8>>,
    cache_order: VecDeque<OperationId>,
    /// Bridge links to peer domains.
    bridges: BTreeMap<u32, BridgeLink>,
    next_forward_id: u32,
    /// Optional time source for admission→reply latency spans.
    clock: Option<Arc<dyn Clock>>,
    /// Admission timestamps of in-flight operations (clock set only),
    /// bounded like the response cache.
    admitted: BTreeMap<OperationId, u64>,
    admitted_order: VecDeque<OperationId>,
    /// Per-server-group response fingerprints (`relay_replies` hosts).
    chains: BTreeMap<u32, ResponseChain>,
    /// Ensures each op is fingerprinted exactly once from the domain
    /// side, independent of the delivery filter a peer relay may have
    /// already won — the per-group sequence must stay aligned across
    /// members or every cross-check would misfire.
    domain_seen: ResponseFilter,
    /// Total responses fingerprinted (drives `corrupt_after`).
    responses_fingerprinted: u64,
    /// Peers whose piggybacked fingerprints disagreed with ours. Two
    /// distinct disagreeing peers make us the minority — we fence.
    disagreeing: BTreeSet<u32>,
    /// Set once [`Action::Fence`] has been emitted: the engine stops
    /// accepting client work (connections are shed on contact).
    fenced: bool,
}

impl std::fmt::Debug for GatewayEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayEngine")
            .field("config", &self.config)
            .field("conns", &self.conns.len())
            .field("cached_responses", &self.cache.len())
            .field("in_flight", &self.admitted.len())
            .finish()
    }
}

impl GatewayEngine {
    /// Creates an engine. `counters` seeds the §3.2 client-id counters —
    /// pass the persisted values when reincarnating a cold-passive
    /// gateway, empty otherwise.
    pub fn new(config: EngineConfig, counters: BTreeMap<u32, u32>) -> Self {
        GatewayEngine {
            config,
            conns: BTreeMap::new(),
            client_conns: BTreeMap::new(),
            counters,
            filter: ResponseFilter::new(4096),
            voter: Voter::new(),
            cache: BTreeMap::new(),
            cache_order: VecDeque::new(),
            bridges: BTreeMap::new(),
            next_forward_id: 0,
            clock: None,
            admitted: BTreeMap::new(),
            admitted_order: VecDeque::new(),
            chains: BTreeMap::new(),
            domain_seen: ResponseFilter::new(4096),
            responses_fingerprinted: 0,
            disagreeing: BTreeSet::new(),
            fenced: false,
        }
    }

    /// Gives the engine a time source; from here on it stamps every
    /// admitted invocation and emits [`Action::Latency`] when the
    /// matching reply is accepted. Without a clock the engine emits no
    /// latency actions (and pays no bookkeeping).
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = Some(clock);
    }

    /// The gateway group id.
    pub fn group(&self) -> GroupId {
        self.config.group
    }

    /// Number of currently connected clients.
    pub fn connected_clients(&self) -> usize {
        self.client_conns.len()
    }

    /// Duplicate responses suppressed so far (Fig. 3's headline number).
    pub fn duplicates_suppressed(&self) -> u64 {
        self.filter.suppressed()
    }

    /// Responses currently cached for failover reissues.
    pub fn cached_responses(&self) -> usize {
        self.cache.len()
    }

    /// The §3.2 counter value for a server group (0 if untouched).
    pub fn counter_for(&self, server: GroupId) -> u32 {
        self.counters.get(&server.0).copied().unwrap_or(0)
    }

    /// Whether this engine fenced itself after divergence detection
    /// ([`Action::Fence`] was emitted).
    pub fn is_fenced(&self) -> bool {
        self.fenced
    }

    /// The per-server-group response fingerprints as
    /// `(group, responses_seen, rolling_digest)` triples, ordered by
    /// group id. Members that executed the same sequenced response
    /// stream report byte-identical triples — the soak's cross-member
    /// equality assertion.
    pub fn response_digests(&self) -> Vec<(u32, u64, u64)> {
        self.chains
            .iter()
            .map(|(&g, c)| (g, c.seq, c.digest))
            .collect()
    }

    /// Folds one locally executed domain response into its server
    /// group's chain: bump the sequence, CRC the bytes, extend the
    /// rolling digest, and remember the pair for peer cross-checks. The
    /// `corrupt_after` hook flips a byte *first*, so the corruption
    /// flows into the hash, the cache, and the delivered reply alike —
    /// exactly what a diverged replica would do.
    fn fingerprint_response(&mut self, server: GroupId, bytes: &mut [u8]) -> (u64, u32, u64) {
        self.responses_fingerprinted += 1;
        if let Some(after) = self.config.corrupt_after {
            if self.responses_fingerprinted > after {
                if let Some(b) = bytes.last_mut() {
                    *b ^= 0x01;
                }
            }
        }
        let chain = self.chains.entry(server.0).or_default();
        chain.seq += 1;
        let crc = crc32(bytes);
        chain.digest = mix(chain.digest, chain.seq, crc);
        chain.window.insert(chain.seq, (crc, chain.digest));
        while chain.window.len() > RESPONSE_WINDOW {
            let oldest = *chain.window.keys().next().expect("non-empty");
            chain.window.remove(&oldest);
        }
        (chain.seq, crc, chain.digest)
    }

    /// Cross-checks a peer's piggybacked `(seq, crc, digest)` against
    /// the local chain. Sequences outside the local window (a rejoiner
    /// with fresh counters, an evicted entry) are skipped — absence of
    /// evidence is not divergence. Two distinct disagreeing peers mean
    /// *we* are the minority: fence.
    fn cross_check(
        &mut self,
        server: GroupId,
        member: u32,
        seq: u64,
        crc: u32,
        digest: u64,
        out: &mut Vec<Action>,
    ) {
        if !self.config.relay_replies || seq == 0 || member == self.config.index {
            return;
        }
        let Some(&(our_crc, our_digest)) =
            self.chains.get(&server.0).and_then(|c| c.window.get(&seq))
        else {
            return;
        };
        if our_crc == crc && our_digest == digest {
            return;
        }
        out.push(Action::Divergence {
            group: server.0,
            seq,
            member,
        });
        self.disagreeing.insert(member);
        if self.disagreeing.len() >= 2 && !self.fenced {
            self.fenced = true;
            out.push(Action::Fence);
        }
    }

    /// Assigns the next §3.2 client identifier for `server`. Exposed for
    /// tests and hosts; internal assignments additionally emit
    /// [`Action::PersistCounter`].
    pub fn assign_client_key(&mut self, server: GroupId) -> u32 {
        let counter = self.counters.entry(server.0).or_insert(0);
        *counter += 1;
        (self.config.index << 24) | (*counter & 0x00FF_FFFF)
    }

    fn assign_and_persist(&mut self, server: GroupId, out: &mut Vec<Action>) -> u32 {
        let key = self.assign_client_key(server);
        out.push(Action::PersistCounter {
            server: server.0,
            value: self.counters[&server.0],
        });
        key
    }

    /// Stamps `op`'s admission time (no-op without a clock). The table
    /// is bounded like the response cache so lost replies cannot grow it
    /// without limit.
    fn stamp_admission(&mut self, op: OperationId) {
        let Some(clock) = &self.clock else { return };
        let now = clock.now_micros();
        if self.admitted.insert(op, now).is_none() {
            self.admitted_order.push_back(op);
            while self.admitted_order.len() > self.config.cache_capacity {
                if let Some(old) = self.admitted_order.pop_front() {
                    self.admitted.remove(&old);
                }
            }
        }
    }

    /// Closes `op`'s admission span, emitting [`Action::Latency`] keyed
    /// by the target server group. Duplicates (already-closed spans) are
    /// silently ignored, so suppressed duplicate responses never skew
    /// the distribution.
    fn finish_admission(&mut self, op: OperationId, out: &mut Vec<Action>) {
        let Some(start) = self.admitted.remove(&op) else {
            return;
        };
        let Some(clock) = &self.clock else { return };
        out.push(Action::Latency {
            group: op.target,
            micros: clock.now_micros().saturating_sub(start),
        });
    }

    /// Caches a reply for §3.5 reissues. Evictions are part of the
    /// failover contract — an evicted reply means a later reissue
    /// re-executes at the replicas and leans on the domain's duplicate
    /// detection instead — so each one is accounted via [`Action::Count`].
    fn cache_put(&mut self, op: OperationId, reply: Vec<u8>, out: &mut Vec<Action>) {
        if self.config.persist_responses {
            out.push(Action::PersistResponse {
                operation: op,
                reply: reply.clone(),
            });
        }
        if self.cache.insert(op, reply).is_none() {
            self.cache_order.push_back(op);
            if self.cache_order.len() > self.config.cache_capacity {
                if let Some(old) = self.cache_order.pop_front() {
                    self.cache.remove(&old);
                    out.push(Action::Count {
                        counter: "gateway.responses_evicted",
                    });
                }
            }
        }
    }

    /// Installs a recovered reply into the §3.5 response cache without
    /// emitting actions — the restart path, fed from stable storage. The
    /// cache capacity is enforced (oldest recovered entry evicted first).
    pub fn restore_cached_response(&mut self, op: OperationId, reply: Vec<u8>) {
        if self.cache.insert(op, reply).is_none() {
            self.cache_order.push_back(op);
            if self.cache_order.len() > self.config.cache_capacity {
                if let Some(old) = self.cache_order.pop_front() {
                    self.cache.remove(&old);
                }
            }
        }
    }

    /// Seeds a §3.2 client-id counter from stable storage, keeping the
    /// larger of the persisted and any already-seeded value so replaying
    /// a stale record can never reissue an already-assigned id.
    pub fn seed_counter(&mut self, server: u32, value: u32) {
        let counter = self.counters.entry(server).or_insert(0);
        *counter = (*counter).max(value);
    }

    /// Seeds a server group's response chain from a peer's state
    /// transfer: the rejoiner's chain resumes at the donor's `(seq,
    /// digest)` instead of restarting at zero (which would make every
    /// later peer cross-check look like divergence). Advance-only — a
    /// stale seed never rolls an already-live chain backwards — and the
    /// cross-check window starts empty: sequences at or below the seed
    /// are exactly the "outside the local window, skip" case.
    pub fn seed_chain(&mut self, group: u32, seq: u64, digest: u64) {
        let chain = self.chains.entry(group).or_default();
        if chain.seq < seq {
            chain.seq = seq;
            chain.digest = digest;
            chain.window.clear();
        }
    }

    /// Marks `op` as already fingerprinted: a rejoiner primes this with
    /// every response its installed snapshot covers, so when the local
    /// replica re-answers one of them (a client reissue re-executing
    /// through domain dedup) the reply is not folded into the response
    /// chain a second time.
    pub fn note_domain_response(&mut self, op: OperationId) {
        let _ = self.domain_seen.accept(op);
    }

    // ------------------------------------------------------------------
    // Inbound: a client connection's lifecycle (Fig. 5a)
    // ------------------------------------------------------------------

    /// A new client connection was accepted by the transport.
    pub fn on_client_accepted(&mut self, conn: GwConn) -> Vec<Action> {
        if self.fenced {
            return vec![Action::CloseClient { conn }];
        }
        self.conns.insert(conn, ClientConn::default());
        vec![Action::Count {
            counter: "gateway.clients_accepted",
        }]
    }

    /// One complete client message, borrowed in place from the host's
    /// read buffer — the single client-input entry point. Hosts frame
    /// the byte stream themselves (a [`ftd_giop::FrameBuf`] per
    /// connection) and report a framing failure through
    /// [`GatewayEngine::on_client_protocol_error`].
    ///
    /// The gateway encapsulates, it does not re-marshal (§3.2): a
    /// big-endian Request's fields are decoded as borrowed slices and
    /// its wire bytes become the multicast payload verbatim, copied once
    /// at the point of escape. A little-endian Request is re-encoded
    /// big-endian once — replicas see one canonical byte order — and
    /// re-enters as a frame. A connection the engine has not seen is
    /// registered silently — the transport already counted its accept.
    pub fn on_client_frame(
        &mut self,
        conn: GwConn,
        frame: Frame<'_>,
        view: &dyn DomainView,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        if self.fenced {
            // Self-fenced after divergence: a diverged gateway answering
            // reissues would hand out minority bytes. Shed on contact.
            self.conns.remove(&conn);
            out.push(Action::CloseClient { conn });
            return out;
        }
        self.conns.entry(conn).or_default();
        if frame.msg_type() == MsgType::Request && frame.order() == ByteOrder::Big {
            match frame.request() {
                Ok(Some(req)) => self.on_client_request(conn, req, frame.wire(), view, &mut out),
                _ => self.protocol_error(conn, &mut out),
            }
            return out;
        }
        // Control messages have (nearly) empty bodies and a little-endian
        // Request is re-encoded anyway: owned decode.
        match frame.to_message() {
            Ok(msg @ GiopMessage::Request(_)) => {
                let canonical = msg.encode(ByteOrder::Big);
                let frame = Frame::parse(&canonical).expect("encoded message reparses");
                return self.on_client_frame(conn, frame, view);
            }
            Ok(GiopMessage::LocateRequest { request_id, .. }) => {
                // The gateway *is* the object as far as clients know.
                out.push(Action::ToClient {
                    conn,
                    bytes: GiopMessage::LocateReply {
                        request_id,
                        locate_status: 1, // OBJECT_HERE
                    }
                    .encode(ByteOrder::Big),
                });
            }
            Ok(GiopMessage::CloseConnection) => {
                if let Some(state) = self.conns.get_mut(&conn) {
                    state.graceful_close = true;
                }
            }
            Ok(GiopMessage::CancelRequest { .. }) => {
                out.push(Action::Count {
                    counter: "gateway.cancels_ignored",
                });
            }
            Ok(GiopMessage::Reply(_) | GiopMessage::LocateReply { .. }) => {
                out.push(Action::Count {
                    counter: "gateway.unexpected_messages",
                });
            }
            Ok(GiopMessage::MessageError) => {
                out.push(Action::CloseClient { conn });
                self.conns.remove(&conn);
            }
            Err(_) => self.protocol_error(conn, &mut out),
        }
        out
    }

    /// The host's framer tripped on `conn`'s byte stream (bad magic,
    /// unknown message type, body over the cap): count it, send
    /// `MessageError`, and drop the connection — what a real ORB does,
    /// and what [`GatewayEngine::on_client_frame`] does itself for a
    /// frame whose body does not decode.
    pub fn on_client_protocol_error(&mut self, conn: GwConn) -> Vec<Action> {
        let mut out = Vec::new();
        self.protocol_error(conn, &mut out);
        out
    }

    fn protocol_error(&mut self, conn: GwConn, out: &mut Vec<Action>) {
        out.push(Action::Count {
            counter: "gateway.protocol_errors",
        });
        out.push(Action::ToClient {
            conn,
            bytes: GiopMessage::MessageError.encode(ByteOrder::Big),
        });
        out.push(Action::CloseClient { conn });
        self.conns.remove(&conn);
    }

    /// Admits one big-endian Request: `wire` is the complete message
    /// `req` was decoded from.
    fn on_client_request(
        &mut self,
        conn: GwConn,
        req: RequestView<'_>,
        wire: &[u8],
        view: &dyn DomainView,
        out: &mut Vec<Action>,
    ) {
        // §3.1: "by extracting the server's object key ... the gateway
        // identifies the target server".
        let Ok(key) = ObjectKey::parse(req.object_key) else {
            out.push(Action::Count {
                counter: "gateway.bad_object_keys",
            });
            out.push(Action::ToClient {
                conn,
                bytes: GiopMessage::Reply(Reply::system_exception(
                    req.request_id,
                    "OBJECT_NOT_EXIST",
                ))
                .encode(ByteOrder::Big),
            });
            return;
        };

        if key.domain != self.config.domain {
            // Bridging rewrites the request (our id, our client id) and
            // outlives this read buffer: the one path that decodes owned.
            self.bridge_forward(conn, key, req.to_owned_request(), out);
            return;
        }
        let server = GroupId(key.group);

        // Client identification: the enhanced client's service context if
        // present (§3.5), else the per-server-group counter (§3.2).
        let supplied = req
            .service_context(FT_CLIENT_ID_SERVICE_CONTEXT)
            .and_then(|d| d.get(0..4))
            .map(|b| u32::from_be_bytes(b.try_into().expect("len 4")));
        let client_key = match supplied {
            Some(id) => {
                out.push(Action::Count {
                    counter: "gateway.enhanced_clients_seen",
                });
                id
            }
            None => {
                let existing = self.conns.get(&conn).expect("known conn").client_key;
                match existing {
                    Some(k) => k,
                    None => self.assign_and_persist(server, out),
                }
            }
        };
        self.conns.get_mut(&conn).expect("known conn").client_key = Some(client_key);
        self.client_conns.insert((server, client_key), conn);

        let op = OperationId {
            source: self.config.group,
            target: server,
            client: client_key,
            parent_ts: 0,
            child_seq: req.request_id,
        };

        // A reissue we already hold the answer to (failover to this
        // gateway after a peer died): serve from cache, no re-execution.
        if let Some(reply) = self.cache.get(&op) {
            out.push(Action::Count {
                counter: "gateway.reissues_served_from_cache",
            });
            out.push(Action::ToClient {
                conn,
                bytes: reply.clone(),
            });
            return;
        }

        // §3.5: record the invocation at every peer gateway first.
        if view.live_gateway_peers() > 1 {
            out.push(Action::Multicast {
                group: self.config.group,
                payload: GwMsg::Record {
                    client: client_key,
                    request_id: req.request_id,
                    server,
                }
                .encode(),
            });
        }

        // Fig. 4b: FT header + the client's IIOP bytes, multicast to the
        // server group. The timestamp field is filled at delivery.
        let header = FtHeader {
            client: client_key,
            source: self.config.group,
            target: server,
            kind: OperationKind::Invocation,
            parent_ts: 0,
            child_seq: req.request_id,
        };
        self.stamp_admission(op);
        out.push(Action::Count {
            counter: "gateway.requests_forwarded",
        });
        out.push(Action::Multicast {
            group: server,
            payload: DomainMsg::encode_iiop(&header, wire),
        });
    }

    /// A client connection closed (gracefully or not).
    pub fn on_client_closed(&mut self, conn: GwConn) -> Vec<Action> {
        let mut out = Vec::new();
        let Some(state) = self.conns.remove(&conn) else {
            return out;
        };
        if let Some(key) = state.client_key {
            self.client_conns
                .retain(|&(_, c), &mut k| !(c == key && k == conn));
            if state.graceful_close {
                // The client said goodbye: tell the peers to GC.
                out.push(Action::Multicast {
                    group: self.config.group,
                    payload: GwMsg::ClientGone { client: key }.encode(),
                });
                self.gc_client(key);
            }
        }
        out.push(Action::Count {
            counter: "gateway.client_disconnects",
        });
        out
    }

    // ------------------------------------------------------------------
    // Outbound: deliveries from the domain (Fig. 5b, §3.5)
    // ------------------------------------------------------------------

    /// A totally-ordered delivery addressed to the gateway group arrived:
    /// either peer-gateway coordination ([`GwMsg`]) or a server response
    /// (the invocation named the gateway group as its source).
    pub fn on_delivery_from_domain(
        &mut self,
        group: GroupId,
        payload: &[u8],
        view: &dyn DomainView,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        if group != self.config.group {
            return out;
        }
        if let Ok(gw) = GwMsg::decode(payload) {
            match gw {
                GwMsg::Record { .. } => {
                    out.push(Action::Count {
                        counter: "gateway.records_seen",
                    });
                }
                GwMsg::ClientGone { client } => {
                    out.push(Action::Count {
                        counter: "gateway.clients_gced",
                    });
                    self.gc_client(client);
                }
                GwMsg::PeerReply {
                    client,
                    request_id,
                    server,
                    member,
                    seq,
                    crc,
                    digest,
                    reply,
                } => {
                    self.cross_check(server, member, seq, crc, digest, &mut out);
                    self.on_peer_reply(client, request_id, server, reply, &mut out);
                }
            }
            return out;
        }
        if let Ok(DomainMsg::Iiop { header, iiop }) = DomainMsg::decode(payload) {
            if header.kind == OperationKind::Response {
                self.on_domain_response(&header, iiop, view, &mut out);
            }
        }
        out
    }

    fn on_domain_response(
        &mut self,
        header: &FtHeader,
        iiop: Vec<u8>,
        view: &dyn DomainView,
        out: &mut Vec<Action>,
    ) {
        let op = header.operation_id();

        // Reduce the replica copies to one candidate: the vote winner
        // for active-with-voting groups, the bytes themselves otherwise.
        let mut candidate = if view.votes(header.source) {
            let size = view.live_replicas(header.source).max(1);
            match self.voter.vote(op, iiop, size) {
                Some(winner) => winner,
                None => return,
            }
        } else {
            iiop
        };

        // Fingerprint every locally executed response exactly once —
        // even when a peer's relay already won the delivery filter —
        // so the per-group sequence stays aligned across members.
        let fingerprint = if self.config.relay_replies && self.domain_seen.accept(op) {
            Some(self.fingerprint_response(header.source, &mut candidate))
        } else {
            None
        };

        // First-wins delivery across the local and relayed paths.
        if !self.filter.accept(op) {
            if !view.votes(header.source) {
                out.push(Action::Count {
                    counter: "gateway.duplicate_responses_suppressed",
                });
            }
            return;
        }
        let accepted = candidate;

        self.cache_put(op, accepted.clone(), out);
        self.finish_admission(op, out);

        // Route to the client socket by (destination group, client id)
        // (Fig. 5b; §3.2 "collectively").
        if let Some(&conn) = self.client_conns.get(&(op.target, op.client)) {
            if self.conns.contains_key(&conn) {
                if self.config.relay_replies {
                    // Out-of-process gateway group: peers cannot see our
                    // domain's responses, so relay the authoritative
                    // bytes *before* the client ack — once the client
                    // holds the reply, some surviving peer must too.
                    // The piggybacked fingerprint is the peers'
                    // divergence cross-check material.
                    let (seq, crc, digest) = fingerprint.unwrap_or((0, 0, 0));
                    out.push(Action::Multicast {
                        group: self.config.group,
                        payload: GwMsg::PeerReply {
                            client: op.client,
                            request_id: op.child_seq,
                            server: op.target,
                            member: self.config.index,
                            seq,
                            crc,
                            digest,
                            reply: accepted.clone(),
                        }
                        .encode(),
                    });
                }
                out.push(Action::Count {
                    counter: "gateway.replies_delivered",
                });
                out.push(Action::ToClient {
                    conn,
                    bytes: accepted,
                });
                return;
            }
        }
        // Not our client (a peer gateway is serving it) — cached only.
        out.push(Action::Count {
            counter: "gateway.replies_cached_for_peer_clients",
        });
    }

    /// A peer gateway relayed the reply bytes it delivered (or will
    /// deliver) to its client. Install them in the §3.5 response cache
    /// so a reissue after that peer's crash is answered byte-identically.
    ///
    /// The relayed bytes are authoritative — they are what the client
    /// actually saw — so they *overwrite* any locally computed reply for
    /// the same operation (independent domain replicas may interleave
    /// requests differently, and divergent bytes must not survive).
    /// Conversely a local response arriving after the relay is
    /// first-wins-suppressed by the filter and never reaches the cache.
    /// No gateway-group multicast is emitted here: relaying is the
    /// delivering gateway's job, and re-relaying would loop.
    fn on_peer_reply(
        &mut self,
        client: u32,
        request_id: u32,
        server: GroupId,
        reply: Vec<u8>,
        out: &mut Vec<Action>,
    ) {
        let op = OperationId {
            source: self.config.group,
            target: server,
            client,
            parent_ts: 0,
            child_seq: request_id,
        };
        let first = self.filter.accept(op);
        self.cache_put(op, reply.clone(), out);
        self.finish_admission(op, out);
        if first {
            // Rare but possible: the client already failed over to us
            // and reissued before the relay arrived; the relay is then
            // the first acceptable reply and the client is waiting.
            if let Some(&conn) = self.client_conns.get(&(server, client)) {
                if self.conns.contains_key(&conn) {
                    out.push(Action::Count {
                        counter: "gateway.replies_delivered",
                    });
                    out.push(Action::ToClient { conn, bytes: reply });
                    return;
                }
            }
        }
        out.push(Action::Count {
            counter: "gateway.replies_cached_for_peer_clients",
        });
    }

    // ------------------------------------------------------------------
    // Bridging to peer domains (Fig. 1)
    // ------------------------------------------------------------------

    fn bridge_forward(
        &mut self,
        conn: GwConn,
        key: ObjectKey,
        mut req: Request,
        out: &mut Vec<Action>,
    ) {
        if !self.config.peer_domains.contains(&key.domain) {
            out.push(Action::Count {
                counter: "gateway.unroutable_domains",
            });
            out.push(Action::ToClient {
                conn,
                bytes: GiopMessage::Reply(Reply::system_exception(
                    req.request_id,
                    "TRANSIENT: unknown fault tolerance domain",
                ))
                .encode(ByteOrder::Big),
            });
            return;
        }

        // Identify the originating client as usual so the reply can be
        // routed back out.
        let existing = self.conns.get(&conn).expect("known conn").client_key;
        let client_key = match existing {
            Some(k) => k,
            None => self.assign_and_persist(GroupId(key.group), out),
        };
        self.conns.get_mut(&conn).expect("known conn").client_key = Some(client_key);
        self.client_conns
            .insert((GroupId(key.group), client_key), conn);

        self.next_forward_id += 1;
        let fwd_id = self.next_forward_id;
        let origin = BridgeOrigin {
            client_key,
            request_id: req.request_id,
            server: GroupId(key.group),
        };
        self.stamp_admission(OperationId {
            source: self.config.group,
            target: GroupId(key.group),
            client: client_key,
            parent_ts: 0,
            child_seq: req.request_id,
        });

        // Toward the peer we are an enhanced client: stable client id in
        // the service context, our own request id.
        req.request_id = fwd_id;
        req.service_contexts
            .retain(|sc| sc.context_id != FT_CLIENT_ID_SERVICE_CONTEXT);
        req.service_contexts.push(ServiceContext::new(
            FT_CLIENT_ID_SERVICE_CONTEXT,
            self.config.bridge_client_id.to_be_bytes().to_vec(),
        ));
        let wire = GiopMessage::Request(req).encode(ByteOrder::Big);

        out.push(Action::Count {
            counter: "gateway.bridge_requests",
        });
        let max_body = self.config.max_body;
        let link = self
            .bridges
            .entry(key.domain)
            .or_insert_with(|| BridgeLink::new(max_body));
        link.pending.insert(fwd_id, origin);
        match link.state {
            LinkState::Up => out.push(Action::ToBridge {
                domain: key.domain,
                bytes: wire,
            }),
            LinkState::Connecting => link.queue.push_back(wire),
            LinkState::Down => {
                link.queue.push_back(wire);
                link.state = LinkState::Connecting;
                out.push(Action::BridgeConnect { domain: key.domain });
            }
        }
    }

    /// The transport established the link to a peer domain: flush the
    /// queued requests.
    pub fn on_bridge_connected(&mut self, domain: u32) -> Vec<Action> {
        let mut out = Vec::new();
        let Some(link) = self.bridges.get_mut(&domain) else {
            return out;
        };
        link.state = LinkState::Up;
        for bytes in link.queue.drain(..) {
            out.push(Action::ToBridge { domain, bytes });
        }
        // Any pending without a queued copy was sent on the old link; we
        // cannot rebuild those bytes here, so enhanced-client semantics
        // for bridge failover rely on the originating client reissuing.
        out
    }

    /// The link to a peer domain broke (closed or failed to connect).
    /// Requests a reconnect if answers are still outstanding; the peer
    /// domain's duplicate suppression (our client id is stable) makes the
    /// subsequent reissue safe.
    pub fn on_bridge_broken(&mut self, domain: u32) -> Vec<Action> {
        let mut out = Vec::new();
        let Some(link) = self.bridges.get_mut(&domain) else {
            return out;
        };
        link.state = LinkState::Down;
        link.reader = FrameBuf::with_max_body(self.config.max_body);
        if link.pending.is_empty() {
            return out;
        }
        out.push(Action::Count {
            counter: "gateway.bridge_reconnects",
        });
        link.state = LinkState::Connecting;
        out.push(Action::BridgeConnect { domain });
        out
    }

    /// Bytes arrived on the link from a peer domain: complete replies are
    /// routed back out to the originating clients.
    pub fn on_bridge_data(&mut self, domain: u32, bytes: &[u8]) -> Vec<Action> {
        let mut out = Vec::new();
        // Drain complete replies first (ends the borrow of the link), then
        // route them.
        let routed: Vec<(BridgeOrigin, Reply)> = {
            let Some(link) = self.bridges.get_mut(&domain) else {
                return out;
            };
            link.reader.push(bytes);
            let mut replies = Vec::new();
            while let Ok(Some(msg)) = link.reader.next_message() {
                if let GiopMessage::Reply(reply) = msg {
                    if let Some(origin) = link.pending.remove(&reply.request_id) {
                        replies.push((origin, reply));
                    }
                }
            }
            replies
        };
        for (origin, mut reply) in routed {
            reply.request_id = origin.request_id;
            let wire = GiopMessage::Reply(reply).encode(ByteOrder::Big);
            // Cache under the origin op so client reissues hit the cache.
            let op = OperationId {
                source: self.config.group,
                target: origin.server,
                client: origin.client_key,
                parent_ts: 0,
                child_seq: origin.request_id,
            };
            self.cache_put(op, wire.clone(), &mut out);
            self.finish_admission(op, &mut out);
            out.push(Action::Count {
                counter: "gateway.bridge_replies",
            });
            if let Some(&conn) = self.client_conns.get(&(origin.server, origin.client_key)) {
                out.push(Action::ToClient { conn, bytes: wire });
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // §3.5 cleanup
    // ------------------------------------------------------------------

    fn gc_client(&mut self, client: u32) {
        self.client_conns.retain(|&(_, c), _| c != client);
        let dead: Vec<OperationId> = self
            .cache
            .keys()
            .filter(|op| op.client == client)
            .copied()
            .collect();
        for op in dead {
            self.cache.remove(&op);
        }
        self.cache_order.retain(|op| op.client != client);
        self.admitted.retain(|op, _| op.client != client);
        self.admitted_order.retain(|op| op.client != client);
    }

    /// A snapshot of the §3.2 counters (for hosts that persist them).
    pub fn counters(&self) -> &BTreeMap<u32, u32> {
        &self.counters
    }

    /// Empties the §3.5 response cache and returns every cached reply —
    /// the shutdown flush. A host draining its shards calls this after
    /// the last event so no cached reply is silently dropped with the
    /// engine.
    pub fn drain_cached_responses(&mut self) -> Vec<(OperationId, Vec<u8>)> {
        self.cache_order.clear();
        std::mem::take(&mut self.cache).into_iter().collect()
    }

    /// Canonically serializes the engine's replayable state — every
    /// field whose divergence between two runs of the same inputs would
    /// mean the runs were *not* the same: connections and their client
    /// keys, the §3.2 counters, the §3.5 response cache (contents and
    /// eviction order), in-flight admissions, bridge links, and the
    /// duplicate-suppression tally. All maps are `BTreeMap`s, so the
    /// byte string is a pure function of the state, never of insertion
    /// or iteration order. `ftd-replay` hashes this into its
    /// `StateDigest`; the encoding is internal and may change across
    /// versions (digests only ever compare within one version).
    pub fn state_bytes(&self) -> Vec<u8> {
        fn put_u32(out: &mut Vec<u8>, v: u32) {
            out.extend(v.to_be_bytes());
        }
        fn put_u64(out: &mut Vec<u8>, v: u64) {
            out.extend(v.to_be_bytes());
        }
        fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
            put_u32(out, b.len() as u32);
            out.extend(b);
        }
        fn put_opid(out: &mut Vec<u8>, id: &OperationId) {
            put_u32(out, id.source.0);
            put_u32(out, id.target.0);
            put_u32(out, id.client);
            put_u64(out, id.parent_ts);
            put_u32(out, id.child_seq);
        }
        let mut out = Vec::new();
        put_u32(&mut out, self.conns.len() as u32);
        for (conn, c) in &self.conns {
            put_u64(&mut out, conn.0);
            match c.client_key {
                Some(key) => {
                    out.push(1);
                    put_u32(&mut out, key);
                }
                None => out.push(0),
            }
            out.push(c.graceful_close as u8);
        }
        put_u32(&mut out, self.client_conns.len() as u32);
        for (&(group, client), conn) in &self.client_conns {
            put_u32(&mut out, group.0);
            put_u32(&mut out, client);
            put_u64(&mut out, conn.0);
        }
        put_u32(&mut out, self.counters.len() as u32);
        for (&server, &value) in &self.counters {
            put_u32(&mut out, server);
            put_u32(&mut out, value);
        }
        put_u32(&mut out, self.cache.len() as u32);
        for (op, reply) in &self.cache {
            put_opid(&mut out, op);
            put_bytes(&mut out, reply);
        }
        put_u32(&mut out, self.cache_order.len() as u32);
        for op in &self.cache_order {
            put_opid(&mut out, op);
        }
        put_u32(&mut out, self.admitted.len() as u32);
        for (op, &ts) in &self.admitted {
            put_opid(&mut out, op);
            put_u64(&mut out, ts);
        }
        put_u32(&mut out, self.bridges.len() as u32);
        for (&domain, link) in &self.bridges {
            put_u32(&mut out, domain);
            put_u32(&mut out, link.pending.len() as u32);
            for (&fwd, origin) in &link.pending {
                put_u32(&mut out, fwd);
                put_u32(&mut out, origin.client_key);
                put_u32(&mut out, origin.request_id);
                put_u32(&mut out, origin.server.0);
            }
            put_u32(&mut out, link.queue.len() as u32);
        }
        put_u32(&mut out, self.next_forward_id);
        put_u64(&mut out, self.filter.suppressed());
        // The response chains are summarized by (seq, digest): the
        // rolling digest is a pure function of the full (seq, crc)
        // history, so equal summaries mean equal windows too.
        put_u32(&mut out, self.chains.len() as u32);
        for (&group, chain) in &self.chains {
            put_u32(&mut out, group);
            put_u64(&mut out, chain.seq);
            put_u64(&mut out, chain.digest);
        }
        put_u32(&mut out, self.disagreeing.len() as u32);
        for &member in &self.disagreeing {
            put_u32(&mut out, member);
        }
        out.push(self.fenced as u8);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(index: u32) -> GatewayEngine {
        GatewayEngine::new(EngineConfig::new(0, GroupId(100), index), BTreeMap::new())
    }

    /// Feeds one complete wire message, as a framing host would.
    fn feed(gw: &mut GatewayEngine, conn: GwConn, wire: &[u8]) -> Vec<Action> {
        gw.on_client_frame(conn, Frame::parse(wire).expect("one frame"), &SoloView)
    }

    #[test]
    fn client_keys_are_namespaced_per_gateway_and_counted_per_group() {
        let mut gw = engine(2);
        let a1 = gw.assign_client_key(GroupId(1));
        let a2 = gw.assign_client_key(GroupId(1));
        let b1 = gw.assign_client_key(GroupId(2));
        assert_eq!(a1, (2 << 24) | 1);
        assert_eq!(a2, (2 << 24) | 2);
        assert_eq!(b1, (2 << 24) | 1); // separate counter per server group
    }

    #[test]
    fn cache_is_bounded() {
        let mut config = EngineConfig::new(0, GroupId(100), 0);
        config.cache_capacity = 2;
        let mut gw = GatewayEngine::new(config, BTreeMap::new());
        let mut out = Vec::new();
        for i in 0..5u32 {
            gw.cache_put(
                OperationId {
                    source: GroupId(100),
                    target: GroupId(1),
                    client: 1,
                    parent_ts: 0,
                    child_seq: i,
                },
                vec![i as u8],
                &mut out,
            );
        }
        assert_eq!(gw.cached_responses(), 2);
        let evictions = out
            .iter()
            .filter(
                |a| matches!(a, Action::Count { counter } if *counter == "gateway.responses_evicted"),
            )
            .count();
        assert_eq!(evictions, 3, "five inserts into capacity 2 evict three");
    }

    #[test]
    fn gc_client_removes_cached_state() {
        let mut gw = engine(0);
        for client in [1u32, 2] {
            gw.cache_put(
                OperationId {
                    source: GroupId(100),
                    target: GroupId(1),
                    client,
                    parent_ts: 0,
                    child_seq: 1,
                },
                vec![client as u8],
                &mut Vec::new(),
            );
        }
        gw.gc_client(1);
        assert_eq!(gw.cached_responses(), 1);
    }

    #[test]
    fn request_over_engine_yields_record_free_multicast_when_solo() {
        let mut gw = engine(0);
        let accept = gw.on_client_accepted(GwConn(1));
        assert!(matches!(accept[0], Action::Count { .. }));
        let req = Request {
            request_id: 7,
            response_expected: true,
            object_key: ObjectKey::new(0, 10).to_bytes(),
            operation: "get".into(),
            ..Request::default()
        };
        let wire = GiopMessage::Request(req).encode(ByteOrder::Big);
        let actions = feed(&mut gw, GwConn(1), &wire);
        // Persist + count + exactly one multicast to the server group; no
        // Record because a solo gateway has no peers.
        let multicasts: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Multicast { group, payload } => Some((*group, payload.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(multicasts.len(), 1);
        assert_eq!(multicasts[0].0, GroupId(10));
        let decoded = DomainMsg::decode(&multicasts[0].1).unwrap();
        match decoded {
            DomainMsg::Iiop { header, .. } => {
                assert_eq!(header.target, GroupId(10));
                assert_eq!(header.kind, OperationKind::Invocation);
            }
            other => panic!("expected Iiop, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_responses_are_suppressed_and_cached_reply_serves_reissue() {
        let mut gw = engine(0);
        gw.on_client_accepted(GwConn(1));
        let req = Request {
            request_id: 3,
            response_expected: true,
            object_key: ObjectKey::new(0, 10).to_bytes(),
            operation: "get".into(),
            ..Request::default()
        };
        let wire = GiopMessage::Request(req.clone()).encode(ByteOrder::Big);
        feed(&mut gw, GwConn(1), &wire);

        // Fabricate the response the replicas would multicast back.
        let reply = GiopMessage::Reply(Reply::success(3, vec![9])).encode(ByteOrder::Big);
        let header = FtHeader {
            client: 1, // index 0 << 24 | counter 1
            source: GroupId(10),
            target: GroupId(100),
            kind: OperationKind::Response,
            parent_ts: 0,
            child_seq: 3,
        };
        let payload = DomainMsg::Iiop {
            header,
            iiop: reply.clone(),
        }
        .encode();
        let first = gw.on_delivery_from_domain(GroupId(100), &payload, &SoloView);
        assert!(first
            .iter()
            .any(|a| matches!(a, Action::ToClient { conn, bytes } if *conn == GwConn(1) && *bytes == reply)));
        // The duplicate from the second replica is suppressed.
        let second = gw.on_delivery_from_domain(GroupId(100), &payload, &SoloView);
        assert!(!second.iter().any(|a| matches!(a, Action::ToClient { .. })));
        assert_eq!(gw.duplicates_suppressed(), 1);
        // A reissue of the same request is served from the cache.
        let reissue = feed(&mut gw, GwConn(1), &wire);
        assert!(reissue
            .iter()
            .any(|a| matches!(a, Action::Count { counter } if *counter == "gateway.reissues_served_from_cache")));
        assert!(reissue
            .iter()
            .any(|a| matches!(a, Action::ToClient { bytes, .. } if *bytes == reply)));
    }

    #[test]
    fn a_voting_group_leaves_no_ballot_behind() {
        /// Server group 10 votes over three live replicas.
        struct Voting;
        impl DomainView for Voting {
            fn live_gateway_peers(&self) -> usize {
                1
            }
            fn votes(&self, _group: GroupId) -> bool {
                true
            }
            fn live_replicas(&self, _group: GroupId) -> usize {
                3
            }
        }
        let mut gw = engine(0);
        gw.on_client_accepted(GwConn(1));
        let mut replies = 0;
        for request_id in 1..=200u32 {
            let req = Request {
                request_id,
                response_expected: true,
                object_key: ObjectKey::new(0, 10).to_bytes(),
                operation: "get".into(),
                ..Request::default()
            };
            feed(
                &mut gw,
                GwConn(1),
                &GiopMessage::Request(req).encode(ByteOrder::Big),
            );
            let reply = GiopMessage::Reply(Reply::success(request_id, vec![request_id as u8]))
                .encode(ByteOrder::Big);
            let payload = DomainMsg::Iiop {
                header: FtHeader {
                    client: 1,
                    source: GroupId(10),
                    target: GroupId(100),
                    kind: OperationKind::Response,
                    parent_ts: 0,
                    child_seq: request_id,
                },
                iiop: reply,
            }
            .encode();
            // One copy per replica: the second decides, the third is late.
            for _ in 0..3 {
                let out = gw.on_delivery_from_domain(GroupId(100), &payload, &Voting);
                replies += out
                    .iter()
                    .filter(|a| matches!(a, Action::ToClient { .. }))
                    .count();
            }
        }
        assert_eq!(replies, 200, "one reply per request");
        assert_eq!(gw.voter.open_ballots(), 0);
    }

    #[test]
    fn clocked_engine_emits_admission_to_reply_latency_once() {
        use ftd_obs::ManualClock;
        let clock = Arc::new(ManualClock::new());
        let mut gw = engine(0);
        gw.set_clock(clock.clone());
        gw.on_client_accepted(GwConn(1));
        let req = Request {
            request_id: 3,
            response_expected: true,
            object_key: ObjectKey::new(0, 10).to_bytes(),
            operation: "get".into(),
            ..Request::default()
        };
        let wire = GiopMessage::Request(req).encode(ByteOrder::Big);
        feed(&mut gw, GwConn(1), &wire);

        clock.advance(350);
        let reply = GiopMessage::Reply(Reply::success(3, vec![9])).encode(ByteOrder::Big);
        let header = FtHeader {
            client: 1,
            source: GroupId(10),
            target: GroupId(100),
            kind: OperationKind::Response,
            parent_ts: 0,
            child_seq: 3,
        };
        let payload = DomainMsg::Iiop {
            header,
            iiop: reply,
        }
        .encode();
        let first = gw.on_delivery_from_domain(GroupId(100), &payload, &SoloView);
        let latencies: Vec<_> = first
            .iter()
            .filter_map(|a| match a {
                Action::Latency { group, micros } => Some((*group, *micros)),
                _ => None,
            })
            .collect();
        assert_eq!(latencies, vec![(GroupId(10), 350)]);
        // The duplicate closes no span: the distribution stays unskewed.
        let second = gw.on_delivery_from_domain(GroupId(100), &payload, &SoloView);
        assert!(!second.iter().any(|a| matches!(a, Action::Latency { .. })));
    }

    #[test]
    fn unclocked_engine_emits_no_latency_actions() {
        let mut gw = engine(0);
        gw.on_client_accepted(GwConn(1));
        let req = Request {
            request_id: 1,
            response_expected: true,
            object_key: ObjectKey::new(0, 10).to_bytes(),
            operation: "get".into(),
            ..Request::default()
        };
        let wire = GiopMessage::Request(req).encode(ByteOrder::Big);
        let actions = feed(&mut gw, GwConn(1), &wire);
        assert!(!actions.iter().any(|a| matches!(a, Action::Latency { .. })));
    }

    #[test]
    fn unroutable_domain_yields_exception_reply() {
        let mut gw = engine(0);
        gw.on_client_accepted(GwConn(4));
        let req = Request {
            request_id: 1,
            response_expected: true,
            object_key: ObjectKey::new(9, 10).to_bytes(), // foreign domain, no route
            operation: "get".into(),
            ..Request::default()
        };
        let wire = GiopMessage::Request(req).encode(ByteOrder::Big);
        let actions = feed(&mut gw, GwConn(4), &wire);
        assert!(actions.iter().any(
            |a| matches!(a, Action::Count { counter } if *counter == "gateway.unroutable_domains")
        ));
        assert!(actions.iter().any(|a| matches!(a, Action::ToClient { .. })));
    }

    #[test]
    fn bridge_queues_until_connected_then_flushes_in_order() {
        let mut config = EngineConfig::new(0, GroupId(100), 0);
        config.peer_domains.insert(2);
        let mut gw = GatewayEngine::new(config, BTreeMap::new());
        gw.on_client_accepted(GwConn(1));
        let mk = |id: u32| {
            GiopMessage::Request(Request {
                request_id: id,
                response_expected: true,
                object_key: ObjectKey::new(2, 10).to_bytes(),
                operation: "get".into(),
                ..Request::default()
            })
            .encode(ByteOrder::Big)
        };
        let first = feed(&mut gw, GwConn(1), &mk(1));
        assert!(first
            .iter()
            .any(|a| matches!(a, Action::BridgeConnect { domain: 2 })));
        // Second request while connecting: queued, no second connect.
        let second = feed(&mut gw, GwConn(1), &mk(2));
        assert!(!second
            .iter()
            .any(|a| matches!(a, Action::BridgeConnect { .. })));
        let flushed = gw.on_bridge_connected(2);
        let sends: Vec<_> = flushed
            .iter()
            .filter(|a| matches!(a, Action::ToBridge { domain: 2, .. }))
            .collect();
        assert_eq!(sends.len(), 2, "both queued requests flush in order");
    }

    /// A `get` request as an enhanced client with `client_id` would
    /// send it (service context carrying the id).
    fn enhanced_request(request_id: u32, client_id: u32) -> Vec<u8> {
        let mut req = Request {
            request_id,
            response_expected: true,
            object_key: ObjectKey::new(0, 10).to_bytes(),
            operation: "get".into(),
            ..Request::default()
        };
        req.service_contexts = vec![ServiceContext::new(
            FT_CLIENT_ID_SERVICE_CONTEXT,
            client_id.to_be_bytes().to_vec(),
        )];
        GiopMessage::Request(req).encode(ByteOrder::Big)
    }

    #[test]
    fn relayed_reply_primes_cache_and_serves_reissue_byte_identically() {
        // Peer gateway B never saw the request; a PeerReply delivery
        // must leave B able to answer a reissue from its cache.
        let mut gw = engine(1);
        let reply = GiopMessage::Reply(Reply::success(5, vec![1, 2, 3])).encode(ByteOrder::Big);
        let relay = GwMsg::PeerReply {
            client: 0x5000_0001,
            request_id: 5,
            server: GroupId(10),
            member: 0,
            seq: 0,
            crc: 0,
            digest: 0,
            reply: reply.clone(),
        }
        .encode();
        let actions = gw.on_delivery_from_domain(GroupId(100), &relay, &SoloView);
        assert!(
            actions.iter().any(|a| matches!(a, Action::Count { counter }
                if *counter == "gateway.replies_cached_for_peer_clients")),
            "no local client: cached for the peer's client"
        );
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, Action::Multicast { .. })),
            "a relayed reply must never be re-relayed (multicast loop)"
        );

        // The crashed peer's client fails over to B and reissues.
        gw.on_client_accepted(GwConn(9));
        let reissue = feed(&mut gw, GwConn(9), &enhanced_request(5, 0x5000_0001));
        assert!(reissue.iter().any(|a| matches!(a, Action::Count { counter }
                if *counter == "gateway.reissues_served_from_cache")));
        assert!(
            reissue
                .iter()
                .any(|a| matches!(a, Action::ToClient { bytes, .. } if *bytes == reply)),
            "reissue answered with the exact relayed bytes"
        );
    }

    #[test]
    fn relayed_bytes_overwrite_the_local_replica_reply() {
        // B's own domain replica executed the relayed invocation and
        // produced (possibly divergent) bytes first; the authoritative
        // relay must win the cache, and B must not deliver twice.
        let mut gw = engine(1);
        let client = 0x5000_0002;
        let local = GiopMessage::Reply(Reply::success(6, vec![0xAA])).encode(ByteOrder::Big);
        let header = FtHeader {
            client,
            source: GroupId(10),
            target: GroupId(100),
            kind: OperationKind::Response,
            parent_ts: 0,
            child_seq: 6,
        };
        let local_payload = DomainMsg::Iiop {
            header,
            iiop: local,
        }
        .encode();
        gw.on_delivery_from_domain(GroupId(100), &local_payload, &SoloView);

        let relayed = GiopMessage::Reply(Reply::success(6, vec![0xBB])).encode(ByteOrder::Big);
        let relay = GwMsg::PeerReply {
            client,
            request_id: 6,
            server: GroupId(10),
            member: 0,
            seq: 0,
            crc: 0,
            digest: 0,
            reply: relayed.clone(),
        }
        .encode();
        let actions = gw.on_delivery_from_domain(GroupId(100), &relay, &SoloView);
        assert!(
            !actions.iter().any(|a| matches!(a, Action::ToClient { .. })),
            "already answered by the local response path"
        );

        gw.on_client_accepted(GwConn(3));
        let reissue = feed(&mut gw, GwConn(3), &enhanced_request(6, client));
        assert!(
            reissue
                .iter()
                .any(|a| matches!(a, Action::ToClient { bytes, .. } if *bytes == relayed)),
            "the authoritative relayed bytes win the cache"
        );
    }

    #[test]
    fn local_response_after_relay_is_suppressed_and_does_not_clobber() {
        let mut gw = engine(1);
        let client = 0x5000_0003;
        let relayed = GiopMessage::Reply(Reply::success(7, vec![0xBB])).encode(ByteOrder::Big);
        let relay = GwMsg::PeerReply {
            client,
            request_id: 7,
            server: GroupId(10),
            member: 0,
            seq: 0,
            crc: 0,
            digest: 0,
            reply: relayed.clone(),
        }
        .encode();
        gw.on_delivery_from_domain(GroupId(100), &relay, &SoloView);

        // B's replica answers later with different bytes: suppressed.
        let local = GiopMessage::Reply(Reply::success(7, vec![0xAA])).encode(ByteOrder::Big);
        let header = FtHeader {
            client,
            source: GroupId(10),
            target: GroupId(100),
            kind: OperationKind::Response,
            parent_ts: 0,
            child_seq: 7,
        };
        let payload = DomainMsg::Iiop {
            header,
            iiop: local,
        }
        .encode();
        let actions = gw.on_delivery_from_domain(GroupId(100), &payload, &SoloView);
        assert!(actions.iter().any(|a| matches!(a, Action::Count { counter }
                if *counter == "gateway.duplicate_responses_suppressed")));

        gw.on_client_accepted(GwConn(3));
        let reissue = feed(&mut gw, GwConn(3), &enhanced_request(7, client));
        assert!(reissue
            .iter()
            .any(|a| matches!(a, Action::ToClient { bytes, .. } if *bytes == relayed)));
    }

    #[test]
    fn relay_replies_config_multicasts_the_delivered_bytes_before_the_ack() {
        let mut config = EngineConfig::new(0, GroupId(100), 0);
        config.relay_replies = true;
        let mut gw = GatewayEngine::new(config, BTreeMap::new());
        gw.on_client_accepted(GwConn(1));
        let req = Request {
            request_id: 3,
            response_expected: true,
            object_key: ObjectKey::new(0, 10).to_bytes(),
            operation: "get".into(),
            ..Request::default()
        };
        let wire = GiopMessage::Request(req).encode(ByteOrder::Big);
        feed(&mut gw, GwConn(1), &wire);

        let reply = GiopMessage::Reply(Reply::success(3, vec![9])).encode(ByteOrder::Big);
        let header = FtHeader {
            client: 1,
            source: GroupId(10),
            target: GroupId(100),
            kind: OperationKind::Response,
            parent_ts: 0,
            child_seq: 3,
        };
        let payload = DomainMsg::Iiop {
            header,
            iiop: reply.clone(),
        }
        .encode();
        let actions = gw.on_delivery_from_domain(GroupId(100), &payload, &SoloView);
        let relay_at = actions.iter().position(|a| {
            matches!(a, Action::Multicast { group, payload }
            if *group == GroupId(100)
                && matches!(
                    GwMsg::decode(payload),
                    Ok(GwMsg::PeerReply { request_id: 3, reply: r, .. }) if r == reply
                ))
        });
        let ack_at = actions
            .iter()
            .position(|a| matches!(a, Action::ToClient { .. }));
        match (relay_at, ack_at) {
            (Some(relay), Some(ack)) => {
                assert!(relay < ack, "relay must precede the client ack")
            }
            other => panic!("expected relay + ack, got {other:?} in {actions:?}"),
        }

        // Without the flag (default), no gateway-group multicast.
        let mut plain = engine(0);
        plain.on_client_accepted(GwConn(1));
        let req = Request {
            request_id: 3,
            response_expected: true,
            object_key: ObjectKey::new(0, 10).to_bytes(),
            operation: "get".into(),
            ..Request::default()
        };
        feed(
            &mut plain,
            GwConn(1),
            &GiopMessage::Request(req).encode(ByteOrder::Big),
        );
        let actions = plain.on_delivery_from_domain(GroupId(100), &payload, &SoloView);
        assert!(!actions
            .iter()
            .any(|a| matches!(a, Action::Multicast { group, .. } if *group == GroupId(100))));
    }

    fn relay_engine(index: u32) -> GatewayEngine {
        let config = EngineConfig::builder(0, GroupId(100), index)
            .relay_replies(true)
            .build();
        GatewayEngine::new(config, BTreeMap::new())
    }

    /// Drives one enhanced-client request plus its domain response
    /// through `gw` and returns the `(seq, crc, digest)` fingerprint it
    /// piggybacked on the relayed [`GwMsg::PeerReply`].
    fn drive_fingerprinted_response(gw: &mut GatewayEngine, request_id: u32) -> (u64, u32, u64) {
        let client = 0x5000_0009;
        gw.on_client_accepted(GwConn(1));
        feed(gw, GwConn(1), &enhanced_request(request_id, client));
        let reply =
            GiopMessage::Reply(Reply::success(request_id, vec![7, 7, 7])).encode(ByteOrder::Big);
        let header = FtHeader {
            client,
            source: GroupId(10),
            target: GroupId(100),
            kind: OperationKind::Response,
            parent_ts: 0,
            child_seq: request_id,
        };
        let payload = DomainMsg::Iiop {
            header,
            iiop: reply,
        }
        .encode();
        let actions = gw.on_delivery_from_domain(GroupId(100), &payload, &SoloView);
        actions
            .iter()
            .find_map(|a| match a {
                Action::Multicast { payload, .. } => match GwMsg::decode(payload) {
                    Ok(GwMsg::PeerReply {
                        seq, crc, digest, ..
                    }) => Some((seq, crc, digest)),
                    _ => None,
                },
                _ => None,
            })
            .expect("a relay_replies engine relays a PeerReply")
    }

    /// An encoded [`GwMsg::PeerReply`] as peer `member` would relay it.
    fn peer_reply(member: u32, request_id: u32, fp: (u64, u32, u64)) -> Vec<u8> {
        GwMsg::PeerReply {
            client: 0x5000_0009,
            request_id,
            server: GroupId(10),
            member,
            seq: fp.0,
            crc: fp.1,
            digest: fp.2,
            reply: vec![1, 2, 3],
        }
        .encode()
    }

    #[test]
    fn two_disagreeing_peers_fence_the_minority_member() {
        let mut gw = relay_engine(3);
        let fp = drive_fingerprinted_response(&mut gw, 1);
        assert_eq!(fp.0, 1, "first fingerprinted response is seq 1");

        // A peer that agrees raises nothing.
        let ok = gw.on_delivery_from_domain(GroupId(100), &peer_reply(1, 1, fp), &SoloView);
        assert!(!ok.iter().any(|a| matches!(a, Action::Divergence { .. })));

        // One disagreeing peer: divergence, but it might be *them*.
        let bad = (fp.0, fp.1 ^ 0xFF, fp.2);
        let one = gw.on_delivery_from_domain(GroupId(100), &peer_reply(1, 1, bad), &SoloView);
        assert!(one.iter().any(|a| matches!(
            a,
            Action::Divergence {
                group: 10,
                seq: 1,
                member: 1
            }
        )));
        assert!(!one.iter().any(|a| matches!(a, Action::Fence)));
        assert!(!gw.is_fenced());

        // A second distinct disagreeing peer makes us the minority.
        let two = gw.on_delivery_from_domain(GroupId(100), &peer_reply(2, 1, bad), &SoloView);
        assert!(two
            .iter()
            .any(|a| matches!(a, Action::Divergence { member: 2, .. })));
        assert!(two.iter().any(|a| matches!(a, Action::Fence)));
        assert!(gw.is_fenced());

        // Fenced: client work is shed on contact.
        let shed = feed(
            &mut gw,
            GwConn(1),
            &GiopMessage::CloseConnection.encode(ByteOrder::Big),
        );
        assert_eq!(shed, vec![Action::CloseClient { conn: GwConn(1) }]);
        let accept = gw.on_client_accepted(GwConn(9));
        assert_eq!(accept, vec![Action::CloseClient { conn: GwConn(9) }]);
    }

    #[test]
    fn an_injected_corruption_is_caught_by_peer_cross_checks() {
        let mut honest = relay_engine(1);
        let mut corrupt = GatewayEngine::new(
            EngineConfig::builder(0, GroupId(100), 2)
                .relay_replies(true)
                .corrupt_after(0)
                .build(),
            BTreeMap::new(),
        );
        let fp_honest = drive_fingerprinted_response(&mut honest, 1);
        let fp_corrupt = drive_fingerprinted_response(&mut corrupt, 1);
        assert_eq!(fp_honest.0, fp_corrupt.0, "same sequence position");
        assert_ne!(
            fp_honest.1, fp_corrupt.1,
            "the flipped byte changes the CRC"
        );

        // Each side sees exactly one disagreeing peer — divergence is
        // flagged, but neither fences on a single vote.
        let at_corrupt =
            corrupt.on_delivery_from_domain(GroupId(100), &peer_reply(1, 1, fp_honest), &SoloView);
        assert!(at_corrupt
            .iter()
            .any(|a| matches!(a, Action::Divergence { member: 1, .. })));
        let at_honest =
            honest.on_delivery_from_domain(GroupId(100), &peer_reply(2, 1, fp_corrupt), &SoloView);
        assert!(at_honest
            .iter()
            .any(|a| matches!(a, Action::Divergence { member: 2, .. })));
        assert!(!honest.is_fenced() && !corrupt.is_fenced());
    }

    #[test]
    fn a_losing_local_response_still_extends_the_fingerprint_chain() {
        let mut gw = relay_engine(1);
        gw.on_client_accepted(GwConn(1));
        feed(&mut gw, GwConn(1), &enhanced_request(1, 0x5000_0009));
        // The owner's relay wins the delivery race (seq 0: no check)...
        gw.on_delivery_from_domain(GroupId(100), &peer_reply(2, 1, (0, 0, 0)), &SoloView);
        // ...but the local domain response must still be fingerprinted,
        // or this member's sequence falls behind its peers' forever.
        let reply = GiopMessage::Reply(Reply::success(1, vec![9])).encode(ByteOrder::Big);
        let header = FtHeader {
            client: 0x5000_0009,
            source: GroupId(10),
            target: GroupId(100),
            kind: OperationKind::Response,
            parent_ts: 0,
            child_seq: 1,
        };
        let payload = DomainMsg::Iiop {
            header,
            iiop: reply,
        }
        .encode();
        let actions = gw.on_delivery_from_domain(GroupId(100), &payload, &SoloView);
        assert!(actions.iter().any(|a| matches!(a, Action::Count { counter }
            if *counter == "gateway.duplicate_responses_suppressed")));
        assert_eq!(gw.response_digests().len(), 1);
        let (group, seq, _) = gw.response_digests()[0];
        assert_eq!((group, seq), (10, 1));
    }

    #[test]
    fn seeded_chains_advance_only_and_cover_transferred_responses() {
        let mut gw = relay_engine(3);
        gw.seed_chain(10, 7, 0xDEAD);
        assert_eq!(gw.response_digests(), vec![(10, 7, 0xDEAD)]);
        // A stale seed never rolls an already-seeded chain backwards.
        gw.seed_chain(10, 3, 0xBEEF);
        assert_eq!(gw.response_digests(), vec![(10, 7, 0xDEAD)]);
        // Cross-checks at sequences the seed covers hit the cleared
        // window and are skipped — a rejoiner is never fenced for
        // history it installed rather than executed.
        let none =
            gw.on_delivery_from_domain(GroupId(100), &peer_reply(1, 1, (5, 1, 2)), &SoloView);
        assert!(!none.iter().any(|a| matches!(a, Action::Divergence { .. })));
        assert!(!gw.is_fenced());

        // A response the snapshot already covers (noted below) must not
        // extend the chain when the local replica re-answers it.
        let header = FtHeader {
            client: 0x5000_0009,
            source: GroupId(10),
            target: GroupId(100),
            kind: OperationKind::Response,
            parent_ts: 0,
            child_seq: 1,
        };
        gw.note_domain_response(header.operation_id());
        let payload = DomainMsg::Iiop {
            header,
            iiop: GiopMessage::Reply(Reply::success(1, vec![9])).encode(ByteOrder::Big),
        }
        .encode();
        gw.on_delivery_from_domain(GroupId(100), &payload, &SoloView);
        assert_eq!(gw.response_digests(), vec![(10, 7, 0xDEAD)]);
    }
}
