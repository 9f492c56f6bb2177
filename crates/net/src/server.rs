//! The real-socket gateway front end: [`GatewayServer`] listens on an
//! operating-system TCP port and runs the transport-agnostic
//! [`GatewayEngine`] against it — sharded by server group across N
//! engine threads.
//!
//! Threading (§3.1's "gateway process", mapped onto threads — the
//! count is fixed at startup and does **not** grow with connections):
//!
//! * an **accept thread** blocks on the listener, flips each accepted
//!   socket nonblocking, and hands it to one shard (round-robin) for
//!   ownership,
//! * **N shard threads** (`GatewayServer::builder().shards(n)`, default
//!   `std::thread::available_parallelism`) each host one sans-IO
//!   [`Shard`]: a [`GatewayEngine`] with that shard's slice of the §3.2
//!   client-id counters, §3.3 duplicate-suppression filter, and §3.5
//!   response cache, plus every admission and routing decision around
//!   it. The thread itself holds only sockets, buffers, writers,
//!   channels and metrics: a readiness **reactor** (`poll(2)` via
//!   [`crate::Poller`]) over the connections it owns drains readable
//!   sockets into reusable per-connection [`FrameBuf`]s, hands each
//!   complete frame to the shard **in place**, and applies what the
//!   shard returns. A frame whose group routes to the owning shard runs
//!   through [`GatewayEngine::on_client_frame`] on the borrowed bytes
//!   when the admission window has room (zero copy — the raw big-endian
//!   frame *is* the multicast payload); a frame that must outlive the
//!   read buffer — bound for another shard over the lock-free
//!   [`ShardRouter`]'s queue, or waiting for the window — is copied
//!   once, as bytes, and re-parsed when its turn comes, so what the
//!   domain receives never depends on how busy the gateway was. Replies
//!   go through shared nonblocking writers with partial-write queues: a
//!   slow client backs its own connection up (and is disconnected past
//!   a bounded queue), never a shard thread. Admission is an in-flight
//!   window ([`AdmissionPolicy`]) with an end-of-tick batch pass over
//!   whatever waited — a deferred request is the same frame through the
//!   same engine entry point, a tick later,
//! * one **domain thread** owns this gateway's in-process domain (the
//!   [`DomainBackend`] from [`GatewayBuilder::host`]), advances its
//!   virtual clock a slice per pump (once per millisecond when idle,
//!   back to back while commands are queued), and routes ordered
//!   deliveries back to the shard queues (replica responses to the shard
//!   owning their group, gateway-group coordination to every shard).
//!   Every gateway owns exactly one domain; more than one gateway is a
//!   gateway group ([`GatewayBuilder::group`]), each member with its own
//!   domain replica,
//! * optionally, a **metrics thread** serves `GET /metrics` (Prometheus
//!   text), `GET /metrics.json`, and `GET /health` over a minimal
//!   HTTP/1.0 responder on a separate admin listener (see
//!   [`ServerOptions::metrics_addr`]).
//!
//! # Graceful degradation (§3.5 fault model)
//!
//! The gateway survives its domain rather than crashing with it. The
//! domain thread re-checks the ring after every pump; while it is not
//! operational the gateway is **degraded**: the health gauge drops to 0,
//! `GET /health` answers `503 degraded`, and new connections are shed at
//! accept time (existing clients keep being served — with a partial ring
//! the surviving replicas still answer). When the ring heals the gateway
//! recovers by itself. Each connection carries a bounded inbound budget
//! (every frame queued inside the gateway, on its own shard or another,
//! is charged to it) and a bounded outbound queue, so one client
//! flooding bytes faster than its shard admits them — or reading replies
//! slower than it provokes them — is disconnected instead of growing a
//! queue without limit.
//!
//! Every thread reports into one shared [`ftd_obs::Registry`]: the
//! engines' `gateway.*` counters and per-group latency histogram, the
//! per-shard `gateway.shard.*` series, the transport's `net.*`
//! byte/frame counters, and — through the bridge bound to the in-process
//! domain's world — the `totem.*` ring counters. [`GatewayServer::stats`]
//! reconstructs the legacy [`Stats`] view from that registry.
//!
//! Nothing but `std::net` and `std::sync` is used — the crate adds zero
//! external dependencies.

use crate::backend::DomainBackend;
use crate::domain::{DeliverySink, DomainFault, DomainLink, DomainService, TICK_REAL};
use crate::group::GroupOptions;
use crate::reactor::{raw_fd, Interest, Poller, Waker, MAX_POLL_TIMEOUT};
use crate::relay::GroupRelay;
use crate::store::GatewayStore;
pub use ftd_core::CONN_INBOUND_BUDGET;
use ftd_core::{
    classify_delivery, Action, DeliveryRoute, EngineConfig, EngineTap, Error, GatewayEngine,
    GwConn, RecordedView, Shard, ShardError, ShardOutput, ShardRouter, ShardSink,
    ENGINE_LATENCY_SERIES,
};
use ftd_eternal::{GatewayEndpoint, IorPublisher, OperationId};
use ftd_giop::{FrameBuf, Ior, FRAME_BUF_READ_CHUNK};
use ftd_group::{FrameHandler, GroupConfig, GroupMember, GroupNode, PeerMesh};
use ftd_obs::{names, Clock, Counter, Histogram, RealClock, Registry};
use ftd_replay::{EngineSetup, Recorder, RecordingClock, ReplayEvent, ShardTap};
use ftd_sim::Stats;
use ftd_store::FsyncPolicy;
use ftd_totem::GroupId;
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Most unsent reply bytes a connection's writer may queue while the
/// client's socket refuses them. A client that stops reading while
/// replies keep arriving is disconnected once the queue passes this,
/// protecting the gateway's memory from slow consumers.
const CONN_OUTBOUND_BUDGET: usize = 4 << 20;

/// Default in-flight admission window per shard (see
/// [`AdmissionPolicy::max_inflight`]).
pub const DEFAULT_MAX_INFLIGHT: usize = 256;

/// Per-shard admission control, accepted by
/// [`GatewayBuilder::admission`]: an in-flight window. A request is
/// admitted while the window has room and nothing waits ahead of it,
/// and queues FIFO otherwise until the end-of-tick batch pass (deferral
/// past a full tick is the exception, counted by
/// `gateway.shard.deferrals`).
///
/// The struct is `#[non_exhaustive]`; build one from
/// [`AdmissionPolicy::default`] or [`AdmissionPolicy::inflight_window`]
/// and the chainable setter:
///
/// ```
/// use ftd_net::AdmissionPolicy;
/// let policy = AdmissionPolicy::default().max_inflight(64);
/// assert_eq!(policy.max_inflight, 64);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct AdmissionPolicy {
    /// Most requests one shard may have inside the domain at once
    /// (admitted but unanswered). Default [`DEFAULT_MAX_INFLIGHT`].
    pub max_inflight: usize,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy::inflight_window(DEFAULT_MAX_INFLIGHT)
    }
}

impl AdmissionPolicy {
    /// An in-flight window of `window` (clamped to at least 1): at most
    /// `window` requests in the domain at once per shard, the rest
    /// deferred FIFO.
    pub fn inflight_window(window: usize) -> Self {
        AdmissionPolicy {
            max_inflight: window.max(1),
        }
    }

    /// Sets the in-flight window (clamped to at least 1).
    pub fn max_inflight(mut self, window: usize) -> Self {
        self.max_inflight = window.max(1);
        self
    }
}

/// Engine-side gauges mirrored out of a shard thread after every batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// Clients currently known to the engine (§3.2 identity table size).
    pub connected_clients: usize,
    /// Duplicate responses suppressed so far (Fig. 3's headline number).
    pub duplicates_suppressed: u64,
    /// Replies currently cached for §3.5 failover reissues.
    pub cached_responses: usize,
}

impl EngineSnapshot {
    fn of(engine: &GatewayEngine) -> EngineSnapshot {
        EngineSnapshot {
            connected_clients: engine.connected_clients(),
            duplicates_suppressed: engine.duplicates_suppressed(),
            cached_responses: engine.cached_responses(),
        }
    }

    fn absorb(&mut self, other: &EngineSnapshot) {
        self.connected_clients += other.connected_clients;
        self.duplicates_suppressed += other.duplicates_suppressed;
        self.cached_responses += other.cached_responses;
    }
}

/// Optional serving knobs. Construct via [`ServerOptions::builder`] (the
/// struct is `#[non_exhaustive]`, so literal construction only works
/// inside this crate).
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct ServerOptions {
    /// Address for the admin/metrics listener (e.g. `"127.0.0.1:9100"`,
    /// port 0 for ephemeral). `None` disables the endpoint.
    pub metrics_addr: Option<String>,
}

impl ServerOptions {
    /// Starts building [`ServerOptions`].
    pub fn builder() -> ServerOptionsBuilder {
        ServerOptionsBuilder::default()
    }
}

/// Builder for [`ServerOptions`]; see [`ServerOptions::builder`].
#[derive(Debug, Clone, Default)]
pub struct ServerOptionsBuilder {
    metrics_addr: Option<String>,
}

impl ServerOptionsBuilder {
    /// Enables the `GET /metrics` + `GET /health` admin listener on `addr`.
    pub fn metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.metrics_addr = Some(addr.into());
        self
    }

    /// Finishes the options.
    pub fn build(self) -> ServerOptions {
        ServerOptions {
            metrics_addr: self.metrics_addr,
        }
    }
}

/// Everything a gateway's shards drained on shutdown, beyond the final
/// [`Stats`]: per-shard engine gauges and the flushed §3.5 response
/// caches (no cached reply is silently lost on a graceful stop — a
/// redundant-gateway deployment would hand these to its successor).
#[derive(Debug)]
pub struct ShutdownReport {
    /// Final statistics (same as [`GatewayServer::stats`]).
    pub stats: Stats,
    /// Final per-shard engine gauges, indexed by shard.
    pub shards: Vec<EngineSnapshot>,
    /// Cached responses flushed from every shard's response cache.
    pub cached_replies: Vec<(OperationId, Vec<u8>)>,
}

/// Transport events flowing from the accept/peer threads (and between
/// shard threads) to a shard thread.
pub(crate) enum ShardEv {
    /// A connection was accepted (fanned to every shard); the writer is
    /// the shared nonblocking write half, the counter its inbound
    /// budget ([`CONN_INBOUND_BUDGET`]).
    Accepted(u64, Arc<ConnWriter>, Arc<AtomicUsize>),
    /// The read half of an accepted connection, sent only to its owning
    /// shard (strictly after the `Accepted` fan-out): the shard
    /// registers it with its reactor and owns its frame buffer from
    /// here on. The stream is shared with the connection's
    /// [`ConnWriter`] — reads and writes go through `&TcpStream`, so
    /// one descriptor serves both halves.
    Adopt(u64, Arc<TcpStream>),
    /// One complete, validated wire frame forwarded from the owning
    /// shard — the one copy a frame takes when it must outlive the read
    /// buffer. Its length was charged to the connection's budget and is
    /// released when the frame is processed.
    Msg(u64, Box<[u8]>),
    /// A connection reached EOF or errored (fanned to every shard).
    Closed(u64),
    /// An ordered delivery from the domain routed to this shard.
    Delivery(GroupId, Vec<u8>),
    /// A peer gateway reported one of its clients gone (an encoded
    /// [`GwMsg::ClientGone`]); the shard garbage collects that client's
    /// state after the configured linger, not immediately — the §3.5
    /// failover window.
    PeerGone(Vec<u8>),
    /// Report the engine's per-group response fingerprints (the donor
    /// side of a gateway-group state transfer uses this as a FIFO
    /// barrier: everything queued before it has been applied).
    ExportChains(Sender<Vec<(u32, u64, u64)>>),
    /// Seed the engine from a gateway-group state transfer: reply
    /// digests (so cross-checks at covered sequences skip instead of
    /// misfiring), recovered §3.2 counters, and transferred cached
    /// responses. Acked so the relay can order the domain install after
    /// every engine is primed.
    SeedTransfer {
        /// `(group, responses_seen, rolling_digest)` triples.
        chains: Vec<(u32, u64, u64)>,
        /// Recovered `(server_group, counter)` values.
        counters: Vec<(u32, u32)>,
        /// Transferred `(operation, reply)` pairs.
        responses: Vec<(OperationId, Vec<u8>)>,
        /// Signalled once the engine absorbed the state.
        ack: Sender<()>,
    },
    /// Stop serving; the queue ahead of this sentinel is drained first.
    Shutdown,
}

/// A shard's cross-thread doorbell: other threads push connection ids
/// whose writers just queued unsent bytes, then ring the reactor's
/// waker; the owning shard drains the list and registers write
/// interest for those connections.
pub(crate) struct Doorbell {
    waker: Waker,
    dirty: Mutex<Vec<u64>>,
}

impl Doorbell {
    fn new(waker: Waker) -> Doorbell {
        Doorbell {
            waker,
            dirty: Mutex::new(Vec::new()),
        }
    }

    fn ring(&self, id: u64) {
        if let Ok(mut dirty) = self.dirty.lock() {
            dirty.push(id);
        }
        self.waker.wake();
    }

    fn drain(&self) -> Vec<u64> {
        self.dirty
            .lock()
            .map(|mut dirty| std::mem::take(&mut *dirty))
            .unwrap_or_default()
    }
}

/// The one way to hand a shard thread an event: its queue plus its
/// doorbell. [`ShardQueue::send`] rings, so a shard asleep in `poll(2)`
/// sees the event now rather than at its next poll timeout; a caller
/// queuing a batch uses [`ShardQueue::push`] and rings once at the end.
#[derive(Clone)]
pub(crate) struct ShardQueue {
    tx: Sender<ShardEv>,
    bell: Arc<Doorbell>,
}

impl ShardQueue {
    /// Queues `ev` and rings the shard. `false` once the shard is gone.
    pub(crate) fn send(&self, ev: ShardEv) -> bool {
        let sent = self.push(ev);
        self.ring();
        sent
    }

    /// Queues `ev` without ringing; the caller rings after its batch.
    fn push(&self, ev: ShardEv) -> bool {
        self.tx.send(ev).is_ok()
    }

    fn ring(&self) {
        self.bell.waker.wake();
    }
}

/// The gateway's [`DeliverySink`]: one pump's ordered deliveries go to
/// the shard queues (replica responses to the shard owning their group,
/// gateway-group coordination to every shard), then each shard that got
/// at least one is rung exactly once.
fn delivery_sink(router: Arc<ShardRouter>, queues: Vec<ShardQueue>) -> DeliverySink {
    Box::new(move |batch| route_batch(&router, &queues, batch, |i| queues[i].ring()))
}

/// Queues every delivery of `batch` on the shard(s) it routes to, moving
/// each payload (only a fan-out to every shard clones), then calls
/// `ring` once per shard that got at least one.
fn route_batch(
    router: &ShardRouter,
    queues: &[ShardQueue],
    batch: Vec<(GroupId, Vec<u8>)>,
    mut ring: impl FnMut(usize),
) {
    let mut got = vec![false; queues.len()];
    for (group, payload) in batch {
        match classify_delivery(router, &payload) {
            DeliveryRoute::Shard(i) => {
                queues[i].push(ShardEv::Delivery(group, payload));
                got[i] = true;
            }
            DeliveryRoute::All => {
                for queue in queues {
                    queue.push(ShardEv::Delivery(group, payload.clone()));
                }
                got.fill(true);
            }
        }
    }
    for (i, got) in got.into_iter().enumerate() {
        if got {
            ring(i);
        }
    }
}

/// What one [`ConnWriter::write`] / [`ConnWriter::flush`] left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteState {
    /// Everything written to the socket; no queued bytes remain.
    Drained,
    /// The socket refused some bytes; they are queued and the owning
    /// shard holds (or was just rung for) write interest.
    Pending,
    /// The connection is dead (write error or outbound budget blown).
    Failed,
}

struct WriterInner {
    /// Shared with the owning shard's [`OwnedConn`]; writes go through
    /// `&TcpStream` so no duplicate descriptor is needed.
    stream: Arc<TcpStream>,
    /// Bytes the nonblocking socket refused, in write order. Drained by
    /// the owning shard on write readiness.
    pending: VecDeque<u8>,
}

/// The write half of one client connection, shared by every shard that
/// may answer on it. The socket is nonblocking: writes go straight to
/// the kernel while it accepts them, and queue (bounded by
/// [`CONN_OUTBOUND_BUDGET`]) when it pushes back — a stalled client
/// never blocks a shard thread. One mutex covers stream + queue so
/// concurrent shards never interleave partial frames and queued bytes
/// always drain before fresh ones.
pub(crate) struct ConnWriter {
    id: u64,
    inner: Mutex<WriterInner>,
    /// The owning shard's doorbell — rung when a write leaves bytes
    /// pending so that shard picks up write interest.
    doorbell: Arc<Doorbell>,
    partial_writes: Arc<Counter>,
}

impl ConnWriter {
    fn write(&self, bytes: &[u8]) -> bool {
        self.write_state(bytes) != WriteState::Failed
    }

    fn write_state(&self, bytes: &[u8]) -> WriteState {
        let Ok(mut guard) = self.inner.lock() else {
            return WriteState::Failed;
        };
        let inner = &mut *guard;
        if !inner.pending.is_empty() {
            // Earlier bytes are still queued; anything new must queue
            // behind them to keep the frame order.
            return self.enqueue(inner, bytes, false);
        }
        let mut off = 0;
        while off < bytes.len() {
            match (&*inner.stream).write(&bytes[off..]) {
                Ok(0) => return WriteState::Failed,
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.partial_writes.inc();
                    return self.enqueue(inner, &bytes[off..], true);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return WriteState::Failed,
            }
        }
        WriteState::Drained
    }

    fn enqueue(&self, inner: &mut WriterInner, bytes: &[u8], ring: bool) -> WriteState {
        if inner.pending.len() + bytes.len() > CONN_OUTBOUND_BUDGET {
            let _ = inner.stream.shutdown(Shutdown::Both);
            return WriteState::Failed;
        }
        inner.pending.extend(bytes.iter().copied());
        // Only the transition into "has pending bytes" needs the owner's
        // attention; later appends land behind an already-armed POLLOUT.
        if ring {
            self.doorbell.ring(self.id);
        }
        WriteState::Pending
    }

    /// Pushes queued bytes at the socket until it refuses again or the
    /// queue drains. Called by the owning shard on write readiness.
    fn flush(&self) -> WriteState {
        let Ok(mut guard) = self.inner.lock() else {
            return WriteState::Failed;
        };
        let inner = &mut *guard;
        loop {
            let (front, _) = inner.pending.as_slices();
            if front.is_empty() {
                return WriteState::Drained;
            }
            let wrote = match (&*inner.stream).write(front) {
                Ok(0) => return WriteState::Failed,
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return WriteState::Pending,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return WriteState::Failed,
            };
            inner.pending.drain(..wrote);
        }
    }

    fn has_pending(&self) -> bool {
        self.inner
            .lock()
            .map(|inner| !inner.pending.is_empty())
            .unwrap_or(false)
    }

    fn close(&self) {
        if let Ok(inner) = self.inner.lock() {
            let _ = inner.stream.shutdown(Shutdown::Both);
        }
    }
}

struct Shared {
    registry: Arc<Registry>,
    /// Per-shard engine gauges, mirrored out of each shard after every
    /// batch; summed by [`GatewayServer::snapshot`].
    shard_snapshots: Mutex<Vec<EngineSnapshot>>,
    /// Per-shard response-chain fingerprints, mirrored alongside the
    /// gauges; `GET /digest` merges them into the cross-member
    /// convergence report.
    digests: Mutex<Vec<Vec<(u32, u64, u64)>>>,
    shutdown: AtomicBool,
}

type HostFactory = Box<dyn FnOnce() -> ftd_core::Result<Box<dyn DomainBackend>> + Send + 'static>;

/// Builder for [`GatewayServer`] — the one way to start a gateway.
///
/// ```no_run
/// use ftd_net::{DomainHost, GatewayServer, ServerOptions};
/// use ftd_core::EngineConfig;
/// use ftd_eternal::ObjectRegistry;
/// use ftd_totem::GroupId;
///
/// let server = GatewayServer::builder()
///     .addr("127.0.0.1:0")
///     .config(EngineConfig::new(1, GroupId(0x4000_0001), 0))
///     .options(ServerOptions::builder().metrics_addr("127.0.0.1:0").build())
///     .shards(4)
///     .host(|| DomainHost::try_start(1, 4, 7, ObjectRegistry::new))
///     .build()
///     .expect("gateway starts");
/// # drop(server);
/// ```
pub struct GatewayBuilder {
    addr: String,
    config: Option<EngineConfig>,
    options: ServerOptions,
    registry: Option<Arc<Registry>>,
    clock: Option<Arc<dyn Clock>>,
    shards: Option<usize>,
    admission: AdmissionPolicy,
    pins: Vec<(GroupId, usize)>,
    host: Option<HostFactory>,
    data_dir: Option<PathBuf>,
    fsync: FsyncPolicy,
    recorder: Option<Arc<Recorder>>,
    record_err: Option<std::io::Error>,
    group: Option<GroupOptions>,
}

impl std::fmt::Debug for GatewayBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayBuilder")
            .field("addr", &self.addr)
            .field("shards", &self.shards)
            .field("data_dir", &self.data_dir)
            .finish()
    }
}

impl GatewayBuilder {
    /// The address to listen on (default `"127.0.0.1:0"`; port 0 binds
    /// an ephemeral port).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// The engine configuration (required).
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Optional serving knobs (admin/metrics listener).
    pub fn options(mut self, options: ServerOptions) -> Self {
        self.options = options;
        self
    }

    /// The metrics registry every gateway thread reports into (default:
    /// a fresh registry, exposed via [`GatewayServer::registry`]).
    pub fn registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// The clock behind the per-group admission→reply latency histogram
    /// (default: [`RealClock`]).
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// How many engine shards (threads) to run. Default:
    /// `std::thread::available_parallelism()`. Each server group's state
    /// lives on exactly one shard; 0 is rejected at [`GatewayBuilder::build`].
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Per-shard admission control: the in-flight window (default
    /// [`AdmissionPolicy::default`]). Total gateway admission capacity
    /// is `shards × window` — the knob behind multi-shard scaling.
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Pins `group`'s state to a specific shard in the lock-free routing
    /// table, overriding the hash placement (capacity planning, or
    /// spreading a known-hot set of groups evenly).
    pub fn pin_group(mut self, group: GroupId, shard: usize) -> Self {
        self.pins.push((group, shard));
        self
    }

    /// Serve a private in-process domain produced by `factory` (required;
    /// run on the gateway's own domain thread — the simulated world never
    /// crosses threads). Accepts any [`DomainBackend`]: the plain
    /// [`DomainHost`](crate::DomainHost), a
    /// [`DurableHost`](crate::DurableHost), or a test double.
    pub fn host<B, E>(mut self, factory: impl FnOnce() -> Result<B, E> + Send + 'static) -> Self
    where
        B: DomainBackend,
        E: Into<Error>,
    {
        self.host = Some(Box::new(move || {
            factory()
                .map(|b| Box::new(b) as Box<dyn DomainBackend>)
                .map_err(Into::into)
        }));
        self
    }

    /// Enables stable storage for this gateway's §3.5 response cache and
    /// §3.2 client-id counters under `dir` (the store lives in
    /// `dir/gateway`). With a data dir set, every cached reply is
    /// write-ahead logged *before* it reaches the client, and
    /// [`GatewayBuilder::build`] replays whatever a previous incarnation
    /// left behind — a restarted gateway keeps suppressing client
    /// reissues it answered before dying.
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// The fsync policy for the gateway's write-ahead log (default
    /// [`FsyncPolicy::Always`] — §3.5 exactly-once needs the reply on
    /// disk before the client sees it). Only meaningful with
    /// [`GatewayBuilder::data_dir`].
    pub fn fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Records every nondeterministic input crossing the gateway
    /// boundary — accepts, inbound GIOP messages, ring deliveries,
    /// engine clock reads, fault-plan events, recovery seeding — into an
    /// `ftd-replay` event log under `dir`, for offline deterministic
    /// replay (`ftd-replay replay <dir>`). The recording is created
    /// eagerly so [`GatewayBuilder::recorder`] can hand the live handle
    /// to a host factory (e.g. `DurableHost::open_recording`); a
    /// creation failure is deferred and surfaces at
    /// [`GatewayBuilder::build`].
    pub fn record_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        match Recorder::create(dir.into()) {
            Ok(rec) => self.recorder = Some(Arc::new(rec)),
            Err(e) => self.record_err = Some(e),
        }
        self
    }

    /// The recorder created by [`GatewayBuilder::record_dir`], if any —
    /// pass it into a host factory so domain recovery is recorded too.
    pub fn recorder(&self) -> Option<Arc<Recorder>> {
        self.recorder.clone()
    }

    /// Joins an out-of-process gateway group (§3.5's redundant
    /// gateways): starts the UDP membership node and the TCP relay mesh
    /// alongside this gateway, relays every admitted request and every
    /// delivered reply to the live peers, and turns on
    /// [`EngineConfig::relay_replies`] so a surviving peer can answer a
    /// failed-over client's reissue byte-identically from its
    /// relayed-response cache. Each member replicates the domain inputs
    /// into its *own* deterministic replica (its [`GatewayBuilder::host`]).
    /// This is the one way to put more than one gateway in front of a
    /// domain.
    pub fn group(mut self, options: GroupOptions) -> Self {
        self.group = Some(options);
        self
    }

    /// Binds the listener, brings the domain up on its own thread,
    /// spawns the shard/accept/metrics threads, and returns the serving
    /// gateway.
    pub fn build(self) -> ftd_core::Result<GatewayServer> {
        let mut config = self
            .config
            .ok_or_else(|| Error::config("GatewayServer::builder() requires .config(..)"))?;
        if let Some(e) = self.record_err {
            return Err(Error::Io(e));
        }
        let factory = self
            .host
            .ok_or_else(|| Error::config("GatewayServer::builder() requires .host(..)"))?;
        let shards = match self.shards {
            Some(0) => return Err(ShardError::ZeroShards.into()),
            Some(n) => n,
            None => thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        };
        let listener = TcpListener::bind(&self.addr)?;
        let local_addr = listener.local_addr()?;
        let publisher = IorPublisher::new(
            config.domain,
            vec![GatewayEndpoint {
                host: local_addr.ip().to_string(),
                port: local_addr.port(),
            }],
        );
        let registry = self.registry.unwrap_or_else(|| Arc::new(Registry::new()));
        let clock: Arc<dyn Clock> = self.clock.unwrap_or_else(|| Arc::new(RealClock::new()));
        let router = Arc::new(ShardRouter::new(shards)?);
        for (group, shard) in &self.pins {
            router.pin(*group, *shard)?;
        }

        // Stable storage: open (and replay) the store before any engine
        // exists, so recovered §3.2 counters and §3.5 cached replies seed
        // the engines before the first client byte arrives.
        let opened_store = match &self.data_dir {
            Some(dir) => {
                let (store, recovered) =
                    GatewayStore::open(&dir.join("gateway"), self.fsync, Some(registry.clone()))
                        .map_err(Error::Io)?;
                config.persist_responses = true;
                Some((store, recovered))
            }
            None => None,
        };

        // Group members relay every reply they deliver: peers host
        // independent domain replicas and cannot see this gateway's
        // responses any other way — and every admitted invocation rides
        // the group sequencer, so non-commutative workloads converge.
        // Decided before the EngineSetup event below so a recording
        // replays with the same configuration.
        if self.group.is_some() {
            config.relay_replies = true;
            config.sequenced = true;
        }

        // The engine setup goes into the log first (after the store
        // decision above fixed `persist_responses` and `relay_replies`):
        // the replayer builds its engines from exactly this
        // configuration.
        if let Some(rec) = &self.recorder {
            rec.record(&ReplayEvent::EngineSetup(EngineSetup::from_config(
                &config,
                shards as u32,
            )));
        }

        let domain_thread = DomainService::start(registry.clone(), factory, self.recorder.clone())?;
        let domain = domain_thread.link();

        let shared = Arc::new(Shared {
            registry: registry.clone(),
            shard_snapshots: Mutex::new(vec![EngineSnapshot::default(); shards]),
            digests: Mutex::new(vec![Vec::new(); shards]),
            shutdown: AtomicBool::new(false),
        });

        // Create every shard before spawning its thread so recovered
        // state can be routed shard-by-shard (same routing the live
        // traffic uses: a group's counter and its replies land on the
        // shard that owns the group).
        let linger_us = self
            .group
            .as_ref()
            .map_or(0, |opts| opts.linger.as_micros() as u64);
        let mut core_shards: Vec<Shard> = (0..shards)
            .map(|idx| {
                let mut engine = GatewayEngine::new(config.clone(), BTreeMap::new());
                // Recording wraps each engine's time source so every
                // clock value the engine observes lands in the log; the
                // host-side shard timing stays on the base clock (replay
                // never re-runs host code).
                let tap: Option<Box<dyn EngineTap>> = match &self.recorder {
                    Some(rec) => {
                        engine.set_clock(Arc::new(RecordingClock::new(
                            clock.clone(),
                            rec.clone(),
                            idx as u32,
                        )));
                        Some(Box::new(ShardTap::new(rec.clone(), idx as u32)))
                    }
                    None => {
                        engine.set_clock(clock.clone());
                        None
                    }
                };
                Shard::new(
                    idx,
                    engine,
                    router.clone(),
                    self.admission.max_inflight,
                    linger_us,
                    tap,
                )
            })
            .collect();
        let store = match opened_store {
            Some((store, recovered)) => {
                for (&server, &value) in &recovered.counters {
                    core_shards[router.route(GroupId(server))].seed_counter(server, value);
                }
                for (op, reply) in &recovered.responses {
                    core_shards[router.route(op.target)].restore_response(*op, reply.clone());
                }
                registry.add(
                    names::STORE_RESPONSES_RECOVERED,
                    recovered.responses.len() as u64,
                );
                Some(store)
            }
            None => None,
        };

        // One reactor and one event queue per shard, created before any
        // thread spawns so every thread is born holding every shard's
        // queue and doorbell (waker + dirty-writer list).
        let mut queues: Vec<ShardQueue> = Vec::with_capacity(shards);
        let mut shard_rxs: Vec<Receiver<ShardEv>> = Vec::with_capacity(shards);
        let mut pollers = Vec::with_capacity(shards);
        for _ in 0..shards {
            let poller = Poller::new().map_err(Error::Io)?;
            let (tx, rx) = mpsc::channel();
            queues.push(ShardQueue {
                tx,
                bell: Arc::new(Doorbell::new(poller.waker())),
            });
            shard_rxs.push(rx);
            pollers.push(poller);
        }

        // Gateway group: membership + relay come up before the shard
        // threads spawn, so every shard is born holding the relay handle.
        let (group_node, mesh, relay) = match self.group {
            Some(opts) => {
                let relay_listener = TcpListener::bind(&opts.relay_listen)?;
                let mut gcfg = GroupConfig::new(opts.node);
                gcfg.bind = opts.listen.clone();
                gcfg.seeds = opts.seeds.clone();
                gcfg.advertise_host = opts
                    .advertise_host
                    .clone()
                    .unwrap_or_else(|| local_addr.ip().to_string());
                gcfg.gateway_port = local_addr.port();
                gcfg.relay_port = relay_listener.local_addr()?.port();
                gcfg.heartbeat = opts.heartbeat;
                gcfg.suspect_after = opts.suspect_after;
                // Any value that differs between two lives of this node
                // id works; discovery metadata lives outside the recorded
                // deterministic boundary, so a clock read is fine.
                gcfg.incarnation = clock.now_micros().max(1);
                let node =
                    GroupNode::start(gcfg, clock.clone(), registry.clone()).map_err(Error::Io)?;
                // The relay is built before the mesh because the mesh's
                // frame handler is the relay; the mesh handle is patched
                // in right after.
                let relay = Arc::new(GroupRelay::new(
                    node.clone(),
                    domain.clone(),
                    queues.clone(),
                    router.clone(),
                    registry.clone(),
                    config.group,
                    opts.group_size,
                ));
                let on_frame: FrameHandler = {
                    let relay = relay.clone();
                    Arc::new(move |from, msg| relay.on_frame(from, msg))
                };
                let mesh = Arc::new(
                    PeerMesh::start(
                        node.clone(),
                        relay_listener,
                        clock.clone(),
                        registry.clone(),
                        on_frame,
                    )
                    .map_err(Error::Io)?,
                );
                relay.set_mesh(mesh.clone());
                (Some(node), Some(mesh), Some(relay))
            }
            None => (None, None, None),
        };

        let mut shard_threads = Vec::with_capacity(shards);
        for (idx, ((shard, rx), poller)) in core_shards
            .into_iter()
            .zip(shard_rxs.drain(..))
            .zip(pollers.drain(..))
            .enumerate()
        {
            let host = ShardHost::new(
                idx,
                config.group,
                poller,
                queues.clone(),
                config.max_body,
                domain.clone(),
                registry.clone(),
                store.clone(),
                clock.clone(),
                relay.clone(),
            );
            let shard_shared = shared.clone();
            shard_threads.push(
                thread::Builder::new()
                    .name(format!("ftd-gateway-shard-{idx}"))
                    .spawn(move || shard_loop(shard, host, rx, shard_shared))?,
            );
        }

        // The domain fans ordered deliveries into the shard queues. Its
        // thread is stopped only after the shards are joined; a send to
        // a joined shard's queue just fails.
        domain.register_sink(delivery_sink(router.clone(), queues.clone()));

        let accept_queues = queues.clone();
        let accept_shared = shared.clone();
        let accept_domain = domain.clone();
        let partial_writes = registry.counter(names::NET_REACTOR_PARTIAL_WRITES);
        let accept_thread = thread::Builder::new()
            .name("ftd-gateway-accept".into())
            .spawn(move || {
                accept_loop(
                    listener,
                    accept_queues,
                    accept_shared,
                    accept_domain,
                    partial_writes,
                )
            })?;

        let (metrics_addr, metrics_thread) = match &self.options.metrics_addr {
            Some(addr) => {
                let metrics_listener = TcpListener::bind(addr)?;
                let metrics_addr = metrics_listener.local_addr()?;
                let metrics_shared = shared.clone();
                let metrics_domain = domain.clone();
                let metrics_node = group_node.clone();
                let handle = thread::Builder::new()
                    .name("ftd-gateway-metrics".into())
                    .spawn(move || {
                        metrics_loop(
                            metrics_listener,
                            metrics_shared,
                            metrics_domain,
                            metrics_node,
                        )
                    })?;
                (Some(metrics_addr), Some(handle))
            }
            None => (None, None),
        };

        Ok(GatewayServer {
            local_addr,
            metrics_addr,
            publisher,
            domain_id: config.domain,
            queues,
            router,
            domain,
            domain_thread,
            shared,
            store,
            recorder: self.recorder,
            group_node,
            mesh,
            relay,
            shard_threads,
            accept_thread: Some(accept_thread),
            metrics_thread,
            report: None,
        })
    }
}

/// A gateway serving a fault tolerance domain on a real TCP socket. See
/// the module docs. Construct via [`GatewayServer::builder`].
pub struct GatewayServer {
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    publisher: IorPublisher,
    domain_id: u32,
    queues: Vec<ShardQueue>,
    router: Arc<ShardRouter>,
    domain: DomainLink,
    domain_thread: DomainService,
    shared: Arc<Shared>,
    store: Option<Arc<GatewayStore>>,
    recorder: Option<Arc<Recorder>>,
    group_node: Option<Arc<GroupNode>>,
    mesh: Option<Arc<PeerMesh>>,
    relay: Option<Arc<GroupRelay>>,
    shard_threads: Vec<JoinHandle<ShardFinal>>,
    accept_thread: Option<JoinHandle<()>>,
    metrics_thread: Option<JoinHandle<()>>,
    report: Option<ShutdownReport>,
}

impl std::fmt::Debug for GatewayServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayServer")
            .field("local_addr", &self.local_addr)
            .field("shards", &self.router.shards())
            .finish()
    }
}

impl GatewayServer {
    /// Starts building a gateway; see [`GatewayBuilder`].
    pub fn builder() -> GatewayBuilder {
        GatewayBuilder {
            addr: "127.0.0.1:0".to_owned(),
            config: None,
            options: ServerOptions::default(),
            registry: None,
            clock: None,
            shards: None,
            admission: AdmissionPolicy::default(),
            pins: Vec::new(),
            host: None,
            data_dir: None,
            fsync: FsyncPolicy::Always,
            recorder: None,
            record_err: None,
            group: None,
        }
    }

    /// The address the gateway is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The address of the `GET /metrics` admin listener, if enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The live metrics registry every gateway thread reports into.
    pub fn registry(&self) -> Arc<Registry> {
        self.shared.registry.clone()
    }

    /// How many engine shards this gateway runs.
    pub fn shard_count(&self) -> usize {
        self.router.shards()
    }

    /// The lock-free group→shard routing table (inspect placements, pin
    /// groups at runtime).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The replay recorder, when built with
    /// [`GatewayBuilder::record_dir`]. Check [`Recorder::ok`] after
    /// shutdown to know the recording on disk is complete.
    pub fn recorder(&self) -> Option<Arc<Recorder>> {
        self.recorder.clone()
    }

    /// Whether the domain behind the gateway is currently operational.
    /// While `false` the gateway serves existing clients best-effort and
    /// sheds new connections.
    pub fn healthy(&self) -> bool {
        self.domain.healthy()
    }

    /// Injects a live fault into the in-process domain (applied on the
    /// domain thread before its next tick). The observable effects —
    /// degraded `/health`, shed connections, recovery — are what chaos
    /// tests assert on.
    pub fn inject(&self, fault: DomainFault) {
        self.domain.inject(fault);
    }

    /// Publishes an IOR for `group`: its IIOP profile points at this
    /// gateway's real host and port (§3.1 — clients never see replicas).
    pub fn ior(&self, type_id: &str, group: GroupId) -> Ior {
        self.publisher.publish(type_id, group)
    }

    /// Publishes a **multi-profile** IOR for `group` naming every live
    /// gateway-group member (§3.5: "the object references contain
    /// multiple gateway profiles"), this gateway first and then its
    /// peers in node-id order — the enhanced client's failover
    /// preference order. Without [`GatewayBuilder::group`] this is
    /// [`GatewayServer::ior`].
    pub fn group_ior(&self, type_id: &str, group: GroupId) -> Ior {
        match &self.group_node {
            Some(node) => IorPublisher::new(
                self.domain_id,
                node.members()
                    .into_iter()
                    .map(|m| GatewayEndpoint {
                        host: m.host,
                        port: m.gateway_port,
                    })
                    .collect(),
            )
            .publish(type_id, group),
            None => self.ior(type_id, group),
        }
    }

    /// The current gateway-group membership view (this member first,
    /// then live peers in node-id order). Empty without
    /// [`GatewayBuilder::group`].
    pub fn group_members(&self) -> Vec<GroupMember> {
        self.group_node
            .as_ref()
            .map(|n| n.members())
            .unwrap_or_default()
    }

    /// The UDP address this member's membership protocol answers on —
    /// what another member passes as a seed ([`GroupOptions::seed`]).
    /// `None` without [`GatewayBuilder::group`].
    pub fn group_addr(&self) -> Option<std::net::SocketAddr> {
        self.group_node.as_ref().map(|n| n.udp_addr())
    }

    /// The gateway group's monotonic view number (0 without
    /// [`GatewayBuilder::group`]; starts at 1 and bumps on every join,
    /// leave, and suspicion).
    pub fn group_view(&self) -> u64 {
        self.group_node.as_ref().map(|n| n.view()).unwrap_or(0)
    }

    /// Catches this member up by **state transfer**: requests a peer's
    /// snapshot (replica checkpoints, completed responses, reply
    /// digests), installs it, and re-enters the sequenced stream — what
    /// a restarted or previously fenced member runs before accepting
    /// clients. Returns `true` once synced, `false` on timeout or when
    /// this gateway is not a group member. Safe to call on a fresh
    /// group too: the first live peer answers with whatever it has.
    pub fn sync_group_state(&self, timeout: Duration) -> bool {
        match &self.relay {
            Some(relay) => relay.sync_state(timeout),
            None => false,
        }
    }

    /// `true` once this member fenced itself off after detecting that
    /// its responses diverged from the group majority. A fenced member
    /// sheds clients and leaves the membership view; rejoining takes a
    /// restart plus [`GatewayServer::sync_group_state`].
    pub fn group_fenced(&self) -> bool {
        self.relay.as_ref().is_some_and(|r| r.is_fenced())
    }

    /// The group sequence number this member has applied through (0
    /// without [`GatewayBuilder::group`]).
    pub fn group_applied_through(&self) -> u64 {
        self.relay
            .as_ref()
            .map(|r| r.applied_through())
            .unwrap_or(0)
    }

    /// A snapshot of the per-connection / per-group statistics counters
    /// (engine `gateway.*` counters plus transport `net.*` counters),
    /// reconstructed from the live registry. The clone is detached, so
    /// mutating it cannot pollute the `/metrics` exposition.
    pub fn stats(&self) -> Stats {
        stats_from_registry(&self.shared.registry)
    }

    /// The engine gauges as of each shard's last processed batch, summed
    /// across shards.
    pub fn snapshot(&self) -> EngineSnapshot {
        let mut total = EngineSnapshot::default();
        for s in self
            .shared
            .shard_snapshots
            .lock()
            .expect("snapshots lock")
            .iter()
        {
            total.absorb(s);
        }
        total
    }

    /// The engine gauges per shard (indexed by shard).
    pub fn shard_snapshots(&self) -> Vec<EngineSnapshot> {
        self.shared
            .shard_snapshots
            .lock()
            .expect("snapshots lock")
            .clone()
    }

    fn stop(&mut self) {
        self.stop_inner(true);
    }

    fn stop_inner(&mut self, graceful: bool) {
        if self.shard_threads.is_empty() && self.accept_thread.is_none() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loops with throwaway connections.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(addr) = self.metrics_addr {
            let _ = TcpStream::connect(addr);
        }
        if graceful {
            // Drain the domain first: replies already ordered inside it
            // reach the shard queues *before* the Shutdown sentinels
            // below, so the shards process them (FIFO) and their response
            // caches see every reply before being flushed.
            self.domain.quiesce(Duration::from_secs(2));
        }
        for queue in &self.queues {
            queue.send(ShardEv::Shutdown);
        }
        let mut shards = Vec::new();
        let mut cached_replies = Vec::new();
        let mut counters: BTreeMap<u32, u32> = BTreeMap::new();
        for t in self.shard_threads.drain(..) {
            if let Ok(fin) = t.join() {
                shards.push(fin.snapshot);
                cached_replies.extend(fin.cached);
                for (server, value) in fin.counters {
                    let c = counters.entry(server).or_insert(0);
                    *c = (*c).max(value);
                }
            }
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.metrics_thread.take() {
            let _ = t.join();
        }
        if graceful {
            // Clean shutdown compacts everything the shards drained into
            // one atomic checkpoint and truncates the log; a kill skips
            // this — the write-ahead log already holds every acked reply.
            if let Some(store) = &self.store {
                let _ = store.checkpoint(&counters, &cached_replies);
            }
        }
        // The mesh outlived the shards so their final relays flushed;
        // now leave the group — gracefully with a Leave datagram, or by
        // vanishing (kill) so the peers exercise suspicion.
        if let Some(mesh) = &self.mesh {
            mesh.shutdown();
        }
        if let Some(node) = &self.group_node {
            node.stop(graceful);
        }
        self.domain_thread.shutdown();
        *self.shared.shard_snapshots.lock().expect("snapshots lock") = shards.clone();
        self.report = Some(ShutdownReport {
            stats: stats_from_registry(&self.shared.registry),
            shards,
            cached_replies,
        });
    }

    /// Stops the gateway the unclean way: no domain drain, no store
    /// checkpoint — the closest an in-process harness gets to `kill -9`.
    /// Threads are joined (the process must not leak them) but recovery
    /// state is whatever the write-ahead log holds, exactly as after a
    /// crash. Pair with [`GatewayBuilder::data_dir`] to exercise the
    /// restart path.
    pub fn kill(mut self) {
        self.stop_inner(false);
    }

    /// Stops serving, joins the threads, and returns the final statistics.
    pub fn shutdown(mut self) -> Stats {
        self.stop();
        match self.report.take() {
            Some(report) => report.stats,
            None => stats_from_registry(&self.shared.registry),
        }
    }

    /// [`GatewayServer::shutdown`] with the full drain: per-shard final
    /// gauges and the flushed response caches.
    pub fn shutdown_report(mut self) -> ShutdownReport {
        self.stop();
        self.report.take().unwrap_or_else(|| ShutdownReport {
            stats: stats_from_registry(&self.shared.registry),
            shards: Vec::new(),
            cached_replies: Vec::new(),
        })
    }
}

impl Drop for GatewayServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Rebuilds the legacy [`Stats`] view from the live registry: counters
/// copy over exactly; histogram sample series are synthesized at bucket
/// resolution with the exact count, min, and max preserved (`summary()`
/// keeps working; percentiles degrade to bucket bounds).
fn stats_from_registry(registry: &Registry) -> Stats {
    let snap = registry.snapshot();
    let mut stats = Stats::default();
    for (name, value) in &snap.counters {
        if *value > 0 {
            stats.add(name.clone(), *value);
        }
    }
    for (name, hist) in &snap.histograms {
        let (Some(min), Some(max)) = (hist.min, hist.max) else {
            continue;
        };
        let mut emitted = 0u64;
        for (i, &n) in hist.buckets.iter().enumerate() {
            let bound = ftd_obs::HistogramSnapshot::bucket_upper_bound(i);
            for _ in 0..n {
                emitted += 1;
                let value = if emitted == 1 {
                    min
                } else if emitted == hist.count {
                    max
                } else {
                    bound.clamp(min, max)
                };
                stats.sample(name, value);
            }
        }
    }
    stats
}

/// First pause after a failed `accept`; each further failure in a row
/// doubles it, up to [`ACCEPT_BACKOFF_MAX`].
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(1);

/// Longest pause between failing `accept` calls: bounds both the
/// listener's wake-ups at the descriptor limit and how late it notices
/// a shutdown or a freed descriptor.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);

fn accept_loop(
    listener: TcpListener,
    queues: Vec<ShardQueue>,
    shared: Arc<Shared>,
    domain: DomainLink,
    partial_writes: Arc<Counter>,
) {
    let mut next_id = 1u64;
    let mut backoff = Duration::ZERO;
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else {
            // Most likely out of descriptors: the pending connection stays
            // queued and the next accept fails the same way until one is
            // freed. Count it and pause, longer each time in a row.
            shared.registry.inc(names::NET_ACCEPT_ERRORS);
            backoff = (backoff * 2).clamp(ACCEPT_BACKOFF_MIN, ACCEPT_BACKOFF_MAX);
            std::thread::sleep(backoff);
            continue;
        };
        backoff = Duration::ZERO;
        if !domain.healthy() {
            // Degraded: the domain behind us is unreachable. Shedding at
            // accept time fails fast (the client's connect succeeds but
            // the next read sees EOF and its retry policy backs off)
            // instead of accepting work we cannot serve.
            shared.registry.inc(names::NET_CONNECTIONS_SHED);
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        // Reader and writer share the one accepted descriptor: the
        // owning shard reads through `&TcpStream`, any shard writes
        // through the same under the writer mutex. Two fds per
        // connection (peer + this) is the whole kernel-side cost.
        let stream = Arc::new(stream);
        let id = next_id;
        next_id += 1;
        // Round-robin connection ownership: the owning shard's reactor
        // reads this socket; routing still sends each message to the
        // shard owning its group.
        let owner = (id as usize - 1) % queues.len();
        shared.registry.inc("net.connections");
        let writer = Arc::new(ConnWriter {
            id,
            inner: Mutex::new(WriterInner {
                stream: stream.clone(),
                pending: VecDeque::new(),
            }),
            doorbell: queues[owner].bell.clone(),
            partial_writes: partial_writes.clone(),
        });
        let budget = Arc::new(AtomicUsize::new(0));
        // Every shard learns of the connection before its owner can read
        // a byte from it, so a routed message never beats its Accepted
        // event (the per-shard queues are FIFO and Adopt is sent last).
        // Only the owner is rung: the others have nothing to do until
        // a frame is forwarded to them, and that send rings.
        let mut dead = false;
        for queue in &queues {
            dead |= !queue.push(ShardEv::Accepted(id, writer.clone(), budget.clone()));
        }
        if dead || !queues[owner].send(ShardEv::Adopt(id, stream)) {
            break;
        }
    }
}

/// What a shard thread hands back when it stops: its final gauges, the
/// drained §3.5 response cache, and the §3.2 counters (checkpointed by
/// a durable gateway's clean shutdown).
struct ShardFinal {
    snapshot: EngineSnapshot,
    cached: Vec<(OperationId, Vec<u8>)>,
    counters: BTreeMap<u32, u32>,
}

/// The read half of a connection this shard owns: the nonblocking
/// stream registered with the shard's reactor plus its reusable
/// in-place frame buffer. Allocation is lazy ([`FrameBuf`] holds no
/// storage until the first byte arrives), so an idle connection costs
/// this struct and one registered descriptor — the C50K budget.
struct OwnedConn {
    /// Shared with the connection's [`ConnWriter`]; the owner reads
    /// through `&TcpStream`.
    stream: Arc<TcpStream>,
    fbuf: FrameBuf,
}

/// One shard thread's I/O half beside its sans-IO [`Shard`]: sockets,
/// frame buffers, writers, channels and metrics. Every decision is the
/// shard's; this is the [`ShardSink`] that applies each of its outputs
/// as it arrives.
struct ShardHost {
    idx: usize,
    /// The engine's gateway group — multicasts addressed to it are peer
    /// coordination and travel the mesh *only* (each process's domain is
    /// private; a peer cannot hear the local domain's deliveries).
    gw_group: GroupId,
    writers: BTreeMap<u64, Arc<ConnWriter>>,
    /// Connections whose read half this shard's reactor owns.
    owned: BTreeMap<u64, OwnedConn>,
    poller: Poller,
    /// Every shard's queue, this one's (at `idx`) included.
    queues: Vec<ShardQueue>,
    max_body: usize,
    /// The gateway's base clock. Host-side timing deliberately bypasses
    /// any recording clock: replay re-drives the engine, not this loop.
    clock: Arc<dyn Clock>,
    domain: DomainLink,
    registry: Arc<Registry>,
    store: Option<Arc<GatewayStore>>,
    /// The group relay when this gateway is a group member: engine
    /// multicasts go through the group sequencer, not straight to the
    /// local domain.
    relay: Option<Arc<GroupRelay>>,
    counters: BTreeMap<&'static str, Arc<Counter>>,
    latency: BTreeMap<u32, Arc<Histogram>>,
    reply_latency: Arc<Histogram>,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    m_events: Arc<Counter>,
    m_deferrals: Arc<Counter>,
    m_tick_admits: Arc<Counter>,
    m_wakeups: Arc<Counter>,
}

impl ShardHost {
    #[allow(clippy::too_many_arguments)]
    fn new(
        idx: usize,
        gw_group: GroupId,
        poller: Poller,
        queues: Vec<ShardQueue>,
        max_body: usize,
        domain: DomainLink,
        registry: Arc<Registry>,
        store: Option<Arc<GatewayStore>>,
        clock: Arc<dyn Clock>,
        relay: Option<Arc<GroupRelay>>,
    ) -> ShardHost {
        let shard_counter = |name| registry.counter(&names::with_shard(name, idx));
        ShardHost {
            idx,
            gw_group,
            writers: BTreeMap::new(),
            owned: BTreeMap::new(),
            poller,
            queues,
            max_body,
            clock,
            domain,
            store,
            relay,
            counters: BTreeMap::new(),
            latency: BTreeMap::new(),
            reply_latency: registry.histogram("net.reply_latency_us"),
            bytes_in: registry.counter("net.bytes_in"),
            bytes_out: registry.counter("net.bytes_out"),
            m_events: shard_counter(names::GATEWAY_SHARD_EVENTS),
            m_deferrals: shard_counter(names::GATEWAY_SHARD_DEFERRALS),
            m_tick_admits: shard_counter(names::GATEWAY_SHARD_TICK_ADMITS),
            m_wakeups: registry.counter(names::NET_REACTOR_WAKEUPS),
            registry,
        }
    }

    /// Takes ownership of an accepted connection's read half: registers
    /// it with the reactor and gives it a (lazily allocated) frame
    /// buffer.
    fn adopt(&mut self, id: u64, stream: Arc<TcpStream>) {
        self.poller.register(id, raw_fd(&stream), Interest::READ);
        self.owned.insert(
            id,
            OwnedConn {
                stream,
                fbuf: FrameBuf::with_max_body(self.max_body),
            },
        );
    }

    /// Drops an owned connection (already deregistered or about to be)
    /// and fans `Closed` to every shard — through the queues, so it
    /// cannot overtake messages already forwarded.
    fn release(&mut self, id: u64) {
        self.poller.deregister(id);
        self.owned.remove(&id);
        for queue in &self.queues {
            queue.send(ShardEv::Closed(id));
        }
    }

    /// Reads everything the socket has, parsing frames in place and
    /// handing each one to the shard. Returns to the caller once the
    /// socket would block; EOF, errors, and the shard's closes release
    /// the connection.
    fn on_readable(&mut self, shard: &mut Shard, id: u64, view: &RecordedView) {
        let Some(mut oc) = self.owned.remove(&id) else {
            return;
        };
        let conn = GwConn(id);
        let mut alive = true;
        'fill: loop {
            let want;
            let n = {
                let spare = oc.fbuf.spare(FRAME_BUF_READ_CHUNK);
                want = spare.len();
                match (&*oc.stream).read(spare) {
                    Ok(0) => {
                        alive = false;
                        break;
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        alive = false;
                        break;
                    }
                }
            };
            oc.fbuf.advance(n);
            self.bytes_in.add(n as u64);
            loop {
                let alive_now = match oc.fbuf.next_span() {
                    Ok(Some(span)) => shard.on_frame(conn, &oc.fbuf.bytes()[span], view, self),
                    Ok(None) => break,
                    Err(_) => shard.on_protocol_error(conn, self),
                };
                if !alive_now {
                    alive = false;
                    break 'fill;
                }
            }
            if n < want {
                break;
            }
        }
        if alive {
            // Idle connections hold no buffer memory — the next burst
            // re-allocates. Keeps C50K resident memory proportional to
            // *active* connections, not open ones.
            oc.fbuf.release_if_empty();
            self.owned.insert(id, oc);
        } else {
            self.release(id);
        }
    }

    /// Write readiness on an owned connection: drain its writer's
    /// queue, dropping write interest once empty.
    fn on_writable(&mut self, id: u64) {
        let Some(writer) = self.writers.get(&id) else {
            return;
        };
        match writer.flush() {
            WriteState::Drained => self.poller.set_interest(id, Interest::READ),
            WriteState::Pending => {}
            WriteState::Failed => writer.close(),
        }
    }

    /// Picks up connections whose writers queued bytes from another
    /// thread since the last tick and arms write interest for them.
    fn drain_doorbell(&mut self) {
        for id in self.queues[self.idx].bell.drain() {
            if self.owned.contains_key(&id)
                && self.writers.get(&id).is_some_and(|w| w.has_pending())
            {
                self.poller.set_interest(id, Interest::READ_WRITE);
            }
        }
    }

    fn counter(&mut self, name: &'static str) -> Arc<Counter> {
        self.counters
            .entry(name)
            .or_insert_with(|| self.registry.counter(name))
            .clone()
    }

    fn latency_hist(&mut self, group: u32) -> Arc<Histogram> {
        self.latency
            .entry(group)
            .or_insert_with(|| {
                self.registry
                    .histogram(&format!("{ENGINE_LATENCY_SERIES}{{group=\"{group}\"}}"))
            })
            .clone()
    }

    fn apply(&mut self, action: Action) {
        match action {
            Action::ToClient { conn, bytes } => {
                if let Some(writer) = self.writers.get(&conn.0) {
                    if writer.write(&bytes) {
                        self.bytes_out.add(bytes.len() as u64);
                    } else {
                        writer.close();
                    }
                }
            }
            Action::CloseClient { conn } => {
                if let Some(writer) = self.writers.get(&conn.0) {
                    writer.close();
                }
            }
            Action::Multicast { group, payload } => match &self.relay {
                // Gateway-group coordination (Record / ClientGone /
                // PeerReply) in an out-of-process group rides the mesh
                // only: the local domain is private to this process, so
                // multicasting it there reaches no peer, and the engine
                // already applied the local effect.
                Some(relay) if group == self.gw_group => {
                    relay.relay_gateway(payload);
                }
                // A server-group invocation goes through the group
                // sequencer: the leader stamps it into the total order
                // and every member (this one included) applies it at its
                // sequence — non-commutative workloads converge
                // byte-identically.
                Some(relay) => relay.submit(group, payload),
                None => self.domain.multicast(group, payload),
            },
            Action::BridgeConnect { .. } | Action::ToBridge { .. } => {
                // The net front end serves a single domain; it has no
                // wide-area routes, so the engine never targets a peer
                // domain unless misconfigured.
                self.counter("net.bridge_unrouted").inc();
            }
            Action::PersistResponse { operation, reply } => {
                // The engine emits this *before* the ToClient carrying
                // the same reply, so the WAL append completes before the
                // client can observe the answer — which is what makes the
                // recovered cache trustworthy after a crash.
                if let Some(store) = &self.store {
                    if store.persist_response(&operation, &reply).is_err() {
                        self.counter("net.store_append_errors").inc();
                    }
                }
            }
            Action::PersistCounter { server, value } => {
                // Without a data dir there is no stable store and
                // counters restart with the process (warm-gateway
                // configuration). Recovery max-merges counter values, so
                // a lost append is harmless — it only counts.
                if let Some(store) = &self.store {
                    if store.persist_counter(server, value).is_err() {
                        self.counter("net.store_append_errors").inc();
                    }
                }
            }
            Action::Count { counter } => self.counter(counter).inc(),
            Action::Latency { group, micros } => {
                self.latency_hist(group.0).observe(micros);
                self.reply_latency.observe(micros);
            }
            Action::Divergence { group, seq, member } => {
                self.counter(names::GROUP_DIVERGENCE).inc();
                eprintln!(
                    "ftd-gateway: response divergence: group {group} response #{seq} \
                     disagrees with member {member}"
                );
            }
            Action::Fence => {
                // The engine found ≥2 peers disagreeing with its
                // responses: this member is the minority. Leave the
                // membership view (peers and the IOR stop naming us);
                // the engine already sheds clients itself.
                if let Some(relay) = &self.relay {
                    relay.fence();
                }
            }
        }
    }

    fn publish(&mut self, shard: &Shard, shared: &Shared) {
        let snapshot = EngineSnapshot::of(shard.engine());
        let mut total = EngineSnapshot::default();
        {
            let mut all = shared.shard_snapshots.lock().expect("snapshots lock");
            all[self.idx] = snapshot;
            for s in all.iter() {
                total.absorb(s);
            }
        }
        if self.relay.is_some() {
            shared.digests.lock().expect("digests lock")[self.idx] =
                shard.engine().response_digests();
        }
        self.registry
            .set_gauge("gateway.connected_clients", total.connected_clients as i64);
        self.registry
            .set_gauge("gateway.cached_responses", total.cached_responses as i64);
        self.registry.set_gauge(
            &names::with_shard(names::GATEWAY_SHARD_INFLIGHT, self.idx),
            shard.inflight() as i64,
        );
        self.registry.set_gauge(
            &names::with_shard(names::NET_REACTOR_FDS, self.idx),
            self.poller.registered() as i64,
        );
        if self.idx == 0 {
            self.registry
                .set_gauge("net.open_connections", self.writers.len() as i64);
            self.registry
                .set_gauge(names::GATEWAY_HEALTH, self.domain.healthy() as i64);
        }
    }
}

impl ShardSink for ShardHost {
    fn push(&mut self, output: ShardOutput) {
        match output {
            ShardOutput::Action(action) => self.apply(action),
            ShardOutput::Forward { shard, conn, wire } => {
                self.queues[shard].send(ShardEv::Msg(conn.0, wire));
            }
        }
    }
}

fn shard_loop(
    mut shard: Shard,
    mut host: ShardHost,
    rx: Receiver<ShardEv>,
    shared: Arc<Shared>,
) -> ShardFinal {
    let mut stop = false;
    let mut ready = Vec::new();
    while !stop {
        // Block on socket readiness (capped at one tick so the batch
        // pass and timers run even when the wire is quiet). Every
        // [`ShardQueue`] send — a delivery batch, a forwarded frame, a
        // relayed record — interrupts the wait through the doorbell's
        // waker; a poll failure degrades to plain tick pacing.
        if host.poller.poll(&mut ready, MAX_POLL_TIMEOUT).is_err() {
            thread::sleep(TICK_REAL);
        }
        if !ready.is_empty() {
            host.m_wakeups.inc();
        }
        let view = host.domain.view();
        let events: Vec<ShardEv> = rx.try_iter().collect();
        for ev in events {
            host.m_events.inc();
            match ev {
                ShardEv::Accepted(id, writer, budget) => {
                    host.writers.insert(id, writer);
                    shard.on_accepted(GwConn(id), budget, &mut host);
                }
                ShardEv::Adopt(id, stream) => host.adopt(id, stream),
                ShardEv::Msg(id, wire) => {
                    shard.on_forwarded(GwConn(id), wire, &view, &mut host);
                }
                ShardEv::Closed(id) => {
                    shard.on_closed(GwConn(id), &mut host);
                    host.writers.remove(&id);
                }
                ShardEv::Delivery(group, payload) => {
                    shard.on_delivery(group, &payload, &view, &mut host);
                }
                ShardEv::ExportChains(ack) => {
                    // FIFO barrier: everything the relay queued before
                    // this sentinel (notably the replies produced by the
                    // donor's quiesced domain) has been applied, so the
                    // fingerprints describe the exact snapshot cut.
                    let _ = ack.send(shard.engine().response_digests());
                }
                ShardEv::SeedTransfer {
                    chains,
                    counters,
                    responses,
                    ack,
                } => {
                    shard.seed_transfer(chains, counters, responses);
                    let _ = ack.send(());
                }
                ShardEv::PeerGone(payload) => {
                    shard.on_peer_gone(payload, host.clock.now_micros());
                }
                ShardEv::Shutdown => stop = true,
            }
        }

        // Socket readiness, on the connections this shard owns:
        // writable drains partial-write queues, readable runs the
        // zero-copy read loop. Skipped once shutdown is seen — the
        // remaining work is the queued backlog, not new wire bytes.
        if !stop {
            for ev in ready.drain(..) {
                if ev.writable {
                    host.on_writable(ev.token);
                }
                if ev.readable || ev.hangup {
                    host.on_readable(&mut shard, ev.token, &view);
                }
            }
            host.drain_doorbell();
        }

        // The batch pass, lingered client GC and the stall reset. On
        // shutdown everything still waiting is admitted (not dropped):
        // the queue ahead of the Shutdown sentinel was already drained,
        // so these are the last client bytes this shard will ever see.
        let tick = shard.on_tick(host.clock.now_micros(), &view, stop, &mut host);
        host.m_tick_admits.add(tick.admitted);
        host.m_deferrals.add(tick.deferred);
        host.publish(&shard, &shared);
    }

    if host.idx == 0 {
        for writer in host.writers.values() {
            writer.close();
        }
    }
    // Closing the shard closes its recording with its digest before the
    // engine is drained below (drain_cached_responses mutates the cache).
    let mut engine = shard.into_engine();
    ShardFinal {
        snapshot: EngineSnapshot::of(&engine),
        counters: engine.counters().clone(),
        cached: engine.drain_cached_responses(),
    }
}

/// One HTTP/1.0 exchange per connection: read the request line, answer
/// `GET /metrics` with the Prometheus text exposition, `/metrics.json`
/// with the JSON snapshot, `/health` with the serving state (200 ok /
/// 503 degraded — load-balancer and chaos-harness food), `/digest`
/// with the member's convergence report (byte-identical across a
/// converged gateway group), or `/blackout?ms=N` by dropping the
/// member's UDP membership traffic for `N` ms (partition injection; the
/// TCP side stays up, mirroring an asymmetric network fault), close.
/// Deliberately minimal — this is an admin endpoint for `curl` and
/// scrapers, not a web server.
fn metrics_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    domain: DomainLink,
    group_node: Option<Arc<GroupNode>>,
) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let mut buf = [0u8; 1024];
        let mut request = Vec::new();
        // Read until the end of the request line; ignore any headers.
        loop {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    request.extend_from_slice(&buf[..n]);
                    if request.contains(&b'\n') || request.len() > 8 * 1024 {
                        break;
                    }
                }
            }
        }
        let line = request.split(|&b| b == b'\n').next().unwrap_or(&[]);
        let line = String::from_utf8_lossy(line);
        let path = line.split_whitespace().nth(1).unwrap_or("");
        let (status, content_type, body) = match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4",
                shared.registry.render_prometheus(),
            ),
            "/metrics.json" => ("200 OK", "application/json", shared.registry.render_json()),
            "/health" => {
                if domain.healthy() {
                    ("200 OK", "text/plain", "ok\n".to_owned())
                } else {
                    (
                        "503 Service Unavailable",
                        "text/plain",
                        "degraded\n".to_owned(),
                    )
                }
            }
            "/digest" => ("200 OK", "text/plain", digest_report(&shared, &domain)),
            p if p.starts_with("/blackout") => {
                let ms: u64 = p
                    .split_once("ms=")
                    .and_then(|(_, v)| {
                        v.split(|c: char| !c.is_ascii_digit())
                            .next()
                            .and_then(|d| d.parse().ok())
                    })
                    .unwrap_or(0);
                match &group_node {
                    Some(node) if ms > 0 => {
                        node.blackout(Duration::from_millis(ms));
                        ("200 OK", "text/plain", format!("blackout {ms}ms\n"))
                    }
                    Some(_) => ("400 Bad Request", "text/plain", "ms=N required\n".into()),
                    None => ("404 Not Found", "text/plain", "not a group member\n".into()),
                }
            }
            _ => ("404 Not Found", "text/plain", "not found\n".to_owned()),
        };
        let _ = write!(
            stream,
            "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let _ = stream.flush();
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// Renders the member's convergence report: every server group's
/// response-chain fingerprint (merged across shards; a group lives on
/// exactly one shard) plus a hash of the domain replicas' application
/// state. Converged group members produce byte-identical reports — the
/// soak's cross-member equality assertion scrapes exactly this.
fn digest_report(shared: &Shared, domain: &DomainLink) -> String {
    let mut merged: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for shard in shared.digests.lock().expect("digests lock").iter() {
        for &(group, seq, digest) in shard {
            let entry = merged.entry(group).or_insert((seq, digest));
            if seq > entry.0 {
                *entry = (seq, digest);
            }
        }
    }
    let mut body = String::new();
    for (group, (seq, digest)) in &merged {
        body.push_str(&format!(
            "group {group} responses={seq} digest={digest:016x}\n"
        ));
    }
    let groups: Vec<(u32, Vec<u8>)> = domain
        .export_groups(Duration::from_secs(2))
        .unwrap_or_default()
        .into_iter()
        .map(|s| (s.group, s.state))
        .collect();
    body.push_str(&format!(
        "domain groups={} state={:016x}\n",
        groups.len(),
        ftd_replay::hash_domain_state(&groups)
    ));
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DomainHost;
    use ftd_core::GwMsg;
    use ftd_eternal::ObjectRegistry;
    use ftd_obs::Stopwatch;

    fn shard_queues(n: usize) -> (Vec<ShardQueue>, Vec<Receiver<ShardEv>>, Vec<Poller>) {
        let mut queues = Vec::new();
        let mut rxs = Vec::new();
        let mut pollers = Vec::new();
        for _ in 0..n {
            let poller = Poller::new().unwrap();
            let (tx, rx) = mpsc::channel();
            queues.push(ShardQueue {
                tx,
                bell: Arc::new(Doorbell::new(poller.waker())),
            });
            rxs.push(rx);
            pollers.push(poller);
        }
        (queues, rxs, pollers)
    }

    fn record(server: u32) -> Vec<u8> {
        GwMsg::Record {
            client: 1,
            request_id: 1,
            server: GroupId(server),
        }
        .encode()
    }

    /// The heap address of each delivered payload, in queue order.
    fn delivered(rx: &Receiver<ShardEv>) -> Vec<*const u8> {
        rx.try_iter()
            .map(|ev| match ev {
                ShardEv::Delivery(_, payload) => payload.as_ptr(),
                _ => panic!("only deliveries are routed"),
            })
            .collect()
    }

    #[test]
    fn a_batch_rings_each_receiving_shard_once_and_moves_its_payloads() {
        let router = ShardRouter::new(3).unwrap();
        router.pin(GroupId(10), 0).unwrap();
        router.pin(GroupId(11), 1).unwrap();
        let (queues, rxs, _pollers) = shard_queues(3);
        let gw = GroupId(0x4000_0001);
        let batch = vec![(gw, record(10)), (gw, record(11)), (gw, record(10))];
        let addrs: Vec<*const u8> = batch.iter().map(|(_, p)| p.as_ptr()).collect();

        let mut rings = [0; 3];
        route_batch(&router, &queues, batch, |i| rings[i] += 1);
        assert_eq!(rings, [1, 1, 0], "one ring per receiving shard, none else");
        // Moved, not copied: each shard holds the very buffers the pump
        // produced.
        assert_eq!(delivered(&rxs[0]), [addrs[0], addrs[2]]);
        assert_eq!(delivered(&rxs[1]), [addrs[1]]);
        assert!(delivered(&rxs[2]).is_empty());

        // ClientGone fans out: every shard gets it and is rung once.
        let gone = GwMsg::ClientGone { client: 1 }.encode();
        let mut rings = [0; 3];
        route_batch(&router, &queues, vec![(gw, gone)], |i| rings[i] += 1);
        assert_eq!(rings, [1, 1, 1]);
        for rx in &rxs {
            assert_eq!(delivered(rx).len(), 1);
        }
    }

    #[test]
    fn a_routed_delivery_wakes_a_shard_blocked_in_poll() {
        let domain = DomainService::start(
            Arc::new(Registry::new()),
            || DomainHost::try_start(1, 2, 7, ObjectRegistry::new),
            None,
        )
        .expect("domain starts");
        let link = domain.link();
        let router = Arc::new(ShardRouter::new(2).unwrap());
        router.pin(GroupId(10), 1).unwrap();
        let (queues, rxs, mut pollers) = shard_queues(2);
        link.register_sink(delivery_sink(router, queues));

        // A Record multicast to the gateway group comes back as one
        // delivery, routed to shard 1. Its poll must return on the
        // doorbell, long before the timeout.
        link.multicast(GroupId(0x4000_0001), record(10));
        let clock = RealClock::new();
        let watch = Stopwatch::start(&clock);
        pollers[1]
            .poll(&mut Vec::new(), Duration::from_secs(10))
            .unwrap();
        let waited_ms = watch.elapsed_micros() / 1000;
        assert!(
            waited_ms < 5_000,
            "shard slept {waited_ms} ms with a delivery queued"
        );
        // The delivery was queued before the ring that woke the poll.
        assert_eq!(delivered(&rxs[1]).len(), 1);
    }
}
