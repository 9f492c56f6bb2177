//! A blocking GIOP/IIOP client over a real TCP socket.
//!
//! [`NetClient`] is the wire-level counterpart of the simulation's
//! `EnhancedClient`/`PlainClient`: it connects to the gateway host and
//! port named by an IOR's IIOP profile, frames requests with `ftd-giop`,
//! and (when given a client id) carries the §3.5
//! `FT_CLIENT_ID_SERVICE_CONTEXT` on every request so the gateway
//! recognizes it across reconnects. Without a client id it behaves as a
//! plain ORB (§3.4) and relies on the gateway's counter-assigned
//! identity.
//!
//! Clients are built with [`NetClient::builder`], which mirrors
//! `GatewayServer::builder()` and folds the retry policy, read timeout
//! and pipeline depth into construction:
//!
//! ```
//! use ftd_core::EngineConfig;
//! use ftd_eternal::{Counter, FtProperties, ObjectRegistry, ReplicationStyle};
//! use ftd_net::{DomainHost, GatewayServer, NetClient};
//! use ftd_totem::GroupId;
//!
//! let group = GroupId(10);
//! let server = GatewayServer::builder()
//!     .addr("127.0.0.1:0")
//!     .config(EngineConfig::new(1, GroupId(0x4000_0001), 0))
//!     .host(move || {
//!         let mut host = DomainHost::try_start(1, 4, 7, || {
//!             let mut reg = ObjectRegistry::new();
//!             reg.register("Counter", Box::new(|| Box::new(Counter::new())));
//!             reg
//!         })?;
//!         host.create_group(
//!             group,
//!             "Counter",
//!             FtProperties::new(ReplicationStyle::Active).with_initial(3),
//!         );
//!         Ok::<_, ftd_core::Error>(host)
//!     })
//!     .build()
//!     .expect("bind loopback");
//!
//! let ior = server.ior("IDL:Counter:1.0", group);
//! let mut client = NetClient::builder()
//!     .ior(&ior)
//!     .client_id(0xC11E)
//!     .max_inflight(4)
//!     .connect()
//!     .expect("connect");
//!
//! // Pipelined session: several requests in flight at once, replies
//! // claimed per handle.
//! let mut pipeline = client.pipeline();
//! let handles: Vec<_> = (0..4)
//!     .map(|_| pipeline.submit("add", &1u64.to_be_bytes()).expect("submit"))
//!     .collect();
//! for h in &handles {
//!     pipeline.wait(h).expect("reply");
//! }
//! drop(pipeline);
//!
//! let reply = client.invoke("get", &[]).expect("get");
//! assert_eq!(reply.body, 4u64.to_be_bytes());
//! server.shutdown();
//! ```
//!
//! # Pipelining
//!
//! [`NetClient::pipeline`] opens a [`Pipeline`] session: up to
//! `max_inflight` requests outstanding on the one connection, each
//! [`Pipeline::submit`] returning a [`PendingReply`] handle that
//! [`Pipeline::poll`]/[`Pipeline::wait`] later redeem. Replies are
//! matched by request id, so out-of-order arrivals (requests that landed
//! on different engine shards, say) are buffered until their handle is
//! claimed. [`NetClient::invoke`] and [`NetClient::invoke_retrying`] are
//! depth-1 wrappers over the same machinery.
//!
//! # Failover (§3.5): reconnect and reissue
//!
//! [`NetClient::invoke_retrying`] is the paper's client-side failover
//! protocol: when the connection dies (or a reply times out), the client
//! redials the gateway with exponential backoff and *reissues the same
//! request under the same request id*. An enhanced client's identity is
//! stable across connections, so the gateway recognizes the reissue and
//! answers it from its response cache — or, if the reply was never
//! produced, the domain's duplicate detection makes the re-execution
//! safe. The result is exactly-once semantics over an at-least-once
//! wire. A pipelined session extends this to every outstanding request:
//! on a connection failure the whole in-flight window is reissued, in
//! submission order, under the original request ids. A *plain* client's
//! identity is per-connection, so for it the retry path degrades to
//! at-least-once: use a client id whenever duplicate execution would
//! matter.

use ftd_core::Error;
use ftd_giop::{
    ByteOrder, FrameBuf, GiopMessage, Ior, Reply, Request, ServiceContext, FRAME_BUF_READ_CHUNK,
    FT_CLIENT_ID_SERVICE_CONTEXT,
};
use ftd_obs::{names, Registry};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Default pipeline depth ([`NetClientBuilder::max_inflight`]).
pub const DEFAULT_MAX_CLIENT_INFLIGHT: usize = 8;

/// Out-of-order replies retained for later claims; beyond this the
/// oldest is dropped (a stray reply nobody will ever claim).
const STRAY_REPLY_CAP: usize = 256;

/// The live connection, or `NotConnected` between failover attempts.
fn connected(stream: &mut Option<TcpStream>) -> io::Result<&mut TcpStream> {
    stream
        .as_mut()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "gateway connection down"))
}

/// How [`NetClient::invoke_retrying`] and a [`Pipeline`] survive
/// connection failures: up to `retries` reissues of the in-flight
/// request(s), redialing with exponential backoff between attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Reissue attempts after the first try (0 = fail on first error).
    pub retries: u32,
    /// Backoff before the first reissue; doubles per attempt.
    pub backoff: Duration,
    /// Upper bound the doubling backoff saturates at.
    pub max_backoff: Duration,
    /// How long one attempt waits for its reply before the connection
    /// is declared dead and the request reissued.
    pub timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 3,
            backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            timeout: DEFAULT_READ_TIMEOUT,
        }
    }
}

/// Where a [`NetClientBuilder`] points: an IOR's profiles or an explicit
/// address, resolved eagerly but surfaced at `connect()`.
#[derive(Debug)]
enum Target {
    Unset,
    Resolved {
        addrs: Vec<SocketAddr>,
        object_key: Vec<u8>,
    },
    Failed(Error),
}

/// Builder for [`NetClient`], mirroring `GatewayServer::builder()`: the
/// connection target plus the retry policy, read timeout and pipeline
/// depth folded into construction. See the module docs for a complete
/// gateway-plus-client example.
#[derive(Debug)]
pub struct NetClientBuilder {
    target: Target,
    client_id: Option<u32>,
    read_timeout: Duration,
    retry: RetryPolicy,
    max_inflight: usize,
    registry: Option<Arc<Registry>>,
}

impl Default for NetClientBuilder {
    fn default() -> Self {
        NetClientBuilder {
            target: Target::Unset,
            client_id: None,
            read_timeout: DEFAULT_READ_TIMEOUT,
            retry: RetryPolicy::default(),
            max_inflight: DEFAULT_MAX_CLIENT_INFLIGHT,
            registry: None,
        }
    }
}

impl NetClientBuilder {
    /// Targets the gateway(s) named by `ior`, walking its IIOP profiles
    /// in preference order and skipping unreachable ones — a
    /// multi-profile IOR (a gateway group's
    /// [`group_ior`](crate::GatewayServer::group_ior)) makes this the
    /// §3.5 enhanced-client failover: when the connected gateway dies,
    /// [`NetClient::reconnect`] (or the retrying paths) walks the same
    /// list again and lands on a survivor, keeping the client id and the
    /// request-id sequence across the switch.
    pub fn ior(mut self, ior: &Ior) -> Self {
        self.target = match Self::resolve_ior(ior) {
            Ok((addrs, object_key)) => Target::Resolved { addrs, object_key },
            Err(e) => Target::Failed(e),
        };
        self
    }

    /// Targets an explicit address with an explicit object key.
    pub fn addr(mut self, addr: impl ToSocketAddrs, object_key: Vec<u8>) -> Self {
        self.target = match addr.to_socket_addrs() {
            Ok(resolved) => Target::Resolved {
                addrs: resolved.collect(),
                object_key,
            },
            Err(e) => Target::Failed(e.into()),
        };
        self
    }

    /// Sets the §3.5 client id, making this an enhanced client whose
    /// identity (and request-id sequence) survives reconnects. Without
    /// one the client is plain (§3.4).
    pub fn client_id(mut self, id: u32) -> Self {
        self.client_id = Some(id);
        self
    }

    /// Sets the read timeout applied to replies outside of the retrying
    /// paths (which use their policy's timeout). Default 30s.
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Sets the retry policy used by [`NetClient::invoke_retrying`]'s
    /// default and by [`Pipeline`] sessions.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Sets the pipeline depth: how many requests a [`Pipeline`] session
    /// keeps outstanding on the connection at once (default
    /// [`DEFAULT_MAX_CLIENT_INFLIGHT`]; clamped to at least 1).
    pub fn max_inflight(mut self, depth: usize) -> Self {
        self.max_inflight = depth.max(1);
        self
    }

    /// Mirrors the client's reconnect/reissue counters into `registry`
    /// (under [`ftd_obs::names::CLIENT_RECONNECTS`] and
    /// [`ftd_obs::names::CLIENT_REISSUES`]).
    pub fn registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Connects and returns the client.
    ///
    /// # Errors
    ///
    /// Fails when no target was set, the IOR had no resolvable IIOP
    /// profile, or every resolved address refused the dial.
    pub fn connect(self) -> ftd_core::Result<NetClient> {
        let (addrs, object_key) = match self.target {
            Target::Resolved { addrs, object_key } => (addrs, object_key),
            Target::Failed(e) => return Err(e),
            Target::Unset => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "NetClient::builder() needs .ior(..) or .addr(..)",
                )
                .into())
            }
        };
        let mut client = NetClient {
            addrs,
            stream: None,
            connected_addr: None,
            reader: FrameBuf::new(),
            object_key,
            client_id: self.client_id,
            next_request: 0,
            read_timeout: self.read_timeout,
            retry: self.retry,
            max_inflight: self.max_inflight,
            pending: BTreeMap::new(),
            reconnects: 0,
            reissues: 0,
            profile_switches: 0,
            registry: self.registry,
        };
        client.dial()?;
        Ok(client)
    }

    fn resolve_ior(ior: &Ior) -> ftd_core::Result<(Vec<SocketAddr>, Vec<u8>)> {
        let profiles = ior.iiop_profiles()?;
        let primary = ior.primary_iiop()?;
        let mut addrs = Vec::new();
        for profile in &profiles {
            // A dead member's host may not even resolve any more; it is
            // skipped here exactly like an unreachable one is at dial.
            if let Ok(resolved) = (profile.host.as_str(), profile.port).to_socket_addrs() {
                addrs.extend(resolved);
            }
        }
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "no IIOP profile in the IOR resolved to an address",
            )
            .into());
        }
        Ok((addrs, primary.object_key))
    }
}

/// A blocking IIOP client connection to a gateway. See the module docs.
#[derive(Debug)]
pub struct NetClient {
    /// Resolved gateway addresses in failover preference order (one
    /// entry per reachable resolution of each IIOP profile), retained
    /// for reconnects.
    addrs: Vec<SocketAddr>,
    stream: Option<TcpStream>,
    /// The address the live (or last) connection dialed — switch
    /// detection for [`NetClient::profile_switches`].
    connected_addr: Option<SocketAddr>,
    reader: FrameBuf,
    object_key: Vec<u8>,
    client_id: Option<u32>,
    next_request: u32,
    read_timeout: Duration,
    /// Default policy for retrying invokes and [`Pipeline`] sessions.
    retry: RetryPolicy,
    /// Pipeline depth for [`NetClient::pipeline`] sessions.
    max_inflight: usize,
    /// Replies that arrived while a different request id was awaited,
    /// buffered until claimed (pipelined replies interleave freely).
    pending: BTreeMap<u32, Reply>,
    reconnects: u64,
    reissues: u64,
    profile_switches: u64,
    registry: Option<Arc<Registry>>,
}

impl NetClient {
    /// Starts building a client. See [`NetClientBuilder`].
    pub fn builder() -> NetClientBuilder {
        NetClientBuilder::default()
    }

    /// Mirrors this client's reconnect/reissue counters into `registry`
    /// (under [`ftd_obs::names::CLIENT_RECONNECTS`] and
    /// [`ftd_obs::names::CLIENT_REISSUES`]).
    pub fn bind_registry(&mut self, registry: Arc<Registry>) {
        self.registry = Some(registry);
    }

    /// Sets the read timeout applied to replies outside of
    /// [`NetClient::invoke_retrying`] (which uses its policy's timeout).
    pub fn set_read_timeout(&mut self, timeout: Duration) -> ftd_core::Result<()> {
        self.read_timeout = timeout;
        if let Some(stream) = &self.stream {
            stream.set_read_timeout(Some(timeout))?;
        }
        Ok(())
    }

    /// The retry policy configured at build time.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The pipeline depth configured at build time.
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Whether the client currently holds a live connection.
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Reconnect attempts performed so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Request reissues (same id resent after a failure) so far.
    pub fn reissues(&self) -> u64 {
        self.reissues
    }

    /// The request id of the most recently sent request.
    pub fn last_request_id(&self) -> u32 {
        self.next_request
    }

    /// The gateway address the live (or most recent) connection dialed.
    pub fn connected_addr(&self) -> Option<SocketAddr> {
        self.connected_addr
    }

    /// How many times a redial landed on a *different* gateway address
    /// than the previous connection — the §3.5 profile switches of a
    /// multi-profile (gateway group) IOR. Also mirrored to
    /// [`ftd_obs::names::CLIENT_PROFILE_SWITCHES`] when a registry is
    /// bound.
    pub fn profile_switches(&self) -> u64 {
        self.profile_switches
    }

    fn dial(&mut self) -> io::Result<()> {
        let mut last = None;
        for &addr in &self.addrs {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(self.read_timeout))?;
                    self.stream = Some(stream);
                    // A dead connection's half-read frame must not
                    // corrupt the next one.
                    self.reader = FrameBuf::new();
                    if let Some(prev) = self.connected_addr {
                        if prev != addr {
                            self.profile_switches += 1;
                            if let Some(registry) = &self.registry {
                                registry.inc(names::CLIENT_PROFILE_SWITCHES);
                            }
                        }
                    }
                    self.connected_addr = Some(addr);
                    return Ok(());
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::AddrNotAvailable, "no gateway address")
        }))
    }

    /// Repoints the client at a different gateway address — the §3.5
    /// failover an enhanced client performs when its gateway dies and a
    /// successor advertises a new endpoint (a restarted gateway cannot
    /// reuse its old port while it lingers in TIME_WAIT). The current
    /// connection drops; the client identity and request-id sequence
    /// continue, so reissues keep their original ids and the successor's
    /// recovered response cache still recognises them.
    pub fn retarget(&mut self, addr: impl ToSocketAddrs) -> ftd_core::Result<()> {
        self.addrs = addr.to_socket_addrs()?.collect();
        self.disconnect();
        Ok(())
    }

    /// Drops the current connection (if any) and redials the gateway.
    pub fn reconnect(&mut self) -> ftd_core::Result<()> {
        self.disconnect();
        self.reconnects += 1;
        if let Some(registry) = &self.registry {
            registry.inc(names::CLIENT_RECONNECTS);
        }
        Ok(self.dial()?)
    }

    /// Drops the connection without redialing. Subsequent invokes fail
    /// with `NotConnected` until [`NetClient::reconnect`] (or the
    /// retrying path) re-establishes it.
    pub fn disconnect(&mut self) {
        if let Some(stream) = self.stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.reader = FrameBuf::new();
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        connected(&mut self.stream)
    }

    /// One read from the socket straight into the frame buffer's spare
    /// room, as the gateway's reactor reads. EOF is an `UnexpectedEof`
    /// error: the gateway hung up with a reply still owed.
    fn fill(&mut self) -> io::Result<()> {
        let stream = connected(&mut self.stream)?;
        let n = stream.read(self.reader.spare(FRAME_BUF_READ_CHUNK))?;
        self.reader.advance(n);
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "gateway hung up mid-reply",
            ));
        }
        Ok(())
    }

    fn note_reissue(&mut self) {
        self.reissues += 1;
        if let Some(registry) = &self.registry {
            registry.inc(names::CLIENT_REISSUES);
        }
    }

    /// Buffers a reply nobody is currently waiting for (bounded; the
    /// oldest is dropped past the cap). Surfaced by
    /// [`NetClient::drain_extra`] as unsolicited traffic if never
    /// claimed.
    fn buffer_stray(&mut self, reply: Reply) {
        if self.pending.len() >= STRAY_REPLY_CAP {
            self.pending.pop_first();
        }
        self.pending.insert(reply.request_id, reply);
    }

    /// Opens a pipelined session on this connection with the
    /// builder-configured depth and retry policy. See [`Pipeline`].
    pub fn pipeline(&mut self) -> Pipeline<'_> {
        let depth = self.max_inflight;
        let policy = self.retry;
        Pipeline::new(self, depth, policy)
    }

    /// Invokes `operation` and blocks for its reply — a depth-1
    /// [`Pipeline`] without retries.
    pub fn invoke(&mut self, operation: &str, args: &[u8]) -> ftd_core::Result<Reply> {
        let policy = RetryPolicy {
            retries: 0,
            timeout: self.read_timeout,
            ..self.retry
        };
        let mut pipeline = Pipeline::new(self, 1, policy);
        let pending = pipeline.submit(operation, args)?;
        pipeline.wait(&pending)
    }

    /// Invokes `operation` with §3.5 failover — a depth-1 [`Pipeline`]
    /// under `policy`: on a connection error or reply timeout the client
    /// redials (exponential backoff) and reissues the *same* request id,
    /// so the gateway can answer from its response cache. See the module
    /// docs for the plain-client caveat.
    pub fn invoke_retrying(
        &mut self,
        operation: &str,
        args: &[u8],
        policy: &RetryPolicy,
    ) -> ftd_core::Result<Reply> {
        let mut pipeline = Pipeline::new(self, 1, *policy);
        let pending = pipeline.submit(operation, args)?;
        pipeline.wait(&pending)
    }

    /// Re-sends a request under an *existing* request id and blocks for
    /// the reply — the reissue a client performs after a failover (§3.5).
    /// The gateway answers retransmissions from its response cache rather
    /// than re-executing.
    pub fn resend(
        &mut self,
        request_id: u32,
        operation: &str,
        args: &[u8],
    ) -> ftd_core::Result<Reply> {
        self.send_request(request_id, operation, args)?;
        self.recv_reply_for(request_id)
    }

    /// Sends a request without waiting for the reply.
    pub fn send_request(
        &mut self,
        request_id: u32,
        operation: &str,
        args: &[u8],
    ) -> ftd_core::Result<()> {
        let service_contexts = match self.client_id {
            Some(id) => vec![ServiceContext::new(
                FT_CLIENT_ID_SERVICE_CONTEXT,
                id.to_be_bytes().to_vec(),
            )],
            None => Vec::new(),
        };
        let request = Request {
            service_contexts,
            request_id,
            response_expected: true,
            object_key: self.object_key.clone(),
            operation: operation.to_owned(),
            body: args.to_vec(),
            ..Request::default()
        };
        let bytes = GiopMessage::Request(request).encode(ByteOrder::Big);
        Ok(self.stream()?.write_all(&bytes)?)
    }

    /// Blocks until the reply for `request_id` arrives. Replies for
    /// *other* request ids — interleaved pipelined replies — are
    /// buffered by id and claimed by their own `recv_reply_for` (or
    /// counted by [`NetClient::drain_extra`] if never claimed); locate
    /// traffic is discarded.
    pub fn recv_reply_for(&mut self, request_id: u32) -> ftd_core::Result<Reply> {
        if let Some(reply) = self.pending.remove(&request_id) {
            return Ok(reply);
        }
        loop {
            while let Some(msg) = self.reader.next_message().map_err(Error::Giop)? {
                match msg {
                    GiopMessage::Reply(reply) if reply.request_id == request_id => {
                        return Ok(reply)
                    }
                    GiopMessage::Reply(reply) => self.buffer_stray(reply),
                    GiopMessage::CloseConnection => {
                        return Err(io::Error::new(
                            io::ErrorKind::ConnectionAborted,
                            "gateway closed the connection",
                        )
                        .into())
                    }
                    _ => {}
                }
            }
            self.fill()?;
        }
    }

    /// Reads for up to `wait` and returns how many *extra* GIOP messages
    /// arrived unsolicited — buffered replies no request ever claimed
    /// plus whatever else shows up in the window. 0 when the gateway
    /// honors exactly-one-reply.
    pub fn drain_extra(&mut self, wait: Duration) -> ftd_core::Result<usize> {
        let mut extra = self.pending.len();
        self.pending.clear();
        self.stream()?.set_read_timeout(Some(wait))?;
        loop {
            while let Some(_msg) = self.reader.next_message().map_err(Error::Giop)? {
                extra += 1;
            }
            match self.fill() {
                Ok(()) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::UnexpectedEof
                            | io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                    ) =>
                {
                    break
                }
                Err(e) => return Err(e.into()),
            }
        }
        let timeout = self.read_timeout;
        self.stream()?.set_read_timeout(Some(timeout))?;
        Ok(extra)
    }

    /// Sends an orderly CloseConnection and shuts the socket down.
    pub fn close(mut self) -> ftd_core::Result<()> {
        let bytes = GiopMessage::CloseConnection.encode(ByteOrder::Big);
        self.stream()?.write_all(&bytes)?;
        Ok(self.stream()?.shutdown(Shutdown::Both)?)
    }
}

/// Handle for a request submitted to a [`Pipeline`], redeemed with
/// [`Pipeline::poll`] or [`Pipeline::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingReply {
    id: u32,
}

impl PendingReply {
    /// The GIOP request id the submission was sent under.
    pub fn request_id(&self) -> u32 {
        self.id
    }
}

/// One in-flight pipelined request, retained so a failover can reissue
/// it under the same id.
#[derive(Debug)]
struct PipeReq {
    id: u32,
    operation: String,
    args: Vec<u8>,
}

/// A pipelined session on a [`NetClient`] connection: up to `depth`
/// requests outstanding at once, replies claimed per [`PendingReply`]
/// handle in any order.
///
/// [`Pipeline::submit`] sends immediately; when the window is full it
/// first blocks for the oldest outstanding reply. On a connection error
/// or reply timeout the session performs the §3.5 failover for the
/// *whole window*: redial with exponential backoff, then reissue every
/// unanswered request in submission order under its original id — the
/// gateway's response cache and the domain's §3.3 duplicate detection
/// make the reissues exactly-once.
///
/// Dropping the session leaves any unclaimed in-flight replies to
/// arrive later; they are surfaced by [`NetClient::drain_extra`]. Call
/// [`Pipeline::finish`] to collect everything outstanding instead.
#[derive(Debug)]
pub struct Pipeline<'a> {
    client: &'a mut NetClient,
    depth: usize,
    policy: RetryPolicy,
    /// Unanswered requests, submission order.
    inflight: VecDeque<PipeReq>,
    /// Replies received but not yet claimed by their handle.
    completed: BTreeMap<u32, Reply>,
}

impl<'a> Pipeline<'a> {
    fn new(client: &'a mut NetClient, depth: usize, policy: RetryPolicy) -> Self {
        if let Some(stream) = &client.stream {
            let _ = stream.set_read_timeout(Some(policy.timeout));
        }
        Pipeline {
            client,
            depth: depth.max(1),
            policy,
            inflight: VecDeque::new(),
            completed: BTreeMap::new(),
        }
    }

    /// Requests currently outstanding (submitted, reply not yet
    /// received).
    pub fn outstanding(&self) -> usize {
        self.inflight.len()
    }

    /// The session's window: the most requests kept outstanding at once.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Submits `operation`, returning a handle for its reply. Blocks
    /// only while the window is full (waiting for the oldest outstanding
    /// reply) or while a failover is in progress.
    pub fn submit(&mut self, operation: &str, args: &[u8]) -> ftd_core::Result<PendingReply> {
        while self.inflight.len() >= self.depth {
            self.recv_one_or_recover()?;
        }
        self.client.next_request += 1;
        let id = self.client.next_request;
        self.inflight.push_back(PipeReq {
            id,
            operation: operation.to_owned(),
            args: args.to_vec(),
        });
        let sent = if self.client.stream.is_none() {
            Err(io::Error::new(io::ErrorKind::NotConnected, "gateway connection down").into())
        } else {
            self.client.send_request(id, operation, args)
        };
        if let Err(e) = sent {
            // The reissue path re-establishes the link and resends the
            // whole window — including the request just queued.
            self.recover(e)?;
        }
        Ok(PendingReply { id })
    }

    /// Claims the reply for `pending` without blocking beyond a brief
    /// poll of the socket. `Ok(None)` means the reply has not arrived
    /// yet; connection errors surface as `Err` (a subsequent
    /// [`Pipeline::wait`] runs the failover path).
    pub fn poll(&mut self, pending: &PendingReply) -> ftd_core::Result<Option<Reply>> {
        if let Some(reply) = self.completed.remove(&pending.id) {
            return Ok(Some(reply));
        }
        self.ensure_inflight(pending)?;
        let stream_timeout = Duration::from_millis(1);
        self.client
            .stream()?
            .set_read_timeout(Some(stream_timeout))?;
        let outcome = self.poll_socket(pending.id);
        if let Ok(stream) = self.client.stream() {
            let _ = stream.set_read_timeout(Some(self.policy.timeout));
        }
        outcome
    }

    /// Blocks until the reply for `pending` arrives, running the §3.5
    /// whole-window failover on connection errors or reply timeouts.
    pub fn wait(&mut self, pending: &PendingReply) -> ftd_core::Result<Reply> {
        loop {
            if let Some(reply) = self.completed.remove(&pending.id) {
                return Ok(reply);
            }
            self.ensure_inflight(pending)?;
            self.recv_one_or_recover()?;
        }
    }

    /// Waits for every outstanding reply and returns all unclaimed
    /// replies in submission order, consuming the session.
    pub fn finish(mut self) -> ftd_core::Result<Vec<Reply>> {
        while !self.inflight.is_empty() {
            self.recv_one_or_recover()?;
        }
        Ok(std::mem::take(&mut self.completed).into_values().collect())
    }

    fn ensure_inflight(&self, pending: &PendingReply) -> ftd_core::Result<()> {
        if self.inflight.iter().any(|r| r.id == pending.id) {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "unknown or already-claimed pending reply",
            )
            .into())
        }
    }

    /// Drains frames (and at most brief reads) looking for `id`;
    /// `Ok(None)` on a quiet socket.
    fn poll_socket(&mut self, id: u32) -> ftd_core::Result<Option<Reply>> {
        loop {
            self.drain_frames()?;
            if let Some(reply) = self.completed.remove(&id) {
                return Ok(Some(reply));
            }
            match self.client.fill() {
                Ok(()) => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn recv_one_or_recover(&mut self) -> ftd_core::Result<()> {
        match self.recv_one() {
            Ok(()) => Ok(()),
            Err(e) => self.recover(e),
        }
    }

    /// Blocks until one outstanding reply completes.
    fn recv_one(&mut self) -> ftd_core::Result<()> {
        loop {
            let before = self.inflight.len();
            self.drain_frames()?;
            if self.inflight.len() < before {
                return Ok(());
            }
            self.client.fill()?;
        }
    }

    /// Processes every complete frame in the reader: replies matching an
    /// outstanding request complete it; anything else is stray.
    fn drain_frames(&mut self) -> ftd_core::Result<()> {
        while let Some(msg) = self.client.reader.next_message().map_err(Error::Giop)? {
            match msg {
                GiopMessage::Reply(reply) => {
                    if let Some(pos) = self.inflight.iter().position(|r| r.id == reply.request_id) {
                        self.inflight.remove(pos);
                        self.completed.insert(reply.request_id, reply);
                    } else {
                        // A duplicate of an already-claimed reply, or
                        // traffic from an abandoned session: counted by
                        // drain_extra if never claimed.
                        self.client.buffer_stray(reply);
                    }
                }
                GiopMessage::CloseConnection => {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "gateway closed the connection",
                    )
                    .into())
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The §3.5 whole-window failover: redial with exponential backoff
    /// and reissue every unanswered request, in submission order, under
    /// its original id. With `retries: 0` the error surfaces unchanged
    /// (the plain `invoke` contract).
    fn recover(&mut self, err: Error) -> ftd_core::Result<()> {
        if self.policy.retries == 0 {
            return Err(err);
        }
        let mut backoff = self.policy.backoff;
        let mut last = err;
        for _ in 0..self.policy.retries {
            self.client.disconnect();
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(self.policy.max_backoff);
            match self.reissue_window() {
                Ok(()) => return Ok(()),
                Err(e) => last = e,
            }
        }
        self.client.disconnect();
        Err(last)
    }

    /// One failover attempt: reconnect, then resend the whole window.
    fn reissue_window(&mut self) -> ftd_core::Result<()> {
        self.client.reconnect()?;
        self.client
            .stream()?
            .set_read_timeout(Some(self.policy.timeout))?;
        for i in 0..self.inflight.len() {
            let (id, operation, args) = {
                let req = &self.inflight[i];
                (req.id, req.operation.clone(), req.args.clone())
            };
            self.client.note_reissue();
            self.client.send_request(id, &operation, &args)?;
        }
        Ok(())
    }
}

impl Drop for Pipeline<'_> {
    fn drop(&mut self) {
        // Replies completed but never claimed would otherwise read as
        // unsolicited traffic to the next session on this connection.
        for (id, reply) in std::mem::take(&mut self.completed) {
            let _ = id;
            self.client.buffer_stray(reply);
        }
        if let Some(stream) = &self.client.stream {
            let _ = stream.set_read_timeout(Some(self.client.read_timeout));
        }
    }
}
