//! Unreplicated external clients.
//!
//! * [`PlainClient`] models a client on a standard, unmodified ORB (§3.4):
//!   it understands only the first IIOP profile of the IOR, supplies no
//!   client identification, and on gateway failure "has no alternative but
//!   to abandon the request". An optional naive-retry mode reconnects and
//!   reissues — which is precisely what corrupts server state, since the
//!   gateway cannot recognize the returning client (the §3.4 failure the
//!   experiments measure).
//! * [`EnhancedClient`] models the thin client-side interception layer of
//!   §3.5: it walks the multi-profile IOR, inserts a unique client
//!   identifier into the service context of every request, and on gateway
//!   failure transparently connects to the next profile and reissues every
//!   pending invocation under the same identifiers — safe end to end
//!   thanks to the gateway/domain duplicate suppression.

use ftd_giop::{
    ByteOrder, FrameBuf, GiopMessage, IiopProfile, Ior, Reply, Request, ServiceContext,
    FT_CLIENT_ID_SERVICE_CONTEXT,
};
use ftd_sim::{Actor, ConnId, Context, NetAddr, ProcessorId, SimDuration, TcpEvent};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Timer tag: flush enqueued requests (post this after
/// [`PlainClient::enqueue`] / [`EnhancedClient::enqueue`] from a test
/// driver).
pub const TAG_FLUSH: u64 = 1;
const TAG_RECONNECT: u64 = 2;

fn profile_addr(profile: &IiopProfile) -> NetAddr {
    // Simulation hosts are named "P<n>".
    let n: u32 = profile
        .host
        .strip_prefix('P')
        .and_then(|s| s.parse().ok())
        .expect("simulated hosts are named P<n>");
    NetAddr::new(ProcessorId(n), profile.port)
}

/// A completed invocation as observed by a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientReply {
    /// The request id the reply answers.
    pub request_id: u32,
    /// Reply body bytes.
    pub body: Vec<u8>,
}

#[derive(Debug)]
struct Pending {
    operation: String,
    args: Vec<u8>,
}

/// The §3.4 plain-ORB client. See the module docs.
#[derive(Debug)]
pub struct PlainClient {
    profile: IiopProfile,
    reconnect: bool,
    conn: Option<ConnId>,
    connected: bool,
    reader: FrameBuf,
    next_request: u32,
    outbox: VecDeque<(String, Vec<u8>)>,
    pending: BTreeMap<u32, Pending>,
    /// Replies received, in order.
    pub replies: Vec<ClientReply>,
    /// Duplicate replies discarded (same request id twice).
    pub duplicate_replies: u64,
    /// `true` once the client has abandoned outstanding requests (§3.4).
    pub abandoned: bool,
    /// Times the connection was observed broken.
    pub disconnects: u32,
}

impl PlainClient {
    /// Creates a client of the object whose (possibly multi-profile) IOR
    /// is given; a plain ORB uses only the first profile.
    pub fn new(ior: &Ior, reconnect: bool) -> Self {
        PlainClient {
            profile: ior.primary_iiop().expect("IOR carries an IIOP profile"),
            reconnect,
            conn: None,
            connected: false,
            reader: FrameBuf::new(),
            next_request: 0,
            outbox: VecDeque::new(),
            pending: BTreeMap::new(),
            replies: Vec::new(),
            duplicate_replies: 0,
            abandoned: false,
            disconnects: 0,
        }
    }

    /// Queues an invocation; post [`TAG_FLUSH`] to the client's processor
    /// to send it from within the event loop.
    pub fn enqueue(&mut self, operation: &str, args: &[u8]) {
        self.outbox.push_back((operation.to_owned(), args.to_vec()));
    }

    /// Requests with no reply yet.
    pub fn outstanding(&self) -> usize {
        self.pending.len() + self.outbox.len()
    }

    fn request_wire(&mut self, request_id: u32, operation: &str, args: &[u8]) -> Vec<u8> {
        let req = Request {
            request_id,
            response_expected: true,
            object_key: self.profile.object_key.clone(),
            operation: operation.to_owned(),
            body: args.to_vec(),
            ..Request::default()
        };
        GiopMessage::Request(req).encode(ByteOrder::Big)
    }

    fn flush(&mut self, ctx: &mut Context<'_>) {
        if !self.connected {
            if self.conn.is_none() {
                self.conn = ctx.tcp_connect(profile_addr(&self.profile)).ok();
            }
            return;
        }
        let conn = self.conn.expect("connected implies conn");
        while let Some((operation, args)) = self.outbox.pop_front() {
            self.next_request += 1;
            let id = self.next_request;
            let wire = self.request_wire(id, &operation, &args);
            self.pending.insert(id, Pending { operation, args });
            let _ = ctx.tcp_send(conn, wire);
            ctx.stats().inc("client.plain_requests");
        }
    }

    fn on_reply(&mut self, ctx: &mut Context<'_>, reply: Reply) {
        if self.pending.remove(&reply.request_id).is_none() {
            self.duplicate_replies += 1;
            ctx.stats().inc("client.plain_duplicate_replies");
            return;
        }
        self.replies.push(ClientReply {
            request_id: reply.request_id,
            body: reply.body,
        });
    }
}

impl Actor for PlainClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.conn = ctx.tcp_connect(profile_addr(&self.profile)).ok();
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        match tag {
            TAG_FLUSH => self.flush(ctx),
            TAG_RECONNECT => {
                self.conn = ctx.tcp_connect(profile_addr(&self.profile)).ok();
            }
            _ => {}
        }
    }

    fn on_tcp(&mut self, ctx: &mut Context<'_>, ev: TcpEvent) {
        match ev {
            TcpEvent::Connected { conn } if Some(conn) == self.conn => {
                self.connected = true;
                self.reader = FrameBuf::new();
                // A reconnecting plain ORB naively reissues what it still
                // awaits — under fresh gateway-assigned identity.
                if self.reconnect && !self.pending.is_empty() {
                    ctx.stats().inc("client.plain_reissue_bursts");
                    let old = std::mem::take(&mut self.pending);
                    for (_, p) in old {
                        self.outbox.push_back((p.operation, p.args));
                    }
                }
                self.flush(ctx);
            }
            TcpEvent::ConnectFailed { conn, .. } if Some(conn) == self.conn => {
                self.conn = None;
                self.connected = false;
                if self.reconnect {
                    ctx.set_timer(SimDuration::from_millis(20), TAG_RECONNECT);
                } else {
                    self.abandoned = self.outstanding() > 0;
                }
            }
            TcpEvent::Data { conn, bytes } if Some(conn) == self.conn => {
                self.reader.push(&bytes);
                while let Ok(Some(msg)) = self.reader.next_message() {
                    if let GiopMessage::Reply(reply) = msg {
                        self.on_reply(ctx, reply);
                    }
                }
            }
            TcpEvent::Closed { conn } if Some(conn) == self.conn => {
                self.disconnects += 1;
                self.conn = None;
                self.connected = false;
                ctx.stats().inc("client.plain_disconnects");
                if self.reconnect {
                    ctx.set_timer(SimDuration::from_millis(20), TAG_RECONNECT);
                } else {
                    // §3.4: "the client has no alternative but to abandon
                    // the request. Furthermore, the client does not know
                    // the status of any invocations that it has already
                    // sent."
                    self.abandoned = self.outstanding() > 0;
                    if self.abandoned {
                        ctx.stats().inc("client.plain_abandoned");
                    }
                }
            }
            _ => {}
        }
    }
}

/// The §3.5 enhanced client: plain application code on top of a thin
/// client-side interception layer. See the module docs.
#[derive(Debug)]
pub struct EnhancedClient {
    profiles: Vec<IiopProfile>,
    current: usize,
    client_id: u32,
    conn: Option<ConnId>,
    connected: bool,
    reader: FrameBuf,
    next_request: u32,
    outbox: VecDeque<(String, Vec<u8>)>,
    pending: BTreeMap<u32, Pending>,
    /// Replies received, in order.
    pub replies: Vec<ClientReply>,
    /// Duplicate replies transparently dropped by the layer.
    pub duplicate_replies: u64,
    /// Failovers performed (profile switches).
    pub failovers: u32,
    /// `true` when every profile has been exhausted.
    pub exhausted: bool,
}

impl EnhancedClient {
    /// Creates an enhanced client with a unique `client_id` (the value the
    /// interception layer puts into every request's service context).
    pub fn new(ior: &Ior, client_id: u32) -> Self {
        let profiles = ior.iiop_profiles().expect("parseable IOR");
        assert!(!profiles.is_empty(), "IOR without IIOP profiles");
        EnhancedClient {
            profiles,
            current: 0,
            client_id,
            conn: None,
            connected: false,
            reader: FrameBuf::new(),
            next_request: 0,
            outbox: VecDeque::new(),
            pending: BTreeMap::new(),
            replies: Vec::new(),
            duplicate_replies: 0,
            failovers: 0,
            exhausted: false,
        }
    }

    /// Queues an invocation; post [`TAG_FLUSH`] to send.
    pub fn enqueue(&mut self, operation: &str, args: &[u8]) {
        self.outbox.push_back((operation.to_owned(), args.to_vec()));
    }

    /// Requests with no reply yet.
    pub fn outstanding(&self) -> usize {
        self.pending.len() + self.outbox.len()
    }

    /// The profile currently in use.
    pub fn current_profile(&self) -> &IiopProfile {
        &self.profiles[self.current]
    }

    fn request_wire(&self, request_id: u32, operation: &str, args: &[u8]) -> Vec<u8> {
        let req = Request {
            request_id,
            response_expected: true,
            object_key: self.profiles[self.current].object_key.clone(),
            operation: operation.to_owned(),
            body: args.to_vec(),
            service_contexts: vec![ServiceContext::new(
                FT_CLIENT_ID_SERVICE_CONTEXT,
                self.client_id.to_be_bytes().to_vec(),
            )],
            ..Request::default()
        };
        GiopMessage::Request(req).encode(ByteOrder::Big)
    }

    fn connect_current(&mut self, ctx: &mut Context<'_>) {
        let addr = profile_addr(&self.profiles[self.current]);
        self.connected = false;
        self.reader = FrameBuf::new();
        self.conn = ctx.tcp_connect(addr).ok();
    }

    /// §3.5: "the client-side interception layer transparently skips to
    /// the next profile in the multi-profile IOR, and connects the client
    /// to the next operational gateway, and reissues any pending
    /// invocations."
    fn failover(&mut self, ctx: &mut Context<'_>) {
        if self.current + 1 < self.profiles.len() {
            self.current += 1;
            self.failovers += 1;
            ctx.stats().inc("client.enhanced_failovers");
            self.connect_current(ctx);
        } else {
            self.exhausted = true;
            self.conn = None;
            ctx.stats().inc("client.enhanced_exhausted");
        }
    }

    fn flush(&mut self, ctx: &mut Context<'_>) {
        if !self.connected {
            if self.conn.is_none() && !self.exhausted {
                self.connect_current(ctx);
            }
            return;
        }
        let conn = self.conn.expect("connected implies conn");
        while let Some((operation, args)) = self.outbox.pop_front() {
            self.next_request += 1;
            let id = self.next_request;
            let wire = self.request_wire(id, &operation, &args);
            self.pending.insert(id, Pending { operation, args });
            let _ = ctx.tcp_send(conn, wire);
            ctx.stats().inc("client.enhanced_requests");
        }
    }

    fn reissue_pending(&mut self, ctx: &mut Context<'_>) {
        let conn = self.conn.expect("connected implies conn");
        for (&id, p) in &self.pending {
            let wire = self.request_wire(id, &p.operation, &p.args);
            let _ = ctx.tcp_send(conn, wire);
            ctx.stats().inc("client.enhanced_reissues");
        }
    }
}

impl Actor for EnhancedClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.connect_current(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        if tag == TAG_FLUSH {
            self.flush(ctx);
        }
    }

    fn on_tcp(&mut self, ctx: &mut Context<'_>, ev: TcpEvent) {
        match ev {
            TcpEvent::Connected { conn } if Some(conn) == self.conn => {
                self.connected = true;
                // Reissue everything outstanding under the same client id
                // and request ids; duplicate suppression downstream makes
                // this exactly-once.
                self.reissue_pending(ctx);
                self.flush(ctx);
            }
            TcpEvent::ConnectFailed { conn, .. } if Some(conn) == self.conn => {
                self.failover(ctx);
            }
            TcpEvent::Data { conn, bytes } if Some(conn) == self.conn => {
                self.reader.push(&bytes);
                while let Ok(Some(msg)) = self.reader.next_message() {
                    if let GiopMessage::Reply(reply) = msg {
                        if self.pending.remove(&reply.request_id).is_some() {
                            self.replies.push(ClientReply {
                                request_id: reply.request_id,
                                body: reply.body,
                            });
                        } else {
                            self.duplicate_replies += 1;
                            ctx.stats().inc("client.enhanced_duplicate_replies");
                        }
                    }
                }
            }
            TcpEvent::Closed { conn } if Some(conn) == self.conn => {
                ctx.stats().inc("client.enhanced_disconnects");
                self.failover(ctx);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftd_giop::ObjectKey;

    fn ior(n_profiles: usize) -> Ior {
        Ior::with_iiop_profiles(
            "IDL:X:1.0",
            (0..n_profiles)
                .map(|i| IiopProfile::new(format!("P{i}"), 9000, ObjectKey::new(0, 1).to_bytes())),
        )
    }

    #[test]
    fn plain_client_uses_first_profile_only() {
        let c = PlainClient::new(&ior(3), false);
        assert_eq!(c.profile.host, "P0");
    }

    #[test]
    fn enhanced_client_knows_all_profiles() {
        let c = EnhancedClient::new(&ior(3), 42);
        assert_eq!(c.profiles.len(), 3);
        assert_eq!(c.current_profile().host, "P0");
    }

    #[test]
    fn profile_addr_parses_sim_hosts() {
        let p = IiopProfile::new("P7", 123, vec![]);
        assert_eq!(profile_addr(&p), NetAddr::new(ProcessorId(7), 123));
    }

    #[test]
    #[should_panic(expected = "P<n>")]
    fn profile_addr_rejects_foreign_hosts() {
        let p = IiopProfile::new("example.com", 123, vec![]);
        let _ = profile_addr(&p);
    }

    #[test]
    fn enqueue_counts_as_outstanding() {
        let mut c = PlainClient::new(&ior(1), false);
        c.enqueue("get", &[]);
        assert_eq!(c.outstanding(), 1);
    }
}
