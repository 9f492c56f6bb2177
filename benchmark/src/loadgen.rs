//! The load generator: a lean GIOP wire client and the closed- and
//! open-loop drivers that run one connection each.
//!
//! The generator shares two cores with the server it measures, so it is
//! deliberately cheap: requests are encoded with `ftd-giop`, replies are
//! carved out of a reusable [`FrameBuf`], and every reply is checked
//! against the [`OpStream`] model as it arrives. Its own CPU is reported
//! (`loadgen.cpu_us_per_req`) so a run in which the generator is the
//! busy party says so.

use crate::workload::{Op, OpStream};
use ftd_giop::{
    ByteOrder, Frame, FrameBuf, GiopMessage, ObjectKey, ReplyStatus, Request, ServiceContext,
    FRAME_BUF_READ_CHUNK, FT_CLIENT_ID_SERVICE_CONTEXT,
};
use ftd_totem::GroupId;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many of a connection's last exchanges are kept for the §3.5
/// reissue check.
pub const RECENT: usize = 32;

/// How long a connection waits for a reply before the outstanding
/// requests count as missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Marshals requests for one (object group, client id) pair.
#[derive(Debug, Clone)]
pub struct Encoder {
    object_key: Vec<u8>,
    client_id: u32,
}

impl Encoder {
    /// An encoder for `group` of the benchmark's domain, identifying
    /// itself as enhanced client `client_id`.
    pub fn new(group: GroupId, client_id: u32) -> Encoder {
        Encoder {
            object_key: ObjectKey::new(crate::server::DOMAIN, group.0).to_bytes(),
            client_id,
        }
    }

    /// Big-endian wire bytes of one request, carrying the §3.5 client-id
    /// service context.
    pub fn request(&self, request_id: u32, operation: &str, args: &[u8]) -> Vec<u8> {
        GiopMessage::Request(Request {
            service_contexts: vec![ServiceContext::new(
                FT_CLIENT_ID_SERVICE_CONTEXT,
                self.client_id.to_be_bytes().to_vec(),
            )],
            request_id,
            response_expected: true,
            object_key: self.object_key.clone(),
            operation: operation.to_owned(),
            body: args.to_vec(),
            ..Request::default()
        })
        .encode(ByteOrder::Big)
    }
}

/// One decoded reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireReply {
    /// The request it answers.
    pub request_id: u32,
    /// `false` for any exception status.
    pub ok: bool,
    /// The reply body.
    pub body: Vec<u8>,
}

/// A blocking GIOP client connection bound to one object group.
#[derive(Debug)]
pub struct WireConn {
    stream: TcpStream,
    fbuf: FrameBuf,
    last: Range<usize>,
    encoder: Encoder,
    next_id: u32,
}

impl WireConn {
    /// Connects to the gateway at `addr` as enhanced client `client_id`
    /// of `group`.
    pub fn connect(addr: SocketAddr, group: GroupId, client_id: u32) -> io::Result<WireConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(WireConn {
            stream,
            fbuf: FrameBuf::new(),
            last: 0..0,
            encoder: Encoder::new(group, client_id),
            next_id: 0,
        })
    }

    /// Bounds every blocking read.
    pub fn set_read_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        self.stream.set_read_timeout(Some(timeout))
    }

    /// Wire bytes of a request under an explicit id.
    pub fn encode_request(&self, request_id: u32, operation: &str, args: &[u8]) -> Vec<u8> {
        self.encoder.request(request_id, operation, args)
    }

    /// A fresh request id (ids count up from 1).
    pub fn fresh_id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    /// Writes `bytes` (one or more whole requests).
    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Blocks for more reply bytes. A closed connection is an error.
    pub fn fill(&mut self) -> io::Result<()> {
        let spare = self.fbuf.spare(FRAME_BUF_READ_CHUNK);
        let n = loop {
            match self.stream.read(spare) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => break other?,
            }
        };
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.fbuf.advance(n);
        Ok(())
    }

    /// The next complete buffered reply, if any. Anything that is not a
    /// well-formed Reply is an error: the gateway sends nothing else on
    /// a healthy connection.
    pub fn next_reply(&mut self) -> io::Result<Option<WireReply>> {
        let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
        let Some(span) = self.fbuf.next_span().map_err(|e| bad(e.to_string()))? else {
            return Ok(None);
        };
        self.last = span.clone();
        let message = Frame::parse(&self.fbuf.bytes()[span])
            .and_then(|f| f.to_message())
            .map_err(|e| bad(e.to_string()))?;
        match message {
            GiopMessage::Reply(reply) => Ok(Some(WireReply {
                request_id: reply.request_id,
                ok: reply.reply_status == ReplyStatus::NoException,
                body: reply.body,
            })),
            other => Err(bad(format!(
                "unexpected {:?} from gateway",
                other.msg_type()
            ))),
        }
    }

    /// The wire bytes of the reply [`WireConn::next_reply`] last
    /// returned (valid until the next [`WireConn::fill`]).
    pub fn last_wire(&self) -> &[u8] {
        &self.fbuf.bytes()[self.last.clone()]
    }

    /// Sends one request and blocks for its reply; returns the decoded
    /// reply and its wire bytes. Used outside the measured period (the
    /// first verified reply of a set-up, the correctness oracle).
    pub fn call(&mut self, request: &[u8], request_id: u32) -> io::Result<(WireReply, Vec<u8>)> {
        self.send(request)?;
        loop {
            while let Some(reply) = self.next_reply()? {
                if reply.request_id == request_id {
                    return Ok((reply, self.last_wire().to_vec()));
                }
            }
            self.fill()?;
        }
    }
}

/// When a run generates load and which part of it is measured.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Generation (the warm-up) starts.
    pub start: Instant,
    /// The measured period starts.
    pub measure_start: Instant,
    /// The measured period, and generation, end.
    pub measure_end: Instant,
    /// Equal windows the measured period is cut into.
    pub windows: usize,
}

impl Plan {
    /// Length of one window.
    pub fn window_len(&self) -> Duration {
        (self.measure_end - self.measure_start) / self.windows as u32
    }

    /// The window `t` falls into, if it is inside the measured period.
    pub fn window_of(&self, t: Instant) -> Option<usize> {
        if t < self.measure_start || t >= self.measure_end {
            return None;
        }
        let offset = (t - self.measure_start).as_nanos();
        let index = (offset / self.window_len().as_nanos().max(1)) as usize;
        Some(index.min(self.windows - 1))
    }
}

/// A request and the reply it got, byte for byte.
#[derive(Debug, Clone, Default)]
pub struct Exchange {
    /// The request id.
    pub request_id: u32,
    /// Request wire bytes.
    pub request: Vec<u8>,
    /// Reply wire bytes.
    pub reply: Vec<u8>,
}

/// What one connection saw.
#[derive(Debug, Default)]
pub struct ConnReport {
    /// Requests written.
    pub sent: u64,
    /// Replies received and matched to a request.
    pub completed: u64,
    /// Wrong, unexpected, duplicate or missing replies and I/O errors.
    pub failed: u64,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
    /// Latency in ns of every reply completed in each window.
    pub windows: Vec<Vec<u64>>,
    /// Open loop: how late each send due in each window left, in ns.
    pub lag_ns: Vec<Vec<u64>>,
    /// The last [`RECENT`] exchanges, oldest first.
    pub recent: VecDeque<Exchange>,
}

impl ConnReport {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

/// A connection after its run: the socket and the model are handed on
/// to the correctness oracle.
#[derive(Debug)]
pub struct ConnRun {
    /// The connection, idle.
    pub conn: WireConn,
    /// The model, advanced past every request sent.
    pub ops: OpStream,
    /// What happened.
    pub report: ConnReport,
}

/// A request in flight.
#[derive(Debug)]
struct Pending {
    id: u32,
    /// Closed loop: when it was written. Open loop: when it was *due*,
    /// so a stall is charged to every request it delayed.
    at: Instant,
    expected: Arc<[u8]>,
    request: Vec<u8>,
}

/// Matches replies to pending requests, checks them and files their
/// latency under the window they completed in.
struct Collector {
    plan: Plan,
    pending: VecDeque<Pending>,
    report: ConnReport,
}

impl Collector {
    fn new(plan: Plan) -> Collector {
        Collector {
            plan,
            pending: VecDeque::new(),
            report: ConnReport {
                windows: vec![Vec::new(); plan.windows],
                ..ConnReport::default()
            },
        }
    }

    fn on_reply(&mut self, reply: WireReply, wire: &[u8], now: Instant) {
        // Replies of one connection come back in request order; anything
        // else is still accepted, by search.
        let position = match self.pending.front() {
            Some(front) if front.id == reply.request_id => Some(0),
            _ => self.pending.iter().position(|p| p.id == reply.request_id),
        };
        let Some(pending) = position.and_then(|i| self.pending.remove(i)) else {
            self.report
                .fail(format!("reply {} matches no request", reply.request_id));
            return;
        };
        if !reply.ok || reply.body[..] != pending.expected[..] {
            self.report.fail(format!(
                "request {}: wrong reply ({} bytes, ok={})",
                pending.id,
                reply.body.len(),
                reply.ok
            ));
        }
        self.report.completed += 1;
        if let Some(w) = self.plan.window_of(now) {
            let latency = now.saturating_duration_since(pending.at);
            self.report.windows[w].push(latency.as_nanos() as u64);
        }
        // Recycle the oldest exchange's buffers for the newest.
        let mut slot = if self.report.recent.len() >= RECENT {
            self.report.recent.pop_front().unwrap_or_default()
        } else {
            Exchange::default()
        };
        slot.request_id = pending.id;
        slot.request = pending.request;
        slot.reply.clear();
        slot.reply.extend_from_slice(wire);
        self.report.recent.push_back(slot);
    }

    /// Drains every buffered reply of `conn`.
    fn drain(&mut self, conn: &mut WireConn, now: Instant) -> io::Result<()> {
        while let Some(reply) = conn.next_reply()? {
            self.on_reply(reply, conn.last_wire(), now);
        }
        Ok(())
    }

    /// Everything still pending is missing.
    fn give_up(&mut self, why: &io::Error) {
        let missing = self.pending.len();
        if missing > 0 {
            self.report
                .fail(format!("{missing} replies missing: {why}"));
            self.report.failed += missing as u64 - 1;
            self.pending.clear();
        } else {
            self.report.fail(format!("connection: {why}"));
        }
    }
}

/// Sleeps until `t` (returns at once if it has passed).
pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if now < t {
        std::thread::sleep(t - now);
    }
}

fn issue(conn_encoder: &Encoder, id: u32, op: &Op, at: Instant) -> Pending {
    Pending {
        id,
        at,
        expected: op.expected.clone(),
        request: conn_encoder.request(id, op.operation, &op.args),
    }
}

/// Closed loop on one connection: keeps `depth` requests outstanding
/// from `plan.start` to `plan.measure_end`, then drains.
pub fn run_closed(mut conn: WireConn, mut ops: OpStream, depth: usize, plan: Plan) -> ConnRun {
    let mut collector = Collector::new(plan);
    let mut batch = Vec::new();
    sleep_until(plan.start);
    let outcome: io::Result<()> = (|| loop {
        let now = Instant::now();
        if now < plan.measure_end {
            batch.clear();
            while collector.pending.len() < depth {
                let id = conn.fresh_id();
                let pending = issue(&conn.encoder, id, &ops.next_op(), now);
                batch.extend_from_slice(&pending.request);
                collector.pending.push_back(pending);
                collector.report.sent += 1;
            }
            conn.send(&batch)?;
        } else if collector.pending.is_empty() {
            return Ok(());
        }
        conn.fill()?;
        collector.drain(&mut conn, Instant::now())?;
    })();
    if let Err(e) = outcome {
        collector.give_up(&e);
    }
    ConnRun {
        conn,
        ops,
        report: collector.report,
    }
}

/// The arrival schedule of one open-loop connection: request `k` is due
/// at `first + k * interval`, whatever the server does.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// When request 0 is due.
    pub first: Instant,
    /// Time between arrivals.
    pub interval: Duration,
}

impl Schedule {
    /// When request `k` is due.
    pub fn due(&self, k: u64) -> Instant {
        self.first + Duration::from_nanos(self.interval.as_nanos() as u64 * k)
    }

    /// How late a request due at `due` left when it was sent at `sent`.
    pub fn lateness(due: Instant, sent: Instant) -> Duration {
        sent.saturating_duration_since(due)
    }
}

/// Moves every request the sender has announced into `pending`; `true`
/// once the sender is gone and the channel is empty.
fn absorb(rx: &mpsc::Receiver<Pending>, pending: &mut VecDeque<Pending>) -> bool {
    loop {
        match rx.try_recv() {
            Ok(p) => pending.push_back(p),
            Err(mpsc::TryRecvError::Empty) => return false,
            Err(mpsc::TryRecvError::Disconnected) => return true,
        }
    }
}

/// Open loop on one connection: a sender thread writes on `schedule`
/// until `plan.measure_end` and never waits for a reply; this thread
/// reads replies and times each from its *due* time.
pub fn run_open(mut conn: WireConn, ops: OpStream, schedule: Schedule, plan: Plan) -> ConnRun {
    let mut collector = Collector::new(plan);
    let (tx, rx) = mpsc::channel::<Pending>();
    let encoder = conn.encoder.clone();
    let first_id = conn.next_id;
    let writer = match conn.stream.try_clone() {
        Ok(stream) => stream,
        Err(e) => {
            collector
                .report
                .fail(format!("clone generator socket: {e}"));
            return ConnRun {
                conn,
                ops,
                report: collector.report,
            };
        }
    };

    let sender = move |mut stream: TcpStream, mut ops: OpStream| {
        let mut lag_ns = vec![Vec::new(); plan.windows];
        let mut sent = 0u64;
        let mut error = None;
        loop {
            let due = schedule.due(sent);
            if due >= plan.measure_end {
                break;
            }
            sleep_until(due);
            if let Some(w) = plan.window_of(due) {
                lag_ns[w].push(Schedule::lateness(due, Instant::now()).as_nanos() as u64);
            }
            let pending = issue(&encoder, first_id + sent as u32 + 1, &ops.next_op(), due);
            let bytes = pending.request.clone();
            sent += 1;
            // The reader must know the request before its reply can
            // possibly arrive.
            if tx.send(pending).is_err() {
                break;
            }
            if let Err(e) = stream.write_all(&bytes) {
                error = Some(e);
                break;
            }
        }
        (ops, lag_ns, sent, error)
    };

    let (ops, lag_ns, sent, send_error) = std::thread::scope(|scope| {
        let handle = std::thread::Builder::new()
            .name("bench-open-send".into())
            .spawn_scoped(scope, move || sender(writer, ops))
            .expect("spawn sender thread");
        // Short read timeouts let the reader notice that the sender is
        // done; until then a quiet socket just means "ask again".
        let _ = conn.set_read_timeout(Duration::from_millis(20));
        let mut quiet_since: Option<Instant> = None;
        loop {
            if absorb(&rx, &mut collector.pending) && collector.pending.is_empty() {
                break;
            }
            match conn.fill() {
                Ok(()) => {
                    quiet_since = None;
                    // A reply can only overtake its channel message by
                    // the few instructions between send and write.
                    absorb(&rx, &mut collector.pending);
                    if let Err(e) = collector.drain(&mut conn, Instant::now()) {
                        collector.give_up(&e);
                        break;
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    let since = *quiet_since.get_or_insert_with(Instant::now);
                    if !collector.pending.is_empty() && since.elapsed() > REPLY_TIMEOUT {
                        collector.give_up(&e);
                        break;
                    }
                }
                Err(e) => {
                    collector.give_up(&e);
                    break;
                }
            }
        }
        // Unblock a sender still running after a reader-side failure.
        drop(rx);
        handle.join().expect("sender thread")
    });

    let _ = conn.set_read_timeout(REPLY_TIMEOUT);
    conn.next_id = first_id + sent as u32;
    collector.report.sent = sent;
    collector.report.lag_ns = lag_ns;
    if let Some(e) = send_error {
        collector.report.fail(format!("send: {e}"));
    }
    ConnRun {
        conn,
        ops,
        report: collector.report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(start: Instant, windows: usize, len_ms: u64) -> Plan {
        Plan {
            start,
            measure_start: start + Duration::from_millis(100),
            measure_end: start + Duration::from_millis(100 + len_ms * windows as u64),
            windows,
        }
    }

    #[test]
    fn windows_partition_the_measured_period() {
        let t0 = Instant::now();
        let p = plan(t0, 4, 50);
        assert_eq!(p.window_len(), Duration::from_millis(50));
        assert_eq!(p.window_of(t0), None, "warm-up is not measured");
        assert_eq!(p.window_of(p.measure_start), Some(0));
        assert_eq!(
            p.window_of(p.measure_start + Duration::from_millis(49)),
            Some(0)
        );
        assert_eq!(
            p.window_of(p.measure_start + Duration::from_millis(50)),
            Some(1)
        );
        assert_eq!(
            p.window_of(p.measure_end - Duration::from_nanos(1)),
            Some(3)
        );
        assert_eq!(p.window_of(p.measure_end), None);
    }

    #[test]
    fn open_loop_times_from_the_due_time_not_the_send_time() {
        let first = Instant::now();
        let schedule = Schedule {
            first,
            interval: Duration::from_micros(500),
        };
        assert_eq!(schedule.due(0), first);
        assert_eq!(schedule.due(4000), first + Duration::from_secs(2));
        // A request due at 1 ms that left at 4 ms was 3 ms late...
        let due = schedule.due(2);
        let sent = first + Duration::from_millis(4);
        assert_eq!(Schedule::lateness(due, sent), Duration::from_millis(3));
        // ...an early wake-up is not negative lateness...
        assert_eq!(Schedule::lateness(due, first), Duration::ZERO);

        // ...and its latency runs from the due time: a reply at 6 ms is
        // a 5 ms latency although it was on the wire for only 2 ms.
        let p = Plan {
            start: first,
            measure_start: first,
            measure_end: first + Duration::from_secs(1),
            windows: 1,
        };
        let mut c = Collector::new(p);
        c.pending.push_back(Pending {
            id: 3,
            at: due,
            expected: Arc::from(vec![9u8]),
            request: vec![1, 2, 3],
        });
        let reply = WireReply {
            request_id: 3,
            ok: true,
            body: vec![9],
        };
        c.on_reply(reply, b"wire", first + Duration::from_millis(6));
        assert_eq!(c.report.windows[0], vec![5_000_000]);
        assert_eq!((c.report.completed, c.report.failed), (1, 0));
        assert_eq!(c.report.recent[0].reply, b"wire");
    }

    #[test]
    fn wrong_unknown_and_missing_replies_are_failures() {
        let now = Instant::now();
        let mut c = Collector::new(plan(now, 1, 10));
        for id in 1..=3 {
            c.pending.push_back(Pending {
                id,
                at: now,
                expected: Arc::from(vec![id as u8]),
                request: Vec::new(),
            });
        }
        let reply = |request_id, ok, body: Vec<u8>| WireReply {
            request_id,
            ok,
            body,
        };
        c.on_reply(reply(1, true, vec![7]), b"", now); // wrong body
        c.on_reply(reply(9, true, vec![9]), b"", now); // no such request
        c.on_reply(reply(1, true, vec![1]), b"", now); // duplicate
        c.on_reply(reply(3, false, vec![3]), b"", now); // exception, out of order
        assert_eq!(c.report.failed, 4);
        c.give_up(&io::ErrorKind::TimedOut.into()); // request 2 never answered
        assert_eq!(c.report.failed, 5);
        assert_eq!(c.report.completed, 2);
    }

    #[test]
    fn the_recent_ring_keeps_the_last_exchanges_in_order() {
        let now = Instant::now();
        let mut c = Collector::new(plan(now, 1, 10));
        for id in 1..=(RECENT as u32 + 5) {
            c.pending.push_back(Pending {
                id,
                at: now,
                expected: Arc::from(Vec::new()),
                request: id.to_be_bytes().to_vec(),
            });
            let reply = WireReply {
                request_id: id,
                ok: true,
                body: Vec::new(),
            };
            c.on_reply(reply, &id.to_le_bytes(), now);
        }
        assert_eq!(c.report.recent.len(), RECENT);
        assert_eq!(c.report.recent[0].request_id, 6);
        assert_eq!(c.report.recent[RECENT - 1].request_id, RECENT as u32 + 5);
        assert_eq!(c.report.recent[0].request, 6u32.to_be_bytes());
        assert_eq!(c.report.recent[0].reply, 6u32.to_le_bytes());
    }
}
