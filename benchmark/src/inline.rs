//! The inline traced pipeline: the sans-IO stack hosted by the
//! benchmark itself, single-threaded, with a span around every public
//! call into a layer.
//!
//! The served gateway cannot say how long `GatewayEngine::on_client_frame`
//! or `DomainHost::pump` takes without being changed, so the benchmark
//! drives the same calls on the same generated inputs — encode, frame,
//! engine, multicast, pump, delivery, decode — and times each from the
//! outside. With spans off the same loop is the no-socket ceiling
//! (`inline.throughput_rps`).

use crate::json;
use crate::loadgen::Encoder;
use crate::server::{self, ADMISSION_WINDOW, SHARDS};
use crate::workload::{derive, OpStream, Workload};
use ftd_core::{classify_delivery, Action, DeliveryRoute, GatewayEngine, GwConn, ShardRouter};
use ftd_giop::{Frame, FrameBuf, GiopMessage, ReplyStatus};
use ftd_net::DomainBackend;
use ftd_sim::SimDuration;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Virtual time the domain advances per pump — the served gateway's
/// domain tick.
const TICK_VIRTUAL: SimDuration = SimDuration::from_millis(2);
/// Requests offered per pump, all connections together.
const BATCH: usize = 64;
/// Idle pumps timed for `net.host.pump.idle_ns_per_tick`.
const IDLE_TICKS: u64 = 1000;

/// One timed interval. `parent` is the index of the span that was open
/// when this one began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer call, e.g. `net.host.pump`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// The enclosing span.
    pub parent: Option<u32>,
    /// The request (`connection << 32 | request id`) or tick this span
    /// belongs to.
    pub id: u64,
}

/// Records spans in memory; written out when the benchmark ends. With
/// `on == false` every call is a branch and nothing else.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, id: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
            id,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(index) = self.open.pop() {
            self.spans[index as usize].end_ns = end_ns;
        }
    }

    /// The recorded spans, in the order they were opened.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: how many, their total duration, and their total
    /// *self* time — duration minus the part their child spans cover.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let t = totals.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += duration;
            t.self_ns += duration.saturating_sub(children);
        }
        totals
    }

    /// Writes one JSON object per span, one per line, for the first
    /// `limit` spans (the totals use all of them; the file is for
    /// reading, and a million lines help nobody).
    pub fn write_jsonl(&self, path: &Path, limit: usize) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate().take(limit) {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{index},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                json::quote(span.name),
                span.start_ns,
                span.end_ns,
                span.id
            )?;
        }
        out.flush()
    }
}

/// Aggregate of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus child spans.
    pub self_ns: u64,
}

/// What one inline run did.
#[derive(Debug)]
pub struct InlineRun {
    /// Requests completed (all of them, or the run is an error).
    pub requests: u64,
    /// Wrong replies.
    pub failed: u64,
    /// Wall time of the request loop.
    pub elapsed: Duration,
    /// The spans (empty when tracing was off).
    pub tracer: Tracer,
}

impl InlineRun {
    /// Requests per second of the request loop.
    pub fn throughput_rps(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64()
    }
}

/// One simulated client connection.
struct Conn {
    handle: GwConn,
    ops: OpStream,
    encoder: Encoder,
    next_id: u32,
    /// Bytes "read from the socket", parsed in place as the shard does.
    inbound: FrameBuf,
    /// Reply bytes "written to the socket", parsed as a client does.
    outbound: FrameBuf,
    pending: VecDeque<(u32, Arc<[u8]>)>,
}

/// The shards a delivery goes to, as the served gateway's sink decides.
fn route(router: &ShardRouter, payload: &[u8]) -> std::ops::Range<usize> {
    match classify_delivery(router, payload) {
        DeliveryRoute::Shard(i) => i..i + 1,
        DeliveryRoute::All => 0..SHARDS,
    }
}

/// Runs `requests` requests of `workload` through the sans-IO stack,
/// `BATCH` per pump, each shard's in-flight count capped by the served
/// gateway's admission window. Every reply is checked.
pub fn run(
    workload: &Workload,
    seed: u64,
    requests: u64,
    spans: bool,
) -> Result<InlineRun, String> {
    let mut backend = server::start_backend(workload.backend, derive(seed, 1))
        .map_err(|e| format!("inline domain: {e}"))?;
    let router = ShardRouter::new(SHARDS).map_err(|e| e.to_string())?;
    let mut engines = Vec::new();
    let mut conns = Vec::new();
    for shard in 0..SHARDS {
        let group = workload.group(shard);
        router.pin(group, shard).map_err(|e| e.to_string())?;
        let mut engine = GatewayEngine::new(server::engine_config(), BTreeMap::new());
        let handle = GwConn(shard as u64 + 1);
        engine.on_client_accepted(handle);
        engines.push(engine);
        conns.push(Conn {
            handle,
            ops: OpStream::new(workload, seed, shard),
            encoder: Encoder::new(group, derive(seed, 2 + shard as u64) as u32),
            next_id: 0,
            inbound: FrameBuf::new(),
            outbound: FrameBuf::new(),
            pending: VecDeque::new(),
        });
    }

    let mut tracer = Tracer::new(spans);
    let mut issued = 0u64;
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut ticks = 0u64;
    let started = Instant::now();
    while completed < requests {
        ticks += 1;
        if ticks > requests.saturating_mul(4) + 10_000 {
            return Err(format!(
                "inline: {completed} of {requests} requests after {ticks} pumps"
            ));
        }
        tracer.enter("inline.tick", ticks);
        let view = backend.view();
        for (shard, conn) in conns.iter_mut().enumerate() {
            let room = ADMISSION_WINDOW - conn.pending.len().min(ADMISSION_WINDOW);
            let quota = (BATCH / SHARDS).min(room).min((requests - issued) as usize);
            for _ in 0..quota {
                issued += 1;
                conn.next_id += 1;
                let op = conn.ops.next_op();
                let id = (shard as u64) << 32 | conn.next_id as u64;

                tracer.enter("giop.encode_request", id);
                let wire = conn.encoder.request(conn.next_id, op.operation, &op.args);
                tracer.exit();

                tracer.enter("giop.frame_parse", id);
                conn.inbound.push(&wire);
                let span = conn.inbound.next_span();
                let frame = span
                    .map_err(|e| e.to_string())
                    .and_then(|s| s.ok_or_else(|| "torn request".to_owned()))
                    .and_then(|s| {
                        Frame::parse(&conn.inbound.bytes()[s]).map_err(|e| e.to_string())
                    });
                tracer.exit();
                let frame = frame.map_err(|e| format!("inline framing: {e}"))?;

                tracer.enter("core.engine.on_client_frame", id);
                let actions = engines[shard].on_client_frame(conn.handle, frame, &view);
                tracer.exit();

                conn.pending.push_back((conn.next_id, op.expected));
                for action in actions {
                    if let Action::Multicast { group, payload } = action {
                        tracer.enter("net.host.multicast", id);
                        backend.multicast(group, payload);
                        tracer.exit();
                    }
                }
            }
        }

        tracer.enter("net.host.pump", ticks);
        let deliveries = backend.pump(TICK_VIRTUAL);
        tracer.exit();

        for (group, payload) in &deliveries {
            for shard in route(&router, payload) {
                tracer.enter("core.engine.on_delivery", ticks);
                let actions = engines[shard].on_delivery_from_domain(*group, payload, &view);
                tracer.exit();
                for action in actions {
                    let Action::ToClient { conn: to, bytes } = action else {
                        continue;
                    };
                    let conn = conns
                        .iter_mut()
                        .find(|c| c.handle == to)
                        .ok_or("inline: reply for an unknown connection")?;
                    // Replies of one connection come back in order.
                    let answered = conn.pending.front().map_or(0, |(id, _)| *id);
                    tracer.enter("giop.decode_reply", (shard as u64) << 32 | answered as u64);
                    conn.outbound.push(&bytes);
                    let message = conn
                        .outbound
                        .next_span()
                        .map_err(|e| e.to_string())
                        .and_then(|s| s.ok_or_else(|| "torn reply".to_owned()))
                        .and_then(|s| {
                            Frame::parse(&conn.outbound.bytes()[s])
                                .and_then(|f| f.to_message())
                                .map_err(|e| e.to_string())
                        });
                    tracer.exit();
                    let GiopMessage::Reply(reply) =
                        message.map_err(|e| format!("inline reply: {e}"))?
                    else {
                        return Err("inline: gateway sent something other than a Reply".into());
                    };
                    completed += 1;
                    let expected = conn.pending.pop_front();
                    let right = expected.is_some_and(|(id, body)| {
                        id == reply.request_id
                            && reply.reply_status == ReplyStatus::NoException
                            && reply.body[..] == body[..]
                    });
                    failed += u64::from(!right);
                }
            }
        }
        tracer.exit();
    }
    let elapsed = started.elapsed();

    // The fixed price of a tick: pump the now idle domain. A reply
    // surfacing here is one nobody was waiting for.
    if spans {
        let view = backend.view();
        for tick in 0..IDLE_TICKS {
            tracer.enter("net.host.pump.idle", tick);
            let late = backend.pump(TICK_VIRTUAL);
            tracer.exit();
            for (group, payload) in &late {
                for shard in route(&router, payload) {
                    let actions = engines[shard].on_delivery_from_domain(*group, payload, &view);
                    failed += actions
                        .iter()
                        .filter(|a| matches!(a, Action::ToClient { .. }))
                        .count() as u64;
                }
            }
        }
    }
    Ok(InlineRun {
        requests: completed,
        failed,
        elapsed,
        tracer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        t.enter("outer", 1);
        t.enter("inner", 1);
        std::thread::sleep(Duration::from_millis(2));
        t.exit();
        t.enter("inner", 2);
        t.exit();
        t.exit();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);

        let totals = t.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!((outer.count, inner.count), (1, 2));
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(inner.self_ns, inner.total_ns, "leaves keep all their time");
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("x", 0);
        t.exit();
        assert!(t.spans().is_empty());
    }

    #[test]
    fn echo_requests_run_the_whole_inline_path_and_verify() {
        let w = Workload::by_name("echo_small").unwrap();
        let run = run(w, 3, 500, true).unwrap();
        assert_eq!((run.requests, run.failed), (500, 0));
        let totals = run.tracer.totals();
        for name in [
            "giop.encode_request",
            "giop.frame_parse",
            "core.engine.on_client_frame",
            "net.host.multicast",
            "core.engine.on_delivery",
            "giop.decode_reply",
        ] {
            assert_eq!(totals[name].count, 500, "{name}");
        }
        assert_eq!(totals["net.host.pump"].count, totals["inline.tick"].count);
        assert_eq!(totals["net.host.pump.idle"].count, IDLE_TICKS);
    }

    #[test]
    fn the_replicated_domain_answers_every_inline_request_once() {
        let w = Workload::by_name("bulk_mixed").unwrap();
        let run = run(w, 4, 60, false).unwrap();
        assert_eq!((run.requests, run.failed), (60, 0));
        assert!(run.tracer.spans().is_empty());
    }
}
