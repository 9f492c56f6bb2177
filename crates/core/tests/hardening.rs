//! Gateway hardening: hostile/degenerate inputs, protocol corner cases,
//! mixed client populations, and cache behaviour under pressure.

use ftd_core::*;
use ftd_eternal::{Counter, FtProperties, ObjectRegistry, ReplicationStyle};
use ftd_giop::{ByteOrder, FrameBuf, GiopMessage, Reply, Request};
use ftd_sim::*;
use ftd_totem::GroupId;

const SERVER: GroupId = GroupId(10);

fn registry() -> ObjectRegistry {
    let mut reg = ObjectRegistry::new();
    reg.register("Counter", Box::new(|| Box::new(Counter::new())));
    reg
}

fn domain(seed: u64, gateways: u32) -> (World, DomainHandle) {
    let mut world = World::new(seed);
    let spec = DomainSpec::new(1, 6, gateways);
    let handle = build_domain(&mut world, &spec, registry);
    world.run_for(SimDuration::from_millis(25));
    handle.create_group(
        &mut world,
        gateways as usize,
        SERVER,
        "Counter",
        FtProperties::new(ReplicationStyle::Active).with_initial(3),
    );
    world.run_for(SimDuration::from_millis(10));
    (world, handle)
}

/// A raw TCP actor that sends arbitrary bytes at the gateway and records
/// everything that comes back.
struct RawProber {
    target: NetAddr,
    to_send: Vec<Vec<u8>>,
    conn: Option<ConnId>,
    pub received: Vec<u8>,
    pub closed: bool,
}

impl Actor for RawProber {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.conn = ctx.tcp_connect(self.target).ok();
    }
    fn on_tcp(&mut self, ctx: &mut Context<'_>, ev: TcpEvent) {
        match ev {
            TcpEvent::Connected { conn } => {
                for chunk in self.to_send.drain(..) {
                    let _ = ctx.tcp_send(conn, chunk);
                }
            }
            TcpEvent::Data { bytes, .. } => self.received.extend(bytes),
            TcpEvent::Closed { .. } => self.closed = true,
            _ => {}
        }
    }
}

fn probe(world: &mut World, handle: &DomainHandle, chunks: Vec<Vec<u8>>) -> ProcessorId {
    let target = handle.gateway_addr(0);
    world.add_processor("prober", handle.lan, move |_| {
        Box::new(RawProber {
            target,
            to_send: chunks.clone(),
            conn: None,
            received: Vec::new(),
            closed: false,
        })
    })
}

#[test]
fn garbage_bytes_get_message_error_and_close() {
    let (mut world, handle) = domain(1, 1);
    let prober = probe(
        &mut world,
        &handle,
        vec![b"GET / HTTP/1.1\r\n\r\n".to_vec()],
    );
    world.run_for(SimDuration::from_millis(20));
    let p = world.actor::<RawProber>(prober).unwrap();
    assert!(p.closed, "gateway must drop a non-GIOP peer");
    // The goodbye is a well-formed GIOP MessageError.
    let mut reader = FrameBuf::new();
    reader.push(&p.received);
    assert_eq!(
        reader.next_message().unwrap(),
        Some(GiopMessage::MessageError)
    );
    assert_eq!(world.stats().counter("gateway.protocol_errors"), 1);
    // The domain is unaffected.
    assert!(handle.is_operational(&world));
}

#[test]
fn bad_object_key_yields_system_exception() {
    let (mut world, handle) = domain(2, 1);
    let req = Request {
        request_id: 9,
        response_expected: true,
        object_key: b"not-an-ftdk-key".to_vec(),
        operation: "get".into(),
        ..Request::default()
    };
    let prober = probe(
        &mut world,
        &handle,
        vec![GiopMessage::Request(req).encode(ByteOrder::Big)],
    );
    world.run_for(SimDuration::from_millis(20));
    let p = world.actor::<RawProber>(prober).unwrap();
    let mut reader = FrameBuf::new();
    reader.push(&p.received);
    match reader.next_message().unwrap() {
        Some(GiopMessage::Reply(Reply {
            request_id: 9,
            reply_status: ftd_giop::ReplyStatus::SystemException,
            ..
        })) => {}
        other => panic!("expected OBJECT_NOT_EXIST exception, got {other:?}"),
    }
}

#[test]
fn locate_request_is_answered_object_here() {
    // §3.1: the gateway must always appear to BE the server object.
    let (mut world, handle) = domain(3, 1);
    let wire = GiopMessage::LocateRequest {
        request_id: 4,
        object_key: ftd_giop::ObjectKey::new(1, SERVER.0).to_bytes(),
    }
    .encode(ByteOrder::Big);
    let prober = probe(&mut world, &handle, vec![wire]);
    world.run_for(SimDuration::from_millis(20));
    let p = world.actor::<RawProber>(prober).unwrap();
    let mut reader = FrameBuf::new();
    reader.push(&p.received);
    assert_eq!(
        reader.next_message().unwrap(),
        Some(GiopMessage::LocateReply {
            request_id: 4,
            locate_status: 1,
        })
    );
}

#[test]
fn one_byte_trickle_still_parses() {
    // TCP gives no framing guarantees; drip a request one byte at a time.
    let (mut world, handle) = domain(4, 1);
    let req = Request {
        request_id: 1,
        response_expected: true,
        object_key: ftd_giop::ObjectKey::new(1, SERVER.0).to_bytes(),
        operation: "add".into(),
        body: 3u64.to_be_bytes().to_vec(),
        ..Request::default()
    };
    let wire = GiopMessage::Request(req).encode(ByteOrder::Big);
    let chunks: Vec<Vec<u8>> = wire.iter().map(|&b| vec![b]).collect();
    let prober = probe(&mut world, &handle, chunks);
    world.run_for(SimDuration::from_millis(40));
    let p = world.actor::<RawProber>(prober).unwrap();
    let mut reader = FrameBuf::new();
    reader.push(&p.received);
    match reader.next_message().unwrap() {
        Some(GiopMessage::Reply(r)) => {
            assert_eq!(r.request_id, 1);
            assert_eq!(r.body, 3u64.to_be_bytes());
        }
        other => panic!("expected reply, got {other:?}"),
    }
}

#[test]
fn mixed_plain_and_enhanced_clients_coexist() {
    let (mut world, handle) = domain(5, 2);
    let ior = handle.ior("IDL:X:1.0", SERVER);
    let plain = {
        let ior = ior.clone();
        world.add_processor("plain", handle.lan, move |_| {
            Box::new(PlainClient::new(&ior, false))
        })
    };
    let enhanced = world.add_processor("enh", handle.lan, move |_| {
        Box::new(EnhancedClient::new(&ior, 0x4000_0001))
    });
    world
        .actor_mut::<PlainClient>(plain)
        .unwrap()
        .enqueue("add", &1u64.to_be_bytes());
    world.post(plain, TAG_FLUSH);
    world
        .actor_mut::<EnhancedClient>(enhanced)
        .unwrap()
        .enqueue("add", &2u64.to_be_bytes());
    world.post(enhanced, TAG_FLUSH);
    world.run_for(SimDuration::from_millis(30));
    assert_eq!(world.actor::<PlainClient>(plain).unwrap().replies.len(), 1);
    assert_eq!(
        world
            .actor::<EnhancedClient>(enhanced)
            .unwrap()
            .replies
            .len(),
        1
    );
    assert_eq!(world.stats().counter("gateway.enhanced_clients_seen"), 1);
}

/// §3.4's identifier-reuse hazard, both ways: a recovered gateway with
/// VOLATILE counters hands a new client a dead client's identity, so the
/// server's duplicate table answers with the old client's logged response;
/// with the cold-passive gateway's persisted counters, the new client gets
/// a fresh identity and a correct answer.
fn recovery_scenario(seed: u64, persist: bool) -> Vec<u8> {
    let mut world = World::new(seed);
    let mut spec = DomainSpec::new(1, 6, 1);
    if persist {
        spec.cold_gateway_store = Some(std::rc::Rc::new(std::cell::RefCell::new(
            std::collections::BTreeMap::new(),
        )));
    }
    let handle = build_domain(&mut world, &spec, registry);
    world.run_for(SimDuration::from_millis(25));
    handle.create_group(
        &mut world,
        1,
        SERVER,
        "Counter",
        FtProperties::new(ReplicationStyle::Active).with_initial(3),
    );
    world.run_for(SimDuration::from_millis(10));

    let c1 = {
        let ior = handle.ior("IDL:X:1.0", SERVER);
        world.add_processor("c1", handle.lan, move |_| {
            Box::new(PlainClient::new(&ior, false))
        })
    };
    world
        .actor_mut::<PlainClient>(c1)
        .unwrap()
        .enqueue("add", &1u64.to_be_bytes());
    world.post(c1, TAG_FLUSH);
    world.run_for(SimDuration::from_millis(25));

    world.crash(handle.gateway_processors[0]);
    world.run_for(SimDuration::from_millis(40));
    world.recover(handle.gateway_processors[0]);
    world.run_for(SimDuration::from_millis(80));

    // A brand-new client connects to the recovered gateway and issues its
    // own first request (request id 1 — every fresh ORB starts there).
    let c2 = {
        let ior = handle.ior("IDL:X:1.0", SERVER);
        world.add_processor("c2", handle.lan, move |_| {
            Box::new(PlainClient::new(&ior, false))
        })
    };
    world
        .actor_mut::<PlainClient>(c2)
        .unwrap()
        .enqueue("add", &2u64.to_be_bytes());
    world.post(c2, TAG_FLUSH);
    world.run_for(SimDuration::from_millis(40));
    let c = world.actor::<PlainClient>(c2).unwrap();
    assert_eq!(c.replies.len(), 1);
    c.replies[0].body.clone()
}

#[test]
fn volatile_counters_after_recovery_reuse_identities() {
    // The hazard: c2 inherits c1's (client id, request id), the server's
    // duplicate table fires, and c2 receives c1's OLD logged answer (1)
    // instead of executing add(2) → 3.
    assert_eq!(recovery_scenario(6, false), 1u64.to_be_bytes());
}

#[test]
fn persisted_counters_after_recovery_serve_new_clients_correctly() {
    // The §3.4 cold-passive gateway remedy: counters checkpointed to
    // stable storage; c2 gets a fresh identity and the correct answer.
    assert_eq!(recovery_scenario(6, true), 3u64.to_be_bytes());
}

#[test]
fn response_cache_eviction_under_many_operations() {
    // Shrink the cache via many distinct requests; the gateway must keep
    // serving correctly (cache is an optimization, dedup lives server-side).
    let (mut world, handle) = domain(7, 2);
    let ior = handle.ior("IDL:X:1.0", SERVER);
    let client = world.add_processor("c", handle.lan, move |_| {
        Box::new(EnhancedClient::new(&ior, 0x4000_0007))
    });
    for i in 1..=20u64 {
        world
            .actor_mut::<EnhancedClient>(client)
            .unwrap()
            .enqueue("add", &i.to_be_bytes());
        world.post(client, TAG_FLUSH);
        world.run_for(SimDuration::from_millis(12));
    }
    let c = world.actor::<EnhancedClient>(client).unwrap();
    assert_eq!(c.replies.len(), 20);
    let last = u64::from_be_bytes(c.replies[19].body.clone().try_into().unwrap());
    assert_eq!(last, (1..=20).sum::<u64>());
    // Both gateways accumulated the cached responses.
    for idx in 0..2 {
        let gw = handle.daemon(&world, idx).ext().as_ref().unwrap();
        assert_eq!(gw.cached_responses(), 20, "gateway {idx}");
    }
}

#[test]
fn double_failover_across_three_gateways() {
    let (mut world, handle) = domain(8, 3);
    let ior = handle.ior("IDL:X:1.0", SERVER);
    let client = world.add_processor("c", handle.lan, move |_| {
        Box::new(EnhancedClient::new(&ior, 0x4000_0008))
    });
    let send = |world: &mut World, v: u64| {
        world
            .actor_mut::<EnhancedClient>(client)
            .unwrap()
            .enqueue("add", &v.to_be_bytes());
        world.post(client, TAG_FLUSH);
    };
    send(&mut world, 1);
    world.run_for(SimDuration::from_millis(25));
    // First failover.
    send(&mut world, 2);
    world.run_for(SimDuration::from_micros(300));
    world.crash(handle.gateway_processors[0]);
    world.run_for(SimDuration::from_millis(120));
    // Second failover.
    send(&mut world, 3);
    world.run_for(SimDuration::from_micros(300));
    world.crash(handle.gateway_processors[1]);
    world.run_for(SimDuration::from_millis(150));

    let c = world.actor::<EnhancedClient>(client).unwrap();
    assert_eq!(c.failovers, 2);
    assert_eq!(c.replies.len(), 3, "all three adds answered");
    // Exactly-once at every surviving replica: 1+2+3.
    for &p in &handle.processors {
        if world.is_crashed(p) {
            continue;
        }
        if let Some(state) = world
            .actor::<DomainDaemon>(p)
            .and_then(|d| d.mech().replica_state(SERVER))
        {
            assert_eq!(u64::from_be_bytes(state.try_into().unwrap()), 6);
        }
    }
}

#[test]
fn client_crash_mid_request_leaves_domain_consistent() {
    let (mut world, handle) = domain(9, 1);
    let ior = handle.ior("IDL:X:1.0", SERVER);
    let client = world.add_processor("doomed", handle.lan, move |_| {
        Box::new(PlainClient::new(&ior, false))
    });
    world
        .actor_mut::<PlainClient>(client)
        .unwrap()
        .enqueue("add", &5u64.to_be_bytes());
    world.post(client, TAG_FLUSH);
    world.run_for(SimDuration::from_micros(400));
    world.crash(client); // dies before the reply lands
    world.run_for(SimDuration::from_millis(60));

    // The operation still executed exactly once; the gateway noticed the
    // disconnect and the domain keeps running.
    for &p in &handle.processors {
        if let Some(state) = world
            .actor::<DomainDaemon>(p)
            .and_then(|d| d.mech().replica_state(SERVER))
        {
            assert_eq!(u64::from_be_bytes(state.try_into().unwrap()), 5);
        }
    }
    assert!(world.stats().counter("gateway.client_disconnects") >= 1);
    assert!(handle.is_operational(&world));
}

// ---------------------------------------------------------------------
// GIOP minor versions and fragments: each request either executes
// exactly `add(3)` under its own id, or is refused with MessageError
// before anything reaches the ring.
// ---------------------------------------------------------------------

fn add3(request_id: u32) -> Request {
    Request {
        request_id,
        response_expected: true,
        object_key: ftd_giop::ObjectKey::new(1, SERVER.0).to_bytes(),
        operation: "add".into(),
        body: 3u64.to_be_bytes().to_vec(),
        ..Request::default()
    }
}

/// `add(3)` as GIOP 1.`minor` with the 1.0 request header (1.1 only
/// renames the three padding octets after `response_expected` as
/// reserved) and the given header flags octet.
fn add3_with_header(request_id: u32, minor: u8, flags: u8) -> Vec<u8> {
    let mut wire = GiopMessage::Request(add3(request_id)).encode(ByteOrder::Big);
    wire[5] = minor;
    wire[6] = flags;
    wire
}

/// `add(3)` with GIOP 1.2's request header: request id first, response
/// flags, three reserved octets, a `KeyAddr` target address, operation,
/// service contexts, then the body aligned to 8.
fn add3_giop_1_2(request_id: u32) -> Vec<u8> {
    let mut body = ftd_giop::CdrEncoder::with_offset(ByteOrder::Big, 12);
    body.write_ulong(request_id);
    body.write_octet(3);
    for _ in 0..3 {
        body.write_octet(0);
    }
    body.write_short(0);
    body.write_octets(&ftd_giop::ObjectKey::new(1, SERVER.0).to_bytes());
    body.write_string("add");
    body.write_ulong(0);
    while !(12 + body.len()).is_multiple_of(8) {
        body.write_octet(0);
    }
    body.write_raw(&3u64.to_be_bytes());
    let body = body.into_bytes();
    let mut wire = b"GIOP\x01\x02\x00\x00".to_vec();
    wire.extend((body.len() as u32).to_be_bytes());
    wire.extend(body);
    wire
}

/// What one probe connection saw, and what it did to the domain.
struct Outcome {
    messages: Vec<GiopMessage>,
    closed: bool,
    broadcasts: u64,
    counters: Vec<u64>,
}

fn send_raw(seed: u64, chunks: Vec<Vec<u8>>) -> Outcome {
    let (mut world, handle) = domain(seed, 1);
    let before = world.stats().counter("totem.broadcasts");
    let prober = probe(&mut world, &handle, chunks);
    world.run_for(SimDuration::from_millis(30));
    let p = world.actor::<RawProber>(prober).unwrap();
    let mut reader = FrameBuf::new();
    reader.push(&p.received);
    let mut messages = Vec::new();
    while let Some(m) = reader.next_message().unwrap() {
        messages.push(m);
    }
    let counters = handle
        .processors
        .iter()
        .filter_map(|&p| {
            world
                .actor::<DomainDaemon>(p)
                .and_then(|d| d.mech().replica_state(SERVER))
        })
        .map(|s| u64::from_be_bytes(s.try_into().unwrap()))
        .collect();
    Outcome {
        messages,
        closed: p.closed,
        broadcasts: world.stats().counter("totem.broadcasts") - before,
        counters,
    }
}

fn assert_executed_add3(out: &Outcome, request_id: u32) {
    match &out.messages[..] {
        [GiopMessage::Reply(Reply {
            request_id: id,
            reply_status: ftd_giop::ReplyStatus::NoException,
            body,
            ..
        })] => {
            assert_eq!(*id, request_id, "reply under the request's own id");
            assert_eq!(body[..], 3u64.to_be_bytes(), "add(3) executed");
        }
        other => panic!("expected one Reply, got {other:?}"),
    }
    assert!(!out.closed);
    assert_eq!(out.counters, vec![3; 3], "every replica executed add(3)");
}

fn assert_refused(out: &Outcome) {
    assert_eq!(out.messages, vec![GiopMessage::MessageError]);
    assert!(out.closed, "a refused peer is disconnected");
    assert_eq!(out.broadcasts, 0, "nothing reached the ring");
    assert_eq!(out.counters, vec![0; 3], "nothing executed");
}

#[test]
fn giop_1_0_request_executes_its_own_arguments() {
    assert_executed_add3(&send_raw(21, vec![add3_with_header(1, 0, 0)]), 1);
}

#[test]
fn giop_1_1_request_executes_its_own_arguments() {
    assert_executed_add3(&send_raw(22, vec![add3_with_header(1, 1, 0)]), 1);
}

#[test]
fn giop_1_2_request_is_refused_before_multicast() {
    // Read with the 1.0 layout, id 0 would execute add(0) and id 1
    // would reply under id 12; id 7 fails to parse at all.
    for (seed, id) in [(23, 0), (24, 1), (25, 7)] {
        assert_refused(&send_raw(seed, vec![add3_giop_1_2(id)]));
    }
}

#[test]
fn fragmented_request_is_refused_before_multicast() {
    // A 1.1 Request with the more-fragments flag, then its Fragment
    // (type 7) carrying nothing further.
    let first = add3_with_header(1, 1, 0x02);
    let fragment = b"GIOP\x01\x01\x00\x07\x00\x00\x00\x00".to_vec();
    assert_refused(&send_raw(26, vec![first, fragment]));
}
