//! The experiment harness: regenerates every figure and §3.4/§3.5 claim
//! of *"Gateways for Accessing Fault Tolerance Domains"* (see DESIGN.md §5
//! for the index E1–E10 and EXPERIMENTS.md for recorded results).
//!
//! Usage: `cargo run -p ftd-bench --bin experiments [-- e1 e2 ...]`
//! (no arguments = run all; `smoke` = the fast subset E3/E4/E6 that CI
//! runs on every push). All latencies are *virtual* (simulated) time;
//! the shapes, ratios and counts — not absolute values — are the
//! reproduction targets.

use ftd_bench::*;
use ftd_core::{DomainDaemon, EnhancedClient, PlainClient, StableCounters};
use ftd_eternal::{AppObject, FtProperties, Outcome, ReplicationStyle};
use ftd_giop::{ByteOrder, FrameBuf, GiopMessage, ObjectKey, Reply, Request};
use ftd_sim::{Actor, Context, LanConfig, ProcessorId, SimDuration, TcpEvent, World};
use ftd_totem::GroupId;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// The fast subset `experiments -- smoke` runs (a few seconds in CI):
/// duplicate suppression, message formats, operation identifiers.
const SMOKE: &[&str] = &["e3", "e4", "e6"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "smoke");
    let all = !smoke && (args.is_empty() || args.iter().any(|a| a == "all"));
    let want =
        |name: &str| all || (smoke && SMOKE.contains(&name)) || args.iter().any(|a| a == name);

    println!("== Gateways for Accessing Fault Tolerance Domains — experiments ==");
    println!("   (virtual-time measurements on the deterministic simulator)\n");
    if smoke {
        println!("   [smoke mode: {}]\n", SMOKE.join(", "));
    }
    if want("e1") {
        e1_fig1_topology();
    }
    if want("e2") {
        e2_infrastructure_overhead();
    }
    if want("e3") {
        e3_gateway_duplicate_suppression();
    }
    if want("e4") {
        e4_message_formats();
    }
    if want("e5") {
        e5_gateway_loops();
    }
    if want("e6") {
        e6_operation_identifiers();
    }
    if want("e7") {
        e7_plain_orb_limitations();
    }
    if want("e8") {
        e8_redundant_gateways();
    }
    if want("e9") {
        e9_determinism_enforcement();
    }
    if want("e10") {
        e10_replication_styles();
    }
}

fn banner(id: &str, what: &str) {
    println!("---- {id}: {what} ----");
}

// =====================================================================
// E1 — Fig. 1: multi-domain topology, chained gateways
// =====================================================================

fn e1_fig1_topology() {
    banner("E1 (Fig. 1)", "three domains bridged by gateways");
    let (mut world, wide, ny, _la) = fig1_topology(101);

    // (a) Customer → NY directly through NY's own gateway.
    let ior_direct = ny.ior("IDL:Stock/Desk:1.0", SERVER);
    let direct = world.add_processor("direct", ny.lan, move |_| {
        Box::new(PlainClient::new(&ior_direct, false))
    });
    let rtt_direct = one_round_trip(&mut world, direct, 1);

    // (b) Customer → wide-area gateway → (WAN) → NY gateway → NY servers.
    let ior_chained = wide.ior_via("IDL:Stock/Desk:1.0", 2, SERVER);
    let chained = world.add_processor("chained", wide.lan, move |_| {
        Box::new(PlainClient::new(&ior_chained, false))
    });
    let rtt_chained = one_round_trip(&mut world, chained, 1);

    println!("  client on NY LAN, via NY gateway:          rtt = {rtt_direct}");
    println!("  client in Santa Barbara, chained gateways: rtt = {rtt_chained}");
    println!(
        "  wide-area penalty: {:.1}x (two extra WAN hops expected)",
        rtt_chained.as_nanos() as f64 / rtt_direct.as_nanos().max(1) as f64
    );
    println!(
        "  bridge requests/replies: {}/{}",
        world.stats().counter("gateway.bridge_requests"),
        world.stats().counter("gateway.bridge_replies")
    );
    let values = counter_values(&world, &ny, SERVER);
    println!("  NY replica states {values:?} (consistent, exactly-once)\n");
    assert!(values.iter().all(|&v| v == 2));
}

// =====================================================================
// E2 — Fig. 2: infrastructure overhead
// =====================================================================

/// A bare unreplicated IIOP server, for the no-infrastructure baseline.
struct RawServer {
    readers: BTreeMap<ftd_sim::ConnId, FrameBuf>,
    value: u64,
}

impl Actor for RawServer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.tcp_listen(9000).expect("port free");
    }
    fn on_tcp(&mut self, ctx: &mut Context<'_>, ev: TcpEvent) {
        match ev {
            TcpEvent::Accepted { conn, .. } => {
                self.readers.insert(conn, FrameBuf::new());
            }
            TcpEvent::Data { conn, bytes } => {
                let Some(reader) = self.readers.get_mut(&conn) else {
                    return;
                };
                reader.push(&bytes);
                while let Ok(Some(GiopMessage::Request(req))) = reader.next_message() {
                    let delta = u64::from_be_bytes(req.body.try_into().unwrap_or([0; 8]));
                    self.value += delta;
                    let reply = Reply::success(req.request_id, self.value.to_be_bytes().to_vec());
                    let _ = ctx.tcp_send(conn, GiopMessage::Reply(reply).encode(ByteOrder::Big));
                }
            }
            _ => {}
        }
    }
}

fn e2_infrastructure_overhead() {
    banner("E2 (Fig. 2)", "cost of the fault tolerance infrastructure");

    // Baseline: plain TCP IIOP client → unreplicated server. Same LAN.
    let mut world = World::new(102);
    let lan = world.add_lan(LanConfig::default());
    let server = world.add_processor("raw_server", lan, |_| {
        Box::new(RawServer {
            readers: BTreeMap::new(),
            value: 0,
        })
    });
    let ior = ftd_giop::Ior::with_iiop(
        "IDL:Raw:1.0",
        ftd_giop::IiopProfile::new(
            format!("P{}", server.0),
            9000,
            ObjectKey::new(0, 1).to_bytes(),
        ),
    );
    let client = world.add_processor("raw_client", lan, move |_| {
        Box::new(PlainClient::new(&ior, false))
    });
    world.run_for(SimDuration::from_millis(5));
    let mut raw_rtts = Vec::new();
    for i in 0..20 {
        raw_rtts.push(one_round_trip(&mut world, client, i).as_nanos());
    }
    let raw = mean(&raw_rtts);

    // Through the infrastructure: gateway + Totem + 3 active replicas.
    let (mut world, handle) = single_domain(103, 5, 1, 3, ReplicationStyle::Active);
    let msgs_before = world.stats().counter("totem.broadcasts");
    let gclient = add_plain_client(&mut world, &handle, false);
    let mut ft_rtts = Vec::new();
    for i in 0..20 {
        ft_rtts.push(one_round_trip(&mut world, gclient, i).as_nanos());
    }
    let ft = mean(&ft_rtts);
    let msgs = world.stats().counter("totem.broadcasts") - msgs_before;

    // Intra-domain only (no gateway TCP hop): root invocation.
    let (mut world2, handle2) = single_domain(104, 5, 1, 3, ReplicationStyle::Active);
    let mut intra_rtts = Vec::new();
    for i in 0..20u64 {
        let start = world2.now();
        handle2.invoke_root(&mut world2, 1, SERVER, "add", &i.to_be_bytes());
        let mut got = false;
        for _ in 0..100_000 {
            if !handle2.take_root_replies(&mut world2, 1).is_empty() {
                got = true;
                break;
            }
            world2.run_for(SimDuration::from_micros(20));
        }
        assert!(got);
        intra_rtts.push(world2.now().saturating_since(start).as_nanos());
    }
    let intra = mean(&intra_rtts);

    println!(
        "  plain TCP, unreplicated server:      mean rtt = {}",
        ns(raw)
    );
    println!(
        "  replicated client, intra-domain:     mean rtt = {}",
        ns(intra)
    );
    println!(
        "  external client via gateway:         mean rtt = {}",
        ns(ft)
    );
    println!(
        "  infrastructure overhead: intra/raw = {:.1}x, gateway/raw = {:.1}x",
        intra / raw,
        ft / raw
    );
    println!(
        "  multicast broadcasts per gateway invocation: {:.1}\n",
        msgs as f64 / 20.0
    );
}

// =====================================================================
// E3 — Fig. 3: duplicate response suppression vs replica count
// =====================================================================

fn e3_gateway_duplicate_suppression() {
    banner(
        "E3 (Fig. 3)",
        "unreplicated client → actively replicated server via gateway",
    );
    println!("  replicas | rtt (virtual) | dup responses suppressed | replies | replica states");
    for replicas in 1..=5u32 {
        let (mut world, handle) = single_domain(
            110 + replicas as u64,
            7,
            1,
            replicas,
            ReplicationStyle::Active,
        );
        let client = add_plain_client(&mut world, &handle, false);
        let rtt = one_round_trip(&mut world, client, 7);
        world.run_for(SimDuration::from_millis(10)); // drain stragglers
        let dups = world
            .stats()
            .counter("gateway.duplicate_responses_suppressed");
        let replies = world
            .actor::<PlainClient>(client)
            .expect("alive")
            .replies
            .len();
        let values = counter_values(&world, &handle, SERVER);
        println!("  {replicas:8} | {rtt:>13} | {dups:24} | {replies:7} | {values:?}");
        assert_eq!(dups, (replicas - 1) as u64, "suppression = replicas - 1");
        assert_eq!(replies, 1);
    }
    println!(
        "  shape: duplicates grow linearly with replicas; exactly one reply reaches the client\n"
    );
}

// =====================================================================
// E4 — Fig. 4: message formats
// =====================================================================

fn e4_message_formats() {
    banner("E4 (Fig. 4)", "message classes and codec cost");
    use ftd_eternal::{DomainMsg, FtHeader, OperationKind, UNUSED_CLIENT_ID};

    let request = Request {
        request_id: 7,
        response_expected: true,
        object_key: ObjectKey::new(1, 10).to_bytes(),
        operation: "buy_shares".into(),
        body: vec![0u8; 32],
        ..Request::default()
    };
    let iiop = GiopMessage::Request(request).encode(ByteOrder::Big);

    // (a) client ↔ gateway: bare IIOP over TCP.
    println!(
        "  (a) client->gateway IIOP request:       {:4} bytes",
        iiop.len()
    );

    // (b) gateway → domain: FT header + IIOP, client id set.
    let hdr_b = FtHeader {
        client: 1,
        source: GroupId(0x4000_0001),
        target: GroupId(10),
        kind: OperationKind::Invocation,
        parent_ts: 0,
        child_seq: 7,
    };
    let msg_b = DomainMsg::Iiop {
        header: hdr_b,
        iiop: iiop.clone(),
    }
    .encode();
    println!(
        "  (b) gateway->domain multicast:          {:4} bytes ({} header overhead)",
        msg_b.len(),
        msg_b.len() - iiop.len()
    );

    // (c) intra-domain: client id = unused value.
    let hdr_c = FtHeader {
        client: UNUSED_CLIENT_ID,
        source: GroupId(11),
        target: GroupId(10),
        kind: OperationKind::Invocation,
        parent_ts: 100,
        child_seq: 3,
    };
    let msg_c = DomainMsg::Iiop {
        header: hdr_c,
        iiop: iiop.clone(),
    }
    .encode();
    println!(
        "  (c) intra-domain multicast:             {:4} bytes (client id = unused 0x{:08X})",
        msg_c.len(),
        UNUSED_CLIENT_ID
    );

    // Codec cost (wall clock — the only wall-clock numbers in the harness).
    let t0 = std::time::Instant::now();
    let n = 100_000u32;
    let mut sink = 0usize;
    for _ in 0..n {
        let m = GiopMessage::decode(&iiop).expect("valid");
        if let GiopMessage::Request(r) = m {
            sink += r.body.len();
        }
    }
    let per_decode = t0.elapsed().as_nanos() as f64 / n as f64;
    let t0 = std::time::Instant::now();
    for _ in 0..n {
        sink += DomainMsg::decode(&msg_b).map(|_| 1).unwrap_or(0);
    }
    let per_domain = t0.elapsed().as_nanos() as f64 / n as f64;
    println!("  IIOP request decode:  {per_decode:6.0} ns/op (wall clock)");
    println!("  domain msg decode:    {per_domain:6.0} ns/op (wall clock)");
    println!("  (sink {sink})\n");
}

// =====================================================================
// E5 — Fig. 5: gateway action loops
// =====================================================================

fn e5_gateway_loops() {
    banner("E5 (Fig. 5)", "gateway throughput and client-table scaling");
    println!("  clients | requests | virtual time to drain | req/s (virtual) | gateway table");
    for &clients in &[1usize, 4, 16, 32] {
        let (mut world, handle) = single_domain(120, 6, 1, 3, ReplicationStyle::Active);
        let ids: Vec<ProcessorId> = (0..clients)
            .map(|_| add_plain_client(&mut world, &handle, false))
            .collect();
        let per_client = 4u64;
        let start = world.now();
        for (i, &c) in ids.iter().enumerate() {
            for k in 0..per_client {
                plain_send(&mut world, c, "add", &((i as u64) * 10 + k).to_be_bytes());
            }
        }
        // Drain: all clients have all replies.
        let mut guard = 0;
        loop {
            let done = ids.iter().all(|&c| {
                world
                    .actor::<PlainClient>(c)
                    .map(|cl| cl.replies.len() == per_client as usize)
                    .unwrap_or(false)
            });
            if done {
                break;
            }
            world.run_for(SimDuration::from_micros(50));
            guard += 1;
            assert!(guard < 200_000, "drain stalled");
        }
        let elapsed = world.now().saturating_since(start);
        let total = clients as u64 * per_client;
        let rate = total as f64 / elapsed.as_secs_f64();
        let table = handle
            .daemon(&world, 0)
            .ext()
            .as_ref()
            .expect("gateway")
            .connected_clients();
        println!("  {clients:7} | {total:8} | {elapsed:>21} | {rate:15.0} | {table:13}");
    }
    println!("  shape: throughput bounded by token rotations; table grows with clients\n");
}

// =====================================================================
// E6 — Fig. 6: operation identifiers
// =====================================================================

fn e6_operation_identifiers() {
    banner("E6 (Fig. 6)", "operation identifiers under nesting");
    let mut world = World::new(130);
    let spec = ftd_core::DomainSpec::new(1, 5, 1);
    let handle = ftd_core::build_domain(&mut world, &spec, registry);
    world.run_for(SimDuration::from_millis(25));
    handle.create_group(
        &mut world,
        1,
        SERVER,
        "Counter",
        FtProperties::new(ReplicationStyle::Active).with_initial(2),
    );
    handle.create_group(
        &mut world,
        1,
        ORCH,
        "Orchestrator",
        // ACTIVE orchestrator: both replicas issue the nested invocation;
        // the child's duplicate is detected by its identical Fig. 6 id.
        FtProperties::new(ReplicationStyle::Active).with_initial(2),
    );
    world.run_for(SimDuration::from_millis(10));

    let rounds = 10u64;
    for _ in 0..rounds {
        handle.invoke_root(&mut world, 1, ORCH, "bump", &[]);
        world.run_for(SimDuration::from_millis(8));
    }
    let nested = world.stats().counter("eternal.nested_invocations");
    let dup_inv = world.stats().counter("eternal.duplicate_invocations");
    let values = counter_values(&world, &handle, SERVER);
    println!("  {rounds} parent ops through a 2-replica active orchestrator:");
    println!("    nested invocations issued (2 per parent): {nested}");
    println!("    duplicate invocations suppressed by id:   {dup_inv}");
    println!(
        "    counter = {values:?} (each child applied once: {})",
        rounds * 5
    );
    assert!(values.iter().all(|&v| v == rounds * 5));
    assert_eq!(nested, rounds * 2, "both replicas issue the child");
    assert!(dup_inv >= rounds, "one copy per parent suppressed");
    println!("  shape: identical ids at every replica make duplicates detectable\n");
}

// =====================================================================
// E7 — §3.4: plain ORB limitations
// =====================================================================

fn e7_plain_orb_limitations() {
    banner(
        "E7 (§3.4)",
        "plain ORBs: gateway is a single point of failure",
    );

    // (a) Gateway crash → client disconnected, pending lost.
    let (mut world, handle) = single_domain(140, 6, 1, 3, ReplicationStyle::Active);
    let client = add_plain_client(&mut world, &handle, false);
    one_round_trip(&mut world, client, 1);
    plain_send(&mut world, client, "add", &2u64.to_be_bytes());
    world.run_for(SimDuration::from_micros(200));
    world.crash(handle.gateway_processors[0]);
    world.run_for(SimDuration::from_millis(60));
    let c = world.actor::<PlainClient>(client).expect("alive");
    println!(
        "  (a) single gateway crash: replies={}, abandoned={}, outstanding={}",
        c.replies.len(),
        c.abandoned,
        c.outstanding()
    );
    assert!(c.abandoned);

    // (b) Naive reconnect duplicates execution.
    let (mut world, handle) = single_domain(141, 6, 1, 3, ReplicationStyle::Active);
    let client = add_plain_client(&mut world, &handle, true);
    one_round_trip(&mut world, client, 5);
    plain_send(&mut world, client, "add", &10u64.to_be_bytes());
    // Crash the gateway once the replicas have executed the add, before
    // its reply can reach the client.
    for _ in 0..1_000 {
        if counter_values(&world, &handle, SERVER)
            .iter()
            .all(|&v| v == 15)
        {
            break;
        }
        world.run_for(SimDuration::from_micros(10));
    }
    world.crash(handle.gateway_processors[0]);
    world.run_for(SimDuration::from_millis(30));
    world.recover(handle.gateway_processors[0]);
    world.run_for(SimDuration::from_millis(150));
    let values = counter_values(&world, &handle, SERVER);
    println!(
        "  (b) naive reconnect: expected state 15, actual {values:?} — the add(10) ran twice \
         (gateway could not recognize the returning client)"
    );
    assert!(values.iter().all(|&v| v == 25));

    // (c) Cold-passive gateway: persisted counters prevent id reuse.
    let store: StableCounters = Rc::new(RefCell::new(BTreeMap::new()));
    let mut world = World::new(142);
    let mut spec = ftd_core::DomainSpec::new(1, 6, 1);
    spec.cold_gateway_store = Some(store.clone());
    let handle = ftd_core::build_domain(&mut world, &spec, registry);
    world.run_for(SimDuration::from_millis(25));
    handle.create_group(
        &mut world,
        1,
        SERVER,
        "Counter",
        FtProperties::new(ReplicationStyle::Active).with_initial(3),
    );
    world.run_for(SimDuration::from_millis(10));
    let c1 = add_plain_client(&mut world, &handle, false);
    one_round_trip(&mut world, c1, 1);
    let counter_before = handle
        .daemon(&world, 0)
        .ext()
        .as_ref()
        .expect("gateway")
        .counter_for(SERVER);
    world.crash(handle.gateway_processors[0]);
    world.run_for(SimDuration::from_millis(30));
    world.recover(handle.gateway_processors[0]);
    world.run_for(SimDuration::from_millis(60));
    let c2 = add_plain_client(&mut world, &handle, false);
    one_round_trip(&mut world, c2, 1);
    let counter_after = handle
        .daemon(&world, 0)
        .ext()
        .as_ref()
        .expect("gateway")
        .counter_for(SERVER);
    println!(
        "  (c) cold-passive gateway: counter {counter_before} before crash, {counter_after} after \
         recovery — client ids never reused (clients still had to reconnect)\n"
    );
    assert!(counter_after > counter_before);
}

// =====================================================================
// E8 — §3.5: redundant gateways + enhanced clients
// =====================================================================

fn e8_redundant_gateways() {
    banner(
        "E8 (§3.5)",
        "enhanced clients fail over with exactly-once semantics",
    );
    println!("  gateways | failover latency (virtual) | replies | dup execution | lost replies");
    for &gws in &[2u32, 3, 4] {
        let (mut world, handle) =
            single_domain(150 + gws as u64, 7, gws, 3, ReplicationStyle::Active);
        let client = add_enhanced_client(&mut world, &handle, 0x4000_0000 | gws);
        enhanced_send(&mut world, client, "add", &5u64.to_be_bytes());
        run_until_enhanced_replies(&mut world, client, 1).expect("first reply");

        enhanced_send(&mut world, client, "add", &10u64.to_be_bytes());
        world.run_for(SimDuration::from_micros(300));
        let crash_at = world.now();
        world.crash(handle.gateway_processors[0]);
        let elapsed = run_until_enhanced_replies(&mut world, client, 2).expect("failover reply");
        let _ = elapsed;
        let failover_latency = world.now().saturating_since(crash_at);
        world.run_for(SimDuration::from_millis(10));

        let c = world.actor::<EnhancedClient>(client).expect("alive");
        let values = counter_values(&world, &handle, SERVER);
        let dup_exec = values.iter().any(|&v| v != 15);
        println!(
            "  {gws:8} | {failover_latency:>26} | {:7} | {dup_exec:13} | {}",
            c.replies.len(),
            2 - c.replies.len().min(2)
        );
        assert_eq!(c.replies.len(), 2);
        assert!(!dup_exec, "{values:?}");
    }
    println!("  shape: §3.5 wins — zero loss, zero duplication; §3.4 (E7) loses/duplicates\n");
}

// =====================================================================
// E9 — §2.2: determinism enforcement
// =====================================================================

/// An object whose transitions depend on entropy — a stand-in for an
/// unsynchronized multithreaded servant.
#[derive(Debug, Default)]
struct Threaded {
    value: u64,
}

impl AppObject for Threaded {
    fn invoke(&mut self, _operation: &str, _args: &[u8], entropy: u64) -> Outcome {
        self.value = self.value.wrapping_mul(31).wrapping_add(entropy % 7);
        Outcome::Reply(self.value.to_be_bytes().to_vec())
    }
    fn state(&self) -> Vec<u8> {
        self.value.to_be_bytes().to_vec()
    }
    fn set_state(&mut self, state: &[u8]) {
        self.value = u64::from_be_bytes(state.try_into().unwrap_or([0; 8]));
    }
}

fn e9_determinism_enforcement() {
    banner(
        "E9 (§2.2)",
        "multithreading nondeterminism vs enforced determinism",
    );
    let run = |enforce: bool| -> (bool, Vec<u64>) {
        let mut world = World::new(160);
        let mut spec = ftd_core::DomainSpec::new(1, 5, 1);
        spec.mech.enforce_determinism = enforce;
        let handle = ftd_core::build_domain(&mut world, &spec, || {
            let mut reg = registry();
            reg.register("Threaded", Box::new(|| Box::<Threaded>::default()));
            reg
        });
        world.run_for(SimDuration::from_millis(25));
        handle.create_group(
            &mut world,
            1,
            SERVER,
            "Threaded",
            FtProperties::new(ReplicationStyle::Active).with_initial(3),
        );
        world.run_for(SimDuration::from_millis(10));
        for _ in 0..10 {
            handle.invoke_root(&mut world, 1, SERVER, "spin", &[]);
        }
        world.run_for(SimDuration::from_millis(50));
        let values = counter_values(&world, &handle, SERVER);
        let identical = values.windows(2).all(|w| w[0] == w[1]);
        (identical, values)
    };
    let (ok_on, v_on) = run(true);
    let (ok_off, v_off) = run(false);
    println!("  enforcement ON : replicas identical = {ok_on} {v_on:?}");
    println!("  enforcement OFF: replicas identical = {ok_off} {v_off:?}");
    assert!(ok_on && !ok_off);
    println!("  shape: the Interceptor-level determinism enforcement is what keeps");
    println!("  multithreaded replicas byte-identical\n");
}

// =====================================================================
// E10 — §2: the replication style matrix
// =====================================================================

fn e10_replication_styles() {
    banner("E10 (§2)", "replication style matrix under fault injection");
    println!(
        "  style              | rtt (virtual) | survives host crash | state after crash+op | notes"
    );
    let styles = [
        ReplicationStyle::Stateless,
        ReplicationStyle::ColdPassive,
        ReplicationStyle::WarmPassive,
        ReplicationStyle::Active,
        ReplicationStyle::ActiveWithVoting,
    ];
    for (i, &style) in styles.iter().enumerate() {
        let (mut world, handle) = single_domain(170 + i as u64, 6, 1, 3, style);
        let client = add_plain_client(&mut world, &handle, false);
        let rtt = one_round_trip(&mut world, client, 6);

        // Crash the primary (passive) / any host (active family).
        let hosts: Vec<ProcessorId> = handle
            .processors
            .iter()
            .copied()
            .filter(|&p| {
                world
                    .actor::<DomainDaemon>(p)
                    .is_some_and(|d| d.mech().is_host(SERVER))
            })
            .collect();
        let victim = *hosts.iter().min().expect("hosts exist");
        world.crash(victim);
        world.run_for(SimDuration::from_millis(80));

        plain_send(&mut world, client, "add", &4u64.to_be_bytes());
        let survived = run_until_plain_replies(&mut world, client, 2).is_some();
        let values = counter_values(&world, &handle, SERVER);
        // What "consistent state" means differs by style: stateless has no
        // cross-replica contract; cold-passive backups deliberately hold
        // the LOG rather than live state, so the client-visible value is
        // the criterion; warm/active replicas must be byte-identical.
        let reply_value = world
            .actor::<PlainClient>(client)
            .and_then(|c| c.replies.get(1).cloned())
            .map(|r| u64::from_be_bytes(r.body.try_into().unwrap_or([0; 8])));
        let state_ok = match style {
            ReplicationStyle::Stateless => true,
            ReplicationStyle::ColdPassive => reply_value == Some(10),
            _ => values.iter().all(|&v| v == 10),
        };
        println!(
            "  {style:<18} | {rtt:>13} | {survived:19} | {state_ok:20} | {}",
            match style {
                ReplicationStyle::Stateless => "replicas independent by design",
                ReplicationStyle::ColdPassive => "log replay on failover",
                ReplicationStyle::WarmPassive => "hot state on backups",
                ReplicationStyle::Active => "all execute",
                ReplicationStyle::ActiveWithVoting => "majority vote on replies",
            }
        );
        assert!(survived, "{style}");
        assert!(state_ok, "{style}: {values:?}");
    }

    // Voting masks a value fault; plain active does not (it may leak it).
    let (mut world, handle) = single_domain(180, 6, 1, 3, ReplicationStyle::ActiveWithVoting);
    let client = add_plain_client(&mut world, &handle, false);
    one_round_trip(&mut world, client, 8);
    let victim = handle
        .processors
        .iter()
        .copied()
        .find(|&p| {
            world
                .actor::<DomainDaemon>(p)
                .is_some_and(|d| d.mech().is_host(SERVER))
        })
        .expect("host");
    world
        .actor_mut::<DomainDaemon>(victim)
        .expect("daemon")
        .mech_mut()
        .inject_state_fault(SERVER, &666u64.to_be_bytes());
    plain_send(&mut world, client, "get", &[]);
    run_until_plain_replies(&mut world, client, 2).expect("voted reply");
    let body = world.actor::<PlainClient>(client).expect("alive").replies[1]
        .body
        .clone();
    let voted = u64::from_be_bytes(body.try_into().expect("u64"));
    println!(
        "  voting with one corrupted replica: client sees {voted} (truth: 8) — fault masked\n"
    );
    assert_eq!(voted, 8);
}

// =====================================================================

fn mean(xs: &[u64]) -> f64 {
    xs.iter().sum::<u64>() as f64 / xs.len().max(1) as f64
}

fn ns(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}us", v / 1e3)
    } else {
        format!("{v:.0}ns")
    }
}
