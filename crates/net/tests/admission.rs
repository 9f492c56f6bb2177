//! The admission queue, observed from outside a live [`GatewayServer`]:
//! a request that waits at a closed gate is forwarded byte-for-byte as
//! one that did not, and a client that pipelines without reading is
//! disconnected at [`CONN_INBOUND_BUDGET`] whichever shard its frames
//! queue on.
//!
//! Every test runs a window of one in front of a domain that never
//! answers, so the gate closes behind the first request and stays
//! closed until the shard's stall reset reopens it.

use ftd_core::EngineConfig;
use ftd_eternal::DomainMsg;
use ftd_giop::{ByteOrder, GiopMessage, ObjectKey, Request};
use ftd_net::{AdmissionPolicy, DomainBackend, GatewayServer, HostView, CONN_INBOUND_BUDGET};
use ftd_obs::{names, Registry};
use ftd_replay::{read_log, ReplayEvent};
use ftd_sim::SimDuration;
use ftd_totem::GroupId;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const DOMAIN: u32 = 71;
const GROUP: GroupId = GroupId(10);

/// Payloads the gateway multicast into the domain, in order.
type Seen = Arc<Mutex<Vec<Vec<u8>>>>;

/// A domain that swallows every invocation and never answers.
struct SilentBackend {
    seen: Seen,
}

impl DomainBackend for SilentBackend {
    fn domain(&self) -> u32 {
        DOMAIN
    }
    fn gateway_group(&self) -> GroupId {
        GroupId(0x4000_0000 | DOMAIN)
    }
    fn is_operational(&self) -> bool {
        true
    }
    fn multicast(&mut self, _group: GroupId, payload: Vec<u8>) {
        self.seen.lock().expect("seen lock").push(payload);
    }
    fn pump(&mut self, _d: SimDuration) -> Vec<(GroupId, Vec<u8>)> {
        Vec::new()
    }
    fn view(&self) -> HostView {
        HostView::default()
    }
    fn crash_processor(&mut self, _index: usize) -> bool {
        false
    }
    fn recover_processor(&mut self, _index: usize) -> bool {
        false
    }
    fn bind_stats(&mut self, _registry: Arc<Registry>) {}
}

/// A window-of-one gateway over a [`SilentBackend`]; `GROUP` lives on
/// the last shard, so with two shards the first connection (owned by
/// shard 0) reaches it only across the shard queue.
fn start_server(shards: usize, record: Option<&std::path::Path>) -> (GatewayServer, Seen) {
    let seen = Seen::default();
    let backend_seen = seen.clone();
    let mut builder = GatewayServer::builder()
        .addr("127.0.0.1:0")
        .config(EngineConfig::new(DOMAIN, GroupId(0x4000_0000 | DOMAIN), 0))
        .shards(shards)
        .pin_group(GROUP, shards - 1)
        .admission(AdmissionPolicy::inflight_window(1));
    if let Some(dir) = record {
        builder = builder.record_dir(dir);
    }
    let server = builder
        .host(move || Ok::<_, ftd_core::Error>(SilentBackend { seen: backend_seen }))
        .build()
        .expect("bind loopback");
    (server, seen)
}

fn request(request_id: u32) -> GiopMessage {
    GiopMessage::Request(Request {
        request_id,
        response_expected: true,
        object_key: ObjectKey::new(DOMAIN, GROUP.0).to_bytes(),
        operation: "add".into(),
        body: 1u64.to_be_bytes().to_vec(),
        ..Request::default()
    })
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn deferrals(server: &GatewayServer, shard: usize) -> u64 {
    server
        .registry()
        .counter(&names::with_shard(names::GATEWAY_SHARD_DEFERRALS, shard))
        .get()
}

/// The same wire frame admitted once through an open gate and once out
/// of the deferral queue must reach the domain — and the recording —
/// as the same bytes: the gateway encapsulates, so what a replica
/// receives cannot depend on how busy the gateway was.
#[test]
fn the_multicast_payload_does_not_depend_on_gateway_load() {
    // Big-endian with non-zero bytes in the CDR alignment gap after
    // `response_expected` (offset 21..24 with no service contexts):
    // valid GIOP that decodes to the same request, but that an
    // encode(decode(..)) round trip would not reproduce.
    let mut padded = request(1).encode(ByteOrder::Big);
    padded[21..24].copy_from_slice(&[0xAA, 0xBB, 0xCC]);
    assert_eq!(GiopMessage::decode(&padded).unwrap(), request(1));
    assert_ne!(request(1).encode(ByteOrder::Big), padded);
    // Little-endian is the one case the gateway re-encodes: replicas
    // see the canonical big-endian form, on either admission path.
    let little = request(1).encode(ByteOrder::Little);

    for (name, wire, forwarded) in [
        ("padded", &padded, &padded),
        ("little", &little, &request(1).encode(ByteOrder::Big)),
    ] {
        let record =
            std::env::temp_dir().join(format!("ftd-net-admission-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&record);
        let (server, seen) = start_server(1, Some(&record));
        let mut client = TcpStream::connect(server.local_addr()).expect("connect");

        client.write_all(wire).expect("first write");
        wait_until("the open-gate admission", || {
            seen.lock().unwrap().len() == 1
        });
        client.write_all(wire).expect("second write");
        wait_until("the deferred admission", || seen.lock().unwrap().len() == 2);
        assert!(
            deferrals(&server, 0) >= 1,
            "{name}: second copy was deferred"
        );
        drop(client);
        server.shutdown();

        let seen = seen.lock().unwrap();
        assert_eq!(seen[0], seen[1], "{name}: payload differs after a deferral");
        match DomainMsg::decode(&seen[0]).expect("Fig. 4 payload") {
            DomainMsg::Iiop { iiop, .. } => assert_eq!(&iiop, forwarded, "{name}"),
            other => panic!("{name}: expected an invocation, got {other:?}"),
        }
        let (events, _) = read_log(&record).expect("read recording");
        let recorded: Vec<&Vec<u8>> = events
            .iter()
            .filter_map(|e| match e {
                ReplayEvent::ClientMsg { bytes, .. } => Some(bytes),
                _ => None,
            })
            .collect();
        assert_eq!(recorded, [wire, wire], "{name}: recorded client bytes");
        let _ = std::fs::remove_dir_all(&record);
    }
}

/// Pipelines far more than [`CONN_INBOUND_BUDGET`] of small requests at
/// a closed gate without ever reading, on a gateway of `shards` shards
/// (the frames queue on the connection's own shard with one, across the
/// shard queue with two): the gateway must hang up at the budget, not
/// queue without limit.
fn flood_is_disconnected_at_the_inbound_budget(shards: usize) {
    let (server, _seen) = start_server(shards, None);
    let mut client = TcpStream::connect(server.local_addr()).expect("connect");
    client
        .set_write_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let frame_len = request(1).encode(ByteOrder::Big).len();
    let frames = 2 * CONN_INBOUND_BUDGET / frame_len;
    for id in 0..frames as u32 {
        if client
            .write_all(&request(id).encode(ByteOrder::Big))
            .is_err()
        {
            break; // already hung up on
        }
    }
    // EOF or a reset, never the read timeout: the gateway closed us.
    let mut sink = [0u8; 4096];
    loop {
        match client.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                assert!(
                    !matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ),
                    "gateway kept a flooding client connected"
                );
                break;
            }
        }
    }

    let registry = server.registry();
    wait_until("the overflow to be counted", || {
        registry.counter(names::NET_QUEUE_OVERFLOWS).get() >= 1
    });
    // Everything that ever waited a tick fits in the budget (plus the
    // few frames a stall reset admitted, freeing their bytes).
    let queued = deferrals(&server, shards - 1) as usize * frame_len;
    assert!(
        queued <= CONN_INBOUND_BUDGET + 64 * frame_len,
        "{queued} bytes were deferred against a budget of {CONN_INBOUND_BUDGET}"
    );
    server.shutdown();
}

#[test]
fn a_flood_at_the_owning_shard_is_disconnected_at_the_inbound_budget() {
    flood_is_disconnected_at_the_inbound_budget(1);
}

#[test]
fn a_flood_across_the_shard_queue_is_disconnected_at_the_inbound_budget() {
    flood_is_disconnected_at_the_inbound_budget(2);
}
