//! The admission queue, observed from outside a live [`GatewayServer`]:
//! a request that waits at a closed gate is forwarded byte-for-byte as
//! one that did not. (The queue's own rules — FIFO order, deferrals,
//! the inbound budget, the stall reset — are `ftd_core::Shard` unit
//! tests.)
//!
//! The gateway runs a window of one in front of a domain that never
//! answers, so the gate closes behind the first request and stays
//! closed until the shard's stall reset reopens it.

use ftd_core::EngineConfig;
use ftd_eternal::DomainMsg;
use ftd_giop::{ByteOrder, GiopMessage, ObjectKey, Request};
use ftd_net::{AdmissionPolicy, DomainBackend, GatewayServer, HostView};
use ftd_obs::{names, Registry};
use ftd_replay::{read_log, ReplayEvent};
use ftd_sim::SimDuration;
use ftd_totem::GroupId;
use std::io::Write;
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

/// A one-shard, window-of-one gateway over a [`SilentBackend`],
/// recording into `record`.
fn start_server(record: &std::path::Path) -> (GatewayServer, Seen) {
    let seen = Seen::default();
    let backend_seen = seen.clone();
    let server = GatewayServer::builder()
        .addr("127.0.0.1:0")
        .config(EngineConfig::new(DOMAIN, GroupId(0x4000_0000 | DOMAIN), 0))
        .shards(1)
        .admission(AdmissionPolicy::inflight_window(1))
        .record_dir(record)
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

fn deferrals(server: &GatewayServer) -> u64 {
    server
        .registry()
        .counter(&names::with_shard(names::GATEWAY_SHARD_DEFERRALS, 0))
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
        let (server, seen) = start_server(&record);
        let mut client = TcpStream::connect(server.local_addr()).expect("connect");

        client.write_all(wire).expect("first write");
        wait_until("the open-gate admission", || {
            seen.lock().unwrap().len() == 1
        });
        client.write_all(wire).expect("second write");
        wait_until("the deferred admission", || seen.lock().unwrap().len() == 2);
        assert!(deferrals(&server) >= 1, "{name}: second copy was deferred");
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
