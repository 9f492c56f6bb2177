//! The one §3.5 soak client, and the verdict every soak shares.
//!
//! Every soak drives the replicated `Counter` with the same client
//! discipline: a client invokes each `add` once and from then on only
//! ever reissues that same request id until it is acknowledged, so an
//! unacknowledged attempt can never execute a second time under a new
//! identity. The soaks differ only in how a client reaches the gateway
//! ([`Target`]) and in the pause between its requests.
//!
//! After the load, a fresh identity reads the counter ([`read_final`]),
//! and the checks here turn the numbers into failure strings: every
//! attempted add was acknowledged ([`check_acked`]), the final counter
//! equals the acknowledged sum ([`check_final`]: more is a duplicate
//! execution, less a lost acknowledged reply), and a [`Probe`] acked
//! before the fault is answered byte-identically after it.

use crate::cli;
use ftd_giop::{Ior, Reply, ReplyStatus};
use ftd_net::{NetClient, NetClientBuilder, RetryPolicy};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client id of load client 0; load client `i` is this plus `i`.
const LOAD_CLIENT_ID: u32 = 0x5001;
/// Client id of the [`Probe`].
const PROBE_CLIENT_ID: u32 = 0xA001;
/// What the [`Probe`] adds.
pub const PROBE_ADD: u64 = 5;

/// How long a load client waits for a reply before it redials and
/// reissues: far above a healthy round trip (under a millisecond, plus
/// at most 40 ms of injected delay), and the whole cost of a request or
/// reply the chaos proxy drops.
const REPLY_TIMEOUT: Duration = Duration::from_secs(1);
/// The policy of a request's first attempt: redial and reissue a few
/// times inside `invoke_retrying` before the outer loop takes over.
const POLICY: RetryPolicy = RetryPolicy {
    retries: 6,
    backoff: Duration::from_millis(20),
    max_backoff: Duration::from_millis(200),
    timeout: REPLY_TIMEOUT,
};
/// The pause after a failed attempt before the next reissue.
const RETRY_PAUSE: Duration = Duration::from_millis(50);
/// How long one request may stay unacknowledged before the run fails.
const ACK_DEADLINE: Duration = Duration::from_secs(120);
/// How long a load client keeps trying to connect, and the probe to be
/// answered after the fault.
const CONNECT_DEADLINE: Duration = Duration::from_secs(30);
/// How long the verdict read keeps retrying a failed connect or `get`,
/// and a gateway group's members get to converge.
pub const VERIFY_DEADLINE: Duration = Duration::from_secs(60);

/// The deterministic amount client `i` adds on its `k`-th request.
pub fn amount(i: u32, k: u32) -> u64 {
    (i as u64 * 37 + k as u64 * 11) % 9 + 1
}

/// The sum of the whole schedule of clients `0..clients`.
pub fn schedule_sum(clients: u32, requests: u32) -> u64 {
    (0..clients)
        .flat_map(|i| (0..requests).map(move |k| amount(i, k)))
        .sum()
}

/// How a soak client reaches the gateway.
#[derive(Debug, Clone)]
pub enum Target {
    /// A fixed address serving the object key (e.g. a chaos proxy).
    Addr(SocketAddr, Vec<u8>),
    /// An address the soak repoints mid-run: a restarted gateway binds
    /// a fresh port. Re-read before every attempt.
    Shared(Arc<Mutex<SocketAddr>>, Vec<u8>),
    /// A (multi-profile) IOR, walked in preference order on every dial.
    Ior(Ior),
}

impl Target {
    fn builder(&self) -> NetClientBuilder {
        match self {
            Target::Addr(addr, key) => NetClient::builder().addr(*addr, key.clone()),
            Target::Shared(addr, key) => NetClient::builder().addr(shared(addr), key.clone()),
            Target::Ior(ior) => NetClient::builder().ior(ior),
        }
    }

    /// Repoints `client` when a shared address moved since it last
    /// dialed. Retargeting keeps the client id and the request-id
    /// sequence, so reissues reach the new gateway under their old ids.
    fn follow(&self, client: &mut NetClient) -> ftd_core::Result<()> {
        match self {
            Target::Shared(addr, _) if client.connected_addr() != Some(shared(addr)) => {
                client.retarget(shared(addr))
            }
            _ => Ok(()),
        }
    }
}

fn shared(addr: &Mutex<SocketAddr>) -> SocketAddr {
    *addr
        .lock()
        .expect("target lock poisoned by a panicked soak thread")
}

/// Resends request `request_id` verbatim, redialing first if the
/// connection is down.
fn reissue(client: &mut NetClient, request_id: u32, args: &[u8]) -> ftd_core::Result<Reply> {
    if !client.is_connected() {
        client.reconnect()?;
    }
    client.resend(request_id, "add", args)
}

/// What one or more load clients did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// The sum of every acknowledged add.
    pub acked_sum: u64,
    /// Redials.
    pub reconnects: u64,
    /// Requests resent under their original id.
    pub reissues: u64,
    /// Redials that landed on a different gateway address.
    pub profile_switches: u64,
}

/// Drives load client `index`: `requests` adds of its [`amount`]
/// schedule, each pushed until acknowledged, pausing `pacing` after
/// each. Closes gracefully at the end, so a gateway group's members
/// garbage-collect the client's relayed state after the linger.
fn run_client(
    target: &Target,
    index: u32,
    requests: u32,
    pacing: Duration,
) -> Result<Outcome, String> {
    let connect_deadline = Instant::now() + CONNECT_DEADLINE;
    let mut client = loop {
        let builder = target.builder().read_timeout(REPLY_TIMEOUT);
        match builder.client_id(LOAD_CLIENT_ID + index).connect() {
            Ok(client) => break client,
            Err(_) if Instant::now() < connect_deadline => std::thread::sleep(RETRY_PAUSE),
            Err(e) => return Err(format!("client {index} never connected: {e}")),
        }
    };
    let mut acked_sum = 0;
    for k in 0..requests {
        let add = amount(index, k);
        let args = add.to_be_bytes();
        let deadline = Instant::now() + ACK_DEADLINE;
        let mut issued = false;
        loop {
            let result = target.follow(&mut client).and_then(|()| {
                if issued {
                    // The id is on the wire somewhere: only ever reissue
                    // it, so the gateway's cache (or the domain's
                    // duplicate detection) keeps the add exactly-once.
                    let id = client.last_request_id();
                    reissue(&mut client, id, &args)
                } else {
                    issued = true;
                    client.invoke_retrying("add", &args, &POLICY)
                }
            });
            match result {
                Ok(reply) if reply.reply_status == ReplyStatus::NoException => {
                    acked_sum += add;
                    break;
                }
                Ok(reply) => {
                    return Err(format!(
                        "client {index} request {k}: unexpected reply status {:?}",
                        reply.reply_status
                    ))
                }
                Err(_) if Instant::now() < deadline => {
                    client.disconnect();
                    std::thread::sleep(RETRY_PAUSE);
                }
                Err(e) => {
                    return Err(format!(
                        "client {index} request {k}: never acknowledged: {e}"
                    ))
                }
            }
        }
        std::thread::sleep(pacing);
    }
    let outcome = Outcome {
        acked_sum,
        reconnects: client.reconnects(),
        reissues: client.reissues(),
        profile_switches: client.profile_switches(),
    };
    let _ = client.close();
    Ok(outcome)
}

/// A load phase in flight: one thread per client.
pub type Load = Vec<JoinHandle<Result<Outcome, String>>>;

/// Starts load clients `base..base + clients`, each running `requests`
/// adds and pausing `pacing` between them; client `i` reaches the
/// gateway through `target(i)`.
pub fn spawn_load(
    clients: u32,
    requests: u32,
    base: u32,
    pacing: Duration,
    target: impl Fn(u32) -> Target,
) -> Load {
    (base..base + clients)
        .map(|i| {
            let target = target(i);
            std::thread::Builder::new()
                .name(format!("soak-client-{i}"))
                .spawn(move || run_client(&target, i, requests, pacing))
                .expect("spawn load client")
        })
        .collect()
}

/// Waits for a load phase and sums what its clients did. Fails on the
/// first client that could not finish its schedule.
pub fn join_load(load: Load) -> Result<Outcome, String> {
    let mut total = Outcome::default();
    for worker in load {
        let outcome = worker
            .join()
            .map_err(|_| "a load client thread panicked".to_owned())??;
        total.acked_sum += outcome.acked_sum;
        total.reconnects += outcome.reconnects;
        total.reissues += outcome.reissues;
        total.profile_switches += outcome.profile_switches;
    }
    Ok(total)
}

/// One [`PROBE_ADD`] acknowledged before a fault and reissued after it
/// under its original request id: the answer must be the bytes of the
/// first reply, which only a surviving (or recovered) response cache
/// can give. The probe never says goodbye, so nothing garbage-collects
/// its cached reply early.
#[derive(Debug)]
pub struct Probe {
    client: NetClient,
    target: Target,
    request_id: u32,
    reply: Vec<u8>,
}

impl Probe {
    /// Connects through `target` and has the add acknowledged.
    pub fn ack(target: Target) -> Result<Probe, String> {
        let mut client = target
            .builder()
            .client_id(PROBE_CLIENT_ID)
            .read_timeout(Duration::from_secs(5))
            .connect()
            .map_err(|e| format!("probe connect: {e}"))?;
        let reply = client
            .invoke("add", &PROBE_ADD.to_be_bytes())
            .map_err(|e| format!("probe add: {e}"))?;
        Ok(Probe {
            request_id: client.last_request_id(),
            reply: reply.body,
            client,
            target,
        })
    }

    /// Reissues the add until it is answered. Returns the failure
    /// string when the answer differs from what `acked_by` acknowledged.
    pub fn reissue(mut self, acked_by: &str) -> Result<Option<String>, String> {
        let deadline = Instant::now() + CONNECT_DEADLINE;
        let args = PROBE_ADD.to_be_bytes();
        let replayed = loop {
            let attempt = self
                .target
                .follow(&mut self.client)
                .and_then(|()| reissue(&mut self.client, self.request_id, &args));
            match attempt {
                Ok(reply) => break reply.body,
                Err(e) if Instant::now() < deadline => {
                    eprintln!("{}: probe reissue retry ({e})", cli::prog());
                    self.client.disconnect();
                    std::thread::sleep(Duration::from_millis(100));
                }
                Err(e) => return Err(format!("probe reissue: {e}")),
            }
        };
        Ok((replayed != self.reply).then(|| {
            format!(
                "lost acked reply: probe reissue answered {replayed:?}, {acked_by} acked {:?}",
                self.reply
            )
        }))
    }
}

/// The verdict read: a fresh identity `client_id` reaches the gateway
/// through `target` and returns the first counter value `get` answers.
/// Only a failed connect or invoke is retried (a gateway still degraded
/// after a crash sheds the connection); a value is never re-read, so a
/// low first answer fails the verdict even if the counter catches up.
pub fn read_final(target: &Target, client_id: u32) -> Result<u64, String> {
    let deadline = Instant::now() + VERIFY_DEADLINE;
    loop {
        let attempt = target
            .builder()
            .client_id(client_id)
            .connect()
            .and_then(|mut verifier| {
                verifier.set_read_timeout(Duration::from_secs(5))?;
                verifier.invoke("get", &[])
            });
        match attempt {
            Ok(reply) => {
                let body = reply.body.try_into();
                return Ok(u64::from_be_bytes(
                    body.map_err(|_| "verify get: non-u64 reply")?,
                ));
            }
            Err(e) if Instant::now() < deadline => {
                eprintln!("{}: verify retry ({e})", cli::prog());
                std::thread::sleep(Duration::from_millis(250));
            }
            Err(e) => return Err(format!("verify get: {e}")),
        }
    }
}

/// The lost-ack check: every add the clients attempted was acknowledged.
pub fn check_acked(acked: u64, attempted: u64) -> Option<String> {
    (acked != attempted)
        .then(|| format!("lost acknowledged adds: acked {acked} != attempted {attempted}"))
}

/// The exactly-once check: the counter read `at` a site (`""`,
/// `" at gw-1"`, ...) equals the acknowledged sum.
pub fn check_final(at: &str, final_value: u64, acked: u64) -> Option<String> {
    (final_value != acked).then(|| {
        format!(
            "exactly-once violated{at}: final counter {final_value} != acked sum {acked} ({} it)",
            if final_value > acked {
                "duplicate executions inflated"
            } else {
                "lost acknowledged replies deflated"
            }
        )
    })
}

/// Prints the verdict: on stdout `PASS {head} {detail}`, or each
/// failure on stderr and `FAIL {head} (N violations)` on stdout, then
/// exits 1.
pub fn verdict(failures: &[String], head: &str, detail: &str) {
    if failures.is_empty() {
        println!("PASS {head} {detail}");
        return;
    }
    for failure in failures {
        eprintln!("{}: FAIL: {failure}", cli::prog());
    }
    println!("FAIL {head} ({} violations)", failures.len());
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftd_chaos::{ChaosProxy, FaultPlan};
    use ftd_core::EngineConfig;
    use ftd_giop::{ByteOrder, GiopMessage, GIOP_HEADER_LEN};
    use ftd_net::GatewayServer;
    use ftd_totem::GroupId;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    #[test]
    fn an_inflated_final_names_duplicates_a_deflated_one_lost_replies() {
        let inflated = check_final(" at gw-1", 12, 10).expect("inflated fails");
        assert!(inflated.contains(" at gw-1: final counter 12 != acked sum 10"));
        assert!(inflated.contains("duplicate executions"), "{inflated}");
        let deflated = check_final("", 8, 10).expect("deflated fails");
        assert!(deflated.contains("lost acknowledged replies"), "{deflated}");
        assert_eq!(check_final("", 10, 10), None);
    }

    #[test]
    fn an_unacknowledged_add_fails_the_ack_check() {
        assert_eq!(
            check_acked(9, 10).as_deref(),
            Some("lost acknowledged adds: acked 9 != attempted 10")
        );
        assert_eq!(check_acked(10, 10), None);
    }

    /// A stand-in gateway that answers the `get` on its `n`-th
    /// connection with `values[n]`, then stops listening.
    fn scripted_gateway(values: &'static [u64]) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        std::thread::spawn(move || {
            for (stream, value) in listener.incoming().zip(values) {
                let mut stream = stream.expect("accept");
                let mut frame = vec![0; GIOP_HEADER_LEN];
                stream.read_exact(&mut frame).expect("header");
                let len = u32::from_be_bytes(frame[8..12].try_into().expect("size field"));
                frame.resize(GIOP_HEADER_LEN + len as usize, 0);
                stream
                    .read_exact(&mut frame[GIOP_HEADER_LEN..])
                    .expect("body");
                let GiopMessage::Request(request) = GiopMessage::decode(&frame).expect("giop")
                else {
                    panic!("expected a request");
                };
                assert_eq!(request.operation, "get");
                let reply = Reply::success(request.request_id, value.to_be_bytes().to_vec());
                let bytes = GiopMessage::Reply(reply).encode(ByteOrder::Big);
                stream.write_all(&bytes).expect("reply");
            }
        });
        addr
    }

    /// The verdict stands on the first value read: a counter that reads
    /// low fails the exactly-once check, although the next read would
    /// already have found the acknowledged sum.
    #[test]
    fn a_low_first_read_fails_the_verdict() {
        let acked = 5;
        let target = Target::Addr(scripted_gateway(&[3, 5]), b"counter".to_vec());
        let first = read_final(&target, 0xFFFF).expect("verdict read");
        assert_eq!(first, 3);
        let failure = check_final("", first, acked).expect("a low read fails");
        assert!(failure.contains("lost acknowledged replies"), "{failure}");
        assert_eq!(read_final(&target, 0xFFFF), Ok(acked));
    }

    /// The soak oracle end to end: two clients push their schedules
    /// through a seeded chaos proxy into an in-process gateway, and the
    /// replicated counter ends at exactly the schedule's sum.
    #[test]
    fn adds_stay_exactly_once_through_a_chaos_proxy() {
        const GROUP: GroupId = GroupId(10);
        let server = GatewayServer::builder()
            .addr("127.0.0.1:0")
            .config(EngineConfig::new(9, GroupId(0x4000_0009), 0))
            .host(|| crate::counter_host(9, 42, [GROUP]))
            .build()
            .expect("gateway");
        let ior = server.ior("IDL:Counter:1.0", GROUP);
        let proxy = ChaosProxy::start(
            "127.0.0.1:0",
            server.local_addr(),
            FaultPlan::soak(42, 0.15),
        )
        .expect("proxy");
        let key = ior.primary_iiop().expect("iiop profile").object_key;

        let load = spawn_load(2, 10, 0, Duration::ZERO, |_| {
            Target::Addr(proxy.local_addr(), key.clone())
        });
        let outcome = join_load(load).expect("every add acknowledged");
        let attempted = schedule_sum(2, 10);
        assert_eq!(outcome.acked_sum, attempted);
        let final_value = read_final(&Target::Ior(ior), 0xFFFF).expect("verdict read");
        assert_eq!(final_value, attempted);

        let report = proxy.shutdown();
        server.shutdown();
        assert!(report.faults_injected() > 0, "the proxy injected nothing");
    }
}
