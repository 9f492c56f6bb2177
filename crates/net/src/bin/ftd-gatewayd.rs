//! `ftd-gatewayd` — serve a fault tolerance domain on a real TCP port.
//!
//! Hosts an in-process domain with a replicated `Counter` group and runs
//! the gateway engine against an OS socket. Prints the stringified IOR
//! (real host and port in the IIOP profile) on stdout, then metrics every
//! few seconds on stderr.
//!
//! ```text
//! ftd-gatewayd [--port N] [--domain N] [--processors N] [--replicas N]
//!              [--group N] [--voting] [--seed N] [--shards N]
//!              [--inflight N] [--data-dir DIR] [--record-dir DIR]
//!              [--metrics-addr HOST:PORT] [--max-body-bytes N]
//!              [--ior-file PATH]
//!              [--group-node N] [--group-listen HOST:PORT]
//!              [--group-peers A,B,..] [--group-relay HOST:PORT]
//!              [--group-size N] [--linger-ms N] [--sync-state]
//!              [--print-proto-version]
//! ```
//!
//! `--shards` sets the engine shard (thread) count (default: the
//! machine's available parallelism). `--inflight` bounds each shard's
//! admission window. One daemon is one gateway in front of its own
//! domain; more gateways means more daemons joined into a gateway group
//! (`--group-node`, below).
//!
//! `--data-dir DIR` turns on stable storage: the domain's per-group
//! operation logs and checkpoints live under `DIR/domain`, the gateway's
//! §3.5 response cache and §3.2 client-id counters under `DIR/gateway`. On
//! start the daemon replays whatever a previous incarnation left
//! behind — recovered object state, re-executed logged invocations, and
//! a reissue cache that still suppresses duplicates for requests the
//! dead process answered — and prints the recovery summary on stderr.
//!
//! With `--metrics-addr`, a second admin listener serves `GET /metrics`
//! (Prometheus text) and `GET /metrics.json`; the bound address is
//! printed on stderr.
//!
//! `--record-dir DIR` records every nondeterministic input the gateway
//! consumes into an `ftd-replay` event log under `DIR`; replay it
//! offline with `ftd-replay replay DIR`.
//!
//! `--group-node N` joins an **out-of-process gateway group** (§3.5's
//! redundant gateways): this daemon discovers the processes named by
//! `--group-peers` (their `--group-listen` UDP addresses), relays every
//! admitted request and delivered reply to them over TCP
//! (`--group-relay`), and prints/writes a *multi-profile* IOR naming
//! every live member, so a client can `kill -9` any one gateway and
//! fail over to a survivor whose relayed cache answers its reissues
//! byte-identically. `--group-size N` waits for N members to be in the
//! view before publishing the IOR; `--linger-ms` is how long a departed
//! peer's client state lingers before GC. Every member hosts its own
//! domain replica.
//!
//! `--sync-state` makes a (re)joining group member catch up by **state
//! transfer** before it publishes its IOR: a live peer streams its
//! replica checkpoints, completed responses, and reply digests, the
//! member installs them and re-enters the sequenced stream — how a
//! killed member rejoins without replaying a workload it never saw.
//!
//! `--print-proto-version` prints `ftd-gatewayd proto <N>` (the group
//! relay wire protocol version) and exits — harnesses use it to detect
//! a stale binary before spending minutes on a soak.
//!
//! `--ior-file PATH` additionally writes the published IOR to PATH
//! (atomically: temp file + rename) — how other processes
//! and the group soak harness pick the IOR up without scraping stdout.

use ftd_core::EngineConfig;
use ftd_eternal::{Counter, FtProperties, ObjectRegistry, ReplicationStyle};
use ftd_net::{
    AdmissionPolicy, DomainBackend, DomainHost, DurableHost, GatewayServer, GroupOptions,
    ServerOptions,
};
use ftd_obs::Registry;
use ftd_replay::{style_tag, GroupSpec, ReplayEvent};
use ftd_store::FsyncPolicy;
use ftd_totem::GroupId;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

struct Opts {
    port: u16,
    domain: u32,
    processors: u32,
    replicas: u32,
    group: u32,
    voting: bool,
    seed: u64,
    metrics_addr: Option<String>,
    max_body_bytes: Option<usize>,
    shards: Option<usize>,
    inflight: Option<usize>,
    data_dir: Option<PathBuf>,
    record_dir: Option<PathBuf>,
    ior_file: Option<PathBuf>,
    group_node: Option<u32>,
    group_listen: Option<String>,
    group_peers: Vec<String>,
    group_relay: Option<String>,
    group_size: usize,
    linger_ms: Option<u64>,
    sync_state: bool,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        port: 13570,
        domain: 1,
        processors: 4,
        replicas: 3,
        group: 10,
        voting: false,
        seed: 42,
        metrics_addr: None,
        max_body_bytes: None,
        shards: None,
        inflight: None,
        data_dir: None,
        record_dir: None,
        ior_file: None,
        group_node: None,
        group_listen: None,
        group_peers: Vec::new(),
        group_relay: None,
        group_size: 1,
        linger_ms: None,
        sync_state: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--port" => opts.port = parse(&value("--port")),
            "--domain" => opts.domain = parse(&value("--domain")),
            "--processors" => opts.processors = parse(&value("--processors")),
            "--replicas" => opts.replicas = parse(&value("--replicas")),
            "--group" => opts.group = parse(&value("--group")),
            "--seed" => opts.seed = parse(&value("--seed")),
            "--voting" => opts.voting = true,
            "--metrics-addr" => opts.metrics_addr = Some(value("--metrics-addr")),
            "--max-body-bytes" => opts.max_body_bytes = Some(parse(&value("--max-body-bytes"))),
            "--shards" => opts.shards = Some(parse(&value("--shards"))),
            "--inflight" => opts.inflight = Some(parse(&value("--inflight"))),
            "--data-dir" => opts.data_dir = Some(PathBuf::from(value("--data-dir"))),
            "--record-dir" => opts.record_dir = Some(PathBuf::from(value("--record-dir"))),
            "--ior-file" => opts.ior_file = Some(PathBuf::from(value("--ior-file"))),
            "--group-node" => opts.group_node = Some(parse(&value("--group-node"))),
            "--group-listen" => opts.group_listen = Some(value("--group-listen")),
            "--group-peers" => {
                opts.group_peers = value("--group-peers")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect()
            }
            "--group-relay" => opts.group_relay = Some(value("--group-relay")),
            "--group-size" => opts.group_size = parse(&value("--group-size")),
            "--linger-ms" => opts.linger_ms = Some(parse(&value("--linger-ms"))),
            "--sync-state" => opts.sync_state = true,
            "--print-proto-version" => {
                println!("ftd-gatewayd proto {}", ftd_net::PROTO_VERSION);
                std::process::exit(0);
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: ftd-gatewayd [--port N] [--domain N] [--processors N] \
                     [--replicas N] [--group N] [--voting] [--seed N] [--shards N] \
                     [--inflight N] [--data-dir DIR] [--record-dir DIR] \
                     [--metrics-addr HOST:PORT] [--max-body-bytes N] [--ior-file PATH] \
                     [--group-node N] [--group-listen HOST:PORT] [--group-peers A,B,..] \
                     [--group-relay HOST:PORT] [--group-size N] [--linger-ms N] \
                     [--sync-state] [--print-proto-version]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }
    if opts.processors < opts.replicas {
        die("--processors must be >= --replicas");
    }
    if opts.group_node.is_none()
        && (opts.group_listen.is_some()
            || !opts.group_peers.is_empty()
            || opts.group_relay.is_some()
            || opts.group_size > 1
            || opts.linger_ms.is_some()
            || opts.sync_state)
    {
        die(
            "--group-listen/--group-peers/--group-relay/--group-size/--linger-ms/--sync-state \
             need --group-node",
        );
    }
    opts
}

/// Writes `ior` to `path` atomically (temp file in the same directory,
/// then rename), so a reader polling the path never sees a torn IOR.
fn write_ior_file(path: &std::path::Path, ior: &str) {
    let tmp = path.with_extension("tmp");
    let body = format!("{ior}\n");
    if let Err(e) = std::fs::write(&tmp, body).and_then(|()| std::fs::rename(&tmp, path)) {
        die(&format!("writing --ior-file {}: {e}", path.display()));
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("bad numeric value: {s}")))
}

fn die(msg: &str) -> ! {
    eprintln!("ftd-gatewayd: {msg}");
    std::process::exit(2);
}

fn main() {
    let opts = parse_opts();
    let group = GroupId(opts.group);
    let style = if opts.voting {
        ReplicationStyle::ActiveWithVoting
    } else {
        ReplicationStyle::Active
    };
    let (domain, processors, replicas, seed) =
        (opts.domain, opts.processors, opts.replicas, opts.seed);

    // Group members use their node id as the engine's member index:
    // §3.2 client ids are `(index << 24) | counter`, so distinct indexes
    // keep each member's admitted operation ids disjoint.
    let member_index = opts.group_node.unwrap_or(0);
    let mut config = EngineConfig::new(domain, GroupId(0x4000_0000 | domain), member_index);
    if let Some(max_body) = opts.max_body_bytes {
        config.max_body = max_body;
    }
    let mut options = ServerOptions::builder();
    if let Some(addr) = &opts.metrics_addr {
        options = options.metrics_addr(addr.clone());
    }
    let options = options.build();
    let mut builder = GatewayServer::builder()
        .addr(format!("127.0.0.1:{}", opts.port))
        .config(config)
        .options(options);
    if let Some(dir) = &opts.record_dir {
        builder = builder.record_dir(dir.clone());
    }
    // The recorder (if recording) must reach the domain bring-up so
    // recovery is part of the event log.
    let recorder = builder.recorder();
    if let Some(rec) = &recorder {
        rec.record(&ReplayEvent::Topology {
            domain,
            processors,
            seed,
            groups: vec![GroupSpec {
                group: group.0,
                type_name: "Counter".into(),
                style: style_tag(style),
                initial_replicas: replicas,
            }],
        });
        eprintln!("ftd-gatewayd: recording to {}", rec.dir().display());
    }
    let registry = Arc::new(Registry::new());
    let data_dir = opts.data_dir.clone();
    let factory_registry = registry.clone();
    builder = builder.registry(registry).host(move || {
        let mut host = DomainHost::try_start(domain, processors, seed, || {
            let mut reg = ObjectRegistry::new();
            reg.register("Counter", Box::new(|| Box::new(Counter::new())));
            reg
        })?;
        host.create_group(
            group,
            "Counter",
            FtProperties::new(style).with_initial(replicas),
        );
        let backend: Box<dyn DomainBackend> = match &data_dir {
            Some(dir) => {
                let (durable, recovery) = DurableHost::open_recording(
                    host,
                    dir,
                    FsyncPolicy::Always,
                    Some(factory_registry),
                    recorder.as_deref(),
                )
                .map_err(ftd_core::Error::Io)?;
                eprintln!(
                    "ftd-gatewayd: recovered {} durable groups, {} cached responses, \
                     replayed {} logged operations",
                    recovery.groups_recovered, recovery.responses_restored, recovery.ops_replayed,
                );
                Box::new(durable)
            }
            None => Box::new(host),
        };
        Ok::<_, ftd_core::Error>(backend)
    });
    if let Some(dir) = &opts.data_dir {
        builder = builder.data_dir(dir.clone());
    }
    if let Some(shards) = opts.shards {
        builder = builder.shards(shards);
    }
    if let Some(window) = opts.inflight {
        builder = builder.admission(AdmissionPolicy::inflight_window(window));
    }
    if let Some(node) = opts.group_node {
        let mut gopts = GroupOptions::new(node);
        if let Some(listen) = &opts.group_listen {
            gopts = gopts.listen(listen.clone());
        }
        if let Some(relay) = &opts.group_relay {
            gopts = gopts.relay_listen(relay.clone());
        }
        gopts = gopts.seeds(opts.group_peers.iter().cloned());
        if let Some(ms) = opts.linger_ms {
            gopts = gopts.linger(Duration::from_millis(ms));
        }
        gopts = gopts.group_size(opts.group_size);
        builder = builder.group(gopts);
    }
    let server = builder
        .build()
        .unwrap_or_else(|e| die(&format!("start failed: {e}")));

    eprintln!(
        "ftd-gatewayd: domain {} ({} processors, {} {} Counter replicas) on {} ({} shards)",
        domain,
        processors,
        replicas,
        if opts.voting { "voting" } else { "active" },
        server.local_addr(),
        server.shard_count(),
    );
    if let Some(addr) = server.metrics_addr() {
        eprintln!("ftd-gatewayd: metrics on http://{addr}/metrics");
    }

    // Group mode: hold the IOR back until the view reaches the expected
    // size, so the published profiles name every member from the start.
    if opts.group_node.is_some() && opts.group_size > 1 {
        let mut waited_ms = 0u64;
        while server.group_members().len() < opts.group_size {
            if waited_ms > 60_000 {
                die(&format!(
                    "group view stuck at {} members (wanted {})",
                    server.group_members().len(),
                    opts.group_size
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
            waited_ms += 10;
        }
        let members: Vec<String> = server
            .group_members()
            .iter()
            .map(|m| format!("{}@{}:{}", m.node, m.host, m.gateway_port))
            .collect();
        eprintln!(
            "ftd-gatewayd: gateway group view {} [{}]",
            server.group_view(),
            members.join(", ")
        );
    }
    // A (re)joining member catches up by state transfer before its IOR
    // names it: clients must never reach a replica that has not
    // installed the group's history.
    if opts.sync_state {
        if !server.sync_group_state(Duration::from_secs(30)) {
            die("state transfer did not complete within 30s");
        }
        eprintln!(
            "ftd-gatewayd: state transfer installed (applied through group seq {})",
            server.group_applied_through()
        );
    }
    let ior = server.group_ior("IDL:Counter:1.0", group).to_stringified();
    println!("{ior}");
    if let Some(path) = &opts.ior_file {
        write_ior_file(path, &ior);
    }

    loop {
        std::thread::sleep(Duration::from_secs(10));
        let snap = server.snapshot();
        let stats = server.stats();
        eprintln!(
            "ftd-gatewayd: clients={} forwarded={} suppressed={} cached={} \
             bytes_in={} bytes_out={}",
            snap.connected_clients,
            stats.counter("gateway.requests_forwarded"),
            snap.duplicates_suppressed,
            snap.cached_responses,
            stats.counter("net.bytes_in"),
            stats.counter("net.bytes_out"),
        );
    }
}
