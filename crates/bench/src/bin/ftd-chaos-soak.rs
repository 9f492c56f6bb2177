//! `ftd-chaos-soak` — end-to-end chaos soak for the live TCP stack.
//!
//! Brings up a real [`GatewayServer`] (in-process 4-processor domain,
//! 3-replica active `Counter` group), puts an [`ftd_chaos::ChaosProxy`]
//! in front of it, and drives N enhanced clients through the proxy under
//! a seeded fault mix (drops, delays, mid-message truncations, resets,
//! duplicated request chunks — plus optional blackout windows and an
//! optional live domain-processor crash/recovery). Every client retries
//! each `add` under the §3.5 reconnect-and-reissue discipline of
//! [`ftd_bench::soak`] until it is acknowledged, always under the *same*
//! request id, so the run can assert the strongest property the paper
//! claims: **exactly-once delivery** — the final replicated counter
//! equals the sum of every acknowledged add, with zero duplicate
//! executions and zero lost acknowledged replies — verified against the
//! gateway engine's own counters.
//!
//! ```text
//! ftd-chaos-soak [--seed N] [--clients N] [--requests N]
//!                [--fault-probability F] [--blackout] [--crash]
//!                [--restart] [--data-dir DIR] [--record DIR]
//!                [--json PATH]
//! ```
//!
//! `--restart` runs the **kill-and-restart phase** instead of the proxy
//! soak: the gateway and its domain run with stable storage (`--data-dir`,
//! default a temp dir), clients hammer the gateway directly, and mid-load
//! the whole gateway+domain process stand-in is killed — no quiesce, no
//! checkpoint — then rebuilt from the same data dir on a fresh port (the
//! old one lingers in TIME_WAIT). Clients fail over to the new address
//! reissuing under their original request ids; a probe client reissues a
//! request the *dead* incarnation acknowledged and must get the identical
//! reply back from the recovered response cache. The run asserts zero
//! duplicate executions and zero lost acknowledged replies across the
//! restart.
//!
//! `--record DIR` additionally records every nondeterministic input the
//! gateway consumes into an `ftd-replay` event log under `DIR` (wiped
//! first — the run owns its recording). Replay it offline with
//! `ftd-replay replay DIR`. Under `--restart` the recording spans the
//! kill: each incarnation records into its own `DIR/inc-0` / `DIR/inc-1`
//! subdirectory, and each is independently replayable (recovery is part
//! of `inc-1`'s event log).
//!
//! Exit code 0 iff every assertion held; `--json` additionally writes a
//! machine-readable report (consumed by the CI chaos and recovery jobs).

use ftd_bench::cli::{self, die, Args, CliError, Json};
use ftd_bench::counter_host;
use ftd_bench::soak::{self, Probe, Target};
use ftd_chaos::{Blackout, ChaosProxy, FaultPlan};
use ftd_core::EngineConfig;
use ftd_eternal::ReplicationStyle;
use ftd_net::{DomainFault, DurableHost, GatewayBuilder, GatewayServer};
use ftd_replay::{style_tag, GroupSpec, ReplayEvent};
use ftd_store::FsyncPolicy;
use ftd_totem::GroupId;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const GROUP: GroupId = GroupId(10);
/// The verdict reader's client id.
const VERIFIER: u32 = 0xFFFF;

const USAGE: &str = "ftd-chaos-soak [--seed N] [--clients N] [--requests N] \
                     [--fault-probability F] [--blackout] [--crash] \
                     [--restart] [--data-dir DIR] [--record DIR] [--json PATH]";

struct Opts {
    seed: u64,
    clients: u32,
    requests: u32,
    fault_probability: f64,
    blackout: bool,
    crash: bool,
    restart: bool,
    data_dir: Option<PathBuf>,
    record: Option<PathBuf>,
    json: Option<String>,
}

fn parse_opts(args: &mut Args) -> Result<Opts, CliError> {
    let mut opts = Opts {
        seed: 42,
        clients: 4,
        requests: 25,
        fault_probability: 0.15,
        blackout: false,
        crash: false,
        restart: false,
        data_dir: None,
        record: None,
        json: None,
    };
    while let Some(arg) = args.next_arg()? {
        match arg.as_str() {
            "--seed" => opts.seed = args.number()?,
            "--clients" => opts.clients = args.number()?,
            "--requests" => opts.requests = args.number()?,
            "--fault-probability" => opts.fault_probability = args.number()?,
            "--blackout" => opts.blackout = true,
            "--crash" => opts.crash = true,
            "--restart" => opts.restart = true,
            "--data-dir" => opts.data_dir = Some(args.value()?.into()),
            "--record" => opts.record = Some(args.value()?.into()),
            "--json" => opts.json = Some(args.value()?),
            _ => return Err(args.unknown()),
        }
    }
    if opts.clients == 0 || opts.requests == 0 {
        return Err(CliError::Bad(
            "--clients and --requests must be >= 1".to_owned(),
        ));
    }
    Ok(opts)
}

/// The soak's gateway (domain 9, on an ephemeral loopback port),
/// recording under `record` if given. A recording starts with the fixed
/// topology (4 processors, one 3-replica active `Counter` group) so
/// `ftd-replay` can rebuild the world.
fn gateway(seed: u64, record: Option<&Path>) -> GatewayBuilder {
    let mut builder = GatewayServer::builder()
        .addr("127.0.0.1:0")
        .config(EngineConfig::new(9, GroupId(0x4000_0009), 0));
    if let Some(dir) = record {
        builder = builder.record_dir(dir);
    }
    if let Some(rec) = builder.recorder() {
        rec.record(&ReplayEvent::Topology {
            domain: 9,
            processors: 4,
            seed,
            groups: vec![GroupSpec {
                group: GROUP.0,
                type_name: "Counter".into(),
                style: style_tag(ReplicationStyle::Active),
                initial_replicas: 3,
            }],
        });
        eprintln!("ftd-chaos-soak: recording to {}", rec.dir().display());
    }
    builder
}

/// A durable gateway for the restart phase: the same domain/group shape
/// as the proxy soak, but with stable storage under `dir` for both the
/// gateway's §3.5 response cache and the domain's per-group logs. With
/// `record`, this incarnation writes an `ftd-replay` event log there —
/// including whatever recovery the data dir forces at bring-up.
fn start_durable_gateway(dir: &Path, seed: u64, record: Option<&Path>) -> GatewayServer {
    let data_dir = dir.to_path_buf();
    let builder = gateway(seed, record).data_dir(dir);
    let recorder = builder.recorder();
    builder
        .host(move || {
            let (durable, _) = DurableHost::open_recording(
                counter_host(9, seed, [GROUP])?,
                &data_dir,
                FsyncPolicy::Always,
                None,
                recorder.as_deref(),
            )
            .map_err(ftd_core::Error::Io)?;
            Ok::<_, ftd_core::Error>(durable)
        })
        .build()
        .unwrap_or_else(|e| die(&format!("durable gateway start failed: {e}")))
}

/// The kill-and-restart phase (`--restart`). Clients hammer a durable
/// gateway directly; mid-load the gateway+domain is killed without
/// quiesce or checkpoint, rebuilt from the same data dir (different ring
/// seed, fresh port), and the run asserts the paper's restart story:
/// zero duplicate executions, zero lost acknowledged replies, and a
/// pre-kill acked reply reissued byte-identically from the recovered
/// response cache.
fn run_restart_soak(opts: &Opts) {
    let started = Instant::now();
    let data_dir = opts.data_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!(
            "ftd-soak-restart-{}-{}",
            std::process::id(),
            opts.seed
        ))
    });
    // The phase asserts exact counter math from zero: start clean. The
    // same goes for the recording — the run owns its record dir, and
    // each incarnation gets its own independently replayable subdir.
    let _ = std::fs::remove_dir_all(&data_dir);
    if let Some(dir) = &opts.record {
        let _ = std::fs::remove_dir_all(dir);
    }
    let record_inc = |i: u32| opts.record.as_ref().map(|dir| dir.join(format!("inc-{i}")));

    let server = start_durable_gateway(&data_dir, opts.seed, record_inc(0).as_deref());
    let object_key = server
        .ior("IDL:Counter:1.0", GROUP)
        .primary_iiop()
        .unwrap_or_else(|e| die(&format!("bad IOR: {e:?}")))
        .object_key;
    // The restarted incarnation binds a fresh port; every client re-reads
    // this before each attempt.
    let addr = Arc::new(Mutex::new(server.local_addr()));
    let target = Target::Shared(addr.clone(), object_key.clone());

    eprintln!(
        "ftd-chaos-soak: restart phase: seed={} clients={} requests={} data_dir={}",
        opts.seed,
        opts.clients,
        opts.requests,
        data_dir.display()
    );

    // The probe: acknowledged by the FIRST incarnation, it must come
    // back byte-identical from the recovered cache after the kill — the
    // "zero lost acked replies" witness.
    let probe = Probe::ack(target.clone()).unwrap_or_else(|e| die(&e));

    // Paced so the load straddles the kill and the recovery window.
    let load = soak::spawn_load(
        opts.clients,
        opts.requests,
        0,
        Duration::from_millis(25),
        |_| target.clone(),
    );

    // Kill mid-load: no quiesce, no checkpoint — crash-equivalent.
    std::thread::sleep(Duration::from_millis(400));
    server.kill();
    eprintln!("ftd-chaos-soak: killed the gateway (no quiesce, no checkpoint)");
    std::thread::sleep(Duration::from_millis(200));

    // Rebuild from the same data dir. A different ring seed shows replay
    // does not depend on reproducing the dead incarnation's schedule.
    let server = start_durable_gateway(
        &data_dir,
        opts.seed.wrapping_add(1),
        record_inc(1).as_deref(),
    );
    *addr.lock().expect("target lock") = server.local_addr();
    eprintln!(
        "ftd-chaos-soak: restarted from {} on {}",
        data_dir.display(),
        server.local_addr()
    );

    let load = soak::join_load(load).unwrap_or_else(|e| die(&e));
    let probe_failure = probe
        .reissue("the dead incarnation")
        .unwrap_or_else(|e| die(&e));

    let expected_load = soak::schedule_sum(opts.clients, opts.requests);
    let expected_sum = expected_load + soak::PROBE_ADD;
    let final_value = soak::read_final(&Target::Addr(server.local_addr(), object_key), VERIFIER)
        .unwrap_or_else(|e| die(&e));

    let stats = server.shutdown();
    let cache_hits = stats.counter("gateway.reissues_served_from_cache");
    let responses_recovered = stats.counter("store.responses_recovered");
    let elapsed = started.elapsed();

    eprintln!(
        "ftd-chaos-soak: restart: acked_sum={} final={final_value} \
         cache_hits={cache_hits} responses_recovered={responses_recovered} \
         reconnects={} reissues={}",
        load.acked_sum, load.reconnects, load.reissues
    );

    let mut failures: Vec<String> = probe_failure.into_iter().collect();
    failures.extend(soak::check_acked(load.acked_sum, expected_load));
    failures.extend(soak::check_final(
        " across restart",
        final_value,
        expected_sum,
    ));
    if responses_recovered == 0 {
        failures.push(
            "the restarted gateway recovered no cached responses — the kill landed \
             before any durable write, the phase proved nothing"
                .to_owned(),
        );
    }
    if cache_hits == 0 {
        failures.push(
            "no reissue was served from the recovered cache (the probe's should have been)"
                .to_owned(),
        );
    }

    if let Some(path) = &opts.json {
        Json::new()
            .raw("seed", opts.seed)
            .raw("clients", opts.clients)
            .raw("requests_per_client", opts.requests)
            .raw("restart", true)
            .str("data_dir", &data_dir.display().to_string())
            .raw("expected_sum", expected_sum)
            .raw("acked_sum", load.acked_sum)
            .raw("final_value", final_value)
            .raw("client_reconnects", load.reconnects)
            .raw("client_reissues", load.reissues)
            .object(
                "engine",
                Json::new()
                    .raw("reissues_served_from_cache", cache_hits)
                    .raw("responses_recovered", responses_recovered),
            )
            .raw("elapsed_ms", elapsed.as_millis())
            .raw("passed", failures.is_empty())
            .write(path);
    }

    if opts.data_dir.is_none() {
        let _ = std::fs::remove_dir_all(&data_dir);
    }

    soak::verdict(
        &failures,
        &format!("restart seed={}", opts.seed),
        &format!(
            "clients={} requests={} final={final_value} cache_hits={cache_hits} \
             reconnects={} reissues={} elapsed={:.1}s",
            opts.clients,
            opts.requests,
            load.reconnects,
            load.reissues,
            elapsed.as_secs_f64()
        ),
    );
}

fn main() {
    let opts = cli::parse(USAGE, parse_opts);
    if opts.restart {
        run_restart_soak(&opts);
        return;
    }
    let started = Instant::now();

    if let Some(dir) = &opts.record {
        let _ = std::fs::remove_dir_all(dir);
    }
    let seed = opts.seed;
    let server = gateway(seed, opts.record.as_deref())
        .host(move || counter_host(9, seed, [GROUP]))
        .build()
        .unwrap_or_else(|e| die(&format!("gateway start failed: {e}")));

    let mut plan = FaultPlan::soak(opts.seed, opts.fault_probability);
    if opts.blackout {
        plan.blackouts = vec![Blackout {
            after: Duration::from_millis(1500),
            duration: Duration::from_millis(500),
        }];
    }
    let proxy = ChaosProxy::start("127.0.0.1:0", server.local_addr(), plan)
        .unwrap_or_else(|e| die(&format!("proxy start failed: {e}")));

    let ior = server.ior("IDL:Counter:1.0", GROUP);
    let object_key = ior
        .primary_iiop()
        .unwrap_or_else(|e| die(&format!("bad IOR: {e:?}")))
        .object_key;

    eprintln!(
        "ftd-chaos-soak: seed={} clients={} requests={} p={} blackout={} crash={}",
        opts.seed, opts.clients, opts.requests, opts.fault_probability, opts.blackout, opts.crash
    );

    let through_proxy = Target::Addr(proxy.local_addr(), object_key);
    let load = soak::spawn_load(opts.clients, opts.requests, 0, Duration::ZERO, |_| {
        through_proxy.clone()
    });

    // Mid-run domain chaos, from the only thread that may touch `server`.
    if opts.crash {
        std::thread::sleep(Duration::from_secs(1));
        server.inject(DomainFault::CrashProcessor(2));
        eprintln!("ftd-chaos-soak: crashed domain processor 2 (gateway degraded)");
        std::thread::sleep(Duration::from_millis(1500));
        server.inject(DomainFault::RecoverProcessor(2));
        eprintln!("ftd-chaos-soak: recovered domain processor 2");
    }

    let load = soak::join_load(load).unwrap_or_else(|e| die(&e));
    let expected_sum = soak::schedule_sum(opts.clients, opts.requests);

    // The verdict read: a clean direct connection (no proxy). The
    // gateway may still be degraded (sheds the connection) right after a
    // `--crash` recovery; the read retries until the ring has healed.
    let final_value = soak::read_final(&Target::Ior(ior), VERIFIER).unwrap_or_else(|e| die(&e));

    let report = proxy.shutdown();
    let snapshot = server.snapshot();
    let stats = server.shutdown();
    let total_requests = opts.clients as u64 * opts.requests as u64;
    let forwarded = stats.counter("gateway.requests_forwarded");
    let cache_hits = stats.counter("gateway.reissues_served_from_cache");
    let evictions = stats.counter("gateway.responses_evicted");
    let elapsed = started.elapsed();

    eprintln!("ftd-chaos-soak: proxy injected: {report}");
    eprintln!(
        "ftd-chaos-soak: engine: forwarded={forwarded} cache_hits={cache_hits} \
         suppressed={} evictions={evictions} cached={}",
        snapshot.duplicates_suppressed, snapshot.cached_responses
    );
    eprintln!(
        "ftd-chaos-soak: clients: acked_sum={} reconnects={} reissues={}",
        load.acked_sum, load.reconnects, load.reissues
    );

    // The acceptance assertions.
    let mut failures: Vec<String> = soak::check_acked(load.acked_sum, expected_sum)
        .into_iter()
        .collect();
    failures.extend(soak::check_final("", final_value, expected_sum));
    if forwarded < total_requests {
        failures.push(format!(
            "metrics inconsistent: {forwarded} forwarded < {total_requests} unique requests"
        ));
    }
    if opts.fault_probability > 0.0 && report.faults_injected() == 0 {
        failures.push("the proxy injected no faults — the soak proved nothing".to_owned());
    }

    if let Some(path) = &opts.json {
        Json::new()
            .raw("seed", opts.seed)
            .raw("clients", opts.clients)
            .raw("requests_per_client", opts.requests)
            .raw("fault_probability", opts.fault_probability)
            .raw("blackout", opts.blackout)
            .raw("crash", opts.crash)
            .raw("expected_sum", expected_sum)
            .raw("acked_sum", load.acked_sum)
            .raw("final_value", final_value)
            .raw("client_reconnects", load.reconnects)
            .raw("client_reissues", load.reissues)
            .object(
                "proxy",
                Json::new()
                    .raw("connections", report.connections)
                    .raw("refused_blackout", report.refused_blackout)
                    .raw("delays", report.delays)
                    .raw("drops", report.drops)
                    .raw("truncations", report.truncations)
                    .raw("resets", report.resets)
                    .raw("duplicates", report.duplicates),
            )
            .object(
                "engine",
                Json::new()
                    .raw("requests_forwarded", forwarded)
                    .raw("reissues_served_from_cache", cache_hits)
                    .raw("duplicates_suppressed", snapshot.duplicates_suppressed)
                    .raw("responses_evicted", evictions),
            )
            .raw("elapsed_ms", elapsed.as_millis())
            .raw("passed", failures.is_empty())
            .write(path);
    }

    soak::verdict(
        &failures,
        &format!("seed={}", opts.seed),
        &format!(
            "clients={} requests={} final={final_value} faults={} reconnects={} reissues={} \
             elapsed={:.1}s",
            opts.clients,
            opts.requests,
            report.faults_injected(),
            load.reconnects,
            load.reissues,
            elapsed.as_secs_f64()
        ),
    );
}
