//! `ftd-group-soak` — process-level soak for the out-of-process
//! gateway group (§3.5's redundant gateways).
//!
//! Spawns **three real `ftd-gatewayd` processes** joined into one
//! gateway group (UDP membership, TCP request/reply relay, a
//! cross-member sequencer, one domain replica per process, all seeded
//! identically), drives enhanced clients through the group's
//! multi-profile IORs, and injects one of three faults:
//!
//! * **default (kill)** — `kill -9` one member mid-load. Asserts zero
//!   duplicate executions, zero lost acknowledged replies (a probe
//!   acked by the victim is reissued after the kill and answered
//!   byte-identically from a survivor's relayed-response cache),
//!   membership reaction, and client-state GC after the linger.
//! * **`--rejoin`** — `kill -9` one member mid-load, then restart it
//!   under the same node id with `--sync-state`: the rejoiner pulls a
//!   checkpoint plus the post-checkpoint sequenced ops from a peer
//!   (`group.state_transfers`), re-enters the view, and serves the
//!   second load phase. Asserts exactly-once sums at ALL three members
//!   and byte-identical `/digest` reports across the healed group.
//! * **`--partition`** — drop one member's membership UDP for a window
//!   (`GET /blackout?ms=N`; the TCP mesh stays up, so the minority
//!   member keeps *following* the sequenced stream). Survivors shrink
//!   the view; the minority member refuses to admit new work
//!   (`group.no_quorum_drops`) so a client pinned there fails instead
//!   of diverging. After the heal, all three views recover and the
//!   digests converge byte-identically.
//!
//! ```text
//! ftd-group-soak [--rejoin | --partition] [--seed N] [--clients N]
//!                [--requests N] [--gatewayd PATH] [--record DIR]
//!                [--json PATH] [--digests DIR]
//! ```
//!
//! The kill/rejoin victim is derived from the seed (`seed % 3`), so
//! different CI seeds kill different members; the partition target is
//! always gw-2 (node id 3). The fault lands 600 ms into the load, and
//! a partition lasts 4 s. `--gatewayd` overrides
//! where the daemon binary lives (default: next to this binary); a
//! missing or stale daemon fails the preflight immediately instead of
//! hanging the run. `--record DIR` passes `--record-dir DIR/gw-<n>` to
//! every member; replay the whole group offline with `ftd-replay
//! replay DIR`. `--digests DIR` writes each member's final `/digest`
//! report — the artifact CI uploads. Exit code 0 iff every assertion
//! held; `--json` writes the machine-readable report.

use ftd_bench::cli::{self, die, Args, CliError, Json};
use ftd_bench::soak::{self, Load, Probe, Target};
use ftd_giop::Ior;
use ftd_net::NetClient;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How far into the load the member is killed or partitioned.
const FAULT_AFTER: Duration = Duration::from_millis(600);
/// How long a partitioned member's membership UDP stays dark: long
/// enough for suspicion to fire on both sides and for the pinned probe.
const BLACKOUT: Duration = Duration::from_millis(4000);
/// The pause between a load client's requests, so the load straddles
/// the fault and the view change.
const PACING: Duration = Duration::from_millis(10);

const USAGE: &str = "ftd-group-soak [--rejoin | --partition] [--seed N] [--clients N] \
                     [--requests N] [--gatewayd PATH] [--record DIR] [--json PATH] \
                     [--digests DIR]";

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Kill,
    Rejoin,
    Partition,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Kill => "kill",
            Mode::Rejoin => "rejoin",
            Mode::Partition => "partition",
        }
    }
}

struct Opts {
    mode: Mode,
    seed: u64,
    clients: u32,
    requests: u32,
    gatewayd: Option<PathBuf>,
    record: Option<PathBuf>,
    json: Option<String>,
    digests: Option<PathBuf>,
}

fn parse_opts(args: &mut Args) -> Result<Opts, CliError> {
    let mut opts = Opts {
        mode: Mode::Kill,
        seed: 42,
        clients: 4,
        requests: 40,
        gatewayd: None,
        record: None,
        json: None,
        digests: None,
    };
    while let Some(arg) = args.next_arg()? {
        match arg.as_str() {
            "--rejoin" => opts.mode = Mode::Rejoin,
            "--partition" => opts.mode = Mode::Partition,
            "--seed" => opts.seed = args.number()?,
            "--clients" => opts.clients = args.number()?,
            "--requests" => opts.requests = args.number()?,
            "--gatewayd" => opts.gatewayd = Some(args.value()?.into()),
            "--record" => opts.record = Some(args.value()?.into()),
            "--json" => opts.json = Some(args.value()?),
            "--digests" => opts.digests = Some(args.value()?.into()),
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

/// Where the `ftd-gatewayd` binary lives: `--gatewayd`, or next to us.
fn gatewayd_path(explicit: &Option<PathBuf>) -> PathBuf {
    if let Some(path) = explicit {
        return path.clone();
    }
    let exe = std::env::current_exe().unwrap_or_else(|e| die(&format!("current_exe: {e}")));
    let candidate = exe
        .parent()
        .unwrap_or_else(|| Path::new("."))
        .join("ftd-gatewayd");
    if candidate.exists() {
        return candidate;
    }
    die(&format!(
        "{} not found — build it (cargo build --bin ftd-gatewayd) or pass --gatewayd PATH",
        candidate.display()
    ));
}

/// Fails fast — with a diagnosis, not a hang — when the daemon binary
/// is missing, not executable, or built from a different tree than
/// this soak (relay protocol mismatch would otherwise show up as
/// members silently never forming a group).
fn preflight(gatewayd: &Path) {
    let output = match Command::new(gatewayd).arg("--print-proto-version").output() {
        Ok(output) => output,
        Err(e) => die(&format!(
            "cannot run {} ({e}) — build it (cargo build --bin ftd-gatewayd) or pass --gatewayd PATH",
            gatewayd.display()
        )),
    };
    let got = String::from_utf8_lossy(&output.stdout).trim().to_owned();
    let want = format!("ftd-gatewayd proto {}", ftd_net::PROTO_VERSION);
    if got != want {
        die(&format!(
            "{} is stale: it reports {:?}, this soak needs {:?} — rebuild both binaries from the same tree",
            gatewayd.display(),
            got,
            want
        ));
    }
}

/// Reserves an ephemeral UDP port by bind-and-drop: the kernel hands
/// out a free port, we release it immediately and pass the number to a
/// child process. Loopback-only and short-lived, so collisions are
/// vanishingly rare.
fn free_udp_port() -> u16 {
    UdpSocket::bind("127.0.0.1:0")
        .and_then(|s| s.local_addr())
        .unwrap_or_else(|e| die(&format!("reserving udp port: {e}")))
        .port()
}

/// Same bind-and-drop reservation for a TCP listener port.
fn free_tcp_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .unwrap_or_else(|e| die(&format!("reserving tcp port: {e}")))
        .port()
}

/// The spawned members; kills and reaps every survivor on drop so a
/// failed run never leaks gateway processes.
struct Members {
    children: Vec<Option<Child>>,
}

impl Members {
    fn kill(&mut self, index: usize) {
        if let Some(mut child) = self.children[index].take() {
            let _ = child.kill(); // SIGKILL — no goodbye, no drain
            let _ = child.wait();
        }
    }
}

impl Drop for Members {
    fn drop(&mut self) {
        for i in 0..self.children.len() {
            self.kill(i);
        }
    }
}

/// The three-member group plus everything needed to restart a member
/// in place: pre-reserved membership and admin ports, IOR file paths.
struct Cluster {
    gatewayd: PathBuf,
    seed: u64,
    record: Option<PathBuf>,
    work_dir: PathBuf,
    udp_ports: Vec<u16>,
    metrics_ports: Vec<u16>,
    ior_files: Vec<PathBuf>,
    members: Members,
}

impl Cluster {
    fn start(opts: &Opts, gatewayd: PathBuf) -> Cluster {
        let work_dir = std::env::temp_dir().join(format!(
            "ftd-group-soak-{}-{}",
            std::process::id(),
            opts.seed
        ));
        let _ = std::fs::remove_dir_all(&work_dir);
        std::fs::create_dir_all(&work_dir).unwrap_or_else(|e| die(&format!("mkdir work dir: {e}")));
        if let Some(dir) = &opts.record {
            let _ = std::fs::remove_dir_all(dir);
        }
        // Pre-reserve the membership (UDP) and admin (TCP) ports so
        // every member can name its peers before any of them runs.
        let udp_ports: Vec<u16> = (0..3).map(|_| free_udp_port()).collect();
        let metrics_ports: Vec<u16> = (0..3).map(|_| free_tcp_port()).collect();
        let ior_files: Vec<PathBuf> = (0..3)
            .map(|n| work_dir.join(format!("gw-{n}.ior")))
            .collect();
        let mut cluster = Cluster {
            gatewayd,
            seed: opts.seed,
            record: opts.record.clone(),
            work_dir,
            udp_ports,
            metrics_ports,
            ior_files,
            members: Members {
                children: vec![None, None, None],
            },
        };
        for n in 0..3 {
            cluster.spawn(n, false, "");
        }
        cluster
    }

    fn spawn(&mut self, n: usize, sync_state: bool, record_suffix: &str) {
        let peers: Vec<String> = (0..3)
            .filter(|&p| p != n)
            .map(|p| format!("127.0.0.1:{}", self.udp_ports[p]))
            .collect();
        let mut cmd = Command::new(&self.gatewayd);
        cmd.arg("--port")
            .arg("0")
            .arg("--seed")
            .arg(self.seed.to_string())
            .arg("--shards")
            .arg("2")
            .arg("--group-node")
            .arg((n + 1).to_string())
            .arg("--group-listen")
            .arg(format!("127.0.0.1:{}", self.udp_ports[n]))
            .arg("--group-peers")
            .arg(peers.join(","))
            .arg("--group-size")
            .arg("3")
            .arg("--linger-ms")
            .arg("300")
            .arg("--ior-file")
            .arg(&self.ior_files[n])
            .arg("--metrics-addr")
            .arg(format!("127.0.0.1:{}", self.metrics_ports[n]))
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        if sync_state {
            cmd.arg("--sync-state");
        }
        if let Some(dir) = &self.record {
            cmd.arg("--record-dir")
                .arg(dir.join(format!("gw-{n}{record_suffix}")));
        }
        let child = cmd
            .spawn()
            .unwrap_or_else(|e| die(&format!("spawning {}: {e}", self.gatewayd.display())));
        self.members.children[n] = Some(child);
    }

    /// Restarts a (dead) member under its original node id with
    /// `--sync-state`: it re-enters the view and pulls a state transfer
    /// from a peer before publishing its IOR.
    fn restart_with_sync(&mut self, n: usize) {
        let _ = std::fs::remove_file(&self.ior_files[n]);
        self.spawn(n, true, "-rejoin");
    }

    /// Every member publishes its IOR only once the view is full (and,
    /// for a rejoiner, once its state transfer installed) — so three
    /// parsed IOR files mean the group formed.
    fn wait_iors(&self) -> Vec<Ior> {
        self.ior_files.iter().map(|p| wait_for_ior(p)).collect()
    }

    fn metrics_addrs(&self) -> Vec<SocketAddr> {
        self.metrics_ports
            .iter()
            .map(|p| format!("127.0.0.1:{p}").parse().expect("metrics addr"))
            .collect()
    }
}

/// Polls `path` until the daemon's atomic IOR write lands, then parses.
fn wait_for_ior(path: &Path) -> Ior {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Some(line) = text.lines().map(str::trim).find(|l| !l.is_empty()) {
                match Ior::from_stringified(line) {
                    Ok(ior) => return ior,
                    Err(e) => die(&format!("{}: bad IOR: {e:?}", path.display())),
                }
            }
        }
        if Instant::now() > deadline {
            die(&format!(
                "{} never appeared — a member failed to join the group",
                path.display()
            ));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// One `GET {path}` exchange against a member's admin listener.
fn scrape_path(addr: SocketAddr, path: &str) -> Option<String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let body = response.split_once("\r\n\r\n")?.1;
    Some(body.to_owned())
}

/// One `GET /metrics.json` scrape against a member's admin listener.
fn scrape(addr: SocketAddr) -> Option<String> {
    scrape_path(addr, "/metrics.json")
}

/// Extracts `"name":value` from the flat metrics JSON (0 if absent).
fn metric(body: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\":");
    let Some(at) = body.find(&needle) else {
        return 0;
    };
    body[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or(0)
}

/// Scrapes `name` from a member, retrying until `want` holds or the
/// deadline passes; returns the last value seen either way.
fn scrape_until(addr: SocketAddr, name: &str, want: impl Fn(u64) -> bool) -> u64 {
    scrape_sum_until(&[addr], name, want)
}

/// [`scrape_until`] over the sum of `name` across `addrs`, under one
/// deadline.
fn scrape_sum_until(addrs: &[SocketAddr], name: &str, want: impl Fn(u64) -> bool) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let value = addrs
            .iter()
            .map(|&addr| scrape(addr).map(|body| metric(&body, name)).unwrap_or(0))
            .sum();
        if want(value) || Instant::now() > deadline {
            return value;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Polls every listed member's `GET /digest` report until all are
/// non-empty and byte-identical (converged group members produce
/// exactly that) or the deadline passes. Returns the final reports and
/// whether they matched.
fn converged_digests(entries: &[(usize, SocketAddr)]) -> (Vec<(usize, String)>, bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let reports: Vec<(usize, String)> = entries
            .iter()
            .map(|&(n, addr)| (n, scrape_path(addr, "/digest").unwrap_or_default()))
            .collect();
        let equal = !reports.is_empty()
            && !reports[0].1.is_empty()
            && reports.iter().all(|(_, r)| *r == reports[0].1);
        if equal || Instant::now() > deadline {
            return (reports, equal);
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Writes each member's digest report under `dir` — the per-member
/// artifact the CI `group` job uploads.
fn write_digest_reports(dir: &Path, seed: u64, mode: &str, reports: &[(usize, String)]) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("mkdir {}: {e}", dir.display())));
    for (n, report) in reports {
        let path = dir.join(format!("gw-{n}-seed{seed}-{mode}.digest.txt"));
        std::fs::write(&path, report)
            .unwrap_or_else(|e| die(&format!("write {}: {e}", path.display())));
    }
}

/// Starts a load phase: `opts.clients` clients with schedule indices
/// from `base`, client `n` of the phase entering the group through
/// member `entries[n % entries.len()]`'s IOR (that member's own profile
/// is first).
fn spawn_load(opts: &Opts, iors: &[Ior], entries: &[usize], base: u32) -> Load {
    soak::spawn_load(opts.clients, opts.requests, base, PACING, |i| {
        Target::Ior(iors[entries[(i - base) as usize % entries.len()]].clone())
    })
}

/// Waits for a load phase, dying if a client could not finish.
fn join_load(load: Load) -> soak::Outcome {
    soak::join_load(load).unwrap_or_else(|e| die(&e))
}

/// The verdict read at every listed member, through its own IOR: each
/// replica must converge on exactly `expected`. Members converge at
/// different times, so each is re-read until it equals `expected` or the
/// deadline passes, and the last value read is its verdict.
fn read_finals(iors: &[Ior], members: &[usize], expected: u64) -> Vec<(usize, u64)> {
    members
        .iter()
        .map(|&n| {
            let target = Target::Ior(iors[n].clone());
            let deadline = Instant::now() + soak::VERIFY_DEADLINE;
            loop {
                let value = soak::read_final(&target, 0xFFF0 + n as u32)
                    .unwrap_or_else(|e| die(&format!("gw-{n} {e}")));
                if value == expected || Instant::now() > deadline {
                    break (n, value);
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        })
        .collect()
}

/// The exactly-once check at each member.
fn check_finals(finals: &[(usize, u64)], expected: u64, failures: &mut Vec<String>) {
    for &(n, value) in finals {
        failures.extend(soak::check_final(&format!(" at gw-{n}"), value, expected));
    }
}

fn finals_json(finals: &[(usize, u64)]) -> Json {
    finals
        .iter()
        .fold(Json::new(), |json, &(n, v)| json.raw(&format!("gw-{n}"), v))
}

/// The report fields every mode starts with.
fn report_head(opts: &Opts) -> Json {
    Json::new()
        .str("mode", opts.mode.name())
        .raw("seed", opts.seed)
        .raw("clients", opts.clients)
        .raw("requests_per_client", opts.requests)
}

fn verdict(opts: &Opts, failures: &[String], detail: String, elapsed: Duration) {
    soak::verdict(
        failures,
        &format!("group mode={} seed={}", opts.mode.name(), opts.seed),
        &format!(
            "clients={} requests={} {detail} elapsed={:.1}s",
            opts.clients,
            opts.requests,
            elapsed.as_secs_f64()
        ),
    );
}

fn main() {
    let opts = cli::parse(USAGE, parse_opts);
    let gatewayd = gatewayd_path(&opts.gatewayd);
    preflight(&gatewayd);
    match opts.mode {
        Mode::Kill => run_kill(&opts, gatewayd),
        Mode::Rejoin => run_rejoin(&opts, gatewayd),
        Mode::Partition => run_partition(&opts, gatewayd),
    }
}

/// The original soak: SIGKILL one member mid-load, assert the §3.5
/// failover story from the survivors.
fn run_kill(opts: &Opts, gatewayd: PathBuf) {
    let started = Instant::now();
    let victim = (opts.seed % 3) as usize; // 0-based member index
    let mut cluster = Cluster::start(opts, gatewayd);
    eprintln!(
        "ftd-group-soak: mode=kill seed={} clients={} requests={} victim=gw-{victim} \
         (kill -9 after {}ms)",
        opts.seed,
        opts.clients,
        opts.requests,
        FAULT_AFTER.as_millis()
    );

    let iors = cluster.wait_iors();
    let metrics_addrs = cluster.metrics_addrs();
    let survivors: Vec<usize> = (0..3).filter(|&n| n != victim).collect();
    eprintln!("ftd-group-soak: group formed");

    // The probe: acknowledged BY THE VICTIM, before any load. Its reply
    // bytes must come back identically from a survivor's
    // relayed-response cache after the kill.
    let probe = Probe::ack(Target::Ior(iors[victim].clone())).unwrap_or_else(|e| die(&e));

    // Don't pull the trigger until the relay demonstrably primed both
    // survivors' caches with the victim's reply.
    for &s in &survivors {
        let cached = scrape_until(
            metrics_addrs[s],
            "gateway.replies_cached_for_peer_clients",
            |v| v >= 1,
        );
        if cached == 0 {
            die(&format!(
                "gw-{s} never cached the victim's relayed reply — the relay channel is down"
            ));
        }
    }
    eprintln!("ftd-group-soak: probe acked by gw-{victim} and relayed to both survivors");

    // Load: each client enters through a different member's IOR, so the
    // victim owns a share of the connections when it dies.
    let load = spawn_load(opts, &iors, &[0, 1, 2], 0);

    std::thread::sleep(FAULT_AFTER);
    cluster.members.kill(victim);
    eprintln!("ftd-group-soak: killed gw-{victim} (SIGKILL, mid-load)");

    let load = join_load(load);

    // Survivors drop the victim on missed heartbeats: group.members
    // settles at 2 on every survivor.
    let mut view_members = Vec::new();
    for &s in &survivors {
        view_members.push(scrape_until(metrics_addrs[s], "group.members", |v| v == 2));
    }

    // The §3.5 probe reissue: the victim is gone, so the reconnect walks
    // the multi-profile IOR to a survivor; the resend carries the
    // ORIGINAL request id and must be answered from the relayed cache.
    let probe_failure = probe.reissue("the victim").unwrap_or_else(|e| die(&e));
    let probe_identical = probe_failure.is_none();

    let expected_load = soak::schedule_sum(opts.clients, opts.requests);
    let expected_sum = expected_load + soak::PROBE_ADD;

    // The verdict read, per survivor.
    let finals = read_finals(&iors, &survivors, expected_sum);

    // Post-run counters from the survivors' admin endpoints. Only the
    // survivor the probe's reissue reached serves it from its cache, so
    // wait for the sum, not for each survivor.
    let survivor_addrs: Vec<SocketAddr> = survivors.iter().map(|&s| metrics_addrs[s]).collect();
    let cache_hits = scrape_sum_until(&survivor_addrs, "gateway.reissues_served_from_cache", |v| {
        v >= 1
    });
    let clients_gced: u64 = survivors
        .iter()
        .map(|&s| scrape_until(metrics_addrs[s], "gateway.clients_gced", |v| v >= 1))
        .sum();

    // Both survivors executed the same sequenced stream, so their
    // digest reports must be byte-identical.
    let digest_entries: Vec<(usize, SocketAddr)> =
        survivors.iter().map(|&s| (s, metrics_addrs[s])).collect();
    let (reports, digest_equal) = converged_digests(&digest_entries);
    if let Some(dir) = &opts.digests {
        write_digest_reports(dir, opts.seed, "kill", &reports);
    }
    let elapsed = started.elapsed();

    eprintln!(
        "ftd-group-soak: acked_sum={} finals={finals:?} cache_hits={cache_hits} \
         clients_gced={clients_gced} reconnects={} reissues={} \
         profile_switches={} digest_equal={digest_equal}",
        load.acked_sum, load.reconnects, load.reissues, load.profile_switches
    );

    let mut failures: Vec<String> = probe_failure.into_iter().collect();
    failures.extend(soak::check_acked(load.acked_sum, expected_load));
    check_finals(&finals, expected_sum, &mut failures);
    for (&s, &view) in survivors.iter().zip(&view_members) {
        if view != 2 {
            failures.push(format!(
                "gw-{s} never dropped the victim: group.members stuck at {view}"
            ));
        }
    }
    if cache_hits == 0 {
        failures.push(
            "no reissue was served from a relayed-response cache (the probe's should have been)"
                .to_owned(),
        );
    }
    if clients_gced == 0 {
        failures.push("no peer GC'd a departed client's relayed state after the linger".to_owned());
    }
    if !digest_equal {
        failures.push("the survivors' digest reports never converged byte-identically".to_owned());
    }

    if let Some(path) = &opts.json {
        report_head(opts)
            .str("victim", &format!("gw-{victim}"))
            .raw("expected_sum", expected_sum)
            .raw("acked_sum", load.acked_sum)
            .object("final_values", finals_json(&finals))
            .raw("probe_byte_identical", probe_identical)
            .raw("client_reconnects", load.reconnects)
            .raw("client_reissues", load.reissues)
            .raw("client_profile_switches", load.profile_switches)
            .object(
                "survivors",
                Json::new()
                    .raw("reissues_served_from_cache", cache_hits)
                    .raw("clients_gced", clients_gced),
            )
            .raw("digest_equal", digest_equal)
            .raw("elapsed_ms", elapsed.as_millis())
            .raw("passed", failures.is_empty())
            .write(path);
    }

    drop(cluster.members); // SIGKILL + reap the survivors before the verdict
    let _ = std::fs::remove_dir_all(&cluster.work_dir);
    let detail = format!(
        "victim=gw-{victim} finals={finals:?} cache_hits={cache_hits} switches={}",
        load.profile_switches
    );
    verdict(opts, &failures, detail, elapsed);
}

/// Kill → restart → rejoin-by-state-transfer: the victim comes back
/// under its original node id, pulls a checkpoint plus post-checkpoint
/// sequenced ops from a peer, and must serve the second load phase and
/// converge byte-identically with the members that never died.
fn run_rejoin(opts: &Opts, gatewayd: PathBuf) {
    let started = Instant::now();
    let victim = (opts.seed % 3) as usize;
    let mut cluster = Cluster::start(opts, gatewayd);
    eprintln!(
        "ftd-group-soak: mode=rejoin seed={} clients={} requests={} victim=gw-{victim} \
         (kill -9 after {}ms, then restart with --sync-state)",
        opts.seed,
        opts.clients,
        opts.requests,
        FAULT_AFTER.as_millis()
    );

    let mut iors = cluster.wait_iors();
    let metrics_addrs = cluster.metrics_addrs();
    let survivors: Vec<usize> = (0..3).filter(|&n| n != victim).collect();
    eprintln!("ftd-group-soak: group formed");

    let mut failures = Vec::new();

    // Phase 1: load through every member, SIGKILL the victim mid-load.
    let load = spawn_load(opts, &iors, &[0, 1, 2], 0);
    std::thread::sleep(FAULT_AFTER);
    cluster.members.kill(victim);
    eprintln!("ftd-group-soak: killed gw-{victim} (SIGKILL, mid-load)");
    let acked_1 = join_load(load).acked_sum;

    for &s in &survivors {
        let view = scrape_until(metrics_addrs[s], "group.members", |v| v == 2);
        if view != 2 {
            failures.push(format!(
                "gw-{s} never dropped the victim: group.members stuck at {view}"
            ));
        }
    }

    // Restart under the same node id with --sync-state: the IOR file
    // reappears only after the view refilled AND the transfer
    // installed, so waiting on it is waiting on the whole rejoin.
    cluster.restart_with_sync(victim);
    eprintln!("ftd-group-soak: restarted gw-{victim} with --sync-state");
    iors[victim] = wait_for_ior(&cluster.ior_files[victim]);
    for (n, &addr) in metrics_addrs.iter().enumerate() {
        let view = scrape_until(addr, "group.members", |v| v == 3);
        if view != 3 {
            failures.push(format!(
                "gw-{n} never saw the rejoiner: group.members stuck at {view}"
            ));
        }
    }
    let transfers = scrape_until(metrics_addrs[victim], "group.state_transfers", |v| v >= 1);
    if transfers == 0 {
        failures.push("the rejoined member never installed a state transfer".to_owned());
    }
    eprintln!("ftd-group-soak: gw-{victim} rejoined (state transfers: {transfers})");

    // Phase 2: more load, now entering through the rejoiner too.
    let acked_2 = join_load(spawn_load(opts, &iors, &[0, 1, 2], opts.clients)).acked_sum;

    let expected_sum = soak::schedule_sum(2 * opts.clients, opts.requests);
    let acked_sum = acked_1 + acked_2;
    failures.extend(soak::check_acked(acked_sum, expected_sum));

    // Exactly-once at ALL THREE members — the rejoiner's counter comes
    // from the transferred checkpoint plus replayed sequenced ops.
    let finals = read_finals(&iors, &[0, 1, 2], expected_sum);
    check_finals(&finals, expected_sum, &mut failures);

    // The rejoin acceptance bar: byte-identical digest reports across
    // all three members, including the one that died and came back.
    let digest_entries: Vec<(usize, SocketAddr)> = (0..3).map(|n| (n, metrics_addrs[n])).collect();
    let (reports, digest_equal) = converged_digests(&digest_entries);
    if !digest_equal {
        failures.push("per-member digest reports never converged after the rejoin".to_owned());
    }
    if let Some(dir) = &opts.digests {
        write_digest_reports(dir, opts.seed, "rejoin", &reports);
    }
    let elapsed = started.elapsed();

    eprintln!(
        "ftd-group-soak: acked_sum={acked_sum} finals={finals:?} state_transfers={transfers} \
         digest_equal={digest_equal}"
    );

    if let Some(path) = &opts.json {
        report_head(opts)
            .str("victim", &format!("gw-{victim}"))
            .raw("expected_sum", expected_sum)
            .raw("acked_sum", acked_sum)
            .object("final_values", finals_json(&finals))
            .raw("state_transfers", transfers)
            .raw("digest_equal", digest_equal)
            .raw("elapsed_ms", elapsed.as_millis())
            .raw("passed", failures.is_empty())
            .write(path);
    }

    drop(cluster.members);
    let _ = std::fs::remove_dir_all(&cluster.work_dir);
    let detail = format!(
        "victim=gw-{victim} finals={finals:?} state_transfers={transfers} \
         digest_equal={digest_equal}"
    );
    verdict(opts, &failures, detail, elapsed);
}

/// UDP partition: black out gw-2's membership socket. The majority
/// keeps serving; the minority member refuses to admit new work (no
/// quorum) instead of diverging, while still *following* the sequenced
/// stream over the TCP mesh. After the window the views heal and all
/// three members converge byte-identically.
fn run_partition(opts: &Opts, gatewayd: PathBuf) {
    let started = Instant::now();
    let target = 2usize; // node id 3 — never the sequencer, by design
    let cluster = Cluster::start(opts, gatewayd);
    eprintln!(
        "ftd-group-soak: mode=partition seed={} clients={} requests={} target=gw-{target} \
         (blackout {}ms after {}ms)",
        opts.seed,
        opts.clients,
        opts.requests,
        BLACKOUT.as_millis(),
        FAULT_AFTER.as_millis()
    );

    let iors = cluster.wait_iors();
    let metrics_addrs = cluster.metrics_addrs();
    eprintln!("ftd-group-soak: group formed");

    let mut failures = Vec::new();
    let blackout = format!("/blackout?ms={}", BLACKOUT.as_millis());

    // Load enters only through the two majority members; the minority
    // member must not acknowledge anything while partitioned.
    let load = spawn_load(opts, &iors, &[0, 1], 0);
    std::thread::sleep(FAULT_AFTER);

    if scrape_path(metrics_addrs[target], &blackout).is_none() {
        die(&format!("gw-{target} blackout request failed"));
    }
    eprintln!("ftd-group-soak: blacked out gw-{target}'s membership UDP");

    // Suspicion fires on both sides of the partition.
    for s in [0usize, 1] {
        let view = scrape_until(metrics_addrs[s], "group.members", |v| v == 2);
        if view != 2 {
            failures.push(format!(
                "gw-{s} never suspected the partitioned member: group.members stuck at {view}"
            ));
        }
    }
    let lone = scrape_until(metrics_addrs[target], "group.members", |v| v == 1);
    if lone != 1 {
        failures.push(format!(
            "gw-{target} never noticed the partition: group.members stuck at {lone}"
        ));
    }

    // Refresh the window so the pinned probe below runs entirely inside
    // it, then prove the minority member REFUSES work: the TCP connect
    // succeeds (the gateway port is up), but the quorum gate drops the
    // admitted add, so the client times out instead of diverging the
    // minority replica. Its amount is excluded from the expected sum —
    // if the add ever executed anywhere, the finals check catches it.
    let _ = scrape_path(metrics_addrs[target], &blackout);
    let mut pinned = NetClient::builder()
        .ior(&iors[target])
        .client_id(0xB001)
        .connect()
        .unwrap_or_else(|e| die(&format!("pinned client connect: {e}")));
    pinned
        .set_read_timeout(Duration::from_millis(1500))
        .expect("pinned timeout");
    if pinned.invoke("add", &999u64.to_be_bytes()).is_ok() {
        failures.push("the minority member acknowledged an add during the partition".to_owned());
    }
    let drops = scrape_until(metrics_addrs[target], "group.no_quorum_drops", |v| v >= 1);
    if drops == 0 {
        failures.push("group.no_quorum_drops never incremented at the minority member".to_owned());
    }
    let still_lone = scrape(metrics_addrs[target])
        .map(|b| metric(&b, "group.members"))
        .unwrap_or(0);
    if still_lone != 1 {
        failures.push(format!(
            "the partition healed before the no-quorum drop was proven (view {still_lone})"
        ));
    }
    pinned.disconnect();
    eprintln!("ftd-group-soak: pinned client refused at gw-{target} (drops: {drops})");

    let acked_1 = join_load(load).acked_sum;

    // The blackout expires on its own; the member re-announces to its
    // peers and every view returns to 3.
    for (n, &addr) in metrics_addrs.iter().enumerate() {
        let view = scrape_until(addr, "group.members", |v| v == 3);
        if view != 3 {
            failures.push(format!(
                "gw-{n} never healed: group.members stuck at {view}"
            ));
        }
    }
    eprintln!("ftd-group-soak: partition healed, views back to 3");

    // Post-heal load through every member — the healed member admits
    // work again.
    let acked_2 = join_load(spawn_load(opts, &iors, &[0, 1, 2], opts.clients)).acked_sum;

    let expected_sum = soak::schedule_sum(2 * opts.clients, opts.requests);
    let acked_sum = acked_1 + acked_2;
    failures.extend(soak::check_acked(acked_sum, expected_sum));

    // Exactly-once at ALL THREE members: the pinned add must appear
    // nowhere, the partitioned member must have followed the sequenced
    // stream it could not admit into.
    let finals = read_finals(&iors, &[0, 1, 2], expected_sum);
    check_finals(&finals, expected_sum, &mut failures);

    let digest_entries: Vec<(usize, SocketAddr)> = (0..3).map(|n| (n, metrics_addrs[n])).collect();
    let (reports, digest_equal) = converged_digests(&digest_entries);
    if !digest_equal {
        failures.push("per-member digest reports never converged after the heal".to_owned());
    }
    if let Some(dir) = &opts.digests {
        write_digest_reports(dir, opts.seed, "partition", &reports);
    }
    let elapsed = started.elapsed();

    eprintln!(
        "ftd-group-soak: acked_sum={acked_sum} finals={finals:?} no_quorum_drops={drops} \
         digest_equal={digest_equal}"
    );

    if let Some(path) = &opts.json {
        report_head(opts)
            .str("target", &format!("gw-{target}"))
            .raw("expected_sum", expected_sum)
            .raw("acked_sum", acked_sum)
            .object("final_values", finals_json(&finals))
            .raw("no_quorum_drops", drops)
            .raw("digest_equal", digest_equal)
            .raw("elapsed_ms", elapsed.as_millis())
            .raw("passed", failures.is_empty())
            .write(path);
    }

    drop(cluster.members);
    let _ = std::fs::remove_dir_all(&cluster.work_dir);
    let detail = format!(
        "target=gw-{target} finals={finals:?} no_quorum_drops={drops} \
         digest_equal={digest_equal}"
    );
    verdict(opts, &failures, detail, elapsed);
}
