//! One run of one workload: set the server up (several times, for
//! `setup_s`), warm it up, measure, run the correctness oracle, and —
//! in a traced run — scrape the gateway's metrics and drive the inline
//! pipeline.

use crate::inline;
use crate::loadgen::{self, sleep_until, ConnReport, ConnRun, Plan, Schedule, WireConn};
use crate::procfs::{self, CpuSample};
use crate::report::{Metric, Outcome};
use crate::scrape::{self, Metrics};
use crate::server::{Backend, SHARDS};
use crate::stats::{median, percentile, WindowSummary};
use crate::workload::{derive, Load, Op, OpStream, Workload};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;
/// Load offered before the measured period: the response cache fills to
/// its 4096 entries per shard and lazy set-up finishes.
const WARMUP: Duration = Duration::from_secs(2);
/// Windows per second of `--seconds`: half-second windows in a timed
/// run. Short windows are what makes the median robust — one scheduler
/// stall spoils one window of many — and half a second still leaves ten
/// samples beyond p99 at `paced_small`'s 2,000 requests/s.
const WINDOWS_PER_SECOND: usize = 2;
/// Spans written to `<workload>.trace.jsonl` (≈ 30 MB).
const TRACE_FILE_SPANS: usize = 300_000;
/// How long a child may take to announce itself, and to exit.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);
/// An open-loop run whose achieved rate is further than this from the
/// offered rate has a growing backlog: a failure, not a latency.
const RATE_TOLERANCE: f64 = 0.02;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec<'a> {
    /// The workload.
    pub workload: &'a Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured period of a timed run. A traced run
    /// measures the served gateway for half of it and spends the rest
    /// on the inline pipeline.
    pub seconds: u64,
    /// Timed (`false`) or traced (`true`) run.
    pub trace: bool,
    /// Where `<workload>.trace.jsonl` goes.
    pub out_dir: &'a Path,
}

/// The gateway child process.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    gateway: SocketAddr,
    metrics: SocketAddr,
}

impl Server {
    /// Spawns `<this executable> serve ...` and waits for its `READY`
    /// line.
    fn spawn(backend: Backend, seed: u64) -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args([
                "serve",
                "--backend",
                backend.name(),
                "--seed",
                &seed.to_string(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn gateway child: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("piped stdout");
        // Read the announcement on a helper thread so a child that
        // never announces cannot hang the benchmark.
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            let _ = BufReader::new(stdout).read_line(&mut line);
            let _ = tx.send(line);
        });
        let line = rx.recv_timeout(CHILD_TIMEOUT);
        let mut server = Server {
            child,
            stdin,
            gateway: SocketAddr::from(([127, 0, 0, 1], 0)),
            metrics: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let Ok(line) = line else {
            server.kill();
            let _ = reader.join();
            return Err("gateway child did not announce itself in time".into());
        };
        let _ = reader.join();
        let mut words = line.split_whitespace();
        match (
            words.next(),
            words.next().and_then(|a| a.parse().ok()),
            words.next().and_then(|a| a.parse().ok()),
        ) {
            (Some("READY"), Some(gateway), Some(metrics)) => {
                server.gateway = gateway;
                server.metrics = metrics;
                Ok(server)
            }
            _ => {
                server.kill();
                Err(format!("gateway child announced {line:?}"))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Closes the child's standard input — its cue to shut down — and
    /// waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + CHILD_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("gateway child exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => {
                    self.kill();
                    return Err("gateway child did not exit; killed".into());
                }
                Err(e) => return Err(format!("wait for gateway child: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached with a live child on an error path.
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}

/// A request that changes nothing and the reply it must get: a `get` of
/// the group's state, or — behind the echo backend — eight bytes to
/// echo.
fn probe(ops: &OpStream) -> Op {
    ops.final_read().unwrap_or_else(|| {
        let bytes: Arc<[u8]> = Arc::from(0x5E7_0B5E_u64.to_be_bytes());
        Op {
            operation: "add",
            args: bytes.clone(),
            expected: bytes,
        }
    })
}

/// Sends `op` and checks its reply; `Ok(false)` for a wrong reply.
fn check(conn: &mut WireConn, op: &Op) -> std::io::Result<bool> {
    let id = conn.fresh_id();
    let request = conn.encode_request(id, op.operation, &op.args);
    let (reply, _) = conn.call(&request, id)?;
    Ok(reply.ok && reply.body[..] == op.expected[..])
}

/// A served gateway and one idle, verified connection per shard.
struct SetUp {
    server: Server,
    conns: Vec<(WireConn, OpStream)>,
    /// Child spawn to the last verified reply.
    took: Duration,
}

/// One set-up: child spawned, ring formed, groups created, and one
/// verified reply on each connection.
fn set_up(spec: &RunSpec) -> Result<SetUp, String> {
    let started = Instant::now();
    let server = Server::spawn(spec.workload.backend, derive(spec.seed, 1))?;
    let mut conns = Vec::new();
    for c in 0..SHARDS {
        let client_id = derive(spec.seed, 2 + c as u64) as u32;
        let mut conn = WireConn::connect(server.gateway, spec.workload.group(c), client_id)
            .map_err(|e| format!("connect to gateway: {e}"))?;
        let ops = OpStream::new(spec.workload, spec.seed, c);
        match check(&mut conn, &probe(&ops)) {
            Ok(true) => {}
            Ok(false) => return Err(format!("set-up: connection {c}: wrong first reply")),
            Err(e) => return Err(format!("set-up: connection {c}: {e}")),
        }
        conns.push((conn, ops));
    }
    Ok(SetUp {
        server,
        conns,
        took: started.elapsed(),
    })
}

/// Per-window end-to-end numbers of the measured period.
struct Windows {
    throughput_rps: Vec<f64>,
    mean_us: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    completed: Vec<u64>,
}

impl Windows {
    fn of(reports: &[&ConnReport], plan: &Plan) -> Windows {
        let secs = plan.window_len().as_secs_f64();
        let mut w = Windows {
            throughput_rps: Vec::new(),
            mean_us: Vec::new(),
            p50_us: Vec::new(),
            p99_us: Vec::new(),
            completed: Vec::new(),
        };
        for i in 0..plan.windows {
            let mut latencies: Vec<u64> = reports
                .iter()
                .flat_map(|r| r.windows[i].iter().copied())
                .collect();
            latencies.sort_unstable();
            w.completed.push(latencies.len() as u64);
            let sum: u64 = latencies.iter().sum();
            // A window without a reply has no latency; NaN fails the
            // lint rather than passing as fast.
            w.mean_us.push(if latencies.is_empty() {
                f64::NAN
            } else {
                sum as f64 / latencies.len() as f64 / 1000.0
            });
            w.throughput_rps.push(latencies.len() as f64 / secs);
            let us = |q| percentile(&latencies, q).map_or(f64::NAN, |ns| ns as f64 / 1000.0);
            w.p50_us.push(us(0.50));
            w.p99_us.push(us(0.99));
        }
        w
    }

    fn summary(values: &[f64]) -> WindowSummary {
        WindowSummary::of(values).unwrap_or(WindowSummary {
            median: f64::NAN,
            min: f64::NAN,
            max: f64::NAN,
            q1: f64::NAN,
            q3: f64::NAN,
        })
    }
}

/// The correctness oracle, run on the idle connections after every
/// measured period. Returns `(checks made, checks failed)`.
///
/// * exactly once: the group's state is what the model says after all
///   acknowledged requests;
/// * §3.5 reissue: each connection resends its last exchanges under
///   their original ids and must get byte-identical replies, served
///   from the gateway's response cache (`gateway.reissues_served_from_cache`
///   rises by exactly the number resent) with the state unchanged.
fn oracle(server: &Server, runs: &mut [ConnRun], log: &mut Vec<String>) -> (u64, u64) {
    let mut checks = 0u64;
    let mut failed = 0u64;
    let mut fail = |what: String| {
        failed += 1;
        log.push(what);
    };
    const REISSUES: &str = "gateway.reissues_served_from_cache";
    let before = scrape::scrape(server.metrics).map(|m| m.counter(REISSUES));
    let mut resent = 0u64;
    for (c, run) in runs.iter_mut().enumerate() {
        let read = run.ops.final_read();
        if let Some(read) = &read {
            checks += 1;
            match check(&mut run.conn, read) {
                Ok(true) => {}
                Ok(false) => fail(format!("connection {c}: state differs from the model")),
                Err(e) => fail(format!("connection {c}: final read: {e}")),
            }
        }
        for exchange in &run.report.recent {
            checks += 1;
            resent += 1;
            match run.conn.call(&exchange.request, exchange.request_id) {
                Ok((_, wire)) if wire == exchange.reply => {}
                Ok(_) => fail(format!(
                    "connection {c}: reissue of request {} got other bytes",
                    exchange.request_id
                )),
                Err(e) => fail(format!("connection {c}: reissue: {e}")),
            }
        }
        if let Some(read) = &read {
            checks += 1;
            match check(&mut run.conn, read) {
                Ok(true) => {}
                Ok(false) => fail(format!("connection {c}: a reissue changed the state")),
                Err(e) => fail(format!("connection {c}: read after reissues: {e}")),
            }
        }
    }
    checks += 1;
    match (
        before,
        scrape::scrape(server.metrics).map(|m| m.counter(REISSUES)),
    ) {
        (Ok(b), Ok(a)) if a - b == resent => {}
        (Ok(b), Ok(a)) => fail(format!(
            "{resent} reissues but {REISSUES} rose by {}",
            a - b
        )),
        (Err(e), _) | (_, Err(e)) => fail(e),
    }
    (checks, failed)
}

/// Runs `spec` and returns every metric of its section. `Err` is for a
/// benchmark that could not run at all; failed operations are counted
/// in the outcome.
pub fn run(spec: &RunSpec) -> Result<Outcome, String> {
    let workload = spec.workload;
    let mut log: Vec<String> = Vec::new();

    // Set up several times; measure against the last one.
    let mut setups = Vec::new();
    let (server, conns) = loop {
        let set_up = set_up(spec)?;
        setups.push(set_up.took.as_secs_f64());
        if setups.len() == SETUPS {
            break (set_up.server, set_up.conns);
        }
        drop(set_up.conns);
        set_up.server.stop()?;
    };

    let period = Duration::from_secs(spec.seconds) / if spec.trace { 2 } else { 1 };
    let window_count = spec.seconds as usize * WINDOWS_PER_SECOND;
    let start = Instant::now() + Duration::from_millis(20);
    let plan = Plan {
        start,
        measure_start: start + WARMUP,
        measure_end: start + WARMUP + period,
        windows: window_count,
    };
    let traced_from = plan.measure_start + period / 2;
    let phase_rng = derive(spec.seed, 20);

    struct Edges {
        server: [CpuSample; 2],
        own: [CpuSample; 2],
        scrapes: Option<[Metrics; 2]>,
    }
    let pid = server.pid().to_string();
    let (mut runs, edges) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, (conn, ops))| {
                std::thread::Builder::new()
                    .name(format!("bench-gen-{c}"))
                    .spawn_scoped(scope, move || match workload.load {
                        Load::Closed { depth } => loadgen::run_closed(conn, ops, depth, plan),
                        Load::Open { rate } => {
                            // Connections share the rate evenly, offset
                            // so the aggregate arrival process is even;
                            // the seed places the whole comb.
                            let interval = Duration::from_secs_f64(SHARDS as f64 / rate);
                            let offset =
                                (c as f64 + (phase_rng % 1024) as f64 / 1024.0) / SHARDS as f64;
                            let schedule = Schedule {
                                first: plan.start + interval.mul_f64(offset),
                                interval,
                            };
                            loadgen::run_open(conn, ops, schedule, plan)
                        }
                    })
                    .expect("spawn generator thread")
            })
            .collect();

        // This thread reads /proc (and, traced, scrapes) at the edges of
        // the measured period and does nothing in between.
        let edges = (|| -> Result<Edges, String> {
            let cpu = |who: &str| CpuSample::read(who).map_err(|e| format!("/proc/{who}: {e}"));
            sleep_until(plan.measure_start);
            let first = (cpu(&pid)?, cpu("self")?);
            let mut scrapes = None;
            if spec.trace {
                sleep_until(traced_from);
                scrapes = Some(scrape::scrape(server.metrics)?);
            }
            sleep_until(plan.measure_end);
            let last = (cpu(&pid)?, cpu("self")?);
            let scrapes = match scrapes {
                Some(earlier) => Some([earlier, scrape::scrape(server.metrics)?]),
                None => None,
            };
            Ok(Edges {
                server: [first.0, last.0],
                own: [first.1, last.1],
                scrapes,
            })
        })();
        let runs: Vec<ConnRun> = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect();
        (runs, edges)
    });
    let edges = edges?;

    let (oracle_checks, oracle_failed) = oracle(&server, &mut runs, &mut log);
    let rss_mib = procfs::vm_hwm_mib(server.pid()).map_err(|e| format!("child status: {e}"))?;
    server.stop()?;

    let reports: Vec<&ConnReport> = runs.iter().map(|r| &r.report).collect();
    for (c, r) in reports.iter().enumerate() {
        log.extend(r.errors.iter().map(|e| format!("connection {c}: {e}")));
    }
    let mut attempted = reports.iter().map(|r| r.sent).sum::<u64>() + oracle_checks;
    let mut failed = reports.iter().map(|r| r.failed).sum::<u64>() + oracle_failed;

    let windows = Windows::of(&reports, &plan);
    let completed: u64 = windows.completed.iter().sum();
    if completed == 0 {
        return Err(format!(
            "{}: no request completed in the measured period: {log:?}",
            workload.name
        ));
    }
    let throughput = Windows::summary(&windows.throughput_rps);
    if let Load::Open { rate } = workload.load {
        attempted += 1;
        if (throughput.median / rate - 1.0).abs() > RATE_TOLERANCE {
            failed += 1;
            log.push(format!(
                "achieved {:.0} req/s of {rate} offered: the backlog grows",
                throughput.median
            ));
        }
    }
    let server_cpu = edges.server[1].since(&edges.server[0]);
    let per_req = |us: u64| us as f64 / completed as f64;

    let mut metrics = Vec::new();
    if !spec.trace {
        metrics.push(Metric::windowed(
            "throughput_rps",
            throughput,
            "req/s",
            completed,
        ));
        let mean = Windows::summary(&windows.mean_us);
        metrics.push(Metric::windowed("latency_mean_us", mean, "us", completed));
        let p99 = Windows::summary(&windows.p99_us);
        metrics.push(Metric::windowed("latency_p99_us", p99, "us", completed));
        let cpu = per_req(server_cpu.total_us);
        metrics.push(Metric::single(
            "server_cpu_us_per_req",
            cpu,
            "us",
            completed,
        ));
        metrics.push(Metric::single("server_rss_mib", rss_mib, "MiB", 1));
        let setup = median(&setups).unwrap_or(f64::NAN);
        metrics.push(Metric::single("setup_s", setup, "s", SETUPS as u64));
    } else {
        // Per-role CPU over the whole measured period.
        let period_us = period.as_micros() as f64;
        if server_cpu.shard_threads == 0 {
            return Err("no ftd-gateway-shard-* thread found in the child".into());
        }
        let own_cpu = edges.own[1].since(&edges.own[0]);
        // Open loop: per-window p99 of how late sends left (no windows,
        // and a value of 0, on a closed loop).
        let lag_p99_us: Vec<f64> = (0..window_count)
            .filter_map(|w| {
                let mut lag: Vec<u64> = reports
                    .iter()
                    .flat_map(|r| r.lag_ns.get(w).into_iter().flatten().copied())
                    .collect();
                lag.sort_unstable();
                percentile(&lag, 0.99).map(|ns| ns as f64 / 1000.0)
            })
            .collect();
        let lag_sends: usize = reports.iter().flat_map(|r| &r.lag_ns).map(Vec::len).sum();
        let lag_metric = match WindowSummary::of(&lag_p99_us) {
            Some(w) => Metric::windowed("loadgen.lag_p99_us", w, "us", lag_sends as u64),
            None => Metric::single("loadgen.lag_p99_us", 0.0, "us", 0),
        };
        let role = |name, value, unit| Metric::single(name, value, unit, completed);
        metrics.extend([
            role(
                "net.domain_thread.cpu_us_per_req",
                per_req(server_cpu.domain_us),
                "us",
            ),
            role(
                "net.domain_thread.busy_share",
                server_cpu.domain_us as f64 / period_us,
                "ratio",
            ),
            role(
                "net.shard_threads.cpu_us_per_req",
                per_req(server_cpu.shards_us),
                "us",
            ),
            role(
                "net.shard_threads.busy_share",
                server_cpu.shards_us as f64 / (period_us * server_cpu.shard_threads as f64),
                "ratio",
            ),
            role(
                "net.accept_thread.cpu_us_per_req",
                per_req(server_cpu.accept_us),
                "us",
            ),
            role("loadgen.cpu_us_per_req", per_req(own_cpu.total_us), "us"),
            lag_metric,
        ]);

        // The traced half: scraped at both edges.
        let half = window_count / 2;
        let traced_completed: u64 = windows.completed[half..].iter().sum();
        let traced_thr = Windows::summary(&windows.throughput_rps[half..]);
        let traced_p50 = Windows::summary(&windows.p50_us[half..]);
        metrics.push(Metric::windowed(
            "traced.throughput_rps",
            traced_thr,
            "req/s",
            traced_completed,
        ));
        metrics.push(Metric::windowed(
            "traced.latency_p50_us",
            traced_p50,
            "us",
            traced_completed,
        ));
        let overhead = match workload.load {
            Load::Closed { .. } => {
                1.0 - traced_thr.median / Windows::summary(&windows.throughput_rps[..half]).median
            }
            Load::Open { .. } => {
                Windows::summary(&windows.mean_us[half..]).median
                    / Windows::summary(&windows.mean_us[..half]).median
                    - 1.0
            }
        };
        metrics.push(Metric::single(
            "trace.overhead_share",
            overhead,
            "ratio",
            half as u64,
        ));

        let [earlier, later] = edges.scrapes.expect("traced run scrapes");
        let traced_mean_us = windows.mean_us[half..]
            .iter()
            .zip(&windows.completed[half..])
            .filter(|(_, &n)| n > 0)
            .map(|(mean, &n)| mean * n as f64)
            .sum::<f64>()
            / traced_completed.max(1) as f64;
        metrics.extend(scraped_metrics(
            &earlier,
            &later,
            traced_completed,
            traced_mean_us,
        ));

        // The inline pipeline, spans off (the ceiling) and on, after a
        // short discarded pass: the first pass in a process pays for
        // heap growth and page faults the next ones do not.
        let requests = workload.inline_per_second * spec.seconds;
        inline::run(workload, spec.seed, requests / 4, false)?;
        let ceiling = inline::run(workload, spec.seed, requests, false)?;
        let traced = inline::run(workload, spec.seed, requests, true)?;
        attempted += ceiling.requests + traced.requests;
        failed += ceiling.failed + traced.failed;
        if ceiling.failed + traced.failed > 0 {
            log.push(format!(
                "inline pipeline: {} wrong replies",
                ceiling.failed + traced.failed
            ));
        }
        let path = spec.out_dir.join(format!("{}.trace.jsonl", workload.name));
        traced
            .tracer
            .write_jsonl(&path, TRACE_FILE_SPANS)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        metrics.extend(inline_metrics(&ceiling, &traced));
    }

    for line in &log {
        eprintln!("ftd-benchmark: {}: {line}", workload.name);
    }
    Ok(Outcome {
        workload: workload.name,
        trace: spec.trace,
        attempted,
        failed,
        metrics,
        problems: Vec::new(),
    })
}

/// Per-layer metrics from two `/metrics.json` scrapes, divided by the
/// requests completed between them.
fn scraped_metrics(
    earlier: &Metrics,
    later: &Metrics,
    requests: u64,
    e2e_mean_us: f64,
) -> Vec<Metric> {
    let count = |name: &str| later.counter(name).saturating_sub(earlier.counter(name));
    let per_req = |name: &'static str, counter: &str, unit| {
        Metric::single(
            name,
            count(counter) as f64 / requests.max(1) as f64,
            unit,
            requests,
        )
    };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let quantile = |name: &'static str, series: &str, q: f64| {
        let hist = later.histogram(series).since(&earlier.histogram(series));
        Metric::single(
            name,
            hist.quantile(q).unwrap_or(f64::NAN),
            "us",
            hist.count(),
        )
    };
    // The gateway keeps an exact sum beside its log2 buckets, so the
    // mean is exact while the quantiles are bucket-interpolated; only
    // the mean is fit to subtract from an end-to-end number.
    let engine = later
        .histogram("gateway.request_latency_us")
        .since(&earlier.histogram("gateway.request_latency_us"));
    let engine_mean_us = engine.mean().unwrap_or(f64::NAN);
    let replies = count("gateway.replies_delivered");
    vec![
        per_req(
            "core.admission.deferrals_per_req",
            "gateway.shard.deferrals",
            "count",
        ),
        Metric::single(
            "core.dedup.suppressed_per_reply",
            ratio(count("gateway.duplicate_responses_suppressed"), replies),
            "count",
            replies,
        ),
        per_req(
            "core.cache.evictions_per_req",
            "gateway.responses_evicted",
            "count",
        ),
        Metric::single(
            "core.engine.latency_mean_us",
            engine_mean_us,
            "us",
            engine.count(),
        ),
        quantile(
            "core.engine.latency_p50_us",
            "gateway.request_latency_us",
            0.50,
        ),
        quantile(
            "core.engine.latency_p99_us",
            "gateway.request_latency_us",
            0.99,
        ),
        quantile(
            "net.server.reply_latency_p50_us",
            "net.reply_latency_us",
            0.50,
        ),
        Metric::single(
            "net.wire_mean_us",
            e2e_mean_us - engine_mean_us,
            "us",
            requests,
        ),
        per_req(
            "net.reactor.wakeups_per_req",
            "net.reactor.wakeups",
            "count",
        ),
        per_req(
            "net.reactor.partial_writes_per_req",
            "net.reactor.partial_writes",
            "count",
        ),
        per_req("net.bytes_in_per_req", "net.bytes_in", "B"),
        per_req("net.bytes_out_per_req", "net.bytes_out", "B"),
        per_req("totem.rotations_per_req", "totem.token_rotations", "count"),
        per_req("totem.hops_per_req", "totem.token_hops", "count"),
        per_req("totem.broadcasts_per_req", "totem.broadcasts", "count"),
        Metric::single(
            "totem.msgs_per_pack",
            ratio(count("totem.pack_messages"), count("totem.pack_frames")),
            "count",
            count("totem.pack_frames"),
        ),
        per_req(
            "totem.retransmissions_per_req",
            "totem.retransmissions",
            "count",
        ),
        per_req("sim.multicasts_per_req", "net.multicasts_sent", "count"),
        per_req(
            "eternal.duplicate_invocations_per_req",
            "eternal.duplicate_invocations",
            "count",
        ),
    ]
}

/// Per-layer metrics from the inline pipeline's spans.
fn inline_metrics(ceiling: &inline::InlineRun, traced: &inline::InlineRun) -> Vec<Metric> {
    let totals = traced.tracer.totals();
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let n = traced.requests;
    let per_req = |name: &'static str, span: &str| {
        Metric::single(name, total(span).total_ns as f64 / n.max(1) as f64, "ns", n)
    };
    let per_tick = |name: &'static str, span: &str| {
        let t = total(span);
        Metric::single(
            name,
            t.total_ns as f64 / t.count.max(1) as f64,
            "ns",
            t.count,
        )
    };
    vec![
        per_req("giop.encode_request.ns_per_req", "giop.encode_request"),
        per_req("giop.frame_parse.ns_per_req", "giop.frame_parse"),
        per_req(
            "core.engine.on_client_frame.ns_per_req",
            "core.engine.on_client_frame",
        ),
        per_req("net.host.multicast.ns_per_req", "net.host.multicast"),
        per_req("net.host.pump.ns_per_req", "net.host.pump"),
        per_tick("net.host.pump.ns_per_tick", "net.host.pump"),
        per_tick("net.host.pump.idle_ns_per_tick", "net.host.pump.idle"),
        per_req(
            "core.engine.on_delivery.ns_per_req",
            "core.engine.on_delivery",
        ),
        per_req("giop.decode_reply.ns_per_req", "giop.decode_reply"),
        Metric::single(
            "inline.throughput_rps",
            ceiling.throughput_rps(),
            "req/s",
            ceiling.requests,
        ),
        Metric::single(
            "trace.span_overhead_share",
            1.0 - traced.throughput_rps() / ceiling.throughput_rps(),
            "ratio",
            n,
        ),
    ]
}
