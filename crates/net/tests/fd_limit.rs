//! A gateway at its descriptor limit keeps its listener quiet: every
//! failed `accept` is counted (`net.accept_errors`) and followed by a
//! pause, so a backlog of connections it cannot take does not spin a
//! core. Runs `ftd-gatewayd` as a child under a lowered `ulimit -n`.
//!
//! The child hosts a one-processor domain: an idle domain still ticks
//! (about a tenth of a core in a debug build), and the smallest one
//! leaves the budget to what is tested here.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

/// Descriptors the child may hold: enough to start, few enough that the
/// test's connections exhaust them.
const FD_LIMIT: u32 = 48;

/// Connections opened at the gateway: past its limit, within the
/// listener's backlog.
const CONNECTIONS: usize = 80;

struct Gateway {
    child: Child,
    lines: mpsc::Receiver<String>,
}

impl Drop for Gateway {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Gateway {
    fn start() -> Gateway {
        let bin = env!("CARGO_BIN_EXE_ftd-gatewayd");
        let mut child = Command::new("sh")
            .arg("-c")
            .arg(format!(
                "ulimit -n {FD_LIMIT} && exec '{bin}' --port 0 --shards 1 \
                 --processors 1 --replicas 1 --metrics-addr 127.0.0.1:0 --seed 11"
            ))
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn sh");
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, lines) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    return;
                }
            }
        });
        Gateway { child, lines }
    }

    /// The first address printed after `marker` on a stderr line.
    fn addr_after(&self, marker: &str) -> String {
        loop {
            let line = self
                .lines
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("gateway never printed {marker:?}"));
            if let Some((_, rest)) = line.split_once(marker) {
                return rest
                    .split(|c: char| c.is_whitespace() || c == '/')
                    .next()
                    .expect("address")
                    .to_owned();
            }
        }
    }

    /// User plus system CPU time of the child, in clock ticks.
    fn cpu_ticks(&self) -> u64 {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
            .expect("read /proc/<pid>/stat");
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let after = &stat[stat.rfind(')').expect("comm") + 2..];
        let fields: Vec<&str> = after.split_whitespace().collect();
        fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
    }
}

fn metrics_json(addr: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect to metrics");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn.write_all(b"GET /metrics.json HTTP/1.0\r\n\r\n")
        .unwrap();
    let mut body = String::new();
    conn.read_to_string(&mut body).expect("metrics response");
    body
}

/// The value of counter `name` in the JSON exposition.
fn counter(json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\"");
    let at = json
        .find(&key)
        .unwrap_or_else(|| panic!("{name} not exported"));
    json[at + key.len()..]
        .trim_start_matches([':', ' '])
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{name} is not a plain counter"))
}

#[test]
fn accept_at_the_descriptor_limit_is_counted_and_backs_off() {
    let gw = Gateway::start();
    let addr = gw.addr_after(" on ");
    let metrics = gw.addr_after("metrics on http://");

    // Exhaust the child's descriptors: the first connections are
    // accepted, the rest wait in the listener's backlog.
    let conns: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| TcpStream::connect(&addr).expect("connect within the backlog"))
        .collect();
    std::thread::sleep(Duration::from_millis(500));

    // At the limit: CPU over one second of wall time.
    let ticks_per_s = 100; // USER_HZ on Linux
    let before = gw.cpu_ticks();
    std::thread::sleep(Duration::from_secs(1));
    let used = gw.cpu_ticks() - before;
    let share = used as f64 / ticks_per_s as f64;
    assert!(
        share < 0.2,
        "gateway used {:.0} % of a core at its descriptor limit",
        share * 100.0
    );

    // Free the descriptors; the gateway serves its admin port again and
    // reports what it refused.
    drop(conns);
    std::thread::sleep(Duration::from_millis(500));
    let json = metrics_json(&metrics);
    assert!(
        counter(&json, "net.accept_errors") > 0,
        "no accept error counted at the descriptor limit"
    );
}
