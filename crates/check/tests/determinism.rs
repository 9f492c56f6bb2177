//! The determinism lint: no ambient time or entropy outside the seams.
//!
//! Record/replay (ftd-replay) only works if every nondeterministic input
//! the gateway consumes flows through a recordable seam — the `ftd-obs`
//! [`Clock`] trait for time, seeded generators for randomness. A single
//! `Instant::now()` on an engine-adjacent path silently breaks replay
//! equality, so this test scans every crate's `src/` tree and fails on
//! banned calls outside an explicit allowlist.
//!
//! The allowlist is small and each entry carries its justification:
//!
//! * `obs/src/clock.rs` — the system `Clock` implementation itself; this
//!   is THE seam ambient time is funneled through.
//! * `net/src/domain.rs` — host-side pacing of the domain thread (how
//!   often to pump virtual time). Replay re-applies the *recorded* tick
//!   sequence, so wall-clock pacing never reaches replayed state.
//! * `chaos/src/` — the fault injector is the experiment, not the system
//!   under record; its wall-clock scheduling shows up in a recording
//!   only through the byte streams and closures it actually causes.
//! * `bench/src/` — harness/measurement timing (latency clocks, client
//!   retry deadlines), outside the recorded gateway boundary.
//!
//! The same scan polices the single client-input path: the complete wire
//! frame is the only representation of a client message between a socket
//! and the engine (`FrameBuf` → `Frame` → `on_client_frame`). The names
//! of the owned-message fork that used to run beside it are banned
//! everywhere, so a second framer or engine entry point cannot grow back
//! unnoticed.
//!
//! And it polices the single multi-gateway scheme: every gateway owns
//! exactly one domain, and more than one gateway is §3.5's gateway group.
//! The in-process pool that shared one domain between gateways, its
//! client partitioning, and the shared-domain handle are banned, as is
//! the untested non-Unix poller fallback (the crate refuses to build off
//! Unix instead).

use std::path::{Path, PathBuf};

const BANNED: &[&str] = &[
    "Instant::now",
    "SystemTime::now",
    "thread_rng",
    "from_entropy",
];

/// The deleted owned-message path (no allowlist): the second GIOP
/// framer, the engine's owned/byte-stream entry points and their input
/// enum, and the shard's owned-message twin of `process_frame`.
const RETIRED: &[&str] = &[
    "MessageReader",
    "on_client_message",
    "on_bytes_from_client",
    "ReqInput",
    "process_msg",
];

/// The deleted second multi-gateway scheme (no allowlist): the shared-
/// domain pool, its client partitioning and per-client IORs, the public
/// shared-domain handle, and the non-Unix poller fallback.
const SECOND_SCHEME: &[&str] = &[
    "GatewayPool",
    "gateway_for_client",
    "ior_for_client",
    "fn domain_link",
    "cfg(not(unix))",
];

const ALLOWED: &[&str] = &[
    "obs/src/clock.rs",
    "net/src/domain.rs",
    "chaos/src/",
    "bench/src/",
];

fn crates_root() -> PathBuf {
    // crates/check/tests -> crates/
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates dir")
        .to_path_buf()
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The line with `//` comments stripped, so a doc mention of a banned
/// call does not trip the lint.
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Every code line under any crate's `src/` (outside `allowed`) that
/// contains one of `banned`, as `path:line: text`.
fn scan(banned: &[&str], allowed: &[&str]) -> Vec<String> {
    let root = crates_root();
    let mut files = Vec::new();
    for crate_dir in std::fs::read_dir(&root).expect("list crates").flatten() {
        let src = crate_dir.path().join("src");
        rust_sources(&src, &mut files);
    }
    assert!(
        files.len() > 20,
        "lint scanned suspiciously few files ({}) — wrong root?",
        files.len()
    );

    let mut violations = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(&root)
            .expect("under crates/")
            .to_string_lossy()
            .replace('\\', "/");
        if allowed.iter().any(|a| rel.starts_with(a)) {
            continue;
        }
        let text = std::fs::read_to_string(file).expect("read source");
        for (lineno, line) in text.lines().enumerate() {
            let code = code_part(line);
            if banned.iter().any(|b| code.contains(b)) {
                violations.push(format!("crates/{rel}:{}: {}", lineno + 1, line.trim()));
            }
        }
    }
    violations
}

#[test]
fn no_ambient_time_or_entropy_outside_the_recordable_seams() {
    let violations = scan(BANNED, ALLOWED);
    assert!(
        violations.is_empty(),
        "ambient nondeterminism outside the allowlisted seams — route it \
         through the ftd-obs Clock (or extend the allowlist with a \
         justification if it provably cannot reach recorded state):\n{}",
        violations.join("\n")
    );
}

#[test]
fn the_owned_message_path_stays_deleted() {
    let violations = scan(RETIRED, &[]);
    assert!(
        violations.is_empty(),
        "a retired name of the owned-message client path is back — feed \
         the wire frame to GatewayEngine::on_client_frame (framing bytes \
         with ftd_giop::FrameBuf) instead of forking the path:\n{}",
        violations.join("\n")
    );
}

#[test]
fn the_second_gateway_scheme_stays_deleted() {
    let violations = scan(SECOND_SCHEME, &[]);
    assert!(
        violations.is_empty(),
        "a retired name of the shared-domain gateway pool is back — run \
         more than one gateway as a gateway group \
         (GatewayServer::builder().group(..)), each owning its own domain:\n{}",
        violations.join("\n")
    );
}
