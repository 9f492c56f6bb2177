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
//!
//! And it polices the single shard: `ftd_core::Shard` is the one place
//! the admission and routing decisions live, hosted by `ftd-net`'s shard
//! threads and driven directly by tests. The single-threaded composition
//! that only claimed to route like the server, its fan-out filter, the
//! admission credit pools and the host-side reply-latency stamps are
//! banned.
//!
//! And it polices the single bench harness: the soaks and sweeps share
//! `ftd_bench::soak` and `ftd_bench::cli`, so `crates/bench/src` holds
//! exactly one `die`, and the names of the deleted Criterion-shaped
//! micro-bench clone are banned everywhere.
//!
//! And it polices hashed collections: `HashMap`, `HashSet`,
//! `RandomState` and `DefaultHasher` appear only in
//! `eternal/src/optable.rs`, the §3.3 operation table, whose randomly
//! seeded index is never iterated, so its seed reaches no output.
//! `RandomState` seeds itself from OS entropy, and iteration in hash
//! order is insertion- and seed-dependent — both are ambient
//! nondeterminism that must not reach recorded state.
//!
//! The same scanner also counts the code the simplicity reports quote:
//! run `cargo test -p ftd-check --test determinism -- --nocapture
//! code_lines` for the per-crate and total non-test code lines over
//! `crates/*/src`.

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

/// The deleted second shard (no allowlist): the single-threaded sharded
/// engine and its shard type, their fan-out filter, the per-tick
/// admission credits, and the host's per-connection latency stamps.
const SECOND_SHARD: &[&str] = &[
    "ShardedEngine",
    "EngineShard",
    "dedupe_fanout",
    "requests_per_tick",
    "bytes_per_tick",
    "replenish_credits",
    "pending_latency",
];

/// The deleted second bench harness (no allowlist): the Criterion-shaped
/// micro-bench clone, its entry macro and its JSON report switch.
const SECOND_HARNESS: &[&str] = &["Criterion", "bench_main", "BENCH_JSON"];

/// Hashed collections and the entropy-seeded hasher, allowed only in the
/// operation table (no iteration in hash order).
const HASHED: &[&str] = &["HashMap", "HashSet", "RandomState", "DefaultHasher"];

const HASHED_ALLOWED: &[&str] = &["eternal/src/optable.rs"];

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

/// Every `.rs` file under any crate's `src/`.
fn crate_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for crate_dir in std::fs::read_dir(root).expect("list crates").flatten() {
        let src = crate_dir.path().join("src");
        rust_sources(&src, &mut files);
    }
    assert!(
        files.len() > 20,
        "lint scanned suspiciously few files ({}) — wrong root?",
        files.len()
    );
    files.sort();
    files
}

/// Every code line under any crate's `src/` (outside `allowed`) that
/// contains one of `banned`, as `path:line: text`.
fn scan(banned: &[&str], allowed: &[&str]) -> Vec<String> {
    let root = crates_root();
    let files = crate_sources(&root);

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
fn hashed_collections_stay_inside_the_operation_table() {
    let violations = scan(HASHED, HASHED_ALLOWED);
    assert!(
        violations.is_empty(),
        "a hashed collection outside ftd_eternal::OpTable — its iteration \
         order (and RandomState's seed) is ambient nondeterminism; use a \
         BTreeMap, or an OpTable for operation-keyed FIFO tables:\n{}",
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

#[test]
fn the_second_shard_stays_deleted() {
    let violations = scan(SECOND_SHARD, &[]);
    assert!(
        violations.is_empty(),
        "a retired name of the second shard implementation is back — the \
         admission and routing decisions live in ftd_core::Shard (an \
         in-flight window, no rate credits), and reply latency comes from \
         the engine's Action::Latency:\n{}",
        violations.join("\n")
    );
}

#[test]
fn the_second_harness_stays_deleted() {
    let violations = scan(SECOND_HARNESS, &[]);
    assert!(
        violations.is_empty(),
        "a retired name of the micro-bench harness is back — figure shapes \
         come from `experiments eN` and per-stage ns from `benchmark \
         --trace 1`:\n{}",
        violations.join("\n")
    );
    let dies: Vec<String> = scan(&["fn die("], &[])
        .into_iter()
        .filter(|v| v.starts_with("crates/bench/src/"))
        .collect();
    assert_eq!(
        dies.len(),
        1,
        "the bench binaries share one `die` (ftd_bench::cli) and one \
         argument walker — parse with cli::parse instead of a private loop:\n{}",
        dies.join("\n")
    );
}

/// Non-test code lines in one source text: lines with code left after
/// `//` comments are stripped, outside `#[cfg(test)]` modules.
fn code_lines(text: &str) -> usize {
    let mut count = 0;
    let mut test_attr = false;
    let mut depth = 0usize; // brace depth inside a skipped test module
    for line in text.lines() {
        let code = code_part(line).trim();
        if depth > 0 {
            depth += code.matches('{').count();
            depth -= code.matches('}').count().min(depth);
            continue;
        }
        if code.is_empty() {
            continue;
        }
        if test_attr && code.starts_with("mod ") && code.ends_with('{') {
            depth = 1;
            test_attr = false;
            continue;
        }
        test_attr = code == "#[cfg(test)]";
        if !test_attr {
            count += 1;
        }
    }
    count
}

#[test]
fn code_lines_skip_comments_blanks_and_test_modules() {
    let fixture = "\
//! Module doc.
use std::fmt; // trailing comment

/// Item doc.
fn f() -> &'static str {
    \"{}\"
}

#[cfg(test)]
mod tests {
    fn g() {
        if true {}
    }
}
fn after() {}
";
    assert_eq!(code_lines(fixture), 5);
}

/// Prints per-file, per-crate and total non-test code lines over
/// `crates/*/src` (see [`code_lines`]) under `--nocapture`.
#[test]
fn code_lines_per_crate() {
    let root = crates_root();
    let mut per_crate: std::collections::BTreeMap<String, usize> = Default::default();
    for file in crate_sources(&root) {
        let rel = file.strip_prefix(&root).expect("under crates/");
        let krate = rel.iter().next().expect("crate dir");
        let lines = code_lines(&std::fs::read_to_string(&file).expect("read source"));
        println!("code_lines {} {lines}", rel.display());
        *per_crate
            .entry(krate.to_string_lossy().into_owned())
            .or_default() += lines;
    }
    for (krate, lines) in &per_crate {
        println!("code_lines {krate} {lines}");
    }
    println!("code_lines total {}", per_crate.values().sum::<usize>());
}
