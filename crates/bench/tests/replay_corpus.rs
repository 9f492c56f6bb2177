//! The committed replay corpus (`crates/replay/tests/corpus/`): event
//! logs recorded by an earlier build must replay MATCH against this one.
//!
//! CI's replay job records and replays with the same build, so it
//! cannot see a change in engine behaviour; these recordings can. Each
//! is copied to a scratch directory first (opening a log may repair its
//! tail), then replayed through fresh engines over a rebuilt domain.
//! A divergence fails with the first diverging event's index and what
//! differed there. See the corpus README for how the logs were made and
//! when re-recording is legitimate.

use std::path::{Path, PathBuf};

fn corpus() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../replay/tests/corpus")
}

/// Copies the recording at `src` (a directory tree of log segments)
/// into a fresh scratch directory.
fn scratch_copy(src: &Path, name: &str) -> PathBuf {
    let dst = std::env::temp_dir().join(format!("ftd-corpus-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dst);
    copy_tree(src, &dst);
    dst
}

fn copy_tree(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create scratch dir");
    for entry in std::fs::read_dir(src).expect("read corpus dir") {
        let entry = entry.expect("corpus entry");
        let to = dst.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).expect("copy corpus file");
        }
    }
}

/// Replays one recording and requires a verified MATCH.
fn assert_matches(dir: &Path, label: &str) {
    let outcome = ftd_net::replay_recording(dir, ftd_bench::registry)
        .unwrap_or_else(|e| panic!("{label}: cannot replay: {e}"));
    if let Some(d) = &outcome.divergence {
        panic!(
            "{label}: DIVERGED at event {} of {} — {}",
            d.event_index, outcome.events, d.detail
        );
    }
    assert!(
        outcome.complete(),
        "{label}: recording has no final digests, so it cannot be verified"
    );
    assert!(outcome.matches(), "{label}: final digests differ");
    assert!(outcome.events > 0, "{label}: empty recording");
}

fn replay(name: &str, incarnations: &[&str]) {
    let dir = scratch_copy(&corpus().join(name), name);
    if incarnations.is_empty() {
        assert_matches(&dir, name);
    } else {
        for inc in incarnations {
            assert_matches(&dir.join(inc), &format!("{name}/{inc}"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_seed_42_matches() {
    replay("chaos-42", &[]);
}

#[test]
fn chaos_seed_7_with_blackout_and_crash_matches() {
    replay("chaos-7-blackout-crash", &[]);
}

#[test]
fn restart_seed_42_matches_in_both_incarnations() {
    replay("restart-42", &["inc-0", "inc-1"]);
}
