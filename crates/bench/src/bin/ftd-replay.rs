//! `ftd-replay` — replay a recorded gateway run and verify equality.
//!
//! Reads an event log written by `ftd-gatewayd --record-dir` or
//! `ftd-chaos-soak --record`, rebuilds the recorded domain, re-drives
//! every recorded nondeterministic input through fresh engines, and
//! compares the result against the recording: every engine invocation's
//! emitted actions against its recorded CRC, and the final
//! [`StateDigest`](ftd_replay::StateDigest) component-wise where the
//! recording closed out cleanly.
//!
//! ```text
//! ftd-replay replay <DIR> [<DIR>...]
//! ```
//!
//! A `DIR` may be a single recording, a directory of per-incarnation
//! `inc-*` recordings (what `ftd-chaos-soak --restart --record` writes),
//! or a directory of per-gateway-process `gw-*` recordings (what a
//! gateway group's members write under a shared recording root, e.g.
//! `ftd-group-soak --record`) — each `gw-*` may itself hold `inc-*`
//! subdirectories, and every discovered recording gets its own verdict.
//! Exit code 0 iff every replay matched; on divergence the report names
//! the first diverging event's index and what differed there.

use ftd_bench::cli::{self, die, Args, CliError};
use ftd_bench::registry;
use ftd_replay::ReplayOutcome;
use std::path::{Path, PathBuf};

const USAGE: &str = "ftd-replay replay <DIR> [<DIR>...]";

/// Replays one recording directory and prints its verdict. Returns
/// whether the replay matched the recording.
fn replay_one(dir: &Path) -> bool {
    let outcome: ReplayOutcome = match ftd_net::replay_recording(dir, registry) {
        Ok(outcome) => outcome,
        Err(e) => die(&format!("{}: {e}", dir.display())),
    };
    println!("recording : {}", dir.display());
    println!("events    : {}", outcome.events);
    println!("recorded  : {}", outcome.recorded.render());
    println!("replayed  : {}", outcome.replayed.render());
    match &outcome.divergence {
        None if outcome.complete() => {
            println!("verdict   : MATCH");
            true
        }
        None => {
            // Torn recording: the recorded process died before writing
            // final digests, so equality holds as far as the log goes —
            // every recorded engine invocation replayed to the same
            // actions.
            println!("verdict   : MATCH (incomplete recording; verified per-event only)");
            true
        }
        Some(d) => {
            println!(
                "verdict   : DIVERGED at event {} — {}",
                d.event_index, d.detail
            );
            false
        }
    }
}

/// Subdirectories of `dir` whose name starts with `prefix`, sorted.
/// Empty if there are none (e.g. `dir` is itself a single recording).
fn subdirs(dir: &Path, prefix: &str) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut subs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.is_dir()
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(prefix))
        })
        .collect();
    subs.sort();
    subs
}

/// `inc-*` incarnations of a restart recording, or the recording itself.
fn incarnations(dir: PathBuf) -> Vec<PathBuf> {
    let incs = subdirs(&dir, "inc-");
    if incs.is_empty() {
        vec![dir]
    } else {
        incs
    }
}

/// Expands one command-line `DIR` into the recordings it holds: first
/// per-gateway-process `gw-*` subdirectories (a gateway group's shared
/// recording root — one verdict per process), then per-incarnation
/// `inc-*` subdirectories of each.
fn discover(dir: PathBuf) -> Vec<PathBuf> {
    let gws = subdirs(&dir, "gw-");
    if gws.is_empty() {
        incarnations(dir)
    } else {
        gws.into_iter().flat_map(incarnations).collect()
    }
}

/// The recordings the command line names, after an optional leading
/// `replay`.
fn parse_dirs(args: &mut Args) -> Result<Vec<PathBuf>, CliError> {
    let mut dirs = Vec::new();
    let mut first = true;
    while let Some(arg) = args.next_arg()? {
        if !(std::mem::take(&mut first) && arg == "replay") {
            dirs.extend(discover(PathBuf::from(arg)));
        }
    }
    if dirs.is_empty() {
        return Err(CliError::Bad(format!("usage: {USAGE}")));
    }
    Ok(dirs)
}

fn main() {
    let dirs = cli::parse(USAGE, parse_dirs);
    let mut all_matched = true;
    for (i, dir) in dirs.iter().enumerate() {
        if i > 0 {
            println!();
        }
        all_matched &= replay_one(dir);
    }
    if !all_matched {
        std::process::exit(1);
    }
}
