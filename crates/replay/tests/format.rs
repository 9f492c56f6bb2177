//! Event-log format and replay-equality properties, end to end against
//! a real [`Shard`]: versioned-header round-trips, torn-tail truncation
//! mid-recording, replay idempotence, and pinpointing of an artificially
//! injected divergence.

use ftd_core::{EngineConfig, GatewayEngine, GwConn, Shard, ShardRouter};
use ftd_giop::{ByteOrder, GiopMessage, ObjectKey, Request};
use ftd_obs::{Clock, ManualClock};
use ftd_replay::{
    read_log, replay_events, EngineSetup, NullDomain, RecordedView, Recorder, RecordingClock,
    ReplayEvent, ReplayOutcome, ShardTap,
};
use ftd_totem::GroupId;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftd-replay-fmt-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn request(request_id: u32, operation: &str, body: Vec<u8>) -> GiopMessage {
    GiopMessage::Request(Request {
        request_id,
        response_expected: true,
        object_key: ObjectKey::new(0, 10).to_bytes(),
        operation: operation.into(),
        body,
        ..Request::default()
    })
}

fn solo_view() -> RecordedView {
    RecordedView {
        peers: 1,
        votes: vec![(10, false)],
        replicas: vec![(10, 3)],
    }
}

/// Records a small but real run — one shard behind a [`ShardTap`] and a
/// [`RecordingClock`], driven through accept/request/close — and returns
/// the recording directory.
fn record_run(name: &str) -> PathBuf {
    let dir = tmp(name);
    let recorder = Arc::new(Recorder::create(&dir).expect("create recording"));
    let config = EngineConfig::new(0, GroupId(100), 0);
    recorder.record(&ReplayEvent::EngineSetup(EngineSetup::from_config(
        &config, 1,
    )));

    let mut engine = GatewayEngine::new(config, BTreeMap::new());
    let manual = Arc::new(ManualClock::new());
    manual.set(1_000);
    engine.set_clock(
        Arc::new(RecordingClock::new(manual.clone(), recorder.clone(), 0)) as Arc<dyn Clock>,
    );

    let tap = ShardTap::new(recorder.clone(), 0);
    let router = Arc::new(ShardRouter::new(1).expect("one shard"));
    let mut shard = Shard::new(0, engine, router, 64, 0, Some(Box::new(tap)));
    let view = solo_view();
    let mut out = Vec::new();
    shard.on_accepted(GwConn(1), Arc::new(AtomicUsize::new(0)), &mut out);
    for (id, add) in [(1u32, 7u64), (2, 11), (3, 2)] {
        manual.advance(250);
        let wire = request(id, "add", add.to_be_bytes().to_vec()).encode(ByteOrder::Big);
        assert!(shard.on_frame(GwConn(1), &wire, &view, &mut out));
    }
    manual.advance(50);
    shard.on_closed(GwConn(1), &mut out);
    shard.into_engine();
    assert!(recorder.ok(), "recording poisoned");
    dir
}

#[test]
fn recorded_engine_run_replays_to_identical_digest_idempotently() {
    let dir = record_run("idempotent");
    let (events, report) = read_log(&dir).expect("read log");
    assert!(!report.torn_tail_truncated);

    let first: ReplayOutcome = replay_events(&events, &mut NullDomain).expect("first replay");
    assert!(
        first.matches(),
        "first replay diverged: {:?}",
        first.divergence
    );
    assert!(first.complete());
    assert_eq!(first.recorded, first.replayed);

    // Replay is a pure function of the log: a second run (fresh engines,
    // fresh clocks) reproduces the identical outcome.
    let second = replay_events(&events, &mut NullDomain).expect("second replay");
    assert_eq!(first, second);
}

#[test]
fn torn_tail_mid_recording_loses_only_the_final_partial_event() {
    let dir = record_run("torn");
    let (intact, _) = read_log(&dir).expect("read intact");

    // Simulate the recorded process dying mid-append: a frame header
    // promising 100 payload bytes with only a few behind it.
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("list recording")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    let last = segments.last().expect("a wal segment");
    let mut torn = Vec::new();
    torn.extend_from_slice(&100u32.to_le_bytes());
    torn.extend_from_slice(&0u32.to_le_bytes());
    torn.extend_from_slice(b"cut off");
    use std::io::Write;
    std::fs::OpenOptions::new()
        .append(true)
        .open(last)
        .expect("open segment")
        .write_all(&torn)
        .expect("append torn frame");

    let (events, report) = read_log(&dir).expect("torn log still reads");
    assert!(report.torn_tail_truncated, "torn tail must be reported");
    assert_eq!(events, intact, "repair loses at most the partial event");

    // And the truncated recording still replays clean — the digests were
    // recorded before the tear, so equality is still fully verified.
    let outcome = replay_events(&events, &mut NullDomain).expect("replay");
    assert!(outcome.matches(), "diverged: {:?}", outcome.divergence);
}

#[test]
fn injected_divergence_is_pinpointed_at_the_altered_event() {
    let dir = record_run("diverge");
    let (mut events, _) = read_log(&dir).expect("read log");

    // Artificial divergence: rewrite the SECOND recorded request's body
    // (as if the replayed world saw different bytes than the recorded
    // one). The replayed engine then emits different actions at exactly
    // that event, and nowhere earlier.
    let target = events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e {
            ReplayEvent::ClientMsg { .. } => Some(i),
            _ => None,
        })
        .nth(1)
        .expect("a second ClientMsg event");
    if let ReplayEvent::ClientMsg { bytes, .. } = &mut events[target] {
        *bytes = request(2, "add", 999u64.to_be_bytes().to_vec()).encode(ByteOrder::Big);
    }

    let outcome = replay_events(&events, &mut NullDomain).expect("replay");
    assert!(!outcome.matches());
    let divergence = outcome.divergence.expect("must diverge");
    assert_eq!(
        divergence.event_index, target as u64,
        "first divergence must be the altered event: {divergence:?}"
    );
    assert!(divergence.detail.contains("ClientMsg"));
}

#[test]
fn unknown_event_tags_fail_replay_loudly() {
    // A future (unknown) event tag must reject the whole read rather
    // than silently skipping recorded input.
    let err = ReplayEvent::decode(&[0xEE, 1, 2, 3]).expect_err("unknown tag must error");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}
