//! Snapshot test pinning the engine's statistics vocabulary.
//!
//! The sim reports, the live daemon's `/metrics` endpoint, and the docs
//! all refer to the engine's `Action::Count` counters by name. This test
//! scans `src/engine.rs` for every emitted `counter: "..."` literal and
//! requires the set to exactly equal the published
//! [`ftd_core::ENGINE_COUNTERS`] list — so a renamed, added, or removed
//! counter has to be an explicit, reviewed change to the list.

use ftd_core::{Action, EngineConfig, GatewayEngine, GwConn, SoloView, ENGINE_COUNTERS};
use ftd_eternal::{DomainMsg, FtHeader, OperationKind};
use ftd_giop::{ByteOrder, Frame, GiopMessage, ObjectKey, Reply, Request};
use ftd_totem::GroupId;
use std::collections::{BTreeMap, BTreeSet};

fn emitted_counter_names() -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/src/engine.rs");
    let src = std::fs::read_to_string(path).expect("engine source readable");
    let mut found = BTreeSet::new();
    for chunk in src.split("counter: \"").skip(1) {
        let name = chunk
            .split('"')
            .next()
            .expect("split always yields one piece");
        found.insert(name.to_owned());
    }
    found
}

#[test]
fn published_counter_list_is_sorted_and_unique() {
    let mut sorted = ENGINE_COUNTERS.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        sorted, ENGINE_COUNTERS,
        "ENGINE_COUNTERS must stay sorted and duplicate-free"
    );
}

#[test]
fn every_emitted_counter_is_published_and_vice_versa() {
    let emitted = emitted_counter_names();
    let published: BTreeSet<String> = ENGINE_COUNTERS.iter().map(|&s| s.to_owned()).collect();

    let unpublished: Vec<_> = emitted.difference(&published).collect();
    let stale: Vec<_> = published.difference(&emitted).collect();
    assert!(
        unpublished.is_empty() && stale.is_empty(),
        "engine counter vocabulary drifted.\n  emitted but not in ENGINE_COUNTERS: \
         {unpublished:?}\n  in ENGINE_COUNTERS but never emitted: {stale:?}\n\
         Update ftd_core::ENGINE_COUNTERS (and any dashboards/docs naming the \
         old counters) deliberately."
    );
}

/// The eviction counter added for the §3.5 failover path: its name is
/// pinned here explicitly (beyond the source scan) because the chaos
/// soak harness and the DESIGN.md fault-model section refer to it.
#[test]
fn response_cache_eviction_counter_is_published() {
    assert!(
        ENGINE_COUNTERS.contains(&"gateway.responses_evicted"),
        "gateway.responses_evicted must stay in the published vocabulary"
    );
}

/// Drives full request/response cycles through a capacity-1 response
/// cache and asserts the engine accounts each eviction with an
/// `Action::Count` — the observable half of the failover contract: an
/// evicted reply means a reissue re-executes and leans on the domain's
/// duplicate detection instead of the gateway's cache.
#[test]
fn tiny_response_cache_emits_eviction_counts() {
    let mut config = EngineConfig::new(0, GroupId(100), 0);
    config.cache_capacity = 1;
    let mut gw = GatewayEngine::new(config, BTreeMap::new());
    gw.on_client_accepted(GwConn(1));

    let mut evictions = 0usize;
    for request_id in 1..=3u32 {
        let req = Request {
            request_id,
            response_expected: true,
            object_key: ObjectKey::new(0, 10).to_bytes(),
            operation: "get".into(),
            ..Request::default()
        };
        let wire = GiopMessage::Request(req).encode(ByteOrder::Big);
        gw.on_client_frame(GwConn(1), Frame::parse(&wire).unwrap(), &SoloView);

        let reply = GiopMessage::Reply(Reply::success(request_id, vec![request_id as u8]))
            .encode(ByteOrder::Big);
        let header = FtHeader {
            client: 1,
            source: GroupId(10),
            target: GroupId(100),
            kind: OperationKind::Response,
            parent_ts: 0,
            child_seq: request_id,
        };
        let payload = DomainMsg::Iiop {
            header,
            iiop: reply,
        }
        .encode();
        let actions = gw.on_delivery_from_domain(GroupId(100), &payload, &SoloView);
        evictions += actions
            .iter()
            .filter(
                |a| matches!(a, Action::Count { counter } if *counter == "gateway.responses_evicted"),
            )
            .count();
    }

    assert_eq!(
        evictions, 2,
        "three cached replies through a capacity-1 cache evict twice"
    );
    assert_eq!(gw.cached_responses(), 1, "capacity holds after eviction");
}

#[test]
fn counters_follow_the_component_metric_convention() {
    for name in ENGINE_COUNTERS {
        assert!(
            name.starts_with("gateway."),
            "engine counters live in the gateway namespace: {name}"
        );
        assert!(
            name.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
            "counter names must be lowercase dotted identifiers: {name}"
        );
    }
}
