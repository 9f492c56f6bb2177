//! Property tests for the lock-free group→shard routing table: a group
//! (and hence every client key minted for it) must resolve to exactly
//! one shard, no matter how many threads consult the table at once or
//! how many pins land concurrently, and the §3.2 per-group client-key
//! counters must stay dense `1..=k` when `k` plain clients arrive.

use ftd_core::{
    shard_of, Action, EngineConfig, GatewayEngine, GwConn, RecordedView, Shard, ShardOutput,
    ShardRouter,
};
use ftd_eternal::DomainMsg;
use ftd_giop::{ByteOrder, GiopMessage, ObjectKey, Request};
use ftd_totem::GroupId;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

const SHARDS: usize = 4;
const GROUPS: u32 = 128;
const THREADS: usize = 8;
const ROUNDS: usize = 200;

/// Every thread resolves every group repeatedly; all observations across
/// all threads must agree with each other and with the pure hash — a
/// client key minted on one shard can never be looked up on another.
#[test]
fn concurrent_routing_is_stable_and_never_splits_a_group() {
    let router = Arc::new(ShardRouter::new(SHARDS).unwrap());
    // Pins are installed before serving starts, exactly as
    // `GatewayBuilder::pin_group` does; pinned groups must be as stable
    // as hashed ones.
    router.pin(GroupId(3), 2).unwrap();
    router.pin(GroupId(96), 0).unwrap();

    let observations: Vec<HashMap<u32, usize>> = (0..THREADS)
        .map(|_| {
            let router = Arc::clone(&router);
            std::thread::spawn(move || {
                let mut seen = HashMap::new();
                for _ in 0..ROUNDS {
                    for g in 0..GROUPS {
                        let shard = router.route(GroupId(g));
                        assert!(shard < SHARDS);
                        let prior = seen.insert(g, shard);
                        if let Some(prior) = prior {
                            assert_eq!(prior, shard, "group {g} split across shards");
                        }
                    }
                }
                seen
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().expect("router reader thread"))
        .collect();

    let reference = &observations[0];
    for seen in &observations[1..] {
        assert_eq!(seen, reference, "threads disagree on placement");
    }
    for (&g, &shard) in reference {
        let expect = match g {
            3 => 2,
            96 => 0,
            _ => shard_of(GroupId(g), SHARDS),
        };
        assert_eq!(shard, expect, "group {g} off its hash/pin placement");
    }
}

/// A writer pinning *new* groups while readers route a disjoint set: the
/// readers' placements must not waver (no torn reads on neighbouring
/// table slots), and every pin must be visible once installed.
#[test]
fn concurrent_pins_do_not_perturb_unrelated_routes() {
    let router = Arc::new(ShardRouter::new(SHARDS).unwrap());
    let writer = {
        let router = Arc::clone(&router);
        std::thread::spawn(move || {
            // Groups 1000.. are never routed by the readers below.
            for g in 0..64u32 {
                router
                    .pin(GroupId(1000 + g), (g as usize) % SHARDS)
                    .unwrap();
            }
        })
    };
    let readers: Vec<_> = (0..THREADS)
        .map(|_| {
            let router = Arc::clone(&router);
            std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    for g in 0..GROUPS {
                        assert_eq!(
                            router.route(GroupId(g)),
                            shard_of(GroupId(g), SHARDS),
                            "unpinned group {g} must keep its hash placement"
                        );
                    }
                }
            })
        })
        .collect();
    writer.join().expect("pin writer");
    for r in readers {
        r.join().expect("router reader");
    }
    for g in 0..64u32 {
        assert_eq!(router.route(GroupId(1000 + g)), (g as usize) % SHARDS);
    }
}

fn request_for(conn_tag: u32, group: u32) -> GiopMessage {
    GiopMessage::Request(Request {
        request_id: conn_tag,
        response_expected: true,
        object_key: ObjectKey::new(0, group).to_bytes(),
        operation: "get".into(),
        ..Request::default()
    })
}

/// `SHARDS` shards over one router, as a gateway's shard threads run.
fn fleet() -> (Arc<ShardRouter>, Vec<Shard>) {
    let router = Arc::new(ShardRouter::new(SHARDS).unwrap());
    let config = EngineConfig::new(0, GroupId(0x4000_0000), 0);
    let shards = (0..SHARDS)
        .map(|i| {
            let engine = GatewayEngine::new(config.clone(), BTreeMap::new());
            Shard::new(i, engine, router.clone(), 64, 0, None)
        })
        .collect();
    (router, shards)
}

fn actions(out: Vec<ShardOutput>) -> Vec<Action> {
    out.into_iter()
        .filter_map(|o| match o {
            ShardOutput::Action(a) => Some(a),
            ShardOutput::Forward { .. } => None,
        })
        .collect()
}

/// Every shard hears of a new connection (the accept thread's fan-out).
fn accept(shards: &mut [Shard], conn: GwConn) {
    let budget = Arc::new(AtomicUsize::new(0));
    let mut out = Vec::new();
    for shard in shards.iter_mut() {
        shard.on_accepted(conn, budget.clone(), &mut out);
    }
}

/// Every shard hears of a closed connection.
fn close(shards: &mut [Shard], conn: GwConn) -> Vec<Action> {
    let mut out = Vec::new();
    for shard in shards.iter_mut() {
        shard.on_closed(conn, &mut out);
    }
    actions(out)
}

/// Feeds one message, as the wire frame a client speaking `order` would
/// send, to the shard owning `conn`'s socket (round-robin by id, like
/// the accept thread), and hands every forwarded copy to its
/// destination shard as the server's channels do.
fn feed(shards: &mut [Shard], conn: GwConn, msg: &GiopMessage, order: ByteOrder) -> Vec<Action> {
    let view = RecordedView::default();
    let mut out = Vec::new();
    let owner = (conn.0 as usize - 1) % shards.len();
    assert!(shards[owner].on_frame(conn, &msg.encode(order), &view, &mut out));
    let mut i = 0;
    while i < out.len() {
        if let ShardOutput::Forward { shard, conn, wire } = &out[i] {
            let (dest, conn, wire) = (*shard, *conn, wire.clone());
            shards[dest].on_forwarded(conn, wire, &view, &mut out);
        }
        i += 1;
    }
    actions(out)
}

/// `k` plain clients per group, interleaved across groups in accept
/// order and alternating byte order: the owning shard's §3.2 counter
/// must read exactly `k` for each group (keys assigned densely `1..=k`,
/// no gaps, no duplicates), every non-owning shard must still read 0,
/// and whatever byte order the client spoke, the payload multicast into
/// the domain carries the canonical big-endian request.
#[test]
fn per_group_client_key_counters_stay_dense_under_interleaved_accepts() {
    let (router, mut shards) = fleet();
    let groups = [GroupId(5), GroupId(11), GroupId(23), GroupId(42)];
    let k = 6u32;

    let mut conn = 0u64;
    for round in 1..=k {
        let order = if round % 2 == 0 {
            ByteOrder::Little
        } else {
            ByteOrder::Big
        };
        for &g in &groups {
            conn += 1;
            let conn = GwConn(conn);
            accept(&mut shards, conn);
            let request = request_for(round, g.0);
            let actions = feed(&mut shards, conn, &request, order);
            let forwarded: Vec<_> = actions
                .iter()
                .filter_map(|a| match a {
                    Action::Multicast { group, payload } if *group == g => Some(payload),
                    _ => None,
                })
                .collect();
            assert_eq!(forwarded.len(), 1, "round {round} request for {g:?}");
            match DomainMsg::decode(forwarded[0]).expect("Fig. 4 payload") {
                DomainMsg::Iiop { iiop, .. } => {
                    assert_eq!(iiop, request.encode(ByteOrder::Big), "{order:?}")
                }
                other => panic!("expected an invocation, got {other:?}"),
            }
        }
    }

    for &g in &groups {
        let owner = router.route(g);
        for (shard, s) in shards.iter().enumerate() {
            let counter = s.engine().counter_for(g);
            if shard == owner {
                assert_eq!(counter, k, "{g:?}: owner counter dense 1..={k}");
            } else {
                assert_eq!(counter, 0, "{g:?}: state leaked to shard {shard}");
            }
        }
    }
}

/// Connection-lifecycle frames carry no object key, so they reach every
/// shard: a `CloseConnection` marks the connection graceful wherever it
/// holds a client key (each such shard then announces the client gone),
/// and a `MessageError` drops it everywhere at once.
#[test]
fn connection_lifecycle_frames_fan_out_to_every_shard() {
    let (router, mut shards) = fleet();
    // Two groups on two different shards.
    let a = GroupId(5);
    let b = (6..GROUPS)
        .map(GroupId)
        .find(|&g| router.route(g) != router.route(a))
        .expect("some group hashes elsewhere");
    let multicasts_to = |actions: &[Action], to: GroupId| {
        actions
            .iter()
            .filter(|x| matches!(x, Action::Multicast { group, .. } if *group == to))
            .count()
    };

    let graceful = GwConn(1);
    accept(&mut shards, graceful);
    for (id, g) in [(1, a), (2, b)] {
        feed(&mut shards, graceful, &request_for(id, g.0), ByteOrder::Big);
    }
    let bye = feed(
        &mut shards,
        graceful,
        &GiopMessage::CloseConnection,
        ByteOrder::Little,
    );
    assert!(bye.is_empty(), "CloseConnection only marks state: {bye:?}");
    let closed = close(&mut shards, graceful);
    assert_eq!(
        multicasts_to(&closed, GroupId(0x4000_0000)),
        2,
        "both shards holding a key for the client announce it gone: {closed:?}"
    );

    let broken = GwConn(2);
    accept(&mut shards, broken);
    let dropped = feed(
        &mut shards,
        broken,
        &GiopMessage::MessageError,
        ByteOrder::Big,
    );
    assert_eq!(
        dropped,
        vec![Action::CloseClient { conn: broken }; SHARDS],
        "every shard drops the connection"
    );
    assert!(
        close(&mut shards, broken).is_empty(),
        "no shard still knows the connection"
    );
}
