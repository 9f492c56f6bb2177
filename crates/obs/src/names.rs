//! Well-known metric names shared across crates.
//!
//! Most metrics are owned by a single component and named locally (the
//! engine's `gateway.*` counters are pinned by `ftd-core`'s
//! `ENGINE_COUNTERS`). The names here are different: they are written by
//! one crate and read by another — the gateway front end sets the health
//! gauge that the chaos soak harness asserts on; the net client counts
//! the reconnects the soak report aggregates. Centralizing them keeps
//! the producer and the consumer from drifting apart.

/// Gateway serving health, as exposed by `GET /health`: `1` while the
/// fault tolerance domain behind the gateway is reachable and its ring
/// operational, `0` while degraded (new connections are shed).
pub const GATEWAY_HEALTH: &str = "gateway.health";

/// Connections refused at accept time because the gateway was degraded.
pub const NET_CONNECTIONS_SHED: &str = "net.connections_shed";

/// `accept(2)` calls on the gateway's client listener that failed — at
/// the process's descriptor limit (`EMFILE`), typically. Each failure
/// is followed by a growing pause, so the listener does not spin.
pub const NET_ACCEPT_ERRORS: &str = "net.accept_errors";

/// Connections closed because a client outran the bounded
/// per-connection inbound queue.
pub const NET_QUEUE_OVERFLOWS: &str = "net.queue_overflows";

/// Sockets currently registered with a shard's reactor (gauge, labelled
/// per shard via [`with_shard`]) — the live connection count each
/// `poll(2)` call watches.
pub const NET_REACTOR_FDS: &str = "net.reactor.registered_fds";

/// Reactor poll returns that reported at least one ready descriptor —
/// the event-loop activity counter (idle ticks poll too, but time out
/// empty).
pub const NET_REACTOR_WAKEUPS: &str = "net.reactor.wakeups";

/// Reply writes that could not complete in one nonblocking syscall and
/// queued their remainder for write-readiness — the backpressure
/// signature of slow-reading clients.
pub const NET_REACTOR_PARTIAL_WRITES: &str = "net.reactor.partial_writes";

/// Client-side reconnect attempts performed by the §3.5
/// reconnect-and-reissue path.
pub const CLIENT_RECONNECTS: &str = "client.reconnects";

/// Client-side request reissues (same request id resent after a
/// connection failure or reply timeout).
pub const CLIENT_REISSUES: &str = "client.reissues";

/// Events processed by one engine shard (labelled per shard via
/// [`with_shard`]) — queue traffic, not client requests.
pub const GATEWAY_SHARD_EVENTS: &str = "gateway.shard.events";

/// Requests a shard deferred across a tick boundary: its admission
/// window stayed full through the end-of-tick batch pass, so the
/// request waited at least one full tick. With batch admission this is
/// the exception, not the steady state.
pub const GATEWAY_SHARD_DEFERRALS: &str = "gateway.shard.deferrals";

/// Requests admitted by the end-of-tick batch pass (window slots that
/// opened during the tick were granted before any deferral was
/// counted).
pub const GATEWAY_SHARD_TICK_ADMITS: &str = "gateway.shard.tick_admits";

/// Requests a shard currently has admitted into the domain (gauge,
/// labelled per shard via [`with_shard`]).
pub const GATEWAY_SHARD_INFLIGHT: &str = "gateway.shard.inflight";

/// Records appended to a write-ahead log by `ftd-store`.
pub const STORE_APPENDS: &str = "store.appends";

/// Bytes appended (frames included) to a write-ahead log.
pub const STORE_BYTES_APPENDED: &str = "store.bytes_appended";

/// Explicit fsyncs issued by a write-ahead log's durability policy.
pub const STORE_FSYNCS: &str = "store.fsyncs";

/// Write-ahead log segment rotations.
pub const STORE_SEGMENTS_ROTATED: &str = "store.segments_rotated";

/// Atomic checkpoint files written (write-temp + rename).
pub const STORE_CHECKPOINTS_WRITTEN: &str = "store.checkpoints_written";

/// Intact records replayed from write-ahead logs at recovery.
pub const STORE_REPLAY_RECORDS: &str = "store.replay_records";

/// Torn log tails truncated during replay (the expected crash signature:
/// a frame cut short mid-append).
pub const STORE_TORN_TAILS_TRUNCATED: &str = "store.torn_tails_truncated";

/// Corrupt mid-log frames found during replay; the log was truncated at
/// the first one because ordering past a hole cannot be trusted.
pub const STORE_CORRUPT_RECORDS_DROPPED: &str = "store.corrupt_records_dropped";

/// §3.5 cached replies a restarted gateway recovered from stable
/// storage and seeded back into its engines.
pub const STORE_RESPONSES_RECOVERED: &str = "store.responses_recovered";

/// Current gateway-group membership size (gauge, self included).
pub const GROUP_MEMBERS: &str = "group.members";

/// Membership view changes of any kind (join + rejoin + leave +
/// suspicion); the view number itself is exposed by `GroupNode::view`.
pub const GROUP_VIEW_CHANGES: &str = "group.view_changes";

/// Members added to the view (first announce or restart re-announce).
pub const GROUP_JOINS: &str = "group.joins";

/// Members removed by a graceful Leave datagram.
pub const GROUP_LEAVES: &str = "group.leaves";

/// Members removed by suspicion (missed heartbeats).
pub const GROUP_SUSPECTS: &str = "group.suspects";

/// Membership heartbeats sent to peers.
pub const GROUP_HEARTBEATS_SENT: &str = "group.heartbeats_sent";

/// Membership heartbeats received from known peers.
pub const GROUP_HEARTBEATS_RECEIVED: &str = "group.heartbeats_received";

/// Relay frames written to peer links (per destination peer).
pub const GROUP_RELAY_FRAMES_SENT: &str = "group.relay_frames_sent";

/// Relay frames received from peer links.
pub const GROUP_RELAY_FRAMES_RECEIVED: &str = "group.relay_frames_received";

/// Outbound relay connections established (dial + Hello).
pub const GROUP_RELAY_CONNECTS: &str = "group.relay_connects";

/// Relay link failures: failed dials, dropped writes, torn or
/// malformed inbound frames.
pub const GROUP_RELAY_ERRORS: &str = "group.relay_errors";

/// Redial attempts to a peer whose link previously failed — each one is
/// a reconnect try made after the exponential backoff window elapsed.
pub const GROUP_RECONNECTS: &str = "group.reconnects";

/// Reply-bytes CRC or rolling state-digest mismatches detected against
/// a peer's piggybacked values — the replica-divergence alarm.
pub const GROUP_DIVERGENCE: &str = "group.divergence";

/// Members that self-fenced after detecting they diverged from the
/// majority (stopped serving, left the view).
pub const GROUP_FENCED: &str = "group.fenced";

/// Sequence-gap re-requests sent to peers to fill holes in the apply
/// order.
pub const GROUP_GAP_REQUESTS: &str = "group.gap_requests";

/// Full state transfers served to rejoining or lagging members.
pub const GROUP_STATE_TRANSFERS: &str = "group.state_transfers";

/// Invocations stamped with a group sequence number by this member
/// while it was the leader.
pub const GROUP_SEQ_STAMPED: &str = "group.seq_stamped";

/// Submissions dropped because the member had no quorum (its view fell
/// below the majority of the configured group size) — the client
/// retries against a majority member.
pub const GROUP_NO_QUORUM_DROPS: &str = "group.no_quorum_drops";

/// Profile switches performed by an enhanced client walking a
/// multi-profile IOR: a successful (re)connect landed on a different
/// profile than the previous connection used.
pub const CLIENT_PROFILE_SWITCHES: &str = "client.profile_switches";

/// Attaches a `shard` label to a per-shard metric name, in the same
/// `{label="value"}` form the Prometheus renderer splits back out:
/// `with_shard("gateway.shard.events", 2)` →
/// `gateway.shard.events{shard="2"}`.
pub fn with_shard(name: &str, shard: usize) -> String {
    format!("{name}{{shard=\"{shard}\"}}")
}

#[cfg(test)]
mod tests {
    #[test]
    fn names_follow_the_component_metric_convention() {
        for name in [
            super::GATEWAY_HEALTH,
            super::NET_CONNECTIONS_SHED,
            super::NET_ACCEPT_ERRORS,
            super::NET_QUEUE_OVERFLOWS,
            super::NET_REACTOR_FDS,
            super::NET_REACTOR_WAKEUPS,
            super::NET_REACTOR_PARTIAL_WRITES,
            super::CLIENT_RECONNECTS,
            super::CLIENT_REISSUES,
            super::GATEWAY_SHARD_EVENTS,
            super::GATEWAY_SHARD_DEFERRALS,
            super::GATEWAY_SHARD_TICK_ADMITS,
            super::GATEWAY_SHARD_INFLIGHT,
            super::STORE_APPENDS,
            super::STORE_BYTES_APPENDED,
            super::STORE_FSYNCS,
            super::STORE_SEGMENTS_ROTATED,
            super::STORE_CHECKPOINTS_WRITTEN,
            super::STORE_REPLAY_RECORDS,
            super::STORE_TORN_TAILS_TRUNCATED,
            super::STORE_CORRUPT_RECORDS_DROPPED,
            super::STORE_RESPONSES_RECOVERED,
            super::GROUP_MEMBERS,
            super::GROUP_VIEW_CHANGES,
            super::GROUP_JOINS,
            super::GROUP_LEAVES,
            super::GROUP_SUSPECTS,
            super::GROUP_HEARTBEATS_SENT,
            super::GROUP_HEARTBEATS_RECEIVED,
            super::GROUP_RELAY_FRAMES_SENT,
            super::GROUP_RELAY_FRAMES_RECEIVED,
            super::GROUP_RELAY_CONNECTS,
            super::GROUP_RELAY_ERRORS,
            super::GROUP_RECONNECTS,
            super::GROUP_DIVERGENCE,
            super::GROUP_FENCED,
            super::GROUP_GAP_REQUESTS,
            super::GROUP_STATE_TRANSFERS,
            super::GROUP_SEQ_STAMPED,
            super::GROUP_NO_QUORUM_DROPS,
            super::CLIENT_PROFILE_SWITCHES,
        ] {
            assert!(
                name.split_once('.').is_some_and(|(component, metric)| {
                    !component.is_empty()
                        && !metric.is_empty()
                        && name
                            .chars()
                            .all(|c| c.is_ascii_lowercase() || c == '.' || c == '_')
                }),
                "well-known names are lowercase component.metric identifiers: {name}"
            );
        }
    }

    #[test]
    fn with_shard_attaches_a_renderable_label() {
        assert_eq!(
            super::with_shard(super::GATEWAY_SHARD_EVENTS, 2),
            "gateway.shard.events{shard=\"2\"}"
        );
    }
}
