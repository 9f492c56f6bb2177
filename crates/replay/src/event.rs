//! The typed, versioned event vocabulary of a recording.
//!
//! Every nondeterministic input that crossed the gateway boundary during
//! a recorded run becomes one [`ReplayEvent`]: connection accepts,
//! inbound GIOP wire frames (the client's bytes, verbatim),
//! ordered deliveries from the domain, engine clock reads, fault-plan
//! events applied to the domain, and the recovery state a restarted
//! incarnation was seeded from. Engine-driving events additionally carry
//! a CRC of the actions the engine emitted when the event was first
//! processed, so the replayer can pinpoint the *first* diverging event
//! rather than only reporting a final digest mismatch.
//!
//! Encoding is a fixed-layout big-endian byte format (no external
//! serializer): a one-byte tag, then the fields. Unknown tags are a hard
//! decode error — a log written by a future format version must be
//! rejected, not half-read.

pub use ftd_core::RecordedView;
use ftd_eternal::OperationId;
use ftd_totem::GroupId;
use std::io;

/// Magic bytes opening every event log (the header record).
pub const LOG_MAGIC: [u8; 4] = *b"FTDR";

/// Current event-log format version. Bump on any incompatible change to
/// the event vocabulary or field layout.
pub const LOG_VERSION: u32 = 1;

/// The engine-side shape of the recorded gateway: shard count plus the
/// [`ftd_core::EngineConfig`] fields the replayer needs to rebuild
/// engines identical to the recorded ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSetup {
    /// Shard (engine) count of the recorded gateway.
    pub shards: u32,
    /// `EngineConfig::domain`.
    pub domain: u32,
    /// `EngineConfig::group` — the gateway group id.
    pub group: u32,
    /// `EngineConfig::index` — this gateway's index in its domain.
    pub index: u32,
    /// `EngineConfig::peer_domains`.
    pub peer_domains: Vec<u32>,
    /// `EngineConfig::bridge_client_id`.
    pub bridge_client_id: u32,
    /// `EngineConfig::cache_capacity`.
    pub cache_capacity: u64,
    /// `EngineConfig::max_body`.
    pub max_body: u64,
    /// `EngineConfig::persist_responses`.
    pub persist_responses: bool,
    /// `EngineConfig::relay_replies` (out-of-process gateway groups
    /// relay delivered reply bytes to peers — the extra `Multicast`
    /// actions are part of the recorded fingerprint).
    pub relay_replies: bool,
    /// `EngineConfig::sequenced` (the relay layer routed invocations
    /// through the group-wide sequencer; the piggybacked PeerReply
    /// fingerprints are part of the recorded action stream).
    pub sequenced: bool,
}

impl EngineSetup {
    /// Captures the recordable fields of a live config.
    pub fn from_config(config: &ftd_core::EngineConfig, shards: u32) -> Self {
        EngineSetup {
            shards,
            domain: config.domain,
            group: config.group.0,
            index: config.index,
            peer_domains: config.peer_domains.iter().copied().collect(),
            bridge_client_id: config.bridge_client_id,
            cache_capacity: config.cache_capacity as u64,
            max_body: config.max_body as u64,
            persist_responses: config.persist_responses,
            relay_replies: config.relay_replies,
            sequenced: config.sequenced,
        }
    }

    /// Rebuilds the `EngineConfig` the recorded engines ran with.
    pub fn to_config(&self) -> ftd_core::EngineConfig {
        let mut config = ftd_core::EngineConfig::new(self.domain, GroupId(self.group), self.index);
        config.peer_domains = self.peer_domains.iter().copied().collect();
        config.bridge_client_id = self.bridge_client_id;
        config.cache_capacity = self.cache_capacity as usize;
        config.max_body = self.max_body as usize;
        config.persist_responses = self.persist_responses;
        config.relay_replies = self.relay_replies;
        config.sequenced = self.sequenced;
        config
    }
}

/// One object group of the recorded domain topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSpec {
    /// The object group id.
    pub group: u32,
    /// The registered application type name (e.g. `"Counter"`).
    pub type_name: String,
    /// [`ftd_eternal::ReplicationStyle`] as a stable tag (see
    /// [`style_tag`]).
    pub style: u8,
    /// Initial replica count.
    pub initial_replicas: u32,
}

/// Stable on-disk tag for a replication style.
pub fn style_tag(style: ftd_eternal::ReplicationStyle) -> u8 {
    match style {
        ftd_eternal::ReplicationStyle::Stateless => 0,
        ftd_eternal::ReplicationStyle::ColdPassive => 1,
        ftd_eternal::ReplicationStyle::WarmPassive => 2,
        ftd_eternal::ReplicationStyle::Active => 3,
        ftd_eternal::ReplicationStyle::ActiveWithVoting => 4,
    }
}

/// Inverse of [`style_tag`].
pub fn style_from_tag(tag: u8) -> Option<ftd_eternal::ReplicationStyle> {
    Some(match tag {
        0 => ftd_eternal::ReplicationStyle::Stateless,
        1 => ftd_eternal::ReplicationStyle::ColdPassive,
        2 => ftd_eternal::ReplicationStyle::WarmPassive,
        3 => ftd_eternal::ReplicationStyle::Active,
        4 => ftd_eternal::ReplicationStyle::ActiveWithVoting,
        _ => return None,
    })
}

/// One recorded nondeterministic input (or recorded checkpoint of the
/// outcome, for the digest events). See the module docs for the
/// taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayEvent {
    /// Shard count + engine configuration of the recorded gateway.
    /// Written once by `GatewayServer::build` before any traffic.
    EngineSetup(EngineSetup),
    /// The domain topology: how to rebuild the deterministic simulated
    /// world (`DomainHost::try_start(domain, processors, seed, ..)` +
    /// `create_group` per [`GroupSpec`], in order).
    Topology {
        /// The fault tolerance domain id.
        domain: u32,
        /// Simulated processor count.
        processors: u32,
        /// The world seed.
        seed: u64,
        /// Object groups created at startup, in creation order.
        groups: Vec<GroupSpec>,
    },
    /// A client TCP connection was accepted and handed to `shard`.
    ConnAccepted {
        /// The owning shard.
        shard: u32,
        /// The connection id.
        conn: u64,
        /// CRC32 of the actions the engine emitted.
        actions_crc: u32,
    },
    /// One inbound GIOP frame reached the engine (post-framing,
    /// post-admission — replay re-drives the engine, not the reactor).
    /// `bytes` is the complete wire frame exactly as the client sent it.
    ClientMsg {
        /// The owning shard.
        shard: u32,
        /// The connection id.
        conn: u64,
        /// The domain view the engine consulted.
        view: RecordedView,
        /// The complete GIOP wire frame (header + body).
        bytes: Vec<u8>,
        /// CRC32 of the actions the engine emitted.
        actions_crc: u32,
    },
    /// A client connection closed (EOF, error, or engine-initiated).
    ConnClosed {
        /// The owning shard.
        shard: u32,
        /// The connection id.
        conn: u64,
        /// CRC32 of the actions the engine emitted.
        actions_crc: u32,
    },
    /// An ordered delivery from the domain reached `shard`'s engine —
    /// the recorded ring delivery order, one event per (shard, payload).
    Delivery {
        /// The receiving shard.
        shard: u32,
        /// The source group of the delivery (the gateway group).
        group: u32,
        /// The delivered payload bytes.
        payload: Vec<u8>,
        /// The domain view the engine consulted.
        view: RecordedView,
        /// CRC32 of the actions the engine emitted.
        actions_crc: u32,
    },
    /// One engine clock read on `shard` (admission stamps, latency
    /// observations). Replay feeds these back in order through a
    /// `ReplayClock`.
    ClockRead {
        /// The reading shard.
        shard: u32,
        /// The value the clock returned.
        micros: u64,
    },
    /// Recovery seeding: a §3.2 client-id counter restored from the
    /// gateway store into `shard`'s engine before traffic started.
    SeedCounter {
        /// The seeded shard.
        shard: u32,
        /// The server group the counter belongs to.
        server: u32,
        /// The recovered counter value.
        value: u32,
    },
    /// Recovery seeding: a §3.5 cached reply restored from the gateway
    /// store into `shard`'s engine before traffic started.
    RestoreResponse {
        /// The seeded shard.
        shard: u32,
        /// The operation whose reply was restored.
        op: OperationId,
        /// The cached reply bytes.
        reply: Vec<u8>,
    },
    /// Final per-shard digest, written at shard shutdown: the canonical
    /// engine state hash, the running hash of every action emitted, and
    /// the engine-event count.
    ShardDigest {
        /// The shard.
        shard: u32,
        /// `hash64(engine.state_bytes())`.
        engine: u64,
        /// Running [`crate::digest::fold64`] over per-event action CRCs.
        actions: u64,
        /// Engine-driving events processed.
        events: u64,
    },
    /// A multicast submitted to the domain (engine `Action::Multicast`,
    /// recovery re-multicast, or chaos traffic), recorded in the order
    /// the domain thread applied it.
    DomainMulticast {
        /// The destination group.
        group: u32,
        /// The payload bytes.
        payload: Vec<u8>,
    },
    /// One domain pump: the simulated world advanced by `micros` of
    /// virtual time (ordinary ticks and quiesce drain pumps alike).
    DomainTick {
        /// Virtual microseconds advanced.
        micros: u64,
    },
    /// Fault plan: simulated processor `index` crashed.
    DomainCrash {
        /// The processor index.
        index: u32,
    },
    /// Fault plan: simulated processor `index` recovered.
    DomainRecover {
        /// The processor index.
        index: u32,
    },
    /// Recovery seeding: checkpointed object state + logged responses
    /// restored into a group before the recovery re-multicasts ran.
    DomainRestore {
        /// The restored group.
        group: u32,
        /// Checkpointed object state, if any was on disk.
        state: Option<Vec<u8>>,
        /// Logged `(operation, reply)` pairs restored into the group.
        responses: Vec<(OperationId, Vec<u8>)>,
    },
    /// Final domain digest, written at domain-thread shutdown:
    /// `hash_domain_state` over the sorted per-group replica state.
    DomainDigest {
        /// The digest value.
        digest: u64,
        /// Groups contributing state.
        groups: u32,
    },
}

const TAG_ENGINE_SETUP: u8 = 1;
const TAG_TOPOLOGY: u8 = 2;
const TAG_CONN_ACCEPTED: u8 = 3;
const TAG_CLIENT_MSG: u8 = 4;
const TAG_CONN_CLOSED: u8 = 5;
const TAG_DELIVERY: u8 = 6;
const TAG_CLOCK_READ: u8 = 7;
const TAG_SEED_COUNTER: u8 = 8;
const TAG_RESTORE_RESPONSE: u8 = 9;
const TAG_SHARD_DIGEST: u8 = 10;
const TAG_DOMAIN_MULTICAST: u8 = 11;
const TAG_DOMAIN_TICK: u8 = 12;
const TAG_DOMAIN_CRASH: u8 = 13;
const TAG_DOMAIN_RECOVER: u8 = 14;
const TAG_DOMAIN_RESTORE: u8 = 15;
const TAG_DOMAIN_DIGEST: u8 = 16;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend(v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend(v.to_be_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend(bytes);
}

fn put_opid(out: &mut Vec<u8>, id: &OperationId) {
    put_u32(out, id.source.0);
    put_u32(out, id.target.0);
    put_u32(out, id.client);
    put_u64(out, id.parent_ts);
    put_u32(out, id.child_seq);
}

fn put_view(out: &mut Vec<u8>, view: &RecordedView) {
    put_u32(out, view.peers);
    put_u32(out, view.votes.len() as u32);
    for &(g, v) in &view.votes {
        put_u32(out, g);
        out.push(v as u8);
    }
    put_u32(out, view.replicas.len() as u32);
    for &(g, n) in &view.replicas {
        put_u32(out, g);
        put_u32(out, n);
    }
}

/// A bounds-checked big-endian reader over one record payload.
struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(bad("truncated event payload"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn bytes(&mut self) -> io::Result<Vec<u8>> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn opid(&mut self) -> io::Result<OperationId> {
        Ok(OperationId {
            source: GroupId(self.u32()?),
            target: GroupId(self.u32()?),
            client: self.u32()?,
            parent_ts: self.u64()?,
            child_seq: self.u32()?,
        })
    }

    fn view(&mut self) -> io::Result<RecordedView> {
        let peers = self.u32()?;
        let n_votes = self.u32()? as usize;
        let mut votes = Vec::with_capacity(n_votes.min(1024));
        for _ in 0..n_votes {
            let g = self.u32()?;
            let v = self.u8()? != 0;
            votes.push((g, v));
        }
        let n_replicas = self.u32()? as usize;
        let mut replicas = Vec::with_capacity(n_replicas.min(1024));
        for _ in 0..n_replicas {
            let g = self.u32()?;
            let n = self.u32()?;
            replicas.push((g, n));
        }
        Ok(RecordedView {
            peers,
            votes,
            replicas,
        })
    }

    fn done(&self) -> io::Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(bad("trailing bytes after event payload"))
        }
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("ftd-replay: {msg}"))
}

impl ReplayEvent {
    /// Encodes the event as one log-record payload (tag + fields).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            ReplayEvent::EngineSetup(setup) => {
                out.push(TAG_ENGINE_SETUP);
                put_u32(&mut out, setup.shards);
                put_u32(&mut out, setup.domain);
                put_u32(&mut out, setup.group);
                put_u32(&mut out, setup.index);
                put_u32(&mut out, setup.peer_domains.len() as u32);
                for &d in &setup.peer_domains {
                    put_u32(&mut out, d);
                }
                put_u32(&mut out, setup.bridge_client_id);
                put_u64(&mut out, setup.cache_capacity);
                put_u64(&mut out, setup.max_body);
                // Config flags packed into one byte: bit 0
                // persist_responses, bit 1 relay_replies, bit 2
                // sequenced. Recordings written before a bit existed
                // decode it as 0 and replay unchanged.
                out.push(
                    setup.persist_responses as u8
                        | (setup.relay_replies as u8) << 1
                        | (setup.sequenced as u8) << 2,
                );
            }
            ReplayEvent::Topology {
                domain,
                processors,
                seed,
                groups,
            } => {
                out.push(TAG_TOPOLOGY);
                put_u32(&mut out, *domain);
                put_u32(&mut out, *processors);
                put_u64(&mut out, *seed);
                put_u32(&mut out, groups.len() as u32);
                for g in groups {
                    put_u32(&mut out, g.group);
                    put_bytes(&mut out, g.type_name.as_bytes());
                    out.push(g.style);
                    put_u32(&mut out, g.initial_replicas);
                }
            }
            ReplayEvent::ConnAccepted {
                shard,
                conn,
                actions_crc,
            } => {
                out.push(TAG_CONN_ACCEPTED);
                put_u32(&mut out, *shard);
                put_u64(&mut out, *conn);
                put_u32(&mut out, *actions_crc);
            }
            ReplayEvent::ClientMsg {
                shard,
                conn,
                view,
                bytes,
                actions_crc,
            } => {
                out.push(TAG_CLIENT_MSG);
                put_u32(&mut out, *shard);
                put_u64(&mut out, *conn);
                put_view(&mut out, view);
                put_bytes(&mut out, bytes);
                put_u32(&mut out, *actions_crc);
            }
            ReplayEvent::ConnClosed {
                shard,
                conn,
                actions_crc,
            } => {
                out.push(TAG_CONN_CLOSED);
                put_u32(&mut out, *shard);
                put_u64(&mut out, *conn);
                put_u32(&mut out, *actions_crc);
            }
            ReplayEvent::Delivery {
                shard,
                group,
                payload,
                view,
                actions_crc,
            } => {
                out.push(TAG_DELIVERY);
                put_u32(&mut out, *shard);
                put_u32(&mut out, *group);
                put_bytes(&mut out, payload);
                put_view(&mut out, view);
                put_u32(&mut out, *actions_crc);
            }
            ReplayEvent::ClockRead { shard, micros } => {
                out.push(TAG_CLOCK_READ);
                put_u32(&mut out, *shard);
                put_u64(&mut out, *micros);
            }
            ReplayEvent::SeedCounter {
                shard,
                server,
                value,
            } => {
                out.push(TAG_SEED_COUNTER);
                put_u32(&mut out, *shard);
                put_u32(&mut out, *server);
                put_u32(&mut out, *value);
            }
            ReplayEvent::RestoreResponse { shard, op, reply } => {
                out.push(TAG_RESTORE_RESPONSE);
                put_u32(&mut out, *shard);
                put_opid(&mut out, op);
                put_bytes(&mut out, reply);
            }
            ReplayEvent::ShardDigest {
                shard,
                engine,
                actions,
                events,
            } => {
                out.push(TAG_SHARD_DIGEST);
                put_u32(&mut out, *shard);
                put_u64(&mut out, *engine);
                put_u64(&mut out, *actions);
                put_u64(&mut out, *events);
            }
            ReplayEvent::DomainMulticast { group, payload } => {
                out.push(TAG_DOMAIN_MULTICAST);
                put_u32(&mut out, *group);
                put_bytes(&mut out, payload);
            }
            ReplayEvent::DomainTick { micros } => {
                out.push(TAG_DOMAIN_TICK);
                put_u64(&mut out, *micros);
            }
            ReplayEvent::DomainCrash { index } => {
                out.push(TAG_DOMAIN_CRASH);
                put_u32(&mut out, *index);
            }
            ReplayEvent::DomainRecover { index } => {
                out.push(TAG_DOMAIN_RECOVER);
                put_u32(&mut out, *index);
            }
            ReplayEvent::DomainRestore {
                group,
                state,
                responses,
            } => {
                out.push(TAG_DOMAIN_RESTORE);
                put_u32(&mut out, *group);
                match state {
                    Some(bytes) => {
                        out.push(1);
                        put_bytes(&mut out, bytes);
                    }
                    None => out.push(0),
                }
                put_u32(&mut out, responses.len() as u32);
                for (op, reply) in responses {
                    put_opid(&mut out, op);
                    put_bytes(&mut out, reply);
                }
            }
            ReplayEvent::DomainDigest { digest, groups } => {
                out.push(TAG_DOMAIN_DIGEST);
                put_u64(&mut out, *digest);
                put_u32(&mut out, *groups);
            }
        }
        out
    }

    /// Decodes one log-record payload. Unknown tags and malformed
    /// payloads are `InvalidData` errors.
    pub fn decode(payload: &[u8]) -> io::Result<ReplayEvent> {
        let mut c = Cursor { buf: payload };
        let tag = c.u8()?;
        let event = match tag {
            TAG_ENGINE_SETUP => {
                let shards = c.u32()?;
                let domain = c.u32()?;
                let group = c.u32()?;
                let index = c.u32()?;
                let n = c.u32()? as usize;
                let mut peer_domains = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    peer_domains.push(c.u32()?);
                }
                let bridge_client_id = c.u32()?;
                let cache_capacity = c.u64()?;
                let max_body = c.u64()?;
                let flags = c.u8()?;
                ReplayEvent::EngineSetup(EngineSetup {
                    shards,
                    domain,
                    group,
                    index,
                    peer_domains,
                    bridge_client_id,
                    cache_capacity,
                    max_body,
                    persist_responses: flags & 1 != 0,
                    relay_replies: flags & 2 != 0,
                    sequenced: flags & 4 != 0,
                })
            }
            TAG_TOPOLOGY => {
                let domain = c.u32()?;
                let processors = c.u32()?;
                let seed = c.u64()?;
                let n = c.u32()? as usize;
                let mut groups = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let group = c.u32()?;
                    let name = c.bytes()?;
                    let type_name =
                        String::from_utf8(name).map_err(|_| bad("non-UTF-8 group type name"))?;
                    let style = c.u8()?;
                    let initial_replicas = c.u32()?;
                    groups.push(GroupSpec {
                        group,
                        type_name,
                        style,
                        initial_replicas,
                    });
                }
                ReplayEvent::Topology {
                    domain,
                    processors,
                    seed,
                    groups,
                }
            }
            TAG_CONN_ACCEPTED => ReplayEvent::ConnAccepted {
                shard: c.u32()?,
                conn: c.u64()?,
                actions_crc: c.u32()?,
            },
            TAG_CLIENT_MSG => ReplayEvent::ClientMsg {
                shard: c.u32()?,
                conn: c.u64()?,
                view: c.view()?,
                bytes: c.bytes()?,
                actions_crc: c.u32()?,
            },
            TAG_CONN_CLOSED => ReplayEvent::ConnClosed {
                shard: c.u32()?,
                conn: c.u64()?,
                actions_crc: c.u32()?,
            },
            TAG_DELIVERY => ReplayEvent::Delivery {
                shard: c.u32()?,
                group: c.u32()?,
                payload: c.bytes()?,
                view: c.view()?,
                actions_crc: c.u32()?,
            },
            TAG_CLOCK_READ => ReplayEvent::ClockRead {
                shard: c.u32()?,
                micros: c.u64()?,
            },
            TAG_SEED_COUNTER => ReplayEvent::SeedCounter {
                shard: c.u32()?,
                server: c.u32()?,
                value: c.u32()?,
            },
            TAG_RESTORE_RESPONSE => ReplayEvent::RestoreResponse {
                shard: c.u32()?,
                op: c.opid()?,
                reply: c.bytes()?,
            },
            TAG_SHARD_DIGEST => ReplayEvent::ShardDigest {
                shard: c.u32()?,
                engine: c.u64()?,
                actions: c.u64()?,
                events: c.u64()?,
            },
            TAG_DOMAIN_MULTICAST => ReplayEvent::DomainMulticast {
                group: c.u32()?,
                payload: c.bytes()?,
            },
            TAG_DOMAIN_TICK => ReplayEvent::DomainTick { micros: c.u64()? },
            TAG_DOMAIN_CRASH => ReplayEvent::DomainCrash { index: c.u32()? },
            TAG_DOMAIN_RECOVER => ReplayEvent::DomainRecover { index: c.u32()? },
            TAG_DOMAIN_RESTORE => {
                let group = c.u32()?;
                let state = match c.u8()? {
                    0 => None,
                    1 => Some(c.bytes()?),
                    _ => return Err(bad("bad state presence byte")),
                };
                let n = c.u32()? as usize;
                let mut responses = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let op = c.opid()?;
                    let reply = c.bytes()?;
                    responses.push((op, reply));
                }
                ReplayEvent::DomainRestore {
                    group,
                    state,
                    responses,
                }
            }
            TAG_DOMAIN_DIGEST => ReplayEvent::DomainDigest {
                digest: c.u64()?,
                groups: c.u32()?,
            },
            other => return Err(bad(&format!("unknown event tag {other}"))),
        };
        c.done()?;
        Ok(event)
    }
}

/// Encodes the log header record (`FTDR` + version).
pub fn encode_header(version: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(8);
    out.extend(LOG_MAGIC);
    out.extend(version.to_be_bytes());
    out
}

/// Decodes and validates a log header record, returning the version.
pub fn decode_header(payload: &[u8]) -> io::Result<u32> {
    if payload.len() != 8 || payload[..4] != LOG_MAGIC {
        return Err(bad("missing FTDR log header"));
    }
    let version = u32::from_be_bytes(payload[4..8].try_into().expect("4"));
    if version == 0 || version > LOG_VERSION {
        return Err(bad(&format!(
            "unsupported event-log version {version} (supported: 1..={LOG_VERSION})"
        )));
    }
    Ok(version)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(n: u32) -> OperationId {
        OperationId {
            source: GroupId(0x4000_0001),
            target: GroupId(10),
            client: 0x5000 + n,
            parent_ts: 7,
            child_seq: n,
        }
    }

    #[test]
    fn every_event_round_trips() {
        let view = RecordedView {
            peers: 2,
            votes: vec![(10, true), (11, false)],
            replicas: vec![(10, 3)],
        };
        let events = vec![
            ReplayEvent::EngineSetup(EngineSetup {
                shards: 4,
                domain: 9,
                group: 0x4000_0009,
                index: 0,
                peer_domains: vec![2, 3],
                bridge_client_id: 0x6000_0900,
                cache_capacity: 4096,
                max_body: 1 << 20,
                persist_responses: true,
                relay_replies: true,
                sequenced: true,
            }),
            ReplayEvent::Topology {
                domain: 9,
                processors: 4,
                seed: 42,
                groups: vec![GroupSpec {
                    group: 10,
                    type_name: "Counter".into(),
                    style: 3,
                    initial_replicas: 3,
                }],
            },
            ReplayEvent::ConnAccepted {
                shard: 1,
                conn: 7,
                actions_crc: 0xDEAD_BEEF,
            },
            ReplayEvent::ClientMsg {
                shard: 1,
                conn: 7,
                view: view.clone(),
                bytes: b"GIOP....".to_vec(),
                actions_crc: 1,
            },
            ReplayEvent::ConnClosed {
                shard: 1,
                conn: 7,
                actions_crc: 2,
            },
            ReplayEvent::Delivery {
                shard: 0,
                group: 0x4000_0009,
                payload: vec![1, 2, 3],
                view,
                actions_crc: 3,
            },
            ReplayEvent::ClockRead {
                shard: 2,
                micros: 123_456,
            },
            ReplayEvent::SeedCounter {
                shard: 0,
                server: 10,
                value: 5,
            },
            ReplayEvent::RestoreResponse {
                shard: 0,
                op: op(1),
                reply: b"reply".to_vec(),
            },
            ReplayEvent::ShardDigest {
                shard: 3,
                engine: 0xAA,
                actions: 0xBB,
                events: 12,
            },
            ReplayEvent::DomainMulticast {
                group: 10,
                payload: vec![9, 9],
            },
            ReplayEvent::DomainTick { micros: 2000 },
            ReplayEvent::DomainCrash { index: 2 },
            ReplayEvent::DomainRecover { index: 2 },
            ReplayEvent::DomainRestore {
                group: 10,
                state: Some(vec![0, 0, 0, 9]),
                responses: vec![(op(2), b"r2".to_vec())],
            },
            ReplayEvent::DomainRestore {
                group: 11,
                state: None,
                responses: vec![],
            },
            ReplayEvent::DomainDigest {
                digest: 0xC0FFEE,
                groups: 1,
            },
        ];
        for event in events {
            let bytes = event.encode();
            let back = ReplayEvent::decode(&bytes).expect("decode");
            assert_eq!(back, event);
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let err = ReplayEvent::decode(&[200, 0, 0]).expect_err("unknown tag");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unknown event tag"));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = ReplayEvent::DomainTick { micros: 1 }.encode();
        bytes.push(0);
        assert!(ReplayEvent::decode(&bytes).is_err());
    }

    #[test]
    fn header_round_trips_and_rejects_future_versions() {
        let header = encode_header(LOG_VERSION);
        assert_eq!(decode_header(&header).expect("current"), LOG_VERSION);
        let future = encode_header(LOG_VERSION + 1);
        assert!(decode_header(&future).is_err());
        assert!(decode_header(b"NOPE\x00\x00\x00\x01").is_err());
    }
}
