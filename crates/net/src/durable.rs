//! Durable logging-recovery for the in-process domain: §2's
//! Logging-Recovery Mechanisms backed by a real filesystem.
//!
//! [`DurableHost`] wraps a [`DomainHost`] and implements the same
//! [`DomainBackend`] surface, adding exactly what the paper's mechanisms
//! add: every invocation the gateway multicasts into the domain is paired
//! with the response the replicas produce and appended — as an
//! [`OpRecord`] — to a per-group [`GroupLog`] whose [`LogSink`] writes an
//! `ftd-store` write-ahead log. Periodically (only while no invocation is
//! outstanding, so checkpointed state never contains unlogged work) the
//! replica state is checkpointed atomically and the log truncated.
//!
//! Recovery ([`DurableHost::open`]) is recovery-by-replay: checkpointed
//! state and the retained responses are installed into the fresh replicas
//! (priming duplicate detection), then the logged post-checkpoint
//! invocations are re-multicast through the ring — deterministic
//! re-execution *is* the replay, exactly as for a cold-passive failover —
//! and the domain is pumped until the replayed operations are answered
//! again. Operations already answered before the crash are thereby never
//! executed twice, and no acknowledged response is lost.

use crate::backend::DomainBackend;
use crate::host::{DomainHost, HostView};
use crate::store::{read_len_bytes, read_opid, write_len_bytes, write_opid};
use ftd_eternal::{
    DomainMsg, FtHeader, GroupLog, LogSink, OpRecord, OpTable, OperationId, OperationKind,
};
use ftd_obs::Registry;
use ftd_sim::SimDuration;
use ftd_store::{checkpoint, FsyncPolicy, Wal, WalOptions};
use ftd_totem::GroupId;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Upper bound on invocations awaiting their response pairing. Beyond it
/// the oldest pending invocation is dropped from the durability pipeline
/// (it will simply not be recoverable — the client never got an ack).
const MAX_PENDING: usize = 8192;

/// Checkpoint after this many logged operations per group.
const CHECKPOINT_EVERY_OPS: usize = 32;

/// Virtual-time slice used while pumping recovery replay.
const REPLAY_TICK: SimDuration = SimDuration::from_millis(2);

/// Bound on recovery replay pumping (ticks), so a domain that cannot
/// re-execute (e.g. every replica host crashed in the plan) fails the
/// open instead of hanging it.
const REPLAY_TICK_BUDGET: usize = 2000;

/// What [`DurableHost::open`] rebuilt from stable storage.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DomainRecovery {
    /// Groups that had durable state on disk.
    pub groups_recovered: usize,
    /// Responses installed into duplicate detection (checkpoint +
    /// already-answered log records).
    pub responses_restored: usize,
    /// Logged invocations re-multicast and re-executed through the ring.
    pub ops_replayed: usize,
}

/// The [`LogSink`] wiring one group's [`GroupLog`] to its on-disk WAL and
/// checkpoint file.
struct GroupStore {
    wal: Wal,
    checkpoint_path: PathBuf,
    registry: Option<Arc<Registry>>,
}

impl LogSink for GroupStore {
    fn on_append(&mut self, record: &OpRecord) {
        let mut buf = Vec::with_capacity(32 + record.invocation.len() + record.response.len());
        write_opid(&mut buf, &record.operation);
        write_len_bytes(&mut buf, &record.invocation);
        write_len_bytes(&mut buf, &record.response);
        // An append failure degrades durability, not service: the record
        // stays in memory and the next checkpoint captures its effects.
        let _ = self.wal.append(&buf);
    }

    fn on_checkpoint(&mut self, state: &[u8], responses: &[(OperationId, Vec<u8>)]) {
        let mut payload = Vec::new();
        write_len_bytes(&mut payload, state);
        payload.extend((responses.len() as u32).to_be_bytes());
        for (op, reply) in responses {
            write_opid(&mut payload, op);
            write_len_bytes(&mut payload, reply);
        }
        if checkpoint::write(&self.checkpoint_path, &payload, self.registry.as_ref()).is_ok() {
            // Only truncate the log once the checkpoint is durable — on
            // failure the log still covers everything.
            let _ = self.wal.reset();
        }
    }
}

fn decode_op_record(bytes: &[u8]) -> Option<OpRecord> {
    let (operation, rest) = read_opid(bytes)?;
    let (invocation, rest) = read_len_bytes(rest)?;
    let (response, _) = read_len_bytes(rest)?;
    Some(OpRecord {
        operation,
        invocation: invocation.to_vec(),
        response: response.to_vec(),
    })
}

/// Decoded group checkpoint: replica state + the §3.3 response window.
type GroupCheckpoint = (Vec<u8>, Vec<(OperationId, Vec<u8>)>);

fn decode_group_checkpoint(payload: &[u8]) -> Option<GroupCheckpoint> {
    let (state, rest) = read_len_bytes(payload)?;
    let (head, mut rest) = rest.split_at_checked(4)?;
    let n = u32::from_be_bytes(head.try_into().expect("4 bytes")) as usize;
    let mut responses = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let (op, r) = read_opid(rest)?;
        let (reply, r) = read_len_bytes(r)?;
        responses.push((op, reply.to_vec()));
        rest = r;
    }
    Some((state.to_vec(), responses))
}

/// A [`DomainHost`] with §2 Logging-Recovery Mechanisms persisted under a
/// data directory. See the module docs.
pub struct DurableHost {
    inner: DomainHost,
    dir: PathBuf,
    fsync: FsyncPolicy,
    registry: Option<Arc<Registry>>,
    logs: BTreeMap<GroupId, GroupLog>,
    /// Invocations multicast but not yet paired with their response.
    pending: OpTable<Vec<u8>>,
}

impl std::fmt::Debug for DurableHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableHost")
            .field("inner", &self.inner)
            .field("dir", &self.dir)
            .field("groups", &self.logs.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl DurableHost {
    /// Wraps `inner` with durable logging under `data_dir/domain`,
    /// replaying any state a previous incarnation left there. Call after
    /// the domain's groups are created, so recovery can find their
    /// replicas.
    pub fn open(
        inner: DomainHost,
        data_dir: &Path,
        fsync: FsyncPolicy,
        registry: Option<Arc<Registry>>,
    ) -> io::Result<(DurableHost, DomainRecovery)> {
        Self::open_recording(inner, data_dir, fsync, registry, None)
    }

    /// [`DurableHost::open`] with a replay [`Recorder`](ftd_replay::Recorder)
    /// tap: the per-group restores and the recovery replay's multicasts
    /// and pump ticks are logged as ordinary domain events, so a replayer
    /// re-drives recovery through a plain [`DomainHost`] with no special
    /// recovery logic. The recorder is borrowed only for the open — after
    /// recovery, the domain thread's own taps take over.
    pub fn open_recording(
        inner: DomainHost,
        data_dir: &Path,
        fsync: FsyncPolicy,
        registry: Option<Arc<Registry>>,
        recorder: Option<&ftd_replay::Recorder>,
    ) -> io::Result<(DurableHost, DomainRecovery)> {
        let dir = data_dir.join("domain");
        std::fs::create_dir_all(&dir)?;
        let mut host = DurableHost {
            inner,
            dir,
            fsync,
            registry,
            logs: BTreeMap::new(),
            pending: OpTable::new(MAX_PENDING),
        };
        let mut report = DomainRecovery::default();
        let mut replay: Vec<OpRecord> = Vec::new();
        for group in host.inner.groups() {
            let group_dir = host.group_dir(group);
            let had_state = group_dir.exists();
            let checkpoint_path = group_dir.join("checkpoint.bin");
            let (state, cp_responses) = match checkpoint::read(&checkpoint_path)? {
                Some(payload) => match decode_group_checkpoint(&payload) {
                    Some((state, responses)) => (Some(state), responses),
                    None => (None, Vec::new()),
                },
                None => (None, Vec::new()),
            };
            let options = WalOptions {
                fsync: host.fsync,
                registry: host.registry.clone(),
                ..WalOptions::default()
            };
            let (wal, records, _) = Wal::open(group_dir.join("wal"), options)?;
            let ops: Vec<OpRecord> = records.iter().filter_map(|r| decode_op_record(r)).collect();

            if had_state {
                report.groups_recovered += 1;
            }
            // Install checkpointed state + every already-answered response
            // into the fresh replicas: duplicate detection now suppresses
            // re-execution of anything answered before the crash.
            report.responses_restored += cp_responses.len();
            if let Some(rec) = recorder {
                rec.record(&ftd_replay::ReplayEvent::DomainRestore {
                    group: group.0,
                    state: state.clone(),
                    responses: cp_responses.clone(),
                });
            }
            host.inner
                .restore_group(group, state.as_deref(), &cp_responses);
            // Post-checkpoint logged ops are re-executed through the ring
            // (skipping any the checkpoint already covers — a crash inside
            // the checkpoint window can leave such records in the log).
            replay.extend(
                ops.iter()
                    .filter(|rec| !cp_responses.iter().any(|(op, _)| *op == rec.operation))
                    .cloned(),
            );

            let mut log = GroupLog::new();
            log.restore(state, ops, cp_responses);
            log.set_sink(Box::new(GroupStore {
                wal,
                checkpoint_path,
                registry: host.registry.clone(),
            }));
            host.logs.insert(group, log);
        }
        report.ops_replayed = replay.len();
        host.replay(replay, recorder)?;
        Ok((host, report))
    }

    fn group_dir(&self, group: GroupId) -> PathBuf {
        self.dir.join(format!("group-{:08x}", group.0))
    }

    /// Re-multicasts logged invocations and pumps the domain until every
    /// one is answered again (deterministic re-execution is the replay).
    fn replay(
        &mut self,
        records: Vec<OpRecord>,
        recorder: Option<&ftd_replay::Recorder>,
    ) -> io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let mut awaiting: Vec<OperationId> = Vec::with_capacity(records.len());
        for rec in records {
            let op = rec.operation;
            let msg = DomainMsg::Iiop {
                header: FtHeader {
                    client: op.client,
                    source: op.source,
                    target: op.target,
                    kind: OperationKind::Invocation,
                    parent_ts: op.parent_ts,
                    child_seq: op.child_seq,
                },
                iiop: rec.invocation.clone(),
            };
            // Keep the invocation pending so the re-produced response is
            // re-appended to the (reset-on-checkpoint) log as usual.
            self.pending.insert(op, rec.invocation);
            let payload = msg.encode();
            if let Some(r) = recorder {
                r.record(&ftd_replay::ReplayEvent::DomainMulticast {
                    group: op.target.0,
                    payload: payload.clone(),
                });
            }
            self.inner.multicast(op.target, payload);
            awaiting.push(op);
        }
        for _ in 0..REPLAY_TICK_BUDGET {
            if awaiting.is_empty() {
                return Ok(());
            }
            if let Some(r) = recorder {
                r.record(&ftd_replay::ReplayEvent::DomainTick {
                    micros: REPLAY_TICK.as_micros(),
                });
            }
            // pump() both drains deliveries and logs answered pairs.
            for (_, payload) in DurableHost::pump(self, REPLAY_TICK) {
                if let Ok(DomainMsg::Iiop { header, .. }) = DomainMsg::decode(&payload) {
                    if header.kind == OperationKind::Response {
                        let op = header.operation_id();
                        awaiting.retain(|a| *a != op);
                    }
                }
            }
        }
        Err(io::Error::other(format!(
            "domain replay stalled: {} of the logged operations were never re-answered",
            awaiting.len()
        )))
    }

    /// The group's log, creating it (with its on-disk sink) on first use —
    /// groups can be created after the host was opened.
    fn log_for(&mut self, group: GroupId) -> io::Result<&mut GroupLog> {
        if !self.logs.contains_key(&group) {
            let group_dir = self.group_dir(group);
            std::fs::create_dir_all(&group_dir)?;
            let options = WalOptions {
                fsync: self.fsync,
                registry: self.registry.clone(),
                ..WalOptions::default()
            };
            let (wal, _, _) = Wal::open(group_dir.join("wal"), options)?;
            let mut log = GroupLog::new();
            log.set_sink(Box::new(GroupStore {
                wal,
                checkpoint_path: group_dir.join("checkpoint.bin"),
                registry: self.registry.clone(),
            }));
            self.logs.insert(group, log);
        }
        Ok(self.logs.get_mut(&group).expect("just inserted"))
    }

    /// Read access to the wrapped host (tests, diagnostics).
    pub fn inner(&self) -> &DomainHost {
        &self.inner
    }
}

impl DomainBackend for DurableHost {
    fn domain(&self) -> u32 {
        self.inner.domain()
    }

    fn gateway_group(&self) -> GroupId {
        self.inner.gateway_group()
    }

    fn is_operational(&self) -> bool {
        self.inner.is_operational()
    }

    /// Forwards to the wrapped host, remembering Fig. 4 invocations so
    /// [`DurableHost::pump`] can pair them with their responses.
    fn multicast(&mut self, group: GroupId, payload: Vec<u8>) {
        if let Ok(DomainMsg::Iiop { header, iiop }) = DomainMsg::decode(&payload) {
            if header.kind == OperationKind::Invocation {
                let op = header.operation_id();
                let answered = self
                    .logs
                    .get(&op.target)
                    .is_some_and(|log| log.response_for(&op).is_some());
                if !answered {
                    self.pending.insert(op, iiop);
                }
            }
        }
        self.inner.multicast(group, payload);
    }

    /// Pumps the wrapped host and appends an [`OpRecord`] for every
    /// response that answers a pending invocation — *before* returning
    /// the deliveries, so the record is on disk before the gateway can
    /// acknowledge the reply to a client.
    fn pump(&mut self, d: SimDuration) -> Vec<(GroupId, Vec<u8>)> {
        let deliveries = self.inner.pump(d);
        for (_, payload) in &deliveries {
            let Ok(DomainMsg::Iiop { header, iiop }) = DomainMsg::decode(payload) else {
                continue;
            };
            if header.kind != OperationKind::Response {
                continue;
            }
            let op = header.operation_id();
            let Some(invocation) = self.pending.remove(&op) else {
                continue;
            };
            if let Ok(log) = self.log_for(op.target) {
                if log.response_for(&op).is_none() {
                    let evicted = log.append(OpRecord {
                        operation: op,
                        invocation,
                        response: iiop.clone(),
                    });
                    if evicted > 0 {
                        if let Some(r) = &self.registry {
                            r.add("eternal.responses_evicted", evicted);
                        }
                    }
                }
            }
        }
        deliveries
    }

    fn view(&self) -> HostView {
        self.inner.view()
    }

    fn crash_processor(&mut self, index: usize) -> bool {
        self.inner.crash_processor(index)
    }

    fn recover_processor(&mut self, index: usize) -> bool {
        self.inner.recover_processor(index)
    }

    fn bind_stats(&mut self, registry: Arc<Registry>) {
        self.inner.bind_stats(registry)
    }

    fn state_bytes(&self) -> Vec<(u32, Vec<u8>)> {
        self.inner.state_bytes()
    }

    fn export_groups(&self) -> Vec<crate::backend::GroupSnapshot> {
        self.inner.export_groups()
    }

    /// Installs a peer's transferred snapshots and checkpoints each
    /// installed group's durable log at the new state, so a crash right
    /// after the transfer recovers to the transferred state rather than
    /// to the stale pre-transfer log.
    fn install_groups(&mut self, groups: &[crate::backend::GroupSnapshot]) -> usize {
        let installed = self.inner.install_groups(groups);
        for snap in groups {
            if let Some(log) = self.logs.get_mut(&GroupId(snap.group)) {
                if let Some(state) = self.inner.replica_state(GroupId(snap.group)) {
                    log.checkpoint(state);
                }
            }
        }
        installed
    }

    /// Checkpoints any group whose log has grown past the threshold —
    /// but only while no invocation is outstanding, so the checkpointed
    /// state never contains effects whose records are not yet logged.
    fn maintain(&mut self) {
        if !self.pending.is_empty() {
            return;
        }
        let due: Vec<GroupId> = self
            .logs
            .iter()
            .filter(|(_, log)| log.op_count() >= CHECKPOINT_EVERY_OPS)
            .map(|(&g, _)| g)
            .collect();
        for group in due {
            if let Some(state) = self.inner.replica_state(group) {
                if let Some(log) = self.logs.get_mut(&group) {
                    log.checkpoint(state);
                }
            }
        }
    }
}
