//! The Logging-Recovery Mechanisms (§2, Fig. 2): per-group message logs,
//! checkpoints, and the records that make passive failover, state
//! transfer, and — through a [`LogSink`] — restart recovery possible.

use crate::{OpTable, OperationId};

/// One replayable operation record (cold-passive log entry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// The operation's identifier.
    pub operation: OperationId,
    /// The invocation's IIOP bytes (enough to re-execute).
    pub invocation: Vec<u8>,
    /// The response the primary produced.
    pub response: Vec<u8>,
}

/// Where a [`GroupLog`]'s appends and checkpoints go *besides* memory.
///
/// The in-memory log is the paper's model; a sink is its stable storage
/// (Fig. 2's "logging-recovery mechanisms" box writes to disk). `ftd-net`
/// implements this over `ftd-store`'s write-ahead log + checkpoint files;
/// hosts without stable storage simply attach no sink.
///
/// Ordering contract: [`LogSink::on_append`] is called *before* the
/// record is considered logged — a host that acknowledges an operation
/// after `append` returns knows the record reached the sink.
pub trait LogSink: Send {
    /// A new operation record was appended.
    fn on_append(&mut self, record: &OpRecord);
    /// A checkpoint replaced the operation log. `responses` is the full
    /// retained-response set at checkpoint time, so recovery can answer
    /// pre-checkpoint duplicates without the (truncated) records.
    fn on_checkpoint(&mut self, state: &[u8], responses: &[(OperationId, Vec<u8>)]);
}

/// Per-group log: a state checkpoint plus the operations executed since.
///
/// * Warm passive backups keep only the latest state (they apply updates
///   eagerly) but still log responses for duplicate answering.
/// * Cold passive backups keep checkpoint + op log and replay on failover.
///
/// Response retention is bounded ([`GroupLog::with_capacity`]): the
/// duplicate-answering window slides, evicting the oldest response once
/// the cap is reached — the same contract as the gateway's §3.5 response
/// cache, and for the same reason (a long-lived group must not grow
/// memory without bound). Evictions are counted
/// ([`GroupLog::responses_evicted`]); an evicted response means a very
/// late duplicate re-executes instead of being answered from the log.
pub struct GroupLog {
    checkpoint: Option<Vec<u8>>,
    ops: Vec<OpRecord>,
    /// Responses by operation, retained for duplicate answering.
    responses: OpTable<Vec<u8>>,
    evicted: u64,
    sink: Option<Box<dyn LogSink>>,
}

impl std::fmt::Debug for GroupLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupLog")
            .field("ops", &self.ops.len())
            .field("responses", &self.responses.len())
            .field("capacity", &self.responses.capacity())
            .field("evicted", &self.evicted)
            .field("has_sink", &self.sink.is_some())
            .finish()
    }
}

impl Default for GroupLog {
    fn default() -> Self {
        GroupLog::with_capacity(usize::MAX)
    }
}

impl GroupLog {
    /// An empty log with unbounded response retention.
    pub fn new() -> Self {
        GroupLog::default()
    }

    /// An empty log retaining at most `capacity` responses for duplicate
    /// answering (oldest evicted first).
    pub fn with_capacity(capacity: usize) -> Self {
        GroupLog {
            checkpoint: None,
            ops: Vec::new(),
            responses: OpTable::new(capacity.max(1)),
            evicted: 0,
            sink: None,
        }
    }

    /// Attaches the stable-storage sink appends and checkpoints mirror to.
    pub fn set_sink(&mut self, sink: Box<dyn LogSink>) {
        self.sink = Some(sink);
    }

    /// Responses evicted by the retention cap so far.
    pub fn responses_evicted(&self) -> u64 {
        self.evicted
    }

    fn retain_response(&mut self, operation: OperationId, response: Vec<u8>) -> u64 {
        let evicted = u64::from(self.responses.insert(operation, response).is_some());
        self.evicted += evicted;
        evicted
    }

    /// Installs a checkpoint, truncating the operation log. The sink (if
    /// any) receives the state *and* the retained responses, so recovery
    /// from the checkpoint alone can still answer old duplicates.
    pub fn checkpoint(&mut self, state: Vec<u8>) {
        if let Some(sink) = &mut self.sink {
            let responses: Vec<(OperationId, Vec<u8>)> = self
                .responses
                .sorted()
                .into_iter()
                .map(|(k, v)| (*k, v.clone()))
                .collect();
            sink.on_checkpoint(&state, &responses);
        }
        self.checkpoint = Some(state);
        self.ops.clear();
    }

    /// Appends an executed-operation record, mirroring it to the sink
    /// first. Returns how many retained responses the cap evicted.
    pub fn append(&mut self, record: OpRecord) -> u64 {
        if let Some(sink) = &mut self.sink {
            sink.on_append(&record);
        }
        let evicted = self.retain_response(record.operation, record.response.clone());
        self.ops.push(record);
        evicted
    }

    /// Records just a response (warm passive: state travels separately).
    /// Returns how many retained responses the cap evicted.
    pub fn record_response(&mut self, operation: OperationId, response: Vec<u8>) -> u64 {
        self.retain_response(operation, response)
    }

    /// Repopulates the log from recovered data *without* touching the
    /// sink (the sink already holds these — writing them back would
    /// duplicate the stable log). Used once, at restart.
    pub fn restore(
        &mut self,
        checkpoint: Option<Vec<u8>>,
        ops: Vec<OpRecord>,
        responses: Vec<(OperationId, Vec<u8>)>,
    ) {
        self.checkpoint = checkpoint;
        for (operation, response) in responses {
            self.retain_response(operation, response);
        }
        for record in ops {
            self.retain_response(record.operation, record.response.clone());
            self.ops.push(record);
        }
    }

    /// The last checkpointed state, if any.
    pub fn last_checkpoint(&self) -> Option<&[u8]> {
        self.checkpoint.as_deref()
    }

    /// Operations logged since the checkpoint, oldest first.
    pub fn ops_since_checkpoint(&self) -> &[OpRecord] {
        &self.ops
    }

    /// The logged response for an operation, if retained.
    pub fn response_for(&self, operation: &OperationId) -> Option<&[u8]> {
        self.responses.get(operation).map(Vec::as_slice)
    }

    /// All retained responses in key order (for failover re-sending and
    /// state transfer).
    pub fn all_responses(&self) -> impl Iterator<Item = (&OperationId, &[u8])> {
        self.responses
            .sorted()
            .into_iter()
            .map(|(k, v)| (k, v.as_slice()))
    }

    /// Number of retained responses.
    pub fn response_count(&self) -> usize {
        self.responses.len()
    }

    /// Number of ops since the last checkpoint.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Clears everything (when a replica is retired).
    pub fn clear(&mut self) {
        self.checkpoint = None;
        self.ops.clear();
        self.responses.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftd_totem::GroupId;
    use std::sync::{Arc, Mutex};

    fn op(n: u32) -> OperationId {
        OperationId {
            source: GroupId(1),
            target: GroupId(2),
            client: 0,
            parent_ts: 0,
            child_seq: n,
        }
    }

    fn rec(n: u32) -> OpRecord {
        OpRecord {
            operation: op(n),
            invocation: vec![n as u8],
            response: vec![n as u8, 0xFF],
        }
    }

    #[test]
    fn append_and_replay_order() {
        let mut log = GroupLog::new();
        log.append(rec(1));
        log.append(rec(2));
        let ops: Vec<u32> = log
            .ops_since_checkpoint()
            .iter()
            .map(|r| r.operation.child_seq)
            .collect();
        assert_eq!(ops, vec![1, 2]);
        assert_eq!(log.response_for(&op(1)), Some(&[1u8, 0xFF][..]));
    }

    #[test]
    fn checkpoint_truncates_ops_but_keeps_responses() {
        let mut log = GroupLog::new();
        log.append(rec(1));
        log.checkpoint(vec![9, 9]);
        assert_eq!(log.op_count(), 0);
        assert_eq!(log.last_checkpoint(), Some(&[9u8, 9][..]));
        // Responses survive the checkpoint for duplicate answering.
        assert_eq!(log.response_count(), 1);
    }

    #[test]
    fn record_response_without_op() {
        let mut log = GroupLog::new();
        log.record_response(op(4), vec![4]);
        assert_eq!(log.response_for(&op(4)), Some(&[4u8][..]));
        assert_eq!(log.op_count(), 0);
    }

    #[test]
    fn clear_empties_everything() {
        let mut log = GroupLog::new();
        log.append(rec(1));
        log.checkpoint(vec![1]);
        log.clear();
        assert!(log.last_checkpoint().is_none());
        assert_eq!(log.response_count(), 0);
    }

    #[test]
    fn response_retention_is_bounded_and_counted() {
        let mut log = GroupLog::with_capacity(3);
        for n in 1..=5 {
            log.append(rec(n));
        }
        assert_eq!(log.response_count(), 3, "cap holds");
        assert_eq!(log.responses_evicted(), 2);
        // Oldest evicted first: 1 and 2 are gone, 3..5 retained.
        assert_eq!(log.response_for(&op(1)), None);
        assert_eq!(log.response_for(&op(2)), None);
        assert!(log.response_for(&op(5)).is_some());
        // The op log itself is NOT capped (the checkpoint truncates it).
        assert_eq!(log.op_count(), 5);
    }

    #[test]
    fn rerecording_the_same_operation_does_not_evict() {
        let mut log = GroupLog::with_capacity(2);
        log.record_response(op(1), vec![1]);
        log.record_response(op(1), vec![2]);
        log.record_response(op(2), vec![3]);
        assert_eq!(log.responses_evicted(), 0);
        assert_eq!(log.response_for(&op(1)), Some(&[2u8][..]), "latest wins");
    }

    type RecordedCheckpoints = Arc<Mutex<Vec<(Vec<u8>, usize)>>>;

    #[derive(Default)]
    struct RecordingSink {
        appends: Arc<Mutex<Vec<u32>>>,
        checkpoints: RecordedCheckpoints,
    }

    impl LogSink for RecordingSink {
        fn on_append(&mut self, record: &OpRecord) {
            self.appends
                .lock()
                .expect("lock")
                .push(record.operation.child_seq);
        }
        fn on_checkpoint(&mut self, state: &[u8], responses: &[(OperationId, Vec<u8>)]) {
            self.checkpoints
                .lock()
                .expect("lock")
                .push((state.to_vec(), responses.len()));
        }
    }

    #[test]
    fn sink_sees_appends_and_checkpoints_but_not_restores() {
        let sink = RecordingSink::default();
        let appends = sink.appends.clone();
        let checkpoints = sink.checkpoints.clone();
        let mut log = GroupLog::with_capacity(16);
        log.restore(Some(vec![7]), vec![rec(1)], vec![(op(9), vec![9])]);
        log.set_sink(Box::new(sink));
        log.append(rec(2));
        log.checkpoint(vec![8, 8]);
        assert_eq!(*appends.lock().expect("lock"), vec![2]);
        let cps = checkpoints.lock().expect("lock");
        assert_eq!(cps.len(), 1);
        assert_eq!(cps[0].0, vec![8, 8]);
        assert_eq!(cps[0].1, 3, "checkpoint carries every retained response");
    }
}
