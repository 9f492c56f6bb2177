//! Reference-model tests for [`OpTable`] and the §3.3 tables built on it.
//!
//! Each bounded operation table used to be a `BTreeMap` (or `BTreeSet`)
//! keyed by `OperationId` beside a `VecDeque` of insertion order. The
//! reference models below keep that code, and seeded random sequences of
//! insert, lookup, complete, accept, remove, retain-by-client and
//! evicting inserts — capacities 1 to 8, over a key space small enough
//! that keys recur — must produce the same results, the same FIFO order
//! and the same key-ordered export from both.
//!
//! One difference is deliberate and pinned by its own test: the old
//! admission table (`remove` from the map only) left a removed id in its
//! order queue, where it still counted toward the capacity and, once at
//! the front, evicted whatever entry then held that id.

use ftd_check::{check, Gen};
use ftd_eternal::{
    GroupLog, InvocationCheck, InvocationTable, OpTable, OperationId, ResponseFilter,
};
use ftd_totem::GroupId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One of 3 × 2 × 6 = 36 operations, so keys recur within a sequence.
fn arb_op(g: &mut Gen) -> OperationId {
    OperationId {
        source: GroupId(100),
        target: GroupId(10 + g.below(2) as u32),
        client: g.below(3) as u32,
        parent_ts: 0,
        child_seq: g.below(6) as u32,
    }
}

fn arb_capacity(g: &mut Gen) -> usize {
    g.range(1, 8) as usize
}

// ---------------------------------------------------------------------
// The reference: the map + order-queue pairs the table replaced.
// ---------------------------------------------------------------------

/// The response cache's pair (`GatewayEngine::cache_put`,
/// `restore_cached_response`, `gc_client`, `drain_cached_responses`),
/// with `remove` as the admission table's `finish_admission` did it.
struct RefPair<V> {
    map: BTreeMap<OperationId, V>,
    order: VecDeque<OperationId>,
    capacity: usize,
}

impl<V: Clone> RefPair<V> {
    fn new(capacity: usize) -> Self {
        RefPair {
            map: BTreeMap::new(),
            order: VecDeque::new(),
            capacity,
        }
    }

    fn insert(&mut self, op: OperationId, value: V) -> Option<(OperationId, V)> {
        if self.map.insert(op, value).is_none() {
            self.order.push_back(op);
            if self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    return self.map.remove(&old).map(|v| (old, v));
                }
            }
        }
        None
    }

    /// The old `finish_admission`: the map forgets, the queue does not.
    fn remove_leaving_stale_id(&mut self, op: &OperationId) -> Option<V> {
        self.map.remove(op)
    }

    /// `remove` with the queue kept in step: the reference for
    /// [`OpTable::remove`].
    fn remove(&mut self, op: &OperationId) -> Option<V> {
        let value = self.map.remove(op)?;
        self.order.retain(|o| o != op);
        Some(value)
    }

    fn retain_client(&mut self, client: u32) {
        self.map.retain(|op, _| op.client != client);
        self.order.retain(|op| op.client != client);
    }

    fn fifo(&self) -> Vec<(OperationId, V)> {
        self.order
            .iter()
            .filter_map(|op| self.map.get(op).map(|v| (*op, v.clone())))
            .collect()
    }

    fn sorted(&self) -> Vec<(OperationId, V)> {
        self.map.iter().map(|(k, v)| (*k, v.clone())).collect()
    }
}

fn fifo<V: Clone>(t: &OpTable<V>) -> Vec<(OperationId, V)> {
    t.iter().map(|(k, v)| (*k, v.clone())).collect()
}

fn sorted<V: Clone>(t: &OpTable<V>) -> Vec<(OperationId, V)> {
    t.sorted()
        .into_iter()
        .map(|(k, v)| (*k, v.clone()))
        .collect()
}

/// The old `InvocationTable`, verbatim.
struct RefInvocationTable {
    entries: BTreeMap<OperationId, Option<Vec<u8>>>,
    order: VecDeque<OperationId>,
    capacity: usize,
}

impl RefInvocationTable {
    fn new(capacity: usize) -> Self {
        RefInvocationTable {
            entries: BTreeMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    fn check(&mut self, id: OperationId) -> InvocationCheck {
        use std::collections::btree_map::Entry;
        match self.entries.entry(id) {
            Entry::Vacant(v) => {
                v.insert(None);
                self.order.push_back(id);
                if self.order.len() > self.capacity {
                    if let Some(old) = self.order.pop_front() {
                        self.entries.remove(&old);
                    }
                }
                InvocationCheck::Fresh
            }
            Entry::Occupied(o) => match o.get() {
                None => InvocationCheck::InProgress,
                Some(resp) => InvocationCheck::Duplicate(resp.clone()),
            },
        }
    }

    fn complete(&mut self, id: OperationId, response: Vec<u8>) {
        if let Some(slot) = self.entries.get_mut(&id) {
            *slot = Some(response);
        }
    }

    fn install(&mut self, id: OperationId, response: Vec<u8>) {
        use std::collections::btree_map::Entry;
        if let Entry::Vacant(v) = self.entries.entry(id) {
            v.insert(Some(response));
            self.order.push_back(id);
            if self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.entries.remove(&old);
                }
            }
        } else {
            self.entries.insert(id, Some(response));
        }
    }

    fn completed(&self) -> Vec<(OperationId, Vec<u8>)> {
        self.order
            .iter()
            .filter_map(|id| {
                self.entries
                    .get(id)
                    .and_then(|r| r.as_ref())
                    .map(|r| (*id, r.clone()))
            })
            .collect()
    }
}

/// The old `ResponseFilter`, verbatim.
struct RefResponseFilter {
    seen: BTreeSet<OperationId>,
    order: VecDeque<OperationId>,
    capacity: usize,
    suppressed: u64,
}

impl RefResponseFilter {
    fn new(capacity: usize) -> Self {
        RefResponseFilter {
            seen: BTreeSet::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            suppressed: 0,
        }
    }

    fn accept(&mut self, id: OperationId) -> bool {
        if self.seen.contains(&id) {
            self.suppressed += 1;
            return false;
        }
        self.seen.insert(id);
        self.order.push_back(id);
        if self.order.len() > self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
        true
    }
}

/// The old `GroupLog` response retention, verbatim.
struct RefResponses {
    responses: BTreeMap<OperationId, Vec<u8>>,
    order: VecDeque<OperationId>,
    capacity: usize,
    evicted: u64,
}

impl RefResponses {
    fn retain_response(&mut self, operation: OperationId, response: Vec<u8>) -> u64 {
        if self.responses.insert(operation, response).is_none() {
            self.order.push_back(operation);
        }
        let mut evicted = 0;
        while self.responses.len() > self.capacity {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            if self.responses.remove(&old).is_some() {
                evicted += 1;
            }
        }
        self.evicted += evicted;
        evicted
    }
}

// ---------------------------------------------------------------------
// The properties.
// ---------------------------------------------------------------------

#[test]
fn op_table_matches_the_map_and_queue_pair() {
    check("op table matches the map and queue pair", 512, |g| {
        let capacity = arb_capacity(g);
        let mut table = OpTable::new(capacity);
        let mut reference = RefPair::new(capacity);
        for step in 0..g.range(1, 200) {
            let op = arb_op(g);
            match g.below(6) {
                0..=2 => {
                    let value = step as u32;
                    assert_eq!(
                        table.insert(op, value),
                        reference.insert(op, value),
                        "insert {op} (evicted entry)"
                    );
                }
                3 => assert_eq!(table.get(&op), reference.map.get(&op), "lookup {op}"),
                4 => {
                    // The `complete` shape: update in place if held.
                    let bump = |v: &mut u32| *v += 1_000;
                    table.get_mut(&op).map(bump);
                    reference.map.get_mut(&op).map(bump);
                }
                _ => {
                    if g.below(4) == 0 {
                        let client = g.below(3) as u32;
                        table.retain(|op, _| op.client != client);
                        reference.retain_client(client);
                    } else {
                        assert_eq!(table.remove(&op), reference.remove(&op), "remove {op}");
                    }
                }
            }
            assert_eq!(table.len(), reference.map.len());
            assert_eq!(fifo(&table), reference.fifo(), "FIFO order");
            assert_eq!(sorted(&table), reference.sorted(), "sorted export");
        }
        assert_eq!(table.drain_sorted(), reference.sorted());
        assert!(table.is_empty());
    });
}

#[test]
fn invocation_table_matches_the_old_table() {
    check("invocation table matches the old table", 512, |g| {
        let capacity = arb_capacity(g);
        let mut table = InvocationTable::new(capacity);
        let mut reference = RefInvocationTable::new(capacity);
        for _ in 0..g.range(1, 200) {
            let op = arb_op(g);
            match g.below(3) {
                0 => assert_eq!(table.check(op), reference.check(op), "check {op}"),
                1 => {
                    let response = g.bytes(3);
                    table.complete(op, response.clone());
                    reference.complete(op, response);
                }
                _ => {
                    let response = g.bytes(3);
                    table.install(op, response.clone());
                    reference.install(op, response);
                }
            }
            assert_eq!(table.len(), reference.entries.len());
            assert_eq!(table.completed(), reference.completed(), "FIFO export");
        }
    });
}

#[test]
fn response_filter_matches_the_old_filter() {
    check("response filter matches the old filter", 512, |g| {
        let capacity = arb_capacity(g);
        let mut filter = ResponseFilter::new(capacity);
        let mut reference = RefResponseFilter::new(capacity);
        for _ in 0..g.range(1, 200) {
            let op = arb_op(g);
            assert_eq!(filter.accept(op), reference.accept(op), "accept {op}");
        }
        assert_eq!(filter.suppressed(), reference.suppressed);
    });
}

#[test]
fn group_log_retention_matches_the_old_log() {
    check("group log retention matches the old log", 512, |g| {
        let capacity = arb_capacity(g);
        let mut log = GroupLog::with_capacity(capacity);
        let mut reference = RefResponses {
            responses: BTreeMap::new(),
            order: VecDeque::new(),
            capacity,
            evicted: 0,
        };
        for _ in 0..g.range(1, 200) {
            let op = arb_op(g);
            if g.below(3) == 0 {
                assert_eq!(
                    log.response_for(&op),
                    reference.responses.get(&op).map(Vec::as_slice)
                );
            } else {
                let response = g.bytes(3);
                assert_eq!(
                    log.record_response(op, response.clone()),
                    reference.retain_response(op, response)
                );
            }
        }
        assert_eq!(log.responses_evicted(), reference.evicted);
        let exported: Vec<(OperationId, &[u8])> =
            log.all_responses().map(|(k, v)| (*k, v)).collect();
        let expected: Vec<(OperationId, &[u8])> = reference
            .responses
            .iter()
            .map(|(k, v)| (*k, v.as_slice()))
            .collect();
        assert_eq!(exported, expected, "key-ordered export");
    });
}

/// The one place the table differs from the code it replaced: a removed
/// id no longer lingers in the order queue.
///
/// The old admission table forgot a finished operation in the map but
/// left its id queued, so (a) the stale id still counted toward the
/// capacity, and (b) when it reached the front it was "evicted" by id —
/// removing a *later* admission of the same operation. Both only cost an
/// admission→reply latency sample: the admission table feeds
/// `Action::Latency` and nothing else, and a stale id reaches the front
/// only after `capacity` (4096 in every host) newer admissions. The
/// table now holds exactly the live admissions, at most `capacity` of
/// them, and evicts only by age.
#[test]
fn a_removed_id_no_longer_evicts_its_readmission() {
    let op = |n| OperationId {
        source: GroupId(100),
        target: GroupId(10),
        client: 1,
        parent_ts: 0,
        child_seq: n,
    };
    let mut old = RefPair::new(2);
    let mut new = OpTable::new(2);
    old.insert(op(1), 10u64);
    new.insert(op(1), 10u64);
    old.remove_leaving_stale_id(&op(1));
    new.remove(&op(1));
    // Re-admitted (a reissue after the reply), then one more admission.
    old.insert(op(1), 11);
    new.insert(op(1), 11);
    old.insert(op(2), 12);
    new.insert(op(2), 12);
    assert_eq!(
        old.fifo(),
        vec![(op(2), 12)],
        "old: the stale id evicted the readmission"
    );
    assert_eq!(
        fifo(&new),
        vec![(op(1), 11), (op(2), 12)],
        "new: both live, within capacity"
    );
}
