//! Duplicate detection and suppression (§2.2, §3.3).
//!
//! "Eternal provides support for the detection and suppression of
//! duplicate invocations and duplicate responses." Three mechanisms live
//! here:
//!
//! * [`InvocationTable`] — at the server side: have we already executed
//!   (or are we executing) this operation? Duplicates of completed
//!   operations are answered from the logged response instead of being
//!   re-executed — the property that makes the §3.5 reissue-on-failover
//!   protocol safe.
//! * [`ResponseFilter`] — at the receiver of responses: "the gateway ...
//!   can deliver the first copy that it receives, and discard all
//!   subsequently received copies" (first-wins, keyed by operation id).
//! * [`Voter`] — for active-with-voting groups: accept a response only
//!   once a majority of replicas produced byte-identical copies.

use crate::OperationId;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Outcome of checking an arriving invocation against the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvocationCheck {
    /// First sighting: execute it.
    Fresh,
    /// Already being executed (response not yet produced): drop.
    InProgress,
    /// Already executed: suppress, and re-send this logged response.
    Duplicate(Vec<u8>),
}

/// Server-side duplicate-invocation table with bounded response retention.
#[derive(Debug)]
pub struct InvocationTable {
    entries: BTreeMap<OperationId, Option<Vec<u8>>>,
    order: VecDeque<OperationId>,
    capacity: usize,
}

impl InvocationTable {
    /// Creates a table retaining at most `capacity` operations.
    pub fn new(capacity: usize) -> Self {
        InvocationTable {
            entries: BTreeMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Classifies an arriving invocation and registers it if fresh.
    pub fn check(&mut self, id: OperationId) -> InvocationCheck {
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

    /// Records the response produced for an operation.
    pub fn complete(&mut self, id: OperationId, response: Vec<u8>) {
        if let Some(slot) = self.entries.get_mut(&id) {
            *slot = Some(response);
        }
    }

    /// Marks an operation as executed with its response even if it was
    /// never checked here (used when installing replicated log records).
    pub fn install(&mut self, id: OperationId, response: Vec<u8>) {
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

    /// All completed operations with their responses (for state transfer).
    pub fn completed(&self) -> Vec<(OperationId, Vec<u8>)> {
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

    /// Number of tracked operations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no operations are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Receiver-side first-wins duplicate-response filter.
#[derive(Debug)]
pub struct ResponseFilter {
    seen: BTreeSet<OperationId>,
    order: VecDeque<OperationId>,
    capacity: usize,
    suppressed: u64,
}

impl ResponseFilter {
    /// Creates a filter remembering at most `capacity` operations.
    pub fn new(capacity: usize) -> Self {
        ResponseFilter {
            seen: BTreeSet::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            suppressed: 0,
        }
    }

    /// Returns `true` for the first response of an operation, `false`
    /// (suppress) for every later copy.
    pub fn accept(&mut self, id: OperationId) -> bool {
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

    /// How many duplicate copies have been suppressed.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }
}

/// How many decided operations a [`Voter`] remembers, so that copies
/// arriving after the winner are dropped.
const DECIDED_MEMORY: usize = 4096;

/// Majority voter for active-with-voting responses.
///
/// Collects per-operation response copies (one per replica) and reports a
/// winner once some byte-identical value reaches the majority threshold
/// for the group size at that moment. Recently decided operation ids are
/// remembered in a bounded FIFO, and a late copy of one is dropped: it
/// could only open a ballot that never reaches a majority.
#[derive(Debug)]
pub struct Voter {
    ballots: BTreeMap<OperationId, Vec<Vec<u8>>>,
    decided: ResponseFilter,
}

impl Default for Voter {
    fn default() -> Self {
        Voter {
            ballots: BTreeMap::new(),
            decided: ResponseFilter::new(DECIDED_MEMORY),
        }
    }
}

impl Voter {
    /// Creates an empty voter.
    pub fn new() -> Self {
        Voter::default()
    }

    /// Records one replica's copy; returns the winning response if this
    /// copy completes a majority of `group_size`. A copy of an operation
    /// already decided is dropped.
    pub fn vote(&mut self, id: OperationId, copy: Vec<u8>, group_size: usize) -> Option<Vec<u8>> {
        if self.decided.seen.contains(&id) {
            return None;
        }
        let needed = group_size / 2 + 1;
        let ballots = self.ballots.entry(id).or_default();
        ballots.push(copy);
        let last = ballots.last().cloned().expect("just pushed");
        let count = ballots.iter().filter(|b| **b == last).count();
        if count >= needed {
            self.ballots.remove(&id);
            self.decided.accept(id);
            Some(last)
        } else {
            None
        }
    }

    /// Drops the ballots of an operation (after first-wins acceptance by
    /// other means, or timeout).
    pub fn clear(&mut self, id: OperationId) {
        self.ballots.remove(&id);
    }

    /// Number of operations with open ballots.
    pub fn open_ballots(&self) -> usize {
        self.ballots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftd_totem::GroupId;

    fn op(n: u32) -> OperationId {
        OperationId {
            source: GroupId(1),
            target: GroupId(2),
            client: 0,
            parent_ts: 0,
            child_seq: n,
        }
    }

    #[test]
    fn invocation_lifecycle() {
        let mut t = InvocationTable::new(10);
        assert_eq!(t.check(op(1)), InvocationCheck::Fresh);
        assert_eq!(t.check(op(1)), InvocationCheck::InProgress);
        t.complete(op(1), vec![42]);
        assert_eq!(t.check(op(1)), InvocationCheck::Duplicate(vec![42]));
        assert_eq!(t.completed(), vec![(op(1), vec![42])]);
    }

    #[test]
    fn invocation_table_evicts_oldest() {
        let mut t = InvocationTable::new(2);
        for i in 0..3 {
            assert_eq!(t.check(op(i)), InvocationCheck::Fresh);
            t.complete(op(i), vec![i as u8]);
        }
        assert_eq!(t.len(), 2);
        // op(0) evicted: re-presenting it looks fresh (bounded memory trade).
        assert_eq!(t.check(op(0)), InvocationCheck::Fresh);
    }

    #[test]
    fn install_populates_from_log() {
        let mut t = InvocationTable::new(10);
        t.install(op(5), vec![9]);
        assert_eq!(t.check(op(5)), InvocationCheck::Duplicate(vec![9]));
    }

    #[test]
    fn response_filter_first_wins() {
        let mut f = ResponseFilter::new(10);
        assert!(f.accept(op(1)));
        assert!(!f.accept(op(1)));
        assert!(!f.accept(op(1)));
        assert!(f.accept(op(2)));
        assert_eq!(f.suppressed(), 2);
    }

    #[test]
    fn response_filter_evicts() {
        let mut f = ResponseFilter::new(1);
        assert!(f.accept(op(1)));
        assert!(f.accept(op(2))); // evicts op(1)
        assert!(f.accept(op(1))); // forgotten, accepted again
    }

    #[test]
    fn voter_accepts_majority_of_three() {
        let mut v = Voter::new();
        assert_eq!(v.vote(op(1), vec![7], 3), None);
        assert_eq!(v.vote(op(1), vec![7], 3), Some(vec![7]));
        assert_eq!(v.open_ballots(), 0);
    }

    #[test]
    fn voter_masks_single_value_fault() {
        let mut v = Voter::new();
        assert_eq!(v.vote(op(1), vec![99], 3), None); // the liar
        assert_eq!(v.vote(op(1), vec![7], 3), None);
        assert_eq!(v.vote(op(1), vec![7], 3), Some(vec![7]));
    }

    #[test]
    fn voter_never_accepts_minority() {
        let mut v = Voter::new();
        assert_eq!(v.vote(op(1), vec![1], 5), None);
        assert_eq!(v.vote(op(1), vec![2], 5), None);
        assert_eq!(v.vote(op(1), vec![3], 5), None);
        assert_eq!(v.vote(op(1), vec![4], 5), None);
        // Two matching out of five is not a majority.
        assert_eq!(v.vote(op(1), vec![4], 5), None);
        v.clear(op(1));
        assert_eq!(v.open_ballots(), 0);
    }

    #[test]
    fn late_copies_of_decided_operations_leave_no_ballot() {
        let mut v = Voter::new();
        for n in 0..1_000 {
            assert_eq!(v.vote(op(n), vec![n as u8], 3), None);
            assert_eq!(v.vote(op(n), vec![n as u8], 3), Some(vec![n as u8]));
            assert_eq!(v.vote(op(n), vec![n as u8], 3), None, "late copy");
        }
        assert_eq!(v.open_ballots(), 0);
    }

    #[test]
    fn a_masked_liar_arriving_last_leaves_no_ballot() {
        let mut v = Voter::new();
        assert_eq!(v.vote(op(1), vec![7], 3), None);
        assert_eq!(v.vote(op(1), vec![7], 3), Some(vec![7]));
        assert_eq!(v.vote(op(1), vec![99], 3), None);
        assert_eq!(v.open_ballots(), 0);
    }

    #[test]
    fn singleton_group_votes_immediately() {
        let mut v = Voter::new();
        assert_eq!(v.vote(op(1), vec![5], 1), Some(vec![5]));
    }
}
