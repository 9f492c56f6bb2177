//! The bounded FIFO operation table behind §3.3 duplicate detection and
//! the §3.5 response cache.
//!
//! Every replica and every gateway checks each invocation and response
//! against its [`OperationId`], and every such table is bounded the same
//! way: remember the most recent `capacity` operations, forget the oldest
//! first. [`OpTable`] is that one shape. Lookup, insert and evict-oldest
//! are constant time: entries live once, in insertion order, in a ring,
//! and an open-addressed index maps each operation to its ring position
//! in 8 bytes a bucket, at most half the buckets full.
//!
//! The index hashes with a folded multiply over the identifier's integer
//! fields, started from a per-table random seed. The seed matters
//! because a client chooses its client id and its request ids: with a
//! fixed hash it could craft offline operations that all share one probe
//! run, and every lookup would then walk the whole table. The seed never
//! reaches an output, because nothing iterates the index: iteration
//! follows the ring (FIFO), and a caller that needs key order asks for
//! [`OpTable::sorted`] or [`OpTable::drain_sorted`]. So every export,
//! digest and state transfer is a pure function of the table's contents
//! and insertion history.

use crate::OperationId;
use std::collections::hash_map::RandomState;
use std::collections::VecDeque;
use std::hash::BuildHasher;

const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

/// The two halves of `x`'s 128-bit product with an odd constant, xored
/// (the mixing step of hashbrown's default hasher): both depend on every
/// bit of `x`.
fn fold(x: u64) -> u64 {
    let product = u128::from(x) * u128::from(MULTIPLIER);
    (product as u64) ^ ((product >> 64) as u64)
}

/// Slack of removed entries the ring may carry before it is compacted.
const COMPACT_SLACK: usize = 32;

/// Marks a bucket's upper half as in use, so an empty bucket is 0.
const LIVE: u32 = 1 << 31;

/// A bounded, insertion-ordered map from [`OperationId`] to `V`.
///
/// * [`OpTable::insert`] adds a new operation at the back (evicting the
///   oldest once more than `capacity` are held) or replaces an existing
///   operation's value in place, keeping its position.
/// * [`OpTable::remove`] and [`OpTable::retain`] forget operations
///   anywhere in the order; a removed operation no longer counts toward
///   the capacity and is never returned by a later eviction.
/// * [`OpTable::iter`] walks insertion order; [`OpTable::sorted`] and
///   [`OpTable::drain_sorted`] export in key order.
#[derive(Debug)]
pub struct OpTable<V> {
    /// Linear-probing index over the live entries, a power of two long
    /// and at most half full. An empty bucket is 0; a full one is
    /// `(hash as u32 | LIVE) << 32 | position`, where `position` is the
    /// entry's absolute ring position (wrapping). The hash's low bits
    /// locate a bucket's home, so removal can shift a run back over the
    /// hole instead of leaving a tombstone.
    index: Vec<u64>,
    /// Entries, oldest first. `None` marks a removed entry not yet at
    /// the front; the front itself is never `None`.
    ring: VecDeque<Option<(OperationId, V)>>,
    /// Absolute position of `ring[0]` (wrapping).
    head: u32,
    len: usize,
    capacity: usize,
    seed: u64,
}

impl<V> OpTable<V> {
    /// An empty table holding at most `capacity` operations (0 holds
    /// none: every insert is evicted at once). Nothing is allocated
    /// until the first insert.
    pub fn new(capacity: usize) -> Self {
        OpTable {
            index: Vec::new(),
            ring: VecDeque::new(),
            head: 0,
            len: 0,
            capacity,
            seed: RandomState::new().hash_one(MULTIPLIER),
        }
    }

    /// Number of operations held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no operation is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The most operations held at once.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn hash(&self, id: &OperationId) -> u64 {
        [
            u64::from(id.source.0),
            u64::from(id.target.0),
            u64::from(id.client),
            id.parent_ts,
            u64::from(id.child_seq),
        ]
        .into_iter()
        .fold(self.seed, |h, field| fold(h ^ field))
    }

    fn mask(&self) -> usize {
        self.index.len() - 1
    }

    /// The ring slot of absolute `position`.
    fn offset(&self, position: u32) -> usize {
        position.wrapping_sub(self.head) as usize
    }

    /// The ring entry at absolute `position`.
    fn entry(&self, position: u32) -> &(OperationId, V) {
        self.ring[self.offset(position)]
            .as_ref()
            .expect("indexed slot is live")
    }

    fn entry_mut(&mut self, position: u32) -> &mut (OperationId, V) {
        let offset = self.offset(position);
        self.ring[offset].as_mut().expect("indexed slot is live")
    }

    /// `Ok(bucket)` holding `id`, or `Err(bucket)`: the empty bucket
    /// ending its probe run. The index must not be empty.
    fn probe(&self, id: &OperationId, hash: u64) -> Result<usize, usize> {
        let tag = u64::from(hash as u32 | LIVE);
        let mask = self.mask();
        let mut b = hash as usize & mask;
        loop {
            match self.index[b] {
                0 => return Err(b),
                bucket if bucket >> 32 == tag && self.entry(bucket as u32).0 == *id => {
                    return Ok(b)
                }
                _ => b = (b + 1) & mask,
            }
        }
    }

    fn find(&self, id: &OperationId) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let b = self.probe(id, self.hash(id)).ok()?;
        Some(self.index[b] as u32)
    }

    /// `true` if `id` is held.
    pub fn contains(&self, id: &OperationId) -> bool {
        self.find(id).is_some()
    }

    /// The value held for `id`.
    pub fn get(&self, id: &OperationId) -> Option<&V> {
        let position = self.find(id)?;
        Some(&self.entry(position).1)
    }

    /// The value held for `id`, mutably (its position is unchanged).
    pub fn get_mut(&mut self, id: &OperationId) -> Option<&mut V> {
        let position = self.find(id)?;
        Some(&mut self.entry_mut(position).1)
    }

    /// Holds `value` for `id`. A held `id` has its value replaced in
    /// place; a new one goes to the back. Returns the entry this insert
    /// evicted, if the table was full.
    pub fn insert(&mut self, id: OperationId, value: V) -> Option<(OperationId, V)> {
        let hash = self.hash(&id);
        if self.len > 0 {
            if let Ok(b) = self.probe(&id, hash) {
                self.entry_mut(self.index[b] as u32).1 = value;
                return None;
            }
        }
        if self.capacity == 0 {
            return Some((id, value));
        }
        let evicted = if self.len >= self.capacity {
            self.pop_oldest()
        } else {
            None
        };
        if 2 * (self.len + 1) > self.index.len() {
            self.rebuild_index((2 * self.index.len()).max(8));
        }
        assert!(
            self.ring.len() < u32::MAX as usize,
            "ring positions are u32"
        );
        let position = self.head.wrapping_add(self.ring.len() as u32);
        let b = self.probe(&id, hash).expect_err("new operation");
        self.index[b] = u64::from(hash as u32 | LIVE) << 32 | u64::from(position);
        self.ring.push_back(Some((id, value)));
        self.len += 1;
        evicted
    }

    /// Empties bucket `hole`, shifting back each later entry of its
    /// probe run whose home bucket the hole does not precede.
    fn erase(&mut self, mut hole: usize) {
        let mask = self.mask();
        let mut b = (hole + 1) & mask;
        while self.index[b] != 0 {
            let home = (self.index[b] >> 32) as usize & mask;
            if b.wrapping_sub(home) & mask >= b.wrapping_sub(hole) & mask {
                self.index[hole] = self.index[b];
                hole = b;
            }
            b = (b + 1) & mask;
        }
        self.index[hole] = 0;
        self.len -= 1;
    }

    /// Removes and returns the oldest entry.
    fn pop_oldest(&mut self) -> Option<(OperationId, V)> {
        let id = self.ring.front()?.as_ref().expect("the front is live").0;
        let b = self
            .probe(&id, self.hash(&id))
            .expect("live entry is indexed");
        self.erase(b);
        let entry = self.ring.pop_front().flatten();
        self.head = self.head.wrapping_add(1);
        self.trim_front();
        entry
    }

    /// Forgets `id`, returning its value.
    pub fn remove(&mut self, id: &OperationId) -> Option<V> {
        if self.len == 0 {
            return None;
        }
        let b = self.probe(id, self.hash(id)).ok()?;
        let offset = self.offset(self.index[b] as u32);
        self.erase(b);
        let (_, value) = self.ring[offset].take().expect("indexed slot is live");
        self.trim_front();
        if self.ring.len() > 2 * self.len + COMPACT_SLACK {
            self.compact();
        }
        Some(value)
    }

    /// Keeps only the entries for which `keep` returns `true`, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&OperationId, &V) -> bool) {
        let before = self.len;
        for slot in self.ring.iter_mut() {
            if let Some((id, value)) = slot {
                if !keep(id, value) {
                    *slot = None;
                    self.len -= 1;
                }
            }
        }
        if self.len != before {
            self.compact();
        }
    }

    /// Drops removed entries from the front of the ring.
    fn trim_front(&mut self) {
        while matches!(self.ring.front(), Some(None)) {
            self.ring.pop_front();
            self.head = self.head.wrapping_add(1);
        }
    }

    /// Drops every removed entry, renumbering from 0.
    fn compact(&mut self) {
        self.ring.retain(Option::is_some);
        self.head = 0;
        self.rebuild_index(self.index.len());
    }

    /// Re-indexes every live entry into `buckets` empty buckets.
    fn rebuild_index(&mut self, buckets: usize) {
        self.index.clear();
        self.index.resize(buckets, 0);
        let mask = self.mask();
        for (offset, slot) in self.ring.iter().enumerate() {
            let Some((id, _)) = slot else { continue };
            let hash = self.hash(id);
            let mut b = hash as usize & mask;
            while self.index[b] != 0 {
                b = (b + 1) & mask;
            }
            let position = self.head.wrapping_add(offset as u32);
            self.index[b] = u64::from(hash as u32 | LIVE) << 32 | u64::from(position);
        }
    }

    /// Entries in insertion order, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (&OperationId, &V)> {
        self.ring.iter().flatten().map(|(id, value)| (id, value))
    }

    /// Entries in key order.
    pub fn sorted(&self) -> Vec<(&OperationId, &V)> {
        let mut entries: Vec<_> = self.iter().collect();
        entries.sort_unstable_by_key(|&(id, _)| *id);
        entries
    }

    /// Empties the table, returning its entries in key order.
    pub fn drain_sorted(&mut self) -> Vec<(OperationId, V)> {
        let mut entries: Vec<_> = std::mem::take(&mut self.ring)
            .into_iter()
            .flatten()
            .collect();
        self.clear();
        entries.sort_unstable_by_key(|(id, _)| *id);
        entries
    }

    /// Forgets every entry.
    pub fn clear(&mut self) {
        self.index.clear();
        self.ring.clear();
        self.head = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftd_totem::GroupId;

    fn op(client: u32, n: u32) -> OperationId {
        OperationId {
            source: GroupId(1),
            target: GroupId(2),
            client,
            parent_ts: 0,
            child_seq: n,
        }
    }

    #[test]
    fn insert_replaces_in_place_and_evicts_oldest() {
        let mut t = OpTable::new(2);
        assert_eq!(t.insert(op(0, 1), 'a'), None);
        assert_eq!(t.insert(op(0, 2), 'b'), None);
        assert_eq!(t.insert(op(0, 1), 'c'), None, "replace keeps position");
        assert_eq!(t.insert(op(0, 3), 'd'), Some((op(0, 1), 'c')));
        let order: Vec<_> = t.iter().map(|(id, v)| (*id, *v)).collect();
        assert_eq!(order, vec![(op(0, 2), 'b'), (op(0, 3), 'd')]);
    }

    #[test]
    fn zero_capacity_holds_nothing() {
        let mut t = OpTable::new(0);
        assert_eq!(t.insert(op(0, 1), ()), Some((op(0, 1), ())));
        assert!(t.is_empty());
    }

    #[test]
    fn removed_entries_neither_count_nor_come_back() {
        let mut t = OpTable::new(2);
        t.insert(op(0, 1), 1);
        t.insert(op(0, 2), 2);
        assert_eq!(t.remove(&op(0, 2)), Some(2));
        assert_eq!(t.insert(op(0, 3), 3), None, "removed entry freed a place");
        assert_eq!(t.insert(op(0, 2), 4), Some((op(0, 1), 1)));
        assert_eq!(t.insert(op(0, 5), 5), Some((op(0, 3), 3)));
        assert_eq!(t.get(&op(0, 2)), Some(&4));
    }

    #[test]
    fn out_of_order_removals_compact_the_ring() {
        let mut t = OpTable::new(1_000);
        t.insert(op(9, 0), 0);
        for n in 1..10_000 {
            t.insert(op(0, n), n);
            assert_eq!(t.remove(&op(0, n)), Some(n));
        }
        assert!(t.ring.len() <= 2 * t.len() + COMPACT_SLACK + 1);
        assert_eq!(t.get(&op(9, 0)), Some(&0));
    }

    #[test]
    fn fifo_churn_leaves_no_tombstones_to_grow_the_index() {
        let mut t = OpTable::new(4096);
        for n in 0..100_000 {
            t.insert(op(n % 7, n), ());
        }
        assert_eq!(t.len(), 4096);
        assert_eq!(t.index.len(), 8192, "twice the capacity, rounded up");
    }

    #[test]
    fn retain_and_sorted_export() {
        let mut t = OpTable::new(8);
        for (c, n) in [(2, 1), (1, 2), (2, 3), (1, 4)] {
            t.insert(op(c, n), n);
        }
        t.retain(|id, _| id.client != 2);
        assert_eq!(t.len(), 2);
        let sorted: Vec<_> = t.sorted().into_iter().map(|(id, _)| *id).collect();
        assert_eq!(sorted, vec![op(1, 2), op(1, 4)]);
        assert_eq!(t.drain_sorted(), vec![(op(1, 2), 2), (op(1, 4), 4)]);
        assert!(t.is_empty());
    }
}
