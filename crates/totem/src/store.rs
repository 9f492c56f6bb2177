//! The receive window: a [`TotemNode`](crate::TotemNode)'s retained
//! messages, indexed by sequence number.
//!
//! Totem sequence numbers are dense by construction, and a node retains
//! a run of them: everything above its garbage-collection floor that it
//! has received. So the store is a ring buffer of slots, slot `i` holding
//! sequence number `base + i`, and every lookup, insert and front drop is
//! O(1): the saturated ring pays no tree operation per ordered message.
//!
//! The window spans from `base` to the highest sequence number stored.
//! Below the node's receipt point every slot is filled; above it, an
//! empty slot is a message still in flight or lost. Only
//! [`Window::drop_through`] moves `base`, and it costs the slots it
//! drops, never the sequence-number distance it moves: a fresh install
//! at a high recovery floor, or a skip-forward past a gap, rebases an
//! empty window in O(1).

use crate::wire::Regular;
use std::collections::VecDeque;

/// Retained messages, slot `i` holding sequence number `base + i`.
#[derive(Debug)]
pub(crate) struct Window {
    /// Sequence number of the front slot; everything below it is gone.
    base: u64,
    slots: VecDeque<Option<Regular>>,
    /// Filled slots.
    live: usize,
}

impl Window {
    /// An empty window whose front slot is sequence number 1.
    pub(crate) fn new() -> Self {
        Window {
            base: 1,
            slots: VecDeque::new(),
            live: 0,
        }
    }

    /// Messages retained.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Slots allocated, filled or not: the span from the base to the
    /// highest sequence number stored.
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }

    fn index(&self, seq: u64) -> Option<usize> {
        let i = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        (i < self.slots.len()).then_some(i)
    }

    /// The message with sequence number `seq`, if retained.
    pub(crate) fn get(&self, seq: u64) -> Option<&Regular> {
        self.slots[self.index(seq)?].as_ref()
    }

    /// `true` if the message with sequence number `seq` is retained.
    pub(crate) fn contains(&self, seq: u64) -> bool {
        self.get(seq).is_some()
    }

    /// Retains `m` under its sequence number, replacing any copy already
    /// there. A message below the base was dropped already; it is
    /// ignored.
    pub(crate) fn insert(&mut self, m: Regular) {
        let Some(offset) = m.seq.checked_sub(self.base) else {
            return;
        };
        let i = usize::try_from(offset).expect("window offset fits in memory");
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        if self.slots[i].replace(m).is_none() {
            self.live += 1;
        }
    }

    /// Drops every message at or below `floor` and moves the base just
    /// above it. Costs the slots dropped: a floor past the last slot
    /// empties the window and rebases it at `floor + 1`.
    pub(crate) fn drop_through(&mut self, floor: u64) {
        if floor < self.base {
            return;
        }
        let past = floor - self.base + 1;
        if past >= self.slots.len() as u64 {
            self.slots.clear();
            self.live = 0;
        } else {
            for slot in self.slots.drain(..past as usize) {
                self.live -= usize::from(slot.is_some());
            }
        }
        self.base = floor + 1;
        // A burst may have grown the buffer far past what is retained
        // now; give the high-water mark back.
        if self.slots.capacity() > 64 && self.slots.capacity() > 4 * self.slots.len() {
            self.slots.shrink_to(2 * self.slots.len());
        }
    }

    /// The retained messages with sequence numbers in `from..=to`, in
    /// order.
    pub(crate) fn range(&self, from: u64, to: u64) -> impl Iterator<Item = &Regular> {
        let end = self.base + self.slots.len() as u64;
        let lo = from.clamp(self.base, end);
        let hi = to.saturating_add(1).clamp(lo, end);
        self.slots
            .range((lo - self.base) as usize..(hi - self.base) as usize)
            .flatten()
    }

    /// The buffer's allocated capacity, in slots.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// The retained sequence numbers, in order.
    #[cfg(test)]
    pub(crate) fn seqs(&self) -> Vec<u64> {
        self.slots.iter().flatten().map(|m| m.seq).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GroupId, RingEpoch};
    use ftd_sim::ProcessorId;
    use std::collections::BTreeMap;

    fn msg(seq: u64, tag: u8) -> Regular {
        Regular {
            epoch: RingEpoch(1),
            seq,
            sender: ProcessorId(0),
            group: GroupId(1),
            control: false,
            payload: vec![tag].into(),
        }
    }

    /// xorshift64*: a seeded, dependency-free operation stream.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n.max(1)
        }
    }

    enum Op {
        Insert(u64),
        Probe(u64),
        DropThrough(u64),
    }

    /// The window and a `BTreeMap` model, driven through the same random
    /// in-order, out-of-order and duplicate inserts, probes, GCs and far
    /// rebases, agree on contents and count at every step.
    #[test]
    fn window_matches_a_btreemap_model() {
        for seed in 1..=16u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut window = Window::new();
            let mut model: BTreeMap<u64, Regular> = BTreeMap::new();
            // Everything below `base` has been dropped; `next` is the
            // next in-order sequence number.
            let (mut base, mut next) = (1u64, 1u64);
            for step in 0..3_000 {
                let op = match rng.below(20) {
                    0..=7 => {
                        next += 1;
                        Op::Insert(next - 1)
                    }
                    8..=10 => Op::Insert(next + rng.below(40)),
                    11 | 12 => Op::Insert(next.saturating_sub(rng.below(60)).max(1)),
                    13..=15 => Op::Probe(base.saturating_sub(5) + rng.below(next - base + 50)),
                    16..=18 => Op::DropThrough(base - 1 + rng.below(next - base + 1)),
                    _ => Op::DropThrough(next + rng.below(1_000_000)),
                };
                match op {
                    Op::Insert(seq) => {
                        let tag = rng.below(256) as u8;
                        window.insert(msg(seq, tag));
                        if seq >= base {
                            model.insert(seq, msg(seq, tag));
                        }
                    }
                    Op::Probe(seq) => {
                        assert_eq!(
                            window.get(seq).map(|m| &m.payload),
                            model.get(&seq).map(|m| &m.payload),
                            "seed {seed} step {step}: get({seq})"
                        );
                        assert_eq!(window.contains(seq), model.contains_key(&seq));
                    }
                    Op::DropThrough(floor) => {
                        window.drop_through(floor);
                        model.retain(|&s, _| s > floor);
                        base = base.max(floor + 1);
                        next = next.max(base);
                    }
                }
                assert_eq!(window.len(), model.len(), "seed {seed} step {step}: len");
                assert_eq!(
                    window.seqs(),
                    model.keys().copied().collect::<Vec<_>>(),
                    "seed {seed} step {step}: contents"
                );
                // The span ends at the highest message retained.
                let span = model.keys().next_back().map_or(0, |&top| top + 1 - base);
                assert_eq!(window.slots() as u64, span, "seed {seed} step {step}: span");
                let lo = base - 1 + rng.below(30);
                let hi = (next + rng.below(30)).max(lo);
                assert!(
                    window
                        .range(lo, hi)
                        .map(|m| m.seq)
                        .eq(model.range(lo..=hi).map(|(&s, _)| s)),
                    "seed {seed} step {step}: range({lo}, {hi})"
                );
            }
        }
    }

    #[test]
    fn a_far_rebase_allocates_nothing_for_the_distance() {
        let mut window = Window::new();
        window.insert(msg(1, 0));
        window.drop_through(1_000_000);
        assert_eq!(window.len(), 0);
        window.insert(msg(1_000_001, 0));
        window.insert(msg(1_000_003, 0));
        assert_eq!((window.len(), window.slots()), (2, 3));
        assert!(window.capacity() < 64, "capacity {}", window.capacity());
        assert!(!window.contains(1));
    }

    #[test]
    fn gc_gives_back_a_burst_high_water_mark() {
        let mut window = Window::new();
        for s in 1..=10_000 {
            window.insert(msg(s, 0));
        }
        window.drop_through(9_990);
        assert_eq!(window.seqs(), (9_991..=10_000).collect::<Vec<_>>());
        assert!(window.capacity() <= 64, "capacity {}", window.capacity());
    }
}
