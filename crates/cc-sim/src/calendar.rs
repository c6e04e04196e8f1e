//! The warm pool's time-ordered calendars (keep-alive expiries and
//! compression re-key transitions): an indexed binary min-heap over slab
//! slots.
//!
//! Every slot is queued at most once, keyed by `(time, seq)`; `seq` is the
//! occupying instance's unique admission number, so the order is total and
//! exactly the order an ordered set of `(time, seq, id)` tuples iterates
//! in. Each slot's heap position is tracked, so an arbitrary slot leaves
//! the calendar in O(log n) — a reused or evicted instance never lingers
//! as a tombstone. Unlike an ordered set, the heap lives in two flat
//! vectors: once they reach their high-water capacity, pushes and removals
//! never allocate.

use cc_types::SimTime;

/// Position sentinel: the slot is not queued.
const NOT_QUEUED: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Entry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Entry {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// An indexed min-heap of slab slots keyed by `(time, seq)`. See the module
/// docs.
#[derive(Debug, Default)]
pub(crate) struct SlotHeap {
    entries: Vec<Entry>,
    /// Per slot: its index in `entries`, or [`NOT_QUEUED`].
    positions: Vec<u32>,
}

impl SlotHeap {
    /// Whether nothing is queued.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The earliest entry as `(time, seq, slot)`.
    pub fn peek(&self) -> Option<(SimTime, u64, u32)> {
        self.entries.first().map(|e| (e.at, e.seq, e.slot))
    }

    /// Queues `slot` at `(at, seq)`. The slot must not already be queued.
    pub fn push(&mut self, at: SimTime, seq: u64, slot: u32) {
        let index = slot as usize;
        if index >= self.positions.len() {
            self.positions.resize(index + 1, NOT_QUEUED);
        }
        debug_assert_eq!(self.positions[index], NOT_QUEUED, "slot queued twice");
        self.entries.push(Entry { at, seq, slot });
        self.sift_up(self.entries.len() - 1);
    }

    /// Removes `slot` from the calendar. Returns whether it was queued.
    pub fn remove(&mut self, slot: u32) -> bool {
        let Some(&position) = self.positions.get(slot as usize) else {
            return false;
        };
        if position == NOT_QUEUED {
            return false;
        }
        self.positions[slot as usize] = NOT_QUEUED;
        let last = self.entries.pop().expect("a queued slot has an entry");
        let hole = position as usize;
        if hole < self.entries.len() {
            // Refill the hole with the former last entry, then restore the
            // heap order in whichever direction it is violated.
            self.set(hole, last);
            if hole > 0 && last.key() < self.entries[(hole - 1) / 2].key() {
                self.sift_up(hole);
            } else {
                self.sift_down(hole);
            }
        }
        true
    }

    fn set(&mut self, index: usize, entry: Entry) {
        self.entries[index] = entry;
        self.positions[entry.slot as usize] = index as u32;
    }

    fn sift_up(&mut self, mut index: usize) {
        let entry = self.entries[index];
        while index > 0 {
            let parent = (index - 1) / 2;
            if self.entries[parent].key() <= entry.key() {
                break;
            }
            self.set(index, self.entries[parent]);
            index = parent;
        }
        self.set(index, entry);
    }

    fn sift_down(&mut self, mut index: usize) {
        let entry = self.entries[index];
        let len = self.entries.len();
        loop {
            let left = 2 * index + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.entries[right].key() < self.entries[left].key() {
                right
            } else {
                left
            };
            if entry.key() <= self.entries[child].key() {
                break;
            }
            self.set(index, self.entries[child]);
            index = child;
        }
        self.set(index, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_types::SimDuration;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn pops_in_time_then_seq_order_and_removes_anywhere() {
        let mut heap = SlotHeap::default();
        heap.push(at(30), 1, 4);
        heap.push(at(10), 3, 0);
        heap.push(at(10), 2, 7);
        assert_eq!(heap.peek(), Some((at(10), 2, 7)));
        assert!(heap.remove(7));
        assert!(!heap.remove(7), "a slot leaves once");
        assert!(!heap.remove(99), "never-queued slots are not queued");
        assert_eq!(heap.peek(), Some((at(10), 3, 0)));
        assert!(heap.remove(0));
        assert_eq!(heap.peek(), Some((at(30), 1, 4)));
        assert!(heap.remove(4));
        assert!(heap.is_empty());
        assert_eq!(heap.peek(), None);
    }

    proptest! {
        // The heap's head always equals the first element of the ordered
        // set it replaced, under arbitrary pushes and removals.
        #[test]
        fn head_matches_ordered_set_reference(
            ops in prop::collection::vec((any::<bool>(), 0u64..50, any::<u16>()), 1..120),
        ) {
            let mut heap = SlotHeap::default();
            let mut reference: BTreeSet<(SimTime, u64, u32)> = BTreeSet::new();
            let mut queued: Vec<u32> = Vec::new();
            let mut free: Vec<u32> = (0..64).rev().collect();
            for (seq, &(remove, time_s, pick)) in ops.iter().enumerate() {
                if remove && !queued.is_empty() {
                    let slot = queued.swap_remove(pick as usize % queued.len());
                    let entry = *reference.iter().find(|e| e.2 == slot).expect("queued");
                    reference.remove(&entry);
                    prop_assert!(heap.remove(slot));
                    free.push(slot);
                } else if let Some(slot) = free.pop() {
                    heap.push(at(time_s), seq as u64, slot);
                    reference.insert((at(time_s), seq as u64, slot));
                    queued.push(slot);
                }
                prop_assert_eq!(heap.peek(), reference.iter().next().copied());
            }
            // Draining pops the whole reference order.
            while let Some((_, _, slot)) = heap.peek() {
                let first = reference.pop_first().expect("reference as long as heap");
                prop_assert_eq!(first.2, slot);
                heap.remove(slot);
            }
            prop_assert!(reference.is_empty());
        }
    }
}
