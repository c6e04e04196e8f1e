//! The warm pool: a generational slab arena plus the ordered indexes the
//! engine's hot path queries.
//!
//! Instances live in a **slab arena**: a dense, struct-of-arrays set of
//! slot vectors recycled through a free list. Handles are generational
//! ([`WarmId`]), so a stale handle — an instance that was reused, evicted
//! or expired, whose slot may already hold a different instance — fails
//! the generation check instead of aliasing. Lookup is an array index.
//!
//! The two per-owner indexes are **intrusive doubly linked lists** threaded
//! through the slab's hot array, so they cost one `u32` head per function
//! (plus a head and tail per node) and never allocate:
//!
//! - the **per-function candidate list** keeps a function's live
//!   instances in reuse-preference order, `(start-penalty class, expiry,
//!   seq)`. Insertion walks from the head to the first larger key — a
//!   function rarely holds more than two warm instances, so the walk is
//!   usually 0–2 steps — and removal is an O(1) unlink.
//! - the **per-node residency list** keeps a node's residents in admission
//!   order. Admission numbers (`seq`) only grow, so admission is an O(1)
//!   append at the tail and the list is a FIFO: eviction examines only the
//!   target node's residents, oldest first.
//!
//! The candidate key of a compressed instance changes once, when
//! background compression finishes (`compressed_ready_at`): before that a
//! reuse finds the uncompressed copy (penalty zero), after it a reuse pays
//! decompression. Rather than rewriting keys eagerly on a timer, the pool
//! parks each pending re-key in a time-ordered `transitions` calendar and
//! migrates the due ones at query time ([`WarmPool::migrate_due`]) — an
//! unlink plus a relink, at most once per instance.
//!
//! Keep-alive expirations are served from the `expiries` calendar over
//! every live instance. Both calendars are indexed heaps over slab slots
//! ([`SlotHeap`]), so once the slab and the calendars reach their
//! high-water capacity, admission, reuse, eviction and expiry perform no
//! heap allocation at all.

#[cfg(any(test, debug_assertions))]
use cc_types::MemoryMb;
use cc_types::{FunctionId, NodeId, SimDuration, SimTime, WarmId};

use crate::calendar::SlotHeap;
use crate::node::WarmInstance;

/// The null link: no slot, i.e. the end of a list (or an empty one).
const NO_SLOT: u32 = u32::MAX;

/// Index of the per-function candidate list's links in [`SlotHot::links`].
const CANDIDATES: usize = 0;
/// Index of the per-node residency list's links in [`SlotHot::links`].
const RESIDENTS: usize = 1;

/// One slot's position in an intrusive list: its neighbours' slots, or
/// [`NO_SLOT`] at either end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Links {
    prev: u32,
    next: u32,
}

impl Links {
    const UNLINKED: Links = Links {
        prev: NO_SLOT,
        next: NO_SLOT,
    };
}

/// Hot per-slot fields, split struct-of-arrays style from the full
/// [`WarmInstance`]: everything the per-arrival paths (candidate-list
/// walks, transition migration, removal, expiry drain) need, in one dense
/// 40-byte record so those reads stay out of the cold instance array.
#[derive(Debug, Clone, Copy)]
struct SlotHot {
    /// Keep-alive expiry of the occupying instance.
    expiry: SimTime,
    /// Admission number of the occupying instance.
    seq: u64,
    /// The penalty class the instance's candidate key currently carries:
    /// zero until the compression re-key transition migrates it, the
    /// decompression penalty after. Maintained by insert/migrate so
    /// removal never infers it from the transition set.
    key_penalty: SimDuration,
    /// Links in the function's candidate list ([`CANDIDATES`]) and the
    /// node's residency list ([`RESIDENTS`]).
    links: [Links; 2],
}

impl SlotHot {
    const VACANT: SlotHot = SlotHot {
        expiry: SimTime::ZERO,
        seq: 0,
        key_penalty: SimDuration::ZERO,
        links: [Links::UNLINKED; 2],
    };

    /// The candidate-list order key; `seq` makes it unique.
    fn candidate_key(&self) -> (SimDuration, SimTime, u64) {
        (self.key_penalty, self.expiry, self.seq)
    }
}

/// Cold per-slot payload: the full instance, or the free-list link.
#[derive(Debug)]
enum SlotCold {
    Occupied(WarmInstance),
    Vacant { next_free: u32 },
}

/// The warm-instance arena and its indexes. See the module docs.
///
/// The arena is laid out struct-of-arrays: `generations`, `hot`, and
/// `cold` are parallel vectors indexed by slot. A handle is live iff its
/// generation matches `generations[slot]`.
#[derive(Debug)]
pub(crate) struct WarmPool {
    /// Per slot: bumped every time the slot is freed; a handle is live iff
    /// its generation matches.
    generations: Vec<u32>,
    /// Per slot: the hot fields and list links of the occupying instance
    /// (garbage while vacant).
    hot: Vec<SlotHot>,
    /// Per slot: the full instance, or the free-list link while vacant.
    cold: Vec<SlotCold>,
    free_head: u32,
    len: usize,
    compressed: usize,
    next_seq: u64,
    /// Per function: the first slot of its candidate list.
    candidate_heads: Vec<u32>,
    /// Per node: the oldest resident's slot.
    resident_heads: Vec<u32>,
    /// Per node: the newest resident's slot (admission appends here).
    resident_tails: Vec<u32>,
    /// Compressed instances whose candidate key still carries a zero
    /// penalty but must be re-keyed, keyed by `(compressed_ready_at, seq)`.
    transitions: SlotHeap,
    /// Expiry calendar: every live instance keyed by `(expiry, seq)`. The
    /// engine serves keep-alive expirations straight from this index
    /// instead of pushing one heap event per admission, so a window
    /// boundary drains all due expiries in one ordered pass and
    /// reused/evicted instances never leave stale tombstone events behind.
    expiries: SlotHeap,
}

/// Iterator over one intrusive list, yielding live handles.
pub(crate) struct ListIter<'a, const L: usize> {
    pool: &'a WarmPool,
    cursor: u32,
}

impl<const L: usize> Iterator for ListIter<'_, L> {
    type Item = WarmId;

    fn next(&mut self) -> Option<WarmId> {
        if self.cursor == NO_SLOT {
            return None;
        }
        let slot = self.cursor as usize;
        self.cursor = self.pool.hot[slot].links[L].next;
        Some(WarmId::new(slot as u32, self.pool.generations[slot]))
    }
}

impl WarmPool {
    /// Creates an empty pool for a cluster of `nodes` nodes serving
    /// `functions` distinct functions.
    pub fn new(functions: usize, nodes: usize) -> WarmPool {
        WarmPool {
            generations: Vec::new(),
            hot: Vec::new(),
            cold: Vec::new(),
            free_head: NO_SLOT,
            len: 0,
            compressed: 0,
            next_seq: 0,
            candidate_heads: vec![NO_SLOT; functions],
            resident_heads: vec![NO_SLOT; nodes],
            resident_tails: vec![NO_SLOT; nodes],
            transitions: SlotHeap::default(),
            expiries: SlotHeap::default(),
        }
    }

    /// Number of live instances.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of live instances stored compressed.
    pub fn compressed_count(&self) -> usize {
        self.compressed
    }

    /// Whether `function` has at least one live instance.
    pub fn is_warm(&self, function: FunctionId) -> bool {
        self.candidate_heads[function.index()] != NO_SLOT
    }

    /// The live instance behind `id`, or `None` if the handle is stale
    /// (the instance was reused, evicted, or expired; the slot may by now
    /// hold a different instance of a newer generation).
    pub fn get(&self, id: WarmId) -> Option<&WarmInstance> {
        if *self.generations.get(id.slot())? != id.generation() {
            return None;
        }
        match &self.cold[id.slot()] {
            SlotCold::Occupied(inst) => Some(inst),
            SlotCold::Vacant { .. } => None,
        }
    }

    /// Admits `inst` into the pool, assigning its `id` (next free slot,
    /// current generation) and `seq` (next admission number); the caller's
    /// values for those two fields are ignored. Returns the assigned id.
    pub fn insert(&mut self, mut inst: WarmInstance) -> WarmId {
        self.next_seq += 1;
        inst.seq = self.next_seq;

        let slot = if self.free_head != NO_SLOT {
            let index = self.free_head;
            let SlotCold::Vacant { next_free } = self.cold[index as usize] else {
                unreachable!("free list points at an occupied slot");
            };
            self.free_head = next_free;
            index
        } else {
            assert!(
                self.cold.len() < NO_SLOT as usize,
                "warm pool slot space exhausted"
            );
            self.generations.push(0);
            self.hot.push(SlotHot::VACANT);
            self.cold.push(SlotCold::Vacant { next_free: NO_SLOT });
            (self.cold.len() - 1) as u32
        };
        let id = WarmId::new(slot, self.generations[slot as usize]);
        inst.id = id;

        // A compressed instance enters the zero-penalty class (reuse finds
        // the uncompressed copy until compression completes) and is parked
        // for re-keying — unless compression is instantaneous, in which
        // case it pays decompression from the start.
        let key_penalty = inst.admission_key_penalty();
        self.hot[slot as usize] = SlotHot {
            expiry: inst.expiry,
            seq: inst.seq,
            key_penalty,
            links: [Links::UNLINKED; 2],
        };
        self.link_candidate(inst.function, slot);
        // `seq` only grows, so the new resident is the node's newest.
        let node = inst.node.index();
        let tail = self.resident_tails[node];
        self.link::<RESIDENTS>(slot, tail, NO_SLOT);
        if tail == NO_SLOT {
            self.resident_heads[node] = slot;
        }
        self.resident_tails[node] = slot;

        if inst.compressed && inst.compressed_ready_at > inst.since {
            self.transitions
                .push(inst.compressed_ready_at, inst.seq, slot);
        }
        if inst.compressed {
            self.compressed += 1;
        }
        self.expiries.push(inst.expiry, inst.seq, slot);
        self.cold[slot as usize] = SlotCold::Occupied(inst);
        self.len += 1;
        id
    }

    /// Removes the live instance behind `id` from the arena and every
    /// index, returning it.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale — engine invariants guarantee removal
    /// targets are alive, so a stale handle here is a bug.
    pub fn remove(&mut self, id: WarmId) -> WarmInstance {
        assert_eq!(
            self.generations[id.slot()],
            id.generation(),
            "instance must exist to be removed"
        );
        let slot = id.slot() as u32;
        let state = std::mem::replace(
            &mut self.cold[id.slot()],
            SlotCold::Vacant {
                next_free: self.free_head,
            },
        );
        let SlotCold::Occupied(inst) = state else {
            panic!("instance must exist to be removed");
        };
        let SlotHot {
            expiry,
            seq,
            key_penalty,
            ..
        } = self.hot[id.slot()];
        debug_assert_eq!(
            (expiry, seq),
            (inst.expiry, inst.seq),
            "hot array out of sync"
        );

        self.unlink_candidate(inst.function, slot);
        let links = self.unlink::<RESIDENTS>(slot);
        let node = inst.node.index();
        if links.prev == NO_SLOT {
            self.resident_heads[node] = links.next;
        }
        if links.next == NO_SLOT {
            self.resident_tails[node] = links.prev;
        }

        self.generations[id.slot()] += 1;
        self.hot[id.slot()] = SlotHot::VACANT;
        self.free_head = slot;
        self.len -= 1;

        if inst.compressed {
            // Drop the parked re-key transition if it never fired; a
            // no-op for instances that already migrated (or entered the
            // penalty class at admission).
            let parked = self.transitions.remove(slot);
            debug_assert!(
                !parked || key_penalty.is_zero(),
                "hot penalty class out of sync with the transition set"
            );
            self.compressed -= 1;
        }
        let removed = self.expiries.remove(slot);
        debug_assert!(removed, "expiry calendar out of sync");
        inst
    }

    /// The earliest keep-alive expiration among live instances, as
    /// `(expiry, seq, id)`. `seq` is the admission number, so equal-time
    /// expirations come out in admission order — the same order the
    /// per-admission heap events used to impose.
    pub fn next_expiry(&self) -> Option<(SimTime, u64, WarmId)> {
        let (at, seq, slot) = self.expiries.peek()?;
        Some((at, seq, WarmId::new(slot, self.generations[slot as usize])))
    }

    /// Re-keys every compressed instance whose `compressed_ready_at` has
    /// passed by `now` from the zero-penalty class to its decompression
    /// penalty. Must be called before reading [`WarmPool::candidates_of`];
    /// each instance migrates at most once per lifetime.
    pub fn migrate_due(&mut self, now: SimTime) {
        while let Some((ready_at, _, slot)) = self.transitions.peek() {
            if ready_at > now {
                break;
            }
            self.transitions.remove(slot);
            let SlotCold::Occupied(inst) = &self.cold[slot as usize] else {
                panic!("parked transition for a dead instance");
            };
            let (function, penalty) = (inst.function, inst.decompress_penalty);
            debug_assert!(
                self.hot[slot as usize].key_penalty.is_zero(),
                "candidate list out of sync during migration"
            );
            self.unlink_candidate(function, slot);
            self.hot[slot as usize].key_penalty = penalty;
            self.link_candidate(function, slot);
        }
    }

    /// Live instances of `function` in reuse-preference order: cheapest
    /// start-penalty class first, then closest expiry, then admission
    /// order. Only valid if [`WarmPool::migrate_due`] has been called with
    /// the current time.
    pub fn candidates_of(&self, function: FunctionId) -> ListIter<'_, CANDIDATES> {
        ListIter {
            pool: self,
            cursor: self.candidate_heads[function.index()],
        }
    }

    /// Live instances resident on `node`, in admission order.
    pub fn residents_of(&self, node: NodeId) -> ListIter<'_, RESIDENTS> {
        ListIter {
            pool: self,
            cursor: self.resident_heads[node.index()],
        }
    }

    /// Sum of the footprints of `node`'s residents. O(residents); used
    /// only in debug assertions to validate the node-state counter the
    /// engine uses instead.
    #[cfg(any(test, debug_assertions))]
    pub fn resident_memory(&self, node: NodeId) -> MemoryMb {
        self.residents_of(node)
            .map(|id| self.get(id).expect("resident index out of sync").memory)
            .sum()
    }

    /// Sets `slot`'s links in list `L` to `prev`/`next` and points those
    /// neighbours back at it. The owner's head/tail is the caller's job.
    fn link<const L: usize>(&mut self, slot: u32, prev: u32, next: u32) {
        self.hot[slot as usize].links[L] = Links { prev, next };
        if prev != NO_SLOT {
            self.hot[prev as usize].links[L].next = slot;
        }
        if next != NO_SLOT {
            self.hot[next as usize].links[L].prev = slot;
        }
    }

    /// Splices `slot` out of list `L`, returning its former links so the
    /// caller can repair the owner's head/tail.
    fn unlink<const L: usize>(&mut self, slot: u32) -> Links {
        let links = self.hot[slot as usize].links[L];
        if links.prev != NO_SLOT {
            self.hot[links.prev as usize].links[L].next = links.next;
        }
        if links.next != NO_SLOT {
            self.hot[links.next as usize].links[L].prev = links.prev;
        }
        self.hot[slot as usize].links[L] = Links::UNLINKED;
        links
    }

    /// Links `slot` into `function`'s candidate list before the first
    /// entry with a larger key.
    fn link_candidate(&mut self, function: FunctionId, slot: u32) {
        let key = self.hot[slot as usize].candidate_key();
        let mut prev = NO_SLOT;
        let mut next = self.candidate_heads[function.index()];
        while next != NO_SLOT && self.hot[next as usize].candidate_key() < key {
            prev = next;
            next = self.hot[next as usize].links[CANDIDATES].next;
        }
        self.link::<CANDIDATES>(slot, prev, next);
        if prev == NO_SLOT {
            self.candidate_heads[function.index()] = slot;
        }
    }

    fn unlink_candidate(&mut self, function: FunctionId, slot: u32) {
        let links = self.unlink::<CANDIDATES>(slot);
        if links.prev == NO_SLOT {
            debug_assert_eq!(
                self.candidate_heads[function.index()],
                slot,
                "candidate list out of sync"
            );
            self.candidate_heads[function.index()] = links.next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_types::{Arch, Cost};
    use proptest::prelude::*;

    fn instance(function: u32, node: u32, expiry_s: u64) -> WarmInstance {
        WarmInstance {
            id: WarmId::INVALID,
            seq: 0,
            function: FunctionId::new(function),
            node: NodeId::new(node),
            arch: Arch::X86,
            compressed: false,
            memory: MemoryMb::new(100),
            since: SimTime::ZERO,
            expiry: SimTime::ZERO + SimDuration::from_secs(expiry_s),
            reserved: Cost::ZERO,
            compressed_ready_at: SimTime::ZERO,
            decompress_penalty: SimDuration::ZERO,
        }
    }

    fn compressed_instance(
        function: u32,
        node: u32,
        since_s: u64,
        ready_s: u64,
        expiry_s: u64,
        penalty_ms: u64,
    ) -> WarmInstance {
        WarmInstance {
            compressed: true,
            since: SimTime::ZERO + SimDuration::from_secs(since_s),
            compressed_ready_at: SimTime::ZERO + SimDuration::from_secs(ready_s),
            decompress_penalty: SimDuration::from_millis(penalty_ms),
            ..instance(function, node, expiry_s)
        }
    }

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut pool = WarmPool::new(4, 2);
        let id = pool.insert(instance(1, 0, 60));
        assert_eq!(pool.len(), 1);
        assert!(pool.is_warm(FunctionId::new(1)));
        let inst = pool.get(id).unwrap();
        assert_eq!(inst.id, id);
        assert_eq!(inst.seq, 1);
        let removed = pool.remove(id);
        assert_eq!(removed.id, id);
        assert_eq!(pool.len(), 0);
        assert!(!pool.is_warm(FunctionId::new(1)));
        assert!(pool.get(id).is_none());
    }

    #[test]
    fn stale_handle_rejected_after_slot_reuse() {
        let mut pool = WarmPool::new(4, 2);
        let first = pool.insert(instance(0, 0, 60));
        pool.remove(first);
        let second = pool.insert(instance(1, 1, 90));
        // Slot recycled, generation advanced.
        assert_eq!(second.slot(), first.slot());
        assert_ne!(second.generation(), first.generation());
        assert!(pool.get(first).is_none(), "stale handle must not alias");
        assert_eq!(pool.get(second).unwrap().function, FunctionId::new(1));
    }

    #[test]
    fn seq_keeps_increasing_across_slot_reuse() {
        let mut pool = WarmPool::new(2, 1);
        let a = pool.insert(instance(0, 0, 10));
        pool.remove(a);
        let b = pool.insert(instance(0, 0, 20));
        assert_eq!(pool.get(b).unwrap().seq, 2);
    }

    #[test]
    fn candidates_order_by_penalty_then_expiry_then_seq() {
        let mut pool = WarmPool::new(2, 4);
        // Compressed & ready (pays penalty), uncompressed far expiry,
        // uncompressed near expiry, compressed not yet ready (free).
        let ready = pool.insert(compressed_instance(0, 0, 0, 5, 200, 30));
        let far = pool.insert(instance(0, 1, 300));
        let near = pool.insert(instance(0, 2, 100));
        let pending = pool.insert(compressed_instance(0, 3, 0, 1000, 250, 30));
        pool.migrate_due(at(10));
        let order: Vec<WarmId> = pool.candidates_of(FunctionId::new(0)).collect();
        // Zero-penalty class first by expiry (near, pending, far), then the
        // decompressing one.
        assert_eq!(order, vec![near, pending, far, ready]);
    }

    #[test]
    fn migration_moves_instance_to_penalty_class_exactly_at_ready_time() {
        let mut pool = WarmPool::new(1, 2);
        let compressed = pool.insert(compressed_instance(0, 0, 0, 50, 100, 30));
        let plain = pool.insert(instance(0, 1, 300));
        pool.migrate_due(at(49));
        let order: Vec<WarmId> = pool.candidates_of(FunctionId::new(0)).collect();
        assert_eq!(
            order,
            vec![compressed, plain],
            "free class wins before ready"
        );
        pool.migrate_due(at(50));
        let order: Vec<WarmId> = pool.candidates_of(FunctionId::new(0)).collect();
        assert_eq!(
            order,
            vec![plain, compressed],
            "penalty class loses after ready"
        );
    }

    #[test]
    fn removal_before_and_after_migration_keeps_indexes_consistent() {
        let mut pool = WarmPool::new(1, 1);
        let a = pool.insert(compressed_instance(0, 0, 0, 50, 100, 30));
        pool.remove(a); // still parked: transition entry must go too
        assert!(pool.transitions.is_empty());
        let b = pool.insert(compressed_instance(0, 0, 0, 60, 100, 30));
        pool.migrate_due(at(70)); // migrated: key now carries the penalty
        let removed = pool.remove(b);
        assert!(removed.compressed);
        assert_eq!(pool.len(), 0);
        assert_eq!(pool.compressed_count(), 0);
        assert!(pool.candidates_of(FunctionId::new(0)).next().is_none());
    }

    #[test]
    fn expiry_calendar_orders_by_time_then_admission() {
        let mut pool = WarmPool::new(2, 2);
        let late = pool.insert(instance(0, 0, 90));
        let early_a = pool.insert(instance(1, 1, 30));
        let early_b = pool.insert(instance(0, 0, 30));
        // Earliest expiry first; equal-time entries in admission order.
        assert_eq!(pool.next_expiry(), Some((at(30), 2, early_a)));
        pool.remove(early_a);
        assert_eq!(pool.next_expiry(), Some((at(30), 3, early_b)));
        pool.remove(early_b);
        assert_eq!(pool.next_expiry(), Some((at(90), 1, late)));
        pool.remove(late);
        assert_eq!(pool.next_expiry(), None, "empty pool has no expiries");
    }

    #[test]
    fn residents_and_candidates_track_membership() {
        let mut pool = WarmPool::new(3, 2);
        let a = pool.insert(instance(0, 0, 60));
        let b = pool.insert(instance(1, 0, 30));
        let c = pool.insert(instance(0, 1, 90));
        assert_eq!(
            pool.residents_of(NodeId::new(0)).collect::<Vec<_>>(),
            vec![a, b]
        );
        assert_eq!(
            pool.candidates_of(FunctionId::new(0)).collect::<Vec<_>>(),
            vec![a, c]
        );
        pool.remove(a);
        assert_eq!(
            pool.residents_of(NodeId::new(0)).collect::<Vec<_>>(),
            vec![b]
        );
        assert_eq!(
            pool.candidates_of(FunctionId::new(0)).collect::<Vec<_>>(),
            vec![c]
        );
        assert_eq!(pool.resident_memory(NodeId::new(1)), MemoryMb::new(100));
        pool.remove(b);
        assert!(pool.residents_of(NodeId::new(0)).next().is_none());
        assert_eq!(pool.resident_heads[0], NO_SLOT);
        assert_eq!(pool.resident_tails[0], NO_SLOT);
    }

    /// Checks every intrusive list against the live set: each list's
    /// prev/next links are mutually consistent, and an owner's head (and
    /// tail) is `NO_SLOT` exactly when its list is empty.
    fn assert_lists_consistent(pool: &WarmPool) -> Result<(), String> {
        fn check<const L: usize>(pool: &WarmPool, head: u32) -> Result<u32, String> {
            let (mut prev, mut cursor, mut steps) = (NO_SLOT, head, 0usize);
            while cursor != NO_SLOT {
                let links = pool.hot[cursor as usize].links[L];
                prop_assert_eq!(links.prev, prev, "asymmetric prev link");
                prop_assert!(
                    matches!(pool.cold[cursor as usize], SlotCold::Occupied(_)),
                    "list reaches a vacant slot"
                );
                prev = cursor;
                cursor = links.next;
                steps += 1;
                prop_assert!(steps <= pool.len(), "list cycles");
            }
            Ok(prev)
        }
        let mut linked = 0;
        for (f, &head) in pool.candidate_heads.iter().enumerate() {
            check::<CANDIDATES>(pool, head)?;
            linked += pool.candidates_of(FunctionId::new(f as u32)).count();
        }
        prop_assert_eq!(linked, pool.len(), "candidate lists miss instances");
        let mut resident = 0;
        for (n, (&head, &tail)) in pool
            .resident_heads
            .iter()
            .zip(&pool.resident_tails)
            .enumerate()
        {
            let last = check::<RESIDENTS>(pool, head)?;
            prop_assert_eq!(last, tail, "tail is not the list's last slot");
            prop_assert_eq!(head == NO_SLOT, tail == NO_SLOT);
            resident += pool.residents_of(NodeId::new(n as u32)).count();
        }
        prop_assert_eq!(resident, pool.len(), "residency lists miss instances");
        Ok(())
    }

    proptest! {
        // The property the whole candidate index stands on: at any query
        // time, iterating `candidates_of` yields exactly the order the
        // pre-refactor engine computed by collecting every live instance
        // of the function and sorting by `(penalty at now, expiry,
        // admission id)`.
        #[test]
        fn candidate_index_matches_sort_based_selection(
            // (compressed, ready_offset_s, expiry_s, penalty_ms, node)
            specs in prop::collection::vec(
                (any::<bool>(), 0u64..120, 1u64..240, 1u64..80, 0u32..4),
                1..24,
            ),
            removals in prop::collection::vec(any::<u16>(), 0..8),
            // Monotonically applied query times: migration is incremental
            // (each instance re-keys at most once), so the index must match
            // the sort-based reference at EVERY step, not just the last.
            query_steps in prop::collection::vec(0u64..130, 1..4),
        ) {
            let mut pool = WarmPool::new(1, 4);
            let mut ids = Vec::new();
            for &(compressed, ready_s, expiry_s, penalty_ms, node) in &specs {
                let inst = if compressed {
                    compressed_instance(0, node, 0, ready_s, expiry_s, penalty_ms)
                } else {
                    instance(0, node, expiry_s)
                };
                ids.push(pool.insert(inst));
            }
            for &r in &removals {
                if ids.is_empty() { break; }
                let victim = ids.swap_remove(r as usize % ids.len());
                pool.remove(victim);
            }

            // Removals interleaved between migration steps exercise the
            // penalty-class read on both sides of each re-key.
            let mut now_s = 0u64;
            for (step, &advance) in query_steps.iter().enumerate() {
                now_s += advance;
                let now = at(now_s);
                pool.migrate_due(now);
                if step > 0 && !ids.is_empty() {
                    let victim = ids.swap_remove(step % ids.len());
                    pool.remove(victim);
                }
                let indexed: Vec<WarmId> =
                    pool.candidates_of(FunctionId::new(0)).collect();

                // Pre-refactor selection: collect live instances, compute
                // the penalty a reuse at `now` would pay, sort.
                let mut brute: Vec<(SimDuration, SimTime, u64, WarmId)> = ids
                    .iter()
                    .map(|&id| {
                        let inst = pool.get(id).expect("live");
                        let penalty = if inst.pays_decompression(now) {
                            inst.decompress_penalty
                        } else {
                            SimDuration::ZERO
                        };
                        (penalty, inst.expiry, inst.seq, id)
                    })
                    .collect();
                brute.sort();
                let brute: Vec<WarmId> = brute.into_iter().map(|(_, _, _, id)| id).collect();

                prop_assert_eq!(indexed, brute, "diverged at step {} (now={}s)", step, now_s);
            }
        }

        // Slab bookkeeping stays consistent under arbitrary interleavings
        // of admissions and removals.
        #[test]
        fn slab_len_and_counters_survive_churn(
            ops in prop::collection::vec((any::<bool>(), any::<u16>()), 1..60),
        ) {
            let mut pool = WarmPool::new(4, 2);
            let mut live: Vec<WarmId> = Vec::new();
            let mut compressed_live = 0usize;
            for (i, &(remove, r)) in ops.iter().enumerate() {
                if remove && !live.is_empty() {
                    let id = live.swap_remove(r as usize % live.len());
                    if pool.remove(id).compressed {
                        compressed_live -= 1;
                    }
                } else {
                    let compress = i % 3 == 0;
                    let inst = if compress {
                        compressed_instance((i % 4) as u32, (i % 2) as u32, 0, 30, 60, 20)
                    } else {
                        instance((i % 4) as u32, (i % 2) as u32, 60)
                    };
                    live.push(pool.insert(inst));
                    if compress {
                        compressed_live += 1;
                    }
                }
                prop_assert_eq!(pool.len(), live.len());
                prop_assert_eq!(pool.compressed_count(), compressed_live);
            }
            for &id in &live {
                prop_assert!(pool.get(id).is_some());
            }
        }

        // The intrusive lists under arbitrary interleavings of admissions,
        // removals and compression-ready migrations across several
        // functions and nodes, against brute-force references over the
        // live set.
        #[test]
        fn intrusive_lists_match_references_under_churn(
            // ((op, function, node), (compressed, ready_s, expiry_s),
            //  (penalty_ms, pick))
            ops in prop::collection::vec(
                (
                    (0u8..4, 0u32..3, 0u32..3),
                    (any::<bool>(), 0u64..90, 1u64..180),
                    (1u64..60, any::<u16>()),
                ),
                1..80,
            ),
        ) {
            const FUNCTIONS: u32 = 3;
            const NODES: u32 = 3;
            let mut pool = WarmPool::new(FUNCTIONS as usize, NODES as usize);
            let mut live: Vec<WarmId> = Vec::new();
            let mut now_s = 0u64;
            for &((op, function, node), (compressed, ready_s, expiry_s), (penalty_ms, pick)) in &ops {
                match op {
                    // Admissions twice as often as removals, so lists grow.
                    0 | 1 => {
                        let (ready, expiry) = (now_s + ready_s, now_s + expiry_s);
                        let inst = if compressed {
                            compressed_instance(function, node, now_s, ready, expiry, penalty_ms)
                        } else {
                            instance(function, node, expiry)
                        };
                        live.push(pool.insert(inst));
                    }
                    2 if !live.is_empty() => {
                        let victim = live.swap_remove(pick as usize % live.len());
                        pool.remove(victim);
                    }
                    _ => {
                        now_s += u64::from(pick % 30);
                        pool.migrate_due(at(now_s));
                    }
                }
                assert_lists_consistent(&pool)?;

                let now = at(now_s);
                pool.migrate_due(now);
                for f in 0..FUNCTIONS {
                    let function = FunctionId::new(f);
                    let mut brute: Vec<(SimDuration, SimTime, u64, WarmId)> = live
                        .iter()
                        .map(|&id| pool.get(id).expect("live"))
                        .filter(|inst| inst.function == function)
                        .map(|inst| {
                            let penalty = if inst.pays_decompression(now) {
                                inst.decompress_penalty
                            } else {
                                SimDuration::ZERO
                            };
                            (penalty, inst.expiry, inst.seq, inst.id)
                        })
                        .collect();
                    brute.sort();
                    let brute: Vec<WarmId> = brute.into_iter().map(|(_, _, _, id)| id).collect();
                    prop_assert_eq!(pool.is_warm(function), !brute.is_empty());
                    let indexed: Vec<WarmId> = pool.candidates_of(function).collect();
                    prop_assert_eq!(indexed, brute);
                }
                for n in 0..NODES {
                    let node = NodeId::new(n);
                    let mut brute: Vec<(u64, WarmId)> = live
                        .iter()
                        .map(|&id| pool.get(id).expect("live"))
                        .filter(|inst| inst.node == node)
                        .map(|inst| (inst.seq, inst.id))
                        .collect();
                    brute.sort();
                    let brute: Vec<WarmId> = brute.into_iter().map(|(_, id)| id).collect();
                    let indexed: Vec<WarmId> = pool.residents_of(node).collect();
                    prop_assert_eq!(indexed, brute);
                }
            }
        }
    }
}
