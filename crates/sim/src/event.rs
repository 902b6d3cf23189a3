//! The discrete-event engines: time-ordered queues with stable FIFO
//! tie-breaking.
//!
//! Sans-I/O design: an engine owns nothing but `(time, payload)` pairs; all
//! protocol state lives in the connection object that pops events and
//! schedules new ones. Two events at the same instant pop in the order they
//! were scheduled, which keeps runs deterministic.
//!
//! Two interchangeable engines implement [`EventScheduler`]:
//!
//! * [`EventQueue`] — the **legacy reference engine**: a single
//!   `BinaryHeap` keyed by `(time, insertion id)`. Every push/pop is
//!   O(log n). Kept as the golden reference the hybrid engine is checked
//!   against (see the `engine_equivalence` integration tests).
//! * [`HybridQueue`] — the **fast-path engine**: per-direction monotone
//!   [`VecDeque`] lanes for link arrivals ([`Lane::Data`]/[`Lane::Ack`]),
//!   single-slot timer lanes ([`Lane::Rto`]/[`Lane::DelAck`]) where a
//!   schedule *supersedes* the pending entry, and a tiny heap for the rare
//!   out-of-order lane push (a fault-plan delay spike). Link arrivals are
//!   FIFO per direction (the path model clamps arrival times strictly
//!   increasing), and each timer kind has at most one live deadline, so
//!   the dominant O(log n) heap traffic becomes O(1) deque pushes/pops
//!   and slot stores — and the superseded timers the legacy heap would
//!   pop (and the connection would generation-filter) never become events
//!   at all.
//!
//! Both engines realize the *same observable total order* — ascending
//! `(time, insertion id)` with one global id counter. For the hybrid
//! engine this holds because each lane is kept sorted by that key (an
//! arrival that would violate lane monotonicity overflows to the heap)
//! and a pop takes the minimum over the lane heads, the timer slots, and
//! the heap top. The engines differ in exactly one way: the legacy queue
//! retains superseded timer entries until they pop (the simulator filters
//! them by generation with no side effects), while the hybrid queue drops
//! them at schedule time — so only `len()` and the raw pop *count* can
//! differ, never the sequence of live events.

use crate::time::SimTime;
use pftk_snap::{SnapError, SnapReader, SnapResult, SnapWriter};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Which scheduling lane an event belongs to.
///
/// The hybrid engine exploits the per-direction FIFO ordering of link
/// arrivals and the one-live-deadline nature of the protocol timers. The
/// legacy engine ignores the lane entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Data-direction link arrivals (sender → receiver): monotone
    /// per-path, eligible for the O(1) deque lane.
    Data,
    /// ACK-direction link arrivals (receiver → sender): monotone
    /// per-path, eligible for the O(1) deque lane.
    Ack,
    /// The retransmission-timeout timer: **single-slot** — scheduling
    /// replaces any pending entry in this lane, because re-arming the RTO
    /// supersedes the previous deadline (the simulator would discard its
    /// firing via a generation check anyway).
    Rto,
    /// The delayed-ACK timer: single-slot, like [`Lane::Rto`].
    DelAck,
}

/// Common interface of the event engines, so the connection can be
/// monomorphized over either (no virtual dispatch on the hot path).
pub trait EventScheduler<E>: Default {
    /// Schedules `payload` to fire at `at` on the given lane.
    fn schedule(&mut self, lane: Lane, at: SimTime, payload: E);
    /// Removes and returns the earliest event, if any.
    fn pop(&mut self) -> Option<(SimTime, E)>;
    /// The timestamp of the earliest pending event.
    fn peek_time(&self) -> Option<SimTime>;
    /// Removes and returns the earliest event if it fires at or before
    /// `until`; otherwise leaves the queue untouched and returns `None`.
    /// The default peeks then pops; a queue whose peek is a scan overrides
    /// it to scan once.
    #[inline]
    fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? > until {
            return None;
        }
        self.pop()
    }
    /// Number of pending events.
    fn len(&self) -> usize;
    /// True when no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A time-ordered queue of events of type `E` — the legacy single-heap
/// engine (every operation O(log n)); see the module docs.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_id: u64,
}

#[derive(Debug)]
struct Entry<E> {
    key: Reverse<(SimTime, u64)>,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_id: 0,
        }
    }

    /// Schedules `payload` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let id = self.next_id;
        self.next_id += 1;
        //~ allow(hot_alloc): amortized heap growth; capacity reaches a steady state after slow start
        self.heap.push(Entry {
            key: Reverse((at, id)),
            payload,
        });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.key.0 .0, e.payload))
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.key.0 .0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> EventScheduler<E> for EventQueue<E> {
    #[inline]
    fn schedule(&mut self, _lane: Lane, at: SimTime, payload: E) {
        EventQueue::schedule(self, at, payload);
    }
    #[inline]
    fn pop(&mut self) -> Option<(SimTime, E)> {
        EventQueue::pop(self)
    }
    #[inline]
    fn peek_time(&self) -> Option<SimTime> {
        EventQueue::peek_time(self)
    }
    #[inline]
    fn len(&self) -> usize {
        EventQueue::len(self)
    }
    #[inline]
    fn is_empty(&self) -> bool {
        EventQueue::is_empty(self)
    }
}

/// An entry in a monotone lane: the key `(at, id)` is the same total-order
/// key the legacy heap uses.
#[derive(Debug)]
struct LaneEntry<E> {
    at: SimTime,
    id: u64,
    payload: E,
}

/// The hybrid fast-path engine: two monotone arrival lanes, two
/// single-slot timer lanes, plus a tiny heap for out-of-order pushes; see
/// the module docs.
///
/// The sequence of *live* events popped is bit-identical to
/// [`EventQueue`]'s for any schedule history (the legacy queue
/// additionally pops superseded timers, which the simulator filters out).
#[derive(Debug)]
pub struct HybridQueue<E> {
    data: VecDeque<LaneEntry<E>>,
    ack: VecDeque<LaneEntry<E>>,
    rto: Option<LaneEntry<E>>,
    delack: Option<LaneEntry<E>>,
    heap: BinaryHeap<Entry<E>>,
    next_id: u64,
}

impl<E> Default for HybridQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Which source holds the globally earliest event (internal to pop).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Src {
    Data,
    Ack,
    Rto,
    DelAck,
    Heap,
}

impl<E> HybridQueue<E> {
    /// Initial capacity of the arrival lanes and the overflow heap. Lanes
    /// are bounded by packets in flight and the heap by simultaneously
    /// pending out-of-order (fault-delayed) arrivals, both of which
    /// typically peak in the low hundreds; starting warm keeps the
    /// steady-state hot path allocation-free instead of paying amortized
    /// doublings whenever a deep loss episode sets a new high-water mark
    /// mid-run.
    const INITIAL_CAPACITY: usize = 512;

    /// An empty queue (pre-reserved; see `Self::INITIAL_CAPACITY`).
    pub fn new() -> Self {
        HybridQueue {
            data: VecDeque::with_capacity(Self::INITIAL_CAPACITY),
            ack: VecDeque::with_capacity(Self::INITIAL_CAPACITY),
            rto: None,
            delack: None,
            heap: BinaryHeap::with_capacity(Self::INITIAL_CAPACITY),
            next_id: 0,
        }
    }

    /// The `(time, id)` key of the earliest pending event, with its source.
    #[inline]
    fn min_key(&self) -> Option<(SimTime, u64, Src)> {
        let mut best: Option<(SimTime, u64, Src)> = None;
        if let Some(front) = self.data.front() {
            best = Some((front.at, front.id, Src::Data));
        }
        if let Some(front) = self.ack.front() {
            if best.is_none_or(|(at, id, _)| (front.at, front.id) < (at, id)) {
                best = Some((front.at, front.id, Src::Ack));
            }
        }
        if let Some(slot) = &self.rto {
            if best.is_none_or(|(at, id, _)| (slot.at, slot.id) < (at, id)) {
                best = Some((slot.at, slot.id, Src::Rto));
            }
        }
        if let Some(slot) = &self.delack {
            if best.is_none_or(|(at, id, _)| (slot.at, slot.id) < (at, id)) {
                best = Some((slot.at, slot.id, Src::DelAck));
            }
        }
        if let Some(top) = self.heap.peek() {
            let (at, id) = top.key.0;
            if best.is_none_or(|(bat, bid, _)| (at, id) < (bat, bid)) {
                best = Some((at, id, Src::Heap));
            }
        }
        best
    }

    /// Removes the front event of `src` (the source [`Self::min_key`]
    /// named).
    #[inline]
    fn pop_from(&mut self, src: Src) -> Option<(SimTime, E)> {
        match src {
            Src::Data => self.data.pop_front().map(|e| (e.at, e.payload)),
            Src::Ack => self.ack.pop_front().map(|e| (e.at, e.payload)),
            Src::Rto => self.rto.take().map(|e| (e.at, e.payload)),
            Src::DelAck => self.delack.take().map(|e| (e.at, e.payload)),
            Src::Heap => self.heap.pop().map(|e| (e.key.0 .0, e.payload)),
        }
    }

    /// Writes the queue's full state — every pending event with its
    /// `(time, id)` key plus the id counter — using `enc` to serialize
    /// payloads. Heap entries are emitted sorted by key so the byte
    /// encoding is a pure function of the queue's contents (a `BinaryHeap`'s
    /// internal layout depends on insertion history).
    pub(crate) fn snapshot_into(
        &self,
        w: &mut SnapWriter,
        mut enc: impl FnMut(&E, &mut SnapWriter),
    ) {
        w.put_u64(self.next_id);
        for lane in [&self.data, &self.ack] {
            w.put_usize(lane.len());
            for e in lane {
                w.put_u64(e.at.as_nanos());
                w.put_u64(e.id);
                enc(&e.payload, w);
            }
        }
        for slot in [&self.rto, &self.delack] {
            match slot {
                Some(e) => {
                    w.put_bool(true);
                    w.put_u64(e.at.as_nanos());
                    w.put_u64(e.id);
                    enc(&e.payload, w);
                }
                None => w.put_bool(false),
            }
        }
        let mut entries: Vec<&Entry<E>> = self.heap.iter().collect();
        entries.sort_by_key(|e| e.key.0);
        w.put_usize(entries.len());
        for e in entries {
            let (at, id) = e.key.0;
            w.put_u64(at.as_nanos());
            w.put_u64(id);
            enc(&e.payload, w);
        }
    }

    /// Rebuilds the queue from state written by [`Self::snapshot_into`],
    /// using `dec` to deserialize payloads. Existing contents are
    /// discarded. Lane ordering is validated so a corrupt snapshot yields
    /// an error instead of a queue that pops out of order.
    pub(crate) fn restore_from(
        &mut self,
        r: &mut SnapReader<'_>,
        mut dec: impl FnMut(&mut SnapReader<'_>) -> SnapResult<E>,
    ) -> SnapResult<()> {
        self.data.clear();
        self.ack.clear();
        self.rto = None;
        self.delack = None;
        self.heap.clear();
        self.next_id = r.get_u64()?;
        let mut read_entry = |r: &mut SnapReader<'_>| -> SnapResult<LaneEntry<E>> {
            let at = SimTime::from_nanos(r.get_u64()?);
            let id = r.get_u64()?;
            let payload = dec(r)?;
            Ok(LaneEntry { at, id, payload })
        };
        for lane_idx in 0..2u8 {
            let n = r.get_usize()?;
            for _ in 0..n {
                let e = read_entry(r)?;
                let deque = if lane_idx == 0 {
                    &mut self.data
                } else {
                    &mut self.ack
                };
                if deque.back().is_some_and(|b| (e.at, e.id) <= (b.at, b.id)) {
                    return Err(SnapError::Invalid("event lane not sorted by (time, id)"));
                }
                deque.push_back(e);
            }
        }
        self.rto = if r.get_bool()? {
            Some(read_entry(r)?)
        } else {
            None
        };
        self.delack = if r.get_bool()? {
            Some(read_entry(r)?)
        } else {
            None
        };
        let n = r.get_usize()?;
        for _ in 0..n {
            let e = read_entry(r)?;
            self.heap.push(Entry {
                key: Reverse((e.at, e.id)),
                payload: e.payload,
            });
        }
        Ok(())
    }
}

impl<E> EventScheduler<E> for HybridQueue<E> {
    #[inline]
    fn schedule(&mut self, lane: Lane, at: SimTime, payload: E) {
        let id = self.next_id;
        self.next_id += 1;
        let deque = match lane {
            Lane::Data => &mut self.data,
            Lane::Ack => &mut self.ack,
            // Single-slot timers: the new deadline supersedes any pending
            // one (which the simulator would have generation-filtered).
            Lane::Rto => {
                self.rto = Some(LaneEntry { at, id, payload });
                return;
            }
            Lane::DelAck => {
                self.delack = Some(LaneEntry { at, id, payload });
                return;
            }
        };
        // The lane stays sorted by (at, id): ids are globally increasing,
        // so appending preserves order whenever time is non-decreasing. A
        // violating push (fault-plan delay landing before the lane tail)
        // overflows to the heap, which handles arbitrary order.
        match deque.back() {
            //~ allow(hot_alloc): overflow lane for out-of-order fault-plan delays; rare by construction
            Some(back) if at < back.at => self.heap.push(Entry {
                key: Reverse((at, id)),
                payload,
            }),
            //~ allow(hot_alloc): lane deques reach steady-state capacity; appends amortized O(1)
            _ => deque.push_back(LaneEntry { at, id, payload }),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<(SimTime, E)> {
        let (_, _, src) = self.min_key()?;
        self.pop_from(src)
    }

    #[inline]
    fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        match self.min_key()? {
            (at, _, _) if at > until => None,
            (_, _, src) => self.pop_from(src),
        }
    }

    #[inline]
    fn peek_time(&self) -> Option<SimTime> {
        self.min_key().map(|(at, _, _)| at)
    }

    #[inline]
    fn len(&self) -> usize {
        self.data.len()
            + self.ack.len()
            + usize::from(self.rto.is_some())
            + usize::from(self.delack.is_some())
            + self.heap.len()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.data.is_empty()
            && self.ack.is_empty()
            && self.rto.is_none()
            && self.delack.is_none()
            && self.heap.is_empty()
    }
}

/// Type-level selector of an event engine, so a simulator can be generic
/// over the engine (and monomorphize the hot loop for each) without
/// exposing its private event-payload type in public signatures.
pub trait EngineKind {
    /// The queue type this engine instantiates for payload `E`.
    type Queue<E>: EventScheduler<E>;
}

/// Selects [`HybridQueue`] — the default fast path.
#[derive(Debug, Clone, Copy, Default)]
pub struct HybridEngine;

impl EngineKind for HybridEngine {
    type Queue<E> = HybridQueue<E>;
}

/// Selects [`EventQueue`] — the legacy reference engine, kept for the
/// golden-trace equivalence tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct LegacyEngine;

impl EngineKind for LegacyEngine {
    type Queue<E> = EventQueue<E>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(t(7), ());
        assert_eq!(q.peek_time(), Some(t(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        q.schedule(t(5), 0);
        assert_eq!(q.pop(), Some((t(5), 0)));
        q.schedule(t(7), 2);
        assert_eq!(q.pop(), Some((t(7), 2)));
        assert_eq!(q.pop(), Some((t(10), 1)));
    }

    #[test]
    fn hybrid_pops_in_time_order_across_lanes() {
        let mut q = HybridQueue::new();
        q.schedule(Lane::Data, t(30), "d30");
        q.schedule(Lane::Rto, t(10), "t10");
        q.schedule(Lane::Ack, t(20), "a20");
        q.schedule(Lane::DelAck, t(15), "k15");
        q.schedule(Lane::Data, t(40), "d40");
        assert_eq!(q.pop(), Some((t(10), "t10")));
        assert_eq!(q.pop(), Some((t(15), "k15")));
        assert_eq!(q.pop(), Some((t(20), "a20")));
        assert_eq!(q.pop(), Some((t(30), "d30")));
        assert_eq!(q.pop(), Some((t(40), "d40")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn hybrid_ties_break_in_schedule_order_across_lanes() {
        let mut q = HybridQueue::new();
        q.schedule(Lane::Data, t(5), 0);
        q.schedule(Lane::Rto, t(5), 1);
        q.schedule(Lane::Ack, t(5), 2);
        q.schedule(Lane::Data, t(5), 3);
        q.schedule(Lane::DelAck, t(5), 4);
        for want in 0..5 {
            assert_eq!(q.pop(), Some((t(5), want)));
        }
    }

    #[test]
    fn hybrid_timer_lanes_are_single_slot() {
        let mut q = HybridQueue::new();
        // Re-arming supersedes: only the latest RTO deadline survives.
        q.schedule(Lane::Rto, t(100), "old-rto");
        q.schedule(Lane::Rto, t(60), "new-rto");
        // The two timer lanes are independent slots.
        q.schedule(Lane::DelAck, t(80), "delack");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t(60), "new-rto")));
        assert_eq!(q.pop(), Some((t(80), "delack")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn hybrid_out_of_order_lane_push_overflows_to_heap() {
        let mut q = HybridQueue::new();
        q.schedule(Lane::Data, t(100), "late");
        // Earlier than the lane tail: must divert to the heap, and still
        // pop first.
        q.schedule(Lane::Data, t(50), "early");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(50)));
        assert_eq!(q.pop(), Some((t(50), "early")));
        assert_eq!(q.pop(), Some((t(100), "late")));
    }

    #[test]
    fn hybrid_peek_len_empty() {
        let mut q: HybridQueue<()> = HybridQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(Lane::Rto, t(9), ());
        q.schedule(Lane::Ack, t(4), ());
        assert_eq!(q.peek_time(), Some(t(4)));
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }

    /// The engines realize the same observable total order: a randomized
    /// schedule history (mostly-monotone lanes with occasional backwards
    /// jumps and re-armed timers, interleaved with pops) must pop the same
    /// live events in the same order. The legacy queue additionally pops
    /// superseded timer entries — exactly the ones the simulator would
    /// generation-filter — so the reference skips those.
    #[test]
    fn hybrid_matches_legacy_on_randomized_histories() {
        use std::collections::HashSet;

        /// The next *live* legacy event: superseded timers are filtered
        /// the way `Connection`'s generation check filters them.
        fn legacy_next(
            legacy: &mut EventQueue<u32>,
            superseded: &mut HashSet<u32>,
        ) -> Option<(SimTime, u32)> {
            while let Some((at, v)) = EventQueue::pop(legacy) {
                if superseded.remove(&v) {
                    continue;
                }
                return Some((at, v));
            }
            None
        }

        for seed in 0..20u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut legacy = EventQueue::new();
            let mut hybrid = HybridQueue::new();
            // Payloads of timer entries superseded by a re-arm and still
            // sitting in the legacy heap.
            let mut superseded: HashSet<u32> = HashSet::new();
            let mut live_rto: Option<u32> = None;
            let mut live_delack: Option<u32> = None;
            let mut data_clock = 0u64;
            let mut ack_clock = 0u64;
            let mut next = 0u32;
            for _ in 0..400 {
                match rng.uniform_u32(0, 10) {
                    // Monotone data arrival.
                    0..=2 => {
                        data_clock += rng.uniform_u64(0, 40);
                        legacy.schedule(t(data_clock), next);
                        hybrid.schedule(Lane::Data, t(data_clock), next);
                        next += 1;
                    }
                    // Monotone ACK arrival.
                    3..=5 => {
                        ack_clock += rng.uniform_u64(0, 40);
                        legacy.schedule(t(ack_clock), next);
                        hybrid.schedule(Lane::Ack, t(ack_clock), next);
                        next += 1;
                    }
                    // Backwards lane push (fault-plan delay spike).
                    6 => {
                        let at = rng.uniform_u64(0, data_clock.max(1));
                        legacy.schedule(t(at), next);
                        hybrid.schedule(Lane::Data, t(at), next);
                        next += 1;
                    }
                    // (Re-)arm the RTO timer at an arbitrary instant.
                    7 => {
                        let at = rng.uniform_u64(0, 2000);
                        legacy.schedule(t(at), next);
                        hybrid.schedule(Lane::Rto, t(at), next);
                        if let Some(old) = live_rto.replace(next) {
                            superseded.insert(old);
                        }
                        next += 1;
                    }
                    // (Re-)arm the delayed-ACK timer.
                    8 => {
                        let at = rng.uniform_u64(0, 2000);
                        legacy.schedule(t(at), next);
                        hybrid.schedule(Lane::DelAck, t(at), next);
                        if let Some(old) = live_delack.replace(next) {
                            superseded.insert(old);
                        }
                        next += 1;
                    }
                    // Interleaved pop.
                    _ => {
                        let a = legacy_next(&mut legacy, &mut superseded);
                        let b = EventScheduler::pop(&mut hybrid);
                        assert_eq!(a, b, "seed {seed}");
                        if let Some((_, v)) = a {
                            if live_rto == Some(v) {
                                live_rto = None;
                            }
                            if live_delack == Some(v) {
                                live_delack = None;
                            }
                        }
                    }
                }
                // Live-event counts agree (legacy still holds the
                // superseded entries).
                assert_eq!(
                    legacy.len() - superseded.len(),
                    EventScheduler::len(&hybrid),
                    "seed {seed}"
                );
            }
            // Drain: the full remaining live sequences must agree.
            loop {
                let a = legacy_next(&mut legacy, &mut superseded);
                let b = EventScheduler::pop(&mut hybrid);
                assert_eq!(a, b, "seed {seed}");
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
