//! Columnar (struct-of-arrays) trace storage for the simulation hot path.
//!
//! [`TraceLog`] records the same wire events as [`Trace`] but splits them
//! into three parallel columns — timestamp, value (sequence or ACK number),
//! and a one-byte event kind — instead of a `Vec` of tagged
//! [`TraceRecord`] structs. That makes a push three primitive stores into
//! preallocated vectors (no enum layout padding, no branchy tag encoding),
//! which is what the sender-side observer does once per wire event.
//!
//! Capacity is preallocated up front from the simulation horizon and an
//! expected packet rate ([`TraceLog::for_horizon`]), so steady-state
//! recording performs no allocation at all until the estimate is exceeded.
//!
//! The conversion to [`Trace`] ([`TraceLog::to_trace`] /
//! [`TraceLog::into_trace`]) is lossless, so the analyzer, Karn filter,
//! interval segmentation, and the lenient importers are untouched: they
//! keep consuming the row-oriented [`TraceRecord`] API.

use crate::record::{Trace, TraceEvent, TraceRecord};

/// Column value of an event kind (one byte per record).
const KIND_SEND: u8 = 0;
const KIND_SEND_RETX: u8 = 1;
const KIND_ACK_IN: u8 = 2;

/// A columnar sender-side trace; see the module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceLog {
    time_ns: Vec<u64>,
    value: Vec<u64>,
    kind: Vec<u8>,
}

impl TraceLog {
    /// An empty log with no preallocation.
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// An empty log with room for `records` events in every column.
    pub fn with_capacity(records: usize) -> Self {
        TraceLog {
            time_ns: Vec::with_capacity(records),
            value: Vec::with_capacity(records),
            kind: Vec::with_capacity(records),
        }
    }

    /// Preallocates from a simulation horizon and an expected event rate
    /// (wire events per second — sends *plus* ACK arrivals), with a small
    /// headroom factor so a typical run never reallocates.
    pub fn for_horizon(horizon_secs: f64, events_per_sec: f64) -> Self {
        let est = (horizon_secs.max(0.0) * events_per_sec.max(0.0) * 1.25).ceil();
        // A cap keeps a wild rate estimate from attempting an absurd
        // up-front reservation; the log still grows on demand past it.
        const CAP: f64 = 1e8;
        //~ allow(cast): deliberate float truncation after round/floor
        TraceLog::with_capacity(est.min(CAP) as usize)
    }

    /// Records a data-segment departure.
    #[inline]
    pub fn push_send(&mut self, time_ns: u64, seq: u64, retx: bool) {
        debug_assert!(
            self.time_ns.last().is_none_or(|&last| time_ns >= last),
            "trace records must be time-ordered"
        );
        // Retention is opt-in, and `for_horizon` preallocates the columns
        // for the run: past that, growth is amortized doubling.
        let kind = if retx { KIND_SEND_RETX } else { KIND_SEND };
        self.time_ns.push(time_ns); //~ allow(hot_alloc): preallocated column, amortized growth
        self.value.push(seq); //~ allow(hot_alloc): preallocated column, amortized growth
        self.kind.push(kind); //~ allow(hot_alloc): preallocated column, amortized growth
    }

    /// Records an ACK arrival.
    #[inline]
    pub fn push_ack_in(&mut self, time_ns: u64, ack: u64) {
        debug_assert!(
            self.time_ns.last().is_none_or(|&last| time_ns >= last),
            "trace records must be time-ordered"
        );
        self.time_ns.push(time_ns); //~ allow(hot_alloc): preallocated column, amortized growth
        self.value.push(ack); //~ allow(hot_alloc): preallocated column, amortized growth
        self.kind.push(KIND_ACK_IN); //~ allow(hot_alloc): preallocated column, amortized growth
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.time_ns.len()
    }

    /// Approximate heap footprint of the retained columns, bytes (17 bytes
    /// per event: u64 time + u64 value + one kind byte).
    pub fn approx_bytes(&self) -> usize {
        self.len() * 17
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.time_ns.is_empty()
    }

    /// The record at `index`, reassembled into the row-oriented form.
    fn record(&self, index: usize) -> TraceRecord {
        //~ allow(hot_panic): callers index 0..len()
        let event = match self.kind[index] {
            KIND_SEND => TraceEvent::Send {
                seq: self.value[index], //~ allow(hot_panic): callers index 0..len()
                retx: false,
            },
            KIND_SEND_RETX => TraceEvent::Send {
                seq: self.value[index], //~ allow(hot_panic): callers index 0..len()
                retx: true,
            },
            _ => TraceEvent::AckIn {
                ack: self.value[index], //~ allow(hot_panic): callers index 0..len()
            },
        };
        TraceRecord {
            time_ns: self.time_ns[index], //~ allow(hot_panic): callers index 0..len()
            event,
        }
    }

    /// Iterates the events as [`TraceRecord`]s, in time order.
    pub fn iter(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        (0..self.len()).map(|i| self.record(i))
    }

    /// Lossless conversion into the row-oriented [`Trace`] the analysis
    /// programs consume.
    pub fn to_trace(&self) -> Trace {
        let mut trace = Trace::new();
        for rec in self.iter() {
            trace.push(rec);
        }
        trace
    }

    /// Consuming variant of [`TraceLog::to_trace`].
    pub fn into_trace(self) -> Trace {
        self.to_trace()
    }
}

impl From<&Trace> for TraceLog {
    fn from(trace: &Trace) -> Self {
        let mut log = TraceLog::with_capacity(trace.len());
        for rec in trace.records() {
            match rec.event {
                TraceEvent::Send { seq, retx } => log.push_send(rec.time_ns, seq, retx),
                TraceEvent::AckIn { ack } => log.push_ack_in(rec.time_ns, ack),
            }
        }
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> TraceLog {
        let mut log = TraceLog::new();
        log.push_send(0, 0, false);
        log.push_ack_in(100_000_000, 1);
        log.push_send(100_000_001, 1, false);
        log.push_send(3_100_000_000, 1, true);
        log
    }

    #[test]
    fn push_and_len() {
        let log = sample_log();
        assert_eq!(log.len(), 4);
        assert!(!log.is_empty());
        assert!(TraceLog::new().is_empty());
    }

    #[test]
    fn to_trace_is_lossless() {
        let log = sample_log();
        let trace = log.to_trace();
        assert_eq!(trace.len(), 4);
        assert_eq!(
            trace.records()[0].event,
            TraceEvent::Send {
                seq: 0,
                retx: false
            }
        );
        assert_eq!(trace.records()[1].event, TraceEvent::AckIn { ack: 1 });
        assert_eq!(
            trace.records()[3].event,
            TraceEvent::Send { seq: 1, retx: true }
        );
        assert_eq!(trace.records()[3].time_ns, 3_100_000_000);
        // Consuming conversion agrees.
        assert_eq!(sample_log().into_trace(), trace);
    }

    #[test]
    fn trace_roundtrip_preserves_everything() {
        let trace = sample_log().into_trace();
        let log = TraceLog::from(&trace);
        assert_eq!(log, sample_log());
        assert_eq!(log.to_trace(), trace);
    }

    #[test]
    fn iter_matches_records() {
        let log = sample_log();
        let trace = log.to_trace();
        let via_iter: Vec<TraceRecord> = log.iter().collect();
        assert_eq!(via_iter.as_slice(), trace.records());
    }

    #[test]
    fn for_horizon_preallocates() {
        let log = TraceLog::for_horizon(60.0, 1000.0);
        assert!(log.time_ns.capacity() >= 60_000);
        assert!(log.is_empty());
        // Degenerate inputs do not panic or reserve absurd amounts.
        let log = TraceLog::for_horizon(-5.0, f64::NAN);
        assert_eq!(log.time_ns.capacity(), 0);
    }

    #[test]
    fn pushes_stay_within_preallocated_capacity() {
        let mut log = TraceLog::with_capacity(100);
        let cap = log.time_ns.capacity();
        for i in 0..100u64 {
            log.push_send(i, i, false);
        }
        assert_eq!(log.time_ns.capacity(), cap, "no reallocation under cap");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_push_asserts_in_debug() {
        let mut log = TraceLog::new();
        log.push_ack_in(10, 1);
        log.push_ack_in(5, 2);
    }
}
