//! RTT and timeout-duration estimation from sender-side traces.
//!
//! The paper (§III): "When calculating RTT values, we follow Karn's
//! algorithm, in an attempt to minimize the impact of time-outs and
//! retransmissions on the RTT estimates." Karn's rule: never take an RTT
//! sample from a segment that was retransmitted, because the ACK cannot be
//! attributed to a particular transmission.
//!
//! `T0` (Table II's "Time Out" column) is estimated as the duration of the
//! *first* timeout in each timeout sequence: the gap between the
//! retransmission and the later of (a) the last prior transmission of that
//! sequence number and (b) the last forward-ACK arrival (the events that
//! restart a TCP retransmission timer).
//!
//! Karn timing and the RTT-vs-flight correlation read the same per-segment
//! facts, so both run on one shared core: an in-flight window of sent
//! segments at or above the cumulative ACK, and one log of the RTT samples
//! the forward ACKs yield.

use crate::record::{Trace, TraceEvent};
use pftk_snap::{SnapError, SnapReader, SnapResult, SnapWriter};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// RTT/T0 estimates extracted from a trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimingEstimates {
    /// Mean round-trip time over all Karn-valid samples, seconds.
    pub mean_rtt: Option<f64>,
    /// Number of RTT samples taken.
    pub rtt_samples: u64,
    /// Mean single-timeout duration, seconds.
    pub mean_t0: Option<f64>,
    /// Number of T0 samples (one per timeout sequence).
    pub t0_samples: u64,
}

/// One sent sequence number not yet below the cumulative ACK.
#[derive(Debug, Clone, Copy)]
struct Slot {
    seq: u64,
    /// First transmission: the Karn RTT anchor.
    first_send_ns: u64,
    /// Latest transmission: the T0 anchor.
    last_send_ns: u64,
    /// Packets in flight when first sent: the correlation's x.
    flight: u64,
    /// Never retransmitted, so the ACK covering it is attributable.
    karn_valid: bool,
}

/// The in-flight window: one [`Slot`] per sequence number sent and not yet
/// below the cumulative ACK, sorted by seq.
///
/// New data arrives with `seq >= snd_max`, above every slot, so it appends
/// at the back; a forward ACK pops the front. Only a retransmission of a
/// seq with no slot (a salvaged capture's seq jump, or a spurious resend
/// below the ACK) inserts mid-window. The window is keyed by seq rather
/// than indexed by `seq − snd_una` because imported captures jump seq
/// arbitrarily and can ACK past `snd_max`.
#[derive(Debug, Clone, Default)]
struct InFlight {
    slots: VecDeque<Slot>,
}

impl InFlight {
    /// Records new data (`seq` above every slot).
    fn push_new(&mut self, seq: u64, time_ns: u64, flight: u64) {
        //~ allow(hot_alloc): window deque keeps its high-water capacity; growth amortized O(1)
        self.slots.push_back(Slot {
            seq,
            first_send_ns: time_ns,
            last_send_ns: time_ns,
            flight,
            karn_valid: true,
        });
    }

    /// Records a retransmission of `seq` at `time_ns`: Karn-disqualifies
    /// the seq and returns its previous last transmission, if it has a slot.
    fn resend(&mut self, seq: u64, time_ns: u64) -> Option<u64> {
        match self.slots.binary_search_by_key(&seq, |s| s.seq) {
            Ok(i) => self.slots.get_mut(i).map(|slot| {
                slot.karn_valid = false;
                std::mem::replace(&mut slot.last_send_ns, time_ns)
            }),
            Err(i) => {
                //~ allow(hot_alloc): a resent seq without a slot is rare (seq jumps, spurious resends); the deque reuses its capacity
                self.slots.insert(
                    i,
                    Slot {
                        seq,
                        first_send_ns: time_ns,
                        last_send_ns: time_ns,
                        flight: 0,
                        karn_valid: false,
                    },
                );
                None
            }
        }
    }

    /// Pops every slot below `ack`; returns how many Karn-valid slots it
    /// covered and the highest one's `(first send, flight)`.
    fn pop_acked(&mut self, ack: u64) -> (usize, Option<(u64, u64)>) {
        let mut covered = 0usize;
        let mut highest = None;
        while let Some(front) = self.slots.front() {
            if front.seq >= ack {
                break;
            }
            if front.karn_valid {
                covered += 1;
                highest = Some((front.first_send_ns, front.flight));
            }
            self.slots.pop_front();
        }
        (covered, highest)
    }

    fn snapshot_into(&self, w: &mut SnapWriter) {
        w.put_usize(self.slots.len());
        for s in &self.slots {
            w.put_u64(s.seq);
            w.put_u64(s.first_send_ns);
            w.put_u64(s.last_send_ns);
            w.put_u64(s.flight);
            w.put_bool(s.karn_valid);
        }
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        let n = r.get_usize()?;
        self.slots.clear();
        for _ in 0..n {
            let slot = Slot {
                seq: r.get_u64()?,
                first_send_ns: r.get_u64()?,
                last_send_ns: r.get_u64()?,
                flight: r.get_u64()?,
                karn_valid: r.get_bool()?,
            };
            if self.slots.back().is_some_and(|b| b.seq >= slot.seq) {
                return Err(SnapError::Invalid("in-flight window not seq-sorted"));
            }
            self.slots.push_back(slot);
        }
        Ok(())
    }
}

/// One RTT sample as logged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sample {
    rtt_ns: u64,
    /// The ACK covered two or more Karn-valid segments.
    multi: bool,
    flight: u64,
}

/// The RTT samples of a connection, in ACK order, as LEB128 varints: per
/// sample the RTT in ns, then `flight << 1 | multi`.
///
/// `finish` needs every sample (an exact median, an exact Pearson
/// coefficient), so the log grows by one sample per timed forward ACK;
/// the varints keep a typical sample to five bytes. Floats are formed
/// only when the estimates are computed.
#[derive(Debug, Clone, Default)]
struct RttLog {
    bytes: Vec<u8>,
    len: usize,
    multi: usize,
}

impl RttLog {
    fn push(&mut self, s: Sample) {
        put_varint(&mut self.bytes, u128::from(s.rtt_ns));
        put_varint(
            &mut self.bytes,
            (u128::from(s.flight) << 1) | u128::from(s.multi),
        );
        self.len += 1;
        self.multi += usize::from(s.multi);
    }

    fn iter(&self) -> impl Iterator<Item = Sample> + '_ {
        let mut pos = 0;
        std::iter::from_fn(move || decode_sample(&self.bytes, &mut pos))
    }

    /// This log with only the bytes from offset `from` on; the counters
    /// stay whole (a snapshot delta's tail).
    fn tail(&self, from: usize) -> RttLog {
        RttLog {
            bytes: self.bytes.get(from..).unwrap_or_default().to_vec(),
            len: self.len,
            multi: self.multi,
        }
    }

    /// Writes the sample count and the bytes this log holds (all of them,
    /// or a [`RttLog::tail`]).
    fn snapshot_into(&self, w: &mut SnapWriter) {
        w.put_usize(self.len);
        w.put_bytes(&self.bytes);
    }

    /// Appends a log written by [`RttLog::snapshot_into`], decoding every
    /// appended sample so a malformed log fails here rather than at
    /// `finish`. The written count must equal the samples held so far plus
    /// the appended ones.
    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        let len = r.get_usize()?;
        let bytes = r.get_bytes()?;
        let (mut pos, mut n, mut multi) = (0, 0, 0);
        while pos < bytes.len() {
            let s = decode_sample(bytes, &mut pos).ok_or(SnapError::Invalid("RTT log sample"))?;
            n += 1;
            multi += usize::from(s.multi);
        }
        if self.len + n != len {
            return Err(SnapError::Invalid("RTT log length"));
        }
        self.bytes.extend_from_slice(bytes);
        self.len = len;
        self.multi += multi;
        Ok(())
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u128) {
    while v >= 0x80 {
        //~ allow(cast): the low seven bits of v, with the continuation bit set
        //~ allow(hot_alloc): RTT log growth; amortized doubling, one sample per timed ACK
        out.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    //~ allow(cast): v < 0x80 here
    //~ allow(hot_alloc): RTT log growth; amortized doubling, one sample per timed ACK
    out.push(v as u8);
}

/// Decodes one varint of at most `max_bits` significant bits.
fn get_varint(bytes: &[u8], pos: &mut usize, max_bits: u32) -> Option<u128> {
    let mut v = 0u128;
    let mut shift = 0;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= max_bits {
            return None;
        }
        v |= u128::from(b & 0x7F) << shift;
        shift += 7;
        if b & 0x80 == 0 {
            return (v >> max_bits == 0).then_some(v);
        }
    }
}

fn decode_sample(bytes: &[u8], pos: &mut usize) -> Option<Sample> {
    let rtt = get_varint(bytes, pos, 64)?;
    let tail = get_varint(bytes, pos, 65)?;
    Some(Sample {
        rtt_ns: u64::try_from(rtt).ok()?,
        multi: tail & 1 == 1,
        flight: u64::try_from(tail >> 1).ok()?,
    })
}

/// The state Karn timing and the RTT-vs-flight correlation share: one
/// in-flight window, one RTT log, and the T0 anchoring state.
///
/// Between events it holds the O(window) in-flight slots (popped on every
/// forward ACK) plus the RTT log. Everything else is O(1), so an hour-long
/// connection can be timed without ever materializing its trace.
/// [`KarnCore`] and [`CorrCore`] are this core with one finisher each;
/// [`crate::stream::StreamAnalyzer`] drives a single one for both.
#[derive(Debug, Clone, Default)]
pub(crate) struct RttCore {
    window: InFlight,
    snd_max: u64,
    last_ack: u64,
    log: RttLog,
    last_progress_ns: Option<u64>,
    in_to_sequence: bool,
    t0_sum: f64,
    t0_n: u64,
}

impl RttCore {
    /// Consumes one data-segment departure.
    pub(crate) fn sent(&mut self, time_ns: u64, seq: u64) {
        if seq >= self.snd_max {
            self.snd_max = seq + 1;
            // Saturating: a salvaged/corrupt capture can carry an ACK
            // beyond anything sent, leaving `last_ack > snd_max` — flight
            // clamps to 0 there instead of underflowing.
            let flight = self.snd_max.saturating_sub(self.last_ack);
            self.window.push_new(seq, time_ns, flight);
            return;
        }
        // Retransmission: Karn-disqualify this sequence.
        let prior = self.window.resend(seq, time_ns);
        if !self.in_to_sequence {
            // First retransmission since last progress: if it is a
            // timeout (no way to tell TD vs TO here without the
            // classifier; T0 sampling accepts the small TD contamination
            // the same way trace tools do — the gap for a fast retransmit
            // is ≈RTT and for a timeout ≈RTO, so downstream users combine
            // this with the classifier; see `estimate_t0_classified`).
            if let Some(anchor) = prior.into_iter().chain(self.last_progress_ns).max() {
                if time_ns > anchor {
                    self.t0_sum += (time_ns - anchor) as f64 / 1e9;
                    self.t0_n += 1;
                }
            }
            self.in_to_sequence = true;
        }
    }

    /// Consumes one ACK arrival.
    pub(crate) fn acked(&mut self, time_ns: u64, ack: u64) {
        if ack <= self.last_ack {
            return;
        }
        self.last_ack = ack;
        self.last_progress_ns = Some(time_ns);
        self.in_to_sequence = false;
        // Sample the *highest* newly covered Karn-valid segment: with
        // delayed ACKs its send→ack gap is the cleanest RTT (lower
        // segments include the delayed-ACK hold). Popping every slot below
        // the ACK, valid or not, keeps the window O(in flight): an acked
        // sequence's last send happened at or before this ACK, so a later
        // (spurious) retransmit of it anchors on `last_progress_ns` either
        // way.
        let (covered, highest) = self.window.pop_acked(ack);
        if let Some((sent, flight)) = highest {
            if time_ns > sent {
                self.log.push(Sample {
                    rtt_ns: time_ns - sent,
                    multi: covered >= 2,
                    flight,
                });
            }
        }
    }

    /// Estimated bytes of retained state: the window slots and the log.
    pub(crate) fn state_bytes(&self) -> usize {
        self.window.slots.len() * std::mem::size_of::<Slot>() + self.log.bytes.len()
    }

    /// The RTT log's length as `(bytes, samples)`: where a snapshot delta
    /// taken now ends.
    pub(crate) fn log_mark(&self) -> (usize, usize) {
        (self.log.bytes.len(), self.log.len)
    }

    /// A copy of this core whose log holds only the bytes from offset
    /// `from` on: the window and scalars whole, the log a tail.
    pub(crate) fn tail(&self, from: usize) -> RttCore {
        RttCore {
            window: self.window.clone(),
            snd_max: self.snd_max,
            last_ack: self.last_ack,
            log: self.log.tail(from),
            last_progress_ns: self.last_progress_ns,
            in_to_sequence: self.in_to_sequence,
            t0_sum: self.t0_sum,
            t0_n: self.t0_n,
        }
    }

    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter) {
        self.window.snapshot_into(w);
        w.put_u64(self.snd_max);
        w.put_u64(self.last_ack);
        self.log.snapshot_into(w);
        match self.last_progress_ns {
            Some(t) => {
                w.put_bool(true);
                w.put_u64(t);
            }
            None => w.put_bool(false),
        }
        w.put_bool(self.in_to_sequence);
        w.put_f64(self.t0_sum);
        w.put_u64(self.t0_n);
    }

    /// Reads state written by [`RttCore::snapshot_into`]: the window and
    /// scalars replace this core's, the log bytes append to its log.
    pub(crate) fn restore_from(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        self.window.restore_from(r)?;
        self.snd_max = r.get_u64()?;
        self.last_ack = r.get_u64()?;
        self.log.restore_from(r)?;
        self.last_progress_ns = if r.get_bool()? {
            Some(r.get_u64()?)
        } else {
            None
        };
        self.in_to_sequence = r.get_bool()?;
        self.t0_sum = r.get_f64()?;
        self.t0_n = r.get_u64()?;
        Ok(())
    }

    /// Karn RTT (median of the samples) and T0 estimates.
    pub(crate) fn timing(&self) -> TimingEstimates {
        // Delayed-ACK receivers hold an odd final segment for the delack
        // timer (~200 ms), inflating single-cover samples; when the trace
        // shows delayed acking (≥1/3 multi-cover ACKs), single-cover
        // samples are discarded.
        let delayed_acking = self.log.multi * 3 >= self.log.len;
        let mut kept: Vec<f64> = self
            .log
            .iter()
            .filter(|s| !delayed_acking || s.multi)
            .map(|s| s.rtt_ns as f64 / 1e9)
            .collect();
        // Robust location: the median. Two artifacts pollute the sample set —
        // delack-timer ACKs add the delayed-ACK hold (filtered above when the
        // receiver delays ACKs), and cumulative ACKs that jump a repaired hole
        // anchor on segments sent a recovery ago. Both are heavy right tails;
        // the median ignores them where a mean would not.
        kept.sort_by(f64::total_cmp);
        let rtt_n = kept.len() as u64;
        let median = match kept.len() {
            0 => None,
            n if n % 2 == 1 => Some(kept[n / 2]),
            n => Some(0.5 * (kept[n / 2 - 1] + kept[n / 2])),
        };
        TimingEstimates {
            mean_rtt: median,
            rtt_samples: rtt_n,
            mean_t0: (self.t0_n > 0).then(|| self.t0_sum / self.t0_n as f64),
            t0_samples: self.t0_n,
        }
    }

    /// Pearson coefficient of RTT against flight size at send, or `None`
    /// with fewer than two samples or zero variance.
    pub(crate) fn correlation(&self) -> Option<f64> {
        let (xs, ys): (Vec<f64>, Vec<f64>) = self
            .log
            .iter()
            .map(|s| (s.flight as f64, s.rtt_ns as f64 / 1e9))
            .unzip();
        pearson(&xs, &ys)
    }
}

/// The incremental Karn RTT / T0 estimator: the streaming core behind
/// [`estimate_timing`]. State as in the shared RTT core: O(window) in-flight
/// slots plus one logged sample per timed forward ACK — the irreducible
/// input of the exact end-of-trace median.
#[derive(Debug, Clone, Default)]
pub struct KarnCore(RttCore);

impl KarnCore {
    /// A fresh estimator.
    pub fn new() -> Self {
        KarnCore::default()
    }

    /// Consumes one data-segment departure.
    pub fn on_send(&mut self, time_ns: u64, seq: u64) {
        self.0.sent(time_ns, seq);
    }

    /// Consumes one ACK arrival.
    pub fn on_ack(&mut self, time_ns: u64, ack: u64) {
        self.0.acked(time_ns, ack);
    }

    /// Closes the estimator and computes the estimates.
    pub fn finish(self) -> TimingEstimates {
        self.0.timing()
    }
}

/// Extracts RTT and T0 estimates from a sender-side trace: a thin fold of
/// the incremental [`KarnCore`] over the materialized records, so batch
/// and streaming timing are identical by construction.
//= pftk#karn-rto
//= pftk#t0-first-timeout
pub fn estimate_timing(trace: &Trace) -> TimingEstimates {
    let mut core = KarnCore::new();
    for rec in trace.records() {
        match rec.event {
            TraceEvent::Send { seq, .. } => core.on_send(rec.time_ns, seq),
            TraceEvent::AckIn { ack } => core.on_ack(rec.time_ns, ack),
        }
    }
    core.finish()
}

/// T0 estimation restricted to retransmissions the classifier labelled as
/// timeout-sequence starts — use when TD contamination matters (the plain
/// [`estimate_timing`] also averages fast-retransmit gaps, biasing T0 low
/// on TD-heavy traces).
pub fn estimate_t0_classified(trace: &Trace, timeout_start_times: &[u64]) -> Option<f64> {
    if timeout_start_times.is_empty() {
        return None;
    }
    let mut starts = timeout_start_times.to_vec();
    starts.sort_unstable();
    let mut window = InFlight::default();
    let mut last_progress_ns: Option<u64> = None;
    let mut last_ack: u64 = 0;
    let mut snd_max: u64 = 0;
    let mut sum = 0.0;
    let mut n: u64 = 0;
    for rec in trace.records() {
        match rec.event {
            TraceEvent::Send { seq, .. } => {
                if seq >= snd_max {
                    snd_max = seq + 1;
                    window.push_new(seq, rec.time_ns, 0);
                    continue;
                }
                let prior = window.resend(seq, rec.time_ns);
                if starts.binary_search(&rec.time_ns).is_ok() {
                    if let Some(anchor) = prior.into_iter().chain(last_progress_ns).max() {
                        if rec.time_ns > anchor {
                            sum += (rec.time_ns - anchor) as f64 / 1e9;
                            n += 1;
                        }
                    }
                }
            }
            TraceEvent::AckIn { ack } => {
                if ack > last_ack {
                    last_ack = ack;
                    last_progress_ns = Some(rec.time_ns);
                    window.pop_acked(ack);
                }
            }
        }
    }
    (n > 0).then(|| sum / n as f64)
}

/// The incremental RTT-vs-flight correlator: the streaming core behind
/// [`rtt_window_correlation`]. Its RTT samples are exactly Karn's, so it is
/// the same core as [`KarnCore`] with a different finisher.
#[derive(Debug, Clone, Default)]
pub struct CorrCore(RttCore);

impl CorrCore {
    /// A fresh correlator.
    pub fn new() -> Self {
        CorrCore::default()
    }

    /// Consumes one data-segment departure.
    pub fn on_send(&mut self, time_ns: u64, seq: u64) {
        self.0.sent(time_ns, seq);
    }

    /// Consumes one ACK arrival.
    pub fn on_ack(&mut self, time_ns: u64, ack: u64) {
        self.0.acked(time_ns, ack);
    }

    /// Closes the correlator: Pearson coefficient, or `None` with fewer
    /// than two samples or zero variance.
    pub fn finish(self) -> Option<f64> {
        self.0.correlation()
    }
}

/// Pearson correlation between RTT samples and the number of packets in
/// flight when the timed segment was sent — the paper's §IV diagnostic
/// ("we have measured the coefficient of correlation between the duration
/// of round samples and the number of packets in transit"). Values near 0
/// support the model's RTT-independence assumption; values near 1 are the
/// modem-path regime of Fig. 11 where every model fails.
///
/// A thin fold of the incremental [`CorrCore`].
///
/// Returns `None` with fewer than two samples or zero variance.
//= pftk#rtt-window-corr
pub fn rtt_window_correlation(trace: &Trace) -> Option<f64> {
    let mut core = CorrCore::new();
    for rec in trace.records() {
        match rec.event {
            TraceEvent::Send { seq, .. } => core.on_send(rec.time_ns, seq),
            TraceEvent::AckIn { ack } => core.on_ack(rec.time_ns, ack),
        }
    }
    core.finish()
}

fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mx = xs.iter().sum::<f64>() / nf;
    let my = ys.iter().sum::<f64>() / nf;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    // Sums of squares are non-negative; a degenerate (constant) series has
    // an undefined correlation. `<=` avoids a NaN-hazard float equality.
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecord;

    fn trace(events: &[(u64, TraceEvent)]) -> Trace {
        let mut t = Trace::new();
        for &(time_ns, event) in events {
            t.push(TraceRecord { time_ns, event });
        }
        t
    }

    fn send(seq: u64) -> TraceEvent {
        TraceEvent::Send { seq, retx: false }
    }

    fn ack(a: u64) -> TraceEvent {
        TraceEvent::AckIn { ack: a }
    }

    const S: u64 = 1_000_000_000;
    const MS: u64 = 1_000_000;

    #[test]
    fn correlation_survives_ack_beyond_snd_max() {
        // A salvaged capture can acknowledge data that was never sent;
        // the next send must not underflow the flight computation.
        let t = trace(&[
            (0, send(0)),
            (100 * MS, ack(999)),
            (200 * MS, send(1)),
            (300 * MS, send(2)),
            (400 * MS, ack(1_000)),
        ]);
        let _ = rtt_window_correlation(&t);
    }

    #[test]
    fn clean_rtt_measured() {
        let t = trace(&[
            (0, send(0)),
            (200 * MS, ack(1)),
            (200 * MS + 1, send(1)),
            (400 * MS, ack(2)),
        ]);
        let est = estimate_timing(&t);
        assert_eq!(est.rtt_samples, 2);
        let expect = (0.2 + (0.4 - 0.2 - 1e-9) / 1.0) / 2.0;
        assert!((est.mean_rtt.unwrap() - expect).abs() < 1e-6);
        assert!(est.mean_t0.is_none());
    }

    #[test]
    fn delayed_ack_samples_highest_covered() {
        // Two segments sent 10 ms apart; one cumulative ACK 200 ms after the
        // second. The sample must anchor on the second segment (0.2 s), not
        // the first (0.21 s).
        let t = trace(&[(0, send(0)), (10 * MS, send(1)), (210 * MS, ack(2))]);
        let est = estimate_timing(&t);
        assert_eq!(est.rtt_samples, 1);
        assert!((est.mean_rtt.unwrap() - 0.2).abs() < 1e-9);
    }

    #[test]
    //= pftk#karn-rto type=test
    fn karn_excludes_retransmitted_segments() {
        let t = trace(&[
            (0, send(0)),
            (3 * S, send(0)), // retransmission: seq 0 disqualified
            (3 * S + 100 * MS, ack(1)),
        ]);
        let est = estimate_timing(&t);
        assert_eq!(est.rtt_samples, 0, "Karn must reject the ambiguous sample");
    }

    #[test]
    //= pftk#t0-first-timeout type=test
    fn t0_measured_from_send_gap() {
        let t = trace(&[
            (0, send(0)),
            (3 * S, send(0)), // timeout after 3 s
            (3 * S + 100 * MS, ack(1)),
        ]);
        let est = estimate_timing(&t);
        assert_eq!(est.t0_samples, 1);
        assert!((est.mean_t0.unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn t0_anchors_on_later_of_send_and_progress() {
        // Progress at t=1s restarts the timer; the timeout retransmission at
        // t=3.5s therefore measures 2.5 s, not 3.5 s.
        let t = trace(&[
            (0, send(0)),
            (500 * MS, send(1)),
            (S, ack(1)), // progress (seq 0 acked)
            (3_500 * MS, send(1)),
        ]);
        let est = estimate_timing(&t);
        assert_eq!(est.t0_samples, 1);
        assert!(
            (est.mean_t0.unwrap() - 2.5).abs() < 1e-9,
            "got {:?}",
            est.mean_t0
        );
    }

    #[test]
    fn only_first_timeout_of_sequence_sampled() {
        let t = trace(&[
            (0, send(0)),
            (3 * S, send(0)),
            (9 * S, send(0)),  // backoff: same sequence, not sampled
            (21 * S, send(0)), // backoff
            (21 * S + 100 * MS, ack(1)),
            (21 * S + 200 * MS, send(1)),
            (24 * S, send(1)), // new sequence after progress
        ]);
        let est = estimate_timing(&t);
        assert_eq!(est.t0_samples, 2);
        // First sequence T0 = 3 s; second = 24 − 21.2 = 2.8 s.
        assert!((est.mean_t0.unwrap() - (3.0 + 2.8) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn classified_t0_uses_only_given_starts() {
        let t = trace(&[
            (0, send(0)),
            (1, send(1)),
            (100 * MS, ack(1)),
            (101 * MS, ack(1)),
            (102 * MS, ack(1)),
            (103 * MS, ack(1)),
            (104 * MS, send(1)), // fast retransmit — would contaminate T0
            (5 * S, send(1)),    // true timeout
        ]);
        let plain = estimate_timing(&t);
        // Plain estimator sampled the fast retransmit's tiny gap.
        assert!(plain.mean_t0.unwrap() < 1.0);
        let classified = estimate_t0_classified(&t, &[5 * S]).unwrap();
        assert!(
            (classified - (5.0 - 0.104)).abs() < 1e-6,
            "got {classified}"
        );
        assert!(estimate_t0_classified(&t, &[]).is_none());
    }

    #[test]
    fn empty_trace_yields_nones() {
        let est = estimate_timing(&Trace::new());
        assert!(est.mean_rtt.is_none());
        assert!(est.mean_t0.is_none());
    }

    #[test]
    //= pftk#rtt-window-corr type=test
    fn correlation_detects_queueing_regime() {
        // Build a trace where RTT grows linearly with flight size
        // (a dedicated bottleneck buffer): correlation ≈ 1.
        let mut t = Trace::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        for flight in 1..=20u64 {
            // `flight − 1` unacked predecessors, then the timed segment.
            for _ in 0..flight {
                t.push(TraceRecord {
                    time_ns: now,
                    event: send(seq),
                });
                seq += 1;
                now += 1;
            }
            // RTT proportional to flight.
            now += flight * 100 * MS;
            t.push(TraceRecord {
                time_ns: now,
                event: ack(seq),
            });
            now += 1;
        }
        let corr = rtt_window_correlation(&t).unwrap();
        assert!(corr > 0.95, "expected strong correlation, got {corr}");
    }

    #[test]
    fn correlation_near_zero_for_constant_rtt() {
        let mut t = Trace::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        for flight in [1u64, 5, 2, 9, 3, 7, 4, 8, 6, 10, 2, 9, 5, 1, 7] {
            for _ in 0..flight {
                t.push(TraceRecord {
                    time_ns: now,
                    event: send(seq),
                });
                seq += 1;
                now += 1;
            }
            now += 200 * MS; // constant RTT regardless of flight
            t.push(TraceRecord {
                time_ns: now,
                event: ack(seq),
            });
            now += 1;
        }
        let corr = rtt_window_correlation(&t).unwrap();
        assert!(
            corr.abs() < 0.2,
            "expected near-zero correlation, got {corr}"
        );
    }

    #[test]
    fn correlation_needs_two_samples() {
        assert!(rtt_window_correlation(&Trace::new()).is_none());
        let mut t = Trace::new();
        t.push(TraceRecord {
            time_ns: 0,
            event: send(0),
        });
        t.push(TraceRecord {
            time_ns: 100 * MS,
            event: ack(1),
        });
        assert!(rtt_window_correlation(&t).is_none());
    }
}
