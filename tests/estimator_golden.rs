//! Golden gate for the §III estimator cores: `estimate_timing`,
//! `rtt_window_correlation` and `estimate_t0_classified`, compared with
//! committed output as `f64::to_bits`, never by tolerance.
//!
//! `tests/golden/estimator_cores.txt` holds the outputs of the ordered-map
//! cores these estimators replaced, recorded before the replacement. Two
//! populations:
//!
//! * four Table II paths at a fixed seed, one `path` line each with the
//!   trace's digest (so a simulator change reads as "the input moved", not
//!   as an estimator fault) and every output;
//! * 10^4 seeded adversarial traces: seq jumps, ACKs beyond `snd_max`,
//!   spurious retransmissions below the ACK, retransmissions of never-sent
//!   seqs, duplicate and stale ACKs, equal timestamps. Their outputs are
//!   folded into one FNV-1a digest per block of traces.
//!
//! Regenerate (only when an estimator's output is meant to change, and
//! say so in CHANGES.md) with
//! `PFTK_BLESS_GOLDEN=1 cargo test --release --test estimator_golden`.

use padhye_tcp_repro::testbed::{run_hour_budgeted_with, ExperimentOptions, TABLE2_PATHS};
use padhye_tcp_repro::trace::analyzer::{analyze, AnalyzerConfig, IndicationKind};
use padhye_tcp_repro::trace::karn::{
    estimate_t0_classified, estimate_timing, rtt_window_correlation,
};
use padhye_tcp_repro::trace::record::{Trace, TraceEvent, TraceRecord};

const MS: u64 = 1_000_000;
const S: u64 = 1_000_000_000;

/// Table II rows covered (indices into `TABLE2_PATHS`).
const PATHS: [usize; 4] = [0, 7, 13, 20];
const PATH_SEED: u64 = 7;
/// Sim-event budget per path: a budget-truncated hour is still a fixed
/// function of the seed, and keeps the gate fast in debug builds.
const PATH_EVENTS: u64 = 120_000;

const ADVERSARIAL_TRACES: u64 = 10_000;
const BLOCK: u64 = 250;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("estimator_cores.txt")
}

/// SplitMix64: a self-contained stream, so the adversarial population does
/// not move when the workspace's RNGs do.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); modulo bias is irrelevant here.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn bits(v: Option<f64>) -> String {
    v.map_or_else(|| "none".to_string(), |x| format!("{:016x}", x.to_bits()))
}

/// Every estimator output for one trace, as one space-separated field list.
fn outputs(trace: &Trace, timeout_starts: &[u64]) -> String {
    let timing = estimate_timing(trace);
    format!(
        "{} {} {} {} {} {}",
        bits(timing.mean_rtt),
        timing.rtt_samples,
        bits(timing.mean_t0),
        timing.t0_samples,
        bits(rtt_window_correlation(trace)),
        bits(estimate_t0_classified(trace, timeout_starts)),
    )
}

fn trace_digest(trace: &Trace) -> u64 {
    trace.records().iter().fold(FNV_OFFSET, |h, r| {
        let (tag, value) = match r.event {
            TraceEvent::Send { seq, .. } => (0u8, seq),
            TraceEvent::AckIn { ack } => (1u8, ack),
        };
        let h = fnv1a(h, &r.time_ns.to_le_bytes());
        fnv1a(fnv1a(h, &[tag]), &value.to_le_bytes())
    })
}

/// One adversarial trace and the timeout-start times handed to
/// `estimate_t0_classified` (a seeded subset of its retransmission times,
/// plus one time that matches no send).
fn adversarial(seed: u64) -> (Trace, Vec<u64>) {
    let mut rng = SplitMix(seed);
    let mut trace = Trace::new();
    let mut starts = Vec::new();
    let mut now = 0u64;
    let mut snd_max = 0u64;
    let mut last_ack = 0u64;
    let events = 2 + rng.below(300);
    for _ in 0..events {
        now += match rng.below(8) {
            0 => 0,
            1..=5 => rng.below(200 * MS),
            6 => rng.below(5 * S),
            _ => rng.below(60 * S),
        };
        let event = match rng.below(20) {
            // New data, mostly in order; sometimes a seq jump.
            0..=7 => {
                let seq = match rng.below(20) {
                    0 => snd_max + 1 + rng.below(50),
                    1 => snd_max + rng.below(1 << 40),
                    _ => snd_max,
                };
                snd_max = seq + 1;
                TraceEvent::Send { seq, retx: false }
            }
            // Retransmission of the first unacked seq or another in flight
            // (which may lie in a jump's gap: never sent).
            8..=10 if snd_max > 0 => {
                let seq = if rng.below(2) == 0 {
                    last_ack.min(snd_max - 1)
                } else {
                    last_ack + rng.below(snd_max.saturating_sub(last_ack).max(1))
                };
                let seq = seq.min(snd_max - 1);
                if rng.below(2) == 0 {
                    starts.push(now);
                }
                TraceEvent::Send { seq, retx: true }
            }
            // Spurious retransmission below the cumulative ACK.
            11 if snd_max > 0 => {
                let seq = rng.below(last_ack.clamp(1, snd_max));
                if rng.below(2) == 0 {
                    starts.push(now);
                }
                TraceEvent::Send { seq, retx: true }
            }
            // Forward ACK within what was sent.
            12..=15 => {
                let ack = last_ack + 1 + rng.below(snd_max.saturating_sub(last_ack).max(1));
                last_ack = last_ack.max(ack);
                TraceEvent::AckIn { ack }
            }
            // ACK beyond anything sent.
            16 => {
                let ack = snd_max + 1 + rng.below(100);
                last_ack = last_ack.max(ack);
                TraceEvent::AckIn { ack }
            }
            // Duplicate ACK.
            17 | 18 => TraceEvent::AckIn { ack: last_ack },
            // Stale ACK below the cumulative one.
            _ => TraceEvent::AckIn {
                ack: rng.below(last_ack + 1),
            },
        };
        trace.push(TraceRecord {
            time_ns: now,
            event,
        });
    }
    starts.push(now + 1);
    (trace, starts)
}

fn golden_lines() -> Vec<String> {
    let mut lines = vec![
        "# estimator_cores v1: see tests/estimator_golden.rs".to_string(),
        "# path <row> <label> <records> <trace fnv> <mean_rtt> <rtt_n> <mean_t0> <t0_n> <corr> <t0_classified>".to_string(),
        "# block <first seed> <traces> <fnv of their output lines>".to_string(),
    ];
    for row in PATHS {
        let spec = &TABLE2_PATHS[row];
        let result =
            run_hour_budgeted_with(spec, PATH_SEED, PATH_EVENTS, &ExperimentOptions::retained());
        let trace = result.trace.expect("retained trace");
        let starts: Vec<u64> = analyze(&trace, AnalyzerConfig::default())
            .indications
            .iter()
            .filter(|i| matches!(i.kind, IndicationKind::Timeout { .. }))
            .map(|i| i.time_ns)
            .collect();
        lines.push(format!(
            "path {row} {} {} {:016x} {}",
            spec.id(),
            trace.len(),
            trace_digest(&trace),
            outputs(&trace, &starts)
        ));
    }
    let mut seed = 0;
    while seed < ADVERSARIAL_TRACES {
        let first = seed;
        let mut hash = FNV_OFFSET;
        for _ in 0..BLOCK {
            let (trace, starts) = adversarial(seed);
            hash = fnv1a(hash, outputs(&trace, &starts).as_bytes());
            hash = fnv1a(hash, b"\n");
            seed += 1;
        }
        lines.push(format!("block {first} {BLOCK} {hash:016x}"));
    }
    lines
}

#[test]
fn estimator_cores_reproduce_the_golden() {
    let lines = golden_lines();
    if std::env::var_os("PFTK_BLESS_GOLDEN").is_some() {
        let path = golden_path();
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, lines.join("\n") + "\n").expect("write golden");
        return;
    }
    let committed = std::fs::read_to_string(golden_path()).expect("committed golden");
    let committed: Vec<&str> = committed.lines().collect();
    assert_eq!(committed.len(), lines.len(), "golden line count");
    for (want, got) in committed.iter().zip(&lines) {
        if want.starts_with("path ") {
            // Fields 0..=5 identify the input; the rest are outputs.
            let input = |l: &str| l.split(' ').take(6).collect::<Vec<_>>().join(" ");
            assert_eq!(
                input(want),
                input(got),
                "the Table II trace itself changed (a simulator change): \
                 regenerate the golden only if that change is intended"
            );
        }
        assert_eq!(*want, got.as_str(), "estimator output drifted");
    }
}

/// The population really is adversarial: every hazard the golden claims
/// to cover occurs in it.
#[test]
fn adversarial_population_covers_every_hazard() {
    let (mut jumps, mut beyond, mut spurious, mut never_sent, mut dups) = (0, 0, 0, 0, 0);
    for seed in 0..ADVERSARIAL_TRACES / 10 {
        let (trace, _) = adversarial(seed);
        let mut sent = std::collections::BTreeSet::new();
        let (mut snd_max, mut last_ack) = (0u64, 0u64);
        for r in trace.records() {
            match r.event {
                TraceEvent::Send { seq, .. } => {
                    if seq > snd_max {
                        jumps += 1;
                    }
                    if seq < snd_max && seq < last_ack {
                        spurious += 1;
                    }
                    if seq < snd_max && !sent.contains(&seq) {
                        never_sent += 1;
                    }
                    sent.insert(seq);
                    snd_max = snd_max.max(seq + 1);
                }
                TraceEvent::AckIn { ack } => {
                    if ack > snd_max {
                        beyond += 1;
                    }
                    if ack == last_ack && ack > 0 {
                        dups += 1;
                    }
                    last_ack = last_ack.max(ack);
                }
            }
        }
    }
    for (what, n) in [
        ("seq jumps", jumps),
        ("ACKs beyond snd_max", beyond),
        ("spurious retransmissions below the ACK", spurious),
        ("retransmissions of never-sent seqs", never_sent),
        ("duplicate ACKs", dups),
    ] {
        assert!(n >= 100, "only {n} {what} in the adversarial population");
    }
}
