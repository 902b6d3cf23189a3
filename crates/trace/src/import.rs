//! Import of external sender-side dumps in a simple line format, so traces
//! captured outside this workspace (e.g. converted from `tcpdump` output)
//! can feed the §III analysis programs.
//!
//! The format is one event per line:
//!
//! ```text
//! # comments and blank lines are skipped
//! 0.000000 send 0
//! 0.104211 ack 1
//! 0.104300 send 1
//! 3.201423 send 1        # repeated seq = retransmission (inferred anyway)
//! ```
//!
//! * column 1 — timestamp in seconds (float, non-decreasing);
//! * column 2 — `send` or `ack`;
//! * column 3 — packet sequence number (for `send`) or cumulative ACK
//!   ("next expected") value (for `ack`).
//!
//! A tcpdump line like `14:02:11.342 IP a.1234 > b.80: . 4345:5793(1448)
//! ack 1 win 8760` maps to `send <seq/1448>` after byte→packet conversion;
//! a one-line `awk` does the job, which is the point of the format.
//!
//! Two parsers are provided. [`import_text`] is **lenient**: real captures
//! get truncated mid-record, duplicated by flaky pipes, and mildly
//! reordered by clock steps, so it salvages every usable event and reports
//! the damage in a [`TraceHealth`] instead of failing (only I/O errors are
//! hard errors). [`import_text_strict`] is the old all-or-nothing parser,
//! for callers that want a conversion bug to be loud.

use crate::health::{HealthIssue, TraceHealth};
use crate::record::{Trace, TraceEvent, TraceRecord};
use std::io::BufRead;

/// Errors raised while parsing an imported dump.
#[derive(Debug)]
pub enum ImportError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based number and content
    /// ([`import_text_strict`] only).
    Malformed {
        /// 1-based line number.
        line_no: usize,
        /// The offending line.
        line: String,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::Io(e) => write!(f, "I/O error: {e}"),
            ImportError::Malformed {
                line_no,
                line,
                reason,
            } => {
                write!(f, "line {line_no}: {reason}: {line:?}")
            }
        }
    }
}

impl std::error::Error for ImportError {}

impl From<std::io::Error> for ImportError {
    fn from(e: std::io::Error) -> Self {
        ImportError::Io(e)
    }
}

/// The result of a lenient import: the salvaged trace plus its health.
#[derive(Debug, Clone, PartialEq)]
pub struct Import {
    /// The salvaged, monotone trace.
    pub trace: Trace,
    /// What was discarded or repaired on the way in.
    pub health: TraceHealth,
}

/// One successfully parsed line, before monotonicity repair.
struct ParsedLine {
    time_ns: u64,
    event: TraceEvent,
}

/// Parses one non-empty, comment-stripped line; `Err` is a human-readable
/// reason.
fn parse_line(content: &str) -> Result<ParsedLine, String> {
    let mut fields = content.split_whitespace();
    let (Some(ts), Some(kind), Some(value)) = (fields.next(), fields.next(), fields.next()) else {
        return Err("expected `<time> <send|ack> <number>`".into());
    };
    if fields.next().is_some() {
        return Err("trailing fields".into());
    }
    let secs: f64 = ts.parse().map_err(|_| "bad timestamp".to_string())?;
    if !(secs.is_finite() && secs >= 0.0) {
        return Err("timestamp must be a non-negative number".into());
    }
    let number: u64 = value
        .parse()
        .map_err(|_| "bad sequence/ack number".to_string())?;
    //~ allow(cast): finite non-negative seconds to integer nanoseconds
    let time_ns = (secs * 1e9).round() as u64;
    let event = match kind {
        "send" => TraceEvent::Send {
            seq: number,
            retx: false,
        },
        "ack" => TraceEvent::AckIn { ack: number },
        other => return Err(format!("unknown event kind {other:?} (want send|ack)")),
    };
    Ok(ParsedLine { time_ns, event })
}

/// Powers of ten up to the longest fraction the fast path takes.
const POW10: [u64; 10] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// Reads a run of ASCII digits from `at`: `(value, digits read, next)`, or
/// `None` when the run is empty or the value overflows `u64`.
fn digits(b: &[u8], mut at: usize) -> Option<(u64, usize, usize)> {
    let start = at;
    let mut v = 0u64;
    while let Some(d) = b.get(at).filter(|d| d.is_ascii_digit()) {
        v = v.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
        at += 1;
    }
    (at > start).then_some((v, at - start, at))
}

fn skip_blanks(b: &[u8], mut at: usize) -> usize {
    while matches!(b.get(at), Some(b' ' | b'\t')) {
        at += 1;
    }
    at
}

/// The fast path for a canonical line starting at `b[start]` —
/// `<int>[.<1–9 digits>] send|ack <digits>`, separated by spaces or tabs,
/// optionally followed by blanks and a `#` comment, and ended by `\n`,
/// `\r\n` or the end of input. Returns the record and the start of the
/// next line, or `None` for anything else, which [`parse_line`] then
/// handles, so the two paths can differ only in speed.
///
/// The timestamp is exact: with the digits read as the integer `w` and
/// `k` fraction digits, `w < 2^53` makes `w` and `10^k` exact `f64`s, and
/// IEEE division rounds `w / 10^k` correctly — the same `f64` a correctly
/// rounded `str::parse` returns for the same decimal. From there the
/// nanoseconds come from [`parse_line`]'s own expression.
fn parse_canonical(b: &[u8], start: usize) -> Option<(ParsedLine, usize)> {
    let (int, _, mut at) = digits(b, skip_blanks(b, start))?;
    let (mut w, mut scale) = (int, 1);
    if b.get(at) == Some(&b'.') {
        let (frac, frac_digits, next) = digits(b, at + 1)?;
        scale = *POW10.get(frac_digits)?;
        w = int.checked_mul(scale)?.checked_add(frac)?;
        at = next;
    }
    if w >= 1 << 53 {
        return None;
    }
    //~ allow(cast): w < 2^53 and scale ≤ 10^9 are exact in f64
    let secs = w as f64 / scale as f64;
    //~ allow(cast): finite non-negative seconds to integer nanoseconds
    let time_ns = (secs * 1e9).round() as u64;
    let kind_at = skip_blanks(b, at);
    if kind_at == at {
        return None;
    }
    let (kind_len, is_send) = match b.get(kind_at..kind_at + 4) {
        Some(b"send") => (4, true),
        _ if b.get(kind_at..kind_at + 3) == Some(b"ack") => (3, false),
        _ => return None,
    };
    let value_at = skip_blanks(b, kind_at + kind_len);
    if value_at == kind_at + kind_len {
        return None;
    }
    let (number, _, end) = digits(b, value_at)?;
    let end = skip_blanks(b, end);
    let next = match b.get(end..) {
        Some([]) => end,
        Some([b'\n', ..]) => end + 1,
        Some([b'\r', b'\n', ..]) => end + 2,
        Some([b'#', ..]) => next_line(b, end),
        _ => return None,
    };
    let event = if is_send {
        TraceEvent::Send {
            seq: number,
            retx: false,
        }
    } else {
        TraceEvent::AckIn { ack: number }
    };
    Some((ParsedLine { time_ns, event }, next))
}

/// The start of the line after the one holding `b[at]`.
fn next_line(b: &[u8], at: usize) -> usize {
    b.get(at..)
        .and_then(|rest| rest.iter().position(|&c| c == b'\n'))
        .map_or(b.len(), |i| at + i + 1)
}

/// Leniently parses the line format described in the module docs.
///
/// Salvage policy:
///
/// * a malformed **final** line is treated as a truncated tail (the capture
///   was cut mid-record): the complete prefix is kept and the fragment
///   reported as [`HealthIssue::TruncatedTail`];
/// * a malformed **mid-stream** line is discarded with
///   [`HealthIssue::Malformed`];
/// * a timestamp that goes backwards is clamped up to its predecessor
///   ([`HealthIssue::TimestampClamped`]) so the salvaged trace is monotone;
/// * an exact consecutive duplicate of the previous record is discarded
///   ([`HealthIssue::DuplicateRecord`]).
///
/// Only I/O failures are hard errors.
///
/// One pass over the lines: canonical lines take a byte-level fast path
/// (`parse_canonical`), everything else the general `parse_line`, with
/// identical results either way.
pub fn import_text<R: BufRead>(mut reader: R) -> Result<Import, ImportError> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    // One record per line at most. Counting per 255-byte block in a `u8`
    // lets the count vectorise.
    let newlines: usize = text
        .as_bytes()
        .chunks(255)
        .map(|block| usize::from(block.iter().fold(0u8, |n, &c| n + u8::from(c == b'\n'))))
        .sum();
    let mut trace = Trace::with_capacity(newlines + 1);
    let mut health = TraceHealth::new();
    let mut last_ns: u64 = 0;
    let mut last_event: Option<TraceEvent> = None;
    // A line that fails to parse is the truncated tail if no meaningful
    // line follows it ("last line" means "last record attempt", not a
    // trailing blank), so its warning waits for the next meaningful line.
    let mut failed: Option<(usize, &str, String)> = None;
    // Lines split as `str::lines` splits them: at `\n`, dropping a `\r`
    // before it, with no empty line after a final `\n`.
    let bytes = text.as_bytes();
    let (mut start, mut line_no) = (0, 0);
    while start < bytes.len() {
        line_no += 1;
        let parsed = match parse_canonical(bytes, start) {
            Some((parsed, next)) => {
                start = next;
                Ok(parsed)
            }
            None => {
                let next = next_line(bytes, start);
                let raw = text.get(start..next).unwrap_or("");
                start = next;
                let raw = raw
                    .strip_suffix('\n')
                    .map_or(raw, |r| r.strip_suffix('\r').unwrap_or(r));
                let content = raw.split('#').next().unwrap_or("").trim();
                if content.is_empty() {
                    continue;
                }
                parse_line(content).map_err(|reason| (content, reason))
            }
        };
        if let Some((at, _, reason)) = failed.take() {
            health.warn(at, HealthIssue::Malformed { reason });
        }
        match parsed {
            Err((content, reason)) => {
                health.discarded += 1;
                failed = Some((line_no, content, reason));
            }
            Ok(parsed) => {
                let mut time_ns = parsed.time_ns;
                if time_ns < last_ns {
                    health.warn(
                        line_no,
                        HealthIssue::TimestampClamped {
                            original_ns: time_ns,
                            clamped_to_ns: last_ns,
                        },
                    );
                    health.repaired += 1;
                    time_ns = last_ns;
                }
                if time_ns == last_ns && last_event == Some(parsed.event) && !trace.is_empty() {
                    health.warn(line_no, HealthIssue::DuplicateRecord);
                    health.discarded += 1;
                    continue;
                }
                last_ns = time_ns;
                last_event = Some(parsed.event);
                health.salvaged += 1;
                trace.push(TraceRecord {
                    time_ns,
                    event: parsed.event,
                });
            }
        }
    }
    if let Some((at, fragment, _)) = failed {
        health.warn(
            at,
            HealthIssue::TruncatedTail {
                fragment: fragment.to_string(),
            },
        );
    }
    Ok(Import { trace, health })
}

/// Strictly parses the line format: the first malformed line, decreasing
/// timestamp, or unknown event kind aborts the import with a located
/// [`ImportError::Malformed`]. Use when a conversion bug should be loud
/// rather than salvaged around.
pub fn import_text_strict<R: BufRead>(reader: R) -> Result<Trace, ImportError> {
    let mut trace = Trace::new();
    let mut last_ns: u64 = 0;
    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let content = line.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let parsed = parse_line(content).map_err(|reason| ImportError::Malformed {
            line_no,
            line: line.clone(),
            reason,
        })?;
        if parsed.time_ns < last_ns {
            return Err(ImportError::Malformed {
                line_no,
                line,
                reason: format!(
                    "timestamps must be non-decreasing (previous {:.6})",
                    last_ns as f64 / 1e9
                ),
            });
        }
        // Records at identical timestamps are fine; Trace::push accepts
        // equal times.
        last_ns = parsed.time_ns;
        trace.push(TraceRecord {
            time_ns: parsed.time_ns,
            event: parsed.event,
        });
    }
    Ok(trace)
}

/// Exports a trace to the same line format (lossless for analysis purposes;
/// the ground-truth `retx` flag is not representable and is re-inferred on
/// import).
pub fn export_text<W: std::io::Write>(trace: &Trace, mut w: W) -> std::io::Result<()> {
    for rec in trace.records() {
        match rec.event {
            TraceEvent::Send { seq, .. } => {
                writeln!(w, "{:.9} send {}", rec.time_ns as f64 / 1e9, seq)?;
            }
            TraceEvent::AckIn { ack } => {
                writeln!(w, "{:.9} ack {}", rec.time_ns as f64 / 1e9, ack)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::{analyze, AnalyzerConfig};
    use std::io::Cursor;

    #[test]
    fn parses_the_documented_example() {
        let input = "\
# comments and blank lines are skipped

0.000000 send 0
0.104211 ack 1
0.104300 send 1
3.201423 send 1        # repeated seq = retransmission (inferred anyway)
";
        let imported = import_text(Cursor::new(input)).unwrap();
        assert!(imported.health.is_clean());
        assert_eq!(imported.health.salvaged, 4);
        let trace = imported.trace;
        assert_eq!(trace.len(), 4);
        assert_eq!(trace, import_text_strict(Cursor::new(input)).unwrap());
        let a = analyze(&trace, AnalyzerConfig::default());
        assert_eq!(a.packets_sent, 3);
        assert_eq!(a.retransmissions, 1);
        assert_eq!(
            a.to_count(),
            1,
            "the repeated send is a timeout retransmission"
        );
    }

    #[test]
    fn strict_rejects_malformed_lines_with_position() {
        for (input, needle) in [
            ("0.0 send\n", "expected"),
            ("0.0 send 1 extra\n", "trailing"),
            ("abc send 1\n", "bad timestamp"),
            ("-1.0 send 1\n", "non-negative"),
            ("0.0 push 1\n", "unknown event kind"),
            ("0.0 send x\n", "bad sequence"),
            ("1.0 send 1\n0.5 send 2\n", "non-decreasing"),
        ] {
            let err = import_text_strict(Cursor::new(input)).unwrap_err();
            let text = err.to_string();
            assert!(text.contains(needle), "{input:?} → {text}");
        }
    }

    #[test]
    fn export_import_roundtrip_preserves_analysis() {
        let mut trace = Trace::new();
        trace.push(TraceRecord {
            time_ns: 0,
            event: TraceEvent::Send {
                seq: 0,
                retx: false,
            },
        });
        trace.push(TraceRecord {
            time_ns: 100_000_000,
            event: TraceEvent::AckIn { ack: 1 },
        });
        trace.push(TraceRecord {
            time_ns: 100_000_001,
            event: TraceEvent::Send {
                seq: 1,
                retx: false,
            },
        });
        trace.push(TraceRecord {
            time_ns: 3_000_000_000,
            event: TraceEvent::Send { seq: 1, retx: true },
        });
        let mut buf = Vec::new();
        export_text(&trace, &mut buf).unwrap();
        let back = import_text(Cursor::new(buf)).unwrap();
        assert!(back.health.is_clean());
        // The retx flag is re-inferred, so compare analyses, not records.
        let a1 = analyze(&trace, AnalyzerConfig::default());
        let a2 = analyze(&back.trace, AnalyzerConfig::default());
        assert_eq!(a1, a2);
    }

    #[test]
    fn equal_timestamps_accepted() {
        let input = "1.0 send 0\n1.0 send 1\n";
        let imported = import_text(Cursor::new(input)).unwrap();
        assert!(imported.health.is_clean());
        assert_eq!(imported.trace.len(), 2);
    }

    #[test]
    fn truncated_final_line_salvages_prefix() {
        // The capture died mid-record: the last line has no value column.
        let input = "0.0 send 0\n0.1 ack 1\n0.2 se";
        let imported = import_text(Cursor::new(input)).unwrap();
        assert_eq!(imported.trace.len(), 2);
        assert_eq!(imported.health.salvaged, 2);
        assert_eq!(imported.health.discarded, 1);
        assert!(matches!(
            &imported.health.warnings()[0].issue,
            HealthIssue::TruncatedTail { fragment } if fragment == "0.2 se"
        ));
        assert_eq!(imported.health.warnings()[0].location, 3);
        // The strict parser still rejects the same input.
        assert!(import_text_strict(Cursor::new(input)).is_err());
    }

    #[test]
    fn midstream_garbage_is_discarded_with_reason() {
        let input = "0.0 send 0\nGARBAGE LINE\n0.2 send 1\n";
        let imported = import_text(Cursor::new(input)).unwrap();
        assert_eq!(imported.trace.len(), 2);
        assert_eq!(imported.health.discarded, 1);
        assert!(matches!(
            &imported.health.warnings()[0].issue,
            HealthIssue::Malformed { .. }
        ));
        assert_eq!(imported.health.warnings()[0].location, 2);
    }

    #[test]
    fn out_of_order_timestamps_are_clamped_monotone() {
        // 0.3 then 0.2: the second is clamped up to 0.3.
        let input = "0.1 send 0\n0.3 send 1\n0.2 ack 1\n0.4 send 2\n";
        let imported = import_text(Cursor::new(input)).unwrap();
        assert_eq!(imported.trace.len(), 4);
        assert_eq!(imported.health.repaired, 1);
        assert!(matches!(
            imported.health.warnings()[0].issue,
            HealthIssue::TimestampClamped {
                original_ns: 200_000_000,
                clamped_to_ns: 300_000_000
            }
        ));
        let times: Vec<u64> = imported.trace.records().iter().map(|r| r.time_ns).collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "monotone after repair"
        );
    }

    #[test]
    fn consecutive_duplicates_are_discarded() {
        let input = "0.1 send 0\n0.1 send 0\n0.2 ack 1\n";
        let imported = import_text(Cursor::new(input)).unwrap();
        assert_eq!(imported.trace.len(), 2);
        assert_eq!(imported.health.discarded, 1);
        assert!(matches!(
            imported.health.warnings()[0].issue,
            HealthIssue::DuplicateRecord
        ));
        // A retransmission at a *later* time is NOT a duplicate.
        let retx = "0.1 send 0\n0.5 send 0\n";
        let imported = import_text(Cursor::new(retx)).unwrap();
        assert_eq!(imported.trace.len(), 2);
        assert!(imported.health.is_clean());
    }

    /// The two-pass lenient import the single-pass one replaced, kept as
    /// its oracle: every line through `parse_line`, after collecting the
    /// meaningful lines so the last one is known up front.
    fn import_text_reference(text: &str) -> Import {
        let mut trace = Trace::new();
        let mut health = TraceHealth::new();
        let mut last_ns: u64 = 0;
        let mut last_event: Option<TraceEvent> = None;
        let meaningful: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .filter_map(|(idx, raw)| {
                let content = raw.split('#').next().unwrap_or("").trim();
                (!content.is_empty()).then_some((idx + 1, content))
            })
            .collect();
        let total = meaningful.len();
        for (pos, (line_no, content)) in meaningful.into_iter().enumerate() {
            match parse_line(content) {
                Err(reason) => {
                    health.discarded += 1;
                    let issue = if pos + 1 == total {
                        HealthIssue::TruncatedTail {
                            fragment: content.to_string(),
                        }
                    } else {
                        HealthIssue::Malformed { reason }
                    };
                    health.warn(line_no, issue);
                }
                Ok(parsed) => {
                    let mut time_ns = parsed.time_ns;
                    if time_ns < last_ns {
                        health.warn(
                            line_no,
                            HealthIssue::TimestampClamped {
                                original_ns: time_ns,
                                clamped_to_ns: last_ns,
                            },
                        );
                        health.repaired += 1;
                        time_ns = last_ns;
                    }
                    if time_ns == last_ns && last_event == Some(parsed.event) && !trace.is_empty() {
                        health.warn(line_no, HealthIssue::DuplicateRecord);
                        health.discarded += 1;
                        continue;
                    }
                    last_ns = time_ns;
                    last_event = Some(parsed.event);
                    health.salvaged += 1;
                    trace.push(TraceRecord {
                        time_ns,
                        event: parsed.event,
                    });
                }
            }
        }
        Import { trace, health }
    }

    /// A small deterministic stream for assembling random lines.
    struct Pick(u64);

    impl Pick {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }

        fn one<'a>(&mut self, options: &[&'a str]) -> &'a str {
            options[self.below(options.len() as u64) as usize]
        }

        fn digits(&mut self, n: u64) -> String {
            (0..n)
                .map(|_| char::from(b'0' + self.below(10) as u8))
                .collect()
        }
    }

    /// A canonical line most of the time; otherwise one near miss: long
    /// integer parts and fractions, `1.`, signs, exponents, `\r`, other
    /// whitespace, unknown kinds, `u64` overflow, trailing fields.
    fn random_line(seed: u64) -> String {
        let mut p = Pick(seed | 1);
        let near = p.below(3) == 0;
        let pick = |p: &mut Pick, canonical: &[&'static str], odd: &[&'static str]| {
            if near && p.below(4) == 0 {
                p.one(odd)
            } else {
                p.one(canonical)
            }
        };
        let lead = pick(&mut p, &["", "", " ", "\t"], &["\u{a0}", "\u{b}", "\r"]);
        let int_len = 1 + p.below(if near { 12 } else { 7 });
        let mut ts = p.digits(int_len);
        match p.below(if near { 5 } else { 2 }) {
            0 => {}
            1 => {
                let frac_len = 1 + p.below(9);
                ts = format!("{ts}.{}", p.digits(frac_len));
            }
            2 => {
                let frac_len = 10 + p.below(12);
                ts = format!("{ts}.{}", p.digits(frac_len));
            }
            3 => ts.push('.'),
            _ => {
                ts = format!(
                    "{}{ts}",
                    p.one(&["+", "-", ".", "e", "0x", "", "9007199254"])
                )
            }
        }
        if near && p.below(8) == 0 {
            ts = p
                .one(&["inf", "NaN", "-0.0", "1e3", ".5", "1_0", "", "۱.۲"])
                .into();
        }
        let sep1 = pick(
            &mut p,
            &[" ", "\t", "  ", " \t"],
            &["\u{a0}", "\u{2003}", "\u{c}", ""],
        );
        let kind = pick(
            &mut p,
            &["send", "ack"],
            &["Send", "sendx", "ac", "ack#", "acks"],
        );
        let sep2 = pick(&mut p, &[" ", "\t", "   "], &["\u{a0}", "\u{85}", "", "\r"]);
        let value = if near && p.below(4) == 0 {
            p.one(&[
                "18446744073709551615",
                "18446744073709551616",
                "99999999999999999999999",
                "+5",
                "-1",
                "007",
                "5x",
                "",
                "٣",
            ])
            .to_string()
        } else {
            let len = 1 + p.below(12);
            p.digits(len)
        };
        let tail = pick(
            &mut p,
            &["", "", " ", "\t", "#c", " # comment"],
            &["\r", " extra", "\u{a0}", "#", "\u{3000}", " 1"],
        );
        format!("{lead}{ts}{sep1}{kind}{sep2}{value}{tail}")
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2_000))]

        /// Whatever the fast path accepts, `parse_line` accepts with the
        /// same record, and whole documents import identically to the
        /// two-pass oracle: same trace, same health, line for line.
        #[test]
        fn fast_path_agrees_with_parse_line(
            seeds in proptest::collection::vec(1u64..u64::MAX, 1..40),
            ends in 0u64..6,
        ) {
            let lines: Vec<String> = seeds.iter().map(|&s| random_line(s)).collect();
            for line in &lines {
                if let Some((fast, _)) = parse_canonical(line.as_bytes(), 0) {
                    let content = line.split('#').next().unwrap_or("").trim();
                    let slow = parse_line(content);
                    proptest::prop_assert!(slow.is_ok(), "{line:?}: fast path accepted, parse_line did not");
                    let slow = slow.unwrap_or(ParsedLine { time_ns: 0, event: TraceEvent::AckIn { ack: 0 } });
                    proptest::prop_assert_eq!(fast.time_ns, slow.time_ns, "{:?}", line);
                    proptest::prop_assert_eq!(fast.event, slow.event, "{:?}", line);
                }
            }
            let newline = if ends % 2 == 0 { "\n" } else { "\r\n" };
            let mut doc = lines.join(newline);
            match ends / 2 {
                0 => {}
                1 => {
                    doc.push_str(newline);
                    doc.push_str("# trailing comment\n\n");
                }
                // A bare `\r` ends the input: `str::lines` keeps it.
                _ => doc.push('\r'),
            }
            let got = import_text(Cursor::new(doc.as_bytes())).map_err(|e| {
                proptest::TestCaseError::Fail(e.to_string())
            })?;
            proptest::prop_assert_eq!(got, import_text_reference(&doc));
        }
    }

    #[test]
    fn random_lines_exercise_both_paths() {
        let fast = (1..=10_000u64)
            .filter(|&s| parse_canonical(random_line(s).as_bytes(), 0).is_some())
            .count();
        assert!(
            (5_000..9_500).contains(&fast),
            "{fast} of 10000 took the fast path"
        );
    }

    #[test]
    fn fast_path_timestamps_are_exact() {
        // Up to 7-digit integer parts with up to 9-digit fractions, against
        // `str::parse`. Digit strings of 2^53 or more leave the fast path.
        let mut p = Pick(0x9E37_79B9_7F4A_7C15);
        let mut fast = 0;
        for _ in 0..200_000 {
            let int_len = 1 + p.below(7);
            let frac_len = 1 + p.below(9);
            let ts = format!("{}.{}", p.digits(int_len), p.digits(frac_len));
            let want = (ts.parse::<f64>().unwrap() * 1e9).round() as u64;
            if let Some((line, _)) = parse_canonical(format!("{ts} send 1").as_bytes(), 0) {
                assert_eq!(line.time_ns, want, "{ts}");
                fast += 1;
            }
        }
        assert!(fast > 190_000, "only {fast} timestamps took the fast path");
        // Every hour-scale timestamp of the exported format takes it.
        assert_eq!(
            parse_canonical(b"3599.999999999 ack 1", 0).map(|(l, _)| l.time_ns),
            Some(3_599_999_999_999)
        );
    }

    #[test]
    fn near_canonical_lines_take_the_general_path() {
        for line in [
            "1. send 1",
            "+5 send 1",
            "0.1234567891 send 1",
            "9999999.999999999 send 1",
            "1.0 send 18446744073709551616",
            "1.0 send +5",
            "1.0\u{a0}send 1",
            "1.0 send 1\r",
            "1.0 sendx 1",
            "1.0 send 1 2",
        ] {
            assert!(parse_canonical(line.as_bytes(), 0).is_none(), "{line:?}");
        }
        for line in [
            "1.0 send 1",
            "\t7\tack\t0\t",
            "3600.123456789 ack 5 # c",
            "2 send 3#x",
        ] {
            assert!(parse_canonical(line.as_bytes(), 0).is_some(), "{line:?}");
        }
    }

    #[test]
    fn lenient_import_never_hard_errors_on_text() {
        for input in [
            "",
            "\n\n#only comments\n",
            "total nonsense\nmore nonsense",
            "9.9 ack\n",
            "1.0 send 1\nNaN send 2\ninf ack 3\n-0.5 send 4\n",
        ] {
            let imported = import_text(Cursor::new(input)).unwrap();
            let times: Vec<u64> = imported.trace.records().iter().map(|r| r.time_ns).collect();
            assert!(times.windows(2).all(|w| w[0] <= w[1]), "{input:?}");
        }
    }
}
