//! The `ExperimentResult` binary codec: the journal's completion records
//! replay a finished Table II row from these bytes, so the round trip must
//! be exact to the bit and a damaged image must be an `Err`, never a panic.

use pftk_snap::SnapError;
use tcp_testbed::experiment::{run_serial_100s_with, ExperimentOptions, ExperimentResult};
use tcp_testbed::TABLE2_PATHS;

/// Every `f64` a result carries, as bits, in a fixed order that does not
/// depend on the codec's layout.
fn float_bits(r: &ExperimentResult) -> Vec<Option<u64>> {
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    let s = &r.stream;
    let mut out = vec![
        bits(s.rtt_window_corr),
        bits(s.interval_secs),
        bits(r.ground_rtt),
        bits(r.ground_t0),
        Some(r.duration_secs.to_bits()),
    ];
    if let Some(t) = &s.timing {
        out.extend([bits(t.mean_rtt), bits(t.mean_t0)]);
    }
    for row in s.intervals.iter().flatten() {
        out.push(Some(row.loss_rate.to_bits()));
    }
    out
}

/// Asserts `decoded` is `original` exactly: every float by `to_bits`, and
/// everything else by its `Debug` image (which, unlike `PartialEq`, also
/// holds across NaN fields).
fn assert_exact(original: &ExperimentResult, decoded: &ExperimentResult, context: &str) {
    assert_eq!(
        float_bits(original),
        float_bits(decoded),
        "{context}: float bits"
    );
    assert_eq!(
        format!("{original:?}"),
        format!("{decoded:?}"),
        "{context}: fields"
    );
}

/// One 100-second connection on Table II path `i`.
fn short_run(i: usize, opts: &ExperimentOptions) -> ExperimentResult {
    let mut runs = run_serial_100s_with(&TABLE2_PATHS[i], 1, 500 + i as u64, opts);
    runs.pop().expect("one run")
}

#[test]
fn short_runs_on_every_table2_path_round_trip_bit_for_bit() {
    for (i, spec) in TABLE2_PATHS.iter().enumerate() {
        let result = short_run(i, &ExperimentOptions::default());
        assert!(result.stats.packets_sent > 0, "{}: nothing sent", spec.id());
        let bytes = result.encode();
        let decoded = ExperimentResult::decode(&bytes)
            .unwrap_or_else(|e| panic!("{}: decode failed: {e}", spec.id()));
        assert_exact(&result, &decoded, &spec.id());
        assert_eq!(decoded, result, "{}", spec.id());
    }
}

#[test]
fn retained_trace_and_non_finite_floats_round_trip_exactly() {
    let mut result = short_run(0, &ExperimentOptions::retained());
    assert!(result.trace.as_ref().is_some_and(|t| !t.is_empty()));
    let nan = f64::from_bits(0x7FF8_0000_0000_BEEF);
    result.ground_rtt = Some(nan);
    result.ground_t0 = Some(-0.0);
    result.stream.rtt_window_corr = Some(f64::INFINITY);
    result.stream.interval_secs = Some(f64::NEG_INFINITY);
    let timing = result.stream.timing.as_mut().expect("timing is on");
    timing.mean_rtt = Some(-0.0);
    timing.mean_t0 = Some(f64::NAN);

    let decoded = ExperimentResult::decode(&result.encode()).expect("decodes");
    assert_exact(&result, &decoded, "non-finite");
    assert_eq!(decoded.trace, result.trace, "retained trace");

    // What the binary image keeps and JSON does not: the JSON writer turns
    // every non-finite value into `null`.
    let json = serde_json::to_string(&result).expect("serializes");
    assert!(json.contains("\"ground_rtt\":null"));
}

#[test]
fn truncated_or_flipped_images_are_errors_not_panics() {
    let result = short_run(3, &ExperimentOptions::default());
    let bytes = result.encode();
    for cut in 0..bytes.len() {
        assert!(
            ExperimentResult::decode(&bytes[..cut]).is_err(),
            "truncation to {cut} of {} bytes decoded",
            bytes.len()
        );
    }
    let mut flipped = bytes.clone();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            flipped[i] ^= 1 << bit;
            assert!(
                ExperimentResult::decode(&flipped).is_err(),
                "bit {bit} of byte {i} flipped decoded"
            );
            flipped[i] ^= 1 << bit;
        }
    }
    assert_eq!(flipped, bytes);

    // A completion body from a build that journaled JSON.
    let json = serde_json::to_string(&result).expect("serializes");
    assert_eq!(
        ExperimentResult::decode(json.as_bytes()),
        Err(SnapError::BadMagic)
    );
}
