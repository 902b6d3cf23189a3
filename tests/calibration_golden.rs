//! Golden gate for wire-loss calibration: `calibrate_wire_loss` on every
//! Table II path at one pinned seed, compared with committed output as
//! `f64::to_bits`, never by tolerance.
//!
//! Calibration runs five 400 s probe connections per path and reads only
//! their loss-indication counts. Which analyzer reductions the probes run
//! (timing, intervals, correlation) must not move a single bit of the
//! fitted parameters; this gate pins that. A path line also carries the
//! path's own parameters, so a change to `TABLE2_PATHS` reads as "the
//! input moved", not as a calibration fault.
//!
//! Regenerate (only when calibration's output is meant to change, and say
//! so in CHANGES.md) with
//! `PFTK_BLESS_GOLDEN=1 cargo test --release --test calibration_golden`.

use padhye_tcp_repro::testbed::experiment::calibrate_wire_loss;
use padhye_tcp_repro::testbed::TABLE2_PATHS;

/// The pinned calibration seed.
const SEED: u64 = 7;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("calibration.txt")
}

fn golden_lines() -> Vec<String> {
    let mut lines = vec![
        "# calibration v1: see tests/calibration_golden.rs".to_string(),
        "# path <row> <label> <paper_packets> <paper_loss> <paper_td> <t0 bits> <isolated_p> <burst_time_frac> <mean_burst_secs>".to_string(),
    ];
    for (row, spec) in TABLE2_PATHS.iter().enumerate() {
        let wire = calibrate_wire_loss(spec, SEED);
        lines.push(format!(
            "path {row} {} {} {} {} {:016x} {:016x} {:016x} {:016x}",
            spec.id(),
            spec.paper_packets,
            spec.paper_loss,
            spec.paper_td,
            spec.t0.to_bits(),
            wire.isolated_p.to_bits(),
            wire.burst_time_frac.to_bits(),
            wire.mean_burst_secs.to_bits(),
        ));
    }
    lines
}

#[test]
fn calibration_reproduces_the_golden() {
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
            // Fields 0..=6 identify the input; the rest are outputs.
            let input = |l: &str| l.split(' ').take(7).collect::<Vec<_>>().join(" ");
            assert_eq!(
                input(want),
                input(got),
                "the Table II path itself changed: regenerate the golden \
                 only if that change is intended"
            );
        }
        assert_eq!(*want, got.as_str(), "calibrated wire loss drifted");
    }
}
