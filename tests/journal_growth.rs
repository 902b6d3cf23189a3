//! Journal-growth gate: checkpoints carry what the analyzer gained, not
//! its whole history.
//!
//! The streaming analyzer's RTT log and loss indications only grow, so a
//! checkpoint that re-journals them in full makes an hour-long row's
//! checkpoint bytes grow quadratically with its boundary count. Each
//! checkpoint's analyzer state is instead a delta over the same attempt's
//! previous checkpoint. This gate runs a clean journaled campaign at the
//! production cadence and bounds, per attempt, the total analyzer bytes of
//! its checkpoints by twice the full analyzer snapshot at its last
//! checkpoint (rebuilt by applying the chain to a fresh analyzer, which
//! also checks that every chain links).

use std::time::Duration;

use padhye_tcp_repro::testbed::journal::{self, CampaignRecord, Checkpoint};
use padhye_tcp_repro::testbed::{
    run_table2_journaled, JournalConfig, SupervisorConfig, TABLE2_PATHS,
};
use padhye_tcp_repro::trace::analyzer::AnalyzerConfig;
use padhye_tcp_repro::trace::stream::{StreamAnalyzer, StreamConfig};

const BASE_SEED: u64 = 0x6A0_0057;
/// Table II rows in the campaign.
const JOBS: usize = 4;
/// Allowed ratio of an attempt's checkpoint analyzer bytes to one full
/// analyzer snapshot at its last checkpoint.
const MAX_GROWTH: f64 = 2.0;

#[test]
fn checkpoint_bytes_stay_within_twice_the_final_snapshot() {
    let mut path = std::env::temp_dir();
    path.push(format!("pftk-journal-growth-{}.waj", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // The production cadence and horizon: 300 s checkpoints over the hour,
    // eleven boundaries per row.
    let config = JournalConfig {
        supervisor: SupervisorConfig {
            wall_budget: Duration::from_secs(300),
            retry: false,
            max_workers: 2,
            schedule_chaos: None,
        },
        ..JournalConfig::default()
    };
    let report = run_table2_journaled(&TABLE2_PATHS[..JOBS], BASE_SEED, &path, &config)
        .expect("journal I/O");
    assert!(report.is_complete(), "{}", report.summary());

    let replayed = journal::replay(&path).expect("journal readable");
    assert!(!replayed.torn_tail);
    for (job, spec) in TABLE2_PATHS[..JOBS].iter().enumerate() {
        let chain: Vec<&Checkpoint> = replayed
            .records
            .iter()
            .filter_map(|r| match r {
                CampaignRecord::Checkpoint(cp) if cp.job_index == job as u64 => Some(cp),
                _ => None,
            })
            .collect();
        assert_eq!(chain.len(), 11, "row {job}: boundaries");
        let config = StreamConfig::with_analyzer(AnalyzerConfig {
            dupack_threshold: spec.sender_os().dupack_threshold(),
        });
        let mut analyzer = StreamAnalyzer::new(config);
        for (link, cp) in chain.iter().enumerate() {
            analyzer
                .restore(&cp.stream)
                .unwrap_or_else(|e| panic!("row {job}: link {link} does not apply: {e}"));
        }
        let journaled: usize = chain.iter().map(|cp| cp.stream.len()).sum();
        let full = analyzer.snapshot().len();
        let growth = journaled as f64 / full as f64;
        assert!(
            growth <= MAX_GROWTH,
            "row {job} ({}): {journaled} checkpoint analyzer bytes for a \
             {full}-byte final snapshot ({growth:.2}x > {MAX_GROWTH}x)",
            spec.id()
        );
    }
    let _ = std::fs::remove_file(&path);
}
