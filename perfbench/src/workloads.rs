//! The four closed-loop workloads: seeded set-up, one job, and the output
//! checks every job is held to.
//!
//! Set-up makes everything a job needs from the seed: its inputs and the
//! reference outputs its checks compare against. A job is the call a user
//! of the repository makes: a journaled Table II campaign, the offline
//! analysis of 24 exported traces, a fleet run, or a resumed campaign.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use tcp_sim::fleet::WheelConfig;
use tcp_sim::rounds::RoundsConfig;
use tcp_testbed::{
    run_fleet, run_hour_budgeted, run_hour_with, run_table2_journaled, run_table2_supervised,
    CampaignReport, CrashPoint, ExperimentOptions, ExperimentResult, FleetCampaignSpec,
    FleetCohortSpec, FleetReport, JournalConfig, Outcome, PathSpec, SupervisorConfig,
    DEFAULT_EVENT_BUDGET, TABLE2_PATHS,
};
use tcp_trace::analyzer::AnalyzerConfig;
use tcp_trace::import::{export_text, import_text};
use tcp_trace::record::{Trace, TraceEvent};
use tcp_trace::stream::{StreamAnalysis, StreamConfig};

use crate::span::Tracer;

/// Sim-seconds of one Table II connection: the paper's hour.
pub const HORIZON_SECS: f64 = 3600.0;
/// Checkpoint cadence of a journaled campaign, sim-seconds
/// (`JournalConfig::default`, the production setting).
pub const CHECKPOINT_SECS: f64 = 300.0;

/// Workload sizes; the smoke tests shrink them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Table II paths each campaign runs.
    pub specs: &'static [PathSpec],
    /// Flows in the fleet workload.
    pub fleet_flows: u64,
}

impl Scale {
    /// The workloads as named: all 24 Table II paths, 10^5 flows.
    pub const FULL: Scale = Scale {
        specs: TABLE2_PATHS,
        fleet_flows: 100_000,
    };
}

/// Where and how wide a run executes.
#[derive(Debug, Clone)]
pub struct Env {
    /// Workload sizes.
    pub scale: Scale,
    /// Campaign workers and fleet shards: never more than the machine's
    /// cores.
    pub workers: usize,
    /// Scratch directory for journals, inside the benchmark's checkout.
    pub dir: PathBuf,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run_table2_journaled` over the Table II paths.
    Table2Journaled,
    /// `import_text` plus streamed analysis of exported Table II traces.
    TraceImport,
    /// `run_fleet` on the two-cohort fleet spec.
    Fleet100k,
    /// `run_table2_journaled` resuming a journal killed mid-campaign.
    Table2Resume,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Table2Journaled,
        Workload::TraceImport,
        Workload::Fleet100k,
        Workload::Table2Resume,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2Journaled => "table2_journaled",
            Workload::TraceImport => "trace_import",
            Workload::Fleet100k => "fleet_100k",
            Workload::Table2Resume => "table2_resume",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seeded inputs an untraced run sets up and rotates its jobs
    /// through. A Table II job's time follows its packet count, which
    /// differs by about 8% (interquartile) from one campaign seed to the
    /// next; a median over jobs on three campaigns differs less from one
    /// run's seed to the next. A resume job's time varies little with
    /// the seed (its kill point is fixed), and each input holds a 100-odd
    /// MB journal on disk; the fleet is not among the measured workloads.
    pub fn inputs(self) -> usize {
        match self {
            Workload::Table2Journaled | Workload::TraceImport => 3,
            Workload::Fleet100k | Workload::Table2Resume => 1,
        }
    }
}

/// The seed of a run's `i`-th input: the run's own seed first, so a
/// one-input run sets up exactly what [`setup`] does for that seed.
pub fn input_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        seed
    } else {
        derive(seed, 100 + i as u64)
    }
}

/// SplitMix64 of `seed` on an independent `stream`: every seeded input is
/// drawn from its own stream, so adding one does not shift the others.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a, for input digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` in.
    pub fn add(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Data packets a campaign sent: `stats.packets_sent` over its rows.
pub fn campaign_pkts(report: &CampaignReport) -> u64 {
    report
        .rows
        .iter()
        .filter_map(|r| r.result.as_ref())
        .map(|r| r.stats.packets_sent)
        .sum()
}

/// Data packets a fleet sent: `packets_sent` over its cohorts.
pub fn fleet_pkts(report: &FleetReport) -> u64 {
    report.cohorts.iter().map(|c| c.packets_sent).sum()
}

/// Data packets in a trace: its send records.
pub fn trace_pkts(trace: &Trace) -> u64 {
    trace
        .records()
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::Send { .. }))
        .count() as u64
}

/// The streamed-analysis configuration a Table II run uses for `spec`
/// (the testbed's own, rebuilt from public parts; the import check fails
/// if the two ever differ).
pub fn stream_config(spec: &PathSpec) -> StreamConfig {
    StreamConfig::with_analyzer(AnalyzerConfig {
        dupack_threshold: spec.sender_os().dupack_threshold(),
    })
}

/// The two-cohort fleet spec of `bench_report`, at `flows` flows: a
/// comfortable and a lossy grid point, 30 sim-seconds, no wire audit.
pub fn fleet_spec(flows: u64, base_seed: u64) -> FleetCampaignSpec {
    let lossy = flows * 2 / 5;
    FleetCampaignSpec {
        cohorts: vec![
            FleetCohortSpec {
                label: "p=0.02 rtt=0.1 wmax=64".into(),
                config: RoundsConfig {
                    p: 0.02,
                    rtt: 0.1,
                    t0: 1.0,
                    b: 2,
                    wmax: 64,
                    ..RoundsConfig::default()
                },
                flows: flows - lossy,
            },
            FleetCohortSpec {
                label: "p=0.1 rtt=0.3 wmax=16".into(),
                config: RoundsConfig {
                    p: 0.1,
                    rtt: 0.3,
                    t0: 1.5,
                    b: 2,
                    wmax: 16,
                    ..RoundsConfig::default()
                },
                flows: lossy,
            },
        ],
        base_seed,
        horizon_secs: 30.0,
        wheel: WheelConfig::default(),
        audit_flows_per_cohort: 0,
    }
}

/// A journaled-campaign configuration at the production cadence.
pub fn journal_config(workers: usize, crash: Option<std::sync::Arc<CrashPoint>>) -> JournalConfig {
    JournalConfig {
        supervisor: SupervisorConfig {
            max_workers: workers,
            // A killed attempt must stay a hole for the resume to pick
            // up, not be replaced by a reseeded retry.
            retry: crash.is_none(),
            ..SupervisorConfig::default()
        },
        checkpoint_sim_secs: CHECKPOINT_SECS,
        horizon_secs: HORIZON_SECS,
        crash,
        ..JournalConfig::default()
    }
}

/// One row rendered exactly: label, seed and the full result as JSON
/// (finite `f64`s print in their shortest round-tripping form, so equal
/// text means equal bits).
fn row_text(label: &str, seed: u64, result: Option<&ExperimentResult>) -> String {
    let body = result.map_or_else(
        || "none".to_string(),
        |r| serde_json::to_string(r).unwrap_or_else(|e| format!("unserialisable: {e}")),
    );
    format!("{label}\t{seed}\t{body}")
}

/// What a finished job reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobOutcome {
    /// Data packets the job's output covers.
    pub pkts: u64,
    /// Rows, shards or imports attempted, plus output checks made.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// Journal bytes the job wrote.
    pub journal_bytes: u64,
}

/// A workload after set-up: its inputs and reference outputs.
#[derive(Debug)]
pub enum Prepared {
    /// Campaign inputs and the `run_table2_supervised` reference rows.
    Table2Journaled {
        /// Campaign base seed.
        base_seed: u64,
        /// Reference rows, one per path.
        reference: Vec<String>,
    },
    /// Exported traces and the analyses the simulator streamed for them.
    TraceImport {
        /// One exported text trace per path.
        texts: Vec<Vec<u8>>,
        /// The streamed analysis of each path's simulated hour.
        reference: Vec<StreamAnalysis>,
    },
    /// The fleet spec and its one-shard reference report.
    Fleet100k {
        /// The campaign.
        spec: FleetCampaignSpec,
        /// `run_fleet(spec, 1)`, serialised.
        reference: String,
    },
    /// A journal killed mid-campaign and the uninterrupted rows.
    Table2Resume {
        /// Campaign base seed.
        base_seed: u64,
        /// The killed journal; every job resumes a fresh copy of it.
        killed: PathBuf,
        /// Row the kill interrupted.
        killed_row: usize,
        /// Uninterrupted reference rows, one per path.
        reference: Vec<String>,
    },
}

/// Runs `f` over `0..n` on `workers` scoped threads, returning each
/// index's result with its start and end time.
fn par_map<T: Send>(
    n: usize,
    workers: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<(T, Instant, Instant)> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, (T, Instant, Instant))> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break mine;
                        }
                        let start = Instant::now();
                        let v = f(i);
                        mine.push((i, (v, start, Instant::now())));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("benchmark worker panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, v)| v).collect()
}

/// Deletes `path`; a file that is already gone is not an error.
pub(crate) fn remove_if_present(path: &Path) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Sim-time checkpoint boundaries of one journaled connection.
fn boundaries_per_path() -> u64 {
    (HORIZON_SECS / CHECKPOINT_SECS).ceil() as u64 - 1
}

/// Builds a workload's inputs and reference outputs from `seed`.
pub fn setup(w: Workload, env: &Env, seed: u64) -> io::Result<Prepared> {
    let specs = env.scale.specs;
    Ok(match w {
        Workload::Table2Journaled => {
            let base_seed = derive(seed, 1);
            let report = run_table2_supervised(
                specs,
                base_seed,
                &SupervisorConfig {
                    max_workers: env.workers,
                    ..SupervisorConfig::default()
                },
            );
            Prepared::Table2Journaled {
                base_seed,
                reference: report
                    .rows
                    .iter()
                    .map(|r| row_text(&r.label, r.seed, r.result.as_ref()))
                    .collect(),
            }
        }
        Workload::TraceImport => {
            let base_seed = derive(seed, 3);
            let runs = par_map(specs.len(), env.workers, |i| {
                let r = run_hour_with(
                    &specs[i],
                    base_seed.wrapping_add(i as u64),
                    &ExperimentOptions::retained(),
                );
                let mut text = Vec::new();
                let trace = r.trace.as_ref().expect("retained run keeps its trace");
                export_text(trace, &mut text).expect("export to memory");
                (text, r.stream)
            });
            let (texts, reference) = runs.into_iter().map(|(v, _, _)| v).unzip();
            Prepared::TraceImport { texts, reference }
        }
        Workload::Fleet100k => {
            let spec = fleet_spec(env.scale.fleet_flows, derive(seed, 2));
            let reference = serde_json::to_string(&run_fleet(&spec, 1))?;
            Prepared::Fleet100k { spec, reference }
        }
        Workload::Table2Resume => {
            let base_seed = derive(seed, 4);
            let killed = env.dir.join(format!("killed-{base_seed:016x}.waj"));
            remove_if_present(&killed)?;
            // One worker runs the paths in order, so the kill tick lands
            // on a fixed row and boundary and the journal's bytes follow
            // from the seed alone. The kill point is the same for every
            // seed, the middle row at mid-hour: how much of the killed row
            // is left to run sets most of a job's time, and a seeded kill
            // point made jobs differ by half from seed to seed. The killed
            // row is never the last: a later row's synced completion
            // flushes the killed row's checkpoints, so the journal is
            // whole when the call returns.
            let per_path = boundaries_per_path();
            let row = (specs.len().max(2) as u64 - 2) / 2;
            let boundary = per_path.div_ceil(2);
            let crash = CrashPoint::after(row * per_path + boundary);
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let crashed =
                run_table2_journaled(specs, base_seed, &killed, &journal_config(1, Some(crash)));
            std::panic::set_hook(hook);
            let crashed = crashed?;
            let killed_rows: Vec<usize> = (0..crashed.rows.len())
                .filter(|&i| crashed.rows[i].outcome == Outcome::Panicked)
                .collect();
            if killed_rows != [row as usize] {
                return Err(io::Error::other(format!(
                    "kill run panicked rows {killed_rows:?}, want [{row}]"
                )));
            }
            let killed_row = row as usize;
            let reference = crashed
                .rows
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    if i == killed_row {
                        let seed = base_seed.wrapping_add(i as u64);
                        let live = run_hour_budgeted(&specs[i], seed, DEFAULT_EVENT_BUDGET);
                        row_text(&r.label, seed, Some(&live))
                    } else {
                        row_text(&r.label, r.seed, r.result.as_ref())
                    }
                })
                .collect();
            Prepared::Table2Resume {
                base_seed,
                killed,
                killed_row,
                reference,
            }
        }
    })
}

impl Prepared {
    /// Digest of the inputs a job receives (not of the references).
    pub fn input_digest(&self) -> io::Result<u64> {
        let mut d = Digest::default();
        match self {
            Prepared::Table2Journaled { base_seed, .. } => {
                d.add(b"table2_journaled").add(&base_seed.to_le_bytes());
            }
            Prepared::TraceImport { texts, .. } => {
                d.add(b"trace_import");
                for t in texts {
                    d.add(&(t.len() as u64).to_le_bytes()).add(t);
                }
            }
            Prepared::Fleet100k { spec, .. } => {
                d.add(b"fleet_100k").add(&spec.base_seed.to_le_bytes());
                for c in &spec.cohorts {
                    d.add(&c.flows.to_le_bytes())
                        .add(&serde_json::to_string(c)?.into_bytes());
                }
            }
            Prepared::Table2Resume {
                base_seed, killed, ..
            } => {
                d.add(b"table2_resume")
                    .add(&base_seed.to_le_bytes())
                    .add(&std::fs::read(killed)?);
            }
        }
        Ok(d.value())
    }

    /// Runs one job in `env` and checks its output. Only the call into the
    /// repository is timed: the returned seconds exclude preparing the
    /// job's journal and checking its report. With a tracer, the job's
    /// calls are recorded as spans.
    pub fn run_job(
        &self,
        env: &Env,
        mut tracer: Option<&mut Tracer>,
    ) -> io::Result<(f64, JobOutcome)> {
        let specs = env.scale.specs;
        let journal = env.dir.join("job.waj");
        match self {
            Prepared::Table2Journaled {
                base_seed,
                reference,
            }
            | Prepared::Table2Resume {
                base_seed,
                reference,
                ..
            } => {
                let resumed = match self {
                    Prepared::Table2Resume {
                        killed, killed_row, ..
                    } => {
                        std::fs::copy(killed, &journal)?;
                        // A resumed campaign meets its journal on disk.
                        // Unsynced, the copy would be written back by the
                        // job's first fsync, inside the timed resume.
                        std::fs::File::open(&journal)?.sync_all()?;
                        Some(*killed_row)
                    }
                    _ => {
                        remove_if_present(&journal)?;
                        None
                    }
                };
                let before = std::fs::metadata(&journal).map_or(0, |m| m.len());
                let config = journal_config(env.workers, None);
                let (secs, report) = timed(
                    tracer.as_deref_mut(),
                    "testbed.run_table2_journaled",
                    || {
                        let r = run_table2_journaled(specs, *base_seed, &journal, &config);
                        let pkts = r.as_ref().map_or(0, campaign_pkts);
                        (r, pkts)
                    },
                );
                let report = report?;
                let bytes = std::fs::metadata(&journal)?.len() - before;
                remove_if_present(&journal)?;
                Ok((secs, check_campaign(&report, reference, resumed, bytes)))
            }
            Prepared::Fleet100k { spec, reference } => {
                let (secs, report) = timed(tracer.as_deref_mut(), "testbed.run_fleet", || {
                    let r = std::panic::catch_unwind(|| run_fleet(spec, env.workers));
                    let pkts = r.as_ref().map_or(0, fleet_pkts);
                    (r, pkts)
                });
                let shards = env.workers as u64;
                Ok((
                    secs,
                    match report {
                        Ok(report) => {
                            let same = serde_json::to_string(&report)? == *reference;
                            JobOutcome {
                                pkts: fleet_pkts(&report),
                                attempted: shards + 1,
                                failed: u64::from(!same),
                                journal_bytes: 0,
                            }
                        }
                        // A lost shard panics the whole run: count every
                        // shard and the check as failed.
                        Err(_) => JobOutcome {
                            pkts: 0,
                            attempted: shards + 1,
                            failed: shards + 1,
                            journal_bytes: 0,
                        },
                    },
                ))
            }
            Prepared::TraceImport { texts, reference } => {
                let job_span = tracer.as_deref_mut().map(|t| t.begin("trace.import_job"));
                let start = Instant::now();
                let results = par_map(texts.len(), env.workers, |i| {
                    let import = import_text(&texts[i][..]);
                    let parsed = Instant::now();
                    let analysis = import.as_ref().ok().map(|imp| {
                        StreamAnalysis::from_trace(
                            &imp.trace,
                            stream_config(&specs[i]),
                            Some(HORIZON_SECS),
                        )
                    });
                    (import, analysis, parsed)
                });
                let finished = Instant::now();
                let secs = (finished - start).as_secs_f64();
                let mut out = JobOutcome {
                    attempted: texts.len() as u64 + 1,
                    ..JobOutcome::default()
                };
                let mut all_equal = true;
                for (i, ((import, analysis, parsed), begin, end)) in results.iter().enumerate() {
                    let Ok(import) = import else {
                        out.failed += 1;
                        all_equal = false;
                        continue;
                    };
                    let pkts = trace_pkts(&import.trace);
                    out.pkts += pkts;
                    if let Some(t) = tracer.as_deref_mut() {
                        t.record("trace.import_text", *begin, *parsed, pkts);
                        t.record("trace.stream.from_trace", *parsed, *end, pkts);
                    }
                    let equal = analysis.as_ref() == Some(&reference[i]);
                    if !import.health.is_clean() || !equal {
                        out.failed += 1;
                    }
                    all_equal &= equal;
                }
                out.failed += u64::from(!all_equal);
                if let (Some(t), Some(id)) = (tracer, job_span) {
                    t.end(id, finished, out.pkts);
                }
                Ok((secs, out))
            }
        }
    }
}

/// Times `f` (which returns its result and packet count), as a span when
/// traced.
fn timed<T>(
    tracer: Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> (T, u64),
) -> (f64, T) {
    match tracer {
        Some(t) => {
            let (out, secs) = t.span(name, |_| f());
            (secs, out)
        }
        None => {
            let start = Instant::now();
            let out = f().0;
            (start.elapsed().as_secs_f64(), out)
        }
    }
}

/// Checks a campaign report row by row against `reference`: every row must
/// match bit for bit and be `Ok`, except `resumed`, which must be the one
/// `Resumed` row.
fn check_campaign(
    report: &CampaignReport,
    reference: &[String],
    resumed: Option<usize>,
    journal_bytes: u64,
) -> JobOutcome {
    let mut out = JobOutcome {
        pkts: campaign_pkts(report),
        attempted: reference.len() as u64 + 1,
        journal_bytes,
        ..JobOutcome::default()
    };
    let mut all_equal = report.rows.len() == reference.len();
    for (i, want) in reference.iter().enumerate() {
        let Some(row) = report.rows.get(i) else {
            out.failed += 1;
            continue;
        };
        let outcome_ok = if resumed == Some(i) {
            row.outcome == Outcome::Resumed
        } else {
            row.outcome == Outcome::Ok
        };
        let equal = row_text(&row.label, row.seed, row.result.as_ref()) == *want;
        if !outcome_ok || !equal {
            out.failed += 1;
        }
        all_equal &= equal && outcome_ok;
    }
    out.failed += u64::from(!all_equal);
    out
}
