//! The traced run's per-layer measurements.
//!
//! Every figure comes from spans the benchmark records around calls into
//! one layer's public entry points. Three groups:
//!
//! * the **pinned path** — the Table II path with the most packets in the
//!   paper — stacked one layer at a time: calibration, the engine with the
//!   `()` observer, the trace recorder, each analyzer core fed the
//!   recorded trace alone, the whole streaming analyzer, the journal at
//!   the production checkpoint cadence, and the model. The stacked
//!   ns/pkt is compared with the same path's journaled campaign;
//! * the **campaign**: one journaled Table II campaign, its journal
//!   replayed, and every path re-run alone for the pool figures;
//! * the **fleet**: `FleetShard` driven directly at 10^5 and 10^4 flows,
//!   and `run_fleet` around it.

use std::io;

use pftk_model::prelude::{full_model, LossProb};
use tcp_sim::connection::{Connection, Observer};
use tcp_sim::fleet::{FleetCohort, FleetShard, FleetSpec};
use tcp_sim::link::Path as WirePath;
use tcp_sim::loss::{Bernoulli, LossKind, Mixed, TimedGilbertElliott};
use tcp_sim::receiver::ReceiverConfig;
use tcp_sim::reno::rto::RtoConfig;
use tcp_sim::reno::sender::{RenoStyle, SenderConfig};
use tcp_sim::time::{SimDuration, SimTime};
use tcp_testbed::experiment::{calibrate_wire_loss, WireLoss};
use tcp_testbed::journal::{self, Checkpoint};
use tcp_testbed::{
    fitted_params, run_fleet, run_table2_journaled, CampaignRecord, ExperimentResult, Journal,
    PathSpec, TraceRecorder, DEFAULT_EVENT_BUDGET,
};
use tcp_trace::analyzer::Classifier;
use tcp_trace::import::{export_text, import_text};
use tcp_trace::intervals::IntervalCore;
use tcp_trace::karn::{CorrCore, KarnCore};
use tcp_trace::record::{Trace, TraceEvent};
use tcp_trace::stream::{StreamAnalyzer, TraceSink};

use crate::span::Tracer;
use crate::stats::{median, ns_per_pkt};
use crate::workloads::{
    campaign_pkts, derive, fleet_pkts, fleet_spec, journal_config, remove_if_present,
    stream_config, trace_pkts, Env, CHECKPOINT_SECS, HORIZON_SECS,
};

/// How a per-layer metric is read: its unit, which way is better, and
/// the end-to-end metric and workloads it should move.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// The end-to-end metric a change in this one should move, and on
    /// which workloads; the rest should not move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

/// Every per-layer metric, in report order.
pub const LAYER_METRICS: &[LayerMetric] = &[
    m(
        "sim.engine.ns_per_pkt",
        "ns/pkt",
        "lower",
        "wall_s on table2_journaled; no change on trace_import, fleet_100k",
    ),
    m(
        "sim.engine.events_per_pkt",
        "events/pkt",
        "lower",
        "wall_s on table2_journaled; no change on trace_import, fleet_100k",
    ),
    m(
        "trace.record.ns_per_pkt",
        "ns/pkt",
        "lower",
        "wall_s on table2_journaled",
    ),
    m(
        "trace.classifier.ns_per_pkt",
        "ns/pkt",
        "lower",
        "pkts_per_s on trace_import, table2_journaled; no change on fleet_100k",
    ),
    m(
        "trace.karn.ns_per_pkt",
        "ns/pkt",
        "lower",
        "pkts_per_s on trace_import, table2_journaled; no change on fleet_100k",
    ),
    m(
        "trace.corr.ns_per_pkt",
        "ns/pkt",
        "lower",
        "pkts_per_s on trace_import, table2_journaled; no change on fleet_100k",
    ),
    m(
        "trace.intervals.ns_per_pkt",
        "ns/pkt",
        "lower",
        "pkts_per_s on trace_import, table2_journaled; no change on fleet_100k",
    ),
    m(
        "trace.stream.ns_per_pkt",
        "ns/pkt",
        "lower",
        "pkts_per_s on trace_import, table2_journaled; no change on fleet_100k",
    ),
    m(
        "trace.stream.peak_state_bytes",
        "bytes",
        "lower",
        "wall_s on table2_journaled, table2_resume",
    ),
    m(
        "snap.stream_snapshot_bytes",
        "bytes",
        "lower",
        "wall_s on table2_journaled, table2_resume",
    ),
    m(
        "snap.conn_snapshot_bytes",
        "bytes",
        "lower",
        "wall_s on table2_journaled, table2_resume",
    ),
    m(
        "trace.import.ns_per_pkt",
        "ns/pkt",
        "lower",
        "wall_s on trace_import only",
    ),
    m(
        "trace.import.mb_per_s",
        "MB/s",
        "higher",
        "wall_s on trace_import only",
    ),
    m(
        "testbed.calibrate.ns_per_pkt",
        "ns/pkt",
        "lower",
        "wall_s on table2_journaled",
    ),
    m(
        "testbed.calibrate.share",
        "frac",
        "lower",
        "wall_s on table2_journaled",
    ),
    m(
        "testbed.journal.checkpoint_ns",
        "ns",
        "lower",
        "wall_s on table2_journaled",
    ),
    m(
        "testbed.journal.bytes_per_pkt",
        "bytes/pkt",
        "lower",
        "wall_s on table2_journaled, table2_resume",
    ),
    m(
        "testbed.journal.mb_per_campaign",
        "MB",
        "lower",
        "wall_s on table2_journaled, table2_resume",
    ),
    m(
        "testbed.journal.fsyncs",
        "count",
        "lower",
        "wall_s on table2_journaled",
    ),
    m(
        "testbed.journal.replay_mb_per_s",
        "MB/s",
        "higher",
        "wall_s on table2_resume",
    ),
    m("snap.restore_ns", "ns", "lower", "wall_s on table2_resume"),
    m(
        "testbed.pool.busy_frac",
        "frac",
        "higher",
        "wall_s, wall_tail_s on table2_journaled",
    ),
    m(
        "testbed.pool.tail_path_s",
        "s",
        "lower",
        "wall_s, wall_tail_s on table2_journaled",
    ),
    m(
        "sim.fleet.ns_per_pkt",
        "ns/pkt",
        "lower",
        "wall_s, pkts_per_s on fleet_100k",
    ),
    m(
        "sim.fleet.events_per_pkt",
        "events/pkt",
        "lower",
        "wall_s, pkts_per_s on fleet_100k",
    ),
    m(
        "sim.fleet.ns_per_pkt_10k",
        "ns/pkt",
        "lower",
        "wall_s, pkts_per_s on fleet_100k",
    ),
    m(
        "sim.fleet.cache_penalty",
        "ratio",
        "lower",
        "wall_s, pkts_per_s on fleet_100k",
    ),
    m(
        "sim.fleet.shard_imbalance",
        "ratio",
        "lower",
        "wall_s and the resident set on fleet_100k",
    ),
    m(
        "sim.fleet.bytes_per_flow",
        "bytes",
        "lower",
        "wall_s and the resident set on fleet_100k",
    ),
    m(
        "testbed.fleet.merge_ns",
        "ns",
        "lower",
        "wall_s on fleet_100k",
    ),
    m(
        "model.eval_ns",
        "ns",
        "lower",
        "negligible on every workload",
    ),
    m(
        "testbed.unaccounted_frac",
        "frac",
        "lower",
        "none: the pinned-path work the layers above miss",
    ),
    m(
        "trace_overhead_frac",
        "frac",
        "lower",
        "none: traced wall / untraced wall - 1 of the workload's job",
    ),
];

/// Timed repetitions of each pinned-path layer; medians are reported.
const REPS: usize = 5;
/// Model evaluations per row, so one span covers measurable time.
const MODEL_REPS: usize = 2_000;
/// Repetitions of the cache-resident fleet run.
const SMALL_FLEET_REPS: usize = 5;
/// Warm rounds of `run_fleet` paired with a direct drive of its shards.
const FLEET_ROUNDS: usize = 2;

/// Per-layer results plus the checks made along the way.
#[derive(Debug, Default)]
pub struct LayerRun {
    /// `(name, value)` in [`LAYER_METRICS`] order, less
    /// `trace_overhead_frac`, which the caller measures on its workload.
    pub metrics: Vec<(&'static str, f64)>,
    /// Output checks made.
    pub attempted: u64,
    /// Output checks failed.
    pub failed: u64,
}

impl LayerRun {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: layer check failed: {what}");
        }
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// Resident set size now, bytes (`VmRSS` of `/proc/self/status`; 0 where
/// that file does not exist).
pub fn resident_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// The Table II path with the most packets in the paper.
fn pinned_path(specs: &[PathSpec]) -> PathSpec {
    *specs
        .iter()
        .max_by_key(|s| s.paper_packets)
        .expect("at least one Table II path")
}

/// The loss process `calibrate_wire_loss` parameterises: isolated losses
/// mixed with timed bursts.
fn wire_loss(wire: &WireLoss) -> LossKind {
    let mut parts: Vec<LossKind> = Vec::new();
    if wire.isolated_p > 0.0 {
        parts.push(Bernoulli::new(wire.isolated_p).into());
    }
    if wire.burst_time_frac > 0.0 {
        parts.push(
            TimedGilbertElliott::from_rate_and_burst_secs(
                wire.burst_time_frac,
                wire.mean_burst_secs,
            )
            .into(),
        );
    }
    Mixed::from_kinds(parts).into()
}

/// A Table II connection on the calibrated wire, built from the testbed's
/// public parts as `run_hour` builds it. The pinned-path checks compare
/// its packets and analysis with the testbed's own run, so a drift here
/// fails the traced run rather than skewing its figures.
fn wire_connection<O: Observer>(
    spec: &PathSpec,
    wire: &WireLoss,
    seed: u64,
    observer: O,
) -> Connection<O> {
    let quirks = spec.sender_os().quirks();
    let half = SimDuration::from_secs_f64(spec.rtt / 2.0);
    let jitter = SimDuration::from_secs_f64(spec.rtt * 0.05);
    Connection::builder()
        .fwd_path(WirePath::constant(half).with_jitter(jitter))
        .rev_path(WirePath::constant(half).with_jitter(jitter))
        .loss(wire_loss(wire))
        .sender_config(SenderConfig {
            rwnd: spec.wmax,
            dupthresh: quirks.dupthresh,
            initial_cwnd: 1.0,
            rto: RtoConfig {
                granularity: SimDuration::from_millis(10),
                min_rto: SimDuration::from_secs_f64(spec.t0),
                max_rto: SimDuration::from_secs_f64(spec.t0 * 64.0 * 4.0),
                initial_rto: SimDuration::from_secs_f64(spec.t0),
                backoff_cap_exp: quirks.backoff_cap_exp,
            },
            data_limit: None,
            style: RenoStyle::Reno,
            cc: Default::default(),
        })
        .receiver_config(ReceiverConfig::default())
        .seed(seed)
        .build_with_observer(observer)
}

/// Drains a finished streaming connection into the result the testbed
/// journals for it.
fn finish_result(mut conn: Connection<TraceRecorder>) -> ExperimentResult {
    conn.finish();
    let stats = conn.stats();
    let ground_rtt = conn.sender().rto_estimator().mean_rtt();
    let ground_t0 = conn.sender().rto_estimator().mean_t0();
    let (stream, trace) = conn.into_observer().finish(Some(HORIZON_SECS));
    ExperimentResult {
        stream: stream.unwrap_or_default(),
        trace,
        stats,
        ground_rtt,
        ground_t0,
        duration_secs: HORIZON_SECS,
        event_budget_hit: false,
    }
}

fn same_result(a: &ExperimentResult, b: &ExperimentResult) -> bool {
    serde_json::to_string(a).ok() == serde_json::to_string(b).ok()
}

/// [`MODEL_REPS`] Eq. (32) evaluations with fitted parameters for `result`.
fn model_eval(spec: &PathSpec, result: &ExperimentResult) {
    let mut acc = 0.0;
    for _ in 0..MODEL_REPS {
        let r = std::hint::black_box(result);
        let params = fitted_params(spec, r);
        let p = r.analysis().loss_rate().clamp(LossProb::MIN, LossProb::MAX);
        let p = LossProb::new(p).expect("clamped into the model's domain");
        acc += full_model(p, &params);
    }
    std::hint::black_box(acc);
}

/// Per-repetition seconds of each pinned-path layer.
#[derive(Debug, Default)]
struct Stack {
    e2e: Vec<f64>,
    calibrate: Vec<f64>,
    engine: Vec<f64>,
    record: Vec<f64>,
    classifier: Vec<f64>,
    karn: Vec<f64>,
    corr: Vec<f64>,
    intervals: Vec<f64>,
    stream: Vec<f64>,
    journal: Vec<f64>,
    checkpoint: Vec<f64>,
    restore: Vec<f64>,
    model: Vec<f64>,
    import: Vec<f64>,
}

/// Runs every layer measurement but the trace overhead.
pub fn measure(env: &Env, seed: u64, t: &mut Tracer) -> io::Result<LayerRun> {
    let mut run = LayerRun::default();
    // The fleet goes first, while the heap is still small, so the RSS it
    // adds is its own.
    fleet(env, seed, t, &mut run);
    pinned(env, seed, t, &mut run)?;
    campaign(env, seed, t, &mut run)?;
    Ok(run)
}

fn pinned(env: &Env, seed: u64, t: &mut Tracer, run: &mut LayerRun) -> io::Result<()> {
    let spec = pinned_path(env.scale.specs);
    let seed_p = derive(seed, 7);
    let cfg = stream_config(&spec);
    let horizon = SimTime::from_secs_f64(HORIZON_SECS);
    let path = env.dir.join("pinned.waj");
    let mut s = Stack::default();
    let (mut pkts, mut events, mut peak_state) = (0, 0, 0);
    let (mut conn_bytes, mut stream_bytes) = (0, 0);
    let mut text_bytes = 0;
    for _ in 0..REPS {
        t.next_job();
        // The whole path as a user runs it: a one-path journaled campaign.
        remove_if_present(&path)?;
        let (report, secs) = t.span("testbed.run_table2_journaled", |_| {
            let r = run_table2_journaled(&[spec], seed_p, &path, &journal_config(1, None));
            let p = r.as_ref().map_or(0, campaign_pkts);
            (r, p)
        });
        let report = report?;
        s.e2e.push(secs);
        let Some(reference) = report.rows.first().and_then(|r| r.result.clone()) else {
            run.check(false, "pinned campaign produced no row");
            return Ok(());
        };
        pkts = reference.stats.packets_sent;

        let (wire, secs) = t.span("testbed.calibrate", |_| {
            (
                calibrate_wire_loss(&spec, seed_p.wrapping_mul(31).wrapping_add(17)),
                0,
            )
        });
        s.calibrate.push(secs);

        let mut bare = wire_connection(&spec, &wire, seed_p, ());
        let ((), engine) = t.span("sim.engine", |_| {
            bare.run_until_budget(horizon, DEFAULT_EVENT_BUDGET);
            // As the testbed does: a run that ends inside a timeout
            // sequence counts it only once finished.
            bare.finish();
            ((), bare.stats().packets_sent)
        });
        s.engine.push(engine);
        events = bare.events_processed();
        run.check(
            bare.stats() == reference.stats,
            "engine with () matches the testbed's run",
        );

        let rate = spec.paper_packets.max(1) as f64 / HORIZON_SECS * 1.5;
        let mut rec = wire_connection(
            &spec,
            &wire,
            seed_p,
            TraceRecorder::for_horizon(HORIZON_SECS, rate),
        );
        let ((), recorded) = t.span("trace.record", |_| {
            rec.run_until_budget(horizon, DEFAULT_EVENT_BUDGET);
            rec.finish();
            ((), pkts)
        });
        s.record.push(recorded - engine);
        let trace = rec.into_observer().into_trace();

        s.classifier.push(feed(
            t,
            "trace.classifier",
            &trace,
            pkts,
            Classifier::new(cfg.analyzer),
            |c, at, e| match e {
                TraceEvent::Send { seq, .. } => c.on_send(at, seq),
                TraceEvent::AckIn { ack } => c.on_ack(at, ack),
            },
            |c| {
                std::hint::black_box(c.finish());
            },
        ));
        s.karn.push(feed(
            t,
            "trace.karn",
            &trace,
            pkts,
            KarnCore::new(),
            |c, at, e| match e {
                TraceEvent::Send { seq, .. } => c.on_send(at, seq),
                TraceEvent::AckIn { ack } => c.on_ack(at, ack),
            },
            |c| {
                std::hint::black_box(c.finish());
            },
        ));
        s.corr.push(feed(
            t,
            "trace.corr",
            &trace,
            pkts,
            CorrCore::new(),
            |c, at, e| match e {
                TraceEvent::Send { seq, .. } => c.on_send(at, seq),
                TraceEvent::AckIn { ack } => c.on_ack(at, ack),
            },
            |c| {
                std::hint::black_box(c.finish());
            },
        ));
        let indications = reference.analysis().indications.clone();
        s.intervals.push(feed(
            t,
            "trace.intervals",
            &trace,
            pkts,
            IntervalCore::new(100.0),
            |c, at, e| {
                if let TraceEvent::Send { .. } = e {
                    c.on_send(at);
                }
            },
            |c| {
                std::hint::black_box(c.finish(&indications, HORIZON_SECS));
            },
        ));

        let (analysis, secs) = t.span("trace.stream", |_| {
            let mut a = StreamAnalyzer::new(cfg);
            for r in trace.records() {
                a.on_record(r);
            }
            (a.finish(Some(HORIZON_SECS)), pkts)
        });
        s.stream.push(secs);
        peak_state = analysis.peak_state_bytes;
        run.check(
            analysis == reference.stream,
            "stream analysis of the recorded trace matches the testbed's",
        );

        let mut text = Vec::new();
        export_text(&trace, &mut text)?;
        text_bytes = text.len();
        let (imported, secs) = t.span("trace.import", |_| {
            let i = import_text(&text[..]);
            let p = i.as_ref().map_or(0, |i| trace_pkts(&i.trace));
            (i, p)
        });
        s.import.push(secs);
        run.check(
            imported.is_ok_and(|i| i.health.is_clean() && trace_pkts(&i.trace) == pkts),
            "imported pinned trace is clean and complete",
        );

        // The journal layer: the checkpointed run of the testbed,
        // replayed call by call so each call is its own span.
        remove_if_present(&path)?;
        let journal = Journal::open(&path)?;
        let mut conn = wire_connection(&spec, &wire, seed_p, TraceRecorder::streaming(cfg));
        let mut journal_secs = 0.0;
        let mut mid: Option<(Vec<u8>, Vec<u8>)> = None;
        let last = (HORIZON_SECS / CHECKPOINT_SECS).ceil() as u64;
        for k in 1..=last {
            let at = (k as f64 * CHECKPOINT_SECS).min(HORIZON_SECS);
            t.span("sim.slice", |_| {
                conn.run_until_budget(SimTime::from_secs_f64(at), DEFAULT_EVENT_BUDGET);
                ((), 0)
            });
            if k == last {
                break;
            }
            let (record, secs) = t.span("testbed.journal.checkpoint", |_| {
                let c = conn.snapshot().expect("calibrated wire is snapshottable");
                let a = conn
                    .observer()
                    .stream_clone()
                    .expect("reduce-only recorder");
                let stream = a.snapshot();
                let sizes = (c.clone(), stream.clone());
                let bytes = CampaignRecord::Checkpoint(Checkpoint {
                    job_index: 0,
                    seed: seed_p,
                    wire_bits: [
                        wire.isolated_p.to_bits(),
                        wire.burst_time_frac.to_bits(),
                        wire.mean_burst_secs.to_bits(),
                    ],
                    horizon_bits: HORIZON_SECS.to_bits(),
                    every_bits: CHECKPOINT_SECS.to_bits(),
                    next_boundary: k + 1,
                    conn: c,
                    stream,
                })
                .encode();
                journal.append(bytes);
                (sizes, 0)
            });
            s.checkpoint.push(secs);
            journal_secs += secs;
            if at >= HORIZON_SECS / 2.0 && mid.is_none() {
                mid = Some(record);
            }
        }
        let result = finish_result(conn);
        run.check(
            same_result(&result, &reference),
            "checkpointed run matches the testbed's bit for bit",
        );
        let (synced, done_secs) = t.span("testbed.journal.attempt_done", |_| {
            let json = serde_json::to_string(&result).expect("results serialise");
            let rec = CampaignRecord::AttemptDone {
                job_index: 0,
                label: spec.id(),
                seed: seed_p,
                resumed: false,
                result_json: json.into_bytes(),
            };
            (journal.append_sync(rec.encode()), pkts)
        });
        synced?;
        let (closed, close_secs) = t.span("testbed.journal.close", |_| (journal.close(), 0));
        closed?;
        s.journal.push(journal_secs + done_secs + close_secs);

        let (mid_conn, mid_stream) = mid.expect("an hour has a mid-run checkpoint");
        (conn_bytes, stream_bytes) = (mid_conn.len(), mid_stream.len());
        let mut resumed = wire_connection(&spec, &wire, seed_p, TraceRecorder::streaming(cfg));
        let (restored, secs) = t.span("snap.restore", |_| {
            let r = resumed.restore(&mid_conn).is_ok()
                && resumed.observer_mut().stream_restore(&mid_stream).is_ok();
            (r, 0)
        });
        s.restore.push(secs);
        run.check(restored, "mid-run snapshots restore");

        let ((), secs) = t.span("model.eval", |_| {
            model_eval(&spec, &reference);
            ((), 0)
        });
        s.model.push(secs / MODEL_REPS as f64);
    }
    let e2e = median(&s.e2e);
    let per = |v: &[f64]| ns_per_pkt(median(v), pkts);
    let stacked = median(&s.calibrate)
        + median(&s.engine)
        + median(&s.record)
        + median(&s.stream)
        + median(&s.journal)
        + median(&s.model);
    run.put("sim.engine.ns_per_pkt", per(&s.engine));
    run.put("sim.engine.events_per_pkt", events as f64 / pkts as f64);
    run.put("trace.record.ns_per_pkt", per(&s.record));
    run.put("trace.classifier.ns_per_pkt", per(&s.classifier));
    run.put("trace.karn.ns_per_pkt", per(&s.karn));
    run.put("trace.corr.ns_per_pkt", per(&s.corr));
    run.put("trace.intervals.ns_per_pkt", per(&s.intervals));
    run.put("trace.stream.ns_per_pkt", per(&s.stream));
    run.put("trace.stream.peak_state_bytes", peak_state as f64);
    run.put("snap.stream_snapshot_bytes", stream_bytes as f64);
    run.put("snap.conn_snapshot_bytes", conn_bytes as f64);
    run.put("trace.import.ns_per_pkt", per(&s.import));
    run.put(
        "trace.import.mb_per_s",
        text_bytes as f64 / 1e6 / median(&s.import),
    );
    run.put("testbed.calibrate.ns_per_pkt", per(&s.calibrate));
    run.put("testbed.calibrate.share", median(&s.calibrate) / e2e);
    run.put("testbed.journal.checkpoint_ns", median(&s.checkpoint) * 1e9);
    run.put("snap.restore_ns", median(&s.restore) * 1e9);
    run.put("model.eval_ns", median(&s.model) * 1e9);
    run.put("testbed.unaccounted_frac", 1.0 - stacked / e2e);
    remove_if_present(&path)
}

/// Feeds every record of `trace` to `core` inside a span; returns seconds.
fn feed<C>(
    t: &mut Tracer,
    name: &'static str,
    trace: &Trace,
    pkts: u64,
    mut core: C,
    mut on: impl FnMut(&mut C, u64, TraceEvent),
    done: impl FnOnce(C),
) -> f64 {
    t.span(name, |_| {
        for r in trace.records() {
            on(&mut core, r.time_ns, r.event);
        }
        done(core);
        ((), pkts)
    })
    .1
}

/// One direct drive of the fleet's shards, serially, as `run_fleet`
/// partitions them.
struct ShardRun {
    /// Per shard: construction plus run seconds.
    shard_secs: Vec<f64>,
    /// `run_until` seconds summed over shards.
    run_secs: f64,
    pkts: u64,
    events: u64,
    /// Resident-set growth while the shards were alive, bytes.
    rss_growth: u64,
}

fn drive_shards(flows: u64, base_seed: u64, shards: usize, t: &mut Tracer) -> ShardRun {
    let spec = fleet_spec(flows, base_seed);
    let sim = FleetSpec {
        cohorts: spec
            .cohorts
            .iter()
            .map(|c| FleetCohort {
                config: c.config,
                flows: c.flows,
            })
            .collect(),
        base_seed: spec.base_seed,
        wheel: spec.wheel,
    };
    let horizon = SimTime::from_secs_f64(spec.horizon_secs);
    let n = shards as u64;
    let rss_before = resident_bytes();
    let mut out = ShardRun {
        shard_secs: Vec::new(),
        run_secs: 0.0,
        pkts: 0,
        events: 0,
        rss_growth: 0,
    };
    let mut alive = Vec::new();
    for s in 0..n {
        let range = (s * flows / n)..((s + 1) * flows / n);
        let (mut shard, built) = t.span("sim.fleet.new", |_| (FleetShard::new(&sim, range), 0));
        let (pkts, ran) = t.span("sim.fleet.run_until", |_| {
            shard.run_until(horizon);
            let p: u64 = (0..shard.flow_count())
                .map(|l| shard.flow_stats(l).packets_sent)
                .sum();
            (p, p)
        });
        out.run_secs += ran;
        out.shard_secs.push(built + ran);
        out.pkts += pkts;
        out.events += shard.events_processed();
        alive.push(shard);
    }
    out.rss_growth = resident_bytes().saturating_sub(rss_before);
    out
}

fn fleet(env: &Env, seed: u64, t: &mut Tracer, run: &mut LayerRun) {
    let base_seed = derive(seed, 2);
    let flows = env.scale.fleet_flows;
    // The first drive meets a fresh heap, so its resident-set growth is
    // the shards' own. The timed figures come from warm rounds that pair
    // `run_fleet` with a direct drive, so drift hits both sides alike.
    t.next_job();
    let cold = drive_shards(flows, base_seed, env.workers, t);
    let (mut per_pkt, mut imbalance, mut merge) = (Vec::new(), Vec::new(), Vec::new());
    let mut events_per_pkt = 0.0;
    for _ in 0..FLEET_ROUNDS {
        t.next_job();
        let (report, fleet_secs) = t.span("testbed.run_fleet", |_| {
            let r = run_fleet(&fleet_spec(flows, base_seed), env.workers);
            let p = fleet_pkts(&r);
            (r, p)
        });
        t.next_job();
        let warm = drive_shards(flows, base_seed, env.workers, t);
        run.check(
            fleet_pkts(&report) == warm.pkts && cold.pkts == warm.pkts,
            "directly driven shards send what run_fleet reports",
        );
        let slowest = warm.shard_secs.iter().copied().fold(0.0, f64::max);
        let mean = warm.shard_secs.iter().sum::<f64>() / warm.shard_secs.len() as f64;
        per_pkt.push(ns_per_pkt(warm.run_secs, warm.pkts));
        imbalance.push(slowest / mean);
        // The shards run side by side inside `run_fleet`: its wall clock
        // less the slowest shard is the partition, pool and merge work.
        merge.push((fleet_secs - slowest) * 1e9);
        events_per_pkt = warm.events as f64 / warm.pkts as f64;
    }
    let small: Vec<f64> = (0..SMALL_FLEET_REPS)
        .map(|_| {
            t.next_job();
            let r = drive_shards(flows / 10, base_seed, env.workers, t);
            ns_per_pkt(r.run_secs, r.pkts)
        })
        .collect();
    run.put("sim.fleet.ns_per_pkt", median(&per_pkt));
    run.put("sim.fleet.events_per_pkt", events_per_pkt);
    run.put("sim.fleet.ns_per_pkt_10k", median(&small));
    run.put("sim.fleet.cache_penalty", median(&per_pkt) / median(&small));
    run.put("sim.fleet.shard_imbalance", median(&imbalance));
    run.put(
        "sim.fleet.bytes_per_flow",
        cold.rss_growth as f64 / flows as f64,
    );
    run.put("testbed.fleet.merge_ns", median(&merge));
}

fn campaign(env: &Env, seed: u64, t: &mut Tracer, run: &mut LayerRun) -> io::Result<()> {
    let specs = env.scale.specs;
    let base_seed = derive(seed, 8);
    let path = env.dir.join("campaign.waj");
    remove_if_present(&path)?;
    t.next_job();
    let (report, wall) = t.span("testbed.run_table2_journaled", |_| {
        let r = run_table2_journaled(specs, base_seed, &path, &journal_config(env.workers, None));
        let p = r.as_ref().map_or(0, campaign_pkts);
        (r, p)
    });
    let report = report?;
    let pkts = campaign_pkts(&report);
    let bytes = std::fs::metadata(&path)?.len();
    let (state, replay_secs) = t.span("testbed.journal.replay", |_| {
        let replayed = journal::replay(&path);
        let state = replayed.map(|r| {
            let done = r
                .records
                .iter()
                .filter(|r| matches!(r, CampaignRecord::AttemptDone { .. }))
                .count();
            (r.fold(), done, r.torn_tail)
        });
        (state, 0)
    });
    let (state, done, torn) = state?;
    run.check(
        !torn && state.done.len() == specs.len() && state.inflight.is_empty(),
        "campaign journal replays to every row done",
    );
    // Each completion is written with `append_sync`; closing syncs once more.
    run.put("testbed.journal.fsyncs", (done + 1) as f64);
    run.put("testbed.journal.bytes_per_pkt", bytes as f64 / pkts as f64);
    run.put("testbed.journal.mb_per_campaign", bytes as f64 / 1e6);
    run.put(
        "testbed.journal.replay_mb_per_s",
        bytes as f64 / 1e6 / replay_secs,
    );
    remove_if_present(&path)?;

    let mut path_secs = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let alone = env.dir.join("path.waj");
        remove_if_present(&alone)?;
        let (one, secs) = t.span("testbed.path", |_| {
            let r = run_table2_journaled(
                std::slice::from_ref(spec),
                base_seed.wrapping_add(i as u64),
                &alone,
                &journal_config(1, None),
            );
            let p = r.as_ref().map_or(0, campaign_pkts);
            (r, p)
        });
        let one = one?;
        path_secs.push(secs);
        let same = match (one.rows.first(), report.rows.get(i)) {
            (Some(a), Some(b)) => match (&a.result, &b.result) {
                (Some(x), Some(y)) => same_result(x, y),
                _ => false,
            },
            _ => false,
        };
        run.check(same, "a path run alone matches its campaign row");
        remove_if_present(&alone)?;
    }
    let serial: f64 = path_secs.iter().sum();
    run.put(
        "testbed.pool.busy_frac",
        serial / (env.workers as f64 * wall),
    );
    run.put(
        "testbed.pool.tail_path_s",
        path_secs.iter().copied().fold(0.0, f64::max),
    );
    Ok(())
}
