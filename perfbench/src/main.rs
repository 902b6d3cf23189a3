//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Untraced (`--trace 0`): sets the workload's inputs up several times,
//! then runs its job in a closed loop for `--seconds` seconds and at least
//! `MIN_JOBS` jobs, taking the inputs in turn, checks every job's output,
//! and prints the end-to-end metrics. Traced (`--trace 1`): times every
//! layer from the benchmark's own spans and prints the per-layer metrics. The last line of standard
//! output is the JSON result; a JSON record with provenance, samples and
//! spans goes to `out/` in this directory.

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use pftk_perfbench::json::{obj, render};
use pftk_perfbench::layers::{self, resident_bytes, LAYER_METRICS};
use pftk_perfbench::machine::{nproc, provenance};
use pftk_perfbench::span::Tracer;
use pftk_perfbench::stats::{median, pkts_per_s, tail, MIN_BEYOND};
use pftk_perfbench::workloads::{input_seed, setup, Digest, Env, Scale, Workload};
use pftk_perfbench::END_TO_END;
use serde_json::Value;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Jobs every untraced run makes at least, so the tail percentile exists.
const MIN_JOBS: usize = MIN_BEYOND + 1;
/// How often the resident set is sampled during a job.
const RSS_SAMPLE: Duration = Duration::from_millis(20);
/// Untraced/traced job pairs the traced run makes at least.
const MIN_OVERHEAD_PAIRS: usize = 3;
/// Workers and shards never exceed this, nor the machine's cores: the
/// workloads are defined at two.
const MAX_WORKERS: usize = 2;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a number"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// What one workload's run yields.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)`.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else worth keeping: samples, tail rank, spans.
    record: Vec<(&'static str, Value)>,
}

/// A metric as the result line carries it.
fn metric(value: f64, unit: &str) -> Value {
    obj(vec![
        ("value", Value::F64(value)),
        ("unit", Value::Str(unit.into())),
    ])
}

fn seq(xs: &[f64]) -> Value {
    Value::Seq(xs.iter().map(|&x| Value::F64(x)).collect())
}

fn untraced(w: Workload, env: &Env, seed: u64, seconds: u64) -> io::Result<Outcome> {
    let mut setups = Vec::new();
    let mut prepared = Vec::new();
    for _ in 0..SETUP_REPS {
        // Free the previous set-up first so each one starts alike.
        prepared.clear();
        let start = Instant::now();
        for i in 0..w.inputs() {
            prepared.push(setup(w, env, input_seed(seed, i))?);
        }
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut digest = Digest::default();
    for p in &prepared {
        digest.add(&p.input_digest()?.to_le_bytes());
    }
    let digest = digest.value();

    let (mut walls, mut rates, mut peaks, mut pkts) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut journal_bytes) = (0, 0, 0);
    // A sampler thread keeps each job's resident-set peak. It is reported
    // but not among the metrics: it follows the allocator's retention and
    // the journal writer's queue more than the job (see README.md).
    let peak = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| -> io::Result<()> {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(resident_bytes(), Ordering::Relaxed);
                std::thread::sleep(RSS_SAMPLE);
            }
        });
        let start = Instant::now();
        let jobs = (|| {
            while walls.len() < MIN_JOBS || start.elapsed().as_secs() < seconds {
                peak.store(resident_bytes(), Ordering::Relaxed);
                let (secs, out) = prepared[walls.len() % prepared.len()].run_job(env, None)?;
                peaks.push(peak.load(Ordering::Relaxed).max(resident_bytes()) as f64 / 1e6);
                walls.push(secs);
                rates.push(pkts_per_s(out.pkts, secs));
                pkts.push(out.pkts as f64);
                attempted += out.attempted;
                failed += out.failed;
                journal_bytes = out.journal_bytes;
            }
            Ok(())
        })();
        stop.store(true, Ordering::Relaxed);
        jobs
    })?;
    let t = tail(&walls).expect("MIN_JOBS leaves MIN_BEYOND samples beyond the tail");
    println!(
        "{}: {} jobs; wall_tail_s is p{:.1} of {} jobs with {} beyond; \
         {:.1} MB journal per job; median job peak resident set {:.1} MB",
        w.name(),
        walls.len(),
        t.percentile,
        t.samples,
        t.beyond,
        journal_bytes as f64 / 1e6,
        median(&peaks)
    );
    let values = [median(&walls), t.value, median(&rates), median(&setups)];
    Ok(Outcome {
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect(),
        record: vec![
            ("input_digest", Value::Str(format!("{digest:016x}"))),
            ("setup_s", seq(&setups)),
            ("wall_s", seq(&walls)),
            ("pkts_per_s", seq(&rates)),
            ("pkts", seq(&pkts)),
            ("peak_rss_mb", seq(&peaks)),
            ("tail_percentile", Value::F64(t.percentile)),
            ("tail_samples", Value::U64(t.samples as u64)),
            ("tail_beyond", Value::U64(t.beyond as u64)),
            ("journal_bytes_per_job", Value::U64(journal_bytes)),
        ],
    })
}

fn traced(w: Workload, env: &Env, seed: u64, seconds: u64) -> io::Result<Outcome> {
    let mut tracer = Tracer::new();
    let start = Instant::now();
    let layers = layers::measure(env, seed, &mut tracer)?;
    tracer.next_job();
    let prepared = tracer
        .span("perfbench.setup", |_| (setup(w, env, seed), 0))
        .0?;
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (layers.attempted, layers.failed);
    let pairs_start = Instant::now();
    let budget = seconds.saturating_sub(start.elapsed().as_secs()).max(1);
    while plain.len() < MIN_OVERHEAD_PAIRS || pairs_start.elapsed().as_secs() < budget {
        // Alternate which side runs first so drift biases neither.
        for traced_first in [plain.len() % 2 == 1, plain.len() % 2 == 0] {
            let (secs, out) = if traced_first {
                tracer.next_job();
                prepared.run_job(env, Some(&mut tracer))?
            } else {
                prepared.run_job(env, None)?
            };
            if traced_first {
                spanned.push(secs);
            } else {
                plain.push(secs);
            }
            attempted += out.attempted;
            failed += out.failed;
        }
    }
    let overhead = median(&spanned) / median(&plain) - 1.0;
    let mut values = layers.metrics.clone();
    values.push(("trace_overhead_frac", overhead));
    let metrics = LAYER_METRICS
        .iter()
        .map(|m| {
            let v = values
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|(_, v)| *v)
                .expect("every layer metric is measured");
            (m.name, v, m.unit)
        })
        .collect();
    let map = Value::Seq(
        LAYER_METRICS
            .iter()
            .map(|m| {
                obj(vec![
                    ("name", Value::Str(m.name.into())),
                    ("unit", Value::Str(m.unit.into())),
                    ("better", Value::Str(m.better.into())),
                    ("moves", Value::Str(m.moves.into())),
                ])
            })
            .collect(),
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        record: vec![
            ("untraced_wall_s", seq(&plain)),
            ("traced_wall_s", seq(&spanned)),
            ("layer_map", map),
            ("spans", tracer.to_json()),
        ],
    })
}

/// Scratch directory for journals; removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let work = WorkDir(out_dir.join(format!("work-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("{}: {e}", work.0.display()))?;
    let workers = nproc().min(MAX_WORKERS);
    let env = Env {
        scale: Scale::FULL,
        workers,
        dir: work.0.clone(),
    };
    let single = args.workloads.len() == 1;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for &w in &args.workloads {
        let prov = provenance(w.name(), args.seed, args.seconds, args.trace, workers);
        println!("provenance: {}", render(&prov));
        let r = if args.trace {
            traced(w, &env, args.seed, args.seconds)
        } else {
            untraced(w, &env, args.seed, args.seconds)
        }
        .map_err(|e| format!("{}: {e}", w.name()))?;
        for &(name, value, unit) in &r.metrics {
            if !value.is_finite() {
                return Err(format!("{}: {name} is not a number ({value})", w.name()));
            }
            println!("{} {name} = {value} {unit}", w.name());
            let key = if single {
                name.to_string()
            } else {
                format!("{}.{name}", w.name())
            };
            metrics.push((key, metric(value, unit)));
        }
        let mut record = vec![
            ("provenance", prov),
            ("attempted", Value::U64(r.attempted)),
            ("failed", Value::U64(r.failed)),
            (
                "metrics",
                obj(r
                    .metrics
                    .iter()
                    .map(|&(n, v, u)| (n, metric(v, u)))
                    .collect()),
            ),
        ];
        record.extend(r.record);
        let file = out_dir.join(format!(
            "{}-seed{}-trace{}.json",
            w.name(),
            args.seed,
            u8::from(args.trace)
        ));
        let text = render(&obj(record));
        std::fs::write(&file, text).map_err(|e| format!("{}: {e}", file.display()))?;
        attempted += r.attempted;
        failed += r.failed;
    }
    let result = obj(vec![
        ("correct", Value::Bool(failed == 0 && attempted > 0)),
        ("attempted", Value::U64(attempted)),
        ("failed", Value::U64(failed)),
        ("metrics", Value::Map(metrics)),
    ]);
    println!("{}", render(&result));
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
