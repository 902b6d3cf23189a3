//! The provenance block every result carries.

use serde_json::Value;

use crate::json::obj;

/// Cores the operating system reports for this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the level-`level` unified or data cache of cpu0, as sysfs
/// prints it (e.g. `1024K`).
fn cache_size(level: &str) -> String {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    (0..8)
        .find_map(|i| {
            let read = |f: &str| std::fs::read_to_string(format!("{base}/index{i}/{f}")).ok();
            let kind = read("type")?;
            (read("level")?.trim() == level && kind.trim() != "Instruction")
                .then(|| read("size"))
                .flatten()
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Machine, build and input identity for one result.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool, workers: usize) -> Value {
    let s = |v: &str| Value::Str(v.to_string());
    obj(vec![
        ("workload", s(workload)),
        ("seed", Value::U64(seed)),
        ("seconds", Value::U64(seconds)),
        ("trace", Value::Bool(trace)),
        ("nproc", Value::U64(nproc() as u64)),
        ("workers", Value::U64(workers as u64)),
        ("cpu_model", s(&cpu_model())),
        ("l2", s(&cache_size("2"))),
        ("l3", s(&cache_size("3"))),
        ("rustc", s(env!("PERFBENCH_RUSTC"))),
        (
            "profile",
            s(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("commit", s(env!("PERFBENCH_COMMIT"))),
        ("sources_fnv64", s(env!("PERFBENCH_SOURCES"))),
    ])
}
