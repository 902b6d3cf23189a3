//! Stamps the provenance a result carries: the compiler that built the
//! benchmark, the repository commit when the checkout is a git work tree,
//! and a digest of the repository sources it was built from.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
}

fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                files(&p, out);
            }
        } else {
            out.push(p);
        }
    }
}

fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git work tree)".into();
    };
    println!("cargo:rerun-if-changed={}", git.join("HEAD").display());
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    let loose = git.join(name);
    if loose.exists() {
        println!("cargo:rerun-if-changed={}", loose.display());
    }
    std::fs::read_to_string(&loose)
        .ok()
        .or_else(|| {
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(name))
                .map(|l| l.split(' ').next().unwrap_or_default().to_string())
        })
        .map_or_else(|| format!("unknown ({name})"), |s| s.trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={}", commit(&root));

    let mut sources = Vec::new();
    files(&root.join("crates"), &mut sources);
    println!("cargo:rerun-if-changed={}", root.join("crates").display());
    for top in ["Cargo.toml", "Cargo.lock"] {
        sources.push(root.join(top));
        println!("cargo:rerun-if-changed={}", root.join(top).display());
    }
    sources.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for p in &sources {
        let rel = p.strip_prefix(&root).unwrap_or(p);
        fnv(&mut hash, rel.to_string_lossy().as_bytes());
        fnv(&mut hash, &std::fs::read(p).unwrap_or_default());
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCES={hash:016x}");
}
