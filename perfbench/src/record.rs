//! The machine and code record written with every result, plus the
//! process-level readings (peak RSS, CPU time) the metrics use.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The checkout root: the directory above this package.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User plus system CPU time of the whole process (every thread, live
/// or exited), in milliseconds. `/proc` reports it in 1/100 s ticks.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) * 10.0
}

/// Non-empty lines of Rust source under `dir`.
fn rust_loc(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut total = 0;
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            total += rust_loc(&p);
        } else if p.extension().is_some_and(|x| x == "rs") {
            let text = std::fs::read_to_string(&p).unwrap_or_default();
            total += text.lines().filter(|l| !l.trim().is_empty()).count() as u64;
        }
    }
    total
}

/// Workspace lines of Rust per crate directory, plus the umbrella
/// crate's `src`, root tests and examples.
pub fn loc_per_crate(root: &Path) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            if e.path().is_dir() {
                out.insert(
                    format!("crates/{}", e.file_name().to_string_lossy()),
                    rust_loc(&e.path()),
                );
            }
        }
    }
    for extra in ["src", "tests", "examples"] {
        out.insert(extra.to_string(), rust_loc(&root.join(extra)));
    }
    out
}

/// Output of a short command, trimmed; `None` if it fails.
fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The machine and code a result was measured on, as a JSON object.
pub fn machine_record(root: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = command_line("rustc", &["--version"], root).unwrap_or_default();
    // The checkout a benchmark runs in need not be a git repository.
    let commit = root
        .join(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"], root))
        .flatten()
        .map_or("null".to_string(), |c| format!("\"{c}\""));
    let loc = loc_per_crate(root);
    let total: u64 = loc.values().sum();
    let loc_json: Vec<String> = loc.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!(
        "{{\"commit\":{commit},\"nproc\":{nproc},\"rustc\":\"{rustc}\",\"loc_total\":{total},\"loc\":{{{}}}}}",
        loc_json.join(",")
    )
}
