//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process. With
//! `--trace 0` it measures the end-to-end metrics untraced; with
//! `--trace 1` it runs the layer profile: four scenarios, each once
//! untraced and once with spans around each call into a layer, plus the
//! layer probes, and reports the per-layer metrics. Output checks run in the
//! same command; the last line of standard output is the result object.
//! A fuller record (seed, machine, code size, checks, details) is the
//! line before it and is also written to `perfbench/out/`.

mod inputs;
mod layers;
mod offline;
mod profiled;
mod record;
mod spec;
mod stats;
mod stream;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

/// A reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Named output checks and whether each passed.
    pub checks: Vec<(String, bool)>,
    /// Extra facts for the record, as JSON values.
    pub details: Vec<(String, String)>,
    pub spans: Option<trace::Tracer>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn detail(&mut self, name: impl Into<String>, json: impl Into<String>) {
        self.details.push((name.into(), json.into()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// A JSON number. JSON has neither infinity nor NaN: a failure's
/// infinite latency is written as the largest finite double, and a
/// figure with no samples behind it as `null`.
pub fn num(v: f64) -> String {
    if v.is_nan() {
        "null".to_string()
    } else if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

/// A JSON array of numbers.
pub fn num_list(vs: &[f64]) -> String {
    let items: Vec<String> = vs.iter().map(|v| num(*v)).collect();
    format!("[{}]", items.join(","))
}

struct Args {
    workload: spec::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
     workloads: offline-detect live-stream";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(spec::Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn record_json(args: &Args, out: &Outcome, root: &Path) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\":\"{}\",\"seed\":{},\"check_seed\":{},\"seconds\":{},\"trace\":{},",
        args.workload.name(),
        args.seed,
        spec::CHECK_SEED,
        num(args.seconds),
        u8::from(args.trace)
    );
    let _ = write!(s, "\"spec\":{},", args.workload.spec_json());
    let _ = write!(s, "\"machine\":{},", record::machine_record(root));
    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|(n, ok)| format!("\"{n}\":{ok}"))
        .collect();
    let _ = write!(s, "\"checks\":{{{}}},", checks.join(","));
    let details: Vec<String> = out
        .details
        .iter()
        .map(|(n, v)| format!("\"{n}\":{v}"))
        .collect();
    let _ = write!(s, "\"details\":{{{}}},", details.join(","));
    let _ = write!(s, "\"result\":{}}}", result_json(out));
    s
}

fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !args.trace && args.workload == spec::Workload::LiveStream {
        stream::limit_malloc_arenas();
    }
    let root = record::repo_root();
    let out_dir = root.join("perfbench").join("out");
    let scratch = out_dir.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(1);
    }
    let outcome = if args.trace {
        layers::profile(args.workload, args.seed, args.seconds, &scratch)
    } else {
        workloads::run(args.workload, args.seed, args.seconds, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let record = record_json(&args, &outcome, &root);
    if let Err(e) = std::fs::write(out_dir.join(format!("{stem}.json")), &record) {
        eprintln!("perfbench: cannot write the record: {e}");
    }
    if let Some(spans) = &outcome.spans {
        if let Err(e) = spans.write_jsonl(&out_dir.join(format!("{stem}-spans.jsonl"))) {
            eprintln!("perfbench: cannot write the spans: {e}");
        }
    }
    for (name, ok) in &outcome.checks {
        if !ok {
            eprintln!("perfbench: check failed: {name}");
        }
    }
    println!("{record}");
    println!("{}", result_json(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
