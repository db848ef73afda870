//! Seeded inputs. Everything the program under test receives is made
//! here from the workload seed, so one seed always yields the same
//! inputs.

use hpc_apps::synth::{run_script, FunctionLoad, PhaseScript, PhaseSpec};
use hpc_apps::{gadget2, graph500, lammps, miniamr, minife, HeartbeatPlan, RunMode};
use incprof_collect::SampleSeries;
use incprof_profile::{FunctionTable, GmonData};

/// Planted synthetic interval counts of the offline batch.
pub const SYNTH_SIZES: [usize; 4] = [60, 200, 600, 2000];
/// Distinct planted phase kinds; each recurs throughout a run.
const PHASE_KINDS: usize = 6;
/// Functions owned by each phase kind (its kernel plus helpers).
const FUNCS_PER_KIND: usize = 4;
/// Background functions active in every phase.
const BACKGROUND_FUNCS: usize = 2;
/// Functions a planted run touches in total.
pub const SYNTH_FUNCTIONS: usize = PHASE_KINDS * FUNCS_PER_KIND + BACKGROUND_FUNCS;

/// A small deterministic generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0fbe_4c4a_1100)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One profiled run: its cumulative series and function table.
#[derive(Debug, Clone)]
pub struct Run {
    pub name: String,
    pub series: SampleSeries,
    pub table: FunctionTable,
    /// Planted phase per interval, for synthetic runs.
    pub truth: Option<Vec<usize>>,
}

impl Run {
    pub fn functions(&self) -> usize {
        self.table.len()
    }

    /// The series as the wire carries it.
    pub fn gmon(&self) -> Vec<GmonData> {
        self.series
            .snapshots()
            .iter()
            .map(|s| s.to_gmon(&self.table))
            .collect()
    }
}

/// The five paper applications at their paper-size virtual
/// configurations. Graph500, LAMMPS and Gadget2 take the seed; MiniFE
/// and MiniAMR have no random input.
pub fn paper_apps(seed: u64) -> Vec<Run> {
    let plan = HeartbeatPlan::none();
    let mode = RunMode::virtual_1s();
    let wrap = |name: &str, out: hpc_apps::AppOutput| Run {
        name: name.to_string(),
        series: out.rank0.series,
        table: out.rank0.table,
        truth: None,
    };
    vec![
        wrap(
            "Graph500",
            graph500::run(
                &graph500::Graph500Config {
                    seed,
                    ..graph500::Graph500Config::default()
                },
                mode,
                &plan,
            ),
        ),
        wrap(
            "MiniFE",
            minife::run(&minife::MiniFeConfig::default(), mode, &plan),
        ),
        wrap(
            "MiniAMR",
            miniamr::run(&miniamr::MiniAmrConfig::default(), mode, &plan),
        ),
        wrap(
            "LAMMPS",
            lammps::run(
                &lammps::LammpsConfig {
                    seed,
                    ..lammps::LammpsConfig::default()
                },
                mode,
                &plan,
            ),
        ),
        wrap(
            "Gadget2",
            gadget2::run(
                &gadget2::Gadget2Config {
                    seed,
                    ..gadget2::Gadget2Config::default()
                },
                mode,
                &plan,
            ),
        ),
    ]
}

/// A planted run of exactly `n` intervals: segments of 5–24 intervals,
/// each of one phase kind, so every kind recurs. A kind's
/// intervals are dominated by its own kernel plus three helpers; two
/// background functions run everywhere.
pub fn planted_script(n: usize, seed: u64) -> PhaseScript {
    let mut rng = Rng::new(seed ^ (n as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
    let kinds: Vec<Vec<FunctionLoad>> = (0..PHASE_KINDS)
        .map(|p| {
            let mut f = vec![FunctionLoad::new(
                format!("kernel_{p}"),
                0.45 + 0.2 * rng.unit(),
                if p % 2 == 0 { 0 } else { rng.range(1, 40) },
            )];
            for h in 1..FUNCS_PER_KIND {
                f.push(FunctionLoad::new(
                    format!("helper_{p}_{h}"),
                    0.05 + 0.1 * rng.unit(),
                    rng.range(1, 200),
                ));
            }
            for b in 0..BACKGROUND_FUNCS {
                f.push(FunctionLoad::new(
                    format!("background_{b}"),
                    0.02 + 0.03 * rng.unit(),
                    rng.range(1, 100),
                ));
            }
            f
        })
        .collect();
    // Every kind appears once in a shuffled first cycle, then kinds
    // recur at random; segments are short enough for each kind to recur
    // even in the smallest run.
    let mut order: Vec<usize> = (0..PHASE_KINDS).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.range(0, i as u64 + 1) as usize);
    }
    let max_len = (n / (2 * PHASE_KINDS)).clamp(5, 24) as u64;
    let mut phases = Vec::new();
    let mut left = n as u64;
    let mut prev = usize::MAX;
    while left > 0 {
        let kind = match order.get(phases.len()) {
            Some(&k) => k,
            None => {
                let k = rng.range(0, PHASE_KINDS as u64) as usize;
                if k == prev {
                    (k + 1) % PHASE_KINDS
                } else {
                    k
                }
            }
        };
        prev = kind;
        let len = rng.range(5, max_len + 1).min(left);
        left -= len;
        phases.push((kind, len));
    }
    PhaseScript {
        phases: phases
            .iter()
            .map(|&(kind, len)| PhaseSpec {
                intervals: len,
                functions: kinds[kind].clone(),
            })
            .collect(),
        jitter: 0.05,
        seed: rng.next_u64(),
    }
}

/// Kind label per interval for a script built by [`planted_script`].
fn kind_truth(script: &PhaseScript) -> Vec<usize> {
    let mut out = Vec::new();
    for p in &script.phases {
        let kind: usize = p.functions[0]
            .name
            .trim_start_matches("kernel_")
            .parse()
            .expect("planted kernels are named kernel_<kind>");
        out.extend(std::iter::repeat_n(kind, p.intervals as usize));
    }
    out
}

/// Execute a planted script on the real profiling stack.
pub fn planted_run(n: usize, seed: u64) -> Run {
    let script = planted_script(n, seed);
    let truth = kind_truth(&script);
    let out = run_script(&script, 1_000_000_000);
    Run {
        name: format!("synth-n{n}"),
        series: out.data.series,
        table: out.data.table,
        truth: Some(truth),
    }
}
