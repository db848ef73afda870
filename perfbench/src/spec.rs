//! The end-to-end workloads and what each one is: why it was chosen, its
//! loop, rate, threads and connections, latency limit, input sizes, and
//! the layers it exercises and bypasses. Every result carries this
//! record.

use crate::inputs::{SYNTH_FUNCTIONS, SYNTH_SIZES};
use crate::stream;

/// A second seed for checking a claim on inputs not used while the
/// change was written.
pub const CHECK_SEED: u64 = 9_001;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OfflineDetect,
    LiveStream,
}

pub const ALL: [Workload; 2] = [Workload::OfflineDetect, Workload::LiveStream];

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineDetect => "offline-detect",
            Workload::LiveStream => "live-stream",
        }
    }

    fn why(self) -> &'static str {
        match self {
            Workload::OfflineDetect => {
                "collect, cluster and core along the cold path; the long planted runs \
                 expose the fold's growth with n, and the planted truth gives a quality figure"
            }
            Workload::LiveStream => {
                "writes beside reads: each push feeds the online detector, the log and \
                 checkpoints, each query the warm analysis cache; the restart tail \
                 measures rehydration"
            }
        }
    }

    /// The workload's record as a JSON object.
    pub fn spec_json(self) -> String {
        let sizes: Vec<String> = SYNTH_SIZES.iter().map(|n| n.to_string()).collect();
        let (lp, rate, threads, conns, limit, inputs, exercised, bypassed) = match self {
            Workload::OfflineDetect => (
                "closed: one analysis at a time, back to back",
                "null".to_string(),
                1,
                0,
                "null".to_string(),
                format!(
                    "five paper apps at Size::Paper (72-314 intervals, 3-7 functions) plus \
                     planted runs at n = {} intervals with {} functions",
                    sizes.join("/"),
                    SYNTH_FUNCTIONS
                ),
                "collect, cluster, core, par",
                "runtime hot path, serve, store, shard",
            ),
            Workload::LiveStream => (
                "open: pushes due on a fixed schedule whatever the replies do",
                format!("{}", stream::RATE_PER_S),
                stream::THREADS,
                stream::THREADS,
                format!("{}", stream::LATENCY_LIMIT_MS),
                format!(
                    "ten sessions: the five paper apps at Size::Paper from two seeds, \
                     72-314 snapshots and 3-7 functions each, replayed in rounds of fresh \
                     sessions; {} daemon workers, {} analysis thread",
                    stream::THREADS,
                    stream::ANALYSIS_THREADS
                ),
                "profile codec, serve, store, core online detector and analysis cache, \
                 cluster warm fold",
                "runtime hot path, shard",
            ),
        };
        format!(
            "{{\"why\":\"{}\",\"loop\":\"{lp}\",\"rate_per_s\":{rate},\"generator_threads\":{threads},\
             \"connections\":{conns},\"latency_limit_ms\":{limit},\"inputs\":\"{inputs}\",\
             \"exercises\":\"{exercised}\",\"bypasses\":\"{bypassed}\"}}",
            self.why()
        )
    }
}
