//! # incprof-bench
//!
//! The experiment harness regenerating every table and figure of the
//! IncProf paper (CLUSTER 2022):
//!
//! | Artifact | Binary |
//! |---|---|
//! | Table I (setup & overhead) | `table1` |
//! | Table II (Graph500 sites) / Fig. 2 | `table2_graph500` / `fig2_graph500` |
//! | Table III (MiniFE) / Fig. 3 | `table3_minife` / `fig3_minife` |
//! | Table IV (MiniAMR) / Fig. 4 | `table4_miniamr` / `fig4_miniamr` |
//! | Table V (LAMMPS) / Fig. 5 | `table5_lammps` / `fig5_lammps` |
//! | Table VI (Gadget2) / Fig. 6 | `table6_gadget2` / `fig6_gadget2` |
//! | everything + artifacts | `all_experiments` |
//! | ablations (clustering / features / threshold / interval) | `ablation_*` |
//! | parallel k-sweep (cold fold) speedup + determinism gate | `speedup` |
//!
//! Criterion micro-benchmarks live under `benches/` and back the Table I
//! overhead story (heartbeat cost, profiler guard cost, snapshot cost)
//! plus algorithmic scaling (k-means, pipeline, report round trip).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apps;
pub mod figures;
pub mod overhead;
pub mod paper;
pub mod tables;

pub use apps::{App, ALL_APPS};
