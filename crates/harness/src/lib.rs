//! # harness — the paper's benchmark methodology, reproduced
//!
//! The evaluation section of the paper (§5) is driven by a purpose-built
//! benchmark rather than STAMP/TPC-C/YCSB, because those suites cannot
//! exercise long-running range queries under a steady stream of conflicting
//! updates. This crate reproduces that methodology:
//!
//! * operation-mix workloads over a key range (search / range query /
//!   insert / delete percentages), with uniform or Zipfian key access;
//! * **dedicated updater threads** that never perform read-only operations
//!   and whose throughput is *not* counted, so a TM cannot look good on
//!   range-query workloads merely because every thread eventually rolls a
//!   range query at the same time (Figure 7's pitfall);
//! * prefilled structures, timed trials, multiple TMs × thread counts;
//! * time-varying workloads sampled every 200 ms (Figure 8);
//! * maximum-resident-set and versioning-metadata memory accounting
//!   (Figure 9) and process CPU time per trial. Figure 10's energy claim is
//!   not measurable here: RAPL needs privileges, and CPU time is not
//!   energy.

pub mod checker;
pub mod cli;
#[cfg(feature = "crashpoint")]
pub mod crash;
pub mod driver;
#[cfg(feature = "sim")]
pub mod explore;
#[cfg(all(feature = "sim", feature = "crashpoint"))]
pub mod explore_wal;
pub mod figures;
pub mod measure;
pub mod oltp;
pub mod registry;
#[cfg(feature = "record")]
pub mod scenario;
#[cfg(feature = "crashpoint")]
pub mod store_e2e;
pub mod timevarying;
pub mod workload;
pub mod zipf;

pub use checker::{check_history, History, Report, Violation};
pub use cli::BenchArgs;
pub use driver::{run_trial, TrialConfig, TrialResult};
pub use figures::{default_thread_sweep, print_results, run_sweep, FigurePoint, FigureSpec};
pub use oltp::{run_client, run_clients, serve, OltpSpec, OltpStats, ServedStore};
pub use registry::{run_workload, with_backend, BackendVisitor, RuntimeScale, StructKind, TmKind};
pub use timevarying::{run_time_varying, Interval, TimeVaryingResult};
pub use workload::{KeyDist, OpKind, WorkloadMix, WorkloadSpec};
pub use zipf::Zipf;
