//! Workload models reproducing the NEVE paper's evaluation.
//!
//! - [`session`]: [`SimSession`], the unit of evaluation — one
//!   (configuration, benchmark) cell owning its testbed from build to
//!   measured result. Sessions are `Send`, so the matrix fans out
//!   across worker threads.
//! - [`platforms`]: a unified view over the ARM ([`neve_kvmarm`]) and
//!   x86 ([`neve_x86vt`]) test beds; [`MicroMatrix`] runs every
//!   microbenchmark on every configuration (serially or in parallel,
//!   bit-identically) — the data behind Tables 1, 6 and 7, including
//!   the per-kind trap breakdown.
//! - [`cache`]: the persistent results cache
//!   (`results/micro_matrix.json`), keyed by the cost-model
//!   fingerprint, so every report binary measures once and reuses.
//! - [`faults`]: the fault-injection campaign — every built-in
//!   [`FaultPlan`](neve_armv8::FaultPlan) against every nested ARM
//!   cell, classifying each outcome as detected, recovered, or
//!   mis-measured (the `neve faults` subcommand).
//! - [`tables`]: assembles those results into the paper's table rows.
//! - [`apps`]: the application-workload model behind Figure 2. Each of
//!   the paper's ten workloads (Table 8) is characterized by rates of
//!   virtualization events per unit of CPU work; the per-event costs
//!   come from the *simulated stacks* (the same numbers as Table 6), so
//!   the figure is regenerated, not transcribed. The virtio
//!   notification-suppression model reproduces the paper's x86
//!   Memcached anomaly (Section 7.2: "having faster hardware can result
//!   in more virtualization overhead").
//! - [`jobs`] and [`serve`]: the long-running job engine behind
//!   `neve serve` — batched sweep requests over line-delimited JSON,
//!   decomposed into content-addressed cells on a sharded
//!   work-stealing queue, with in-flight coalescing, an in-memory
//!   result store layered over the disk cache, and streaming JSONL
//!   partial-matrix events.

pub mod apps;
pub mod cache;
pub mod consolidate;
pub mod faults;
pub mod fuzz;
pub mod jobs;
pub mod oracle;
pub mod platforms;
pub mod provenance;
pub mod replay;
pub mod serve;
pub mod session;
pub mod tables;
pub mod throughput;

pub use apps::{figure2, WorkloadProfile, WorkloadRow, WORKLOADS};
pub use cache::{load_or_measure, MatrixSource, CACHE_PATH};
pub use consolidate::{
    run_consolidate, ConsolidateReport, ConsolidateRow, ConsolidateSpec, CONSOLIDATE_PATH,
};
pub use faults::{run_campaign, CampaignReport, CampaignSpec, Verdict};
pub use fuzz::{run_fuzz, FuzzReport, FuzzSpec, CORPUS_DIR};
pub use jobs::{parse_request, CellKey, CellOutcome, CellWork, Command, JobKind, JobRequest};
pub use oracle::{
    diff_pair, engine_lockstep, golden_diff, run_checks, trap_algebra, OracleReport, PairReport,
};
pub use platforms::{Config, MeasureOpts, MicroCosts, MicroMatrix, PhaseStat};
pub use replay::{replay_vs_model, Mix, ReplayResult};
pub use serve::{listen, run_protocol, JobEngine, SharedBuf, Sink};
pub use session::{Bench, CellMeasurement, CellResult, SimSession};
pub use tables::{table1, table6, table7, Cell, TableRow};
pub use throughput::{
    guard_regressions, guard_scenario_regressions, measure_all, measure_all_with,
    measure_scenarios, ConfigThroughput, ScenarioThroughput, BENCH_PATH,
};
