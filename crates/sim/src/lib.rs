//! The full-system simulator.
//!
//! Drives a [`neomem_workloads::Workload`] access stream through a TLB
//! and a three-level cache hierarchy; LLC misses hit the tiered memory
//! nodes and are exposed to the active
//! [`neomem_policies::TieringPolicy`]. All latencies — cache levels,
//! DRAM/CXL service, page walks, faults, profiler work, migration
//! copies — accrue on a single virtual clock, so "runtime" is the sum of
//! everything a real core would have waited on. Speedups between
//! policies are ratios of these runtimes, which is how every figure in
//! the paper's evaluation is regenerated.
//!
//! # Example
//!
//! ```
//! use neomem_policies::FirstTouchPolicy;
//! use neomem_sim::{SimConfig, Simulation};
//! use neomem_workloads::WorkloadKind;
//!
//! let config = SimConfig::quick(8 * 1024, 2); // 8Ki pages, 1:2 ratio
//! let workload = WorkloadKind::Gups.build(config.rss_pages, 42);
//! let policy = Box::new(FirstTouchPolicy::new());
//! let report = Simulation::new(config, workload, policy)?.run();
//! assert!(report.runtime.as_nanos() > 0);
//! assert!(report.accesses > 0);
//! # Ok::<(), neomem_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod corun;
mod engine;
mod fault;
pub mod machine;
mod report;
mod sched;
pub mod snapshot;

pub use config::{CacheLatencies, SimConfig};
pub use machine::{MachineDescription, MachinePreset, NeoProfKnobs, TierSizing};
pub use corun::{
    jain_fairness, CoRunConfig, CoRunContention, CoRunReport, CoRunSimulation, OccupancyPoint,
    TenantEpoch, TenantRunReport,
};
pub use engine::Simulation;
pub use report::{DegradationMetrics, MarkerRecord, RunReport, TimelinePoint};
