//! # NeoMem — CXL-native memory tiering, reproduced in Rust
//!
//! A full-system reproduction of *"NeoMem: Hardware/Software Co-Design
//! for CXL-Native Memory Tiering"* (MICRO 2024). The workspace models
//! every layer of the paper's stack — the NeoProf device-side profiler
//! (Count-Min sketch, hot-page filter, histogram unit, MMIO command
//! set), the Linux-style tiering kernel (page table, LRU-2Q, migration
//! with ping-pong tracking), the baseline profilers (PEBS, PTE-scan/
//! DAMON, hint faults), the paper's eight benchmarks as access-stream
//! generators, and a virtual-clock simulator that turns it all into
//! runtimes, traffic counts and timelines.
//!
//! This crate is the front door: a preset-driven [`Experiment`] builder
//! plus re-exports of every subsystem for users who want to compose the
//! pieces themselves.
//!
//! ## Quickstart
//!
//! ```
//! use neomem::prelude::*;
//!
//! // GUPS under the NeoMem policy at a 1:2 fast:slow ratio.
//! let report = Experiment::builder()
//!     .workload(WorkloadKind::Gups)
//!     .policy(PolicyKind::NeoMem)
//!     .rss_pages(2048)
//!     .accesses(100_000)
//!     .build()?
//!     .run();
//! assert!(report.runtime.as_nanos() > 0);
//! # Ok::<(), neomem::Error>(())
//! ```
//!
//! ## Layer map
//!
//! | Module | Contents |
//! |---|---|
//! | [`sketch`] | CM-sketch, H3 hashing, hot-page detector, histogram, error bounds |
//! | [`neoprof`] | the device model: monitors, FIFOs, MMIO commands, HW cost |
//! | [`cache`] | L1/L2/LLC + TLB simulation |
//! | [`mem`] | tiered memory nodes, bandwidth meters, frame allocation |
//! | [`kernel`] | page table, LRU-2Q, migration engine, THP |
//! | [`profilers`] | PEBS / PTE-scan / DAMON / hint-fault / NeoProf driver |
//! | [`policies`] | NeoMem daemon (Algorithm 1) + all baselines |
//! | [`workloads`] | the eight benchmarks + Redis as stream generators |
//! | [`sim`] | the virtual-clock system simulator |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiment;

pub use experiment::{build_policy, Experiment, ExperimentBuilder, PolicyOverrides};

pub use neomem_types::{Error, Result};

/// Domain newtypes and shared types.
pub mod types {
    pub use neomem_types::*;
}
/// Sketch algorithms (paper §IV-B).
pub mod sketch {
    pub use neomem_sketch::*;
}
/// Cache hierarchy and TLB simulation.
pub mod cache {
    pub use neomem_cache::*;
}
/// Tiered memory-node model.
pub mod mem {
    pub use neomem_mem::*;
}
/// The NeoProf device model (paper §IV).
pub mod neoprof {
    pub use neomem_neoprof::*;
}
/// Simulated OS kernel memory management.
pub mod kernel {
    pub use neomem_kernel::*;
}
/// Profiling mechanisms (paper §II-C).
pub mod profilers {
    pub use neomem_profilers::*;
}
/// Tiering policies (paper §V + baselines).
pub mod policies {
    pub use neomem_policies::*;
}
/// Workload generators (paper §VI-A).
pub mod workloads {
    pub use neomem_workloads::*;
}
/// The full-system simulator.
pub mod sim {
    pub use neomem_sim::*;
}

/// The most common imports for experiment-level use.
pub mod prelude {
    pub use crate::experiment::{build_policy, Experiment, ExperimentBuilder, PolicyOverrides};
    pub use neomem_policies::PolicyKind;
    pub use neomem_sim::{
        CoRunConfig, CoRunReport, CoRunSimulation, MachineDescription, RunReport, SimConfig,
        Simulation, TimelinePoint,
    };
    pub use neomem_types::{Bandwidth, Bytes, FaultKind, FaultPlan, Nanos, Tier};
    pub use neomem_workloads::{PhaseSpec, Scenario, TenantMix, WorkloadKind};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn prelude_covers_the_quickstart() {
        let report = Experiment::builder()
            .workload(WorkloadKind::Silo)
            .policy(PolicyKind::FirstTouch)
            .rss_pages(1024)
            .accesses(20_000)
            .build()
            .expect("valid experiment")
            .run();
        assert_eq!(report.policy, "First-touch NUMA");
        assert_eq!(report.workload, "Silo");
        assert!(report.accesses >= 20_000);
    }
}
