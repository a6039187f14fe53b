//! # gpm-sim — the simulated Xeon + Optane + GPU platform
//!
//! This crate is the hardware substrate for the Rust reproduction of
//! *GPM: Leveraging Persistent Memory from a GPU* (Pandey, Kamath, Basu —
//! ASPLOS 2022). The paper's testbed (Table 3) — a 4-socket Xeon Gold 6242,
//! 8×128 GB Optane DCPMM, a Titan RTX, PCIe 3.0 ×16 — is modelled as a
//! deterministic, analytically-timed [`Machine`]:
//!
//! * **Functional state** is real: persistent memory is a byte array of
//!   durable *media* plus volatile *pending lines* (writes cached by DDIO in
//!   the LLC, or in flight to the memory controller). A [`Machine::crash`]
//!   applies an arbitrary subset of pending lines and drops the rest, so
//!   crash-consistency protocols are genuinely exercised.
//! * **Timing** is analytical: operations accrue simulated nanoseconds from
//!   the calibrated constants in [`MachineConfig`] (PCIe bandwidth, Optane's
//!   pattern-dependent write bandwidth, fence latencies, CPU flush costs).
//!
//! Higher layers build on this: `gpm-gpu` executes CUDA-style kernels,
//! `gpm-core` implements libGPM, `gpm-cap` the CPU-assisted-persistence
//! baselines, and `gpm-workloads` the GPMbench suite.
//!
//! ## Example
//!
//! ```
//! use gpm_sim::{Machine, Addr};
//!
//! let mut machine = Machine::default();
//! let region = machine.alloc_pm(4096)?;
//!
//! // A GPU store to PM with DDIO disabled becomes durable at the fence.
//! machine.set_ddio(false);
//! machine.gpu_store_pm(/*writer=*/0, region, &1234u64.to_le_bytes())?;
//! machine.gpu_system_fence(0);
//!
//! // Power failure: the fenced write survives.
//! machine.crash();
//! assert_eq!(machine.read_u64(Addr::pm(region))?, 1234);
//! # Ok::<(), gpm_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod campaign;
pub mod config;
pub mod cpu;
pub mod error;
pub mod fs;
pub mod machine;
pub mod paged;
pub mod pattern;
pub mod pm;
pub mod rng;
pub mod stats;
pub mod time;
pub mod volatile;

pub use addr::{Addr, MemSpace, CPU_LINE, GPU_LINE, OPTANE_BLOCK};
pub use campaign::{
    enumerate_cases, run_campaign, CampaignCase, CampaignConfig, CampaignStats, CaseOutcome,
    CrashSchedule, OracleVerdict,
};
pub use config::{MachineConfig, PersistMode, PersistencyModel};
pub use error::{SimError, SimResult};
pub use machine::Machine;
pub use pm::{CrashPolicy, CrashReport, WriterId, HOST_WRITER};
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use stats::Stats;
pub use time::{Ns, SimClock};

// Structured-event tracing (see the `gpm-trace` crate): re-exported here so
// every layer that holds a `Machine` can install sinks and name event kinds
// without a separate dependency edge.
pub use gpm_trace::{
    chrome_trace_json, Attribution, Event, EventKind, NullSink, Phase, PhaseTotals, RingSink,
    TraceData, TraceSink,
};
