//! # gpm-serve — an open-loop serving frontend over gpKVS/gpDB
//!
//! The paper's transactional workloads are driven by closed-loop batch
//! runs; this crate turns them into a *served* system: a seeded open-loop
//! client stream, a key-hash shard router over N independent `Machine`
//! shards, a per-shard admission + batching scheduler with bounded-queue
//! backpressure and transient-crash retry, and per-request end-to-end
//! latency accounting against an SLO.
//!
//! Everything runs in simulated time and is seed-deterministic: the same
//! seed and configuration produce bit-identical results, run to run (the
//! platform's golden-counter contract).
//!
//! ## Pipeline
//!
//! ```text
//! arrival process ─▶ router ─▶ admission queue ─▶ batcher ─▶ apply_batch ─▶ histogram
//!      (seeded)     (key hash)  (bounded, shed)  (size/linger)  (kernel)     (p50..p999)
//! ```
//!
//! ## Example
//!
//! ```
//! use gpm_serve::{run_cluster, ClusterConfig, TrafficConfig};
//! use gpm_sim::Ns;
//!
//! let traffic = TrafficConfig::quick(42);
//! let out = run_cluster(&ClusterConfig::quick(), &traffic.generate())?;
//! assert_eq!(out.completed + out.shed, out.offered);
//! let p99 = out.hist.percentile(0.99);
//! assert!(p99 > Ns::ZERO);
//! # Ok::<(), gpm_sim::SimError>(())
//! ```

#![warn(missing_docs)]

pub mod arrival;
pub mod cluster;
pub mod replica;
pub mod request;
pub mod reshard;
pub mod router;
pub mod scenario;
pub mod scheduler;
pub mod shard;

pub use arrival::{ArrivalShape, TrafficConfig};
pub use cluster::{run_cluster, BackendKind, ClusterConfig, ClusterOutcome};
pub use replica::{
    run_replicated_cluster, FailoverInfo, KillPlan, LogShipStats, ReplicatedOutcome,
    ReplicatedShard, ReplicationConfig,
};
pub use request::{acked_sets, Op, Request, RequestId, Response, Verdict};
pub use reshard::{run_resharded_cluster, ReshardOutcome, ReshardPlan};
pub use router::Router;
pub use scenario::{run_scenario, scenario_names, ScenarioOutcome};
pub use scheduler::{serve_engine, serve_shard, BatchPolicy, FaultPlan, ServeEngine, ShardReport};
pub use shard::Shard;
