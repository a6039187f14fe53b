//! The analytical kernel timing model.
//!
//! A kernel's elapsed time is the maximum over the resources it can overlap
//! (compute across resident threads, device-memory bandwidth, PCIe/PM
//! bandwidth, transaction issue, fence round-trips) plus any serialized
//! component (lock-protected log partitions), plus launch overhead. The
//! model reproduces the paper's scaling behaviour: massive parallelism hides
//! individual persist latency (§3.2) until the PCIe in-flight limit or the
//! PM's pattern-dependent bandwidth saturates.

use std::collections::HashMap;

use gpm_sim::config::MachineConfig;
use gpm_sim::pattern::PatternTracker;
use gpm_sim::{Ns, PersistencyModel};

use crate::dim::LaunchConfig;

/// Resource usage accumulated over one kernel launch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelCosts {
    /// Total compute time declared by threads via `ThreadCtx::compute`.
    pub compute: Ns,
    /// Bytes moved to/from GPU device memory.
    pub hbm_bytes: u64,
    /// Bytes moved to/from host DRAM over PCIe (UVA).
    pub dram_bytes: u64,
    /// Bytes written to PM over PCIe.
    pub pm_write_bytes: u64,
    /// Bytes read from PM over PCIe.
    pub pm_read_bytes: u64,
    /// Coalesced PCIe write transactions to PM.
    pub pcie_write_txns: u64,
    /// Coalesced PCIe read transactions from PM.
    pub pcie_read_txns: u64,
    /// Warp-coalesced system-scope fence events.
    pub system_fence_events: u64,
    /// Warp-coalesced device-scope fence events.
    pub device_fence_events: u64,
    /// Serialized time per contention key (e.g. a lock-protected log
    /// partition): the slowest key adds directly to elapsed time.
    pub serial: HashMap<u64, Ns>,
}

impl KernelCosts {
    /// Adds serialized work attributed to contention key `key`.
    pub fn add_serial(&mut self, key: u64, t: Ns) {
        *self.serial.entry(key).or_insert(Ns::ZERO) += t;
    }

    /// Folds one block's costs into a launch total. The engine accumulates
    /// per block and merges in block-id order, which fixes how the
    /// floating-point sums (`compute`, per-key `serial`) associate, and so
    /// the bits of simulated time.
    pub fn merge(&mut self, block: &KernelCosts) {
        self.compute += block.compute;
        self.hbm_bytes += block.hbm_bytes;
        self.dram_bytes += block.dram_bytes;
        self.pm_write_bytes += block.pm_write_bytes;
        self.pm_read_bytes += block.pm_read_bytes;
        self.pcie_write_txns += block.pcie_write_txns;
        self.pcie_read_txns += block.pcie_read_txns;
        self.system_fence_events += block.system_fence_events;
        self.device_fence_events += block.device_fence_events;
        for (&key, &t) in &block.serial {
            self.add_serial(key, t);
        }
    }

    /// The longest serialized chain.
    pub fn serial_time(&self) -> Ns {
        self.serial.values().copied().fold(Ns::ZERO, Ns::max)
    }

    /// Elapsed kernel time under `cfg` for a launch of shape `launch`, with
    /// `pattern` describing this kernel's PM write mix, assuming strict
    /// persistency. Equivalent to [`KernelCosts::elapsed_with_model`] with
    /// [`PersistencyModel::Strict`].
    pub fn elapsed(
        &self,
        cfg: &MachineConfig,
        launch: &LaunchConfig,
        pattern: &PatternTracker,
    ) -> Ns {
        self.elapsed_with_model(cfg, launch, pattern, PersistencyModel::Strict)
    }

    /// Elapsed kernel time under a chosen [`PersistencyModel`]. Under
    /// [`PersistencyModel::Strict`] every system fence pays the full
    /// persist round trip ([`MachineConfig::effective_system_fence_latency`]);
    /// under [`PersistencyModel::Epoch`] fences only order into the open
    /// epoch ([`MachineConfig::epoch_fence_latency`]) and the launch pays
    /// one terminal full-latency drain at the epoch boundary (when any
    /// system fence was issued at all).
    pub fn elapsed_with_model(
        &self,
        cfg: &MachineConfig,
        launch: &LaunchConfig,
        pattern: &PatternTracker,
        model: PersistencyModel,
    ) -> Ns {
        let cores = launch.total_threads().min(cfg.total_cuda_cores() as u64) as f64;
        let warps_overlap = launch
            .total_warps()
            .min(cfg.pcie_max_inflight as u64)
            .max(1) as f64;

        let compute_time = self.compute / cores.max(1.0);
        let hbm_time = Ns(self.hbm_bytes as f64 / cfg.hbm_bw);

        // Under eADR the LLC is inside the persistence domain: it absorbs
        // and write-combines bursts before they drain to the NVDIMMs, so
        // scattered writes behave no worse than unaligned sequential ones.
        let mut pm_write_bw = pattern.effective_bandwidth(cfg).min(cfg.pcie_bw);
        if cfg.persist_mode == gpm_sim::PersistMode::Eadr {
            pm_write_bw = pm_write_bw.max(cfg.pm_bw_seq_unaligned).min(cfg.pcie_bw);
        }
        let pm_read_bw = cfg.pm_read_bw.min(cfg.pcie_bw);
        let pcie_bytes_time = Ns(self.pm_write_bytes as f64 / pm_write_bw
            + self.pm_read_bytes as f64 / pm_read_bw
            + self.dram_bytes as f64 / cfg.pcie_bw);

        let txn_cost = self.pcie_write_txns as f64 * cfg.pcie_txn_overhead.0
            + self.pcie_read_txns as f64 * (cfg.pcie_txn_overhead.0 + cfg.pm_read_latency.0);
        let txn_time = Ns(txn_cost / warps_overlap);

        let sys_lat = cfg.effective_system_fence_latency();
        let dev_fence_time = self.device_fence_events as f64 * cfg.device_fence_latency.0
            / (launch.total_warps().max(1) as f64);
        let fence_time = match model {
            PersistencyModel::Strict => {
                Ns(self.system_fence_events as f64 * sys_lat.0 / warps_overlap + dev_fence_time)
            }
            PersistencyModel::Epoch => {
                // Each fence only posts an epoch-ordering marker; the one
                // deferred drain at kernel completion pays the full persist
                // round trip (it cannot overlap — the kernel is over).
                let drain = if self.system_fence_events > 0 {
                    sys_lat.0
                } else {
                    0.0
                };
                Ns(
                    self.system_fence_events as f64 * cfg.epoch_fence_latency.0 / warps_overlap
                        + drain
                        + dev_fence_time,
                )
            }
        };

        let overlapped = compute_time
            .max(hbm_time)
            .max(pcie_bytes_time)
            .max(txn_time)
            .max(fence_time);
        cfg.kernel_launch_overhead + overlapped + self.serial_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> (MachineConfig, LaunchConfig, PatternTracker) {
        (
            MachineConfig::default(),
            LaunchConfig::new(64, 256),
            PatternTracker::new(),
        )
    }

    #[test]
    fn empty_kernel_costs_launch_overhead() {
        let (cfg, launch, pat) = base();
        let t = KernelCosts::default().elapsed(&cfg, &launch, &pat);
        assert_eq!(t, cfg.kernel_launch_overhead);
    }

    #[test]
    fn compute_scales_with_parallelism() {
        let (cfg, _, pat) = base();
        let c = KernelCosts {
            compute: Ns::from_millis(1000.0),
            ..KernelCosts::default()
        };
        let small = LaunchConfig::new(1, 32);
        let big = LaunchConfig::new(1024, 256);
        assert!(c.elapsed(&cfg, &small, &pat) > c.elapsed(&cfg, &big, &pat) * 100.0);
    }

    #[test]
    fn fence_time_saturates_at_inflight_limit() {
        let (cfg, _, pat) = base();
        let c = KernelCosts {
            system_fence_events: 100_000,
            ..KernelCosts::default()
        };
        let one_warp = LaunchConfig::new(1, 32);
        let sixteen = LaunchConfig::new(16, 32);
        let many = LaunchConfig::new(1024, 32);
        let t1 = c.elapsed(&cfg, &one_warp, &pat);
        let t16 = c.elapsed(&cfg, &sixteen, &pat);
        let tmany = c.elapsed(&cfg, &many, &pat);
        assert!(t1 > t16 * 10.0);
        let ratio = t16 / tmany;
        assert!(
            ratio < 1.05,
            "beyond the in-flight limit, no further scaling: {ratio}"
        );
    }

    #[test]
    fn eadr_shrinks_fence_time() {
        let (cfg, launch, pat) = base();
        let eadr = cfg.clone().with_eadr();
        let c = KernelCosts {
            system_fence_events: 1_000_000,
            ..KernelCosts::default()
        };
        assert!(c.elapsed(&cfg, &launch, &pat) > c.elapsed(&eadr, &launch, &pat) * 5.0);
    }

    #[test]
    fn epoch_model_cuts_fence_time_but_pays_terminal_drain() {
        let (cfg, launch, pat) = base();
        let c = KernelCosts {
            system_fence_events: 100_000,
            ..KernelCosts::default()
        };
        let strict = c.elapsed_with_model(&cfg, &launch, &pat, PersistencyModel::Strict);
        let epoch = c.elapsed_with_model(&cfg, &launch, &pat, PersistencyModel::Epoch);
        assert_eq!(
            strict,
            c.elapsed(&cfg, &launch, &pat),
            "elapsed() is strict"
        );
        // epoch_fence_latency / system_fence_latency ≈ 150/1100: large win.
        assert!(strict > epoch * 5.0, "strict {strict} vs epoch {epoch}");
        // The terminal drain shows up: one fence under epoch still pays a
        // full system-fence round trip on top of its cheap ordering cost.
        let one = KernelCosts {
            system_fence_events: 1,
            ..KernelCosts::default()
        };
        let one_epoch = one.elapsed_with_model(&cfg, &launch, &pat, PersistencyModel::Epoch);
        assert!(one_epoch >= cfg.kernel_launch_overhead + cfg.system_fence_latency);
        // No fences ⇒ no drain: models agree exactly.
        let none = KernelCosts::default();
        assert_eq!(
            none.elapsed_with_model(&cfg, &launch, &pat, PersistencyModel::Epoch),
            none.elapsed(&cfg, &launch, &pat)
        );
    }

    #[test]
    fn pattern_governs_pm_write_bandwidth() {
        let (cfg, launch, _) = base();
        let mut seq = PatternTracker::new();
        let mut rnd = PatternTracker::new();
        for i in 0..4096u64 {
            seq.record(i * 256, 256);
            rnd.record((i * 7919 * 64) % (1 << 30), 8);
            rnd.barrier();
        }
        let c = KernelCosts {
            pm_write_bytes: 1 << 26,
            ..KernelCosts::default()
        };
        let t_seq = c.elapsed(&cfg, &launch, &seq);
        let t_rnd = c.elapsed(&cfg, &launch, &rnd);
        assert!(t_rnd > t_seq * 10.0, "random pattern must throttle writes");
    }

    #[test]
    fn serial_time_adds_to_elapsed() {
        let (cfg, launch, pat) = base();
        let mut c = KernelCosts::default();
        c.add_serial(1, Ns::from_millis(2.0));
        c.add_serial(1, Ns::from_millis(3.0));
        c.add_serial(2, Ns::from_millis(4.0));
        assert_eq!(c.serial_time(), Ns::from_millis(5.0));
        let t = c.elapsed(&cfg, &launch, &pat);
        assert!(t >= Ns::from_millis(5.0));
    }

    #[test]
    fn overlapping_resources_take_max_not_sum() {
        let (cfg, launch, pat) = base();
        let mut c = KernelCosts {
            hbm_bytes: 1 << 30,
            ..KernelCosts::default()
        };
        let hbm_only = c.elapsed(&cfg, &launch, &pat);
        c.compute = Ns::from_micros(1.0); // negligible compute
        let both = c.elapsed(&cfg, &launch, &pat);
        assert!((both.0 - hbm_only.0).abs() < 1.0);
    }
}
