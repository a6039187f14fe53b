//! Platform configuration: capacities, latencies, and bandwidths.
//!
//! The constants model the paper's testbed (Table 3): a 4-socket Intel Xeon
//! Gold 6242, 8×128 GB Optane DCPMM (app-direct, interleaved), an NVIDIA
//! Titan RTX, and PCIe 3.0 ×16. They are calibrated so the *relative* results
//! of the paper's evaluation (Figures 1, 3, 9–12; Tables 4–5) reproduce;
//! absolute values are model estimates. Sources for each constant are cited
//! inline: `[paper §x]` refers to the GPM paper, `[Yang FAST'20]` /
//! `[Izraelevitz'19]` to the Optane characterization studies it cites.

use crate::time::Ns;

/// Gigabytes-per-second expressed as bytes-per-nanosecond (they coincide:
/// 1 GB/s = 1 byte/ns).
pub type GbPerS = f64;

/// Persistence-domain behaviour of the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PersistMode {
    /// Baseline ADR platform: the memory controller's write-pending queue is
    /// durable, CPU caches (and the DDIO-targeted LLC) are not. `[paper §2]`
    #[default]
    Adr,
    /// Projected eADR platform: the entire CPU cache hierarchy is flushed on
    /// power failure, so visibility implies durability. `[paper §3.3, §6.1]`
    Eadr,
}

/// GPU persistency model: *when* a system-scope fence drains its writer's
/// pending lines into the persistence domain.
///
/// Follows the strict/epoch distinction of "Exploring Memory Persistency
/// Models for GPUs" (Lin & Solihin): under strict persistency every fence
/// synchronously waits for its writes to reach the durable WPQ, while under
/// epoch persistency fences only *order* writes into the current persist
/// epoch and the drain is deferred to the epoch boundary (here: kernel
/// completion). The model is selected per launch — see `LaunchConfig` in
/// `gpm-gpu` — and only changes timing plus *when* pending lines become
/// durable; visibility and final media contents are identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PersistencyModel {
    /// Every system fence synchronously drains the writer's pending lines
    /// (the GPM paper's baseline behaviour, §5.1).
    #[default]
    Strict,
    /// Fences mark the writer's pending lines as epoch-ordered; all marked
    /// lines drain together at the epoch boundary (kernel completion), so a
    /// fence costs [`MachineConfig::epoch_fence_latency`] instead of a full
    /// PCIe round trip.
    Epoch,
}

/// Timing and topology parameters of the simulated machine.
///
/// Construct with [`MachineConfig::default`] for the paper's testbed, or
/// tweak individual fields for sensitivity studies.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    // ---- capacities -------------------------------------------------------
    /// Capacity of the simulated PM space in bytes (scaled down from 1 TB).
    pub pm_capacity: u64,
    /// Capacity of the simulated host DRAM in bytes.
    pub dram_capacity: u64,
    /// Capacity of the simulated GPU device memory in bytes.
    pub hbm_capacity: u64,

    // ---- GPU --------------------------------------------------------------
    /// Number of streaming multiprocessors (Titan RTX: 72). `[Table 3]`
    pub sm_count: u32,
    /// CUDA cores per SM (Turing: 64): bounds compute throughput.
    pub cuda_cores_per_sm: u32,
    /// Fixed cost of launching a kernel (driver + dispatch).
    pub kernel_launch_overhead: Ns,
    /// GPU device-memory bandwidth (Titan RTX GDDR6 ≈ 550 GB/s achievable;
    /// the paper measures ~250 GB/s total for BLK `[§6.1]`).
    pub hbm_bw: GbPerS,
    /// Cost of a device-scoped fence (L2 visibility only).
    pub device_fence_latency: Ns,

    // ---- PCIe -------------------------------------------------------------
    /// Achievable PCIe 3.0 ×16 bandwidth (paper: "∼13 GBps" `[§6.1]`).
    pub pcie_bw: GbPerS,
    /// Per 128-byte coalesced transaction overhead on the link.
    pub pcie_txn_overhead: Ns,
    /// Maximum warp-granular PCIe operations in flight; GPUs "support a
    /// limited number of concurrent operations on the PCIe" `[§3.2, EMOGI]`.
    pub pcie_max_inflight: u32,
    /// Latency of a system-scoped fence that must wait for prior writes to
    /// reach the host memory controller's durable WPQ (ADR). Round trip over
    /// PCIe plus queue acceptance. `[§5.1, AGAMOTTO]`
    pub system_fence_latency: Ns,
    /// Latency of a system-scoped fence when eADR makes the LLC durable: the
    /// fence completes "as soon as data reaches LLC" `[§6.1]`.
    pub eadr_fence_latency: Ns,
    /// Latency of a system-scoped fence under [`PersistencyModel::Epoch`]:
    /// the fence only orders prior writes into the open persist epoch (a
    /// posted operation, no durable-WPQ round trip), so it costs little more
    /// than PCIe write acceptance. The deferred drain pays one full
    /// [`MachineConfig::system_fence_latency`] at the epoch boundary.
    /// `[Lin & Solihin, epoch persistency]`
    pub epoch_fence_latency: Ns,
    /// Fixed cost of initiating a DMA transfer (driver, ring setup).
    pub dma_init_overhead: Ns,

    // ---- Optane PM --------------------------------------------------------
    /// PM write bandwidth for sequential 256-byte-aligned accesses
    /// (paper microbenchmark: 12.5 GB/s `[§6.1]`).
    pub pm_bw_seq_aligned: GbPerS,
    /// PM write bandwidth for sequential unaligned accesses (3.13 GB/s
    /// `[§6.1]`).
    pub pm_bw_seq_unaligned: GbPerS,
    /// PM write bandwidth for random accesses (0.72 GB/s `[§6.1]`).
    pub pm_bw_random: GbPerS,
    /// PM read latency (Optane ≈ 3–10× DRAM `[§2, Izraelevitz'19]`).
    pub pm_read_latency: Ns,
    /// PM read bandwidth (interleaved DIMMs, sequential).
    pub pm_read_bw: GbPerS,

    // ---- CPU --------------------------------------------------------------
    /// Physical cores available for CAP persisting (4×16 `[Table 3]`).
    pub cpu_cores: u32,
    /// Single-stream CPU memcpy bandwidth DRAM→PM (via LLC, store path).
    pub cpu_copy_bw: GbPerS,
    /// Single-thread CLFLUSHOPT+SFENCE drain throughput (pipelined flushes
    /// of resident lines; issue-rate bound).
    pub cpu_flush_bw: GbPerS,
    /// CLFLUSHOPT issue rate over *clean* lines (flushing a clean line is
    /// nearly free; only the instruction stream costs).
    pub cpu_clflush_issue_bw: GbPerS,
    /// Saturation constant for CPU persist-thread scaling: effective speedup
    /// of `n` threads is `n·(1+k)/(n+k)`. Fitted to Figure 3(a)'s
    /// 1.20/1.34/…/1.47 curve, which plateaus at `1+k`≈1.475.
    pub cpu_persist_saturation: f64,
    /// Latency of one CLFLUSH + SFENCE pair when not pipelined (fine-grained
    /// CPU persists, e.g. per-KV-pair in pmemKV-style stores).
    pub cpu_flush_drain_latency: Ns,
    /// Cost of an L1/L2-resident CPU store or load.
    pub cpu_mem_op_latency: Ns,
    /// DRAM access latency (LLC miss).
    pub dram_latency: Ns,
    /// Cost of acquiring an uncontended lock on the CPU.
    pub cpu_lock_latency: Ns,

    // ---- Filesystem (ext4-DAX) & OS ---------------------------------------
    /// Fixed cost of a syscall (write/fsync entry).
    pub syscall_overhead: Ns,
    /// Effective bandwidth of `write()` into an ext4-DAX file followed by
    /// `fsync` (journalling + page-path overheads).
    pub fs_write_bw: GbPerS,
    /// Fixed cost of an `fsync`/`msync`.
    pub fsync_overhead: Ns,
    /// Cost of one GPUfs syscall RPC from a threadblock to the CPU
    /// (GPU→CPU doorbell, host service, return) `[GPUfs, §6.1]`.
    pub gpufs_call_overhead: Ns,
    /// GPUfs maximum file size ("only supports file sizes upto 2GB" `[§6.1]`).
    pub gpufs_file_limit: u64,

    // ---- persistence-domain mode ------------------------------------------
    /// ADR (real hardware) or eADR (projection).
    pub persist_mode: PersistMode,

    // ---- DDIO --------------------------------------------------------------
    /// Cost of toggling DDIO via the `perfctrlsts_0` I/O register
    /// (`gpm_persist_begin`/`end`) `[§5.1, Farshin ATC'20]`.
    pub ddio_toggle_overhead: Ns,

    /// RNG seed for crash-subset selection and anything stochastic.
    pub seed: u64,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            pm_capacity: 512 << 20,
            dram_capacity: 512 << 20,
            hbm_capacity: 512 << 20,

            sm_count: 72,
            cuda_cores_per_sm: 64,
            kernel_launch_overhead: Ns::from_micros(5.0),
            hbm_bw: 550.0,
            device_fence_latency: Ns(40.0),

            pcie_bw: 12.6,
            pcie_txn_overhead: Ns(60.0),
            pcie_max_inflight: 16,
            system_fence_latency: Ns(1_100.0),
            eadr_fence_latency: Ns(80.0),
            epoch_fence_latency: Ns(150.0),
            dma_init_overhead: Ns::from_micros(10.0),

            pm_bw_seq_aligned: 12.5,
            pm_bw_seq_unaligned: 3.13,
            pm_bw_random: 0.72,
            pm_read_latency: Ns(300.0),
            pm_read_bw: 30.0,

            cpu_cores: 64,
            cpu_copy_bw: 1.4,
            cpu_flush_bw: 2.5,
            cpu_clflush_issue_bw: 20.0,
            cpu_persist_saturation: 0.475,
            cpu_flush_drain_latency: Ns(450.0),
            cpu_mem_op_latency: Ns(6.0),
            dram_latency: Ns(85.0),
            cpu_lock_latency: Ns(25.0),

            syscall_overhead: Ns(700.0),
            fs_write_bw: 0.65,
            fsync_overhead: Ns::from_micros(8.0),
            gpufs_call_overhead: Ns::from_micros(35.0),
            gpufs_file_limit: 2 << 30,

            persist_mode: PersistMode::Adr,
            ddio_toggle_overhead: Ns::from_micros(2.0),

            seed: 0x6770_6d21,
        }
    }
}

impl MachineConfig {
    /// The paper's testbed with the eADR projection enabled (`GPM-eADR`,
    /// `CAP-eADR` in §6.1).
    pub fn with_eadr(mut self) -> MachineConfig {
        self.persist_mode = PersistMode::Eadr;
        self
    }

    /// Replaces the RNG seed (crash-subset selection).
    pub fn with_seed(mut self, seed: u64) -> MachineConfig {
        self.seed = seed;
        self
    }

    /// Future-platform preset: PCIe 4.0 ×16 (double the link bandwidth,
    /// slightly cheaper transactions and fences — the round trip shrinks
    /// with the faster link).
    pub fn with_pcie4(mut self) -> MachineConfig {
        self.pcie_bw *= 2.0;
        self.pcie_txn_overhead = Ns(self.pcie_txn_overhead.0 * 0.7);
        self.system_fence_latency = Ns(self.system_fence_latency.0 * 0.7);
        self
    }

    /// Future-platform preset: second-generation Optane (the paper's §3.3:
    /// ships alongside eADR). Roughly +30% bandwidth across patterns per
    /// Intel's 200-series guidance.
    pub fn with_gen2_optane(mut self) -> MachineConfig {
        self.pm_bw_seq_aligned *= 1.3;
        self.pm_bw_seq_unaligned *= 1.3;
        self.pm_bw_random *= 1.3;
        self.pm_read_bw *= 1.3;
        self
    }

    /// Effective speedup of `n` CPU threads persisting in parallel relative
    /// to one thread. Saturates at `1 + cpu_persist_saturation` ≈ 1.475,
    /// matching Figure 3(a).
    ///
    /// # Examples
    ///
    /// ```
    /// use gpm_sim::MachineConfig;
    /// let cfg = MachineConfig::default();
    /// assert!((cfg.cpu_persist_scaling(1) - 1.0).abs() < 1e-9);
    /// assert!(cfg.cpu_persist_scaling(64) < 1.48);
    /// assert!(cfg.cpu_persist_scaling(64) > cfg.cpu_persist_scaling(2));
    /// ```
    pub fn cpu_persist_scaling(&self, n_threads: u32) -> f64 {
        let n = n_threads.max(1) as f64;
        let k = self.cpu_persist_saturation;
        n * (1.0 + k) / (n + k)
    }

    /// Number of thread contexts executing compute simultaneously (CUDA
    /// cores across all SMs).
    pub fn total_cuda_cores(&self) -> u32 {
        self.sm_count * self.cuda_cores_per_sm
    }

    /// The system-scope fence latency under the current persistence mode.
    pub fn effective_system_fence_latency(&self) -> Ns {
        match self.persist_mode {
            PersistMode::Adr => self.system_fence_latency,
            PersistMode::Eadr => self.eadr_fence_latency,
        }
    }

    /// Time for the CPU to move `bytes` at bandwidth `bw` (GB/s).
    pub fn transfer_time(bytes: u64, bw: GbPerS) -> Ns {
        Ns(bytes as f64 / bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_adr() {
        let cfg = MachineConfig::default();
        assert_eq!(cfg.persist_mode, PersistMode::Adr);
        assert_eq!(
            cfg.effective_system_fence_latency(),
            cfg.system_fence_latency
        );
    }

    #[test]
    fn eadr_shortens_fence() {
        let cfg = MachineConfig::default().with_eadr();
        assert_eq!(cfg.persist_mode, PersistMode::Eadr);
        assert!(cfg.effective_system_fence_latency() < cfg.system_fence_latency);
    }

    #[test]
    fn persist_scaling_matches_fig3a() {
        // Figure 3(a): 1.00, 1.20, 1.34, 1.42, 1.46, 1.47, 1.46 for
        // 1, 2, 4, 6, 16, 32, 64 threads.
        let cfg = MachineConfig::default();
        let expect = [
            (1, 1.00),
            (2, 1.20),
            (4, 1.32),
            (6, 1.37),
            (16, 1.43),
            (32, 1.45),
            (64, 1.46),
        ];
        for (n, e) in expect {
            let got = cfg.cpu_persist_scaling(n);
            assert!(
                (got - e).abs() < 0.08,
                "scaling({n}) = {got}, expected ≈ {e}"
            );
        }
    }

    #[test]
    fn persist_scaling_is_monotone_and_bounded() {
        let cfg = MachineConfig::default();
        let mut prev = 0.0;
        for n in 1..=256 {
            let s = cfg.cpu_persist_scaling(n);
            assert!(s >= prev);
            assert!(s <= 1.0 + cfg.cpu_persist_saturation + 1e-9);
            prev = s;
        }
    }

    #[test]
    fn transfer_time_is_linear() {
        let t1 = MachineConfig::transfer_time(1 << 20, 1.0);
        let t2 = MachineConfig::transfer_time(2 << 20, 1.0);
        assert!((t2.0 - 2.0 * t1.0).abs() < 1e-6);
        // 1 GiB at 1 GB/s ≈ 1.07 s.
        assert!((MachineConfig::transfer_time(1 << 30, 1.0).as_secs() - 1.073).abs() < 0.01);
    }

    #[test]
    fn builder_style_setters() {
        let cfg = MachineConfig::default().with_seed(42);
        assert_eq!(cfg.seed, 42);
    }

    #[test]
    fn future_platform_presets() {
        let base = MachineConfig::default();
        let p4 = MachineConfig::default().with_pcie4();
        assert!((p4.pcie_bw - 2.0 * base.pcie_bw).abs() < 1e-9);
        assert!(p4.system_fence_latency < base.system_fence_latency);
        let g2 = MachineConfig::default().with_gen2_optane();
        assert!(g2.pm_bw_random > base.pm_bw_random);
        assert!(g2.pm_bw_seq_aligned > base.pm_bw_seq_aligned);
        // Presets compose.
        let all = MachineConfig::default()
            .with_pcie4()
            .with_gen2_optane()
            .with_eadr();
        assert_eq!(all.persist_mode, PersistMode::Eadr);
        assert!(all.pcie_bw > base.pcie_bw && all.pm_bw_random > base.pm_bw_random);
    }
}
