//! Prefix sum (PS) with native persistence (§4.3, Figure 8).
//!
//! The input array is divided among threadblocks; each thread persists the
//! partial (within-block inclusive prefix) sum for one element. Following
//! the paper's recovery protocol, the *last* thread of a block persists its
//! partial sum only after a block barrier — its value is the sentinel: if
//! it is present after a crash, the whole block's partials are known
//! durable and the block is skipped on resume. A second stage combines
//! per-block totals into block offsets, and a third produces the final
//! prefix array on PM under the same sentinel protocol.

use gpm_cap::{cap_persist_region, flush_from_cpu, CapFlavor};
use gpm_core::{gpm_map, gpm_persist_begin, gpm_persist_end, GpmThreadExt, GpmWarpExt};
use gpm_gpu::{
    launch_with_gauge, FuelGauge, Kernel, LaunchConfig, LaunchError, ThreadCtx, WarpCtx,
};
use gpm_sim::cpu::CpuCtx;
use gpm_sim::{
    Addr, CrashPolicy, CrashSchedule, Machine, Ns, OracleVerdict, SimError, SimResult, HOST_WRITER,
};

use crate::metrics::{metered, Mode, RunMetrics};
use crate::oracle::RecoveryOracle;

/// Threads (elements) per block.
pub const BLOCK: u64 = 256;

/// Parameters.
#[derive(Debug, Clone, Copy)]
pub struct PsParams {
    /// Elements (must be a multiple of [`BLOCK`]).
    pub n: u64,
    /// CPU threads for CAP-mm persisting.
    pub cap_threads: u32,
}

impl Default for PsParams {
    fn default() -> PsParams {
        PsParams {
            n: 1 << 18,
            cap_threads: 32,
        }
    }
}

impl PsParams {
    /// Small configuration for unit tests.
    pub fn quick() -> PsParams {
        PsParams {
            n: 4096,
            ..PsParams::default()
        }
    }

    fn blocks(&self) -> u64 {
        self.n / BLOCK
    }
}

/// The prefix-sum workload.
#[derive(Debug)]
pub struct PsWorkload {
    /// Parameters of this instance.
    pub params: PsParams,
}

struct PsState {
    pm_input: u64,
    hbm_input: u64,
    pm_p_sums: u64,
    hbm_p_sums: u64,
    pm_offsets: u64, // blocks × u64 + flag word after them
    hbm_offsets: u64,
    pm_out: u64,
    staging_dram: u64,
    cap_pm: u64,
}

fn input_value(i: u64) -> u64 {
    1 + gpm_pmkv::hash64(i ^ 0x5053) % 100
}

/// Shared (`__shared__`) state of the partial-sum kernel.
#[derive(Debug, Default)]
pub struct PsShared {
    vals: Vec<u64>,
    done: bool,
}

/// Stage-1 kernel: within-block inclusive prefix, persisted per Figure 8.
struct PartialSumKernel {
    input: u64,
    pm_p_sums: u64,
    hbm_p_sums: u64,
    n: u64,
    to_pm: bool,
    persist: bool,
}

impl Kernel for PartialSumKernel {
    type State = ();
    type Shared = PsShared;

    fn phases(&self) -> u32 {
        4
    }

    fn reset_shared(&self, shared: &mut PsShared) {
        // Keep the `vals` allocation: the engine reuses one `PsShared`
        // across every block of the launch.
        shared.vals.clear();
        shared.done = false;
    }

    fn run(
        &self,
        phase: u32,
        ctx: &mut ThreadCtx<'_>,
        _state: &mut (),
        shared: &mut PsShared,
    ) -> SimResult<()> {
        let gid = ctx.global_id();
        if gid >= self.n {
            return Ok(());
        }
        let t = ctx.thread_in_block() as u64;
        let last = (ctx.block_dim() - 1) as u64;
        match phase {
            0 => {
                // Figure 8 line 3: if the block's sentinel partial sum is
                // already on PM, the whole block survived a previous run.
                if t == 0 && self.to_pm {
                    let block_last = ctx.block_id() as u64 * BLOCK + last;
                    shared.done = ctx.ld_u64(Addr::pm(self.pm_p_sums + block_last * 8))? != 0;
                }
                let v = ctx.ld_u32(Addr::hbm(self.input + gid * 4))? as u64;
                shared.vals.push(v);
                Ok(())
            }
            1 => {
                // Block-cooperative scan (done by one lane here; the real
                // kernel tree-reduces — the persisted values are identical).
                if t == 0 && !shared.done {
                    ctx.compute(Ns(2.0) * BLOCK as f64);
                    let mut running = 0u64;
                    for v in shared.vals.iter_mut() {
                        running += *v;
                        *v = running;
                    }
                }
                Ok(())
            }
            2 => {
                // All but the last thread persist their partial sums.
                if shared.done || t == last {
                    return Ok(());
                }
                let v = shared.vals[t as usize];
                ctx.st_u64(Addr::hbm(self.hbm_p_sums + gid * 8), v)?;
                if self.to_pm {
                    ctx.st_u64(Addr::pm(self.pm_p_sums + gid * 8), v)?;
                    if self.persist {
                        ctx.gpm_persist()?;
                    }
                }
                Ok(())
            }
            _ => {
                // After the barrier, the last thread persists the sentinel.
                if t != last {
                    return Ok(());
                }
                if shared.done {
                    // Resumed block: refresh the volatile mirror only.
                    return Ok(());
                }
                let v = shared.vals[t as usize];
                ctx.st_u64(Addr::hbm(self.hbm_p_sums + gid * 8), v)?;
                if self.to_pm {
                    ctx.st_u64(Addr::pm(self.pm_p_sums + gid * 8), v)?;
                    if self.persist {
                        ctx.gpm_persist()?;
                    }
                }
                Ok(())
            }
        }
    }

    fn run_warp(
        &self,
        phase: u32,
        ctx: &mut WarpCtx<'_>,
        _states: &mut [()],
        shared: &mut PsShared,
    ) -> SimResult<bool> {
        let lanes = ctx.lanes() as u64;
        let first = ctx.first_global_id();
        if first + lanes > self.n {
            return Ok(false);
        }
        let t0 = first - ctx.block_id() as u64 * ctx.block_dim() as u64;
        // The warp holding the block's last thread runs the divergent
        // sentinel protocol (phases 2/3 skip or isolate that thread).
        let holds_last = t0 + lanes == ctx.block_dim() as u64;
        match phase {
            0 => {
                if t0 == 0 && self.to_pm {
                    return Ok(false); // thread 0 also probes the sentinel
                }
                let mut v = vec![0u32; lanes as usize];
                ctx.ld_u32_lanes(Addr::hbm(self.input + first * 4), 4, &mut v)?;
                shared.vals.extend(v.iter().map(|&x| x as u64));
                Ok(true)
            }
            1 => {
                // The block scan runs on thread 0 alone; every other warp
                // is a uniform no-op.
                Ok(t0 != 0)
            }
            2 => {
                if shared.done {
                    return Ok(true); // resumed block: every lane skips
                }
                if holds_last {
                    return Ok(false);
                }
                let vals = &shared.vals[t0 as usize..(t0 + lanes) as usize];
                ctx.st_u64_lanes(Addr::hbm(self.hbm_p_sums + first * 8), 8, vals)?;
                if self.to_pm {
                    ctx.st_u64_lanes(Addr::pm(self.pm_p_sums + first * 8), 8, vals)?;
                    if self.persist {
                        ctx.gpm_persist()?;
                    }
                }
                Ok(true)
            }
            // The sentinel phase touches only the last thread.
            _ => Ok(!holds_last),
        }
    }

    fn warp_fuel(&self, phase: u32) -> Option<u64> {
        Some(match phase {
            0 => 2,                                                   // sentinel probe + input load
            1 => 0,                                                   // scan is pure compute
            _ => 1 + u64::from(self.to_pm) + u64::from(self.persist), // HBM + PM store + fence
        })
    }
}

/// Stage-3 kernel: final prefix = block offset + partial, same protocol.
struct FinalKernel {
    hbm_p_sums: u64,
    hbm_offsets: u64,
    pm_out: u64,
    n: u64,
    to_pm: bool,
    persist: bool,
}

impl Kernel for FinalKernel {
    type State = ();
    type Shared = PsShared;

    fn phases(&self) -> u32 {
        2
    }

    fn reset_shared(&self, shared: &mut PsShared) {
        shared.vals.clear();
        shared.done = false;
    }

    fn run(
        &self,
        phase: u32,
        ctx: &mut ThreadCtx<'_>,
        _state: &mut (),
        shared: &mut PsShared,
    ) -> SimResult<()> {
        let gid = ctx.global_id();
        if gid >= self.n {
            return Ok(());
        }
        let t = ctx.thread_in_block() as u64;
        let last = (ctx.block_dim() - 1) as u64;
        let block = ctx.block_id() as u64;
        if phase == 0 {
            if t == 0 && self.to_pm {
                let block_last = block * BLOCK + last;
                shared.done = ctx.ld_u64(Addr::pm(self.pm_out + block_last * 8))? != 0;
            }
            if shared.done || t == last {
                return Ok(());
            }
        } else if shared.done || t != last {
            return Ok(());
        }
        let partial = ctx.ld_u64(Addr::hbm(self.hbm_p_sums + gid * 8))?;
        let offset = ctx.ld_u64(Addr::hbm(self.hbm_offsets + block * 8))?;
        if self.to_pm {
            ctx.st_u64(Addr::pm(self.pm_out + gid * 8), offset + partial)?;
            if self.persist {
                ctx.gpm_persist()?;
            }
        } else {
            ctx.st_u64(Addr::hbm(self.hbm_p_sums + gid * 8), offset + partial)?;
        }
        Ok(())
    }

    fn run_warp(
        &self,
        phase: u32,
        ctx: &mut WarpCtx<'_>,
        _states: &mut [()],
        shared: &mut PsShared,
    ) -> SimResult<bool> {
        let lanes = ctx.lanes() as u64;
        let first = ctx.first_global_id();
        if first + lanes > self.n {
            return Ok(false);
        }
        let t0 = first - ctx.block_id() as u64 * ctx.block_dim() as u64;
        let holds_last = t0 + lanes == ctx.block_dim() as u64;
        if phase == 0 {
            if t0 == 0 && self.to_pm {
                return Ok(false); // thread 0 also probes the sentinel
            }
            if shared.done {
                return Ok(true); // resumed block: every lane skips
            }
            if holds_last {
                return Ok(false); // the last thread defers to phase 1
            }
        } else {
            // Only the last thread writes in the sentinel phase.
            return Ok(!holds_last);
        }
        let n = lanes as usize;
        let mut partial = vec![0u64; n];
        let mut offset = vec![0u64; n];
        ctx.ld_u64_lanes(Addr::hbm(self.hbm_p_sums + first * 8), 8, &mut partial)?;
        // Every lane reads the same block offset word (stride 0); the
        // coalescer dedups it to one transaction, as in the per-lane walk.
        let block = ctx.block_id() as u64;
        ctx.ld_u64_lanes(Addr::hbm(self.hbm_offsets + block * 8), 0, &mut offset)?;
        let out: Vec<u64> = (0..n).map(|i| offset[i] + partial[i]).collect();
        if self.to_pm {
            ctx.st_u64_lanes(Addr::pm(self.pm_out + first * 8), 8, &out)?;
            if self.persist {
                ctx.gpm_persist()?;
            }
        } else {
            ctx.st_u64_lanes(Addr::hbm(self.hbm_p_sums + first * 8), 8, &out)?;
        }
        Ok(true)
    }

    fn warp_fuel(&self, phase: u32) -> Option<u64> {
        // Worst lane of phase 0 is thread 0 under GPM: sentinel probe, two
        // gathers, the store and the persist fence.
        let _ = phase;
        Some(3 + u64::from(self.to_pm) + u64::from(self.persist))
    }
}

impl PsWorkload {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a multiple of [`BLOCK`].
    pub fn new(params: PsParams) -> PsWorkload {
        assert!(
            params.n.is_multiple_of(BLOCK),
            "n must be a multiple of the block size"
        );
        PsWorkload { params }
    }

    fn setup(&self, machine: &mut Machine, mode: Mode) -> SimResult<PsState> {
        let n = self.params.n;
        let blocks = self.params.blocks();
        let pm_input = gpm_map(machine, "/pm/ps/input", n * 4, true)?.offset;
        let pm_p_sums = gpm_map(machine, "/pm/ps/p_sums", n * 8, true)?.offset;
        let pm_offsets = gpm_map(machine, "/pm/ps/offsets", blocks * 8 + 8, true)?.offset;
        let pm_out = gpm_map(machine, "/pm/ps/out", n * 8, true)?.offset;
        let hbm_input = machine.alloc_hbm(n * 4)?;
        let hbm_p_sums = machine.alloc_hbm(n * 8)?;
        let hbm_offsets = machine.alloc_hbm(blocks * 8)?;
        let staging_dram = machine.alloc_dram(n * 8)?;
        let cap_pm = if matches!(mode, Mode::CapFs | Mode::CapMm) {
            machine.alloc_pm(n * 8)?
        } else {
            0
        };
        let mut input = Vec::with_capacity((n * 4) as usize);
        for i in 0..n {
            input.extend_from_slice(&(input_value(i) as u32).to_le_bytes());
        }
        machine.host_write(Addr::pm(pm_input), &input)?;
        machine.host_write(Addr::hbm(hbm_input), &input)?;
        machine.clock.advance(Ns(
            (n * 4) as f64 / machine.cfg.pm_read_bw.min(machine.cfg.pcie_bw)
        ));
        Ok(PsState {
            pm_input,
            hbm_input,
            pm_p_sums,
            hbm_p_sums,
            pm_offsets,
            hbm_offsets,
            pm_out,
            staging_dram,
            cap_pm,
        })
    }

    /// Stage 2: derive block offsets from the (persisted) per-block totals,
    /// persist them with a trailing flag, and mirror them into HBM.
    fn compute_offsets(&self, machine: &mut Machine, st: &PsState, to_pm: bool) -> SimResult<()> {
        let blocks = self.params.blocks();
        let mut cpu = CpuCtx::new(machine, HOST_WRITER);
        if to_pm && cpu.load_u64(Addr::pm(st.pm_offsets + blocks * 8))? == 1 {
            // Offsets already committed by a previous run.
            let t = cpu.elapsed();
            machine.clock.advance(t);
            let mut buf = vec![0u8; (blocks * 8) as usize];
            machine.read(Addr::pm(st.pm_offsets), &mut buf)?;
            machine.host_write(Addr::hbm(st.hbm_offsets), &buf)?;
            return Ok(());
        }
        let mut running = 0u64;
        let mut flat = Vec::with_capacity((blocks * 8) as usize);
        for b in 0..blocks {
            flat.extend_from_slice(&running.to_le_bytes());
            let src = if to_pm {
                Addr::pm(st.pm_p_sums + ((b + 1) * BLOCK - 1) * 8)
            } else {
                Addr::hbm(st.hbm_p_sums + ((b + 1) * BLOCK - 1) * 8)
            };
            running += cpu.load_u64(src)?;
        }
        if to_pm {
            cpu.store(Addr::pm(st.pm_offsets), &flat)?;
            cpu.persist(st.pm_offsets, blocks * 8);
            cpu.store(Addr::pm(st.pm_offsets + blocks * 8), &1u64.to_le_bytes())?;
            cpu.persist(st.pm_offsets + blocks * 8, 8);
        }
        let t = cpu.elapsed();
        machine.clock.advance(t);
        machine.host_write(Addr::hbm(st.hbm_offsets), &flat)?;
        Ok(())
    }

    fn run_pipeline(
        &self,
        machine: &mut Machine,
        st: &PsState,
        mode: Mode,
        gauge: &mut FuelGauge,
    ) -> Result<(), LaunchError> {
        let p = &self.params;
        let n = p.n;
        let cfg = LaunchConfig::for_elements(n, BLOCK as u32);
        let to_pm = matches!(mode, Mode::Gpm | Mode::GpmNdp);
        let persist = mode == Mode::Gpm;

        let k1 = PartialSumKernel {
            input: st.hbm_input,
            pm_p_sums: st.pm_p_sums,
            hbm_p_sums: st.hbm_p_sums,
            n,
            to_pm,
            persist,
        };
        if persist {
            gpm_persist_begin(machine);
        }
        let res = launch_with_gauge(machine, cfg, &k1, gauge);
        if persist {
            gpm_persist_end(machine);
        }
        let _ = res?;
        match mode {
            Mode::Gpm => {}
            Mode::GpmNdp => {
                flush_from_cpu(machine, st.pm_p_sums, n * 8, p.cap_threads);
            }
            Mode::CapFs | Mode::CapMm => {
                let flavor = if mode == Mode::CapFs {
                    CapFlavor::Fs
                } else {
                    CapFlavor::Mm {
                        threads: p.cap_threads,
                    }
                };
                cap_persist_region(
                    machine,
                    flavor,
                    st.hbm_p_sums,
                    st.staging_dram,
                    st.cap_pm,
                    n * 8,
                )
                .map_err(LaunchError::Sim)?;
            }
            _ => {
                return Err(LaunchError::Sim(SimError::Invalid(
                    "mode handled elsewhere",
                )))
            }
        }

        self.compute_offsets(machine, st, to_pm)?;

        let k3 = FinalKernel {
            hbm_p_sums: st.hbm_p_sums,
            hbm_offsets: st.hbm_offsets,
            pm_out: st.pm_out,
            n,
            to_pm,
            persist,
        };
        if persist {
            gpm_persist_begin(machine);
        }
        let res = launch_with_gauge(machine, cfg, &k3, gauge);
        if persist {
            gpm_persist_end(machine);
        }
        let _ = res?;
        match mode {
            Mode::Gpm => {}
            Mode::GpmNdp => {
                flush_from_cpu(machine, st.pm_out, n * 8, p.cap_threads);
            }
            Mode::CapFs | Mode::CapMm => {
                let flavor = if mode == Mode::CapFs {
                    CapFlavor::Fs
                } else {
                    CapFlavor::Mm {
                        threads: p.cap_threads,
                    }
                };
                cap_persist_region(
                    machine,
                    flavor,
                    st.hbm_p_sums,
                    st.staging_dram,
                    st.cap_pm,
                    n * 8,
                )
                .map_err(LaunchError::Sim)?;
            }
            _ => unreachable!(),
        }
        Ok(())
    }

    fn reference(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.params.n as usize);
        let mut running = 0u64;
        for i in 0..self.params.n {
            running += input_value(i);
            out.push(running);
        }
        out
    }

    fn verify(&self, machine: &Machine, st: &PsState, mode: Mode) -> SimResult<bool> {
        let reference = self.reference();
        let base = match mode {
            Mode::Gpm | Mode::GpmNdp => st.pm_out,
            Mode::CapFs | Mode::CapMm => st.cap_pm,
            _ => return Ok(false),
        };
        for i in (0..self.params.n).step_by(61) {
            if machine.read_u64(Addr::pm(base + i * 8))? != reference[i as usize] {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Runs the workload under `mode`.
    ///
    /// # Errors
    ///
    /// Fails for unsupported modes (GPUfs deadlocks on per-thread writes)
    /// or on platform errors.
    pub fn run(&self, machine: &mut Machine, mode: Mode) -> SimResult<RunMetrics> {
        if mode == Mode::CpuPm {
            return self.run_cpu(machine);
        }
        if mode == Mode::Gpufs {
            return Err(SimError::Invalid(
                "GPUfs deadlocks on per-thread fine-grained writes (§6.1)",
            ));
        }
        let st = self.setup(machine, mode)?;
        let mut metrics = metered(machine, |m| {
            self.run_pipeline(m, &st, mode, &mut FuelGauge::Unlimited)
                .map_err(|e| match e {
                    LaunchError::Sim(e) => e,
                    LaunchError::Crashed(_) => SimError::Crashed,
                })?;
            Ok::<bool, SimError>(true)
        })?;
        metrics.verified = self.verify(machine, &st, mode)?;
        Ok(metrics)
    }

    /// CPU-with-PM baseline (Figure 1b): a scan persisting each output.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn run_cpu(&self, machine: &mut Machine) -> SimResult<RunMetrics> {
        let st = self.setup(machine, Mode::Gpm)?;
        let reference = self.reference();
        let mut metrics = metered(machine, |m| {
            let mut serial = Ns::ZERO;
            let mut running = 0u64;
            for i in 0..self.params.n {
                let mut cpu = CpuCtx::new(m, HOST_WRITER);
                running += input_value(i);
                cpu.compute(Ns(3.0));
                cpu.store(Addr::pm(st.pm_out + i * 8), &running.to_le_bytes())?;
                // Line-granular flushing: one CLFLUSH per 8 outputs.
                if i % 8 == 7 || i + 1 == self.params.n {
                    cpu.persist(st.pm_out + (i - i % 8) * 8, 64);
                }
                serial += cpu.elapsed();
            }
            let t = serial / m.cfg.cpu_persist_scaling(m.cfg.cpu_cores);
            m.clock.advance(t);
            Ok::<bool, SimError>(true)
        })?;
        metrics.verified = {
            let mut ok = true;
            for i in (0..self.params.n).step_by(61) {
                if machine.read_u64(Addr::pm(st.pm_out + i * 8))? != reference[i as usize] {
                    ok = false;
                    break;
                }
            }
            ok
        };
        Ok(metrics)
    }

    /// Post-crash resume: reloads the input and surviving partial sums into
    /// HBM, reruns the pipeline (completed blocks are skipped), verifies.
    fn resume(&self, machine: &mut Machine, st: &PsState) -> SimResult<RunMetrics> {
        let t0 = machine.clock.now();
        let n = self.params.n;
        // Reload the input and the surviving partial sums into HBM.
        let mut buf = vec![0u8; (n * 4) as usize];
        machine.read(Addr::pm(st.pm_input), &mut buf)?;
        machine.host_write(Addr::hbm(st.hbm_input), &buf)?;
        let mut ps = vec![0u8; (n * 8) as usize];
        machine.read(Addr::pm(st.pm_p_sums), &mut ps)?;
        machine.host_write(Addr::hbm(st.hbm_p_sums), &ps)?;
        machine.clock.advance(Ns(
            (n * 12) as f64 / machine.cfg.pm_read_bw.min(machine.cfg.pcie_bw)
        ));
        let resume_setup = machine.clock.now() - t0;

        let mut metrics = metered(machine, |m| {
            self.run_pipeline(m, st, Mode::Gpm, &mut FuelGauge::Unlimited)
                .map_err(|e| match e {
                    LaunchError::Sim(e) => e,
                    LaunchError::Crashed(_) => SimError::Crashed,
                })?;
            Ok::<bool, SimError>(true)
        })?;
        metrics.recovery = Some(resume_setup);
        metrics.verified = self.verify(machine, st, Mode::Gpm)?;
        Ok(metrics)
    }
}

impl RecoveryOracle for PsWorkload {
    fn name(&self) -> &'static str {
        "PS"
    }

    fn record(&mut self, machine: &mut Machine) -> SimResult<CrashSchedule> {
        let st = self.setup(machine, Mode::Gpm)?;
        let mut gauge = FuelGauge::record();
        crate::oracle::expect_clean(self.run_pipeline(machine, &st, Mode::Gpm, &mut gauge))?;
        Ok(gauge.into_schedule().expect("recording gauge"))
    }

    fn run_case(
        &mut self,
        machine: &mut Machine,
        fuel: u64,
        policy: CrashPolicy,
    ) -> SimResult<OracleVerdict> {
        let st = self.setup(machine, Mode::Gpm)?;
        let res = self.run_pipeline(
            machine,
            &st,
            Mode::Gpm,
            &mut FuelGauge::crash_with_policy(fuel, policy),
        );
        crate::oracle::settle_crash(machine, policy, res)?;
        let metrics = self.resume(machine, &st)?;
        Ok(if metrics.verified {
            OracleVerdict::Pass
        } else {
            OracleVerdict::Fail("resumed prefix sums diverge from reference".into())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> PsWorkload {
        PsWorkload::new(PsParams::quick())
    }

    #[test]
    fn prefix_sum_verifies_under_all_modes() {
        for mode in [
            Mode::Gpm,
            Mode::GpmNdp,
            Mode::CapFs,
            Mode::CapMm,
            Mode::CpuPm,
        ] {
            let mut m = Machine::default();
            let r = quick().run(&mut m, mode).unwrap();
            assert!(r.verified, "{mode:?}");
        }
    }

    #[test]
    fn gpm_beats_cap_and_cpu() {
        let t = |mode| {
            let mut m = Machine::default();
            quick().run(&mut m, mode).unwrap().elapsed
        };
        let gpm = t(Mode::Gpm);
        assert!(t(Mode::CapFs) > gpm);
        assert!(t(Mode::CpuPm) > gpm);
    }

    #[test]
    fn crash_resume_skips_completed_blocks() {
        let w = quick();
        let mut m = Machine::default();
        let st = w.setup(&mut m, Mode::Gpm).unwrap();
        let policy = CrashPolicy::Random(4_000);
        let res = w.run_pipeline(
            &mut m,
            &st,
            Mode::Gpm,
            &mut FuelGauge::crash_with_policy(4_000, policy),
        );
        crate::oracle::settle_crash(&mut m, policy, res).unwrap();
        let r = w.resume(&mut m, &st).unwrap();
        assert!(r.verified);

        // A clean run writes every partial to PM; the resumed run must have
        // written less (completed blocks were skipped).
        let mut m2 = Machine::default();
        let clean = quick().run(&mut m2, Mode::Gpm).unwrap();
        assert!(
            r.pm_write_bytes_gpu < clean.pm_write_bytes_gpu,
            "resume rewrote everything: {} vs {}",
            r.pm_write_bytes_gpu,
            clean.pm_write_bytes_gpu
        );
    }

    #[test]
    fn sentinel_ordering_holds_under_crash() {
        // Whenever a block's last partial is present on PM after a crash,
        // every other partial of that block must be present too (Figure 8's
        // invariant).
        for fuel in [1_000u64, 5_000, 20_000] {
            let mut m = Machine::default();
            let w = quick();
            let st_offsets = {
                let st = w.setup(&mut m, Mode::Gpm).unwrap();
                match w.run_pipeline(&mut m, &st, Mode::Gpm, &mut FuelGauge::crash(fuel)) {
                    Ok(()) | Err(LaunchError::Crashed(_)) => {}
                    Err(LaunchError::Sim(e)) => panic!("{e}"),
                }
                m.crash();
                st
            };
            let reference = w.reference();
            for b in 0..w.params.blocks() {
                let last = (b + 1) * BLOCK - 1;
                let sentinel = m
                    .read_u64(Addr::pm(st_offsets.pm_p_sums + last * 8))
                    .unwrap();
                if sentinel != 0 {
                    for t in 0..BLOCK {
                        let i = b * BLOCK + t;
                        let v = m.read_u64(Addr::pm(st_offsets.pm_p_sums + i * 8)).unwrap();
                        let block_base = if b == 0 {
                            0
                        } else {
                            reference[(b * BLOCK - 1) as usize]
                        };
                        assert_eq!(
                            v,
                            reference[i as usize] - block_base,
                            "fuel={fuel} block={b} thread={t}: sentinel present but partial missing"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn non_multiple_rejected() {
        PsWorkload::new(PsParams {
            n: 1000,
            ..PsParams::default()
        });
    }
}
