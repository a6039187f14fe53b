//! SRAD: speckle-reducing anisotropic diffusion with native persistence
//! (§4.3).
//!
//! Rodinia's SRAD denoises an ultrasound image by iteratively computing a
//! per-pixel diffusion coefficient and diffusing the image with it. As in
//! the paper, the output image and the diffusion-coefficient matrix are
//! persisted in place while computing (Table 1), and an iteration counter
//! lets the kernel resume after a crash. The image is double-buffered so
//! results are independent of thread execution order.

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

/// Parameters.
#[derive(Debug, Clone, Copy)]
pub struct SradParams {
    /// Image edge length (image is `edge × edge` f32).
    pub edge: u64,
    /// Diffusion iterations.
    pub iterations: u32,
    /// Diffusion strength.
    pub lambda: f32,
    /// CPU threads for CAP-mm persisting.
    pub cap_threads: u32,
}

impl Default for SradParams {
    fn default() -> SradParams {
        SradParams {
            edge: 256,
            iterations: 4,
            lambda: 0.5,
            cap_threads: 32,
        }
    }
}

impl SradParams {
    /// Small configuration for unit tests.
    pub fn quick() -> SradParams {
        SradParams {
            edge: 48,
            iterations: 3,
            ..SradParams::default()
        }
    }

    fn pixels(&self) -> u64 {
        self.edge * self.edge
    }
}

/// The SRAD workload.
#[derive(Debug)]
pub struct SradWorkload {
    /// Parameters of this instance.
    pub params: SradParams,
}

struct SradState {
    hbm_img_a: u64,
    hbm_img_b: u64,
    hbm_coeff: u64,
    /// Double-buffered persistent image: the output of iteration `k` lives
    /// in buffer `(k + 1) % 2`, so an interrupted iteration never corrupts
    /// the last committed image.
    pm_img: [u64; 2],
    pm_coeff: u64,
    pm_iter: u64,
    staging_dram: u64,
    cap_pm: u64,
}

fn init_pixel(x: u64, y: u64) -> f32 {
    100.0 + ((gpm_pmkv::hash64(x ^ (y << 32) ^ 0x5AAD) % 1000) as f32) / 10.0
}

/// Diffusion coefficient from the local gradient magnitude.
fn coeff(center: f32, up: f32, down: f32, left: f32, right: f32) -> f32 {
    let g2 = (up - center).powi(2)
        + (down - center).powi(2)
        + (left - center).powi(2)
        + (right - center).powi(2);
    let q = g2 / (center * center).max(1e-6);
    1.0 / (1.0 + q)
}

fn diffuse(center: f32, up: f32, down: f32, left: f32, right: f32, c: f32, lambda: f32) -> f32 {
    center + 0.25 * lambda * c * (up + down + left + right - 4.0 * center)
}

/// One diffusion sweep. Every lane issues the same operation sequence —
/// the clamped neighbour gathers still load (only the *address* clamps at
/// the image border), so interior *row-aligned* warps are uniform and run
/// vectorized; warps touching the border or straddling rows diverge in
/// address pattern and fall back to the per-lane walk. The kernel runs
/// under the recovery oracle's crash gauges, so `warp_fuel` must bound the
/// per-lane operation count exactly.
struct SradIterKernel {
    e: u64,
    lambda: f32,
    src: u64,
    dst: u64,
    hbm_coeff: u64,
    pm_coeff: u64,
    pm_img: u64,
    to_pm: bool,
    persist: bool,
}

impl Kernel for SradIterKernel {
    type State = ();
    type Shared = ();

    fn run(&self, _phase: u32, ctx: &mut ThreadCtx<'_>, _: &mut (), _: &mut ()) -> SimResult<()> {
        let e = self.e;
        let i = ctx.global_id();
        if i >= e * e {
            return Ok(());
        }
        let (x, y) = (i % e, i / e);
        ctx.compute(Ns(35.0));
        let at = |ctx: &mut ThreadCtx<'_>, xx: i64, yy: i64| -> SimResult<f32> {
            let xx = xx.clamp(0, e as i64 - 1) as u64;
            let yy = yy.clamp(0, e as i64 - 1) as u64;
            ctx.ld_f32(Addr::hbm(self.src + (yy * e + xx) * 4))
        };
        let (xi, yi) = (x as i64, y as i64);
        let ctr = at(ctx, xi, yi)?;
        let up = at(ctx, xi, yi - 1)?;
        let down = at(ctx, xi, yi + 1)?;
        let left = at(ctx, xi - 1, yi)?;
        let right = at(ctx, xi + 1, yi)?;
        let c = coeff(ctr, up, down, left, right);
        let out = diffuse(ctr, up, down, left, right, c, self.lambda);
        ctx.st_f32(Addr::hbm(self.dst + i * 4), out)?;
        ctx.st_f32(Addr::hbm(self.hbm_coeff + i * 4), c)?;
        if self.to_pm {
            // Native persistence: coefficient and output pixel go to PM
            // as they are computed.
            ctx.st_f32(Addr::pm(self.pm_coeff + i * 4), c)?;
            ctx.st_f32(Addr::pm(self.pm_img + i * 4), out)?;
            if self.persist {
                ctx.gpm_persist()?;
            }
        }
        Ok(())
    }

    fn run_warp(
        &self,
        _phase: u32,
        ctx: &mut WarpCtx<'_>,
        _: &mut [()],
        _: &mut (),
    ) -> SimResult<bool> {
        let e = self.e;
        let lanes = ctx.lanes() as u64;
        let first = ctx.first_global_id();
        let (x0, y) = (first % e, first / e);
        // Vectorize warps that sit on one interior row: border lanes clamp
        // neighbour addresses (breaking the uniform stride) and warps that
        // straddle a row boundary gather from two rows.
        if x0 + lanes > e || first + lanes > e * e {
            return Ok(false);
        }
        if y == 0 || y + 1 >= e || x0 == 0 || x0 + lanes >= e {
            return Ok(false);
        }
        ctx.compute(Ns(35.0));
        let n = lanes as usize;
        let row = |yy: u64, xx: u64| (yy * e + xx) * 4;
        let mut ctr = vec![0.0f32; n];
        let mut up = vec![0.0f32; n];
        let mut down = vec![0.0f32; n];
        let mut left = vec![0.0f32; n];
        let mut right = vec![0.0f32; n];
        ctx.ld_f32_lanes(Addr::hbm(self.src + row(y, x0)), 4, &mut ctr)?;
        ctx.ld_f32_lanes(Addr::hbm(self.src + row(y - 1, x0)), 4, &mut up)?;
        ctx.ld_f32_lanes(Addr::hbm(self.src + row(y + 1, x0)), 4, &mut down)?;
        ctx.ld_f32_lanes(Addr::hbm(self.src + row(y, x0 - 1)), 4, &mut left)?;
        ctx.ld_f32_lanes(Addr::hbm(self.src + row(y, x0 + 1)), 4, &mut right)?;
        let mut cs = vec![0.0f32; n];
        let mut outs = vec![0.0f32; n];
        for i in 0..n {
            cs[i] = coeff(ctr[i], up[i], down[i], left[i], right[i]);
            outs[i] = diffuse(
                ctr[i],
                up[i],
                down[i],
                left[i],
                right[i],
                cs[i],
                self.lambda,
            );
        }
        ctx.st_f32_lanes(Addr::hbm(self.dst + row(y, x0)), 4, &outs)?;
        ctx.st_f32_lanes(Addr::hbm(self.hbm_coeff + row(y, x0)), 4, &cs)?;
        if self.to_pm {
            ctx.st_f32_lanes(Addr::pm(self.pm_coeff + row(y, x0)), 4, &cs)?;
            ctx.st_f32_lanes(Addr::pm(self.pm_img + row(y, x0)), 4, &outs)?;
            if self.persist {
                ctx.gpm_persist()?;
            }
        }
        Ok(true)
    }

    fn warp_fuel(&self, _phase: u32) -> Option<u64> {
        // 5 gathers + 2 HBM stores, plus under GPM 2 PM stores and the
        // persist fence. Exact, so gauged crash campaigns vectorize right
        // up to the warp that would expire.
        Some(7 + if self.to_pm { 2 } else { 0 } + u64::from(self.persist))
    }
}

impl SradWorkload {
    /// Creates the workload.
    pub fn new(params: SradParams) -> SradWorkload {
        SradWorkload { params }
    }

    fn setup(&self, machine: &mut Machine, mode: Mode) -> SimResult<SradState> {
        let e = self.params.edge;
        let bytes = self.params.pixels() * 4;
        let hbm_img_a = machine.alloc_hbm(bytes)?;
        let hbm_img_b = machine.alloc_hbm(bytes)?;
        let hbm_coeff = machine.alloc_hbm(bytes)?;
        let pm_img = [
            gpm_map(machine, "/pm/srad/image_a", bytes, true)?.offset,
            gpm_map(machine, "/pm/srad/image_b", bytes, true)?.offset,
        ];
        let pm_coeff = gpm_map(machine, "/pm/srad/coeff", bytes, true)?.offset;
        let pm_iter = gpm_map(machine, "/pm/srad/iter", 256, true)?.offset;
        let staging_dram = machine.alloc_dram(bytes)?;
        let cap_pm = if matches!(mode, Mode::CapFs | Mode::CapMm) {
            machine.alloc_pm(2 * bytes)?
        } else {
            0
        };
        let mut init = Vec::with_capacity(bytes as usize);
        for y in 0..e {
            for x in 0..e {
                init.extend_from_slice(&init_pixel(x, y).to_le_bytes());
            }
        }
        machine.host_write(Addr::hbm(hbm_img_a), &init)?;
        machine.host_write(Addr::pm(pm_img[0]), &init)?;
        Ok(SradState {
            hbm_img_a,
            hbm_img_b,
            hbm_coeff,
            pm_img,
            pm_coeff,
            pm_iter,
            staging_dram,
            cap_pm,
        })
    }

    /// One diffusion iteration (reads `src`, writes `dst`; persists image
    /// and coefficients in place under GPM).
    fn iter_kernel(
        &self,
        st: &SradState,
        src: u64,
        dst: u64,
        pm_out: u64,
        to_pm: bool,
        persist: bool,
    ) -> SradIterKernel {
        SradIterKernel {
            e: self.params.edge,
            lambda: self.params.lambda,
            src,
            dst,
            hbm_coeff: st.hbm_coeff,
            pm_coeff: st.pm_coeff,
            pm_img: pm_out,
            to_pm,
            persist,
        }
    }

    fn persist_iter(&self, machine: &mut Machine, st: &SradState, iter: u32) -> SimResult<()> {
        let mut cpu = CpuCtx::new(machine, HOST_WRITER);
        cpu.store(Addr::pm(st.pm_iter), &iter.to_le_bytes())?;
        cpu.persist(st.pm_iter, 4);
        let t = cpu.elapsed();
        machine.clock.advance(t);
        Ok(())
    }

    fn run_iters(
        &self,
        machine: &mut Machine,
        st: &SradState,
        mode: Mode,
        start_iter: u32,
        gauge: &mut FuelGauge,
    ) -> Result<(), LaunchError> {
        let p = &self.params;
        let bytes = p.pixels() * 4;
        for iter in start_iter..p.iterations {
            let (src, dst) = if iter % 2 == 0 {
                (st.hbm_img_a, st.hbm_img_b)
            } else {
                (st.hbm_img_b, st.hbm_img_a)
            };
            let pm_out = st.pm_img[((iter + 1) % 2) as usize];
            let cfg = LaunchConfig::for_elements(p.pixels(), 256);
            let to_pm = matches!(mode, Mode::Gpm | Mode::GpmNdp);
            let persist = mode == Mode::Gpm;
            let kernel = self.iter_kernel(st, src, dst, pm_out, to_pm, persist);
            if persist {
                gpm_persist_begin(machine);
            }
            let res = launch_with_gauge(machine, cfg, &kernel, gauge);
            if persist {
                gpm_persist_end(machine);
            }
            let _ = res?;
            match mode {
                Mode::Gpm => self.persist_iter(machine, st, iter + 1)?,
                Mode::GpmNdp => {
                    flush_from_cpu(
                        machine,
                        st.pm_img[((iter + 1) % 2) as usize],
                        bytes,
                        p.cap_threads,
                    );
                    flush_from_cpu(machine, st.pm_coeff, bytes, p.cap_threads);
                    self.persist_iter(machine, st, iter + 1)?;
                }
                Mode::CapFs | Mode::CapMm => {
                    let flavor = if mode == Mode::CapFs {
                        CapFlavor::Fs
                    } else {
                        CapFlavor::Mm {
                            threads: p.cap_threads,
                        }
                    };
                    // Both the output image and the diffusion-coefficient
                    // matrix are persisted (Table 1).
                    cap_persist_region(machine, flavor, dst, st.staging_dram, st.cap_pm, bytes)
                        .map_err(LaunchError::Sim)?;
                    cap_persist_region(
                        machine,
                        flavor,
                        st.hbm_coeff,
                        st.staging_dram,
                        st.cap_pm + bytes,
                        bytes,
                    )
                    .map_err(LaunchError::Sim)?;
                }
                Mode::Gpufs | Mode::CpuPm => {
                    return Err(LaunchError::Sim(SimError::Invalid(
                        "mode handled elsewhere for SRAD",
                    )))
                }
            }
        }
        Ok(())
    }

    /// Host-side reference: image after `iters` diffusion steps.
    fn reference(&self, iters: u32) -> (Vec<f32>, Vec<f32>) {
        let e = self.params.edge as usize;
        let mut cur: Vec<f32> = (0..e * e)
            .map(|i| init_pixel((i % e) as u64, (i / e) as u64))
            .collect();
        let mut next = cur.clone();
        let mut coeffs = vec![0.0f32; e * e];
        for _ in 0..iters {
            for y in 0..e {
                for x in 0..e {
                    let at = |xx: i64, yy: i64| -> f32 {
                        let xx = xx.clamp(0, e as i64 - 1) as usize;
                        let yy = yy.clamp(0, e as i64 - 1) as usize;
                        cur[yy * e + xx]
                    };
                    let (xi, yi) = (x as i64, y as i64);
                    let ctr = at(xi, yi);
                    let (up, down, left, right) = (
                        at(xi, yi - 1),
                        at(xi, yi + 1),
                        at(xi - 1, yi),
                        at(xi + 1, yi),
                    );
                    let c = coeff(ctr, up, down, left, right);
                    coeffs[y * e + x] = c;
                    next[y * e + x] = diffuse(ctr, up, down, left, right, c, self.params.lambda);
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        (cur, coeffs)
    }

    fn verify(&self, machine: &Machine, st: &SradState, mode: Mode) -> SimResult<bool> {
        let (img, coeffs) = self.reference(self.params.iterations);
        match mode {
            Mode::Gpm | Mode::GpmNdp => {
                let final_buf = st.pm_img[(self.params.iterations % 2) as usize];
                for i in (0..self.params.pixels()).step_by(97) {
                    if machine.read_f32(Addr::pm(final_buf + i * 4))? != img[i as usize]
                        || machine.read_f32(Addr::pm(st.pm_coeff + i * 4))? != coeffs[i as usize]
                    {
                        return Ok(false);
                    }
                }
            }
            Mode::CapFs | Mode::CapMm => {
                for i in (0..self.params.pixels()).step_by(97) {
                    if machine.read_f32(Addr::pm(st.cap_pm + i * 4))? != img[i as usize] {
                        return Ok(false);
                    }
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Runs the workload under `mode`.
    ///
    /// # Errors
    ///
    /// Fails for GPUfs at the paper's 3 GB input (file > 2 GB) and on
    /// platform errors.
    pub fn run(&self, machine: &mut Machine, mode: Mode) -> SimResult<RunMetrics> {
        if mode == Mode::CpuPm {
            return self.run_cpu(machine);
        }
        if mode == Mode::Gpufs {
            // SRAD runs on GPUfs in the paper (coarse-grain writes), with
            // heavy syscall overheads; its 3 GB diffuse matrix exceeds the
            // 2 GB file limit only when persisted as one file — the paper
            // reports it running at 0.1× CAP-fs. Modelled as coarse writes.
            return self.run_gpufs(machine);
        }
        let st = self.setup(machine, mode)?;
        let mut metrics = metered(machine, |m| {
            self.run_iters(m, &st, mode, 0, &mut FuelGauge::Unlimited)
                .map_err(|e| match e {
                    LaunchError::Sim(e) => e,
                    LaunchError::Crashed(_) => SimError::Crashed,
                })?;
            Ok::<bool, SimError>(true)
        })?;
        metrics.verified = self.verify(machine, &st, mode)?;
        Ok(metrics)
    }

    fn run_gpufs(&self, machine: &mut Machine) -> SimResult<RunMetrics> {
        let p = self.params;
        let st = self.setup(machine, Mode::CapFs)?;
        let bytes = p.pixels() * 4;
        let mut metrics = metered(machine, |m| {
            for iter in 0..p.iterations {
                let (src, dst) = if iter % 2 == 0 {
                    (st.hbm_img_a, st.hbm_img_b)
                } else {
                    (st.hbm_img_b, st.hbm_img_a)
                };
                let cfg = LaunchConfig::for_elements(p.pixels(), 256);
                let kernel = self.iter_kernel(&st, src, dst, 0, false, false);
                gpm_gpu::launch(m, cfg, &kernel)?;
                // Every threadblock gwrite()s its tile through GPUfs.
                let calls = p.pixels().div_ceil(256);
                gpm_cap::gpufs_persist(m, dst, st.staging_dram, st.cap_pm, bytes, calls)?;
            }
            Ok::<bool, SimError>(true)
        })?;
        metrics.verified = self.verify(machine, &st, Mode::CapFs)?;
        Ok(metrics)
    }

    /// CPU-with-PM baseline (Figure 1b).
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn run_cpu(&self, machine: &mut Machine) -> SimResult<RunMetrics> {
        let p = self.params;
        let st = self.setup(machine, Mode::Gpm)?;
        let e = p.edge as usize;
        let mut metrics = metered(machine, |m| {
            let mut serial = Ns::ZERO;
            let mut cur: Vec<f32> = (0..e * e)
                .map(|i| init_pixel((i % e) as u64, (i / e) as u64))
                .collect();
            let mut next = cur.clone();
            for it in 0..p.iterations {
                for y in 0..e {
                    for x in 0..e {
                        let mut cpu = CpuCtx::new(m, HOST_WRITER);
                        cpu.compute(Ns(35.0));
                        let at = |xx: i64, yy: i64| -> f32 {
                            let xx = xx.clamp(0, e as i64 - 1) as usize;
                            let yy = yy.clamp(0, e as i64 - 1) as usize;
                            cur[yy * e + xx]
                        };
                        let (xi, yi) = (x as i64, y as i64);
                        let ctr = at(xi, yi);
                        let (up, down, left, right) = (
                            at(xi, yi - 1),
                            at(xi, yi + 1),
                            at(xi - 1, yi),
                            at(xi + 1, yi),
                        );
                        let c = coeff(ctr, up, down, left, right);
                        let out = diffuse(ctr, up, down, left, right, c, p.lambda);
                        let i = (y * e + x) as u64;
                        next[y * e + x] = out;
                        cpu.store(Addr::pm(st.pm_coeff + i * 4), &c.to_le_bytes())?;
                        let pm_out = st.pm_img[((it + 1) % 2) as usize];
                        cpu.store(Addr::pm(pm_out + i * 4), &out.to_le_bytes())?;
                        // A CPU implementation flushes at cache-line
                        // granularity: one CLFLUSH covers 16 pixels.
                        if i % 16 == 15 || x == e - 1 {
                            cpu.persist(pm_out + (i - i % 16) * 4, 64);
                        }
                        serial += cpu.elapsed();
                    }
                }
                std::mem::swap(&mut cur, &mut next);
            }
            let t = serial / m.cfg.cpu_persist_scaling(m.cfg.cpu_cores);
            m.clock.advance(t);
            Ok::<bool, SimError>(true)
        })?;
        // The CPU path persisted the same final image.
        let (img, _) = self.reference(p.iterations);
        let final_buf = st.pm_img[(p.iterations % 2) as usize];
        metrics.verified = {
            let mut ok = true;
            for i in (0..p.pixels()).step_by(97) {
                if machine.read_f32(Addr::pm(final_buf + i * 4))? != img[i as usize] {
                    ok = false;
                    break;
                }
            }
            ok
        };
        Ok(metrics)
    }

    /// Post-crash resume: reads the committed iteration counter, reloads the
    /// consistent image buffer, finishes the diffusion, and verifies.
    fn resume(&self, machine: &mut Machine, st: &SradState) -> SimResult<RunMetrics> {
        let t0 = machine.clock.now();
        let done = machine.read_u32(Addr::pm(st.pm_iter))?;
        // The image after `done` committed iterations lives in PM buffer
        // `done % 2`; the interrupted iteration only touched the *other*
        // buffer, so this copy is consistent. Reload it into the HBM buffer
        // iteration `done` reads from.
        let bytes = self.params.pixels() * 4;
        let src = if done % 2 == 0 {
            st.hbm_img_a
        } else {
            st.hbm_img_b
        };
        let mut buf = vec![0u8; bytes as usize];
        machine.read(Addr::pm(st.pm_img[(done % 2) as usize]), &mut buf)?;
        machine.host_write(Addr::hbm(src), &buf)?;
        machine.clock.advance(Ns(
            bytes as f64 / machine.cfg.pm_read_bw.min(machine.cfg.pcie_bw)
        ));
        let resume_setup = machine.clock.now() - t0;

        let mut metrics = metered(machine, |m| {
            self.run_iters(m, st, Mode::Gpm, done, &mut FuelGauge::Unlimited)
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

impl RecoveryOracle for SradWorkload {
    fn name(&self) -> &'static str {
        "SRAD"
    }

    fn record(&mut self, machine: &mut Machine) -> SimResult<CrashSchedule> {
        let st = self.setup(machine, Mode::Gpm)?;
        self.persist_iter(machine, &st, 0)?;
        let mut gauge = FuelGauge::record();
        crate::oracle::expect_clean(self.run_iters(machine, &st, Mode::Gpm, 0, &mut gauge))?;
        Ok(gauge.into_schedule().expect("recording gauge"))
    }

    fn run_case(
        &mut self,
        machine: &mut Machine,
        fuel: u64,
        policy: CrashPolicy,
    ) -> SimResult<OracleVerdict> {
        let st = self.setup(machine, Mode::Gpm)?;
        self.persist_iter(machine, &st, 0)?;
        let res = self.run_iters(
            machine,
            &st,
            Mode::Gpm,
            0,
            &mut FuelGauge::crash_with_policy(fuel, policy),
        );
        crate::oracle::settle_crash(machine, policy, res)?;
        let metrics = self.resume(machine, &st)?;
        Ok(if metrics.verified {
            OracleVerdict::Pass
        } else {
            OracleVerdict::Fail("resumed diffusion diverges from reference image".into())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SradWorkload {
        SradWorkload::new(SradParams::quick())
    }

    #[test]
    fn diffusion_verifies_under_gpm_and_cap() {
        for mode in [Mode::Gpm, Mode::GpmNdp, Mode::CapMm, Mode::Gpufs] {
            let mut m = Machine::default();
            let r = quick().run(&mut m, mode).unwrap();
            assert!(r.verified, "{mode:?}");
        }
    }

    #[test]
    fn cpu_variant_verifies_and_is_much_slower() {
        let mut m1 = Machine::default();
        let g = quick().run(&mut m1, Mode::Gpm).unwrap();
        let mut m2 = Machine::default();
        let c = quick().run(&mut m2, Mode::CpuPm).unwrap();
        assert!(c.verified);
        // Figure 1b: SRAD speeds up ~27× over the CPU-PM version.
        let speedup = c.elapsed / g.elapsed;
        assert!(
            speedup > 4.0,
            "expected a large GPM speedup, got {speedup:.1}"
        );
    }

    #[test]
    fn crash_resume_produces_correct_image() {
        for fuel in [3_000u64, 30_000] {
            let mut m = Machine::default();
            let v = quick()
                .run_case(&mut m, fuel, CrashPolicy::Random(fuel))
                .unwrap();
            assert!(v.passed(), "fuel={fuel}: {v:?}");
        }
    }

    #[test]
    fn coefficients_are_bounded() {
        // c ∈ (0, 1]: smoothness of the diffusion operator.
        for i in 0..100u64 {
            let v = init_pixel(i, i * 3);
            let c = coeff(v, v + 1.0, v - 1.0, v + 2.0, v - 2.0);
            assert!(c > 0.0 && c <= 1.0);
        }
    }
}
