//! BFS with native persistence (§4.3).
//!
//! Level-synchronous breadth-first search over a PM-resident graph. The
//! read-only CSR graph is loaded into device memory once (as the paper does
//! to avoid slow PM reads, §4.3); the per-node cost array and the node
//! search sequence are persisted *as they are computed*, so after a crash
//! the traversal resumes from the last completed level instead of
//! restarting.
//!
//! The paper's input is the USA road network (high diameter, ~6000
//! iterations); we substitute a 2-D grid graph, which has the same defining
//! property — a huge number of small frontiers — scaled to a few hundred
//! levels.

use gpm_cap::{cap_persist_region, flush_from_cpu, CapFlavor};
use gpm_core::{gpm_map, gpm_persist_begin, gpm_persist_end, GpmThreadExt};
use gpm_gpu::{launch_with_gauge, FnKernel, FuelGauge, LaunchConfig, LaunchError, ThreadCtx};
use gpm_sim::cpu::CpuCtx;
use gpm_sim::{
    Addr, CrashPolicy, CrashSchedule, Machine, Ns, OracleVerdict, SimError, SimResult, HOST_WRITER,
};

use crate::metrics::{metered, Mode, RunMetrics};
use crate::oracle::RecoveryOracle;

/// Unvisited marker in the cost array.
pub const INF: u32 = u32::MAX;

/// Parameters.
#[derive(Debug, Clone, Copy)]
pub struct BfsParams {
    /// Grid width (graph has `width × height` nodes, 4-neighbor edges).
    pub width: u64,
    /// Grid height.
    pub height: u64,
    /// Source node.
    pub source: u64,
    /// CPU threads for CAP-mm persisting.
    pub cap_threads: u32,
}

impl Default for BfsParams {
    fn default() -> BfsParams {
        BfsParams {
            width: 384,
            height: 384,
            source: 0,
            cap_threads: 32,
        }
    }
}

impl BfsParams {
    /// Small configuration for unit tests.
    pub fn quick() -> BfsParams {
        BfsParams {
            width: 32,
            height: 32,
            ..BfsParams::default()
        }
    }

    fn nodes(&self) -> u64 {
        self.width * self.height
    }
}

/// The BFS workload.
#[derive(Debug)]
pub struct BfsWorkload {
    /// Parameters of this instance.
    pub params: BfsParams,
}

struct BfsState {
    // HBM (volatile working set)
    row_ptr: u64,
    cols: u64,
    pm_graph: u64,
    graph_bytes: u64,
    n_rows: u64,
    hbm_cost: u64,
    queue_a: u64,
    queue_b: u64,
    next_count: u64,
    // PM (recoverable)
    pm_cost: u64,
    visit_seq: u64,
    level_meta: u64, // [level u32, seq_len u32]
    // CAP
    staging_dram: u64,
    cap_pm: u64,
}

impl BfsWorkload {
    /// Creates the workload.
    pub fn new(params: BfsParams) -> BfsWorkload {
        BfsWorkload { params }
    }

    fn neighbors(&self, node: u64) -> Vec<u64> {
        let (w, h) = (self.params.width, self.params.height);
        let (x, y) = (node % w, node / w);
        let mut out = Vec::with_capacity(4);
        if x > 0 {
            out.push(node - 1);
        }
        if x + 1 < w {
            out.push(node + 1);
        }
        if y > 0 {
            out.push(node - w);
        }
        if y + 1 < h {
            out.push(node + w);
        }
        out
    }

    fn setup(&self, machine: &mut Machine, mode: Mode) -> SimResult<BfsState> {
        let n = self.params.nodes();
        // Build the CSR graph on PM (the persistent input set).
        let mut row_ptr_v: Vec<u32> = Vec::with_capacity(n as usize + 1);
        let mut cols_v: Vec<u32> = Vec::new();
        row_ptr_v.push(0);
        for node in 0..n {
            for nb in self.neighbors(node) {
                cols_v.push(nb as u32);
            }
            row_ptr_v.push(cols_v.len() as u32);
        }
        let graph_bytes = (row_ptr_v.len() + cols_v.len()) as u64 * 4;
        let pm_graph = gpm_map(machine, "/pm/bfs/graph", graph_bytes, true)?.offset;
        let mut flat = Vec::with_capacity(graph_bytes as usize);
        for v in row_ptr_v.iter().chain(cols_v.iter()) {
            flat.extend_from_slice(&v.to_le_bytes());
        }
        machine.host_write(Addr::pm(pm_graph), &flat)?;

        // Load the read-only graph into HBM once (timed recurring load).
        let row_ptr = machine.alloc_hbm((n + 1) * 4)?;
        let cols = machine.alloc_hbm(cols_v.len() as u64 * 4)?;
        let mut buf = vec![0u8; graph_bytes as usize];
        machine.read(Addr::pm(pm_graph), &mut buf)?;
        machine.host_write(Addr::hbm(row_ptr), &buf[..(n as usize + 1) * 4])?;
        machine.host_write(Addr::hbm(cols), &buf[(n as usize + 1) * 4..])?;
        machine.clock.advance(Ns(
            graph_bytes as f64 / machine.cfg.pm_read_bw.min(machine.cfg.pcie_bw)
        ));

        let hbm_cost = machine.alloc_hbm(n * 4)?;
        let queue_a = machine.alloc_hbm(n * 4)?;
        let queue_b = machine.alloc_hbm(n * 4)?;
        let next_count = machine.alloc_hbm(4)?;
        let pm_cost = gpm_map(machine, "/pm/bfs/cost", n * 4, true)?.offset;
        let visit_seq = gpm_map(machine, "/pm/bfs/visit_seq", n * 4, true)?.offset;
        let level_meta = gpm_map(machine, "/pm/bfs/meta", 256, true)?.offset;
        let staging_dram = machine.alloc_dram(n * 4)?;
        let cap_pm = if matches!(mode, Mode::CapFs | Mode::CapMm) {
            machine.alloc_pm(n * 4)?
        } else {
            0
        };

        // Initialize costs to INF (durable for PM; host for HBM).
        let inf = vec![0xFFu8; (n * 4) as usize];
        machine.host_write(Addr::pm(pm_cost), &inf)?;
        machine.host_write(Addr::hbm(hbm_cost), &inf)?;
        Ok(BfsState {
            row_ptr,
            cols,
            pm_graph,
            graph_bytes,
            n_rows: n,
            hbm_cost,
            queue_a,
            queue_b,
            next_count,
            pm_cost,
            visit_seq,
            level_meta,
            staging_dram,
            cap_pm,
        })
    }

    /// One frontier-expansion kernel (costs of discovered nodes persist in
    /// place under GPM).
    #[allow(clippy::too_many_arguments)]
    fn level_kernel(
        &self,
        st: &BfsState,
        frontier_len: u64,
        level: u32,
        seq_base: u64,
        cur_queue: u64,
        next_queue: u64,
        to_pm: bool,
        persist: bool,
    ) -> impl gpm_gpu::Kernel<State = (), Shared = ()> {
        let (row_ptr, cols, hbm_cost, next_count) =
            (st.row_ptr, st.cols, st.hbm_cost, st.next_count);
        let (pm_cost, visit_seq) = (st.pm_cost, st.visit_seq);
        // Blocks share the frontier queue through `next_count`.
        FnKernel(move |ctx: &mut ThreadCtx<'_>| {
            let t = ctx.global_id();
            if t >= frontier_len {
                return Ok(());
            }
            let node = ctx.ld_u32(Addr::hbm(cur_queue + t * 4))? as u64;
            let start = ctx.ld_u32(Addr::hbm(row_ptr + node * 4))? as u64;
            let end = ctx.ld_u32(Addr::hbm(row_ptr + node * 4 + 4))? as u64;
            ctx.compute(Ns(30.0));
            for e in start..end {
                let nb = ctx.ld_u32(Addr::hbm(cols + e * 4))? as u64;
                if ctx.ld_u32(Addr::hbm(hbm_cost + nb * 4))? != INF {
                    continue;
                }
                ctx.st_u32(Addr::hbm(hbm_cost + nb * 4), level + 1)?;
                let idx = ctx.atomic_add_u32(Addr::hbm(next_count), 1)? as u64;
                ctx.st_u32(Addr::hbm(next_queue + idx * 4), nb as u32)?;
                if to_pm {
                    // Persist the cost and the search sequence in place.
                    ctx.st_u32(Addr::pm(pm_cost + nb * 4), level + 1)?;
                    ctx.st_u32(Addr::pm(visit_seq + (seq_base + idx) * 4), nb as u32)?;
                    if persist {
                        ctx.gpm_persist()?;
                    }
                }
            }
            Ok(())
        })
    }

    fn persist_meta(
        &self,
        machine: &mut Machine,
        st: &BfsState,
        level: u32,
        seq: u32,
    ) -> SimResult<()> {
        let mut cpu = CpuCtx::new(machine, HOST_WRITER);
        let mut b = [0u8; 8];
        b[0..4].copy_from_slice(&level.to_le_bytes());
        b[4..8].copy_from_slice(&seq.to_le_bytes());
        cpu.store(Addr::pm(st.level_meta), &b)?;
        cpu.persist(st.level_meta, 8);
        let t = cpu.elapsed();
        machine.clock.advance(t);
        Ok(())
    }

    /// Runs the traversal from an initialized frontier (`start_level`,
    /// `frontier` already set up) until the frontier drains.
    #[allow(clippy::too_many_arguments)]
    fn traverse(
        &self,
        machine: &mut Machine,
        st: &BfsState,
        mode: Mode,
        mut level: u32,
        mut frontier_len: u64,
        mut seq_base: u64,
        gauge: &mut FuelGauge,
    ) -> Result<(), LaunchError> {
        let p = &self.params;
        let n = p.nodes();
        let mut cur = st.queue_a;
        let mut next = st.queue_b;
        while frontier_len > 0 {
            machine.host_write(Addr::hbm(st.next_count), &0u32.to_le_bytes())?;
            let cfg = LaunchConfig::for_elements(frontier_len, 256);
            let to_pm = matches!(mode, Mode::Gpm | Mode::GpmNdp);
            let persist = mode == Mode::Gpm;
            let kernel =
                self.level_kernel(st, frontier_len, level, seq_base, cur, next, to_pm, persist);
            if persist {
                gpm_persist_begin(machine);
            }
            let res = launch_with_gauge(machine, cfg, &kernel, gauge);
            if persist {
                gpm_persist_end(machine);
            }
            let _ = res?;
            let produced = machine.read_u32(Addr::hbm(st.next_count))? as u64;
            match mode {
                Mode::Gpm => {
                    self.persist_meta(machine, st, level + 1, (seq_base + produced) as u32)?;
                }
                Mode::GpmNdp => {
                    flush_from_cpu(machine, st.pm_cost, n * 4, p.cap_threads);
                    flush_from_cpu(machine, st.visit_seq, n * 4, p.cap_threads);
                    self.persist_meta(machine, st, level + 1, (seq_base + produced) as u32)?;
                }
                Mode::CapFs | Mode::CapMm => {
                    let flavor = if mode == Mode::CapFs {
                        CapFlavor::Fs
                    } else {
                        CapFlavor::Mm {
                            threads: p.cap_threads,
                        }
                    };
                    // The cost array (and queue) must round-trip through the
                    // CPU every iteration (§6.1: BFS's 85× CAP overhead).
                    cap_persist_region(
                        machine,
                        flavor,
                        st.hbm_cost,
                        st.staging_dram,
                        st.cap_pm,
                        n * 4,
                    )
                    .map_err(LaunchError::Sim)?;
                }
                Mode::Gpufs | Mode::CpuPm => {
                    return Err(LaunchError::Sim(SimError::Invalid(
                        "mode handled elsewhere for BFS",
                    )))
                }
            }
            seq_base += produced;
            frontier_len = produced;
            level += 1;
            std::mem::swap(&mut cur, &mut next);
        }
        Ok(())
    }

    fn start(&self, machine: &mut Machine, st: &BfsState, mode: Mode) -> SimResult<()> {
        let src = self.params.source;
        machine.host_write(Addr::hbm(st.queue_a), &(src as u32).to_le_bytes())?;
        machine.host_write(Addr::hbm(st.hbm_cost + src * 4), &0u32.to_le_bytes())?;
        if matches!(mode, Mode::Gpm | Mode::GpmNdp) {
            let mut cpu = CpuCtx::new(machine, HOST_WRITER);
            cpu.store(Addr::pm(st.pm_cost + src * 4), &0u32.to_le_bytes())?;
            cpu.persist(st.pm_cost + src * 4, 4);
            let t = cpu.elapsed();
            machine.clock.advance(t);
            self.persist_meta(machine, st, 0, 0)?;
        }
        Ok(())
    }

    /// Host-side reference BFS.
    fn reference(&self) -> Vec<u32> {
        let n = self.params.nodes() as usize;
        let mut cost = vec![INF; n];
        let mut frontier = vec![self.params.source];
        cost[self.params.source as usize] = 0;
        let mut level = 0;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &node in &frontier {
                for nb in self.neighbors(node) {
                    if cost[nb as usize] == INF {
                        cost[nb as usize] = level + 1;
                        next.push(nb);
                    }
                }
            }
            frontier = next;
            level += 1;
        }
        cost
    }

    fn verify(&self, machine: &Machine, st: &BfsState, mode: Mode) -> SimResult<bool> {
        let reference = self.reference();
        let base = match mode {
            Mode::Gpm | Mode::GpmNdp => st.pm_cost,
            Mode::CapFs | Mode::CapMm => st.cap_pm,
            _ => return Ok(false),
        };
        for (i, &expect) in reference.iter().enumerate() {
            if machine.read_u32(Addr::pm(base + i as u64 * 4))? != expect {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Runs the workload under `mode`.
    ///
    /// # Errors
    ///
    /// Fails for unsupported modes or on platform errors.
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
            self.start(m, &st, mode)?;
            self.traverse(m, &st, mode, 0, 1, 0, &mut FuelGauge::Unlimited)
                .map_err(|e| match e {
                    LaunchError::Sim(e) => e,
                    LaunchError::Crashed(_) => SimError::Crashed,
                })?;
            Ok::<bool, SimError>(true)
        })?;
        metrics.verified = self.verify(machine, &st, mode)?;
        Ok(metrics)
    }

    /// CPU-with-PM baseline (Figure 1b): multithreaded level-synchronous
    /// BFS persisting each discovered cost with CLFLUSH+SFENCE.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn run_cpu(&self, machine: &mut Machine) -> SimResult<RunMetrics> {
        let st = self.setup(machine, Mode::Gpm)?;
        let reference = self.reference();
        let mut metrics = metered(machine, |m| {
            let mut serial = Ns::ZERO;
            let mut frontier = vec![self.params.source];
            let mut cost = vec![INF; self.params.nodes() as usize];
            cost[self.params.source as usize] = 0;
            {
                let mut cpu = CpuCtx::new(m, HOST_WRITER);
                cpu.store(
                    Addr::pm(st.pm_cost + self.params.source * 4),
                    &0u32.to_le_bytes(),
                )?;
                cpu.persist(st.pm_cost + self.params.source * 4, 4);
                serial += cpu.elapsed();
            }
            let mut level = 0u32;
            while !frontier.is_empty() {
                let mut next = Vec::new();
                for &node in &frontier {
                    let mut cpu = CpuCtx::new(m, HOST_WRITER);
                    cpu.compute(Ns(30.0));
                    for nb in self.neighbors(node) {
                        cpu.load(Addr::pm(st.pm_cost + nb * 4), &mut [0u8; 4])?;
                        if cost[nb as usize] == INF {
                            cost[nb as usize] = level + 1;
                            cpu.store(Addr::pm(st.pm_cost + nb * 4), &(level + 1).to_le_bytes())?;
                            cpu.persist(st.pm_cost + nb * 4, 4);
                            next.push(nb);
                        }
                    }
                    serial += cpu.elapsed();
                }
                frontier = next;
                level += 1;
            }
            // BFS's CPU persists are sparse (each node's cost once), so the
            // run is read/compute-bound and scales with cores until frontier
            // synchronization limits it (~8x effective on 64 cores), unlike
            // the PM-write-bound SRAD/PS.
            let t = serial / 8.0;
            m.clock.advance(t);
            Ok::<bool, SimError>(true)
        })?;
        metrics.verified = {
            let mut ok = true;
            for (i, &expect) in reference.iter().enumerate() {
                if machine.read_u32(Addr::pm(st.pm_cost + i as u64 * 4))? != expect {
                    ok = false;
                    break;
                }
            }
            ok
        };
        Ok(metrics)
    }

    /// Crash-injected GPM run: aborts mid-traversal after `fuel` operations,
    /// then *resumes* (not restarts) from the persisted level and search
    /// sequence, and verifies the final costs.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn run_crash_resume(&self, machine: &mut Machine, fuel: u64) -> SimResult<RunMetrics> {
        let st = self.setup(machine, Mode::Gpm)?;
        self.start(machine, &st, Mode::Gpm)?;
        match self.traverse(
            machine,
            &st,
            Mode::Gpm,
            0,
            1,
            0,
            &mut FuelGauge::crash(fuel),
        ) {
            Ok(()) => {} // fuel outlasted the traversal
            Err(LaunchError::Crashed(_)) => {}
            Err(LaunchError::Sim(e)) => return Err(e),
        }
        machine.crash();
        self.resume(machine, &st)
    }

    /// Post-crash resume: reloads the graph, rolls uncommitted discoveries
    /// back to the last committed level, rebuilds the frontier, finishes the
    /// traversal, and verifies.
    fn resume(&self, machine: &mut Machine, st: &BfsState) -> SimResult<RunMetrics> {
        let t0 = machine.clock.now();
        // Volatile state is gone: reload the read-only graph from its
        // PM-resident input file into device memory.
        let n = self.params.nodes();
        let mut graph = vec![0u8; st.graph_bytes as usize];
        machine.read(Addr::pm(st.pm_graph), &mut graph)?;
        machine.host_write(
            Addr::hbm(st.row_ptr),
            &graph[..(st.n_rows as usize + 1) * 4],
        )?;
        machine.host_write(Addr::hbm(st.cols), &graph[(st.n_rows as usize + 1) * 4..])?;
        machine.clock.advance(Ns(
            st.graph_bytes as f64 / machine.cfg.pm_read_bw.min(machine.cfg.pcie_bw)
        ));
        let level = machine.read_u32(Addr::pm(st.level_meta))?;
        let seq_len = machine.read_u32(Addr::pm(st.level_meta + 4))? as u64;
        // Rebuild the HBM cost mirror from the persisted costs (bulk read).
        let mut cost_img = vec![0u8; (n * 4) as usize];
        machine.read(Addr::pm(st.pm_cost), &mut cost_img)?;
        machine.clock.advance(Ns(
            (n * 4) as f64 / machine.cfg.pm_read_bw.min(machine.cfg.pcie_bw)
        ));
        // Roll back partially-persisted discoveries of the in-flight level:
        // any cost greater than the last *committed* level belongs to an
        // uncommitted kernel and must be re-discovered, or its subtree would
        // never be expanded.
        {
            let mut cpu = CpuCtx::new(machine, HOST_WRITER);
            for i in 0..n as usize {
                let c = u32::from_le_bytes(cost_img[i * 4..i * 4 + 4].try_into().unwrap());
                if c != INF && c > level {
                    cost_img[i * 4..i * 4 + 4].copy_from_slice(&INF.to_le_bytes());
                    cpu.store(Addr::pm(st.pm_cost + i as u64 * 4), &INF.to_le_bytes())?;
                    cpu.persist(st.pm_cost + i as u64 * 4, 4);
                }
            }
            let t = cpu.elapsed();
            machine.clock.advance(t);
        }
        machine.host_write(Addr::hbm(st.hbm_cost), &cost_img)?;
        // The frontier for the next level: nodes whose persisted cost equals
        // the last completed level. (The search sequence makes this a simple
        // suffix read; costs are scanned here for robustness against a
        // partially-persisted sequence tail.)
        let mut frontier = Vec::new();
        for i in 0..n {
            let c = u32::from_le_bytes(
                cost_img[(i * 4) as usize..(i * 4 + 4) as usize]
                    .try_into()
                    .unwrap(),
            );
            if c == level {
                frontier.push(i as u32);
            }
        }
        let mut q = Vec::with_capacity(frontier.len() * 4);
        for f in &frontier {
            q.extend_from_slice(&f.to_le_bytes());
        }
        machine.host_write(Addr::hbm(st.queue_a), &q)?;
        let resume_setup = machine.clock.now() - t0;

        let mut metrics = metered(machine, |m| {
            self.traverse(
                m,
                st,
                Mode::Gpm,
                level,
                frontier.len() as u64,
                seq_len,
                &mut FuelGauge::Unlimited,
            )
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

impl RecoveryOracle for BfsWorkload {
    fn name(&self) -> &'static str {
        "BFS"
    }

    fn record(&mut self, machine: &mut Machine) -> SimResult<CrashSchedule> {
        let st = self.setup(machine, Mode::Gpm)?;
        self.start(machine, &st, Mode::Gpm)?;
        let mut gauge = FuelGauge::record();
        crate::oracle::expect_clean(self.traverse(machine, &st, Mode::Gpm, 0, 1, 0, &mut gauge))?;
        Ok(gauge.into_schedule().expect("recording gauge"))
    }

    fn run_case(
        &mut self,
        machine: &mut Machine,
        fuel: u64,
        policy: CrashPolicy,
    ) -> SimResult<OracleVerdict> {
        let st = self.setup(machine, Mode::Gpm)?;
        self.start(machine, &st, Mode::Gpm)?;
        let res = self.traverse(
            machine,
            &st,
            Mode::Gpm,
            0,
            1,
            0,
            &mut FuelGauge::crash_with_policy(fuel, policy),
        );
        crate::oracle::settle_crash(machine, policy, res)?;
        let metrics = self.resume(machine, &st)?;
        Ok(if metrics.verified {
            OracleVerdict::Pass
        } else {
            OracleVerdict::Fail("resumed traversal diverges from reference costs".into())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> BfsWorkload {
        BfsWorkload::new(BfsParams::quick())
    }

    #[test]
    fn gpm_traversal_matches_reference() {
        let mut m = Machine::default();
        let r = quick().run(&mut m, Mode::Gpm).unwrap();
        assert!(r.verified);
        assert!(r.pm_write_bytes_gpu > 0);
    }

    #[test]
    fn cap_traversal_matches_reference_but_is_slow() {
        let mut m1 = Machine::default();
        let g = quick().run(&mut m1, Mode::Gpm).unwrap();
        let mut m2 = Machine::default();
        let c = quick().run(&mut m2, Mode::CapFs).unwrap();
        assert!(c.verified);
        // Per-iteration DMA + CPU persist of the whole cost array dominates.
        assert!(
            c.elapsed / g.elapsed > 3.0,
            "gpm={} capfs={}",
            g.elapsed,
            c.elapsed
        );
    }

    #[test]
    fn cpu_pm_variant_is_slower_than_gpm() {
        // At tiny grids kernel-launch overhead dominates GPM (few hundred
        // tiny frontiers), so use a mid-size graph for a robust comparison
        // (Figure 1b runs the full size).
        let params = BfsParams {
            width: 192,
            height: 192,
            ..BfsParams::default()
        };
        let w = BfsWorkload::new(params);
        let mut m1 = Machine::default();
        let g = w.run(&mut m1, Mode::Gpm).unwrap();
        let mut m2 = Machine::default();
        let c = w.run(&mut m2, Mode::CpuPm).unwrap();
        assert!(c.verified);
        assert!(c.elapsed > g.elapsed, "gpm={} cpu={}", g.elapsed, c.elapsed);
    }

    #[test]
    fn crash_resume_completes_traversal() {
        for fuel in [2_000u64, 20_000, 200_000] {
            let mut m = Machine::default();
            let r = quick().run_crash_resume(&mut m, fuel).unwrap();
            assert!(r.verified, "fuel={fuel}");
        }
    }

    #[test]
    fn gpufs_unsupported() {
        let mut m = Machine::default();
        assert!(quick().run(&mut m, Mode::Gpufs).is_err());
    }

    #[test]
    fn write_amplification_is_large_for_cap() {
        let mut m1 = Machine::default();
        let g = quick().run(&mut m1, Mode::Gpm).unwrap();
        let mut m2 = Machine::default();
        let c = quick().run(&mut m2, Mode::CapMm).unwrap();
        // CAP persists the whole cost array every level.
        assert!(c.pm_write_bytes_total() > 5 * g.pm_write_bytes_total());
    }
}
