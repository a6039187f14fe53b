//! Checkpointing GPU state to PM (§5.3).
//!
//! An application registers semantically-related (volatile) data structures
//! with a *group*; `gpmcp_checkpoint(group)` launches a GPU kernel that
//! streams them into a PM-resident buffer and persists them; `gpmcp_restore`
//! copies the last consistent checkpoint back. The library double-buffers:
//! each group keeps a *consistent* and a *working* copy, and atomically
//! flips a persisted flag once the working copy is durable — a crash during
//! checkpointing always leaves the previous consistent copy recoverable.
//!
//! Buffers are 128-byte aligned and written as long unfenced streams, which
//! is why checkpointing reaches peak PM bandwidth in Figure 12.

use gpm_gpu::{
    launch_with_gauge, FuelGauge, Kernel, LaunchConfig, LaunchError, ThreadCtx, WarpCtx,
};
use gpm_sim::cpu::CpuCtx;
use gpm_sim::{Addr, EventKind, Machine, Ns, SimError, SimResult, HOST_WRITER};

use crate::error::{CoreError, CoreResult};
use crate::map::{gpm_map, with_persist_window, GpmRegion};
use crate::persist::{GpmThreadExt, GpmWarpExt};

const MAGIC: u32 = 0x5043_5047; // "GPCP"
const HEADER: u64 = 256;
const FLAG_BLOCK: u64 = 256;
/// Bytes each GPU thread copies (a few coalesced lines).
const COPY_CHUNK: u64 = 512;

/// One registered data structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Registration {
    /// Where the volatile data lives (HBM or DRAM).
    pub addr: Addr,
    /// Its size in bytes.
    pub size: u64,
}

/// Host-side handle to a PM-resident checkpoint (`gpmcp_*`).
#[derive(Debug, Clone)]
pub struct GpmCheckpoint {
    /// The mapped PM region backing the checkpoint.
    pub region: GpmRegion,
    groups: u32,
    capacity: u64,
    elements: u32,
    regs: Vec<Vec<Registration>>,
}

fn cap_aligned(capacity: u64) -> u64 {
    gpm_sim::addr::align_up(capacity.max(1), 256)
}

impl GpmCheckpoint {
    /// Number of groups.
    pub fn groups(&self) -> u32 {
        self.groups
    }

    /// Per-group capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    fn flag_addr(&self, group: u32) -> Addr {
        Addr::pm(self.region.offset + HEADER + group as u64 * FLAG_BLOCK)
    }

    fn buffer_addr(&self, group: u32, which: u32) -> Addr {
        let buffers_base = HEADER + self.groups as u64 * FLAG_BLOCK;
        Addr::pm(
            self.region.offset
                + buffers_base
                + (group as u64 * 2 + which as u64) * cap_aligned(self.capacity),
        )
    }

    /// Which buffer currently holds the consistent copy, and the checkpoint
    /// sequence number.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn consistent(&self, machine: &Machine, group: u32) -> CoreResult<(u32, u32)> {
        if group >= self.groups {
            return Err(CoreError::NoSuchGroup(group));
        }
        let seq = machine.read_u32(self.flag_addr(group))?;
        let which = machine.read_u32(self.flag_addr(group).add(4))?;
        Ok((which, seq))
    }

    /// Bytes registered so far in `group`.
    pub fn registered_bytes(&self, group: u32) -> u64 {
        self.regs
            .get(group as usize)
            .map_or(0, |v| v.iter().map(|r| r.size).sum())
    }

    /// Registered entries of `group` in registration order.
    pub fn registrations(&self, group: u32) -> &[Registration] {
        self.regs.get(group as usize).map_or(&[], |v| v.as_slice())
    }
}

/// Creates a checkpoint file with `groups` groups of up to `elements`
/// registered structures and `size` data bytes each (`gpmcp_create`).
///
/// # Errors
///
/// Fails on bad geometry, an existing file, or PM exhaustion.
pub fn gpmcp_create(
    machine: &mut Machine,
    path: &str,
    size: u64,
    elements: u32,
    groups: u32,
) -> CoreResult<GpmCheckpoint> {
    if groups == 0 || elements == 0 || size == 0 {
        return Err(CoreError::BadGeometry(
            "checkpoint needs groups, elements and size",
        ));
    }
    let total = HEADER + groups as u64 * FLAG_BLOCK + groups as u64 * 2 * cap_aligned(size);
    let region = gpm_map(machine, path, total, true)?;
    let mut h = [0u8; 20];
    h[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    h[4..8].copy_from_slice(&groups.to_le_bytes());
    h[8..16].copy_from_slice(&size.to_le_bytes());
    h[16..20].copy_from_slice(&elements.to_le_bytes());
    machine.host_write(Addr::pm(region.offset), &h)?;
    Ok(GpmCheckpoint {
        region,
        groups,
        capacity: size,
        elements,
        regs: vec![Vec::new(); groups as usize],
    })
}

/// Opens an existing checkpoint file (`gpmcp_open`). Registrations are
/// re-established by the application, *in the same order as at creation*
/// (§5.3: the library relies on registration order to identify structures).
///
/// # Errors
///
/// Fails when the file is missing or corrupt.
pub fn gpmcp_open(machine: &Machine, path: &str) -> CoreResult<GpmCheckpoint> {
    let file = machine.fs_open(path)?;
    let base = file.offset;
    if machine.read_u32(Addr::pm(base))? != MAGIC {
        return Err(CoreError::Corrupt("checkpoint header magic mismatch"));
    }
    let groups = machine.read_u32(Addr::pm(base + 4))?;
    let capacity = machine.read_u64(Addr::pm(base + 8))?;
    let elements = machine.read_u32(Addr::pm(base + 16))?;
    Ok(GpmCheckpoint {
        region: GpmRegion {
            path: path.to_owned(),
            offset: base,
            len: file.len,
        },
        groups,
        capacity,
        elements,
        regs: vec![Vec::new(); groups as usize],
    })
}

/// Closes a checkpoint handle (`gpmcp_close`).
///
/// # Errors
///
/// Fails when the backing file vanished.
pub fn gpmcp_close(machine: &Machine, cp: &GpmCheckpoint) -> CoreResult<()> {
    machine.fs_open(&cp.region.path)?;
    Ok(())
}

/// Registers a volatile data structure with a checkpoint group
/// (`gpmcp_register`). Order matters for restoration.
///
/// # Errors
///
/// Fails when the group does not exist, has all its element slots taken, or
/// would exceed its byte capacity. Pointer-based structures cannot be
/// checkpointed (§5.3) — only flat ranges are accepted by construction.
pub fn gpmcp_register(cp: &mut GpmCheckpoint, addr: Addr, size: u64, group: u32) -> CoreResult<()> {
    if group >= cp.groups {
        return Err(CoreError::NoSuchGroup(group));
    }
    let used: u64 = cp.registered_bytes(group);
    if used + size > cp.capacity {
        return Err(CoreError::GroupFull {
            group,
            needed: used + size,
            capacity: cp.capacity,
        });
    }
    if cp.regs[group as usize].len() as u32 >= cp.elements {
        return Err(CoreError::BadGeometry("group has no free element slots"));
    }
    cp.regs[group as usize].push(Registration { addr, size });
    Ok(())
}

/// The gpmcp memcpy kernel: thread `i` copies the [`COPY_CHUNK`]-byte chunk
/// at offset `i × COPY_CHUNK` (shorter at the source's tail), optionally
/// persisting it. Full warps — every lane owning a whole chunk — vectorize
/// as two warp-wide byte-span transfers plus one warp persist; tail warps
/// (partial or missing chunks diverge on operation count) decline to the
/// per-lane walk.
struct CopyKernel {
    src: Addr,
    dst: Addr,
    len: u64,
    persist: bool,
}

impl Kernel for CopyKernel {
    type State = ();
    /// Per-block staging buffer for the warp path (one warp of chunks),
    /// reused across warps and blocks.
    type Shared = Vec<u8>;

    fn reset_shared(&self, shared: &mut Vec<u8>) {
        shared.clear();
    }

    fn run(
        &self,
        _phase: u32,
        ctx: &mut ThreadCtx<'_>,
        _state: &mut (),
        _shared: &mut Vec<u8>,
    ) -> SimResult<()> {
        let i = ctx.global_id();
        let off = i * COPY_CHUNK;
        if off >= self.len {
            return Ok(());
        }
        let n = COPY_CHUNK.min(self.len - off) as usize;
        let mut buf = vec![0u8; n];
        ctx.ld_bytes(self.src.add(off), &mut buf)?;
        ctx.st_bytes(self.dst.add(off), &buf)?;
        if self.persist {
            ctx.gpm_persist()?;
        }
        Ok(())
    }

    fn run_warp(
        &self,
        _phase: u32,
        ctx: &mut WarpCtx<'_>,
        _states: &mut [()],
        shared: &mut Vec<u8>,
    ) -> SimResult<bool> {
        let lanes = ctx.lanes() as u64;
        let first = ctx.first_global_id();
        // Vectorize only when every lane owns a full chunk; otherwise some
        // lane would copy a short span (or nothing), and the per-lane walk
        // is the reference for that divergence.
        if (first + lanes) * COPY_CHUNK > self.len {
            return Ok(false);
        }
        let bytes = (lanes * COPY_CHUNK) as usize;
        shared.resize(bytes, 0);
        let off = first * COPY_CHUNK;
        let chunk = COPY_CHUNK as usize;
        ctx.ld_bytes_lanes(self.src.add(off), COPY_CHUNK, chunk, &mut shared[..bytes])?;
        ctx.st_bytes_lanes(self.dst.add(off), COPY_CHUNK, chunk, &shared[..bytes])?;
        if self.persist {
            ctx.gpm_persist()?;
        }
        Ok(true)
    }

    fn warp_fuel(&self, _phase: u32) -> Option<u64> {
        // Load + store (+ persist fence): the exact per-lane operation count
        // of a full chunk; tail lanes do less and decline anyway.
        Some(if self.persist { 3 } else { 2 })
    }
}

fn copy_kernel(
    machine: &mut Machine,
    src: Addr,
    dst: Addr,
    len: u64,
    persist: bool,
    gauge: &mut FuelGauge,
) -> SimResult<Ns> {
    let threads = len.div_ceil(COPY_CHUNK);
    let k = CopyKernel {
        src,
        dst,
        len,
        persist,
    };
    let r = launch_with_gauge(machine, LaunchConfig::for_elements(threads, 256), &k, gauge)
        .map_err(|e| match e {
            LaunchError::Sim(e) => e,
            LaunchError::Crashed(_) => SimError::Crashed,
        })?;
    Ok(r.elapsed)
}

/// Checkpoints a group (`gpmcp_checkpoint`): streams every registered
/// structure into the working PM buffer with a GPU kernel, persists it, then
/// atomically flips the consistent flag. Returns the elapsed time (the
/// machine clock advances by the same amount).
///
/// # Errors
///
/// Fails when the group does not exist or a copy faults.
pub fn gpmcp_checkpoint(machine: &mut Machine, cp: &GpmCheckpoint, group: u32) -> CoreResult<Ns> {
    gpmcp_checkpoint_gauged(machine, cp, group, &mut FuelGauge::Unlimited)
}

/// Like [`gpmcp_checkpoint`], but drives the copy kernels through the
/// caller's [`FuelGauge`], so the crash-consistency campaign can record
/// persist boundaries inside the double-buffer flip and replay crashes at
/// them. A `Crashed` error means the machine has crashed mid-checkpoint:
/// the working buffer is torn but the flag still names the previous
/// consistent copy.
///
/// # Errors
///
/// Same conditions as [`gpmcp_checkpoint`], plus
/// [`SimError::Crashed`](gpm_sim::SimError::Crashed) when the gauge's fuel
/// runs out.
pub fn gpmcp_checkpoint_gauged(
    machine: &mut Machine,
    cp: &GpmCheckpoint,
    group: u32,
    gauge: &mut FuelGauge,
) -> CoreResult<Ns> {
    if machine.trace_enabled() {
        machine.trace(EventKind::CheckpointBegin { group });
    }
    let result = (|| {
        let (_, _, t_copy) = fill_working_gauged(machine, cp, group, true, gauge)?;
        let t_publish = gpmcp_publish(machine, cp, group)?;
        Ok(t_copy + t_publish + machine.cfg.ddio_toggle_overhead * 2.0)
    })();
    // A crash mid-checkpoint already cut the span; close it on every other
    // path (success or a functional error).
    if machine.trace_enabled() && !matches!(result, Err(CoreError::Sim(SimError::Crashed))) {
        machine.trace(EventKind::CheckpointEnd { group });
    }
    result
}

/// Streams the group's registered structures into the working buffer. With
/// `persist`, the copy runs inside a DDIO window and fences per chunk (the
/// GPM path); without, writes reach PM unfenced (the GPM-NDP path — the
/// caller must have the CPU flush the returned range before
/// [`gpmcp_publish`]). Returns `(working buffer base, length, elapsed)`.
///
/// # Errors
///
/// Fails when the group does not exist or a copy faults.
pub fn gpmcp_fill_working(
    machine: &mut Machine,
    cp: &GpmCheckpoint,
    group: u32,
    persist: bool,
) -> CoreResult<(Addr, u64, Ns)> {
    fill_working_gauged(machine, cp, group, persist, &mut FuelGauge::Unlimited)
}

fn fill_working_gauged(
    machine: &mut Machine,
    cp: &GpmCheckpoint,
    group: u32,
    persist: bool,
    gauge: &mut FuelGauge,
) -> CoreResult<(Addr, u64, Ns)> {
    let (consistent, _) = cp.consistent(machine, group)?;
    let working = 1 - consistent;
    let dst = cp.buffer_addr(group, working);
    let mut total = Ns::ZERO;
    let mut copy_all = |m: &mut Machine| -> CoreResult<Ns> {
        let mut t = Ns::ZERO;
        let mut off = 0u64;
        for reg in cp.registrations(group) {
            t += copy_kernel(m, reg.addr, dst.add(off), reg.size, persist, gauge)?;
            off += reg.size;
        }
        Ok(t)
    };
    if persist {
        total += with_persist_window(machine, copy_all)?;
    } else {
        total += copy_all(machine)?;
    }
    Ok((dst, cp.registered_bytes(group), total))
}

/// Atomically publishes the working copy as consistent: bumps the sequence
/// number and flips the buffer index in one persisted 8-byte flag write.
/// Returns the elapsed time.
///
/// # Errors
///
/// Fails when the group does not exist.
pub fn gpmcp_publish(machine: &mut Machine, cp: &GpmCheckpoint, group: u32) -> CoreResult<Ns> {
    let (consistent, seq) = cp.consistent(machine, group)?;
    let working = 1 - consistent;
    let mut flag = [0u8; 8];
    flag[0..4].copy_from_slice(&(seq + 1).to_le_bytes());
    flag[4..8].copy_from_slice(&working.to_le_bytes());
    let flag_addr = cp.flag_addr(group);
    let mut cpu = CpuCtx::new(machine, HOST_WRITER);
    cpu.store(flag_addr, &flag)?;
    cpu.persist(flag_addr.offset, 8);
    let cpu_t = cpu.elapsed();
    machine.clock.advance(cpu_t);
    if machine.trace_enabled() {
        machine.trace(EventKind::CheckpointPublish { group });
    }
    Ok(cpu_t)
}

/// Restores a group (`gpmcp_restore`): copies the consistent PM buffer back
/// into the registered structures, in registration order. Returns elapsed
/// time.
///
/// # Errors
///
/// Fails when the group does not exist or a copy faults.
pub fn gpmcp_restore(machine: &mut Machine, cp: &GpmCheckpoint, group: u32) -> CoreResult<Ns> {
    let (consistent, _) = cp.consistent(machine, group)?;
    let src = cp.buffer_addr(group, consistent);
    let mut total = Ns::ZERO;
    let mut off = 0u64;
    for reg in cp.registrations(group) {
        total += copy_kernel(
            machine,
            src.add(off),
            reg.addr,
            reg.size,
            false,
            &mut FuelGauge::Unlimited,
        )?;
        off += reg.size;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled_machine(bytes: u64, seed: u8) -> (Machine, u64) {
        let mut m = Machine::default();
        let hbm = m.alloc_hbm(bytes).unwrap();
        let data: Vec<u8> = (0..bytes).map(|i| (i as u8).wrapping_mul(seed)).collect();
        m.host_write(Addr::hbm(hbm), &data).unwrap();
        (m, hbm)
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let (mut m, hbm) = filled_machine(10_000, 3);
        let mut cp = gpmcp_create(&mut m, "/pm/cp", 16_384, 4, 2).unwrap();
        gpmcp_register(&mut cp, Addr::hbm(hbm), 10_000, 0).unwrap();
        let t = gpmcp_checkpoint(&mut m, &cp, 0).unwrap();
        assert!(t.0 > 0.0);

        m.crash(); // HBM wiped
        assert_eq!(m.read_u64(Addr::hbm(hbm)).unwrap(), 0);
        gpmcp_restore(&mut m, &cp, 0).unwrap();
        let mut buf = vec![0u8; 10_000];
        m.read(Addr::hbm(hbm), &mut buf).unwrap();
        for (i, &b) in buf.iter().enumerate() {
            assert_eq!(b, (i as u8).wrapping_mul(3));
        }
    }

    #[test]
    fn double_buffering_preserves_previous_on_partial_write() {
        let (mut m, hbm) = filled_machine(4_096, 1);
        let mut cp = gpmcp_create(&mut m, "/pm/cp", 4_096, 2, 1).unwrap();
        gpmcp_register(&mut cp, Addr::hbm(hbm), 4_096, 0).unwrap();
        gpmcp_checkpoint(&mut m, &cp, 0).unwrap();
        let (which1, seq1) = cp.consistent(&m, 0).unwrap();
        assert_eq!(seq1, 1);

        // Second checkpoint writes the *other* buffer.
        let new_data: Vec<u8> = (0..4096u32).map(|i| (i as u8) ^ 0xFF).collect();
        m.host_write(Addr::hbm(hbm), &new_data).unwrap();
        gpmcp_checkpoint(&mut m, &cp, 0).unwrap();
        let (which2, seq2) = cp.consistent(&m, 0).unwrap();
        assert_eq!(seq2, 2);
        assert_ne!(which1, which2, "buffers alternate");
        // Restore returns the newest consistent data.
        m.crash();
        gpmcp_restore(&mut m, &cp, 0).unwrap();
        let mut buf = vec![0u8; 16];
        m.read(Addr::hbm(hbm), &mut buf).unwrap();
        assert_eq!(&buf[..], &new_data[..16]);
    }

    #[test]
    fn groups_are_independent() {
        let (mut m, a) = filled_machine(1_000, 2);
        let b = m.alloc_hbm(1_000).unwrap();
        m.host_write(Addr::hbm(b), &[9u8; 1000]).unwrap();
        let mut cp = gpmcp_create(&mut m, "/pm/cp", 2_048, 2, 2).unwrap();
        gpmcp_register(&mut cp, Addr::hbm(a), 1_000, 0).unwrap();
        gpmcp_register(&mut cp, Addr::hbm(b), 1_000, 1).unwrap();
        gpmcp_checkpoint(&mut m, &cp, 0).unwrap();
        // Group 1 never checkpointed: seq stays 0.
        assert_eq!(cp.consistent(&m, 0).unwrap().1, 1);
        assert_eq!(cp.consistent(&m, 1).unwrap().1, 0);
    }

    #[test]
    fn multiple_registrations_restore_in_order() {
        let (mut m, a) = filled_machine(512, 5);
        let b = m.alloc_hbm(256).unwrap();
        m.host_write(Addr::hbm(b), &[0xAB; 256]).unwrap();
        let mut cp = gpmcp_create(&mut m, "/pm/cp", 1_024, 4, 1).unwrap();
        gpmcp_register(&mut cp, Addr::hbm(a), 512, 0).unwrap();
        gpmcp_register(&mut cp, Addr::hbm(b), 256, 0).unwrap();
        gpmcp_checkpoint(&mut m, &cp, 0).unwrap();
        m.crash();
        // Reopen as recovery would, re-register in the same order.
        let mut cp = gpmcp_open(&m, "/pm/cp").unwrap();
        gpmcp_register(&mut cp, Addr::hbm(a), 512, 0).unwrap();
        gpmcp_register(&mut cp, Addr::hbm(b), 256, 0).unwrap();
        gpmcp_restore(&mut m, &cp, 0).unwrap();
        let mut buf = vec![0u8; 256];
        m.read(Addr::hbm(b), &mut buf).unwrap();
        assert_eq!(buf, vec![0xAB; 256]);
        assert_eq!(
            m.read_u32(Addr::hbm(a + 4)).unwrap() & 0xFF,
            (4u32 * 5) & 0xFF
        );
    }

    #[test]
    fn registration_limits_enforced() {
        let mut m = Machine::default();
        let h = m.alloc_hbm(1 << 12).unwrap();
        let mut cp = gpmcp_create(&mut m, "/pm/cp", 100, 1, 1).unwrap();
        assert!(matches!(
            gpmcp_register(&mut cp, Addr::hbm(h), 200, 0),
            Err(CoreError::GroupFull { .. })
        ));
        gpmcp_register(&mut cp, Addr::hbm(h), 50, 0).unwrap();
        assert!(
            gpmcp_register(&mut cp, Addr::hbm(h), 10, 0).is_err(),
            "element slots"
        );
        assert!(matches!(
            gpmcp_register(&mut cp, Addr::hbm(h), 10, 9),
            Err(CoreError::NoSuchGroup(9))
        ));
    }

    #[test]
    fn create_validates_and_open_rejects_garbage() {
        let mut m = Machine::default();
        assert!(gpmcp_create(&mut m, "/pm/z", 0, 1, 1).is_err());
        assert!(gpmcp_create(&mut m, "/pm/z", 10, 0, 1).is_err());
        m.fs_create("/pm/garbage", 1024).unwrap();
        assert!(matches!(
            gpmcp_open(&m, "/pm/garbage"),
            Err(CoreError::Corrupt(_))
        ));
        let cp = gpmcp_create(&mut m, "/pm/ok", 64, 1, 1).unwrap();
        gpmcp_close(&m, &cp).unwrap();
    }

    #[test]
    fn checkpoint_streams_at_high_bandwidth() {
        // The working buffer is written as a long unfenced-per-chunk stream:
        // most bytes must classify sequential-aligned (Figure 12's
        // checkpointing result).
        let (mut m, hbm) = filled_machine(1 << 20, 7);
        let mut cp = gpmcp_create(&mut m, "/pm/cp", 1 << 20, 1, 1).unwrap();
        gpmcp_register(&mut cp, Addr::hbm(hbm), 1 << 20, 0).unwrap();
        gpmcp_checkpoint(&mut m, &cp, 0).unwrap();
        use gpm_sim::pattern::AccessPattern;
        let aligned = m.gpu_pm_pattern.bytes_in(AccessPattern::SeqAligned);
        let total = m.gpu_pm_pattern.total_bytes();
        assert!(
            aligned as f64 > 0.9 * total as f64,
            "expected mostly aligned stream: {aligned}/{total}"
        );
    }
}
