//! Write-ahead undo logging to PM from GPU kernels (§5.2).
//!
//! Two backends share one API, as in libGPM:
//!
//! * [`gpmlog_create_hcl`] — **Hierarchical Coalesced Logging**: lock-free,
//!   per-thread offsets derived from the execution hierarchy, entries
//!   striped so warp writes coalesce into single 128-byte transactions.
//! * [`gpmlog_create_conv`] — **conventional distributed logging**: `P`
//!   lock-protected, sequentially-appended partitions (the baseline of
//!   Figure 11).
//!
//! Failure atomicity follows the paper: a thread persists its entry, *then*
//! increments and persists its tail index, which acts as the recovery
//! sentinel — a crash between the two leaves the entry invisible.

pub mod layout;

use gpm_gpu::ThreadCtx;
use gpm_sim::cpu::CpuCtx;
use gpm_sim::{EventKind, Machine, Ns, SimError, SimResult};

use crate::error::{CoreError, CoreResult};
use crate::map::{gpm_map, GpmRegion};
use crate::persist::GpmThreadExt;
use layout::{ConvLayout, HclLayout, CHUNK};

const MAGIC: u32 = 0x4C4D_5047; // "GPML"
const KIND_CONV: u32 = 0;
const KIND_HCL: u32 = 1;
const KIND_HCL_UNSTRIPED: u32 = 2;

/// Which structure backs a log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogKind {
    /// Hierarchical coalesced logging.
    Hcl(HclLayout),
    /// Conventional distributed (partitioned, locked) logging.
    Conventional(ConvLayout),
}

/// Device-side view of a log: a small `Copy` handle kernels capture by
/// value, like a CUDA kernel argument.
#[derive(Debug, Clone, Copy)]
pub struct GpmLogDev {
    base: u64,
    kind: LogKind,
}

impl GpmLogDev {
    fn pm(&self, off: u64) -> gpm_sim::Addr {
        gpm_sim::Addr::pm(self.base + off)
    }

    /// Number of 4-byte chunks an entry of `len` bytes occupies.
    pub fn chunks_for(len: usize) -> u64 {
        (len as u64).div_ceil(CHUNK)
    }

    /// Inserts `entry` into the calling thread's log (HCL) or its default
    /// partition (conventional; partition = `tid % partitions`). The entry
    /// and then the tail sentinel are persisted (`gpmlog_insert`).
    ///
    /// # Errors
    ///
    /// Fails when the log region is full, the thread is outside the log's
    /// geometry, or persistence is unavailable.
    pub fn insert(&self, ctx: &mut ThreadCtx<'_>, entry: &[u8]) -> SimResult<()> {
        match self.kind {
            LogKind::Hcl(_) => self.hcl_insert(ctx, entry),
            LogKind::Conventional(l) => {
                let p = (ctx.global_id() % l.partitions as u64) as u32;
                self.insert_to(ctx, entry, p)
            }
        }
    }

    /// Inserts into an explicit partition of a conventional log
    /// (`gpmlog_insert` with a partition argument).
    ///
    /// # Errors
    ///
    /// Fails on HCL logs, bad partitions, full partitions, or when
    /// persistence is unavailable.
    pub fn insert_to(
        &self,
        ctx: &mut ThreadCtx<'_>,
        entry: &[u8],
        partition: u32,
    ) -> SimResult<()> {
        let LogKind::Conventional(l) = self.kind else {
            return Err(SimError::Invalid("partitioned insert on an HCL log"));
        };
        if partition >= l.partitions {
            return Err(SimError::Invalid("no such log partition"));
        }
        let tail_addr = self.pm(l.tail_offset(partition));
        let tail = ctx.ld_u32(tail_addr)? as u64;
        let needed = 4 + entry.len() as u64;
        if tail + needed > l.partition_capacity {
            return Err(SimError::Invalid("conventional log partition full"));
        }
        ctx.st_u32(self.pm(l.data_offset(partition, tail)), entry.len() as u32)?;
        ctx.st_bytes(self.pm(l.data_offset(partition, tail + 4)), entry)?;
        ctx.gpm_persist()?;
        ctx.st_u32(tail_addr, (tail + needed) as u32)?;
        ctx.gpm_persist()?;
        ctx.trace_marker(EventKind::LogAppend {
            bytes: entry.len() as u64,
            hcl: false,
        });
        // Lock-protected sequential append: inserts to the same partition
        // serialize (lock + two ordered persists + drain of the entry).
        // Lock handoff gets more expensive as more threads spin on the
        // partition's lock line (cache-line bouncing grows with contenders) —
        // the scaling collapse Figure 11(b) shows.
        let cfg = ctx.config();
        let contenders = (ctx.total_threads() / l.partitions.max(1) as u64).max(1) as f64;
        let serial = Ns(cfg.cpu_lock_latency.0 * (1.0 + contenders / 2.0)
            + 2.0 * cfg.effective_system_fence_latency().0
            + needed as f64 / cfg.pm_bw_random);
        ctx.serialize(self.base + partition as u64, serial);
        Ok(())
    }

    /// Inserts like [`GpmLogDev::insert`] but *without* persist fences: the
    /// entry and tail reach PM only via DDIO/LLC eviction. This is the write
    /// path available to the GPM-NDP configuration (§6.1), where the CPU
    /// flushes the log region after the kernel. HCL only.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GpmLogDev::insert`], minus persistence.
    pub fn insert_unfenced(&self, ctx: &mut ThreadCtx<'_>, entry: &[u8]) -> SimResult<()> {
        let LogKind::Hcl(l) = self.kind else {
            return Err(SimError::Invalid("unfenced insert is HCL-only"));
        };
        let tid = ctx.global_id();
        if tid >= l.total_threads() {
            return Err(SimError::Invalid("thread outside the log's geometry"));
        }
        let chunks = Self::chunks_for(entry.len());
        let tail_addr = self.pm(l.tail_offset(tid));
        let tail = ctx.ld_u32(tail_addr)? as u64;
        if tail + chunks > l.capacity_chunks as u64 {
            return Err(SimError::Invalid("HCL log full"));
        }
        for k in 0..chunks {
            let mut chunk = [0u8; CHUNK as usize];
            let s = (k * CHUNK) as usize;
            let e = entry.len().min(s + CHUNK as usize);
            chunk[..e - s].copy_from_slice(&entry[s..e]);
            ctx.st_bytes(self.pm(l.chunk_offset(tid, tail + k)), &chunk)?;
        }
        ctx.st_u32(tail_addr, (tail + chunks) as u32)?;
        ctx.trace_marker(EventKind::LogAppend {
            bytes: entry.len() as u64,
            hcl: true,
        });
        Ok(())
    }

    fn hcl_insert(&self, ctx: &mut ThreadCtx<'_>, entry: &[u8]) -> SimResult<()> {
        let LogKind::Hcl(l) = self.kind else {
            unreachable!()
        };
        let tid = ctx.global_id();
        if tid >= l.total_threads() {
            return Err(SimError::Invalid("thread outside the log's geometry"));
        }
        let chunks = Self::chunks_for(entry.len());
        let tail_addr = self.pm(l.tail_offset(tid));
        let tail = ctx.ld_u32(tail_addr)? as u64;
        if tail + chunks > l.capacity_chunks as u64 {
            return Err(SimError::Invalid("HCL log full"));
        }
        // SIMD stores: chunk k of every lane in the warp lands in one
        // 128-byte stripe, which the engine coalesces to one transaction.
        for k in 0..chunks {
            let mut chunk = [0u8; CHUNK as usize];
            let s = (k * CHUNK) as usize;
            let e = entry.len().min(s + CHUNK as usize);
            chunk[..e - s].copy_from_slice(&entry[s..e]);
            ctx.st_bytes(self.pm(l.chunk_offset(tid, tail + k)), &chunk)?;
        }
        ctx.gpm_persist()?;
        ctx.st_u32(tail_addr, (tail + chunks) as u32)?;
        ctx.gpm_persist()?;
        ctx.trace_marker(EventKind::LogAppend {
            bytes: entry.len() as u64,
            hcl: true,
        });
        Ok(())
    }

    /// Reads the newest entry (of known size `buf.len()`) without removing
    /// it (`gpmlog_read`).
    ///
    /// # Errors
    ///
    /// Fails when no complete entry of that size is present.
    pub fn read_top(&self, ctx: &mut ThreadCtx<'_>, buf: &mut [u8]) -> SimResult<()> {
        match self.kind {
            LogKind::Hcl(l) => {
                let tid = ctx.global_id();
                let chunks = Self::chunks_for(buf.len());
                let tail = ctx.ld_u32(self.pm(l.tail_offset(tid)))? as u64;
                if tail < chunks {
                    return Err(SimError::Invalid("log holds no entry of that size"));
                }
                for k in 0..chunks {
                    let mut chunk = [0u8; CHUNK as usize];
                    ctx.ld_bytes(self.pm(l.chunk_offset(tid, tail - chunks + k)), &mut chunk)?;
                    let s = (k * CHUNK) as usize;
                    let e = buf.len().min(s + CHUNK as usize);
                    buf[s..e].copy_from_slice(&chunk[..e - s]);
                }
                Ok(())
            }
            LogKind::Conventional(l) => {
                let p = (ctx.global_id() % l.partitions as u64) as u32;
                self.read_top_from(ctx, buf, p)
            }
        }
    }

    /// Reads the newest entry of a specific conventional partition.
    ///
    /// # Errors
    ///
    /// Fails on HCL logs or when the top entry's size differs.
    pub fn read_top_from(
        &self,
        ctx: &mut ThreadCtx<'_>,
        buf: &mut [u8],
        partition: u32,
    ) -> SimResult<()> {
        let LogKind::Conventional(l) = self.kind else {
            return Err(SimError::Invalid("partitioned read on an HCL log"));
        };
        let tail = ctx.ld_u32(self.pm(l.tail_offset(partition)))? as u64;
        let needed = 4 + buf.len() as u64;
        if tail < needed {
            return Err(SimError::Invalid("log holds no entry of that size"));
        }
        let start = tail - needed;
        let len = ctx.ld_u32(self.pm(l.data_offset(partition, start)))?;
        if len as usize != buf.len() {
            return Err(SimError::Invalid("top entry size mismatch"));
        }
        ctx.ld_bytes(self.pm(l.data_offset(partition, start + 4)), buf)
    }

    /// Removes the newest entry of size `len` from the calling thread's log
    /// (or its default partition) and persists the new tail (`gpmlog_remove`).
    ///
    /// # Errors
    ///
    /// Fails when the log is empty or persistence is unavailable.
    pub fn remove(&self, ctx: &mut ThreadCtx<'_>, len: usize) -> SimResult<()> {
        match self.kind {
            LogKind::Hcl(l) => {
                let tid = ctx.global_id();
                let chunks = Self::chunks_for(len);
                let tail_addr = self.pm(l.tail_offset(tid));
                let tail = ctx.ld_u32(tail_addr)? as u64;
                if tail < chunks {
                    return Err(SimError::Invalid("removing more than the log holds"));
                }
                ctx.st_u32(tail_addr, (tail - chunks) as u32)?;
                ctx.gpm_persist()
            }
            LogKind::Conventional(l) => {
                let p = (ctx.global_id() % l.partitions as u64) as u32;
                let tail_addr = self.pm(l.tail_offset(p));
                let tail = ctx.ld_u32(tail_addr)? as u64;
                let needed = 4 + len as u64;
                if tail < needed {
                    return Err(SimError::Invalid("removing more than the log holds"));
                }
                ctx.st_u32(tail_addr, (tail - needed) as u32)?;
                ctx.gpm_persist()
            }
        }
    }

    /// Truncates the calling thread's log / default partition
    /// (`gpmlog_clear`).
    ///
    /// # Errors
    ///
    /// Fails when persistence is unavailable.
    pub fn clear(&self, ctx: &mut ThreadCtx<'_>) -> SimResult<()> {
        let tail_addr = match self.kind {
            LogKind::Hcl(l) => self.pm(l.tail_offset(ctx.global_id())),
            LogKind::Conventional(l) => {
                let p = (ctx.global_id() % l.partitions as u64) as u32;
                self.pm(l.tail_offset(p))
            }
        };
        ctx.st_u32(tail_addr, 0)?;
        ctx.gpm_persist()
    }

    /// Current tail (in chunks for HCL, bytes for conventional) of the
    /// calling thread's log — the recovery sentinel.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn tail(&self, ctx: &mut ThreadCtx<'_>) -> SimResult<u32> {
        let addr = match self.kind {
            LogKind::Hcl(l) => self.pm(l.tail_offset(ctx.global_id())),
            LogKind::Conventional(l) => {
                let p = (ctx.global_id() % l.partitions as u64) as u32;
                self.pm(l.tail_offset(p))
            }
        };
        ctx.ld_u32(addr)
    }

    /// The log's structure.
    pub fn kind(&self) -> LogKind {
        self.kind
    }
}

/// Host-side handle to a PM-resident log.
#[derive(Debug, Clone)]
pub struct GpmLog {
    /// The mapped PM region backing the log.
    pub region: GpmRegion,
    dev: GpmLogDev,
}

impl GpmLog {
    /// The device-side handle to pass into kernels.
    pub fn dev(&self) -> GpmLogDev {
        self.dev
    }

    /// Host-side read of a thread's/partition's tail (for recovery drivers
    /// and tests).
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn host_tail(&self, machine: &Machine, index: u64) -> CoreResult<u32> {
        let off = match self.dev.kind {
            LogKind::Hcl(l) => l.tail_offset(index),
            LogKind::Conventional(l) => l.tail_offset(index as u32),
        };
        Ok(machine.read_u32(gpm_sim::Addr::pm(self.dev.base + off))?)
    }

    /// Truncates every thread's/partition's log from the host (used between
    /// transactions once a batch commits). The host scans the tail area and
    /// rewrites only the cache lines holding non-zero tails, so truncation
    /// costs (and writes) scale with how much was actually logged. Accounts
    /// CPU time and advances the machine clock.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn host_clear(&self, machine: &mut Machine) -> CoreResult<Ns> {
        let (tails_off, tails_len) = match self.dev.kind {
            LogKind::Hcl(l) => (layout::HEADER, l.tails_bytes()),
            LogKind::Conventional(l) => (layout::HEADER, l.partitions as u64 * 256),
        };
        let base = self.dev.base + tails_off;
        let mut tails = vec![0u8; tails_len as usize];
        machine.read(gpm_sim::Addr::pm(base), &mut tails)?;
        let mut cpu = CpuCtx::new(machine, gpm_sim::HOST_WRITER);
        cpu.compute(Ns(tails_len as f64 / 8.0)); // scan at ~8 B/ns
        let zeros = [0u8; 64];
        for (i, line) in tails.chunks(64).enumerate() {
            if line.iter().any(|&b| b != 0) {
                let off = base + i as u64 * 64;
                cpu.store(gpm_sim::Addr::pm(off), &zeros[..line.len()])?;
                cpu.clflush(off, line.len() as u64);
            }
        }
        cpu.sfence();
        let t = cpu.elapsed();
        machine.clock.advance(t);
        if machine.trace_enabled() {
            machine.trace(EventKind::LogClear { bytes: tails_len });
        }
        Ok(t)
    }
}

fn write_header(
    machine: &mut Machine,
    base: u64,
    kind: u32,
    a: u32,
    b: u32,
    c: u32,
) -> SimResult<()> {
    let mut h = [0u8; 24];
    h[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    h[4..8].copy_from_slice(&kind.to_le_bytes());
    h[8..12].copy_from_slice(&a.to_le_bytes());
    h[12..16].copy_from_slice(&b.to_le_bytes());
    h[16..20].copy_from_slice(&c.to_le_bytes());
    machine.host_write(gpm_sim::Addr::pm(base), &h)
}

/// Creates an HCL log sized for `blocks × threads` GPU threads sharing
/// `size` bytes of log data (`gpmlog_create_hcl`).
///
/// # Errors
///
/// Fails on bad geometry or PM exhaustion.
pub fn gpmlog_create_hcl(
    machine: &mut Machine,
    path: &str,
    size: u64,
    blocks: u32,
    threads_per_block: u32,
) -> CoreResult<GpmLog> {
    let l = HclLayout::new(size, blocks, threads_per_block)?;
    let region = gpm_map(machine, path, l.file_bytes(), true)?;
    write_header(
        machine,
        region.offset,
        KIND_HCL,
        blocks,
        threads_per_block,
        l.capacity_chunks,
    )?;
    Ok(GpmLog {
        dev: GpmLogDev {
            base: region.offset,
            kind: LogKind::Hcl(l),
        },
        region,
    })
}

/// Creates an HCL log *without* entry striping: same hierarchy and
/// lock-freedom, but each thread's entry is contiguous, so a warp's SIMD
/// stores scatter over 32 lines instead of coalescing into one. This is the
/// ablation isolating HCL's second optimization (§5.2 ②).
///
/// # Errors
///
/// Fails on bad geometry or PM exhaustion.
pub fn gpmlog_create_hcl_unstriped(
    machine: &mut Machine,
    path: &str,
    size: u64,
    blocks: u32,
    threads_per_block: u32,
) -> CoreResult<GpmLog> {
    let l = HclLayout::with_striping(size, blocks, threads_per_block, false)?;
    let region = gpm_map(machine, path, l.file_bytes(), true)?;
    write_header(
        machine,
        region.offset,
        KIND_HCL_UNSTRIPED,
        blocks,
        threads_per_block,
        l.capacity_chunks,
    )?;
    Ok(GpmLog {
        dev: GpmLogDev {
            base: region.offset,
            kind: LogKind::Hcl(l),
        },
        region,
    })
}

/// Creates a conventional distributed log with `partitions` partitions
/// sharing `size` bytes (`gpmlog_create_conv`).
///
/// # Errors
///
/// Fails on bad geometry or PM exhaustion.
pub fn gpmlog_create_conv(
    machine: &mut Machine,
    path: &str,
    size: u64,
    partitions: u32,
) -> CoreResult<GpmLog> {
    let l = ConvLayout::new(size, partitions)?;
    let region = gpm_map(machine, path, l.file_bytes(), true)?;
    write_header(
        machine,
        region.offset,
        KIND_CONV,
        partitions,
        0,
        l.partition_capacity.min(u32::MAX as u64) as u32,
    )?;
    Ok(GpmLog {
        dev: GpmLogDev {
            base: region.offset,
            kind: LogKind::Conventional(l),
        },
        region,
    })
}

/// Opens an existing log by path, e.g. during recovery (`gpmlog_open`).
///
/// # Errors
///
/// Fails when the file is missing or its header is corrupt.
pub fn gpmlog_open(machine: &Machine, path: &str) -> CoreResult<GpmLog> {
    let file = machine.fs_open(path)?;
    let base = file.offset;
    let magic = machine.read_u32(gpm_sim::Addr::pm(base))?;
    if magic != MAGIC {
        return Err(CoreError::Corrupt("log header magic mismatch"));
    }
    let kind = machine.read_u32(gpm_sim::Addr::pm(base + 4))?;
    let a = machine.read_u32(gpm_sim::Addr::pm(base + 8))?;
    let b = machine.read_u32(gpm_sim::Addr::pm(base + 12))?;
    let c = machine.read_u32(gpm_sim::Addr::pm(base + 16))?;
    let kind = match kind {
        KIND_HCL | KIND_HCL_UNSTRIPED => LogKind::Hcl(HclLayout {
            blocks: a,
            threads_per_block: b,
            capacity_chunks: c,
            striped: kind == KIND_HCL,
        }),
        KIND_CONV => LogKind::Conventional(ConvLayout {
            partitions: a,
            partition_capacity: c as u64,
        }),
        _ => return Err(CoreError::Corrupt("unknown log kind")),
    };
    Ok(GpmLog {
        region: GpmRegion {
            path: path.to_owned(),
            offset: base,
            len: file.len,
        },
        dev: GpmLogDev { base, kind },
    })
}

/// Closes a log handle (`gpmlog_close`). Validates the backing file.
///
/// # Errors
///
/// Fails when the backing file vanished.
pub fn gpmlog_close(machine: &Machine, log: &GpmLog) -> CoreResult<()> {
    machine.fs_open(&log.region.path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::gpm_persist_begin;
    use gpm_gpu::{launch, launch_with_fuel, FnKernel, LaunchConfig};
    use gpm_sim::Addr;

    fn hcl_setup(size: u64, blocks: u32, tpb: u32) -> (Machine, GpmLog) {
        let mut m = Machine::default();
        let log = gpmlog_create_hcl(&mut m, "/pm/log", size, blocks, tpb).unwrap();
        gpm_persist_begin(&mut m);
        (m, log)
    }

    #[test]
    fn hcl_insert_read_roundtrip() {
        let (mut m, log) = hcl_setup(1 << 16, 2, 64);
        let dev = log.dev();
        let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
            let entry = (ctx.global_id() * 3 + 1).to_le_bytes();
            dev.insert(ctx, &entry)
        });
        launch(&mut m, LaunchConfig::new(2, 64), &k).unwrap();

        let check = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
            let mut buf = [0u8; 8];
            dev.read_top(ctx, &mut buf)?;
            assert_eq!(u64::from_le_bytes(buf), ctx.global_id() * 3 + 1);
            Ok(())
        });
        launch(&mut m, LaunchConfig::new(2, 64), &check).unwrap();
    }

    #[test]
    fn hcl_entries_survive_crash() {
        let (mut m, log) = hcl_setup(1 << 16, 1, 32);
        let dev = log.dev();
        let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
            dev.insert(ctx, &(0xABCDu32 + ctx.global_id() as u32).to_le_bytes())
        });
        launch(&mut m, LaunchConfig::new(1, 32), &k).unwrap();
        m.crash();
        let log = gpmlog_open(&m, "/pm/log").unwrap();
        for tid in 0..32 {
            assert_eq!(
                log.host_tail(&m, tid).unwrap(),
                1,
                "tail sentinel persisted"
            );
        }
        let dev = log.dev();
        gpm_persist_begin(&mut m);
        let check = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
            let mut buf = [0u8; 4];
            dev.read_top(ctx, &mut buf)?;
            assert_eq!(u32::from_le_bytes(buf), 0xABCD + ctx.global_id() as u32);
            Ok(())
        });
        launch(&mut m, LaunchConfig::new(1, 32), &check).unwrap();
    }

    #[test]
    fn crash_mid_insert_leaves_entry_invisible() {
        // Fuel chosen so some threads never persist their tail: those
        // entries must be invisible after the crash (tail == 0).
        let (mut m, log) = hcl_setup(1 << 16, 4, 64);
        let dev = log.dev();
        let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| dev.insert(ctx, &[0xEE; 16]));
        let err = launch_with_fuel(&mut m, LaunchConfig::new(4, 64), &k, 333).unwrap_err();
        assert!(matches!(err, gpm_gpu::LaunchError::Crashed(_)));
        let log = gpmlog_open(&m, "/pm/log").unwrap();
        let mut complete = 0;
        let mut empty = 0;
        for tid in 0..256 {
            match log.host_tail(&m, tid).unwrap() {
                0 => empty += 1,
                4 => complete += 1,
                other => panic!("tail {other}: sentinel update must be atomic"),
            }
        }
        assert!(complete > 0, "threads that finished are visible");
        assert!(empty > 0, "threads that had not fenced their tail are not");
    }

    #[test]
    fn hcl_warp_insert_coalesces() {
        let (mut m, log) = hcl_setup(1 << 16, 1, 32);
        let dev = log.dev();
        let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| dev.insert(ctx, &[7u8; 16]));
        let r = launch(&mut m, LaunchConfig::new(1, 32), &k).unwrap();
        // 16-byte entries = 4 chunks -> 4 striped data transactions, plus one
        // tail-line transaction and one tail-read; nowhere near 32×5.
        assert!(
            r.costs.pcie_write_txns <= 6,
            "expected coalesced stripes, got {} txns",
            r.costs.pcie_write_txns
        );
        assert_eq!(
            r.costs.system_fence_events, 2,
            "entry persist + tail persist"
        );
    }

    #[test]
    fn hcl_remove_and_clear() {
        let (mut m, log) = hcl_setup(1 << 16, 1, 32);
        let dev = log.dev();
        launch(
            &mut m,
            LaunchConfig::new(1, 32),
            &FnKernel(move |ctx: &mut ThreadCtx<'_>| {
                dev.insert(ctx, &[1u8; 8])?;
                dev.insert(ctx, &[2u8; 8])?;
                assert_eq!(dev.tail(ctx)?, 4);
                dev.remove(ctx, 8)?;
                assert_eq!(dev.tail(ctx)?, 2);
                let mut buf = [0u8; 8];
                dev.read_top(ctx, &mut buf)?;
                assert_eq!(buf, [1u8; 8]);
                dev.clear(ctx)?;
                assert_eq!(dev.tail(ctx)?, 0);
                Ok(())
            }),
        )
        .unwrap();
    }

    #[test]
    fn hcl_full_log_rejected() {
        let (mut m, log) = hcl_setup(32 * 4 * 2, 1, 32); // 2 chunks per thread
        let dev = log.dev();
        let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
            dev.insert(ctx, &[1u8; 8])?; // fills both chunks
            dev.insert(ctx, &[2u8; 8]) // overflows
        });
        let err = launch(&mut m, LaunchConfig::new(1, 32), &k).unwrap_err();
        assert!(matches!(err, SimError::Invalid(m) if m.contains("full")));
    }

    #[test]
    fn conventional_roundtrip_and_serialization() {
        let mut m = Machine::default();
        let log = gpmlog_create_conv(&mut m, "/pm/conv", 1 << 16, 4).unwrap();
        gpm_persist_begin(&mut m);
        let dev = log.dev();
        let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
            dev.insert(ctx, &ctx.global_id().to_le_bytes())
        });
        let r = launch(&mut m, LaunchConfig::new(1, 64), &k).unwrap();
        assert!(r.costs.serial_time().0 > 0.0, "locked appends serialize");

        let check = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
            if ctx.global_id() < 4 {
                let mut buf = [0u8; 8];
                dev.read_top(ctx, &mut buf)?;
                // Last inserter into partition p was thread 60+p.
                assert_eq!(u64::from_le_bytes(buf), 60 + ctx.global_id() % 4);
            }
            Ok(())
        });
        launch(&mut m, LaunchConfig::new(1, 32), &check).unwrap();
    }

    #[test]
    fn conventional_remove() {
        let mut m = Machine::default();
        let log = gpmlog_create_conv(&mut m, "/pm/conv2", 1 << 16, 2).unwrap();
        gpm_persist_begin(&mut m);
        let dev = log.dev();
        launch(
            &mut m,
            LaunchConfig::new(1, 32),
            &FnKernel(move |ctx: &mut ThreadCtx<'_>| {
                if ctx.global_id() == 0 {
                    dev.insert_to(ctx, &[5u8; 12], 1)?;
                    let mut buf = [0u8; 12];
                    dev.read_top_from(ctx, &mut buf, 1)?;
                    assert_eq!(buf, [5u8; 12]);
                    dev.remove(ctx, 12).err(); // default partition 0 is empty
                }
                Ok(())
            }),
        )
        .unwrap();
        assert_eq!(log.host_tail(&m, 1).unwrap(), 16);
    }

    #[test]
    fn open_reconstructs_geometry() {
        let (m, log) = hcl_setup(1 << 16, 2, 64);
        let opened = gpmlog_open(&m, "/pm/log").unwrap();
        assert_eq!(opened.dev().kind(), log.dev().kind());
        gpmlog_close(&m, &opened).unwrap();
    }

    #[test]
    fn open_rejects_garbage() {
        let mut m = Machine::default();
        m.fs_create("/pm/junk", 4096).unwrap();
        assert!(matches!(
            gpmlog_open(&m, "/pm/junk"),
            Err(CoreError::Corrupt(_))
        ));
        assert!(gpmlog_open(&m, "/pm/missing").is_err());
    }

    #[test]
    fn host_clear_truncates_all() {
        let (mut m, log) = hcl_setup(1 << 16, 1, 64);
        let dev = log.dev();
        launch(
            &mut m,
            LaunchConfig::new(1, 64),
            &FnKernel(move |ctx: &mut ThreadCtx<'_>| dev.insert(ctx, &[9u8; 4])),
        )
        .unwrap();
        let t = log.host_clear(&mut m).unwrap();
        assert!(t.0 > 0.0);
        for tid in 0..64 {
            assert_eq!(log.host_tail(&m, tid).unwrap(), 0);
        }
        m.crash();
        for tid in 0..64 {
            assert_eq!(log.host_tail(&m, tid).unwrap(), 0, "clear was durable");
        }
    }

    #[test]
    fn thread_outside_geometry_rejected() {
        let (mut m, log) = hcl_setup(1 << 12, 1, 32);
        let dev = log.dev();
        let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| dev.insert(ctx, &[1u8; 4]));
        let err = launch(&mut m, LaunchConfig::new(2, 32), &k).unwrap_err();
        assert!(matches!(err, SimError::Invalid(m) if m.contains("geometry")));
    }

    #[test]
    fn pm_region_untouched_by_unrelated_addresses() {
        let (mut m, log) = hcl_setup(1 << 12, 1, 32);
        let before = m
            .read_u64(Addr::pm(log.region.offset + log.region.len - 8))
            .unwrap();
        let dev = log.dev();
        launch(
            &mut m,
            LaunchConfig::new(1, 32),
            &FnKernel(move |ctx: &mut ThreadCtx<'_>| dev.insert(ctx, &[1u8; 4])),
        )
        .unwrap();
        let after = m
            .read_u64(Addr::pm(log.region.offset + log.region.len - 8))
            .unwrap();
        assert_eq!(before, after);
    }
}
