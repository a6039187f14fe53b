//! Redo logging: an extension of libGPM's write-ahead logging.
//!
//! The paper implements undo logging (§5.2): each update persists the *old*
//! value, then the in-place update, costing two persist points per update.
//! A redo log inverts the protocol: the *new* value is logged and persisted,
//! and the in-place update itself is left unfenced (it reaches PM lazily via
//! DDIO/LLC eviction). On recovery, a committed transaction's records are
//! *replayed* idempotently; an uncommitted one is discarded. This trades the
//! second fence per update for a replay pass after crashes — a win for
//! update-heavy transactions (see the `redo_uses_fewer_fences_than_undo`
//! test below and `examples/extensions.rs`).
//!
//! Records are fixed-size per log (chosen at creation), each
//! `[pm offset: u64][payload]`, striped through the underlying HCL layout so
//! inserts still coalesce. Records of one thread replay in insertion order;
//! as with the paper's undo logs, concurrent transactions must not update
//! overlapping locations from different threads.

use gpm_gpu::{launch, FnKernel, LaunchConfig, ThreadCtx};
use gpm_sim::{Machine, Ns, SimError, SimResult};

use crate::error::{CoreError, CoreResult};
use crate::log::{gpmlog_create_hcl, GpmLog, GpmLogDev};
use crate::map::{gpm_persist_begin, gpm_persist_end};
use crate::persist::GpmThreadExt;
use crate::txn::TxnFlag;

/// Host-side handle to a redo log.
#[derive(Debug)]
pub struct RedoLog {
    log: GpmLog,
    flag: TxnFlag,
    payload: usize,
}

/// Device-side handle for in-kernel redo recording.
#[derive(Debug, Clone, Copy)]
pub struct RedoLogDev {
    log: GpmLogDev,
    payload: usize,
}

impl RedoLogDev {
    /// Bytes of one full record (offset header + payload).
    fn record_len(&self) -> usize {
        8 + self.payload
    }

    /// Logs the *new* value destined for PM offset `dst`, persists the
    /// record, then applies the in-place update **unfenced** — the redo
    /// protocol's whole point. `data` must be exactly the log's payload
    /// size.
    ///
    /// # Errors
    ///
    /// Fails when the payload size mismatches, the log is full, or
    /// persistence is unavailable.
    pub fn record_and_apply(
        &self,
        ctx: &mut ThreadCtx<'_>,
        dst: u64,
        data: &[u8],
    ) -> SimResult<()> {
        if data.len() != self.payload {
            return Err(SimError::Invalid("redo payload size mismatch"));
        }
        let mut rec = Vec::with_capacity(self.record_len());
        rec.extend_from_slice(&dst.to_le_bytes());
        rec.extend_from_slice(data);
        self.log.insert(ctx, &rec)?; // persists record + tail sentinel
                                     // In-place update: visible immediately, durable lazily (or via
                                     // replay).
        ctx.st_bytes(gpm_sim::Addr::pm(dst), data)
    }
}

/// Creates a redo log for `blocks × threads_per_block` threads with
/// fixed `payload` bytes per record and room for `records_per_thread`
/// records each.
///
/// # Errors
///
/// Fails on bad geometry or PM exhaustion.
pub fn redo_create(
    machine: &mut Machine,
    path: &str,
    blocks: u32,
    threads_per_block: u32,
    payload: usize,
    records_per_thread: u32,
) -> CoreResult<RedoLog> {
    if payload == 0 || !payload.is_multiple_of(4) {
        return Err(CoreError::BadGeometry(
            "redo payload must be a non-zero multiple of 4",
        ));
    }
    let total_threads = blocks as u64 * threads_per_block as u64;
    let size = total_threads * (8 + payload as u64) * (records_per_thread as u64 + 1);
    let log = gpmlog_create_hcl(machine, path, size, blocks, threads_per_block)?;
    let flag = TxnFlag::create(machine, &format!("{path}.flag"))?;
    Ok(RedoLog { log, flag, payload })
}

impl RedoLog {
    /// Device handle for kernels.
    pub fn dev(&self) -> RedoLogDev {
        RedoLogDev {
            log: self.log.dev(),
            payload: self.payload,
        }
    }

    /// Marks a transaction active (`id` non-zero). Persisted before the
    /// kernel launches.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn begin(&self, machine: &mut Machine, id: u64) -> CoreResult<Ns> {
        Ok(self.flag.begin(machine, id)?)
    }

    /// Commits: after this returns, recovery *replays* the records instead
    /// of discarding them. The in-place updates may still be volatile — the
    /// redo log is their durability. Truncate with [`RedoLog::truncate`]
    /// only after flushing or re-persisting the target region.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn commit(&self, machine: &mut Machine) -> CoreResult<Ns> {
        // Committed state is encoded as the flag's high bit.
        let id = self.flag.active(machine)?;
        if id == 0 {
            return Err(CoreError::Corrupt("commit without an active transaction"));
        }
        Ok(self.flag.begin(machine, id | COMMITTED)?)
    }

    /// Truncates the log and clears the flag. Only safe once the in-place
    /// updates are known durable (e.g. after [`RedoLog::recover`] replayed
    /// them, or after a CPU flush of the target region).
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn truncate(&self, machine: &mut Machine) -> CoreResult<Ns> {
        let t = self.log.host_clear(machine)?;
        self.flag.commit(machine)?;
        Ok(t)
    }

    /// Crash recovery: replays a committed transaction's records (oldest
    /// first, idempotent) or discards an uncommitted one, then truncates.
    /// Launch geometry must match the log's.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn recover(&self, machine: &mut Machine, cfg: LaunchConfig) -> CoreResult<()> {
        let state = self.flag.active(machine)?;
        if state == 0 {
            return Ok(()); // idle: nothing in flight
        }
        if state & COMMITTED != 0 {
            // Replay: every thread re-applies its records bottom-up and
            // persists them.
            let dev = self.dev();
            let payload = self.payload;
            gpm_persist_begin(machine);
            let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
                let chunks_per = GpmLogDev::chunks_for(dev.record_len());
                let tail = dev.log.tail(ctx)? as u64;
                let records = tail / chunks_per;
                // Pop from the top into a local list, then apply in
                // insertion order.
                let mut recs: Vec<(u64, Vec<u8>)> = Vec::with_capacity(records as usize);
                for _ in 0..records {
                    let mut buf = vec![0u8; dev.record_len()];
                    dev.log.read_top(ctx, &mut buf)?;
                    let dst = u64::from_le_bytes(buf[0..8].try_into().unwrap());
                    recs.push((dst, buf[8..8 + payload].to_vec()));
                    dev.log.remove(ctx, dev.record_len())?;
                }
                for (dst, data) in recs.iter().rev() {
                    ctx.st_bytes(gpm_sim::Addr::pm(*dst), data)?;
                    ctx.gpm_persist()?;
                }
                Ok(())
            });
            launch(machine, cfg, &k).map_err(CoreError::Sim)?;
            gpm_persist_end(machine);
        } else {
            // Uncommitted: the in-place updates are torn; but redo never
            // overwrote committed data destructively — discarding the log
            // suffices *only if* targets are re-initialized by the caller.
            // We replay nothing.
        }
        self.log.host_clear(machine)?;
        self.flag.commit(machine)?;
        Ok(())
    }
}

/// High bit of the flag marks "committed, replay on recovery".
const COMMITTED: u64 = 1 << 63;

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_sim::Addr;

    fn setup(records: u32) -> (Machine, RedoLog, u64, LaunchConfig) {
        let mut m = Machine::default();
        let data = m.alloc_pm(64 * 64).unwrap();
        let log = redo_create(&mut m, "/pm/redo", 1, 64, 8, records).unwrap();
        (m, log, data, LaunchConfig::new(1, 64))
    }

    fn update_kernel(dev: RedoLogDev, data: u64) -> impl gpm_gpu::Kernel<State = (), Shared = ()> {
        FnKernel(move |ctx: &mut ThreadCtx<'_>| {
            let i = ctx.global_id();
            dev.record_and_apply(ctx, data + i * 64, &(i * 7 + 1).to_le_bytes())
        })
    }

    #[test]
    fn committed_transaction_replays_after_crash() {
        let (mut m, log, data, cfg) = setup(2);
        log.begin(&mut m, 1).unwrap();
        gpm_persist_begin(&mut m);
        launch(&mut m, cfg, &update_kernel(log.dev(), data)).unwrap();
        gpm_persist_end(&mut m);
        log.commit(&mut m).unwrap();

        // Crash: the unfenced in-place updates may be lost...
        m.crash();
        // ...but recovery replays the committed records.
        log.recover(&mut m, cfg).unwrap();
        for i in 0..64u64 {
            assert_eq!(
                m.read_u64(Addr::pm(data + i * 64)).unwrap(),
                i * 7 + 1,
                "slot {i}"
            );
        }
        // And a second crash now changes nothing (updates persisted).
        m.crash();
        assert_eq!(m.read_u64(Addr::pm(data)).unwrap(), 1);
    }

    #[test]
    fn recovery_is_idempotent() {
        let (mut m, log, data, cfg) = setup(2);
        log.begin(&mut m, 1).unwrap();
        gpm_persist_begin(&mut m);
        launch(&mut m, cfg, &update_kernel(log.dev(), data)).unwrap();
        gpm_persist_end(&mut m);
        log.commit(&mut m).unwrap();
        m.crash();
        log.recover(&mut m, cfg).unwrap();
        log.recover(&mut m, cfg).unwrap(); // second call: flag is clear, no-op
        assert_eq!(m.read_u64(Addr::pm(data + 64)).unwrap(), 8);
    }

    #[test]
    fn uncommitted_transaction_is_discarded() {
        let (mut m, log, data, cfg) = setup(2);
        log.begin(&mut m, 1).unwrap();
        gpm_persist_begin(&mut m);
        launch(&mut m, cfg, &update_kernel(log.dev(), data)).unwrap();
        gpm_persist_end(&mut m);
        // No commit: crash.
        m.crash();
        log.recover(&mut m, cfg).unwrap();
        // Logs truncated, flag clear.
        assert_eq!(log.flag.active(&m).unwrap(), 0);
        for tid in 0..64 {
            assert_eq!(log.log.host_tail(&m, tid).unwrap(), 0);
        }
    }

    #[test]
    fn multiple_records_replay_in_order() {
        let (mut m, log, data, cfg) = setup(3);
        let dev = log.dev();
        log.begin(&mut m, 1).unwrap();
        gpm_persist_begin(&mut m);
        // Two updates to the SAME slot by each thread: the last must win.
        let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
            let i = ctx.global_id();
            dev.record_and_apply(ctx, data + i * 64, &111u64.to_le_bytes())?;
            dev.record_and_apply(ctx, data + i * 64, &222u64.to_le_bytes())
        });
        launch(&mut m, cfg, &k).unwrap();
        gpm_persist_end(&mut m);
        log.commit(&mut m).unwrap();
        m.crash();
        log.recover(&mut m, cfg).unwrap();
        for i in 0..64u64 {
            assert_eq!(m.read_u64(Addr::pm(data + i * 64)).unwrap(), 222);
        }
    }

    #[test]
    fn payload_size_enforced() {
        let (mut m, log, data, cfg) = setup(1);
        let dev = log.dev();
        gpm_persist_begin(&mut m);
        let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
            dev.record_and_apply(ctx, data, &[0u8; 4]) // log expects 8
        });
        let err = launch(&mut m, cfg, &k).unwrap_err();
        assert!(matches!(err, SimError::Invalid(msg) if msg.contains("payload")));
        assert!(
            redo_create(&mut m, "/pm/redo2", 1, 32, 7, 1).is_err(),
            "odd payload"
        );
    }

    #[test]
    fn redo_uses_fewer_fences_than_undo() {
        // The extension's motivation: one persist point per update, not two.
        let (mut m, log, data, cfg) = setup(2);
        log.begin(&mut m, 1).unwrap();
        gpm_persist_begin(&mut m);
        let r = launch(&mut m, cfg, &update_kernel(log.dev(), data)).unwrap();
        gpm_persist_end(&mut m);
        // Undo-style would fence after the log insert (2 events/warp) AND
        // after the in-place update (1 more); redo stops at the insert.
        assert_eq!(r.costs.system_fence_events, 2 * cfg.total_warps());
    }
}
