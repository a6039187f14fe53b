//! gpAnalytics: crash-recoverable behavioral analytics over PM.
//!
//! The GPMbench suite is dominated by point-op transactional workloads
//! (gpKVS, gpDB) and bulk checkpointing; this module adds the missing
//! scan/aggregate access pattern: streaming *behavioral analytics* in the
//! style of ClickHouse/duckdb-behavioral aggregates — `sessionize` with an
//! idle timeout, an N-step `window_funnel`, retention cohorts, and
//! `sequence_match` over event-type bitmaps — maintained as persistent
//! per-user state machines that GPU kernels fold forward from batches of
//! simulated user events.
//!
//! Durable layout, two structures:
//!
//! 1. **The event journal** — a PM append-only array of packed 8-byte
//!    events. Each batch appends its events with one vectorized kernel
//!    ([`Kernel::run_warp`] streams 32 events per warp through strided
//!    vector ops); the append is *idempotent by construction* (a retried
//!    batch rewrites the same bytes at the same offsets), so it needs no
//!    logging. Large sequential appends with one persist fence per warp
//!    are exactly where the Epoch persistency model should shine over
//!    Strict — the `analytics_*` enginebench legs measure that delta.
//! 2. **The session store** — an open-addressed 8-way table over PM
//!    reusing the 32-byte-slot atomic-publish discipline of
//!    [`crate::hash_shard`]: key = user id, value = the packed per-user
//!    analytics state (see [`AnalyticsParams::step_state`]). The fold
//!    kernel groups each batch's events per user (one thread per distinct
//!    user, same-set users packed into the same threadblock, so blocks
//!    never touch each other's table lines) and publishes the folded
//!    state through [`shard_apply_detectable`] — the descriptor/record
//!    checks make the *non-idempotent* fold exactly-once under
//!    crash-and-retry, which the campaign's `--double-recovery` oracle
//!    verifies.
//!
//! Rollback recovery (the undo-log drain of Figure 6b) remains available
//! for boot-time recovery; retry recovery is a mirror rebuild only. The
//! valid journal prefix is defined by the embedding system's committed
//! sequence number (closed loop: committed batches × batch size; a serving
//! shard tracks the same watermark), so a torn in-flight append past the
//! watermark is dead data, not corruption.
//!
//! # Examples
//!
//! ```
//! use gpm_sim::Machine;
//! use gpm_workloads::analytics::{AnalyticsParams, AnalyticsWorkload};
//! use gpm_workloads::Mode;
//!
//! let w = AnalyticsWorkload::new(AnalyticsParams::quick());
//! let mut m = Machine::default();
//! let r = w.run(&mut m, Mode::Gpm)?;
//! assert!(r.verified, "session store must match the host replay");
//! # Ok::<(), gpm_sim::SimError>(())
//! ```

use std::collections::HashMap;

use gpm_core::{
    detect_create, gpm_map, gpm_persist_begin, gpm_persist_end, gpmlog_create_hcl, op_tag,
    DetectArea, GpmLog, GpmThreadExt, GpmWarpExt, TxnFlag,
};
use gpm_gpu::{
    launch_with_gauge, FnKernel, FuelGauge, Kernel, LaunchConfig, LaunchError, ThreadCtx, WarpCtx,
};
use gpm_sim::{
    Addr, CrashPolicy, CrashSchedule, EventKind, Machine, Ns, OracleVerdict, SimError, SimResult,
};

use crate::datagen::{EventTrace, UserEvent};
use crate::hash_shard::{
    shard_apply_detectable, shard_bytes, ShardDev, ShardModel, SLOT_BYTES, UNDO_BYTES, WAYS,
};
use crate::metrics::{metered, BatchMetrics, Mode, RunMetrics};
use crate::oracle::RecoveryOracle;

/// Distinct users one 256-thread fold block carries (one thread per user).
const USERS_PER_BLOCK: u64 = 256;

// ---- packed event word ----------------------------------------------------

/// Bit position of the event type in a packed event word.
const EV_TYPE_SHIFT: u32 = EventTrace::TS_BITS;
/// Bit position of the user id in a packed event word.
const EV_USER_SHIFT: u32 = EventTrace::TS_BITS + 8;

/// Packs a [`UserEvent`] into one 8-byte journal word:
/// `user` in bits `[34..64)`, `etype` in `[26..34)`, `ts` in `[0..26)`.
pub fn pack_event(e: &UserEvent) -> u64 {
    debug_assert!(e.user < 1 << (64 - EV_USER_SHIFT));
    debug_assert!(e.etype < 1 << 8);
    debug_assert!(e.ts < 1 << EventTrace::TS_BITS);
    (e.user << EV_USER_SHIFT) | ((e.etype as u64) << EV_TYPE_SHIFT) | e.ts
}

/// Inverse of [`pack_event`].
pub fn unpack_event(w: u64) -> UserEvent {
    UserEvent {
        user: w >> EV_USER_SHIFT,
        etype: ((w >> EV_TYPE_SHIFT) & 0xFF) as u32,
        ts: w & ((1 << EventTrace::TS_BITS) - 1),
    }
}

// ---- packed per-user state word -------------------------------------------

// Field layout of the 64-bit per-user state stored as the slot value:
//   [0..5)   funnel stage            (next expected funnel step)
//   [5..8)   sequence-match stage
//   [8..24)  event-type bitmap       (types seen, mod 16)
//   [24..32) session count           (saturating)
//   [32..36) funnel completions      (saturating)
//   [36..38) sequence matches        (saturating)
//   [38..64) last event timestamp    (26 bits, = EventTrace::TS_BITS)
const ST_SEQ_SHIFT: u32 = 5;
const ST_BITMAP_SHIFT: u32 = 8;
const ST_SESSIONS_SHIFT: u32 = 24;
const ST_COMPLETIONS_SHIFT: u32 = 32;
const ST_MATCHES_SHIFT: u32 = 36;
const ST_TS_SHIFT: u32 = 38;

/// Session count of a packed state (saturates at 255).
pub fn sessions_of(state: u64) -> u64 {
    (state >> ST_SESSIONS_SHIFT) & 0xFF
}

/// Funnel completions of a packed state (saturates at 15).
pub fn completions_of(state: u64) -> u64 {
    (state >> ST_COMPLETIONS_SHIFT) & 0xF
}

/// Sequence matches of a packed state (saturates at 3).
pub fn seq_matches_of(state: u64) -> u64 {
    (state >> ST_MATCHES_SHIFT) & 0x3
}

/// Event-type bitmap of a packed state (types taken mod 16).
pub fn bitmap_of(state: u64) -> u64 {
    (state >> ST_BITMAP_SHIFT) & 0xFFFF
}

/// Timestamp of the user's most recent event.
pub fn last_ts_of(state: u64) -> u64 {
    state >> ST_TS_SHIFT
}

// ---- parameters -----------------------------------------------------------

/// Workload parameters. The behavioral-aggregate definitions (idle
/// timeout, funnel shape, sequence pattern) live here because the kernel
/// fold and the host reference replay must share them exactly.
#[derive(Debug, Clone, Copy)]
pub struct AnalyticsParams {
    /// Session-store sets (the table holds `sets × 8` users). Size this so
    /// the user population never fills a set — exactly-once verification
    /// requires an eviction-free run.
    pub sets: u64,
    /// Distinct users in the event trace.
    pub users: u64,
    /// Event types (the Markov chain's alphabet).
    pub event_types: u32,
    /// Events per batch.
    pub events_per_batch: u64,
    /// Batches executed by the closed-loop run.
    pub batches: u32,
    /// Zipf exponent of user popularity.
    pub user_skew: f64,
    /// `sessionize` idle timeout in ticks: a gap above this starts a new
    /// session.
    pub idle_timeout: u64,
    /// `window_funnel` steps: completing the funnel means seeing event
    /// types `0, 1, …, funnel_steps-1` in order.
    pub funnel_steps: u32,
    /// `window_funnel` per-step window in ticks: a funnel step only counts
    /// if the gap since the user's previous event is within the window.
    pub funnel_window: u64,
    /// `sequence_match` pattern: three event-type bitmaps matched in order
    /// (`.*` between steps, as in ClickHouse's `sequenceMatch`).
    pub seq_pattern: [u16; 3],
    /// Trace seed.
    pub seed: u64,
    /// Per-event CPU ingestion cost (parse + route).
    pub pipeline_ns: f64,
    /// GPU persistency model for every kernel this workload launches
    /// (`None` defers to `GPM_PERSISTENCY`, then strict).
    pub persistency: Option<gpm_gpu::PersistencyModel>,
}

impl Default for AnalyticsParams {
    fn default() -> AnalyticsParams {
        AnalyticsParams {
            sets: 65_536,
            users: 8_192,
            event_types: 6,
            events_per_batch: 16_384,
            batches: 4,
            user_skew: 0.9,
            idle_timeout: 24,
            funnel_steps: 3,
            funnel_window: 12,
            seq_pattern: [0x0001, 0x0006, 0x0018],
            seed: 42,
            pipeline_ns: 120.0,
            persistency: None,
        }
    }
}

impl AnalyticsParams {
    /// Small configuration for unit tests.
    pub fn quick() -> AnalyticsParams {
        AnalyticsParams {
            sets: 4_096,
            users: 512,
            events_per_batch: 2_048,
            batches: 2,
            ..AnalyticsParams::default()
        }
    }

    /// Pins the GPU persistency model for every launch of this workload.
    pub fn with_persistency(mut self, model: gpm_gpu::PersistencyModel) -> AnalyticsParams {
        self.persistency = Some(model);
        self
    }

    fn table_bytes(&self) -> u64 {
        shard_bytes(self.sets)
    }

    /// Journal capacity in events (the closed-loop run appends
    /// `batches × events_per_batch`; serving embedders size `batches` to
    /// cover their stream).
    pub fn journal_events(&self) -> u64 {
        self.batches as u64 * self.events_per_batch
    }

    /// Fold-kernel thread capacity: distinct users per batch plus headroom
    /// for the sentinel padding set-partitioning inserts at block
    /// boundaries.
    fn user_capacity(&self) -> u64 {
        self.events_per_batch + self.events_per_batch / 3 + USERS_PER_BLOCK
    }

    /// Folds one event into a packed per-user state word. This is *the*
    /// aggregate definition — the GPU fold kernel and the host reference
    /// replay both call it, so the session store is verifiable bit-exactly.
    ///
    /// Per event: `sessionize` (gap above [`idle_timeout`] opens a
    /// session), the seen-types bitmap, `window_funnel` (type 0 enters the
    /// funnel; type `k` advances stage `k` when the gap is within
    /// [`funnel_window`]; reaching [`funnel_steps`] counts a completion),
    /// and `sequence_match` (an event whose type is in the current
    /// [`seq_pattern`] stage's bitmap advances it; finishing all three
    /// stages counts a match).
    ///
    /// [`idle_timeout`]: AnalyticsParams::idle_timeout
    /// [`funnel_window`]: AnalyticsParams::funnel_window
    /// [`funnel_steps`]: AnalyticsParams::funnel_steps
    /// [`seq_pattern`]: AnalyticsParams::seq_pattern
    pub fn step_state(&self, state: u64, etype: u32, ts: u64) -> u64 {
        let fresh = state == 0;
        let last = last_ts_of(state);
        let gap = ts.saturating_sub(last);
        let mut stage = state & 0x1F;
        let mut seq_stage = (state >> ST_SEQ_SHIFT) & 0x7;
        let mut bitmap = bitmap_of(state);
        let mut sessions = sessions_of(state);
        let mut completions = completions_of(state);
        let mut seq_matches = seq_matches_of(state);
        // sessionize: first event, or an idle gap, opens a session.
        if fresh || gap > self.idle_timeout {
            sessions = (sessions + 1).min(0xFF);
        }
        bitmap |= 1 << (etype as u64 % 16);
        // window_funnel: type 0 (re-)enters; type k advances stage k in-window.
        if etype == 0 {
            stage = 1;
        } else if etype as u64 == stage && !fresh && gap <= self.funnel_window {
            stage += 1;
        }
        if stage as u32 == self.funnel_steps {
            completions = (completions + 1).min(0xF);
            stage = 0;
        }
        // sequence_match over event-type bitmaps.
        if self.seq_pattern[seq_stage as usize] & (1u16 << (etype % 16)) != 0 {
            seq_stage += 1;
            if seq_stage as usize == self.seq_pattern.len() {
                seq_matches = (seq_matches + 1).min(0x3);
                seq_stage = 0;
            }
        }
        stage
            | (seq_stage << ST_SEQ_SHIFT)
            | (bitmap << ST_BITMAP_SHIFT)
            | (sessions << ST_SESSIONS_SHIFT)
            | (completions << ST_COMPLETIONS_SHIFT)
            | (seq_matches << ST_MATCHES_SHIFT)
            | (ts << ST_TS_SHIFT)
    }

    /// Folds a packed event slice over `state` (host-side helper shared by
    /// the reference model and the serving tenant).
    pub fn fold_packed(&self, mut state: u64, packed: &[u64]) -> u64 {
        for &w in packed {
            let e = unpack_event(w);
            state = self.step_state(state, e.etype, e.ts);
        }
        state
    }
}

// ---- live state -----------------------------------------------------------

/// Live gpAnalytics instance state: the PM session store and its HBM
/// mirror, the PM event journal, the batch buffers, the undo log and the
/// transaction flag. Created once by [`AnalyticsWorkload::setup`] and
/// reused across batches.
#[derive(Debug)]
pub struct AnalyticsState {
    pm_table: u64,
    hbm_table: u64,
    journal: u64,
    flag: TxnFlag,
    detect: DetectArea,
    ev_packed: u64,
    ev_users: u64,
    ev_start: u64,
    ev_count: u64,
    log: GpmLog,
}

impl AnalyticsState {
    /// The device-side shard handle over this state's table and mirror.
    pub fn shard(&self, sets: u64) -> ShardDev {
        ShardDev {
            pm_base: self.pm_table,
            hbm_base: self.hbm_table,
            sets,
        }
    }
}

/// Whole-store aggregates read back from the durable session store — the
/// retention-cohort report (a host scan; retention is derived, not stored).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CohortStats {
    /// Users with any state.
    pub users: u64,
    /// Total sessions across users.
    pub sessions: u64,
    /// Retained users: came back for a second session.
    pub retained: u64,
    /// Total funnel completions.
    pub completions: u64,
    /// Users with at least one sequence match.
    pub matched: u64,
}

// ---- the journal-append kernel --------------------------------------------

/// One batch's journal append: each thread copies one packed event from
/// the HBM staging buffer to its PM journal slot and persists it. Uniform
/// and divergence-free, so full warps stream through the vector path.
struct JournalKernel {
    src: u64,
    dst: u64,
    n_events: u64,
}

impl Kernel for JournalKernel {
    type State = ();
    type Shared = ();

    fn run(&self, _phase: u32, ctx: &mut ThreadCtx<'_>, _: &mut (), _: &mut ()) -> SimResult<()> {
        let i = ctx.global_id();
        if i >= self.n_events {
            return Ok(());
        }
        let w = ctx.ld_u64(Addr::hbm(self.src + i * 8))?;
        ctx.st_u64(Addr::pm(self.dst + i * 8), w)?;
        ctx.gpm_persist()
    }

    fn run_warp(
        &self,
        _phase: u32,
        ctx: &mut WarpCtx<'_>,
        _: &mut [()],
        _: &mut (),
    ) -> SimResult<bool> {
        let first = ctx.first_global_id();
        let lanes = ctx.lanes() as u64;
        if first + lanes > self.n_events {
            return Ok(false); // guard diverges in the tail warp
        }
        let mut vals = vec![0u64; lanes as usize];
        ctx.ld_u64_lanes(Addr::hbm(self.src + first * 8), 8, &mut vals)?;
        ctx.st_u64_lanes(Addr::pm(self.dst + first * 8), 8, &vals)?;
        ctx.gpm_persist()?;
        Ok(true)
    }

    fn warp_fuel(&self, _phase: u32) -> Option<u64> {
        // One HBM load, one PM store, one persist fence per lane.
        Some(3)
    }
}

// ---- the workload ---------------------------------------------------------

/// The gpAnalytics workload instance.
#[derive(Debug)]
pub struct AnalyticsWorkload {
    /// Parameters of this instance.
    pub params: AnalyticsParams,
    /// Campaign self-test knob: rollback recovery deliberately skips the
    /// newest undo-log entry. The campaign oracle must catch this.
    pub inject_recovery_bug: bool,
    /// Campaign self-test knob: folds skip the descriptor and record
    /// checks (a double-applying publish). Harmless on clean runs; a
    /// crash-and-retry folds a user's batch twice. The double-recovery
    /// oracle must catch this.
    pub inject_double_apply: bool,
}

/// One set-partitioned batch ready for upload: `users[i]` is the distinct
/// user thread `i` folds (0 = block-padding sentinel), `start[i]/count[i]`
/// its slice of `packed` (user-grouped, per-user arrival order preserved).
struct PackedEvents {
    users: Vec<u64>,
    start: Vec<u32>,
    count: Vec<u32>,
    packed: Vec<u64>,
    real_events: usize,
}

/// Groups a batch per user: returns users in first-appearance order plus
/// each user's packed events in arrival order.
fn group_events(events: &[UserEvent]) -> (Vec<u64>, HashMap<u64, Vec<u64>>) {
    let mut order = Vec::new();
    let mut groups: HashMap<u64, Vec<u64>> = HashMap::new();
    for e in events {
        groups
            .entry(e.user)
            .or_insert_with(|| {
                order.push(e.user);
                Vec::new()
            })
            .push(pack_event(e));
    }
    (order, groups)
}

impl AnalyticsWorkload {
    /// Creates the workload.
    pub fn new(params: AnalyticsParams) -> AnalyticsWorkload {
        AnalyticsWorkload {
            params,
            inject_recovery_bug: false,
            inject_double_apply: false,
        }
    }

    /// Enables the deliberate recovery bug (campaign self-test).
    pub fn with_recovery_bug(mut self) -> AnalyticsWorkload {
        self.inject_recovery_bug = true;
        self
    }

    /// Enables the deliberate double-applying fold (campaign self-test for
    /// `--double-recovery`).
    pub fn with_double_apply_bug(mut self) -> AnalyticsWorkload {
        self.inject_double_apply = true;
        self
    }

    /// The event trace this instance replays (shared with the serving
    /// tenant, which streams the same generator open-loop).
    pub fn trace(&self) -> EventTrace {
        let p = &self.params;
        EventTrace::new(p.users, p.user_skew, p.event_types, p.seed)
    }

    /// The closed-loop run's batches, in submission order.
    pub fn gen_batches(&self) -> Vec<Vec<UserEvent>> {
        let mut trace = self.trace();
        (0..self.params.batches)
            .map(|_| trace.take_events(self.params.events_per_batch))
            .collect()
    }

    fn cfg(&self, elements: u64) -> LaunchConfig {
        let cfg = LaunchConfig::for_elements(elements.max(1), 256);
        match self.params.persistency {
            Some(model) => cfg.with_persistency(model),
            None => cfg,
        }
    }

    /// The launch shape of a full-capacity fold (log geometry and the
    /// recovery drain are sized for this).
    fn fold_cfg_full(&self) -> LaunchConfig {
        self.cfg(self.params.user_capacity())
    }

    /// Allocates the session store, journal, batch buffers, undo log and
    /// transaction flag on `machine` (durable setup, untimed).
    ///
    /// # Errors
    ///
    /// Fails on allocation or PM-file errors.
    pub fn setup(&self, machine: &mut Machine) -> SimResult<AnalyticsState> {
        let p = &self.params;
        let ucap = p.user_capacity();
        let pm_table = gpm_map(machine, "/pm/gpanalytics/table", p.table_bytes(), true)?.offset;
        let journal = gpm_map(
            machine,
            "/pm/gpanalytics/journal",
            p.journal_events() * 8,
            true,
        )?
        .offset;
        let flag = TxnFlag::create(machine, "/pm/gpanalytics/flag")?;
        let detect = detect_create(machine, "/pm/gpanalytics/detect", ucap)
            .map_err(|_| SimError::Invalid("failed to create gpAnalytics descriptor area"))?;
        let hbm_table = machine.alloc_hbm(p.table_bytes())?;
        let ev_packed = machine.alloc_hbm(p.events_per_batch * 8)?;
        let ev_users = machine.alloc_hbm(ucap * 8)?;
        let ev_start = machine.alloc_hbm(ucap * 4)?;
        let ev_count = machine.alloc_hbm(ucap * 4)?;
        let cfg = self.fold_cfg_full();
        // Same headroom rationale as gpKVS: the log only truncates at
        // commit, so crashed attempts' entries stay behind across retries.
        let log_size = cfg.total_threads() * UNDO_BYTES as u64 * 4;
        let log = gpmlog_create_hcl(
            machine,
            "/pm/gpanalytics/log",
            log_size,
            cfg.grid,
            cfg.block,
        )
        .map_err(|_| SimError::Invalid("failed to create gpAnalytics log"))?;
        Ok(AnalyticsState {
            pm_table,
            hbm_table,
            journal,
            flag,
            detect,
            ev_packed,
            ev_users,
            ev_start,
            ev_count,
            log,
        })
    }

    /// Set-partitions a batch: groups events per user (arrival order
    /// preserved within a user), stable-sorts the distinct users by table
    /// set, and packs them into 256-user blocks such that no set group
    /// straddles a block boundary (padding with user-0 sentinels). Blocks
    /// therefore never touch each other's table lines. Falls back to the
    /// first-appearance layout if padding would overflow the buffers (the
    /// kernel stays correct).
    fn pack_batch(&self, events: &[UserEvent]) -> PackedEvents {
        let sets = self.params.sets;
        let (mut order, mut groups) = group_events(events);
        order.sort_by_key(|&u| gpm_pmkv::hash64(u) % sets);
        let capacity = self.params.user_capacity() as usize;
        let mut pe = PackedEvents {
            users: Vec::new(),
            start: Vec::new(),
            count: Vec::new(),
            packed: Vec::with_capacity(events.len()),
            real_events: events.len(),
        };
        let mut identity = false;
        let mut g = 0usize;
        while g < order.len() {
            let set = gpm_pmkv::hash64(order[g]) % sets;
            let mut e = g + 1;
            while e < order.len() && gpm_pmkv::hash64(order[e]) % sets == set {
                e += 1;
            }
            let group = e - g;
            let used = pe.users.len() % USERS_PER_BLOCK as usize;
            if group > USERS_PER_BLOCK as usize {
                identity = true;
                break;
            }
            if used + group > USERS_PER_BLOCK as usize {
                for _ in used..USERS_PER_BLOCK as usize {
                    pe.users.push(0);
                    pe.start.push(0);
                    pe.count.push(0);
                }
            }
            if pe.users.len() + group > capacity {
                identity = true;
                break;
            }
            for &u in &order[g..e] {
                let evs = &groups[&u];
                pe.users.push(u);
                pe.start.push(pe.packed.len() as u32);
                pe.count.push(evs.len() as u32);
                pe.packed.extend_from_slice(evs);
            }
            g = e;
        }
        if identity {
            pe.users.clear();
            pe.start.clear();
            pe.count.clear();
            pe.packed.clear();
            let (order, _) = group_events(events);
            for u in order {
                let evs = groups.remove(&u).unwrap_or_default();
                pe.users.push(u);
                pe.start.push(pe.packed.len() as u32);
                pe.count.push(evs.len() as u32);
                pe.packed.extend_from_slice(&evs);
            }
        }
        pe
    }

    fn upload_batch(
        &self,
        machine: &mut Machine,
        st: &AnalyticsState,
        pe: &PackedEvents,
    ) -> SimResult<()> {
        let mut users = Vec::with_capacity(pe.users.len() * 8);
        let mut start = Vec::with_capacity(pe.start.len() * 4);
        let mut count = Vec::with_capacity(pe.count.len() * 4);
        let mut packed = Vec::with_capacity(pe.packed.len() * 8);
        for &u in &pe.users {
            users.extend_from_slice(&u.to_le_bytes());
        }
        for &s in &pe.start {
            start.extend_from_slice(&s.to_le_bytes());
        }
        for &c in &pe.count {
            count.extend_from_slice(&c.to_le_bytes());
        }
        for &w in &pe.packed {
            packed.extend_from_slice(&w.to_le_bytes());
        }
        machine.host_write(Addr::hbm(st.ev_users), &users)?;
        machine.host_write(Addr::hbm(st.ev_start), &start)?;
        machine.host_write(Addr::hbm(st.ev_count), &count)?;
        machine.host_write(Addr::hbm(st.ev_packed), &packed)?;
        // Event ingestion (parse + route, real events only) plus the DMA
        // of the staged batch to the GPU.
        let bytes = users.len() + start.len() + count.len() + packed.len();
        let t = Ns(pe.real_events as f64 * self.params.pipeline_ns)
            + machine.cfg.dma_init_overhead
            + Ns(bytes as f64 / machine.cfg.pcie_bw);
        machine.clock.advance(t);
        Ok(())
    }

    /// The per-user fold kernel: one thread per packed distinct user loads
    /// its event slice, folds [`AnalyticsParams::step_state`] over it, and
    /// publishes the new state through the detectable RMW protocol with
    /// the tag `op_tag(epoch, thread)`. Per-lane by design (event counts
    /// diverge).
    fn fold_kernel(
        &self,
        st: &AnalyticsState,
        n_users: u64,
        epoch: u64,
    ) -> impl Kernel<State = (), Shared = ()> + '_ {
        let p = self.params;
        let shard = st.shard(p.sets);
        let detect = st.detect.dev();
        let log = st.log.dev();
        let (ev_users, ev_start, ev_count, ev_packed) =
            (st.ev_users, st.ev_start, st.ev_count, st.ev_packed);
        let inject = self.inject_double_apply;
        FnKernel(move |ctx: &mut ThreadCtx<'_>| {
            let tid = ctx.global_id();
            if tid >= n_users {
                return Ok(());
            }
            let user = ctx.ld_u64(Addr::hbm(ev_users + tid * 8))?;
            if user == 0 {
                return Ok(()); // block-boundary padding sentinel
            }
            let start = ctx.ld_u32(Addr::hbm(ev_start + tid * 4))? as u64;
            let count = ctx.ld_u32(Addr::hbm(ev_count + tid * 4))? as u64;
            let mut evs = Vec::with_capacity(count as usize);
            for i in 0..count {
                evs.push(ctx.ld_u64(Addr::hbm(ev_packed + (start + i) * 8))?);
            }
            ctx.compute(Ns(18.0 * count as f64)); // state-machine scan
            shard_apply_detectable(
                ctx,
                &shard,
                &detect,
                &log,
                tid,
                op_tag(epoch, tid),
                user,
                |old| p.fold_packed(old.unwrap_or(0), &evs),
                inject,
            )
        })
    }

    /// Opens (or, on a retry, re-enters) the detect epoch for transaction
    /// `seq` — same discipline as gpKVS: a still-armed flag for this very
    /// `seq` means a crashed batch is being resubmitted, so the epoch
    /// minted before the crash is reused.
    fn enter_epoch(&self, machine: &mut Machine, st: &AnalyticsState, seq: u64) -> SimResult<u64> {
        if st.flag.active(machine)? == seq + 1 {
            st.detect
                .epoch(machine)
                .map_err(|_| SimError::Invalid("detect epoch read failed"))
        } else {
            st.flag.begin(machine, seq + 1)?;
            st.detect
                .begin_epoch(machine)
                .map_err(|_| SimError::Invalid("detect epoch advance failed"))
        }
    }

    /// Applies one batch of events: upload, journal append (vectorized),
    /// per-user fold (detectable RMW), commit. `seq` numbers the
    /// transaction; `journal_base` is the event index the batch's journal
    /// records land at (the caller's committed watermark — a retry must
    /// pass the same base so the append rewrites the same bytes).
    ///
    /// # Errors
    ///
    /// Fails on oversized batches, journal overflow, or platform errors.
    pub fn apply_batch(
        &self,
        machine: &mut Machine,
        st: &AnalyticsState,
        seq: u64,
        journal_base: u64,
        events: &[UserEvent],
    ) -> SimResult<BatchMetrics> {
        match self.apply_batch_gauged(
            machine,
            st,
            seq,
            journal_base,
            events,
            &mut FuelGauge::Unlimited,
        ) {
            Ok(m) => Ok(m),
            Err(LaunchError::Crashed(_)) => unreachable!("unlimited gauge never crashes"),
            Err(LaunchError::Sim(e)) => Err(e),
        }
    }

    /// [`apply_batch`](AnalyticsWorkload::apply_batch) driven through a
    /// [`FuelGauge`] (crash-schedule recording and mid-batch crash
    /// injection ride this).
    ///
    /// # Errors
    ///
    /// [`LaunchError::Crashed`] when the gauge's fuel runs out mid-kernel;
    /// [`LaunchError::Sim`] on functional errors.
    pub fn apply_batch_gauged(
        &self,
        machine: &mut Machine,
        st: &AnalyticsState,
        seq: u64,
        journal_base: u64,
        events: &[UserEvent],
        gauge: &mut FuelGauge,
    ) -> Result<BatchMetrics, LaunchError> {
        let p = &self.params;
        if events.len() as u64 > p.events_per_batch {
            return Err(LaunchError::Sim(SimError::Invalid(
                "batch exceeds the events_per_batch buffer capacity",
            )));
        }
        if journal_base + events.len() as u64 > p.journal_events() {
            return Err(LaunchError::Sim(SimError::Invalid(
                "batch exceeds the journal capacity",
            )));
        }
        let t0 = machine.clock.now();
        let s0 = machine.stats;
        let pe = self.pack_batch(events);
        self.upload_batch(machine, st, &pe)
            .map_err(LaunchError::Sim)?;
        let epoch = self
            .enter_epoch(machine, st, seq)
            .map_err(LaunchError::Sim)?;
        gpm_persist_begin(machine);
        let n_events = pe.packed.len() as u64;
        if n_events > 0 {
            launch_with_gauge(
                machine,
                self.cfg(n_events),
                &JournalKernel {
                    src: st.ev_packed,
                    dst: st.journal + journal_base * 8,
                    n_events,
                },
                gauge,
            )?;
        }
        let n_users = pe.users.len() as u64;
        if n_users > 0 {
            launch_with_gauge(
                machine,
                self.cfg(n_users),
                &self.fold_kernel(st, n_users, epoch),
                gauge,
            )?;
        }
        gpm_persist_end(machine);
        st.flag.commit(machine).map_err(LaunchError::Sim)?;
        st.log
            .host_clear(machine)
            .map_err(|_| LaunchError::Sim(SimError::Invalid("log clear failed")))?;
        let d = machine.stats.delta(&s0);
        Ok(BatchMetrics {
            ops: events.len() as u64,
            elapsed: machine.clock.now() - t0,
            pm_write_bytes_gpu: d.pm_write_bytes_gpu,
            bytes_persisted: d.bytes_persisted,
        })
    }

    /// Gauge-driven closed-loop batch sequence for the campaign oracle.
    /// `committed` tracks how many batches fully committed before a crash.
    fn run_batches_gauged(
        &self,
        machine: &mut Machine,
        st: &AnalyticsState,
        gauge: &mut FuelGauge,
        committed: &mut u32,
    ) -> Result<(), LaunchError> {
        let mut trace = self.trace();
        let epb = self.params.events_per_batch;
        for b in 0..self.params.batches {
            let events = trace.take_events(epb);
            self.apply_batch_gauged(machine, st, b as u64, b as u64 * epb, &events, gauge)?;
            *committed = b + 1;
        }
        Ok(())
    }

    /// Rebuilds the volatile HBM mirror from the durable PM session store
    /// after a crash (one PM→GPU sweep over PCIe).
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn rebuild_mirror(&self, machine: &mut Machine, st: &AnalyticsState) -> SimResult<()> {
        let bytes = self.params.table_bytes();
        let mut buf = vec![0u8; bytes as usize];
        machine.read(Addr::pm(st.pm_table), &mut buf)?;
        machine.host_write(Addr::hbm(st.hbm_table), &buf)?;
        let t = machine.cfg.dma_init_overhead + Ns(bytes as f64 / machine.cfg.pcie_bw);
        machine.clock.advance(t);
        Ok(())
    }

    /// In-place *retry* recovery: rebuilds the HBM mirror and touches
    /// nothing else — the store, the descriptor area and the transaction
    /// flag stay exactly as the crash left them, so resubmitting the
    /// in-flight batch (same `seq`, same events, same `journal_base`)
    /// folds precisely the users that had not yet applied. Idempotent.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn recover_for_retry(&self, machine: &mut Machine, st: &AnalyticsState) -> SimResult<()> {
        if machine.trace_enabled() {
            machine.trace(EventKind::RecoveryBegin);
        }
        let result = self.rebuild_mirror(machine, st);
        if machine.trace_enabled() {
            machine.trace(EventKind::RecoveryEnd);
        }
        result
    }

    /// Rollback recovery: undo logged session-store publishes, newest
    /// first, removing each entry only after the store is persisted (the
    /// Figure 6b drain, shared layout with gpKVS). The journal needs no
    /// undo — entries past the committed watermark are dead by definition.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn recover(&self, machine: &mut Machine, st: &AnalyticsState) -> SimResult<()> {
        if machine.trace_enabled() {
            machine.trace(EventKind::RecoveryBegin);
        }
        let result = match self.recover_gauged(machine, st, &mut FuelGauge::Unlimited) {
            Ok(()) => Ok(()),
            Err(LaunchError::Crashed(_)) => unreachable!("unlimited gauge never crashes"),
            Err(LaunchError::Sim(e)) => Err(e),
        };
        if machine.trace_enabled() {
            machine.trace(EventKind::RecoveryEnd);
        }
        result
    }

    fn recover_gauged(
        &self,
        machine: &mut Machine,
        st: &AnalyticsState,
        gauge: &mut FuelGauge,
    ) -> Result<(), LaunchError> {
        if st.flag.active(machine).map_err(LaunchError::Sim)? == 0 {
            return Ok(()); // no transaction was active
        }
        let victim = if self.inject_recovery_bug {
            let mut v = None;
            for tid in 0..self.fold_cfg_full().total_threads() {
                let tail = st
                    .log
                    .host_tail(machine, tid)
                    .map_err(|_| LaunchError::Sim(SimError::Invalid("log tail")))?;
                if tail as usize * 4 >= UNDO_BYTES {
                    v = Some(tid);
                    break;
                }
            }
            v
        } else {
            None
        };
        let log = st.log.dev();
        let pm_table = st.pm_table;
        gpm_persist_begin(machine);
        let k = FnKernel(move |ctx: &mut ThreadCtx<'_>| {
            if Some(ctx.global_id()) == victim && log.tail(ctx)? as usize * 4 >= UNDO_BYTES {
                log.remove(ctx, UNDO_BYTES)?;
            }
            while log.tail(ctx)? as usize * 4 >= UNDO_BYTES {
                let mut entry = [0u8; UNDO_BYTES];
                log.read_top(ctx, &mut entry)?;
                let set = u32::from_le_bytes(entry[0..4].try_into().unwrap()) as u64;
                let way = u32::from_le_bytes(entry[4..8].try_into().unwrap()) as u64;
                let slot = pm_table + (set * WAYS + way) * SLOT_BYTES;
                ctx.st_bytes(Addr::pm(slot), &entry[8..40])?;
                ctx.gpm_persist()?;
                log.remove(ctx, UNDO_BYTES)?;
            }
            Ok(())
        });
        launch_with_gauge(machine, self.fold_cfg_full(), &k, gauge)?;
        gpm_persist_end(machine);
        st.flag.commit(machine).map_err(LaunchError::Sim)?;
        Ok(())
    }

    /// Host reference model: replays the first `batches` batches through
    /// [`ShardModel::apply`] with the same per-user grouping and fold the
    /// kernel uses.
    fn reference_model(&self, batches: u32) -> ShardModel {
        let p = &self.params;
        let mut model = ShardModel::new(p.sets);
        let mut trace = self.trace();
        for _ in 0..batches {
            let events = trace.take_events(p.events_per_batch);
            let (order, groups) = group_events(&events);
            for u in order {
                model.apply(u, |old| p.fold_packed(old.unwrap_or(0), &groups[&u]));
            }
        }
        model
    }

    /// Verifies the durable session store against the host replay of the
    /// first `batches` batches (key, packed state, and version — the
    /// version counts the batches that touched the user).
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn verify(&self, machine: &Machine, st: &AnalyticsState, batches: u32) -> SimResult<bool> {
        let model = self.reference_model(batches);
        for (&(set, way), &(k, v, ver)) in model.entries() {
            let slot = st.pm_table + (set * WAYS + way) * SLOT_BYTES;
            if machine.read_u64(Addr::pm(slot))? != k
                || machine.read_u64(Addr::pm(slot + 8))? != v
                || machine.read_u64(Addr::pm(slot + 16))? != ver
            {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Verifies the journal's committed prefix byte-matches the reference
    /// packed batches (the append is deterministic, so this is exact).
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn verify_journal(
        &self,
        machine: &Machine,
        st: &AnalyticsState,
        batches: u32,
    ) -> SimResult<bool> {
        let p = &self.params;
        let mut trace = self.trace();
        for b in 0..batches {
            let events = trace.take_events(p.events_per_batch);
            let pe = self.pack_batch(&events);
            let base = st.journal + b as u64 * p.events_per_batch * 8;
            for (i, &w) in pe.packed.iter().enumerate() {
                if machine.read_u64(Addr::pm(base + i as u64 * 8))? != w {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Scans the durable session store and aggregates the retention-cohort
    /// report (host-side, untimed — the analyst's read path).
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    pub fn cohort_stats(&self, machine: &Machine, st: &AnalyticsState) -> SimResult<CohortStats> {
        let mut out = CohortStats::default();
        for set in 0..self.params.sets {
            for way in 0..WAYS {
                let slot = st.pm_table + (set * WAYS + way) * SLOT_BYTES;
                let key = machine.read_u64(Addr::pm(slot))?;
                if key == 0 {
                    continue;
                }
                let state = machine.read_u64(Addr::pm(slot + 8))?;
                out.users += 1;
                out.sessions += sessions_of(state);
                out.retained += u64::from(sessions_of(state) >= 2);
                out.completions += completions_of(state);
                out.matched += u64::from(seq_matches_of(state) >= 1);
            }
        }
        Ok(out)
    }

    /// Runs the closed-loop workload under `mode` (GPM only — the CAP
    /// baselines have no detectable-RMW discipline to compare against).
    ///
    /// # Errors
    ///
    /// Fails for unsupported modes or on platform errors.
    pub fn run(&self, machine: &mut Machine, mode: Mode) -> SimResult<RunMetrics> {
        if mode != Mode::Gpm {
            return Err(SimError::Invalid("mode unsupported for gpAnalytics"));
        }
        let st = self.setup(machine)?;
        let mut metrics = metered(machine, |m| {
            let mut committed = 0;
            match self.run_batches_gauged(m, &st, &mut FuelGauge::Unlimited, &mut committed) {
                Ok(()) => Ok::<bool, SimError>(true),
                Err(LaunchError::Crashed(_)) => unreachable!("unlimited gauge never crashes"),
                Err(LaunchError::Sim(e)) => Err(e),
            }
        })?;
        metrics.verified = self.verify(machine, &st, self.params.batches)?
            && self.verify_journal(machine, &st, self.params.batches)?;
        Ok(metrics)
    }
}

impl RecoveryOracle for AnalyticsWorkload {
    fn name(&self) -> &'static str {
        "gpAnalytics"
    }

    fn record(&mut self, machine: &mut Machine) -> SimResult<CrashSchedule> {
        let st = self.setup(machine)?;
        let mut gauge = FuelGauge::record();
        let mut committed = 0;
        crate::oracle::expect_clean(self.run_batches_gauged(
            machine,
            &st,
            &mut gauge,
            &mut committed,
        ))?;
        Ok(gauge.into_schedule().expect("recording gauge"))
    }

    fn run_case(
        &mut self,
        machine: &mut Machine,
        fuel: u64,
        policy: CrashPolicy,
    ) -> SimResult<OracleVerdict> {
        let st = self.setup(machine)?;
        let mut committed = 0u32;
        let res = self.run_batches_gauged(
            machine,
            &st,
            &mut FuelGauge::crash_with_policy(fuel, policy),
            &mut committed,
        );
        crate::oracle::settle_crash(machine, policy, res)?;
        self.recover(machine, &st)?;
        // After undo, the store must hold exactly the committed batches...
        if !self.verify(machine, &st, committed)? {
            return Ok(OracleVerdict::Fail(format!(
                "session store diverges from the {committed} committed batches"
            )));
        }
        // ...the committed journal prefix must be intact...
        if !self.verify_journal(machine, &st, committed)? {
            return Ok(OracleVerdict::Fail(format!(
                "journal prefix diverges over the {committed} committed batches"
            )));
        }
        // ...and every user of the in-flight batch must be rolled back to
        // its committed state (absent if the batch introduced it).
        if committed < self.params.batches {
            let model = self.reference_model(committed);
            let shard = st.shard(self.params.sets);
            let in_flight = &self.gen_batches()[committed as usize];
            let (users, _) = group_events(in_flight);
            for user in users {
                let durable = shard.host_find(machine, user)?.map(|rec| (rec[1], rec[2]));
                if durable != model.find(user) {
                    return Ok(OracleVerdict::Fail(format!(
                        "user {user} of the in-flight batch survived rollback"
                    )));
                }
            }
        }
        Ok(OracleVerdict::Pass)
    }

    fn supports_double_recovery(&self) -> bool {
        true
    }

    fn run_case_double_recovery(
        &mut self,
        machine: &mut Machine,
        fuel: u64,
        policy: CrashPolicy,
    ) -> SimResult<OracleVerdict> {
        let model = self.reference_model(self.params.batches);
        assert!(
            !model.evicted,
            "exactly-once verification requires an eviction-free user population"
        );
        let st = self.setup(machine)?;
        let mut committed = 0u32;
        let res = self.run_batches_gauged(
            machine,
            &st,
            &mut FuelGauge::crash_with_policy(fuel, policy),
            &mut committed,
        );
        crate::oracle::settle_crash(machine, policy, res)?;
        // Retry recovery, run TWICE: it must be idempotent.
        self.recover_for_retry(machine, &st)?;
        self.recover_for_retry(machine, &st)?;
        // Resubmit the in-flight batch verbatim, then the remaining ones.
        let batches = self.gen_batches();
        let epb = self.params.events_per_batch;
        let shard = st.shard(self.params.sets);
        for b in committed..self.params.batches {
            let events = &batches[b as usize];
            self.apply_batch(machine, &st, b as u64, b as u64 * epb, events)?;
            if b == committed {
                // Exactly-once check immediately after the retried batch:
                // every touched user must hold exactly the state and
                // version of the host replay through batch b — a zero
                // apply leaves it behind, a double apply folds the batch
                // twice and bumps the version past the replay's.
                let model_b = self.reference_model(b + 1);
                let (users, _) = group_events(events);
                for user in users {
                    let expect = model_b.find(user);
                    match shard.host_find(machine, user)? {
                        None => {
                            return Ok(OracleVerdict::Fail(format!(
                                "user {user} of retried batch {b} applied zero times"
                            )))
                        }
                        Some(rec) if Some((rec[1], rec[2])) != expect => {
                            return Ok(OracleVerdict::Fail(format!(
                                "user {user} of retried batch {b} diverges from \
                                 exactly-once replay (version {} vs {:?})",
                                rec[2], expect
                            )))
                        }
                        Some(_) => {}
                    }
                }
            }
        }
        if !self.verify(machine, &st, self.params.batches)?
            || !self.verify_journal(machine, &st, self.params.batches)?
        {
            return Ok(OracleVerdict::Fail(
                "state diverges from the uncrashed reference after retry".into(),
            ));
        }
        Ok(OracleVerdict::Pass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> AnalyticsWorkload {
        AnalyticsWorkload::new(AnalyticsParams::quick())
    }

    #[test]
    fn event_word_roundtrips() {
        let e = UserEvent {
            user: 12_345,
            etype: 7,
            ts: (1 << EventTrace::TS_BITS) - 1,
        };
        assert_eq!(unpack_event(pack_event(&e)), e);
    }

    #[test]
    fn step_state_counts_sessions_funnels_and_sequences() {
        let p = AnalyticsParams::quick();
        // A clean funnel 0→1→2 within the window, one session.
        let mut s = 0u64;
        s = p.step_state(s, 0, 100);
        s = p.step_state(s, 1, 110);
        s = p.step_state(s, 2, 120);
        assert_eq!(sessions_of(s), 1);
        assert_eq!(completions_of(s), 1);
        assert_eq!(bitmap_of(s), 0b111);
        // The same sequence also matches [type0][types1|2][types3|4]? No —
        // stage 3 needs type 3 or 4; one more event finishes it and, with a
        // big gap, opens a second session without advancing the funnel.
        assert_eq!(seq_matches_of(s), 0);
        s = p.step_state(s, 3, 120 + p.idle_timeout + 1);
        assert_eq!(seq_matches_of(s), 1);
        assert_eq!(sessions_of(s), 2);
        assert_eq!(completions_of(s), 1, "out-of-window events do not funnel");
        assert_eq!(last_ts_of(s), 120 + p.idle_timeout + 1);
    }

    #[test]
    fn funnel_respects_the_step_window() {
        let p = AnalyticsParams::quick();
        let mut s = 0u64;
        s = p.step_state(s, 0, 100);
        // Step arrives outside the window: the funnel must not advance.
        s = p.step_state(s, 1, 100 + p.funnel_window + 1);
        s = p.step_state(s, 2, 100 + p.funnel_window + 2);
        assert_eq!(completions_of(s), 0);
    }

    #[test]
    fn gpm_run_verifies_store_and_journal() {
        let mut m = Machine::default();
        let r = quick().run(&mut m, Mode::Gpm).unwrap();
        assert!(r.verified, "store and journal must match the host replay");
        assert!(r.elapsed.0 > 0.0);
        assert!(r.pm_write_bytes_gpu > 0);
    }

    #[test]
    fn unsupported_modes_error() {
        let mut m = Machine::default();
        assert!(quick().run(&mut m, Mode::CapFs).is_err());
    }

    #[test]
    fn cohort_stats_match_the_host_replay() {
        let w = quick();
        let mut m = Machine::default();
        let st = w.setup(&mut m).unwrap();
        let mut committed = 0;
        w.run_batches_gauged(&mut m, &st, &mut FuelGauge::Unlimited, &mut committed)
            .unwrap();
        let stats = w.cohort_stats(&m, &st).unwrap();
        let model = w.reference_model(w.params.batches);
        let mut expect = CohortStats::default();
        for (_, &(_, state, _)) in model.entries() {
            expect.users += 1;
            expect.sessions += sessions_of(state);
            expect.retained += u64::from(sessions_of(state) >= 2);
            expect.completions += completions_of(state);
            expect.matched += u64::from(seq_matches_of(state) >= 1);
        }
        assert_eq!(stats, expect);
        assert!(stats.users > 0 && stats.sessions >= stats.users);
        assert!(stats.retained > 0, "the trace must produce return visits");
        assert!(stats.completions > 0, "the funnel must complete sometimes");
        assert!(stats.matched > 0, "the sequence must match sometimes");
    }

    /// The oracle's rollback cases pass at sampled crash boundaries under
    /// both extreme pending-line policies, and the injected rollback bug
    /// is caught.
    #[test]
    fn rollback_cases_pass_and_injected_bug_caught() {
        let mut w = quick();
        let mut m = Machine::default();
        let sched = w.record(&mut m).unwrap();
        let bounds = sched.boundaries().to_vec();
        assert!(!bounds.is_empty());
        for fuel in bounds.iter().step_by(bounds.len() / 6 + 1) {
            for policy in [CrashPolicy::AllApplied, CrashPolicy::NoneApplied] {
                let mut m = Machine::default();
                let v = w.run_case(&mut m, *fuel, policy).unwrap();
                assert!(v.passed(), "fuel={fuel} policy={policy}: {v:?}");
            }
        }
        let mut buggy = AnalyticsWorkload::new(AnalyticsParams::quick()).with_recovery_bug();
        let caught = bounds.iter().any(|&fuel| {
            let mut m = Machine::default();
            !buggy
                .run_case(&mut m, fuel, CrashPolicy::AllApplied)
                .unwrap()
                .passed()
        });
        assert!(caught, "deliberate recovery bug went undetected");
    }

    /// The double-recovery oracle passes at sampled crash boundaries, and
    /// the injected double-applying fold is caught.
    #[test]
    fn double_recovery_exactly_once_and_injected_bug_caught() {
        let mut w = quick();
        let mut m = Machine::default();
        let sched = w.record(&mut m).unwrap();
        let bounds = sched.boundaries().to_vec();
        assert!(w.supports_double_recovery());
        for fuel in bounds.iter().step_by(bounds.len() / 6 + 1) {
            let mut m = Machine::default();
            let v = w
                .run_case_double_recovery(&mut m, *fuel, CrashPolicy::AllApplied)
                .unwrap();
            assert!(v.passed(), "fuel={fuel}: {v:?}");
        }
        let mut buggy = AnalyticsWorkload::new(AnalyticsParams::quick()).with_double_apply_bug();
        let caught = bounds.iter().any(|&fuel| {
            let mut m = Machine::default();
            !buggy
                .run_case_double_recovery(&mut m, fuel, CrashPolicy::AllApplied)
                .unwrap()
                .passed()
        });
        assert!(caught, "deliberate double-apply bug went undetected");
    }

    /// The journal's sequential appends are where Epoch persistency should
    /// beat Strict: deferring fence drains to the kernel boundary
    /// coalesces the per-warp persists.
    #[test]
    fn epoch_beats_strict() {
        use gpm_gpu::PersistencyModel;
        let mut ms = Machine::default();
        let strict = quick().run(&mut ms, Mode::Gpm).unwrap();
        let mut me = Machine::default();
        let epoch = AnalyticsWorkload::new(
            AnalyticsParams::quick().with_persistency(PersistencyModel::Epoch),
        )
        .run(&mut me, Mode::Gpm)
        .unwrap();
        assert!(epoch.verified);
        assert!(
            epoch.elapsed < strict.elapsed,
            "epoch={} strict={}",
            epoch.elapsed,
            strict.elapsed
        );
    }
}
