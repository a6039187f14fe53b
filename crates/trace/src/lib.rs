//! # gpm-trace — deterministic structured-event tracing
//!
//! A dependency-free event layer for the GPM reproduction. Every layer of
//! the stack — the simulated machine, the kernel execution engine, libGPM's
//! logs and checkpoints, the crash campaign, and the serving frontend —
//! emits typed [`Event`]s through a [`TraceSink`] installed on the
//! `Machine`. Timestamps are **sim-clock nanoseconds** (never wall clock),
//! so a trace is a pure function of seed + configuration: byte-deterministic
//! across runs and diffable in CI.
//!
//! Exporters:
//! * [`chrome_trace_json`] — Chrome trace-event JSON, loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev) (schema
//!   `gpm-trace-v1`, embedded under the `gpmTrace` key).
//! * [`Attribution`] — a per-phase summary (bytes persisted, fences, PCIe
//!   transactions, span time) computed *online* at emit time, so it stays
//!   exact even when the bounded ring drops old events.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::VecDeque;
use std::fmt::{self, Write as _};

/// A typed trace event. Each variant carries the minimal payload needed to
/// reconstruct the timeline; aggregate accounting lives in `gpm_sim::Stats`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A kernel launch began (after the launch counter was bumped).
    KernelBegin {
        /// Ordinal of this launch on the machine (1-based).
        launch: u64,
        /// Grid size in blocks.
        grid: u32,
        /// Threads per block.
        block_dim: u32,
    },
    /// The kernel launch completed (also emitted before a mid-kernel crash).
    KernelEnd {
        /// Ordinal of the launch being closed.
        launch: u64,
    },
    /// A block starts executing.
    BlockBegin {
        /// Block id within the grid.
        block: u32,
    },
    /// The block finished executing; its effects are fully applied.
    BlockCommit {
        /// Block id within the grid.
        block: u32,
    },
    /// A coalesced PCIe write transaction reached the PM controller.
    PcieWriteTxn {
        /// PM offset of the transaction's first byte.
        offset: u64,
        /// Transaction payload size in bytes.
        bytes: u64,
    },
    /// A GPU system-scope fence. `lines` counts the pending cache lines
    /// this fence actually persisted (0 under eADR, where stores persist
    /// at write time).
    SystemFence {
        /// Writer id whose pending lines were flushed.
        writer: u32,
        /// Pending lines persisted by this fence.
        lines: u64,
    },
    /// A GPU device-scope fence (ordering only, nothing persists).
    DeviceFence,
    /// Epoch-persistency boundary: the deferred drain at kernel completion
    /// made every epoch-closed pending line durable (under
    /// `PersistencyModel::Epoch`, fences only order writes into the epoch;
    /// this event carries the bytes they would have persisted eagerly).
    EpochDrain {
        /// Pending lines the boundary drain made durable.
        lines: u64,
    },
    /// DDIO was disabled: a `gpm_persist_begin` epoch opened.
    PersistEpochBegin,
    /// DDIO was re-enabled: the persist epoch closed.
    PersistEpochEnd,
    /// A store became durable immediately under eADR.
    EadrPersist {
        /// PM offset of the store.
        offset: u64,
        /// Bytes persisted.
        bytes: u64,
        /// True for GPU stores, false for CPU stores.
        gpu: bool,
    },
    /// The CPU flushed a persistent range (clwb/clflushopt + sfence path).
    CpuFlush {
        /// PM offset of the range.
        offset: u64,
        /// Cache lines flushed.
        lines: u64,
    },
    /// A CPU store with immediate persistence (store + flush + fence).
    CpuPersistStore {
        /// PM offset of the store.
        offset: u64,
        /// Bytes persisted.
        bytes: u64,
    },
    /// A DMA copy between memory spaces.
    DmaCopy {
        /// Bytes transferred.
        bytes: u64,
    },
    /// A simulated power failure: pending lines partially applied.
    Crash {
        /// Pending lines whose contents reached the media.
        applied: u64,
        /// Pending lines lost.
        dropped: u64,
    },
    /// An undo/HCL log append became durable.
    LogAppend {
        /// Entry payload bytes.
        bytes: u64,
        /// True when appended through the HCL (striped, unfenced) path.
        hcl: bool,
    },
    /// A log was cleared (host-side reset after recovery or commit).
    LogClear {
        /// Bytes of log content discarded.
        bytes: u64,
    },
    /// A checkpoint of one working-set group started.
    CheckpointBegin {
        /// Checkpoint group index.
        group: u32,
    },
    /// The checkpoint's atomic publish flag was persisted.
    CheckpointPublish {
        /// Checkpoint group index.
        group: u32,
    },
    /// The checkpoint completed.
    CheckpointEnd {
        /// Checkpoint group index.
        group: u32,
    },
    /// Post-crash recovery began (log drain / metadata rollback).
    RecoveryBegin,
    /// Recovery completed; the image is consistent again.
    RecoveryEnd,
    /// A serve request entered a shard's queue.
    ServeEnqueue {
        /// Request ordinal within the shard's arrival stream.
        req: u64,
    },
    /// A serve request was shed (queue full).
    ServeShed {
        /// Request ordinal within the shard's arrival stream.
        req: u64,
    },
    /// A serve batch began executing (enqueue → launch edge).
    ServeBatchBegin {
        /// Requests in the batch.
        n: u32,
    },
    /// The batch's effects are durable (launch → durable edge).
    ServeBatchEnd {
        /// Requests in the batch.
        n: u32,
    },
    /// A response left the shard (durable → respond edge).
    ServeRespond {
        /// Request ordinal within the shard's arrival stream.
        req: u64,
        /// Enqueue-to-response latency in sim nanoseconds.
        latency_ns: f64,
    },
    /// A primary shipped one committed batch's log record to its replica
    /// over the simulated PCIe/PM fabric.
    LogShip {
        /// Batch sequence number (the one riding the detect-layer tags).
        seq: u64,
        /// Log-record bytes shipped.
        bytes: u64,
    },
    /// The replica durably applied a shipped batch (the semi-sync ack
    /// instant).
    ReplicaAck {
        /// Batch sequence number acknowledged.
        seq: u64,
    },
    /// A replica was promoted to primary after FaultPlan killed the
    /// primary mid-batch.
    FailoverPromote {
        /// Promotion gap (primary death → replica serving) in sim ns.
        gap_ns: f64,
    },
    /// Resharding shipped a migrated key range onto its new owner.
    MigrateKeys {
        /// Keys moved in this transfer.
        keys: u64,
        /// Bytes shipped over the fabric.
        bytes: u64,
    },
}

impl EventKind {
    /// Category tag for exporters.
    pub fn cat(&self) -> &'static str {
        use EventKind::*;
        match self {
            KernelBegin { .. } | KernelEnd { .. } | BlockBegin { .. } | BlockCommit { .. } => {
                "kernel"
            }
            PcieWriteTxn { .. } | DmaCopy { .. } => "pcie",
            SystemFence { .. }
            | DeviceFence
            | EpochDrain { .. }
            | PersistEpochBegin
            | PersistEpochEnd
            | EadrPersist { .. }
            | CpuFlush { .. }
            | CpuPersistStore { .. } => "persist",
            LogAppend { .. }
            | LogClear { .. }
            | CheckpointBegin { .. }
            | CheckpointPublish { .. }
            | CheckpointEnd { .. } => "libgpm",
            Crash { .. } | RecoveryBegin | RecoveryEnd => "faults",
            ServeEnqueue { .. }
            | ServeShed { .. }
            | ServeBatchBegin { .. }
            | ServeBatchEnd { .. }
            | ServeRespond { .. } => "serve",
            LogShip { .. } | ReplicaAck { .. } | FailoverPromote { .. } | MigrateKeys { .. } => {
                "replication"
            }
        }
    }

    /// Bytes this event made durable (summed by phase attribution; the
    /// per-run total equals the machine's `Stats::bytes_persisted` delta).
    fn bytes_persisted(&self) -> u64 {
        const CPU_LINE: u64 = 64;
        match *self {
            EventKind::SystemFence { lines, .. } => lines * CPU_LINE,
            EventKind::EpochDrain { lines } => lines * CPU_LINE,
            EventKind::EadrPersist { bytes, .. } => bytes,
            EventKind::CpuFlush { lines, .. } => lines * CPU_LINE,
            EventKind::CpuPersistStore { bytes, .. } => bytes,
            _ => 0,
        }
    }
}

/// One timestamped event. `ts_ns` is the machine's sim clock at emission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulated time of the event in nanoseconds.
    pub ts_ns: f64,
    /// What happened.
    pub kind: EventKind,
}

/// Attribution phases: the innermost *non-kernel* span a carrier event
/// falls inside (kernels nest inside checkpoints, recovery, and serve
/// batches, so the outer span is the interesting attribution target).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Inside a kernel launch with no enclosing higher-level span.
    Kernel,
    /// Inside a checkpoint span.
    Checkpoint,
    /// Inside a recovery span.
    Recovery,
    /// Inside a serve batch span.
    ServeBatch,
    /// Outside any span (host-side setup, log clears between batches…).
    Other,
}

impl Phase {
    const ALL: [Phase; 5] = [
        Phase::Kernel,
        Phase::Checkpoint,
        Phase::Recovery,
        Phase::ServeBatch,
        Phase::Other,
    ];

    fn index(self) -> usize {
        match self {
            Phase::Kernel => 0,
            Phase::Checkpoint => 1,
            Phase::Recovery => 2,
            Phase::ServeBatch => 3,
            Phase::Other => 4,
        }
    }

    /// Stable lower-case key used in exported JSON.
    pub fn key(self) -> &'static str {
        match self {
            Phase::Kernel => "kernel",
            Phase::Checkpoint => "checkpoint",
            Phase::Recovery => "recovery",
            Phase::ServeBatch => "serve_batch",
            Phase::Other => "other",
        }
    }
}

/// Per-phase totals accumulated online at emit time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTotals {
    /// Bytes made durable while this phase was innermost.
    pub bytes_persisted: u64,
    /// System-scope fences issued in this phase.
    pub system_fences: u64,
    /// Coalesced PCIe write transactions in this phase.
    pub pcie_write_txns: u64,
    /// Spans of this phase that closed (or were cut by a crash).
    pub spans: u64,
    /// Total sim time spent inside closed spans of this phase.
    pub span_ns: f64,
}

/// The per-run attribution summary: one [`PhaseTotals`] per [`Phase`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Attribution {
    totals: [PhaseTotals; 5],
}

impl Attribution {
    /// Totals for one phase.
    pub fn phase(&self, p: Phase) -> &PhaseTotals {
        &self.totals[p.index()]
    }

    /// Sum of `bytes_persisted` across all phases. By construction this
    /// equals the traced machine's `Stats::bytes_persisted` delta.
    pub fn total_bytes_persisted(&self) -> u64 {
        self.totals.iter().map(|t| t.bytes_persisted).sum()
    }

    /// Merges another attribution into this one (multi-shard roll-up).
    pub fn merge(&mut self, other: &Attribution) {
        for (a, b) in self.totals.iter_mut().zip(other.totals.iter()) {
            a.bytes_persisted += b.bytes_persisted;
            a.system_fences += b.system_fences;
            a.pcie_write_txns += b.pcie_write_txns;
            a.spans += b.spans;
            a.span_ns += b.span_ns;
        }
    }

    fn at(&mut self, p: Phase) -> &mut PhaseTotals {
        &mut self.totals[p.index()]
    }
}

/// What a sink hands back when tracing ends.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceData {
    /// The retained events, oldest first (the ring may have dropped older
    /// ones — see `dropped_events`).
    pub events: Vec<Event>,
    /// Events evicted from the bounded ring, oldest-first. Never silent.
    pub dropped_events: u64,
    /// Online per-phase attribution over ALL emitted events, including
    /// dropped ones.
    pub attribution: Attribution,
}

/// Event consumer installed on a `Machine`. Implementations must be cheap:
/// the hot path calls [`TraceSink::emit`] only when a sink is installed
/// (`Machine::trace_enabled` gates event construction entirely), so the
/// uninstrumented run stays zero-cost.
pub trait TraceSink: fmt::Debug + Send + Sync {
    /// Consume one event.
    fn emit(&mut self, ev: Event);
    /// Finish tracing and surrender collected data, if any.
    fn finish(self: Box<Self>) -> Option<TraceData> {
        None
    }
}

/// A sink that discards everything (useful to measure sink overhead).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&mut self, _ev: Event) {}
}

/// The standard sink: a bounded ring of events plus online attribution.
///
/// When the ring is full the **oldest** event is dropped and
/// `dropped_events` incremented — attribution is computed at emit time, so
/// its sums stay exact regardless of drops.
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    ring: VecDeque<Event>,
    dropped: u64,
    attr: Attribution,
    /// Open attribution spans: (phase, begin ts).
    stack: Vec<(Phase, f64)>,
}

impl RingSink {
    /// Default ring capacity: enough for the quick benches without
    /// unbounded growth on full runs.
    pub const DEFAULT_CAP: usize = 1 << 20;

    /// Creates a sink retaining at most `cap` events.
    pub fn new(cap: usize) -> RingSink {
        RingSink {
            cap: cap.max(1),
            ring: VecDeque::new(),
            dropped: 0,
            attr: Attribution::default(),
            stack: Vec::new(),
        }
    }

    /// Events dropped so far.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// The phase a carrier event attributes to: innermost non-kernel span,
    /// else `Kernel` if any span is open, else `Other`.
    fn carrier_phase(&self) -> Phase {
        for &(p, _) in self.stack.iter().rev() {
            if p != Phase::Kernel {
                return p;
            }
        }
        if self.stack.is_empty() {
            Phase::Other
        } else {
            Phase::Kernel
        }
    }

    fn open(&mut self, p: Phase, ts: f64) {
        self.stack.push((p, ts));
    }

    fn close(&mut self, p: Phase, ts: f64) {
        // Pop the innermost matching span; tolerate unmatched ends.
        if let Some(pos) = self.stack.iter().rposition(|&(q, _)| q == p) {
            let (_, t0) = self.stack.remove(pos);
            let t = self.attr.at(p);
            t.spans += 1;
            t.span_ns += ts - t0;
        }
    }

    fn account(&mut self, ev: &Event) {
        use EventKind::*;
        match ev.kind {
            KernelBegin { .. } => self.open(Phase::Kernel, ev.ts_ns),
            KernelEnd { .. } => self.close(Phase::Kernel, ev.ts_ns),
            CheckpointBegin { .. } => self.open(Phase::Checkpoint, ev.ts_ns),
            CheckpointEnd { .. } => self.close(Phase::Checkpoint, ev.ts_ns),
            RecoveryBegin => self.open(Phase::Recovery, ev.ts_ns),
            RecoveryEnd => self.close(Phase::Recovery, ev.ts_ns),
            ServeBatchBegin { .. } => self.open(Phase::ServeBatch, ev.ts_ns),
            ServeBatchEnd { .. } => self.close(Phase::ServeBatch, ev.ts_ns),
            Crash { .. } => {
                // Power failure cuts every open span at the crash instant.
                while let Some((p, t0)) = self.stack.pop() {
                    let t = self.attr.at(p);
                    t.spans += 1;
                    t.span_ns += ev.ts_ns - t0;
                }
            }
            _ => {
                let bytes = ev.kind.bytes_persisted();
                let fence = matches!(ev.kind, SystemFence { .. }) as u64;
                let txn = matches!(ev.kind, PcieWriteTxn { .. }) as u64;
                if bytes != 0 || fence != 0 || txn != 0 {
                    let p = self.carrier_phase();
                    let t = self.attr.at(p);
                    t.bytes_persisted += bytes;
                    t.system_fences += fence;
                    t.pcie_write_txns += txn;
                }
            }
        }
    }
}

impl TraceSink for RingSink {
    fn emit(&mut self, ev: Event) {
        self.account(&ev);
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    fn finish(self: Box<Self>) -> Option<TraceData> {
        Some(TraceData {
            events: self.ring.into_iter().collect(),
            dropped_events: self.dropped,
            attribution: self.attr,
        })
    }
}

/// Formats an `f64` timestamp (ns) as Chrome's microsecond `ts` field.
fn ts_us(ns: f64) -> String {
    format!("{:.3}", ns / 1_000.0)
}

fn write_args(out: &mut String, kind: &EventKind) {
    use EventKind::*;
    match *kind {
        KernelBegin {
            launch,
            grid,
            block_dim,
        } => {
            let _ = write!(
                out,
                "{{\"launch\":{launch},\"grid\":{grid},\"block_dim\":{block_dim}}}"
            );
        }
        KernelEnd { launch } => {
            let _ = write!(out, "{{\"launch\":{launch}}}");
        }
        BlockBegin { block } | BlockCommit { block } => {
            let _ = write!(out, "{{\"block\":{block}}}");
        }
        PcieWriteTxn { offset, bytes } => {
            let _ = write!(out, "{{\"offset\":{offset},\"bytes\":{bytes}}}");
        }
        SystemFence { writer, lines } => {
            let _ = write!(out, "{{\"writer\":{writer},\"lines\":{lines}}}");
        }
        EpochDrain { lines } => {
            let _ = write!(out, "{{\"lines\":{lines}}}");
        }
        DeviceFence | PersistEpochBegin | PersistEpochEnd | RecoveryBegin | RecoveryEnd => {
            out.push_str("{}");
        }
        EadrPersist { offset, bytes, gpu } => {
            let _ = write!(
                out,
                "{{\"offset\":{offset},\"bytes\":{bytes},\"gpu\":{gpu}}}"
            );
        }
        CpuFlush { offset, lines } => {
            let _ = write!(out, "{{\"offset\":{offset},\"lines\":{lines}}}");
        }
        CpuPersistStore { offset, bytes } => {
            let _ = write!(out, "{{\"offset\":{offset},\"bytes\":{bytes}}}");
        }
        DmaCopy { bytes } | LogClear { bytes } => {
            let _ = write!(out, "{{\"bytes\":{bytes}}}");
        }
        Crash { applied, dropped } => {
            let _ = write!(out, "{{\"applied\":{applied},\"dropped\":{dropped}}}");
        }
        LogAppend { bytes, hcl } => {
            let _ = write!(out, "{{\"bytes\":{bytes},\"hcl\":{hcl}}}");
        }
        CheckpointBegin { group } | CheckpointPublish { group } | CheckpointEnd { group } => {
            let _ = write!(out, "{{\"group\":{group}}}");
        }
        ServeEnqueue { req } | ServeShed { req } => {
            let _ = write!(out, "{{\"req\":{req}}}");
        }
        ServeBatchBegin { n } | ServeBatchEnd { n } => {
            let _ = write!(out, "{{\"n\":{n}}}");
        }
        ServeRespond { req, latency_ns } => {
            let _ = write!(out, "{{\"req\":{req},\"latency_ns\":{latency_ns:.1}}}");
        }
        LogShip { seq, bytes } => {
            let _ = write!(out, "{{\"seq\":{seq},\"bytes\":{bytes}}}");
        }
        ReplicaAck { seq } => {
            let _ = write!(out, "{{\"seq\":{seq}}}");
        }
        FailoverPromote { gap_ns } => {
            let _ = write!(out, "{{\"gap_ns\":{gap_ns:.1}}}");
        }
        MigrateKeys { keys, bytes } => {
            let _ = write!(out, "{{\"keys\":{keys},\"bytes\":{bytes}}}");
        }
    }
}

/// (name, phase letter, virtual thread id) for the Chrome exporter.
fn chrome_shape(kind: &EventKind) -> (&'static str, char, u32) {
    use EventKind::*;
    match kind {
        KernelBegin { .. } => ("kernel", 'B', 0),
        KernelEnd { .. } => ("kernel", 'E', 0),
        BlockBegin { .. } => ("block", 'B', 0),
        BlockCommit { .. } => ("block", 'E', 0),
        PcieWriteTxn { .. } => ("pcie_txn", 'i', 1),
        DmaCopy { .. } => ("dma", 'i', 1),
        SystemFence { .. } => ("system_fence", 'i', 2),
        DeviceFence => ("device_fence", 'i', 2),
        EpochDrain { .. } => ("epoch_drain", 'i', 2),
        PersistEpochBegin => ("persist_epoch", 'B', 2),
        PersistEpochEnd => ("persist_epoch", 'E', 2),
        EadrPersist { .. } => ("eadr_persist", 'i', 2),
        CpuFlush { .. } => ("cpu_flush", 'i', 2),
        CpuPersistStore { .. } => ("cpu_persist_store", 'i', 2),
        LogAppend { .. } => ("log_append", 'i', 3),
        LogClear { .. } => ("log_clear", 'i', 3),
        CheckpointBegin { .. } => ("checkpoint", 'B', 3),
        CheckpointPublish { .. } => ("checkpoint_publish", 'i', 3),
        CheckpointEnd { .. } => ("checkpoint", 'E', 3),
        Crash { .. } => ("crash", 'i', 4),
        RecoveryBegin => ("recovery", 'B', 4),
        RecoveryEnd => ("recovery", 'E', 4),
        ServeEnqueue { .. } => ("enqueue", 'i', 5),
        ServeShed { .. } => ("shed", 'i', 5),
        ServeBatchBegin { .. } => ("batch", 'B', 5),
        ServeBatchEnd { .. } => ("batch", 'E', 5),
        ServeRespond { .. } => ("respond", 'i', 5),
        LogShip { .. } => ("log_ship", 'i', 6),
        ReplicaAck { .. } => ("replica_ack", 'i', 6),
        FailoverPromote { .. } => ("promote", 'i', 6),
        MigrateKeys { .. } => ("migrate_keys", 'i', 6),
    }
}

const THREAD_NAMES: [(u32, &str); 7] = [
    (0, "kernel"),
    (1, "pcie"),
    (2, "persist"),
    (3, "libgpm"),
    (4, "faults"),
    (5, "serve"),
    (6, "replication"),
];

fn write_attribution(out: &mut String, attr: &Attribution) {
    out.push('{');
    for (i, p) in Phase::ALL.iter().enumerate() {
        let t = attr.phase(*p);
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"bytes_persisted\":{},\"system_fences\":{},\"pcie_write_txns\":{},\
             \"spans\":{},\"span_ns\":{:.1}}}",
            p.key(),
            t.bytes_persisted,
            t.system_fences,
            t.pcie_write_txns,
            t.spans,
            t.span_ns
        );
    }
    out.push('}');
}

/// Renders one or more shards' traces as Chrome trace-event JSON (schema
/// `gpm-trace-v1`). Each shard becomes one `pid` with named virtual
/// threads; every event is exactly **one line**, so shell tools can
/// filter and diff traces line by line.
///
/// `stats_bytes_persisted` is the traced machines' `Stats::bytes_persisted`
/// total for the traced window; it is embedded next to the attribution so a
/// reader (or CI) can check the sums-to-stats invariant.
pub fn chrome_trace_json(shards: &[(String, &TraceData)], stats_bytes_persisted: u64) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let sep = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
    };
    for (pid, (name, _)) in shards.iter().enumerate() {
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{name}\"}}}}"
        );
        for (tid, tname) in THREAD_NAMES {
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{tname}\"}}}}"
            );
        }
    }
    for (pid, (_, data)) in shards.iter().enumerate() {
        for ev in &data.events {
            sep(&mut out, &mut first);
            let (name, ph, tid) = chrome_shape(&ev.kind);
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"{}\",\"ph\":\"{ph}\",\"pid\":{pid},\
                 \"tid\":{tid},\"ts\":{}",
                ev.kind.cat(),
                ts_us(ev.ts_ns)
            );
            if ph == 'i' {
                out.push_str(",\"s\":\"t\"");
            }
            out.push_str(",\"args\":");
            write_args(&mut out, &ev.kind);
            out.push('}');
        }
    }
    out.push_str("\n],\n\"displayTimeUnit\":\"ns\",\n");
    let mut attr = Attribution::default();
    let mut dropped = 0u64;
    for (_, data) in shards {
        attr.merge(&data.attribution);
        dropped += data.dropped_events;
    }
    out.push_str("\"gpmTrace\":{\"schema\":\"gpm-trace-v1\",");
    let _ = write!(
        out,
        "\"shards\":{},\"dropped_events\":{dropped},\
         \"stats_bytes_persisted\":{stats_bytes_persisted},\"attribution\":",
        shards.len()
    );
    write_attribution(&mut out, &attr);
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: f64, kind: EventKind) -> Event {
        Event { ts_ns: ts, kind }
    }

    #[test]
    fn ring_drops_oldest_with_explicit_counter() {
        let mut sink = RingSink::new(3);
        for i in 0..5 {
            sink.emit(ev(i as f64, EventKind::DmaCopy { bytes: i }));
        }
        assert_eq!(sink.dropped_events(), 2);
        let data = Box::new(sink).finish().unwrap();
        assert_eq!(data.dropped_events, 2);
        assert_eq!(data.events.len(), 3);
        // Oldest dropped: events 0 and 1 are gone, 2..5 retained in order.
        assert_eq!(data.events[0].kind, EventKind::DmaCopy { bytes: 2 });
        assert_eq!(data.events[2].kind, EventKind::DmaCopy { bytes: 4 });
    }

    #[test]
    fn attribution_survives_ring_drops() {
        let mut sink = RingSink::new(1);
        for _ in 0..10 {
            sink.emit(ev(
                0.0,
                EventKind::EadrPersist {
                    offset: 0,
                    bytes: 64,
                    gpu: true,
                },
            ));
        }
        let data = Box::new(sink).finish().unwrap();
        assert_eq!(data.dropped_events, 9);
        assert_eq!(data.attribution.total_bytes_persisted(), 640);
    }

    #[test]
    fn carrier_attribution_prefers_innermost_non_kernel_phase() {
        let mut sink = RingSink::new(64);
        // Outside any span -> Other.
        sink.emit(ev(
            0.0,
            EventKind::CpuPersistStore {
                offset: 0,
                bytes: 8,
            },
        ));
        // Inside a bare kernel -> Kernel.
        sink.emit(ev(
            1.0,
            EventKind::KernelBegin {
                launch: 1,
                grid: 1,
                block_dim: 1,
            },
        ));
        sink.emit(ev(
            2.0,
            EventKind::SystemFence {
                writer: 0,
                lines: 2,
            },
        ));
        sink.emit(ev(3.0, EventKind::KernelEnd { launch: 1 }));
        // Kernel nested in a serve batch -> ServeBatch.
        sink.emit(ev(4.0, EventKind::ServeBatchBegin { n: 3 }));
        sink.emit(ev(
            5.0,
            EventKind::KernelBegin {
                launch: 2,
                grid: 1,
                block_dim: 1,
            },
        ));
        sink.emit(ev(
            6.0,
            EventKind::PcieWriteTxn {
                offset: 0,
                bytes: 128,
            },
        ));
        sink.emit(ev(
            6.5,
            EventKind::EadrPersist {
                offset: 0,
                bytes: 100,
                gpu: true,
            },
        ));
        sink.emit(ev(7.0, EventKind::KernelEnd { launch: 2 }));
        sink.emit(ev(8.0, EventKind::ServeBatchEnd { n: 3 }));
        let data = Box::new(sink).finish().unwrap();
        let a = &data.attribution;
        assert_eq!(a.phase(Phase::Other).bytes_persisted, 8);
        assert_eq!(a.phase(Phase::Kernel).bytes_persisted, 128);
        assert_eq!(a.phase(Phase::Kernel).system_fences, 1);
        assert_eq!(a.phase(Phase::ServeBatch).bytes_persisted, 100);
        assert_eq!(a.phase(Phase::ServeBatch).pcie_write_txns, 1);
        assert_eq!(a.total_bytes_persisted(), 8 + 128 + 100);
        assert_eq!(a.phase(Phase::Kernel).spans, 2);
        assert_eq!(a.phase(Phase::ServeBatch).spans, 1);
        assert!((a.phase(Phase::ServeBatch).span_ns - 4.0).abs() < 1e-9);
    }

    #[test]
    fn crash_closes_all_open_spans() {
        let mut sink = RingSink::new(64);
        sink.emit(ev(0.0, EventKind::ServeBatchBegin { n: 1 }));
        sink.emit(ev(
            1.0,
            EventKind::KernelBegin {
                launch: 1,
                grid: 1,
                block_dim: 1,
            },
        ));
        sink.emit(ev(
            5.0,
            EventKind::Crash {
                applied: 1,
                dropped: 2,
            },
        ));
        let data = Box::new(sink).finish().unwrap();
        assert_eq!(data.attribution.phase(Phase::Kernel).spans, 1);
        assert_eq!(data.attribution.phase(Phase::ServeBatch).spans, 1);
        assert!((data.attribution.phase(Phase::ServeBatch).span_ns - 5.0).abs() < 1e-9);
        // Post-crash carriers attribute to Other again.
        let mut sink = RingSink::new(4);
        sink.emit(ev(0.0, EventKind::ServeBatchBegin { n: 1 }));
        sink.emit(ev(
            1.0,
            EventKind::Crash {
                applied: 0,
                dropped: 0,
            },
        ));
        sink.emit(ev(
            2.0,
            EventKind::CpuPersistStore {
                offset: 0,
                bytes: 7,
            },
        ));
        let data = Box::new(sink).finish().unwrap();
        assert_eq!(data.attribution.phase(Phase::Other).bytes_persisted, 7);
    }

    #[test]
    fn chrome_export_is_one_event_per_line() {
        let data = TraceData {
            events: vec![
                ev(
                    1000.0,
                    EventKind::KernelBegin {
                        launch: 1,
                        grid: 2,
                        block_dim: 4,
                    },
                ),
                ev(1500.0, EventKind::DeviceFence),
                ev(2000.0, EventKind::KernelEnd { launch: 1 }),
            ],
            dropped_events: 3,
            attribution: Attribution::default(),
        };
        let json = chrome_trace_json(&[("shard0".to_string(), &data)], 0);
        assert!(json.contains("\"schema\":\"gpm-trace-v1\""));
        assert!(json.contains("\"dropped_events\":3"));
        assert!(json.contains("\"ts\":1.000")); // 1000 ns -> 1.000 us
                                                // Exactly one line per event, so line-based tools see each whole.
        let fence_lines = json.lines().filter(|l| l.contains("device_fence"));
        assert_eq!(fence_lines.count(), 1);
        // Every traceEvent line is self-contained JSON-ish (starts with {).
        assert!(json
            .lines()
            .skip(1)
            .take_while(|l| *l != "],")
            .all(|l| l.starts_with('{')));
    }

    #[test]
    fn null_sink_returns_nothing() {
        let mut s = NullSink;
        s.emit(ev(0.0, EventKind::DeviceFence));
        assert!(Box::new(s).finish().is_none());
    }
}
