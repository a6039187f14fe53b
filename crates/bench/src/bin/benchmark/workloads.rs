//! The four workloads. Each pass builds its inputs from the seed and runs
//! on fresh machines, through the public APIs of `gpm-sim`, `gpm-gpu`,
//! `gpm-workloads` and `gpm-serve` only. Every call into a layer runs
//! inside a [`span`]; `Phases` marks where set-up ends and the measured
//! work begins, and where the measured work ends and the benchmark's own
//! output checks begin.
//!
//! | workload | stresses | bypasses |
//! |---|---|---|
//! | `kvs_detect` | detect layer, per-lane dispatch, HCL undo, staged engine | checkpoints, scheduler, crashes |
//! | `fleet_train` | `run_warp`, gpmcp checkpoints, CAP persists, host math | detect layer, scheduler, crashes |
//! | `serve_replicated` | per-launch cost, scheduler, log shipping | checkpoints, crashes |
//! | `crash_campaign` | Record gauges, crash settle, recovery, `Machine::new` | scheduler, large tables |

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use gpm_gpu::{FuelGauge, LaunchError};
use gpm_serve::{
    serve_engine, ArrivalShape, BatchPolicy, FailoverInfo, FaultPlan, LogShipStats, Op,
    ReplicatedShard, ReplicationConfig, Request, Router, ServeEngine, TrafficConfig,
};
use gpm_sim::{
    enumerate_cases, CampaignCase, CampaignConfig, EventKind, Machine, MachineConfig, Ns,
    OracleVerdict, SimResult, Stats, TraceData, Xoshiro256StarStar,
};
use gpm_workloads::iterative::run_iterative;
use gpm_workloads::{
    oracle_suite, BlkParams, BlkWorkload, CfdParams, CfdWorkload, DnnParams, DnnWorkload,
    HotspotParams, HotspotWorkload, IterativeApp, KvsOp, KvsParams, KvsState, KvsWorkload, Mode,
    PsParams, PsWorkload, RecoveryOracle, ServeConsistency, ShardModel, SradParams, SradWorkload,
    Workload,
};

use crate::measure::{peak_rss_mib, process_cpu};
use crate::trace::{span, step};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    KvsDetect,
    FleetTrain,
    ServeReplicated,
    CrashCampaign,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::KvsDetect,
        WorkloadKind::FleetTrain,
        WorkloadKind::ServeReplicated,
        WorkloadKind::CrashCampaign,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::KvsDetect => "kvs_detect",
            WorkloadKind::FleetTrain => "fleet_train",
            WorkloadKind::ServeReplicated => "serve_replicated",
            WorkloadKind::CrashCampaign => "crash_campaign",
        }
    }

    pub fn from_name(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The work unit `ops_per_s` counts.
    pub fn unit(self) -> &'static str {
        match self {
            WorkloadKind::KvsDetect => "KVS ops",
            WorkloadKind::FleetTrain => "simulated kernel launches",
            WorkloadKind::ServeReplicated => "offered requests",
            WorkloadKind::CrashCampaign => "crash cases judged",
        }
    }
}

/// Input sizes: the benchmark's, or tiny ones for the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// Wall- and CPU-clock marks of one pass: set-up, then the measured work,
/// then the benchmark's output checks. The caller resets the peak-RSS mark
/// before the pass starts.
pub struct Phases {
    start: Instant,
    measure: Option<(Instant, Duration)>,
    check: Option<(Instant, Duration, Option<f64>)>,
}

/// Seconds spent in each phase of one pass, and its peak memory.
#[derive(Debug, Clone, Copy)]
pub struct PhaseTimes {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Peak RSS over set-up and measured work, in MiB.
    pub peak_rss_mb: f64,
}

impl Phases {
    pub fn new() -> Phases {
        Phases {
            start: Instant::now(),
            measure: None,
            check: None,
        }
    }

    /// Ends set-up; the measured work starts.
    fn measure(&mut self) {
        self.measure = Some((Instant::now(), process_cpu()));
    }

    /// Ends the measured work; the output checks start.
    fn check(&mut self) {
        let (wall, cpu) = (Instant::now(), process_cpu());
        self.check = Some((wall, cpu, peak_rss_mib().ok()));
    }

    /// Phase durations, once both marks were reached and the peak was read.
    pub fn times(&self) -> Option<PhaseTimes> {
        let (m_wall, m_cpu) = self.measure?;
        let (c_wall, c_cpu, peak) = self.check?;
        Some(PhaseTimes {
            setup_s: (m_wall - self.start).as_secs_f64(),
            wall_s: (c_wall - m_wall).as_secs_f64(),
            cpu_s: c_cpu.saturating_sub(m_cpu).as_secs_f64(),
            peak_rss_mb: peak?,
        })
    }
}

/// What one pass produced.
#[derive(Debug, Clone, Default)]
pub struct PassOutput {
    /// Work units attempted (see [`WorkloadKind::unit`]).
    pub ops: u64,
    /// Work units whose output failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// FNV-1a hash of every simulated result of the pass.
    pub digest: u64,
    /// Machine counters summed over every machine of the pass.
    pub sim: Stats,
    /// Serve only: requests shed by admission.
    pub shed: u64,
    /// Serve only: log-shipping bytes.
    pub log_ship_bytes: u64,
}

impl PassOutput {
    fn fail(&mut self, units: u64, msg: String) {
        self.failed += units;
        if self.failures.len() < 5 {
            self.failures.push(msg);
        }
    }
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn ns(&mut self, t: Ns) {
        self.word(t.0.to_bits());
    }

    fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn stats(&mut self, s: &Stats) {
        for x in [
            s.pm_write_bytes_gpu,
            s.pm_write_bytes_cpu,
            s.pm_read_bytes_gpu,
            s.pcie_write_txns,
            s.dma_bytes,
            s.system_fences,
            s.device_fences,
            s.bytes_persisted,
            s.kernel_launches,
            s.crashes,
            s.pm_block_programs,
        ] {
            self.word(x);
        }
    }
}

/// Runs one pass of `kind`, marking its phases in `ph`.
///
/// # Errors
///
/// A simulator error that stopped the pass.
pub fn run_pass(
    kind: WorkloadKind,
    scale: Scale,
    seed: u64,
    ph: &mut Phases,
) -> Result<PassOutput, String> {
    match kind {
        WorkloadKind::KvsDetect => kvs_pass(scale, seed, ph),
        WorkloadKind::FleetTrain => fleet_pass(scale, ph),
        WorkloadKind::ServeReplicated => serve_pass(scale, seed, ph),
        WorkloadKind::CrashCampaign => campaign_pass(scale, seed, ph),
    }
}

/// Runs only the set-up phase of a pass of `kind` and returns its seconds;
/// what it built is dropped after the clock stops.
///
/// # Errors
///
/// A simulator error that stopped the set-up.
pub fn time_setup(kind: WorkloadKind, scale: Scale, seed: u64) -> Result<f64, String> {
    fn timed<T>(start: Instant, built: Result<T, String>) -> Result<f64, String> {
        let secs = start.elapsed().as_secs_f64();
        built.map(|_| secs)
    }
    let start = Instant::now();
    match kind {
        WorkloadKind::KvsDetect => timed(start, kvs_setup(scale, seed)),
        WorkloadKind::FleetTrain => timed(start, fleet_setup(scale)),
        WorkloadKind::ServeReplicated => timed(start, serve_setup(scale, seed)),
        WorkloadKind::CrashCampaign => timed(start, campaign_setup(scale, seed)),
    }
}

fn new_machine() -> Machine {
    span("sim.machine_new", || Machine::new(MachineConfig::default()))
}

/// Independent seed streams for the parts of one workload's inputs.
fn sub_seed(seed: u64, part: u64) -> u64 {
    gpm_sim::SplitMix64::new(seed ^ part.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

// ---- kvs_detect -------------------------------------------------------------

/// Three batches of unique uniform SETs, then one batch that half GETs
/// and half overwrites keys the first three wrote (disjoint key subsets,
/// so no GET races an overwrite of its key). Keys are odd, so never the
/// reserved 0.
fn kvs_inputs(seed: u64, n: usize) -> Vec<Vec<KvsOp>> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(sub_seed(seed, 1));
    let mut seen = HashSet::new();
    let mut written = Vec::with_capacity(3 * n);
    let mut batches = Vec::with_capacity(4);
    for _ in 0..3 {
        let mut ops = Vec::with_capacity(n);
        while ops.len() < n {
            let key = rng.next_u64() | 1;
            if seen.insert(key) {
                let value = rng.next_u64();
                ops.push((key, value, false));
                written.push(key);
            }
        }
        batches.push(ops);
    }
    // Partial Fisher-Yates: the first n entries become n distinct keys.
    for i in 0..n {
        let j = i + rng.gen_range_usize(written.len() - i);
        written.swap(i, j);
    }
    let mut mixed: Vec<KvsOp> = written[..n]
        .iter()
        .enumerate()
        .map(|(i, &key)| {
            if i < n / 2 {
                (key, 0, true)
            } else {
                (key, rng.next_u64(), false)
            }
        })
        .collect();
    for i in (1..mixed.len()).rev() {
        mixed.swap(i, rng.gen_range_usize(i + 1));
    }
    batches.push(mixed);
    batches
}

type KvsSetup = (Vec<Vec<KvsOp>>, Machine, KvsWorkload, KvsState);

fn kvs_setup(scale: Scale, seed: u64) -> Result<KvsSetup, String> {
    let params = match scale {
        Scale::Full => KvsParams::default(),
        Scale::Smoke => KvsParams::quick(),
    };
    let batches = span("bench.input_gen", || {
        kvs_inputs(seed, params.ops_per_batch as usize)
    });
    let mut m = new_machine();
    let w = KvsWorkload::new(params);
    let st = span("workloads.kvs.setup", || w.setup(&mut m, Mode::Gpm))
        .map_err(|e| format!("gpKVS setup: {e}"))?;
    Ok((batches, m, w, st))
}

fn kvs_pass(scale: Scale, seed: u64, ph: &mut Phases) -> Result<PassOutput, String> {
    let (batches, mut m, w, st) = kvs_setup(scale, seed)?;
    ph.measure();
    let mut d = Digest::new();
    for (b, ops) in batches.iter().enumerate() {
        step(b as u64);
        let bm = span("workloads.kvs.apply_batch", || {
            w.apply_batch(&mut m, &st, b as u64, ops, Mode::Gpm)
        })
        .map_err(|e| format!("gpKVS batch {b}: {e}"))?;
        d.ns(bm.elapsed);
        d.word(bm.pm_write_bytes_gpu);
        d.word(bm.bytes_persisted);
    }
    ph.check();
    let mut out = PassOutput {
        ops: batches.iter().map(|b| b.len() as u64).sum(),
        ..PassOutput::default()
    };
    span("bench.oracle", || {
        kvs_check(&w, &m, &st, &batches, &mut out)
    })
    .map_err(|e| format!("gpKVS check: {e}"))?;
    d.stats(&m.stats);
    d.ns(m.clock.now());
    out.digest = d.0;
    out.sim = m.stats;
    Ok(out)
}

/// Replays every SET through the host [`ShardModel`], then checks every
/// live key's durable record and every GET answer of the last batch (the
/// only one with GETs).
fn kvs_check(
    w: &KvsWorkload,
    m: &Machine,
    st: &KvsState,
    batches: &[Vec<KvsOp>],
    out: &mut PassOutput,
) -> SimResult<()> {
    let sets = w.params.sets;
    let mut model = ShardModel::new(sets);
    let mut gets = Vec::new();
    for (b, ops) in batches.iter().enumerate() {
        for (i, &(key, value, is_get)) in ops.iter().enumerate() {
            if is_get {
                debug_assert_eq!(b + 1, batches.len(), "only the last batch reads");
                gets.push((i as u64, key, model.get(key).unwrap_or(0)));
            } else {
                model.set(key, value);
            }
        }
    }
    if model.evicted {
        out.fail(out.ops, "the input mix evicted a live key".into());
        return Ok(());
    }
    let shard = st.shard(sets);
    for (_, &(key, value, version)) in model.entries() {
        match shard.host_find(m, key)? {
            Some(rec) if rec[1] == value && rec[2] == version => {}
            found => out.fail(
                1,
                format!("key {key:#x}: durable record {found:?}, expected value {value:#x} version {version}"),
            ),
        }
    }
    for (i, key, want) in gets {
        let got = w.get_result(m, st, i)?;
        if got != want {
            out.fail(
                1,
                format!("GET {key:#x} returned {got:#x}, expected {want:#x}"),
            );
        }
    }
    Ok(())
}

// ---- fleet_train ------------------------------------------------------------

/// Delegates to the wrapped app and times the calls `run_iterative` makes
/// into it; what remains of `run_iterative` is the checkpoint persist path.
///
/// The app's own `setup` runs during the pass's set-up phase
/// ([`TimedApp::prepare`]) on the machine `run_iterative` later gets, and
/// `run_iterative`'s first call, `setup`, receives its result. Nothing
/// touches the machine in between, so the simulated run is the same.
struct TimedApp {
    app: Box<dyn IterativeApp>,
    arrays: Option<Vec<(u64, u64)>>,
}

impl TimedApp {
    fn new(app: impl IterativeApp + 'static) -> TimedApp {
        TimedApp {
            app: Box::new(app),
            arrays: None,
        }
    }

    fn prepare(&mut self, machine: &mut Machine) -> SimResult<()> {
        let arrays = span("workloads.app.setup", || self.app.setup(machine))?;
        self.arrays = Some(arrays);
        Ok(())
    }
}

impl IterativeApp for TimedApp {
    fn name(&self) -> &'static str {
        self.app.name()
    }

    fn setup(&mut self, _machine: &mut Machine) -> SimResult<Vec<(u64, u64)>> {
        Ok(self
            .arrays
            .take()
            .expect("the pass's set-up phase prepared this app"))
    }

    fn iteration(&self, machine: &mut Machine, arrays: &[(u64, u64)], iter: u32) -> SimResult<()> {
        span("workloads.app.iteration", || {
            self.app.iteration(machine, arrays, iter)
        })
    }

    fn verify(&self, machine: &Machine, arrays: &[(u64, u64)], iters_done: u32) -> SimResult<bool> {
        span("workloads.app.verify", || {
            self.app.verify(machine, arrays, iters_done)
        })
    }

    fn iterations(&self) -> u32 {
        self.app.iterations()
    }

    fn checkpoint_every(&self) -> u32 {
        self.app.checkpoint_every()
    }

    fn paper_bytes(&self) -> u64 {
        self.app.paper_bytes()
    }
}

enum FleetApp {
    Iterative(TimedApp),
    Native(Box<dyn Workload>),
}

/// DNN training at the paper's model size (checkpointing twice), the
/// other checkpointing apps and the native kernels at evaluation size.
/// The apps have no seed: their inputs are fixed by the paper's sizes.
fn fleet_apps(scale: Scale) -> Vec<FleetApp> {
    fn pick<T>(scale: Scale, full: T, smoke: T) -> T {
        match scale {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
    let dnn = DnnParams {
        iterations: 4,
        checkpoint_every: 2,
        ..pick(scale, DnnParams::default(), DnnParams::quick())
    };
    vec![
        FleetApp::Iterative(TimedApp::new(DnnWorkload::new(dnn))),
        FleetApp::Iterative(TimedApp::new(CfdWorkload::new(pick(
            scale,
            CfdParams::default(),
            CfdParams::quick(),
        )))),
        FleetApp::Iterative(TimedApp::new(BlkWorkload::new(pick(
            scale,
            BlkParams::default(),
            BlkParams::quick(),
        )))),
        FleetApp::Iterative(TimedApp::new(HotspotWorkload::new(pick(
            scale,
            HotspotParams::default(),
            HotspotParams::quick(),
        )))),
        FleetApp::Native(Box::new(SradWorkload::new(pick(
            scale,
            SradParams::default(),
            SradParams::quick(),
        )))),
        FleetApp::Native(Box::new(PsWorkload::new(pick(
            scale,
            PsParams::default(),
            PsParams::quick(),
        )))),
    ]
}

const FLEET_MODES: [(Mode, &str); 2] = [
    (Mode::Gpm, "workloads.iterative.gpm"),
    (Mode::CapFs, "workloads.iterative.cap_fs"),
];

/// Each app run: its persistence mode, the span that times it, the app
/// and the fresh machine it runs on.
type FleetSetup = Vec<(Mode, &'static str, FleetApp, Machine)>;

fn fleet_setup(scale: Scale) -> Result<FleetSetup, String> {
    let apps = span("bench.input_gen", || {
        FLEET_MODES
            .iter()
            .flat_map(|&(mode, persist)| {
                fleet_apps(scale)
                    .into_iter()
                    .map(move |a| (mode, persist, a))
            })
            .collect::<Vec<_>>()
    });
    let mut runs = Vec::with_capacity(apps.len());
    for (mode, persist, mut app) in apps {
        let mut m = new_machine();
        if let FleetApp::Iterative(a) = &mut app {
            a.prepare(&mut m)
                .map_err(|e| format!("{} setup: {e}", a.name()))?;
        }
        runs.push((mode, persist, app, m));
    }
    Ok(runs)
}

fn fleet_pass(scale: Scale, ph: &mut Phases) -> Result<PassOutput, String> {
    let runs = fleet_setup(scale)?;
    ph.measure();
    let mut results = Vec::with_capacity(runs.len());
    for (i, (mode, persist, app, mut m)) in runs.into_iter().enumerate() {
        step(i as u64);
        let (name, metrics) = match app {
            FleetApp::Iterative(mut a) => (
                a.name(),
                span(persist, || run_iterative(&mut m, &mut a, mode, 32)),
            ),
            FleetApp::Native(mut w) => (
                w.name(),
                span("workloads.suite.run", || w.run(&mut m, mode)),
            ),
        };
        let metrics = metrics.map_err(|e| format!("{name} under {}: {e}", mode.label()))?;
        // The machine drops here, freeing its memory before the next run.
        results.push((name, mode, metrics, m.stats, m.clock.now()));
    }
    ph.check();
    let mut out = PassOutput::default();
    let mut d = Digest::new();
    for (name, mode, r, stats, now) in results {
        out.ops += stats.kernel_launches;
        out.sim = out.sim.merged(&stats);
        if !r.verified {
            out.fail(
                stats.kernel_launches.max(1),
                format!("{name} under {} failed verification", mode.label()),
            );
        }
        d.text(name);
        d.ns(r.elapsed);
        for x in [
            r.pm_write_bytes_gpu,
            r.pm_write_bytes_cpu,
            r.bytes_persisted,
            r.system_fences,
            u64::from(r.verified),
        ] {
            d.word(x);
        }
        d.stats(&stats);
        d.ns(now);
    }
    out.digest = d.0;
    Ok(out)
}

// ---- serve_replicated -------------------------------------------------------

/// Delegates every call to the wrapped engine and times the three that
/// enter the simulator's kernel path; the rest of `serve_engine` is the
/// scheduler.
struct TimedEngine<'a, E>(&'a mut E);

impl<E: ServeEngine> ServeEngine for TimedEngine<'_, E> {
    fn now(&self) -> Ns {
        self.0.now()
    }

    fn advance_to(&mut self, t: Ns) {
        self.0.advance_to(t);
    }

    fn max_batch(&self) -> u64 {
        self.0.max_batch()
    }

    fn boot_recovery(&self) -> Option<Ns> {
        self.0.boot_recovery()
    }

    fn trace_enabled(&self) -> bool {
        self.0.trace_enabled()
    }

    fn trace(&mut self, kind: EventKind) {
        self.0.trace(kind);
    }

    fn stats(&self) -> Stats {
        self.0.stats()
    }

    fn take_trace(&mut self) -> Option<TraceData> {
        self.0.take_trace()
    }

    fn gauge_for(&mut self, faults: &FaultPlan, n: u64) -> FuelGauge {
        self.0.gauge_for(faults, n)
    }

    fn apply(&mut self, batch: &[Request], gauge: &mut FuelGauge) -> Result<(), LaunchError> {
        span("serve.engine.apply", || self.0.apply(batch, gauge))
    }

    fn recover_in_place(&mut self) -> SimResult<Ns> {
        span("serve.engine.recover_in_place", || {
            self.0.recover_in_place()
        })
    }

    fn read_gets(&self, batch: &[Request]) -> SimResult<Vec<Option<u64>>> {
        span("serve.engine.read_gets", || self.0.read_gets(batch))
    }

    fn failover(&self) -> Option<FailoverInfo> {
        self.0.failover()
    }

    fn log_ship(&self) -> Option<LogShipStats> {
        self.0.log_ship()
    }
}

/// Offered loads in simulated Mops/s; the top two overload the pairs and
/// shed on purpose.
const SERVE_RATES_MOPS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];
const SERVE_SHARDS: u32 = 2;
const SERVE_BATCH: u64 = 128;

struct ServeSize {
    sets: u64,
    requests_per_rate: u64,
    key_space: u64,
}

fn serve_size(scale: Scale) -> ServeSize {
    match scale {
        Scale::Full => ServeSize {
            sets: 8_192,
            requests_per_rate: 40_000,
            key_space: 65_536,
        },
        Scale::Smoke => ServeSize {
            sets: 2_048,
            requests_per_rate: 1_000,
            key_space: 4_096,
        },
    }
}

/// The request streams and, at the same index, the pair serving each.
type ServeSetup = (Vec<Vec<Request>>, Vec<ReplicatedShard>);

fn serve_setup(scale: Scale, seed: u64) -> Result<ServeSetup, String> {
    let size = serve_size(scale);
    let params = KvsParams {
        sets: size.sets,
        ops_per_batch: SERVE_BATCH,
        ..KvsParams::default()
    };
    let router = Router::new(SERVE_SHARDS);
    // One stream per (rate, shard), rate-major.
    let streams = span("bench.input_gen", || {
        SERVE_RATES_MOPS
            .iter()
            .enumerate()
            .flat_map(|(i, &mops)| {
                let traffic = TrafficConfig {
                    seed: sub_seed(seed, 2 + i as u64),
                    rate_ops_per_sec: mops * 1e6,
                    n_requests: size.requests_per_rate,
                    shape: ArrivalShape::Poisson,
                    get_permille: 500,
                    key_space: size.key_space,
                    key_skew: None,
                    premium_permille: 0,
                };
                router.partition(&traffic.generate())
            })
            .collect::<Vec<_>>()
    });
    let mut pairs = Vec::with_capacity(streams.len());
    for k in 0..streams.len() {
        let idx = k as u32 % SERVE_SHARDS;
        let pair = span("serve.replicated_shard.new_kvs", || {
            ReplicatedShard::new_kvs(params, Mode::Gpm, &ReplicationConfig::default(), idx)
        })
        .map_err(|e| format!("replicated shard setup: {e}"))?;
        pairs.push(pair);
    }
    Ok((streams, pairs))
}

fn serve_pass(scale: Scale, seed: u64, ph: &mut Phases) -> Result<PassOutput, String> {
    let (streams, mut pairs) = serve_setup(scale, seed)?;
    ph.measure();
    let policy = BatchPolicy {
        max_batch: SERVE_BATCH,
        ..BatchPolicy::default()
    };
    let mut reports = Vec::with_capacity(pairs.len());
    for (k, (pair, stream)) in pairs.iter_mut().zip(&streams).enumerate() {
        step(k as u64);
        let report = span("serve.serve_engine", || {
            serve_engine(
                &mut TimedEngine(pair),
                stream,
                &policy,
                &FaultPlan::default(),
            )
        })
        .map_err(|e| format!("serve point {k}: {e}"))?;
        reports.push(report);
    }
    ph.check();
    let mut out = PassOutput::default();
    let mut d = Digest::new();
    span("bench.oracle", || {
        for (k, ((pair, stream), r)) in pairs.iter().zip(&streams).zip(&reports).enumerate() {
            let offered = stream.len() as u64;
            out.ops += offered;
            out.shed += r.shed;
            out.sim = out.sim.merged(&r.stats);
            let ship = r.log_ship.unwrap_or_default();
            out.log_ship_bytes += ship.bytes;
            if let Err(msg) = serve_audit(pair, stream, r) {
                out.fail(offered, format!("serve point {k}: {msg}"));
            }
            for q in r.hist.quantiles(&[0.5, 0.95, 0.99, 0.999]) {
                d.ns(q);
            }
            for x in [
                r.offered,
                r.completed,
                r.shed,
                r.batches,
                ship.batches,
                ship.bytes,
            ] {
                d.word(x);
            }
            d.ns(r.end);
            d.stats(&r.stats);
        }
    });
    out.digest = d.0;
    Ok(out)
}

/// Conservation, then the replica-consistency audit of both images.
///
/// The ledger pairs each response with its request by id. Responses are
/// not in request order: a shed request is answered at admission, a
/// completed one only when its batch commits. Completed responses do come
/// in apply order (batches launch FIFO), which is the order the ledger
/// must replay SETs in.
fn serve_audit(
    pair: &ReplicatedShard,
    stream: &[Request],
    r: &gpm_serve::ShardReport,
) -> Result<(), String> {
    let offered = stream.len() as u64;
    if r.offered != offered || r.completed + r.shed != offered {
        return Err(format!(
            "conservation: offered {offered}, reported {} = {} completed + {} shed",
            r.offered, r.completed, r.shed
        ));
    }
    let by_id: HashMap<u64, &Request> = stream.iter().map(|q| (q.id, q)).collect();
    let mut answered = HashSet::with_capacity(stream.len());
    let sets = pair.active().kvs_sets().ok_or("not a gpKVS pair")?;
    let mut ledger = ServeConsistency::new(sets);
    for resp in &r.responses {
        let req = by_id
            .get(&resp.id)
            .ok_or_else(|| format!("response to unknown request {}", resp.id))?;
        if !answered.insert(resp.id) {
            return Err(format!("request {} answered twice", resp.id));
        }
        if !resp.is_done() {
            continue;
        }
        match req.op {
            Op::Put { key, value } => ledger.acked_set(key, value),
            Op::HeavyPut { key, value, work } => {
                for (k, v) in Op::heavy_expansion(key, value, work) {
                    ledger.acked_set(k, v);
                }
            }
            _ => {}
        }
    }
    if answered.len() != stream.len() {
        return Err(format!("{} of {offered} requests answered", answered.len()));
    }
    let mut images = vec![("replica", pair.replica())];
    if !pair.promoted() {
        images.push(("primary", pair.primary()));
    }
    for (role, shard) in images {
        let dev = shard.kvs_dev().ok_or("not a gpKVS shard")?;
        match ledger.verify(&shard.machine, &dev) {
            Ok(OracleVerdict::Pass) => {}
            Ok(OracleVerdict::Fail(m)) => return Err(format!("{role}: {m}")),
            Err(e) => return Err(format!("{role}: {e}")),
        }
    }
    Ok(())
}

// ---- crash_campaign ---------------------------------------------------------

fn campaign_config(scale: Scale, seed: u64) -> CampaignConfig {
    let base = CampaignConfig {
        seed: sub_seed(seed, 6),
        ..CampaignConfig::default()
    };
    match scale {
        Scale::Full => CampaignConfig {
            max_crash_points: Some(6),
            ..base
        },
        Scale::Smoke => CampaignConfig {
            max_crash_points: Some(1),
            gray_steps: 0,
            random_subsets: 1,
            ..base
        },
    }
}

/// Every oracle with its cases, and the pass output and digest so far
/// (the recording runs' counters).
type CampaignSetup = (
    Vec<(Box<dyn RecoveryOracle>, Vec<CampaignCase>)>,
    PassOutput,
    Digest,
);

/// Set-up discovers the cases (each oracle's recorded crash schedule,
/// expanded by `enumerate_cases`); the measured work judges them.
fn campaign_setup(scale: Scale, seed: u64) -> Result<CampaignSetup, String> {
    let (oracles, cfg) = span("bench.input_gen", || {
        (
            oracle_suite(gpm_workloads::Scale::Quick),
            campaign_config(scale, seed),
        )
    });
    let mut out = PassOutput::default();
    let mut d = Digest::new();
    let mut suite = Vec::with_capacity(oracles.len());
    for mut o in oracles {
        let mut m = new_machine();
        let sched = span("workloads.oracle.record", || o.record(&mut m))
            .map_err(|e| format!("{}: recording the crash schedule: {e}", o.name()))?;
        out.sim = out.sim.merged(&m.stats);
        d.stats(&m.stats);
        let cases = span("sim.campaign.enumerate_cases", || {
            enumerate_cases(&sched, &cfg)
        });
        suite.push((o, cases));
    }
    Ok((suite, out, d))
}

fn campaign_pass(scale: Scale, seed: u64, ph: &mut Phases) -> Result<PassOutput, String> {
    let (mut suite, mut out, mut d) = campaign_setup(scale, seed)?;
    ph.measure();
    for (o, cases) in &mut suite {
        let name = o.name();
        let legs: &[bool] = if o.supports_double_recovery() {
            &[false, true]
        } else {
            &[false]
        };
        for &double in legs {
            for case in cases.iter() {
                step(out.ops);
                out.ops += 1;
                let mut m = new_machine();
                let verdict = if double {
                    span("workloads.oracle.run_case_double_recovery", || {
                        o.run_case_double_recovery(&mut m, case.fuel, case.policy)
                    })
                } else {
                    span("workloads.oracle.run_case", || {
                        o.run_case(&mut m, case.fuel, case.policy)
                    })
                };
                let failure = match verdict {
                    Ok(OracleVerdict::Pass) => None,
                    Ok(OracleVerdict::Fail(msg)) => Some(msg),
                    Err(e) => Some(e.to_string()),
                };
                match failure {
                    None => d.word(1),
                    Some(msg) => {
                        d.text(&msg);
                        let leg = if double {
                            "double recovery"
                        } else {
                            "recovery"
                        };
                        out.fail(
                            1,
                            format!(
                                "{name} fuel={} policy={} ({leg}): {msg}",
                                case.fuel, case.policy
                            ),
                        );
                    }
                }
                d.stats(&m.stats);
                d.ns(m.clock.now());
                out.sim = out.sim.merged(&m.stats);
            }
        }
    }
    ph.check();
    out.digest = d.0;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kvs_inputs_are_seeded_unique_and_half_gets() {
        let a = kvs_inputs(1, 64);
        assert_eq!(a, kvs_inputs(1, 64), "same seed, same inputs");
        assert_ne!(a, kvs_inputs(2, 64));
        let sets: Vec<u64> = a[..3].iter().flatten().map(|op| op.0).collect();
        assert_eq!(sets.len(), 192);
        assert_eq!(
            sets.iter().collect::<HashSet<_>>().len(),
            192,
            "unique keys"
        );
        assert!(a[..3].iter().flatten().all(|op| !op.2 && op.0 & 1 == 1));
        let mixed = &a[3];
        assert_eq!(mixed.iter().filter(|op| op.2).count(), 32);
        assert_eq!(
            mixed.iter().map(|op| op.0).collect::<HashSet<_>>().len(),
            64
        );
        assert!(
            mixed.iter().all(|op| sets.contains(&op.0)),
            "only written keys"
        );
    }

    #[test]
    fn workload_names_round_trip() {
        for k in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::from_name(k.name()), Some(k));
        }
        assert_eq!(WorkloadKind::from_name("nosuch"), None);
    }
}
