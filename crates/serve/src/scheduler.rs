//! Admission + batching scheduler: the per-shard serving loop.
//!
//! A discrete-event loop over the shard's own simulated clock:
//!
//! 1. **Admission** — every arrival at or before "now" is admitted to the
//!    shard's bounded FIFO queue, in arrival order. When the queue is at
//!    [`BatchPolicy::queue_cap`] (or, for standard-class tenants, at the
//!    [`BatchPolicy::priority_low_water`] mark), the request is *shed*
//!    with an explicit
//!    [`Verdict::Overloaded`](crate::request::Verdict::Overloaded)
//!    response — backpressure is a first-class outcome, never a silent
//!    drop. A shed premium request may get one *hedged* re-admission
//!    after [`BatchPolicy::hedge_delay`]; its latency still counts from
//!    the original arrival.
//! 2. **Batching** — a kernel launch is triggered when the queue holds
//!    [`BatchPolicy::max_batch`] *weight* (slow-poison requests weigh
//!    their expansion, so a poisoned batch cannot overflow the shard's op
//!    buffers), when the oldest queued request has lingered
//!    [`BatchPolicy::max_linger`], or when the arrival stream is
//!    exhausted (nothing left to wait for). Otherwise the clock idles
//!    forward to whichever comes first: the linger deadline, the next
//!    arrival, or the next hedged re-admission.
//! 3. **Launch + retry** — the batch goes through the engine's
//!    `apply_batch` path. A transient [`LaunchError::Crashed`] (the fault
//!    plan cutting power mid-kernel) triggers in-place recovery and a
//!    bounded number of retries; on a replicated pair whose primary was
//!    *killed*, "recovery" is replica promotion and the retry lands on
//!    the new primary. The retry's queueing delay lands in the affected
//!    requests' latencies.
//! 4. **Accounting** — each completed request's end-to-end latency
//!    (arrival → batch commit) is recorded into the engine's
//!    [`LatencyHistogram`].
//!
//! The loop itself is engine-agnostic: [`serve_engine`] drives anything
//! implementing [`ServeEngine`] (a plain [`Shard`](crate::shard::Shard), a
//! [`ReplicatedShard`](crate::replica::ReplicatedShard) pair).

use std::collections::VecDeque;

use gpm_gpu::{FuelGauge, LaunchError};
use gpm_sim::{EventKind, Ns, SimError, SimResult, Stats, TraceData};
use gpm_workloads::LatencyHistogram;

use crate::replica::{FailoverInfo, LogShipStats};
use crate::request::{Request, Response, Verdict};

/// Batching and admission policy for one shard.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Most request *weight* packed into one kernel launch (every
    /// operation weighs 1 except
    /// [`Op::HeavyPut`](crate::request::Op::HeavyPut), which weighs its
    /// expansion).
    pub max_batch: u64,
    /// Longest the oldest queued request may wait before a launch is
    /// forced, even if the batch is not full.
    pub max_linger: Ns,
    /// Bounded admission-queue capacity; arrivals beyond it are shed.
    pub queue_cap: usize,
    /// Most recovery + relaunch attempts after a transient mid-batch
    /// crash before the shard gives up.
    pub max_retries: u32,
    /// Priority admission: when set, *standard-class* (class 0) requests
    /// are shed once the queue holds this many requests, reserving the
    /// remaining headroom up to `queue_cap` for premium tenants. `None`
    /// treats every class alike.
    pub priority_low_water: Option<usize>,
    /// Hedged retries: when set, a shed premium (class ≥ 1) request is
    /// re-offered to admission once, this long after the shed, instead of
    /// answering `Overloaded` immediately. A second shed is final.
    pub hedge_delay: Option<Ns>,
}

impl Default for BatchPolicy {
    fn default() -> BatchPolicy {
        BatchPolicy {
            max_batch: 512,
            max_linger: Ns::from_micros(100.0),
            queue_cap: 4_096,
            max_retries: 3,
            priority_low_water: None,
            hedge_delay: None,
        }
    }
}

/// Deterministic transient-fault injection: cut power mid-kernel on
/// selected batches, exercising the recover-and-retry path.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Crash every Nth batch launch (`None` = no faults).
    pub crash_every: Option<u64>,
    /// Fuel (kernel thread-operations) granted before the cut.
    pub crash_fuel: u64,
}

impl FaultPlan {
    /// The gauge for the `n`-th batch launch (0-based): a crashing gauge
    /// on scheduled batches, unlimited otherwise.
    pub fn gauge_for(&self, n: u64) -> FuelGauge {
        match self.crash_every {
            Some(k) if k > 0 && (n + 1).is_multiple_of(k) => FuelGauge::crash(self.crash_fuel),
            _ => FuelGauge::Unlimited,
        }
    }
}

/// What the serving loop drives: a clocked engine that applies request
/// batches through the kernel-launch path. Implemented by a plain
/// [`Shard`](crate::shard::Shard) and by the primary/replica
/// [`ReplicatedShard`](crate::replica::ReplicatedShard) pair, so the
/// admission/batching/retry logic exists exactly once.
pub trait ServeEngine {
    /// Current simulated time on the engine's (active) clock.
    fn now(&self) -> Ns;

    /// Idles the active clock forward to `t` (no-op if already past).
    fn advance_to(&mut self, t: Ns);

    /// Largest batch *weight* the engine's buffers take in one launch.
    fn max_batch(&self) -> u64;

    /// Simulated boot-recovery time, if the engine booted over a crashed
    /// image.
    fn boot_recovery(&self) -> Option<Ns> {
        None
    }

    /// Whether a trace sink is installed (events should be emitted).
    fn trace_enabled(&self) -> bool;

    /// Emits a structured trace event at the active clock.
    fn trace(&mut self, kind: EventKind);

    /// Snapshot of the engine's machine counters (summed over every
    /// machine the engine owns, so deltas meter the pair as one unit).
    fn stats(&self) -> Stats;

    /// Finalizes and returns the trace, if a sink was installed.
    fn take_trace(&mut self) -> Option<TraceData>;

    /// The fuel gauge for the `n`-th batch launch. The default follows
    /// the fault plan; a replicated pair substitutes a fatal gauge when
    /// its kill plan's instant has passed.
    fn gauge_for(&mut self, faults: &FaultPlan, n: u64) -> FuelGauge {
        faults.gauge_for(n)
    }

    /// Applies one batch through the kernel-launch path.
    ///
    /// # Errors
    ///
    /// [`LaunchError::Crashed`] on a mid-kernel power cut (call
    /// [`recover_in_place`](ServeEngine::recover_in_place) before
    /// retrying); [`LaunchError::Sim`] on functional errors.
    fn apply(&mut self, batch: &[Request], gauge: &mut FuelGauge) -> Result<(), LaunchError>;

    /// Prepares the engine for an in-place retry of the interrupted
    /// batch; on a killed replicated pair this is replica *promotion*.
    /// Returns the simulated time it took.
    ///
    /// # Errors
    ///
    /// Propagates recovery errors.
    fn recover_in_place(&mut self) -> SimResult<Ns>;

    /// Reads the values the GETs of the just-applied batch returned.
    ///
    /// # Errors
    ///
    /// Propagates platform errors.
    fn read_gets(&self, batch: &[Request]) -> SimResult<Vec<Option<u64>>>;

    /// Failover record, if this engine promoted a replica mid-run.
    fn failover(&self) -> Option<FailoverInfo> {
        None
    }

    /// Log-shipping counters, if this engine replicates.
    fn log_ship(&self) -> Option<LogShipStats> {
        None
    }
}

/// What one shard did with its request stream.
#[derive(Debug)]
pub struct ShardReport {
    /// Per-request end-to-end latency distribution (completed requests).
    pub hist: LatencyHistogram,
    /// One response per offered request (shed included).
    pub responses: Vec<Response>,
    /// Requests offered to this shard.
    pub offered: u64,
    /// Requests that completed service.
    pub completed: u64,
    /// Requests shed by admission backpressure.
    pub shed: u64,
    /// Kernel-launch batches executed (including retried launches).
    pub batches: u64,
    /// Recovery + relaunch retries after transient crashes.
    pub retries: u64,
    /// Hedged re-admissions attempted for shed premium requests.
    pub hedges: u64,
    /// Simulated time recovery took at boot, if the shard booted over an
    /// existing image.
    pub boot_recovery: Option<Ns>,
    /// The shard clock when the stream drained.
    pub end: Ns,
    /// Simulated time spent inside batch application (vs idle waiting).
    pub busy: Ns,
    /// Machine counters accumulated over the serve window (a delta, so a
    /// trace's attribution sums can be checked against `bytes_persisted`
    /// exactly — shard setup is excluded from both).
    pub stats: Stats,
    /// Structured-event trace, when a sink was installed on the shard's
    /// machine before serving.
    pub trace: Option<TraceData>,
    /// Replica promotion record, when the engine failed over mid-run.
    pub failover: Option<FailoverInfo>,
    /// Log-shipping counters, when the engine replicates.
    pub log_ship: Option<LogShipStats>,
}

impl ShardReport {
    /// Fraction of offered requests shed.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }
}

/// Runs the serving loop over any [`ServeEngine`] — the one copy of the
/// admission/batching/retry logic shared by plain shards and replicated
/// pairs.
///
/// # Errors
///
/// Fails if a batch still crashes after [`BatchPolicy::max_retries`]
/// recoveries, or on functional platform errors.
///
/// # Panics
///
/// Panics if `requests` is not sorted by arrival time, the policy has a
/// zero batch size, or a single request's weight exceeds the batch
/// budget.
pub fn serve_engine<E: ServeEngine>(
    engine: &mut E,
    requests: &[Request],
    policy: &BatchPolicy,
    faults: &FaultPlan,
) -> SimResult<ShardReport> {
    assert!(policy.max_batch > 0, "batches must hold at least a request");
    assert!(
        requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
        "request stream must be time-ordered"
    );
    let max_batch = policy.max_batch.min(engine.max_batch());
    let stats0 = engine.stats();
    let mut queue: VecDeque<Request> = VecDeque::new();
    let mut queued_weight = 0u64;
    // Hedged re-admissions, keyed by their retry instant. Pushes happen at
    // monotone clock instants with a fixed delay, so the queue stays
    // time-sorted without an explicit sort.
    let mut hedge_q: VecDeque<(Ns, Request)> = VecDeque::new();
    let mut next = 0usize;
    let mut report = ShardReport {
        hist: LatencyHistogram::new(),
        responses: Vec::with_capacity(requests.len()),
        offered: requests.len() as u64,
        completed: 0,
        shed: 0,
        batches: 0,
        retries: 0,
        hedges: 0,
        boot_recovery: engine.boot_recovery(),
        end: engine.now(),
        busy: Ns::ZERO,
        stats: Stats::default(),
        trace: None,
        failover: None,
        log_ship: None,
    };
    loop {
        // Admission: everything (fresh arrivals and due hedged retries)
        // ready by now, merged in time order; the main stream wins ties so
        // legacy (hedge-free) runs see the exact historical order.
        loop {
            let now = engine.now();
            let main_ready = next < requests.len() && requests[next].arrival <= now;
            let hedge_ready = hedge_q.front().is_some_and(|&(t, _)| t <= now);
            let (r, from_hedge) = if main_ready
                && (!hedge_ready || requests[next].arrival <= hedge_q.front().expect("ready").0)
            {
                next += 1;
                (requests[next - 1], false)
            } else if hedge_ready {
                (hedge_q.pop_front().expect("ready").1, true)
            } else {
                break;
            };
            let w = r.op.weight();
            assert!(
                w <= max_batch,
                "request weight {w} exceeds batch budget {max_batch}"
            );
            let full = queue.len() >= policy.queue_cap
                || (r.class == 0
                    && policy
                        .priority_low_water
                        .is_some_and(|lw| queue.len() >= lw));
            if full {
                match policy.hedge_delay {
                    // A shed premium request gets one hedged retry; its
                    // response stays owed until the hedge resolves.
                    Some(delay) if r.class >= 1 && !from_hedge => {
                        report.hedges += 1;
                        hedge_q.push_back((now + delay, r));
                    }
                    _ => {
                        report.shed += 1;
                        if engine.trace_enabled() {
                            engine.trace(EventKind::ServeShed { req: r.id });
                        }
                        report.responses.push(Response {
                            id: r.id,
                            verdict: Verdict::Overloaded,
                            latency: Ns::ZERO,
                        });
                    }
                }
            } else {
                if engine.trace_enabled() {
                    engine.trace(EventKind::ServeEnqueue { req: r.id });
                }
                queued_weight += w;
                queue.push_back(r);
            }
        }
        let drained = next >= requests.len() && hedge_q.is_empty();
        // Earliest future admission instant (fresh arrival or hedged
        // retry), if any.
        let next_offer = match (requests.get(next), hedge_q.front()) {
            (Some(r), Some(&(t, _))) => Some(r.arrival.min(t)),
            (Some(r), None) => Some(r.arrival),
            (None, Some(&(t, _))) => Some(t),
            (None, None) => None,
        };
        if queue.is_empty() {
            match next_offer {
                None => break,
                Some(t) => {
                    engine.advance_to(t);
                    continue;
                }
            }
        }
        // Batching: launch when the queued weight fills the budget, when
        // the head request's linger budget is spent, or when nothing else
        // could grow the batch.
        let deadline = queue.front().expect("non-empty").arrival + policy.max_linger;
        if queued_weight < max_batch && !drained && engine.now() < deadline {
            let wake = match next_offer {
                Some(t) => deadline.min(t),
                None => deadline,
            };
            engine.advance_to(wake);
            continue;
        }
        // Drain by summed weight: the batch takes whole requests while the
        // budget holds (the head always fits — weights are admission-
        // checked against the budget).
        let mut batch: Vec<Request> = Vec::new();
        let mut batch_weight = 0u64;
        while let Some(r) = queue.front() {
            let w = r.op.weight();
            if !batch.is_empty() && batch_weight + w > max_batch {
                break;
            }
            batch_weight += w;
            batch.push(queue.pop_front().expect("non-empty"));
        }
        queued_weight -= batch_weight;
        let n = batch.len() as u32;
        let t0 = engine.now();
        if engine.trace_enabled() {
            engine.trace(EventKind::ServeBatchBegin { n });
        }
        let mut attempt = 0u32;
        loop {
            let mut gauge = engine.gauge_for(faults, report.batches);
            report.batches += 1;
            match engine.apply(&batch, &mut gauge) {
                Ok(()) => break,
                Err(LaunchError::Crashed(_)) => {
                    attempt += 1;
                    if attempt > policy.max_retries {
                        return Err(SimError::Invalid(
                            "batch still crashing after max_retries recoveries",
                        ));
                    }
                    report.retries += 1;
                    engine.recover_in_place()?;
                    // The crash event cut the batch span; the retry reopens
                    // it so its persists attribute to the batch again.
                    if engine.trace_enabled() {
                        engine.trace(EventKind::ServeBatchBegin { n });
                    }
                }
                Err(LaunchError::Sim(e)) => return Err(e),
            }
        }
        if engine.trace_enabled() {
            engine.trace(EventKind::ServeBatchEnd { n });
        }
        let done = engine.now();
        report.busy += done - t0;
        let values = engine.read_gets(&batch)?;
        for (r, v) in batch.iter().zip(values) {
            report.completed += 1;
            // Hedged requests count latency from the *original* arrival:
            // the client has been waiting since then.
            let latency = done - r.arrival;
            report.hist.record(latency);
            if engine.trace_enabled() {
                engine.trace(EventKind::ServeRespond {
                    req: r.id,
                    latency_ns: latency.0,
                });
            }
            report.responses.push(Response {
                id: r.id,
                verdict: Verdict::Done(v),
                latency,
            });
        }
    }
    report.end = engine.now();
    report.stats = engine.stats().delta(&stats0);
    report.trace = engine.take_trace();
    report.failover = engine.failover();
    report.log_ship = engine.log_ship();
    debug_assert_eq!(report.responses.len() as u64, report.offered);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::TrafficConfig;
    use crate::request::Op;
    use crate::shard::Shard;
    use gpm_workloads::{KvsParams, Mode};

    fn kvs_shard() -> Shard {
        Shard::new_kvs(KvsParams::quick(), Mode::Gpm).unwrap()
    }

    #[test]
    fn every_request_gets_a_response() {
        let reqs = TrafficConfig::quick(1).generate();
        let mut shard = kvs_shard();
        let r = serve_engine(
            &mut shard,
            &reqs,
            &BatchPolicy::default(),
            &FaultPlan::default(),
        )
        .unwrap();
        assert_eq!(r.offered, reqs.len() as u64);
        assert_eq!(r.completed + r.shed, r.offered);
        assert_eq!(r.responses.len() as u64, r.offered);
        assert_eq!(r.hist.count(), r.completed);
        assert!(r.end >= reqs.last().unwrap().arrival);
    }

    #[test]
    fn tiny_queue_sheds_explicitly() {
        let cfg = TrafficConfig {
            rate_ops_per_sec: 50.0e6, // far past a quick shard's capacity
            n_requests: 3_000,
            ..TrafficConfig::quick(2)
        };
        let policy = BatchPolicy {
            queue_cap: 64,
            max_batch: 64,
            ..BatchPolicy::default()
        };
        let mut shard = kvs_shard();
        let r = serve_engine(&mut shard, &cfg.generate(), &policy, &FaultPlan::default()).unwrap();
        assert!(r.shed > 0, "overload must shed");
        assert!(r.shed_rate() > 0.3, "shed rate {}", r.shed_rate());
        let overloaded = r
            .responses
            .iter()
            .filter(|resp| resp.verdict == Verdict::Overloaded)
            .count();
        assert_eq!(overloaded as u64, r.shed, "sheds are explicit verdicts");
    }

    #[test]
    fn linger_bounds_idle_latency() {
        // A trickle far below max_batch: only the linger timer fires.
        let reqs: Vec<Request> = (0..8)
            .map(|i| Request {
                class: 0,
                id: i,
                arrival: Ns::from_millis(i as f64),
                op: Op::Put {
                    key: 100 + i,
                    value: i,
                },
            })
            .collect();
        let policy = BatchPolicy {
            max_batch: 512,
            max_linger: Ns::from_micros(30.0),
            ..BatchPolicy::default()
        };
        let mut shard = kvs_shard();
        let r = serve_engine(&mut shard, &reqs, &policy, &FaultPlan::default()).unwrap();
        assert_eq!(r.completed, 8);
        // Every latency is at least the linger the head waited, and far
        // below the 1 ms inter-arrival gap.
        let p99 = r.hist.percentile(0.99);
        assert!(p99 >= policy.max_linger, "p99 {p99}");
        assert!(p99 < Ns::from_micros(500.0), "p99 {p99}");
    }

    #[test]
    fn fault_plan_retries_transparently() {
        let reqs = TrafficConfig {
            n_requests: 600,
            get_permille: 0,
            ..TrafficConfig::quick(8)
        }
        .generate();
        let faults = FaultPlan {
            crash_every: Some(4),
            crash_fuel: 50,
        };
        let mut shard = kvs_shard();
        let r = serve_engine(&mut shard, &reqs, &BatchPolicy::default(), &faults).unwrap();
        assert!(r.retries > 0, "fault plan must trigger retries");
        assert_eq!(
            r.completed + r.shed,
            r.offered,
            "no request lost to crashes"
        );
    }
}
