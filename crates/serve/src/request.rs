//! Client requests and their outcomes.
//!
//! A [`Request`] is what the open-loop arrival process emits: an operation
//! plus the simulated instant the client issued it. A [`Response`] is what
//! the serving stack owes back for every single request — either the
//! operation completed (with its end-to-end latency and, for GETs, the
//! value read), or the shard's admission queue was full and the request was
//! shed with an explicit [`Verdict::Overloaded`]. Nothing is ever silently
//! dropped: `responses.len() == requests.len()` is an invariant the tests
//! pin.

use std::collections::HashMap;

use gpm_sim::{Ns, SimError, SimResult};

/// Monotone client-assigned request identifier (also the tiebreaker that
/// keeps per-shard streams deterministic).
pub type RequestId = u64;

/// The operation a request carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// gpKVS SET: durably store `value` under `key`.
    Put {
        /// Key to store under.
        key: u64,
        /// Value to store.
        value: u64,
    },
    /// gpKVS GET: read the value under `key` from the HBM mirror.
    Get {
        /// Key to look up.
        key: u64,
    },
    /// gpDB INSERT: durably append `rows` rows to the shard's table.
    Insert {
        /// Rows this request appends.
        rows: u64,
    },
    /// gpAnalytics behavioral event: fold one user event into the shard's
    /// persistent session store (and journal it).
    Event {
        /// User identifier (`1..`; 0 is the session-store sentinel).
        user: u64,
        /// Event type.
        etype: u32,
        /// Client-side timestamp in ticks (monotone per user).
        ts: u64,
    },
    /// A slow-poison gpKVS write: one request that expands to `work`
    /// dependent SETs inside the kernel batch (a multi-key transaction, or
    /// an adversarially large value chunked into slots). It occupies
    /// `work` batch slots, so a few of these starve the batch budget the
    /// way a slow request starves a real server thread.
    HeavyPut {
        /// Base key; the expansion derives `work` keys from it.
        key: u64,
        /// Base value.
        value: u64,
        /// Batch slots (SETs) this request expands to (≥ 1).
        work: u32,
    },
}

impl Op {
    /// The 64-bit routing key the shard router hashes. KVS operations
    /// route by key (all operations on a key land on one shard, so reads
    /// observe that shard's writes); events route by user (a user's
    /// session state lives on exactly one shard, which keeps the per-user
    /// fold timestamp-ordered); INSERTs are append-only and spread by
    /// request id.
    pub fn route_key(&self, id: RequestId) -> u64 {
        match *self {
            Op::Put { key, .. } | Op::Get { key } | Op::HeavyPut { key, .. } => key,
            Op::Insert { .. } => id,
            Op::Event { user, .. } => user,
        }
    }

    /// Whether this is a read (GET) operation.
    pub fn is_get(&self) -> bool {
        matches!(self, Op::Get { .. })
    }

    /// Batch slots this operation occupies in a kernel launch. Everything
    /// is 1 except [`Op::HeavyPut`], which expands to `work` SETs; the
    /// scheduler budgets batches by summed weight so a poisoned stream
    /// cannot overflow the shard's op buffers.
    pub fn weight(&self) -> u64 {
        match *self {
            Op::HeavyPut { work, .. } => work.max(1) as u64,
            _ => 1,
        }
    }

    /// The derived keys a [`Op::HeavyPut`] expands to (deterministic in
    /// the base key). The shard's kernel path and the host-side
    /// consistency oracle both use this single definition, so neither can
    /// drift.
    pub fn heavy_expansion(key: u64, value: u64, work: u32) -> impl Iterator<Item = (u64, u64)> {
        (0..work.max(1) as u64).map(move |i| {
            let k = if i == 0 {
                key
            } else {
                // Spread the chunk keys over the hash space; `| 1` keeps 0
                // reserved as the table's empty-slot marker.
                gpm_pmkv::hash64(key ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03)) | 1
            };
            (k, value.wrapping_add(i))
        })
    }
}

/// One client request: an operation issued at a simulated instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Client-assigned identifier.
    pub id: RequestId,
    /// The simulated instant the client issued the request.
    pub arrival: Ns,
    /// The operation.
    pub op: Op,
    /// Tenant class: 0 = standard, 1+ = premium. Premium requests keep
    /// the full admission queue (standard tenants shed earlier under
    /// [`priority_low_water`](crate::scheduler::BatchPolicy::priority_low_water))
    /// and are eligible for one hedged re-admission after a shed.
    pub class: u8,
}

/// The outcome of one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// The operation committed. GETs carry the value read; writes carry
    /// `None`.
    Done(Option<u64>),
    /// The shard's bounded admission queue was full at arrival: the
    /// request was shed without service (the explicit backpressure signal
    /// — never a silent drop).
    Overloaded,
}

/// The serving stack's answer for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Response {
    /// The request this answers.
    pub id: RequestId,
    /// Outcome.
    pub verdict: Verdict,
    /// End-to-end latency (arrival to batch commit). `Ns::ZERO` for shed
    /// requests — they never entered service.
    pub latency: Ns,
}

impl Response {
    /// Whether the request completed (was not shed).
    pub fn is_done(&self) -> bool {
        matches!(self.verdict, Verdict::Done(_))
    }
}

/// The `(key, value)` SETs a shard acknowledged, in response order (which
/// is apply order): each completed [`Op::Put`], and each completed
/// [`Op::HeavyPut`] expanded to its SETs. Responses come back in apply
/// order, not request order, so each is paired with its request by id.
///
/// # Errors
///
/// [`SimError::Invalid`] when a response answers an id that no request in
/// `requests` carries.
pub fn acked_sets(requests: &[Request], responses: &[Response]) -> SimResult<Vec<(u64, u64)>> {
    let by_id: HashMap<RequestId, &Op> = requests.iter().map(|r| (r.id, &r.op)).collect();
    let mut writes = Vec::new();
    for resp in responses {
        let op = by_id
            .get(&resp.id)
            .ok_or(SimError::Invalid("response to an unknown request id"))?;
        if !resp.is_done() {
            continue;
        }
        match **op {
            Op::Put { key, value } => writes.push((key, value)),
            Op::HeavyPut { key, value, work } => {
                writes.extend(Op::heavy_expansion(key, value, work));
            }
            _ => {}
        }
    }
    Ok(writes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_key_follows_the_key_for_kvs() {
        assert_eq!(Op::Put { key: 7, value: 1 }.route_key(99), 7);
        assert_eq!(Op::Get { key: 7 }.route_key(99), 7);
        assert_eq!(Op::Insert { rows: 4 }.route_key(99), 99);
        assert_eq!(
            Op::Event {
                user: 5,
                etype: 2,
                ts: 31,
            }
            .route_key(99),
            5,
            "a user's events pin to one shard"
        );
    }

    #[test]
    fn verdicts_classify() {
        let done = Response {
            id: 0,
            verdict: Verdict::Done(Some(3)),
            latency: Ns(10.0),
        };
        let shed = Response {
            id: 1,
            verdict: Verdict::Overloaded,
            latency: Ns::ZERO,
        };
        assert!(done.is_done());
        assert!(!shed.is_done());
        assert!(Op::Get { key: 1 }.is_get());
        assert!(!Op::Put { key: 1, value: 2 }.is_get());
    }

    fn req(id: RequestId, op: Op) -> Request {
        Request {
            id,
            arrival: Ns::ZERO,
            op,
            class: 0,
        }
    }

    fn resp(id: RequestId, verdict: Verdict) -> Response {
        Response {
            id,
            verdict,
            latency: Ns::ZERO,
        }
    }

    #[test]
    fn acked_sets_pair_by_id_in_response_order() {
        let reqs = [
            req(0, Op::Put { key: 10, value: 1 }),
            req(1, Op::Get { key: 10 }),
            req(2, Op::Put { key: 20, value: 2 }),
            req(
                3,
                Op::HeavyPut {
                    key: 30,
                    value: 3,
                    work: 2,
                },
            ),
            req(4, Op::Put { key: 40, value: 4 }),
        ];
        // Applied out of request order; request 4 was shed.
        let resps = [
            resp(2, Verdict::Done(None)),
            resp(4, Verdict::Overloaded),
            resp(1, Verdict::Done(Some(1))),
            resp(3, Verdict::Done(None)),
            resp(0, Verdict::Done(None)),
        ];
        let mut expect = vec![(20, 2)];
        expect.extend(Op::heavy_expansion(30, 3, 2));
        expect.push((10, 1));
        assert_eq!(acked_sets(&reqs, &resps).unwrap(), expect);
    }

    #[test]
    fn acked_sets_reject_an_unknown_id() {
        let reqs = [req(0, Op::Put { key: 10, value: 1 })];
        let resps = [resp(7, Verdict::Done(None))];
        assert!(acked_sets(&reqs, &resps).is_err());
    }
}
