//! Per-tenant queues with deficit-round-robin window building.
//!
//! Each tenant owns one bounded FIFO. Windows are assembled by classic
//! deficit round-robin (Shreedhar/Varghese) with the *device cost model*
//! as the currency: every round, each tenant with eligible work earns a
//! quantum of device-seconds, and requests are drafted from its FIFO
//! while its deficit covers their modeled cost. A tenant flooding large
//! matrices therefore cannot starve a tenant sending small ones — both
//! drain at the same device-seconds rate, not the same request rate.
//!
//! The ring is insertion-ordered and the cursor persists across windows,
//! so scheduling is a pure function of the submission sequence — no
//! hashing, no wall clock (`clippy.toml` bans both).
//!
//! Deadline expiry is checked on every clock tick, so it must cost
//! nothing while nothing is due: the queues keep the earliest queued
//! deadline, and `expire` walks the FIFOs only once that deadline has
//! passed.

use std::collections::VecDeque;

use crate::request::{Op, Request};

struct Tenant<T> {
    id: u32,
    fifo: VecDeque<Request<T>>,
    deficit_s: f64,
}

/// All tenants' pending work plus the DRR state.
pub(crate) struct TenantQueues<T> {
    tenants: Vec<Tenant<T>>,
    cursor: usize,
    pending: usize,
    queued_cost_s: f64,
    /// Earliest `deadline_s` among queued requests (`+inf` if none).
    /// While `deadline_stale` it is only a lower bound: the request that
    /// held it left through `collect_window`, and the next `expire`
    /// recomputes it.
    earliest_deadline_s: f64,
    deadline_stale: bool,
}

impl<T> TenantQueues<T> {
    pub fn new() -> Self {
        Self {
            tenants: Vec::new(),
            cursor: 0,
            pending: 0,
            queued_cost_s: 0.0,
            earliest_deadline_s: f64::INFINITY,
            deadline_stale: false,
        }
    }

    /// Requests currently queued across all tenants.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Modeled device-seconds currently queued (the load-shedding
    /// signal).
    pub fn queued_cost_s(&self) -> f64 {
        self.queued_cost_s
    }

    /// Queue depth of one tenant (0 if never seen).
    pub fn depth(&self, tenant: u32) -> usize {
        self.tenants
            .iter()
            .find(|t| t.id == tenant)
            .map_or(0, |t| t.fifo.len())
    }

    /// Appends to the tenant's FIFO (creating the tenant on first use).
    pub fn enqueue(&mut self, req: Request<T>) {
        self.pending += 1;
        self.queued_cost_s += req.cost_s;
        if let Some(d) = req.deadline_s {
            self.earliest_deadline_s = self.earliest_deadline_s.min(d);
        }
        match self.tenants.iter_mut().find(|t| t.id == req.tenant) {
            Some(t) => t.fifo.push_back(req),
            None => self.tenants.push(Tenant {
                id: req.tenant,
                fifo: VecDeque::from([req]),
                deficit_s: 0.0,
            }),
        }
    }

    /// Earliest arrival among all queued requests, with its operation —
    /// the request whose `max_wait` deadline fires first. Per-tenant
    /// FIFOs are arrival-ordered, so only fronts need scanning.
    pub fn oldest(&self) -> Option<(f64, Op)> {
        self.tenants
            .iter()
            .filter_map(|t| t.fifo.front())
            .map(|r| (r.arrival_s, r.op))
            .min_by(|a, b| a.0.total_cmp(&b.0))
    }

    /// Removes and returns every request whose deadline has passed at
    /// `now_s` (timeout cancellation *before* dispatch: an expired
    /// request never costs device time), in ring order, then FIFO order.
    /// While the earliest queued deadline is known and not before `now_s`
    /// this touches no FIFO and allocates nothing; otherwise one walk
    /// removes the due requests in place and recomputes that deadline
    /// from the requests that stay.
    pub fn expire(&mut self, now_s: f64) -> Vec<Request<T>> {
        let mut out = Vec::new();
        if !self.deadline_stale && self.earliest_deadline_s >= now_s {
            return out;
        }
        let mut earliest = f64::INFINITY;
        for t in &mut self.tenants {
            let mut i = 0;
            while i < t.fifo.len() {
                match t.fifo[i].deadline_s {
                    Some(d) if d < now_s => {
                        let r = t.fifo.remove(i).expect("index checked");
                        self.pending -= 1;
                        self.queued_cost_s -= r.cost_s;
                        out.push(r);
                    }
                    Some(d) => {
                        earliest = earliest.min(d);
                        i += 1;
                    }
                    None => i += 1,
                }
            }
        }
        self.earliest_deadline_s = earliest;
        self.deadline_stale = false;
        out
    }

    /// Drafts up to `max_window` requests of operation `op` by deficit
    /// round-robin with the given quantum (device-seconds per tenant per
    /// round). Requests of the other operation keep their queue
    /// positions for a later window.
    pub fn collect_window(&mut self, op: Op, max_window: usize, quantum_s: f64) -> Vec<Request<T>> {
        let quantum_s = quantum_s.max(f64::MIN_POSITIVE);
        let mut picked = Vec::new();
        if self.tenants.is_empty() || max_window == 0 {
            return picked;
        }
        let n = self.tenants.len();
        loop {
            let mut any_eligible = false;
            for k in 0..n {
                let slot = (self.cursor + k) % n;
                let t = &mut self.tenants[slot];
                if !t.fifo.iter().any(|r| r.op == op) {
                    // Standard DRR: an empty (here: ineligible) queue
                    // does not bank credit.
                    t.deficit_s = 0.0;
                    continue;
                }
                any_eligible = true;
                t.deficit_s += quantum_s;
                // Draft in-order matching requests this deficit covers.
                let mut i = 0;
                while i < t.fifo.len() && picked.len() < max_window {
                    if t.fifo[i].op == op && t.fifo[i].cost_s <= t.deficit_s {
                        let r = t.fifo.remove(i).expect("index checked");
                        t.deficit_s -= r.cost_s;
                        self.pending -= 1;
                        self.queued_cost_s -= r.cost_s;
                        if r.deadline_s.is_some_and(|d| d <= self.earliest_deadline_s) {
                            self.deadline_stale = true;
                        }
                        picked.push(r);
                    } else if t.fifo[i].op == op {
                        break; // deficit exhausted for this tenant
                    } else {
                        i += 1; // other-op request holds its place
                    }
                }
                if picked.len() >= max_window {
                    // Resume the ring *after* the tenant just served.
                    self.cursor = (slot + 1) % n;
                    return picked;
                }
            }
            if !any_eligible {
                return picked;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, tenant: u32, op: Op, cost_s: f64, arrival_s: f64) -> Request<f64> {
        Request {
            id,
            tenant,
            op,
            n: 4,
            payload: Vec::new(),
            arrival_s,
            deadline_s: None,
            cost_s,
        }
    }

    #[test]
    fn drr_interleaves_tenants_by_cost_not_count() {
        let mut q = TenantQueues::new();
        // Tenant 0 floods 8 heavy requests; tenant 1 sends 8 light ones
        // (1/4 the cost). A cost-fair draft must take ~4 light per heavy.
        for i in 0..8 {
            q.enqueue(req(i, 0, Op::Potrf, 4.0, i as f64));
        }
        for i in 0..8 {
            q.enqueue(req(100 + i, 1, Op::Potrf, 1.0, i as f64));
        }
        let w = q.collect_window(Op::Potrf, 10, 4.0);
        assert_eq!(w.len(), 10);
        let heavy = w.iter().filter(|r| r.tenant == 0).count();
        let light = w.iter().filter(|r| r.tenant == 1).count();
        assert_eq!(
            (heavy, light),
            (2, 8),
            "4.0-quantum rounds: 1 heavy + 4 light each"
        );
        // Per-tenant FIFO order is preserved.
        let ids0: Vec<u64> = w.iter().filter(|r| r.tenant == 0).map(|r| r.id).collect();
        assert_eq!(ids0, vec![0, 1]);
    }

    #[test]
    fn other_op_requests_hold_their_place() {
        let mut q = TenantQueues::new();
        q.enqueue(req(0, 3, Op::Getrf, 1.0, 0.0));
        q.enqueue(req(1, 3, Op::Potrf, 1.0, 1.0));
        let w = q.collect_window(Op::Potrf, 8, 10.0);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].id, 1);
        assert_eq!(q.pending(), 1);
        assert_eq!(q.oldest().map(|(_, op)| op), Some(Op::Getrf));
    }

    #[test]
    fn expire_cancels_due_requests_only() {
        let mut q = TenantQueues::new();
        let mut a = req(0, 0, Op::Potrf, 1.0, 0.0);
        a.deadline_s = Some(5.0);
        let mut b = req(1, 0, Op::Potrf, 1.0, 1.0);
        b.deadline_s = Some(50.0);
        q.enqueue(a);
        q.enqueue(b);
        let dead = q.expire(10.0);
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].id, 0);
        assert_eq!(q.pending(), 1);
        assert!((q.queued_cost_s() - 1.0).abs() < 1e-12);
    }

    /// The rebuild-everything `expire` the deadline index replaced, kept
    /// as the oracle: every call drains each FIFO into a fresh one.
    fn expire_rebuild<T>(q: &mut TenantQueues<T>, now_s: f64) -> Vec<Request<T>> {
        let mut out = Vec::new();
        for t in &mut q.tenants {
            let mut kept = VecDeque::with_capacity(t.fifo.len());
            for r in t.fifo.drain(..) {
                if r.deadline_s.is_some_and(|d| d < now_s) {
                    q.pending -= 1;
                    q.queued_cost_s -= r.cost_s;
                    out.push(r);
                } else {
                    kept.push_back(r);
                }
            }
            t.fifo = kept;
        }
        out
    }

    /// Earliest queued deadline by a full scan (`+inf` if none).
    fn scanned_earliest<T>(q: &TenantQueues<T>) -> f64 {
        q.tenants
            .iter()
            .flat_map(|t| &t.fifo)
            .filter_map(|r| r.deadline_s)
            .fold(f64::INFINITY, f64::min)
    }

    fn ids(rs: &[Request<f64>]) -> Vec<u64> {
        rs.iter().map(|r| r.id).collect()
    }

    /// Seeded random `enqueue`/`expire`/`collect_window` sequences on the
    /// indexed queues and on the rebuild oracle: same returned requests
    /// in the same order, same `pending`, same `queued_cost_s` bits after
    /// every step, and an index that is exact unless marked stale.
    /// Times and deadlines sit on a 0.25 grid so `expire` often runs at
    /// exactly a queued deadline (not yet due: the cutoff is strict).
    #[test]
    fn deadline_index_matches_rebuild_oracle() {
        use rand::Rng;
        use vbatch_dense::gen::seeded_rng;

        let (mut ties, mut early_collects, mut expired) = (0, 0, 0);
        for seed in 0..48 {
            let mut rng = seeded_rng(seed);
            let tenants = rng.gen_range(1..=24u32);
            let mut fast = TenantQueues::new();
            let mut oracle = TenantQueues::new();
            let mut now_s = 0.0f64;
            for id in 0..300u64 {
                let op = if rng.gen_range(0..2u32) == 0 {
                    Op::Potrf
                } else {
                    Op::Getrf
                };
                match rng.gen_range(0..10u32) {
                    0..=4 => {
                        let mut r = req(id, rng.gen_range(0..tenants), op, 0.0, now_s);
                        r.cost_s = rng.gen_range(1e-7..1e-4);
                        if rng.gen_range(0..2u32) == 0 {
                            r.deadline_s = Some(now_s + 0.25 * f64::from(rng.gen_range(0..8u32)));
                        }
                        fast.enqueue(r.clone());
                        oracle.enqueue(r);
                    }
                    5..=7 => {
                        now_s += 0.25 * f64::from(rng.gen_range(0..3u32));
                        let queued = oracle.tenants.iter().flat_map(|t| &t.fifo);
                        if queued.filter_map(|r| r.deadline_s).any(|d| d == now_s) {
                            ties += 1;
                        }
                        let got = fast.expire(now_s);
                        let want = expire_rebuild(&mut oracle, now_s);
                        assert_eq!(ids(&got), ids(&want), "seed {seed} step {id}: expire");
                        expired += want.len();
                    }
                    _ => {
                        let earliest = scanned_earliest(&oracle);
                        let max_window = rng.gen_range(1..8usize);
                        let quantum_s = rng.gen_range(1e-6..2e-4);
                        let got = fast.collect_window(op, max_window, quantum_s);
                        let want = oracle.collect_window(op, max_window, quantum_s);
                        assert_eq!(ids(&got), ids(&want), "seed {seed} step {id}: collect");
                        if want.iter().any(|r| r.deadline_s == Some(earliest)) {
                            early_collects += 1;
                        }
                    }
                }
                assert_eq!(fast.pending(), oracle.pending(), "seed {seed} step {id}");
                assert_eq!(
                    fast.queued_cost_s().to_bits(),
                    oracle.queued_cost_s().to_bits(),
                    "seed {seed} step {id}: queued_cost_s"
                );
                let earliest = scanned_earliest(&oracle);
                if fast.deadline_stale {
                    assert!(
                        fast.earliest_deadline_s <= earliest,
                        "seed {seed} step {id}"
                    );
                } else {
                    assert_eq!(
                        fast.earliest_deadline_s.to_bits(),
                        earliest.to_bits(),
                        "seed {seed} step {id}: earliest deadline"
                    );
                }
            }
        }
        // The sequences reached every case the index has to get right.
        assert!(ties > 0 && early_collects > 0 && expired > 0);
    }

    #[test]
    fn oversized_request_accumulates_deficit_and_eventually_runs() {
        let mut q = TenantQueues::new();
        q.enqueue(req(0, 0, Op::Potrf, 10.0, 0.0));
        // Quantum far below the request cost: multiple DRR rounds bank
        // credit until the draft covers it — no livelock.
        let w = q.collect_window(Op::Potrf, 1, 0.5);
        assert_eq!(w.len(), 1);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn cursor_rotates_between_windows() {
        let mut q = TenantQueues::new();
        for t in 0..3u32 {
            for i in 0..2 {
                q.enqueue(req(u64::from(t) * 10 + i, t, Op::Potrf, 1.0, 0.0));
            }
        }
        let w1 = q.collect_window(Op::Potrf, 2, 1.0);
        let w2 = q.collect_window(Op::Potrf, 2, 1.0);
        let w3 = q.collect_window(Op::Potrf, 2, 1.0);
        let mut tenants_first: Vec<u32> = w1.iter().map(|r| r.tenant).collect();
        tenants_first.extend(w2.iter().map(|r| r.tenant));
        tenants_first.extend(w3.iter().map(|r| r.tenant));
        // Every tenant drains fully and no tenant is served twice before
        // the ring wraps.
        assert_eq!(tenants_first, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(q.pending(), 0);
    }
}
