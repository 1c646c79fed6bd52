//! Threaded ingestion front: many concurrent clients, one dispatcher.
//!
//! [`BatchService`] is single-threaded by design (its determinism
//! contract is a total order over submissions). This module provides the
//! concurrency shell around it: a [`ServeExecutor`] owns one dispatcher
//! thread that holds the service (and therefore the
//! [`Device`](vbatch_gpu_sim::Device)), and hands out cloneable
//! [`ClientHandle`]s whose `submit` is safe to call from any number of
//! client threads.
//!
//! The mailbox is a `Mutex<VecDeque>` + `Condvar` pair — no channels, no
//! async runtime — so the dispatcher imposes a single arrival order on
//! racing clients and then replays it through the deterministic service.
//! Two runs with the same *arrival order* are bit-identical; when client
//! threads race, the interleaving picks the order, which is exactly why
//! the soak harness drives the service directly and uses this executor
//! only for liveness/robustness coverage.
//!
//! ## Threading audit (VBA202 waivers below)
//!
//! The repo routes host parallelism through `gpu_sim::workers::WorkerPool`;
//! this module is the one audited exception, because the dispatcher is
//! not a data-parallel worker: it is a long-lived *owner* thread (the
//! actor pattern) that must outlive any one call. The audit:
//!
//! * exactly one thread is created per executor, named, and stored —
//!   never detached;
//! * [`ServeExecutor::finish`] closes the mailbox, wakes the dispatcher,
//!   and joins it; `Drop` does the same for abandoned executors, so no
//!   executor can leak its thread;
//! * clients block only on their own reply slot; the dispatcher never
//!   blocks on a client, so there is no lock cycle (mailbox lock and
//!   reply locks are never held together by the same party);
//! * a client whose reply slot outlives a dispatcher panic gets
//!   [`Rejection::Invalid`] instead of hanging (poisoned-mutex paths
//!   resolve, never wedge).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use vbatch_dense::Scalar;

use crate::request::{Op, Rejection, RequestId, Response};
use crate::service::BatchService;
#[cfg(test)]
use crate::service::ServeConfig;

/// A submission envelope traveling client → dispatcher.
struct SubmitMsg<T> {
    t_s: f64,
    tenant: u32,
    op: Op,
    n: usize,
    payload: Vec<T>,
    deadline_s: Option<f64>,
    reply: Arc<ReplySlot>,
}

enum Msg<T> {
    Submit(SubmitMsg<T>),
    AdvanceTo(f64),
}

/// One-shot rendezvous for an admission verdict.
struct ReplySlot {
    verdict: Mutex<Option<Result<RequestId, Rejection>>>,
    ready: Condvar,
}

impl ReplySlot {
    fn new() -> Self {
        Self {
            verdict: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn deliver(&self, v: Result<RequestId, Rejection>) {
        let mut slot = self
            .verdict
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *slot = Some(v);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<RequestId, Rejection> {
        let mut slot = self
            .verdict
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(v) = slot.take() {
                return v;
            }
            slot = self
                .ready
                .wait(slot)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

struct MailboxState<T> {
    msgs: VecDeque<Msg<T>>,
    closed: bool,
}

struct Mailbox<T> {
    state: Mutex<MailboxState<T>>,
    arrived: Condvar,
}

impl<T> Mailbox<T> {
    fn push(&self, m: Msg<T>) -> bool {
        let mut st = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if st.closed {
            return false;
        }
        st.msgs.push_back(m);
        self.arrived.notify_one();
        true
    }
}

/// Cloneable client-side handle: `submit` from any thread.
pub struct ClientHandle<T> {
    inbox: Arc<Mailbox<T>>,
}

impl<T> Clone for ClientHandle<T> {
    fn clone(&self) -> Self {
        Self {
            inbox: Arc::clone(&self.inbox),
        }
    }
}

impl<T: Scalar> ClientHandle<T> {
    /// Submits one request through the dispatcher and blocks for the
    /// admission verdict (acceptance or a typed [`Rejection`]); the
    /// factor itself is collected later via [`ServeExecutor::finish`].
    ///
    /// # Errors
    /// The service's typed [`Rejection`]s, plus `Invalid("executor shut
    /// down")` if the dispatcher is gone — a late client is refused,
    /// never wedged.
    pub fn submit(
        &self,
        t_s: f64,
        tenant: u32,
        op: Op,
        n: usize,
        payload: Vec<T>,
        deadline_s: Option<f64>,
    ) -> Result<RequestId, Rejection> {
        let reply = Arc::new(ReplySlot::new());
        let sent = self.inbox.push(Msg::Submit(SubmitMsg {
            t_s,
            tenant,
            op,
            n,
            payload,
            deadline_s,
            reply: Arc::clone(&reply),
        }));
        if !sent {
            return Err(Rejection::Invalid("executor shut down"));
        }
        reply.wait()
    }

    /// Forwards an arrival-clock advance (fires due windows).
    pub fn advance_to(&self, t_s: f64) {
        let _ = self.inbox.push(Msg::AdvanceTo(t_s));
    }
}

/// What the dispatcher thread hands back when it drains and exits: the
/// service (for stats/memory assertions) plus every terminal response.
type Drained<T> = (BatchService<T>, Vec<Response<T>>);

/// Owns the dispatcher thread and, through it, the [`BatchService`].
pub struct ServeExecutor<T: Scalar> {
    inbox: Arc<Mailbox<T>>,
    dispatcher: Option<thread::JoinHandle<Drained<T>>>,
}

impl<T: Scalar> ServeExecutor<T> {
    /// Spawns the dispatcher thread around `service`.
    ///
    /// # Panics
    /// Only if the OS refuses to spawn a thread.
    #[must_use]
    pub fn start(service: BatchService<T>) -> Self {
        let inbox = Arc::new(Mailbox {
            state: Mutex::new(MailboxState {
                msgs: VecDeque::new(),
                closed: false,
            }),
            arrived: Condvar::new(),
        });
        let rx = Arc::clone(&inbox);
        // analyze:allow(VBA202): single audited owner thread (actor pattern), named, joined in finish()/Drop — see the module-level threading audit
        let dispatcher = thread::Builder::new()
            .name("vbatch-serve-dispatch".into())
            .spawn(move || dispatch_loop(&rx, service))
            .expect("spawn vbatch-serve dispatcher");
        Self {
            inbox,
            dispatcher: Some(dispatcher),
        }
    }

    /// A new client-side handle.
    #[must_use]
    pub fn handle(&self) -> ClientHandle<T> {
        ClientHandle {
            inbox: Arc::clone(&self.inbox),
        }
    }

    /// Closes admission, drains every pending window, joins the
    /// dispatcher, and returns the service (for stats/memory
    /// assertions) together with every terminal [`Response`].
    ///
    /// # Panics
    /// Propagates a dispatcher-thread panic (the service itself never
    /// panics on refusals, faults, or overload — a panic here is a bug).
    #[must_use]
    pub fn finish(mut self) -> Drained<T> {
        self.close();
        let handle = self
            .dispatcher
            .take()
            .expect("finish() consumes self; the handle is present");
        match handle.join() {
            Ok(out) => out,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    fn close(&self) {
        let mut st = self
            .inbox
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        st.closed = true;
        self.inbox.arrived.notify_all();
    }
}

impl<T: Scalar> Drop for ServeExecutor<T> {
    fn drop(&mut self) {
        // An executor abandoned without finish() still closes the
        // mailbox and joins — the dispatcher thread can never leak.
        self.close();
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

/// The dispatcher body: pop messages in mailbox order, feed the
/// service, answer admission verdicts; on close, drain and hand the
/// service back.
fn dispatch_loop<T: Scalar>(inbox: &Mailbox<T>, mut service: BatchService<T>) -> Drained<T> {
    loop {
        let msg = {
            let mut st = inbox
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if let Some(m) = st.msgs.pop_front() {
                    break Some(m);
                }
                if st.closed {
                    break None;
                }
                st = inbox
                    .arrived
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        match msg {
            Some(Msg::Submit(m)) => {
                let verdict = service.submit(m.t_s, m.tenant, m.op, m.n, m.payload, m.deadline_s);
                m.reply.deliver(verdict);
            }
            Some(Msg::AdvanceTo(t)) => service.advance_to(t),
            None => break,
        }
    }
    service.drain();
    let responses = service.take_responses();
    (service, responses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ResponseStatus;
    use vbatch_dense::gen::{seeded_rng, spd_vec};
    use vbatch_gpu_sim::Device;

    fn executor(cfg: ServeConfig) -> ServeExecutor<f64> {
        let dev = Device::new(cfg.device.clone());
        ServeExecutor::start(BatchService::new(dev, cfg))
    }

    #[test]
    fn concurrent_clients_all_get_verdicts_and_factors() {
        let exec = executor(ServeConfig {
            max_window: 16,
            max_wait_s: 1e-3,
            shed_cost_s: 1e9,
            ..Default::default()
        });
        let threads: Vec<_> = (0..8u64)
            .map(|c| {
                let h = exec.handle();
                thread::spawn(move || {
                    let n = 8 + (c as usize % 3) * 4;
                    let m = spd_vec::<f64>(&mut seeded_rng(c), n);
                    h.submit(0.0, (c % 4) as u32, Op::Potrf, n, m, None)
                })
            })
            .collect();
        let mut ids = Vec::new();
        for t in threads {
            ids.push(t.join().unwrap().expect("accepted"));
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8, "every client got a distinct id");
        let (svc, responses) = exec.finish();
        assert_eq!(responses.len(), 8);
        assert!(responses
            .iter()
            .all(|r| r.status == ResponseStatus::Factored && r.info == 0));
        assert_eq!(svc.stats().completed, 8);
    }

    #[test]
    fn late_submit_after_finish_is_refused_not_wedged() {
        let exec = executor(ServeConfig::default());
        let h = exec.handle();
        let (_, responses) = exec.finish();
        assert!(responses.is_empty());
        let m = spd_vec::<f64>(&mut seeded_rng(1), 8);
        assert!(matches!(
            h.submit(0.0, 0, Op::Potrf, 8, m, None),
            Err(Rejection::Invalid(_))
        ));
    }

    #[test]
    fn drop_without_finish_joins_the_dispatcher() {
        let exec = executor(ServeConfig::default());
        let h = exec.handle();
        let m = spd_vec::<f64>(&mut seeded_rng(2), 8);
        h.submit(0.0, 0, Op::Potrf, 8, m, None).unwrap();
        drop(exec); // must not hang or leak the thread
        assert!(matches!(
            h.submit(1.0, 0, Op::Potrf, 8, vec![0.0; 64], None),
            Err(Rejection::Invalid(_))
        ));
    }
}
