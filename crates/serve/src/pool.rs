//! The bounded worker pool: a FIFO admission queue with a hard depth
//! cap, explicit `Overloaded` rejections, and per-request queue-wait /
//! service-time measurement.
//!
//! Backpressure is structural: [`Queue::submit`] never blocks and never
//! buffers beyond the configured depth — when the queue is full the
//! request is rejected *immediately* and the caller answers
//! [`Response::Overloaded`]. Connection handlers therefore cannot pile
//! unbounded work onto a slow server; clients see the rejection and can
//! retry.

use crate::api::{Request, Response};
use crate::poll::Waker;
use crate::service::Handler;
use crate::stats::ServeStats;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// A one-shot response slot. The submitter polls it with
/// [`ResponseSlot::try_take`]; filling it pokes the submitter's readiness
/// loop through its [`Waker`].
pub struct ResponseSlot {
    state: Mutex<Option<Response>>,
    /// Poked on `fill` so a readiness loop parked in `Poller::wait`
    /// learns the response is ready.
    waker: Arc<Waker>,
}

impl std::fmt::Debug for ResponseSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseSlot")
            .field("filled", &self.state.lock().expect("slot state").is_some())
            .finish()
    }
}

impl ResponseSlot {
    /// An empty slot that pokes `waker` when filled.
    pub fn with_waker(waker: Arc<Waker>) -> Arc<ResponseSlot> {
        Arc::new(ResponseSlot {
            state: Mutex::new(None),
            waker,
        })
    }

    /// Publish the response and wake the submitter.
    pub fn fill(&self, response: Response) {
        *self.state.lock().expect("slot state") = Some(response);
        self.waker.wake();
    }

    /// Non-blocking check; returns the response once filled.
    pub fn try_take(&self) -> Option<Response> {
        self.state.lock().expect("slot state").take()
    }
}

struct Job {
    request: Request,
    enqueued: Instant,
    /// Trace identity minted at admission — the queue is the single
    /// admission point shared by the wire and HTTP drivers, so every
    /// pooled request gets one.
    ctx: hft_obs::TraceContext,
    slot: Arc<ResponseSlot>,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    open: bool,
}

/// The bounded FIFO admission queue.
pub struct Queue {
    inner: Mutex<QueueInner>,
    not_empty: Condvar,
    depth: usize,
}

/// Why a submission was not admitted.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at its depth cap.
    Overloaded,
    /// The queue has been closed (server shutting down).
    Closed,
}

impl Queue {
    /// A queue admitting at most `depth` waiting requests.
    pub fn new(depth: usize) -> Queue {
        Queue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                open: true,
            }),
            not_empty: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// Admit a request. Returns the slot the response will land in
    /// (filling it pokes `waker`), or an immediate rejection — never
    /// blocks, never over-buffers.
    pub fn submit(
        &self,
        request: Request,
        stats: &ServeStats,
        waker: Arc<Waker>,
    ) -> Result<Arc<ResponseSlot>, SubmitError> {
        let mut inner = self.inner.lock().expect("queue");
        if !inner.open {
            return Err(SubmitError::Closed);
        }
        if inner.jobs.len() >= self.depth {
            stats.on_overloaded();
            return Err(SubmitError::Overloaded);
        }
        let slot = ResponseSlot::with_waker(waker);
        inner.jobs.push_back(Job {
            request,
            enqueued: Instant::now(),
            ctx: hft_obs::TraceContext::mint(),
            slot: Arc::clone(&slot),
        });
        stats.on_accepted(inner.jobs.len());
        drop(inner);
        self.not_empty.notify_one();
        Ok(slot)
    }

    /// Close the queue: pending jobs still drain, new submissions fail.
    pub fn close(&self) {
        self.inner.lock().expect("queue").open = false;
        self.not_empty.notify_all();
    }

    fn next_job(&self) -> Option<Job> {
        let mut inner = self.inner.lock().expect("queue");
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if !inner.open {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue wait");
        }
    }

    /// A worker loop: drain jobs until the queue closes and empties.
    /// Run one of these per pool worker (typically on a scoped thread).
    ///
    /// A handler panic is caught here and answered as a structured
    /// error, so it costs neither the worker nor the connection waiting
    /// on the slot in request order.
    pub fn worker<H: Handler>(&self, handler: &H) {
        while let Some(job) = self.next_job() {
            let stats = handler.serve_stats();
            let wait_ns = job.enqueued.elapsed().as_nanos() as u64;
            stats.on_queue_wait(wait_ns);
            let started = Instant::now();
            let response = {
                // Root of each request's span tree, backdated to the
                // enqueue instant so queue wait is inside the window;
                // closing it files the tree into the flight recorder
                // when it was head-sampled or slow.
                let _span =
                    hft_obs::trace_root("serve.request", job.request.kind(), job.ctx, job.enqueued);
                hft_obs::annotate("queue.wait", 0, wait_ns);
                answer(handler, &job.request)
            };
            stats.on_service(started.elapsed().as_nanos() as u64);
            stats.on_completed(matches!(response, Response::Error { .. }));
            job.slot.fill(response);
        }
    }
}

/// Answer `request` on the calling thread. A handler panic is caught
/// and answered as a structured error, so it unwinds no further than
/// the request that caused it.
pub(crate) fn answer<H: Handler + ?Sized>(handler: &H, request: &Request) -> Response {
    panic::catch_unwind(AssertUnwindSafe(|| handler.handle(request))).unwrap_or_else(|_| {
        Response::Error {
            message: "internal error: handler panicked".into(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Service;
    use hft_uls::UlsDatabase;

    fn waker() -> Arc<Waker> {
        Arc::new(Waker::new().unwrap())
    }

    #[test]
    fn overload_rejection_when_no_worker_drains() {
        let db = UlsDatabase::new();
        let service = Service::new(&db);
        let queue = Queue::new(2);
        let waker = waker();
        let req = Request::SiteSearch {
            service: "MG".into(),
            class: "FXO".into(),
        };
        let submit = || queue.submit(req.clone(), service.stats(), Arc::clone(&waker));
        assert!(submit().is_ok());
        assert!(submit().is_ok());
        assert_eq!(
            submit().unwrap_err(),
            SubmitError::Overloaded,
            "third submission must bounce off the depth-2 queue"
        );
        let snap = service.stats().snapshot();
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.rejected_overloaded, 1);
        assert_eq!(snap.queue_high_water, 2);
    }

    #[test]
    fn worker_drains_fifo_and_measures() {
        let db = UlsDatabase::new();
        let service = Service::new(&db);
        let queue = Queue::new(16);
        let waker = waker();
        let slots: Vec<_> = (0..5)
            .map(|_| {
                queue
                    .submit(
                        Request::SiteSearch {
                            service: "MG".into(),
                            class: "FXO".into(),
                        },
                        service.stats(),
                        Arc::clone(&waker),
                    )
                    .unwrap()
            })
            .collect();
        queue.close();
        queue.worker(&service); // drains everything, then returns
        for slot in slots {
            assert_eq!(slot.try_take(), Some(Response::Licenses { ids: vec![] }));
        }
        let snap = service.stats().snapshot();
        assert_eq!(snap.completed, 5);
        assert_eq!(snap.errors, 0);
        assert!(snap.service_ns_total > 0);
    }

    #[test]
    fn closed_queue_rejects_submissions() {
        let db = UlsDatabase::new();
        let service = Service::new(&db);
        let queue = Queue::new(4);
        queue.close();
        assert_eq!(
            queue
                .submit(Request::Stats, service.stats(), waker())
                .unwrap_err(),
            SubmitError::Closed
        );
    }
}
