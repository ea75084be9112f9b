//! Serving-layer observability: atomic counters aggregated across
//! connection handlers, pool workers and the query engine, with a
//! consistent-enough snapshot for the `stats` request and the shutdown
//! dump.

use crate::json::Json;
use hft_obs::{Counter, Gauge, Histogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Atomic counters of the serving layer. One instance per server,
/// shared by every connection handler and pool worker.
///
/// Every event is dual-written: once into the per-server atomics below
/// (so each server's `stats` answer stays its own), and once into the
/// process-global `hft_obs` registry (so the `metrics` request and the
/// periodic dump see serving alongside session/ingest telemetry). Both
/// writes are relaxed atomic ops; the registry handles are resolved
/// once at construction.
#[derive(Debug, Default)]
pub struct ServeStats {
    received: AtomicU64,
    accepted: AtomicU64,
    rejected_overloaded: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    flights_led: AtomicU64,
    flights_coalesced: AtomicU64,
    queue_wait_ns_total: AtomicU64,
    queue_wait_ns_max: AtomicU64,
    service_ns_total: AtomicU64,
    service_ns_max: AtomicU64,
    queue_high_water: AtomicU64,
    generation_swaps: AtomicU64,
    reg: ServeRegistry,
}

/// Cached global-registry handles for the `serve.*` metric family.
#[derive(Debug)]
struct ServeRegistry {
    received: Arc<Counter>,
    accepted: Arc<Counter>,
    rejected_overloaded: Arc<Counter>,
    completed: Arc<Counter>,
    errors: Arc<Counter>,
    flights_led: Arc<Counter>,
    flights_coalesced: Arc<Counter>,
    generation_swaps: Arc<Counter>,
    queue_high_water: Arc<Gauge>,
    queue_wait_ns: Arc<Histogram>,
    service_ns: Arc<Histogram>,
}

impl Default for ServeRegistry {
    fn default() -> ServeRegistry {
        ServeRegistry::with_shard(None)
    }
}

impl ServeRegistry {
    /// Resolve the `serve.*` handles, suffixed with a `shard` label when
    /// the stats belong to one fleet shard worker.
    fn with_shard(shard: Option<u32>) -> ServeRegistry {
        let r = hft_obs::global();
        let name = |base: &str| match shard {
            None => base.to_string(),
            Some(k) => hft_obs::registry::labeled(base, "shard", &k.to_string()),
        };
        ServeRegistry {
            received: r.counter(&name("serve.received")),
            accepted: r.counter(&name("serve.accepted")),
            rejected_overloaded: r.counter(&name("serve.rejected_overloaded")),
            completed: r.counter(&name("serve.completed")),
            errors: r.counter(&name("serve.errors")),
            flights_led: r.counter(&name("serve.flights_led")),
            flights_coalesced: r.counter(&name("serve.flights_coalesced")),
            generation_swaps: r.counter(&name("serve.generation_swaps")),
            queue_high_water: r.gauge(&name("serve.queue_high_water")),
            queue_wait_ns: r.histogram(&name("serve.queue_wait_ns")),
            service_ns: r.histogram(&name("serve.service_ns")),
        }
    }
}

impl ServeStats {
    /// Stats for one fleet shard worker: the per-server atomics behave
    /// exactly like [`ServeStats::default`], but every dual-written
    /// registry series carries a `shard` label, so shard hot spots are
    /// visible in the process-wide exposition.
    pub fn for_shard(shard: u32) -> ServeStats {
        ServeStats {
            reg: ServeRegistry::with_shard(Some(shard)),
            ..ServeStats::default()
        }
    }

    /// A request arrived (any kind, before admission).
    pub fn on_received(&self) {
        self.received.fetch_add(1, Ordering::Relaxed);
        self.reg.received.incr();
    }

    /// A request was admitted to the queue; `depth` is the queue length
    /// just after the push (tracks the high-water mark).
    pub fn on_accepted(&self, depth: usize) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.queue_high_water
            .fetch_max(depth as u64, Ordering::Relaxed);
        self.reg.accepted.incr();
        self.reg.queue_high_water.record_max(depth as i64);
    }

    /// A request was rejected because the admission queue was full.
    pub fn on_overloaded(&self) {
        self.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
        self.reg.rejected_overloaded.incr();
    }

    /// A request finished; `error` marks protocol-level error answers.
    pub fn on_completed(&self, error: bool) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.reg.completed.incr();
        if error {
            self.errors.fetch_add(1, Ordering::Relaxed);
            self.reg.errors.incr();
        }
    }

    /// A request was answered without waiting on another request's
    /// memo fill.
    pub fn on_flight_led(&self) {
        self.flights_led.fetch_add(1, Ordering::Relaxed);
        self.reg.flights_led.incr();
    }

    /// A request waited on a memo cell another request was filling,
    /// and shared its result.
    pub fn on_flight_coalesced(&self) {
        self.flights_coalesced.fetch_add(1, Ordering::Relaxed);
        self.reg.flights_coalesced.incr();
    }

    /// Record how long a request sat in the admission queue.
    pub fn on_queue_wait(&self, ns: u64) {
        self.queue_wait_ns_total.fetch_add(ns, Ordering::Relaxed);
        self.queue_wait_ns_max.fetch_max(ns, Ordering::Relaxed);
        self.reg.queue_wait_ns.record(ns);
    }

    /// Record a request's service (compute + coalesce-wait) time.
    pub fn on_service(&self, ns: u64) {
        self.service_ns_total.fetch_add(ns, Ordering::Relaxed);
        self.service_ns_max.fetch_max(ns, Ordering::Relaxed);
        self.reg.service_ns.record(ns);
    }

    /// A live server swapped to a newly published corpus generation.
    pub fn on_generation_swap(&self) {
        self.generation_swaps.fetch_add(1, Ordering::Relaxed);
        self.reg.generation_swaps.incr();
    }

    /// Copy the counters.
    pub fn snapshot(&self) -> ServeSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServeSnapshot {
            received: load(&self.received),
            accepted: load(&self.accepted),
            rejected_overloaded: load(&self.rejected_overloaded),
            completed: load(&self.completed),
            errors: load(&self.errors),
            flights_led: load(&self.flights_led),
            flights_coalesced: load(&self.flights_coalesced),
            queue_wait_ns_total: load(&self.queue_wait_ns_total),
            queue_wait_ns_max: load(&self.queue_wait_ns_max),
            service_ns_total: load(&self.service_ns_total),
            service_ns_max: load(&self.service_ns_max),
            queue_high_water: load(&self.queue_high_water),
            generation_swaps: load(&self.generation_swaps),
        }
    }
}

/// A point-in-time copy of [`ServeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSnapshot {
    /// Requests that reached the server (any kind).
    pub received: u64,
    /// Requests admitted to the worker queue.
    pub accepted: u64,
    /// Requests rejected with `Overloaded` (queue full).
    pub rejected_overloaded: u64,
    /// Requests that produced a response (including errors).
    pub completed: u64,
    /// Responses that were protocol errors.
    pub errors: u64,
    /// Non-telemetry requests that waited on no other request's memo
    /// fill (leaders).
    pub flights_led: u64,
    /// Requests that waited on a memo cell another request was filling
    /// instead of recomputing.
    pub flights_coalesced: u64,
    /// Total nanoseconds requests spent queued.
    pub queue_wait_ns_total: u64,
    /// Worst single queue wait, ns.
    pub queue_wait_ns_max: u64,
    /// Total nanoseconds spent serving (compute or coalesce-wait).
    pub service_ns_total: u64,
    /// Worst single service time, ns.
    pub service_ns_max: u64,
    /// Deepest the admission queue ever got.
    pub queue_high_water: u64,
    /// Corpus generation swaps performed by a live server (0 for a
    /// fixed-corpus server).
    pub generation_swaps: u64,
}

impl ServeSnapshot {
    /// Mean queue wait in microseconds (0 when nothing completed).
    pub fn mean_queue_wait_us(&self) -> f64 {
        if self.accepted == 0 {
            0.0
        } else {
            self.queue_wait_ns_total as f64 / self.accepted as f64 / 1000.0
        }
    }

    /// Mean service time in microseconds (0 when nothing completed).
    pub fn mean_service_us(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.service_ns_total as f64 / self.completed as f64 / 1000.0
        }
    }

    /// The JSON object form used by the `stats` response and the
    /// shutdown dump. Key order is fixed.
    pub fn to_json(&self) -> Json {
        crate::codec::Field::to_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_through_json() {
        let stats = ServeStats::default();
        stats.on_received();
        stats.on_received();
        stats.on_accepted(1);
        stats.on_accepted(3);
        stats.on_overloaded();
        stats.on_completed(false);
        stats.on_completed(true);
        stats.on_flight_led();
        stats.on_flight_coalesced();
        stats.on_queue_wait(1_000);
        stats.on_queue_wait(5_000);
        stats.on_service(20_000);
        let snap = stats.snapshot();
        assert_eq!(snap.received, 2);
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.rejected_overloaded, 1);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.queue_high_water, 3);
        assert_eq!(snap.queue_wait_ns_max, 5_000);
        assert_eq!(snap.mean_queue_wait_us(), 3.0);
        assert_eq!(snap.mean_service_us(), 10.0);
        let back: ServeSnapshot =
            crate::codec::Field::from_json(Some(&snap.to_json()), "serve").unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn shard_stats_dual_write_labeled_series() {
        let stats = ServeStats::for_shard(7);
        stats.on_received();
        stats.on_completed(false);
        stats.on_service(1_234);
        stats.on_flight_led();
        let snap = hft_obs::global().snapshot();
        let labeled = |base: &str| hft_obs::registry::labeled(base, "shard", "7");
        // The global registry is shared across the test binary, so
        // assert at-least rather than exactly.
        assert!(snap.counter(&labeled("serve.received")).unwrap_or(0) >= 1);
        assert!(snap.counter(&labeled("serve.completed")).unwrap_or(0) >= 1);
        assert!(snap.counter(&labeled("serve.flights_led")).unwrap_or(0) >= 1);
        let hist = snap.histogram(&labeled("serve.service_ns")).unwrap();
        assert!(hist.count >= 1);
        // The per-server atomics are unaffected by labeling.
        assert_eq!(stats.snapshot().received, 1);
    }
}
