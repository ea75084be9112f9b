//! Live serving over a mutating corpus: a [`Handler`] that follows a
//! [`SnapshotStore`] and swaps query engines as generations publish.
//!
//! The invariant that makes this safe is *one engine per corpus*: each
//! published corpus gets its own [`Service`] — fresh `AnalysisSession`
//! memoization caches, fresh single-flight group — built over a shared
//! handle to that corpus. Cache invalidation is therefore by
//! construction, not by bookkeeping: a network memoized against
//! generation *N*'s corpus lives in that corpus's engine, which no
//! request routed after a swap to a different corpus can reach.
//! Requests already inside the old engine finish against it — the
//! engine's session co-owns its corpus `Arc`, so the corpus stays alive
//! and consistent until the last in-flight query drops it.
//!
//! A generation that republishes the corpus `Arc` the engine already
//! reads (a fleet shard a dump batch left alone) is *relabelled*, not
//! rebuilt: the engine keeps its caches and answers for the new
//! generation number from then on. Relabels count in
//! `serve.generation_relabels`; `generation_swaps` counts rebuilds only.
//!
//! Staleness detection is a single atomic load
//! ([`SnapshotStore::generation`]) per request; the engine mutex is
//! taken only to clone the engine handle out (and, rarely, to rebuild
//! it), never while computing a response.

use crate::api::{Request, Response};
use crate::service::{Handler, Service};
use crate::stats::ServeStats;
use hft_ingest::SnapshotStore;
use std::sync::{Arc, Mutex};

/// A generation-following query engine. See the module docs.
pub struct LiveService {
    store: Arc<SnapshotStore>,
    engine: Mutex<Arc<Service<'static>>>,
    stats: Arc<ServeStats>,
    /// Registry handles, resolved once (labeled by shard when this
    /// service is one fleet shard's worker).
    swap_ns: Arc<hft_obs::Histogram>,
    relabels: Arc<hft_obs::Counter>,
    staleness_ms: Arc<hft_obs::Gauge>,
}

impl LiveService {
    /// A live service over `store`, starting from its current snapshot.
    pub fn new(store: Arc<SnapshotStore>) -> LiveService {
        LiveService::build(store, None)
    }

    /// A live service acting as fleet shard `shard`'s worker: identical
    /// behavior, but its serve counters and swap/staleness series carry
    /// a `shard` label in the global registry.
    pub fn for_shard(store: Arc<SnapshotStore>, shard: u32) -> LiveService {
        LiveService::build(store, Some(shard))
    }

    fn build(store: Arc<SnapshotStore>, shard: Option<u32>) -> LiveService {
        let stats = Arc::new(match shard {
            None => ServeStats::default(),
            Some(k) => ServeStats::for_shard(k),
        });
        let registry = hft_obs::global();
        let name = |base: &str| match shard {
            None => base.to_string(),
            Some(k) => hft_obs::registry::labeled(base, "shard", &k.to_string()),
        };
        let snap = store.current();
        let engine = Arc::new(Service::over_snapshot(
            snap.db_arc(),
            snap.generation(),
            Arc::clone(&stats),
        ));
        LiveService {
            store,
            engine: Mutex::new(engine),
            stats,
            swap_ns: registry.histogram(&name("serve.generation_swap_ns")),
            relabels: registry.counter(&name("serve.generation_relabels")),
            staleness_ms: registry.gauge(&name("serve.snapshot_staleness_ms")),
        }
    }

    /// The serving-layer counters (shared by every generation's engine).
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The snapshot store this service follows.
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// The engine for the store's current generation. If the store
    /// advanced since the last request, the engine is relabelled when
    /// the new generation kept its corpus, and rebuilt otherwise.
    pub fn engine(&self) -> Arc<Service<'static>> {
        let current = self.store.generation();
        let mut engine = self.engine.lock().expect("live engine");
        if engine.generation() != current {
            let snap = self.store.current();
            if engine.generation() != snap.generation() {
                if engine.reads(snap.db()) {
                    engine.relabel(snap.generation());
                    self.relabels.incr();
                } else {
                    let started = std::time::Instant::now();
                    *engine = Arc::new(Service::over_snapshot(
                        snap.db_arc(),
                        snap.generation(),
                        Arc::clone(&self.stats),
                    ));
                    self.stats.on_generation_swap();
                    self.swap_ns.record(started.elapsed().as_nanos() as u64);
                }
            }
        }
        // How far behind the last publish this request is served —
        // near zero in steady state, growing only if the ingest
        // follower stalls.
        self.staleness_ms
            .set(self.store.last_publish_age().as_millis() as i64);
        Arc::clone(&engine)
    }

    /// The generation the next request will be served against.
    pub fn generation(&self) -> u64 {
        self.engine().generation()
    }
}

impl Handler for LiveService {
    fn handle(&self, req: &Request) -> Response {
        self.engine().handle(req)
    }

    fn serve_stats(&self) -> &ServeStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hft_geodesy::LatLon;
    use hft_time::Date;
    use hft_uls::{
        CallSign, FrequencyAssignment, License, LicenseId, MicrowavePath, RadioService,
        StationClass, TowerSite, UlsDatabase,
    };

    fn lic(id: u64, lat: f64) -> License {
        let tx = TowerSite::at(LatLon::new(lat, -88.17).unwrap());
        let rx = TowerSite::at(LatLon::new(lat + 0.2, -87.67).unwrap());
        License {
            id: LicenseId(id),
            call_sign: CallSign(format!("WQ{id}")),
            licensee: "Alpha Networks".into(),
            service: RadioService::MG,
            station_class: StationClass::FXO,
            grant_date: Date::new(2015, 6, 17).unwrap(),
            termination_date: None,
            cancellation_date: None,
            paths: vec![MicrowavePath {
                tx,
                rx,
                frequencies: vec![FrequencyAssignment { center_hz: 6.1e9 }],
            }],
        }
    }

    fn count(live: &LiveService) -> usize {
        match live.handle(&Request::Geographic {
            lat_deg: 41.1,
            lon_deg: -88.17,
            radius_km: 100.0,
        }) {
            Response::Licenses { ids } => ids.len(),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn live_service_swaps_engines_with_the_store() {
        let store = Arc::new(SnapshotStore::new(UlsDatabase::from_licenses(vec![lic(
            1, 41.0,
        )])));
        let live = LiveService::new(Arc::clone(&store));
        assert_eq!(live.generation(), 0);
        assert_eq!(count(&live), 1);

        // Hold the generation-0 engine across a publish: it must keep
        // answering from its own corpus.
        let pinned = live.engine();
        store.publish(
            Arc::new(UlsDatabase::from_licenses(vec![lic(1, 41.0), lic(2, 41.2)])),
            None,
        );
        assert_eq!(count(&live), 2, "new requests see generation 1");
        assert_eq!(live.generation(), 1);
        assert_eq!(pinned.generation(), 0);
        match pinned.handle(&Request::Geographic {
            lat_deg: 41.1,
            lon_deg: -88.17,
            radius_km: 100.0,
        }) {
            Response::Licenses { ids } => assert_eq!(ids.len(), 1, "pinned engine stays on gen 0"),
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(live.stats().snapshot().generation_swaps, 1);

        // Republishing the corpus the engine already reads relabels it:
        // the generation advances, but the engine and its caches stay.
        let network = Request::Network {
            licensee: "Alpha Networks".into(),
            date: Date::new(2016, 1, 1).unwrap(),
        };
        live.handle(&network);
        let engine = live.engine();
        let hits = engine.session().stats().network_hits;
        let relabels = || {
            hft_obs::global()
                .snapshot()
                .counter("serve.generation_relabels")
                .unwrap_or(0)
        };
        let relabelled = relabels();
        store.publish(store.current().db_arc(), None);
        assert_eq!(live.generation(), 2);
        assert!(
            Arc::ptr_eq(&engine, &live.engine()),
            "relabelled, not rebuilt"
        );
        assert_eq!(engine.generation(), 2);
        assert_eq!(live.stats().snapshot().generation_swaps, 1);
        // The registry is shared across the test binary: at least one.
        assert!(relabels() > relabelled);
        live.handle(&network);
        assert_eq!(
            live.engine().session().stats().network_hits,
            hits + 1,
            "the network cached before the publish answers after it"
        );
    }

    #[test]
    fn memoized_networks_never_leak_across_generations() {
        let date = Date::new(2016, 1, 1).unwrap();
        let store = Arc::new(SnapshotStore::new(UlsDatabase::from_licenses(vec![lic(
            1, 41.0,
        )])));
        let live = LiveService::new(Arc::clone(&store));
        let req = Request::Network {
            licensee: "Alpha Networks".into(),
            date,
        };
        let before = live.handle(&req);
        match &before {
            Response::Network { towers, .. } => assert_eq!(*towers, 2),
            other => panic!("unexpected response {other:?}"),
        }
        // Grow the licensee's network; the old session has it memoized,
        // but the swap routes to a fresh engine.
        store.publish(
            Arc::new(UlsDatabase::from_licenses(vec![lic(1, 41.0), lic(2, 42.0)])),
            None,
        );
        match live.handle(&req) {
            Response::Network { towers, .. } => assert_eq!(towers, 4),
            other => panic!("unexpected response {other:?}"),
        }
    }
}
