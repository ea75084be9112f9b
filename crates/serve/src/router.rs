//! The shard router: scatter-gather over N in-process shard workers.
//!
//! A [`ShardRouter`] is a [`Handler`], so the whole wire stack (frames,
//! admission queue, pool workers) runs over a fleet unchanged. Each
//! shard worker is a [`LiveService`] following its own per-shard
//! [`SnapshotStore`](hft_ingest::SnapshotStore) — its own
//! `AnalysisSession`, race-engine memos and shard-labeled
//! [`ServeStats`] — over the shard's disjoint piece of the corpus. A
//! shard worker is state, not a thread: every leg of a request runs on
//! the pool worker answering it.
//!
//! Routing is licensee-granular, mirroring the partitioner:
//!
//! * **Point-to-point** — single-licensee requests (network, route,
//!   APA, weather) go to the owning shard. Under the licensee-hash
//!   strategy the owner is a pure function of the name (one hop, no
//!   corpus lookup); under the spatial strategy ownership depends on
//!   the corpus, so these broadcast and the owner's answer is selected.
//! * **Scatter-gather** — geographic, site and funnel queries run on
//!   every shard in turn and the per-shard answers merge
//!   deterministically:
//!   license searches k-way-merge ascending ids, funnel counters sum
//!   (licensee-granular partitioning makes per-shard counts disjoint),
//!   and shortlist names merge sorted. The merged bytes are identical
//!   to a single-corpus [`Service`] answer.
//!
//! **Generation-vector pinning:** a scatter captures every shard's
//! current engine in one pass *before* any leg runs, so all per-shard
//! computations run against the generation vector that existed when the
//! request started — a publish landing mid-request cannot produce an
//! answer mixing a shard's old corpus with another's new one beyond
//! what the vector already showed at capture time. Callers that need a
//! provably-uniform vector bracket the request with
//! [`ShardedStore::generation_vector`] reads, exactly as single-store
//! clients bracket with the generation counter.

use crate::api::{Request, Response};
use crate::live::LiveService;
use crate::service::{metrics_json, traces_response, Handler, Service};
use crate::stats::{ServeSnapshot, ServeStats};
use hft_core::session::StatsSnapshot;
use hft_ingest::ShardedStore;
use hft_uls::shard::{shard_of_licensee, ShardStrategy};
#[cfg(test)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A fleet of in-process shard workers behind one [`Handler`]. See the
/// module docs.
pub struct ShardRouter {
    shards: Vec<LiveService>,
    strategy: ShardStrategy,
    /// Transport-level counters (received/queued/completed): the wire
    /// server reports into these; per-shard work reports into each
    /// worker's own labeled stats.
    stats: Arc<ServeStats>,
    /// Fault point: calls to this shard panic (`usize::MAX` for none).
    #[cfg(test)]
    panicking_shard: AtomicUsize,
}

impl ShardRouter {
    /// A router over `store`'s shards, one worker per shard.
    pub fn over(store: &ShardedStore) -> ShardRouter {
        ShardRouter {
            shards: store
                .shards()
                .iter()
                .enumerate()
                .map(|(k, s)| LiveService::for_shard(Arc::clone(s), k as u32))
                .collect(),
            strategy: store.strategy(),
            stats: Arc::new(ServeStats::default()),
            #[cfg(test)]
            panicking_shard: AtomicUsize::new(usize::MAX),
        }
    }

    /// Number of shard workers.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The partitioning strategy the fleet routes by.
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// The shard workers, in shard order.
    pub fn shards(&self) -> &[LiveService] {
        &self.shards
    }

    /// Every shard worker's next-request generation, in shard order.
    pub fn generation_vector(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.store().generation()).collect()
    }

    /// Answer one request. Safe to call from many threads at once.
    pub fn handle(&self, req: &Request) -> Response {
        match req {
            Request::Stats => self.merged_stats(),
            Request::Metrics => Response::Metrics {
                registry: metrics_json(),
            },
            // The flight recorder is process-wide, so the router answers
            // directly — its records already hold every shard's legs.
            Request::Traces { limit, trace_id } => traces_response(*limit, *trace_id),
            Request::Shutdown => Response::ShuttingDown,
            Request::Network { licensee, .. }
            | Request::Route { licensee, .. }
            | Request::Apa { licensee, .. }
            | Request::Weather { licensee, .. }
            | Request::Race { licensee, .. }
            | Request::StretchSweep { licensee, .. } => self.single(licensee, req),
            Request::Geographic { .. } | Request::SiteSearch { .. } | Request::Shortlist { .. } => {
                let responses = self.scatter(req);
                let _merge = hft_obs::span("router.merge");
                merge_scatter(req, responses)
            }
        }
    }

    /// Route a single-licensee request to its owning shard, or — when
    /// ownership is not name-computable — broadcast and keep the
    /// owner's answer.
    fn single(&self, licensee: &str, req: &Request) -> Response {
        if self.strategy.routes_by_name() {
            let k = shard_of_licensee(licensee, self.shards.len()) as usize;
            let _leg = hft_obs::span_sharded("shard.call", k as u32);
            self.call(k, &self.shards[k].engine(), req)
        } else {
            let responses = self.scatter(req);
            let _merge = hft_obs::span("router.merge");
            merge_owned(responses)
        }
    }

    /// Run a request on every shard against a pinned generation vector,
    /// returning per-shard answers in shard order. The legs run in turn
    /// on the calling thread: a leg costs a few microseconds, less than
    /// handing it to another thread would.
    fn scatter(&self, req: &Request) -> Vec<Response> {
        // Pin the generation vector: one engine capture per shard, all
        // before any shard computes.
        let engines: Vec<Arc<Service<'static>>> = self.shards.iter().map(|s| s.engine()).collect();
        let _scatter = hft_obs::span("router.scatter");
        engines
            .iter()
            .enumerate()
            .map(|(k, engine)| {
                let _leg = hft_obs::span_sharded("shard.call", k as u32);
                self.call(k, engine, req)
            })
            .collect()
    }

    /// One shard call, reported into the shard's labeled counters (the
    /// router is the shard workers' transport).
    fn call(&self, k: usize, engine: &Service<'static>, req: &Request) -> Response {
        let stats = self.shards[k].stats();
        stats.on_received();
        #[cfg(test)]
        if self.panicking_shard.load(Ordering::SeqCst) == k {
            panic!("injected fault on shard {k}");
        }
        let started = Instant::now();
        let response = engine.handle(req);
        stats.on_service(started.elapsed().as_nanos() as u64);
        stats.on_completed(matches!(response, Response::Error { .. }));
        response
    }

    /// The fleet-wide `stats` answer: [`Handler::serve_snapshot`]'s
    /// counters plus session cache counters summed over current shard
    /// engines.
    fn merged_stats(&self) -> Response {
        let mut session = StatsSnapshot::default();
        for shard in &self.shards {
            let c = shard.engine().session().stats();
            session.network_hits += c.network_hits;
            session.reconstructions += c.reconstructions;
            session.route_hits += c.route_hits;
            session.route_misses += c.route_misses;
            session.apa_hits += c.apa_hits;
            session.apa_misses += c.apa_misses;
            session.graph_hits += c.graph_hits;
            session.graph_misses += c.graph_misses;
        }
        // Counted after the engine reads above, so swaps they made show.
        let serve = self.serve_snapshot();
        Response::Stats { serve, session }
    }
}

impl Handler for ShardRouter {
    fn handle(&self, req: &Request) -> Response {
        ShardRouter::handle(self, req)
    }

    fn serve_stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Transport counters from the router, flight and swap counters
    /// summed over the shard workers' own stats. Reads no
    /// engine, so it never triggers a generation swap.
    fn serve_snapshot(&self) -> ServeSnapshot {
        let mut serve = self.stats.snapshot();
        for shard in &self.shards {
            let s = shard.stats().snapshot();
            serve.flights_led += s.flights_led;
            serve.flights_coalesced += s.flights_coalesced;
            serve.generation_swaps += s.generation_swaps;
        }
        serve
    }
}

/// Merge scatter answers for geographic/site/funnel requests into the
/// single-corpus bytes. Shard answers arrive in shard order; every
/// merge rule below is order-free over disjoint inputs, so the result
/// does not depend on which shard answered first.
fn merge_scatter(req: &Request, responses: Vec<Response>) -> Response {
    debug_assert!(!responses.is_empty());
    match req {
        Request::Geographic { .. } | Request::SiteSearch { .. } => {
            let mut ids: Vec<u64> = Vec::new();
            for r in responses {
                match r {
                    Response::Licenses { ids: mut part } => ids.append(&mut part),
                    // Request-shaped errors (bad coordinates) are
                    // corpus-independent: every shard produced the same
                    // bytes, so returning one of them is the merge.
                    other => return other,
                }
            }
            // Disjoint sorted runs → one sorted list, as a single
            // corpus would canonically order it.
            ids.sort_unstable();
            Response::Licenses { ids }
        }
        Request::Shortlist { .. } => {
            let mut geographic_candidates = 0u64;
            let mut service_filtered = 0u64;
            let mut shortlisted = 0u64;
            let mut names: Vec<String> = Vec::new();
            for r in responses {
                match r {
                    Response::Shortlist {
                        geographic_candidates: g,
                        service_filtered: f,
                        shortlisted: s,
                        names: mut n,
                    } => {
                        // Licensee-granular partitioning: each licensee
                        // is counted by exactly one shard, so funnel
                        // counters sum without double counting.
                        geographic_candidates += g;
                        service_filtered += f;
                        shortlisted += s;
                        names.append(&mut n);
                    }
                    other => return other,
                }
            }
            names.sort_unstable();
            Response::Shortlist {
                geographic_candidates,
                service_filtered,
                shortlisted,
                names,
            }
        }
        _ => unreachable!("merge_scatter only sees scatter-gather requests"),
    }
}

/// Select the owning shard's answer from a single-licensee broadcast.
///
/// Non-owning shards see no licenses under the name and return exactly
/// the bytes a single corpus returns for an unknown licensee (zero
/// network, all-`None` route, `None` APA, the same no-route error), so:
/// the first *substantive* answer is the owner's, and when there is
/// none every answer is byte-identical and the first stands in for all.
fn merge_owned(responses: Vec<Response>) -> Response {
    debug_assert!(!responses.is_empty());
    let owned = responses.iter().position(|r| match r {
        Response::Network {
            towers,
            links,
            active_licenses,
            ..
        } => *towers > 0 || *links > 0 || *active_licenses > 0,
        Response::Route {
            latency_ms,
            towers,
            length_m,
        } => latency_ms.is_some() || towers.is_some() || length_m.is_some(),
        Response::Apa { apa } => apa.is_some(),
        Response::Weather { .. } => true,
        // A race's corpus-dependent leg is the microwave one; every
        // other field (fiber, LEO, vacuum bound) is pure geometry that
        // non-owning shards reproduce byte-identically.
        Response::Race { microwave_ms, .. } => microwave_ms.is_some(),
        Response::StretchSweep { entries } => entries.iter().any(|e| e.mw_stretch.is_some()),
        _ => false,
    });
    let idx = owned.unwrap_or(0);
    responses
        .into_iter()
        .nth(idx)
        .expect("selected index is in bounds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServeConfig, Server};
    use crate::service::Service;
    use crate::wire::{self, DEFAULT_MAX_FRAME};
    use hft_geodesy::LatLon;
    use hft_time::Date;
    use hft_uls::{
        CallSign, FrequencyAssignment, License, LicenseId, MicrowavePath, RadioService,
        StationClass, TowerSite, UlsDatabase,
    };
    use std::net::TcpStream;
    use std::time::Duration;

    fn lic(id: u64, name: &str, lat: f64, lon: f64) -> License {
        License {
            id: LicenseId(id),
            call_sign: CallSign(format!("WQ{id:05}")),
            licensee: name.into(),
            service: RadioService::MG,
            station_class: StationClass::FXO,
            grant_date: Date::new(2015, 1, 1).unwrap(),
            termination_date: None,
            cancellation_date: None,
            paths: vec![MicrowavePath {
                tx: TowerSite::at(LatLon::new(lat, lon).unwrap()),
                rx: TowerSite::at(LatLon::new(lat + 0.2, lon + 0.3).unwrap()),
                frequencies: vec![FrequencyAssignment { center_hz: 6.1e9 }],
            }],
        }
    }

    fn corpus() -> UlsDatabase {
        // Ids deliberately out of geographic order so canonical id
        // sorting does real work.
        UlsDatabase::from_licenses(vec![
            lic(9, "Alpha Networks", 41.0, -88.0),
            lic(2, "Beta Microwave", 41.3, -87.8),
            lic(7, "Alpha Networks", 41.6, -87.4),
            lic(4, "Gamma Wireless", 41.9, -87.1),
            lic(5, "Delta Relay", 42.2, -86.8),
        ])
    }

    fn requests() -> Vec<Request> {
        vec![
            Request::Geographic {
                lat_deg: 41.5,
                lon_deg: -87.5,
                radius_km: 200.0,
            },
            Request::Geographic {
                lat_deg: 200.0,
                lon_deg: 0.0,
                radius_km: 10.0,
            },
            Request::SiteSearch {
                service: "MG".into(),
                class: "FXO".into(),
            },
            Request::Shortlist {
                lat_deg: 41.5,
                lon_deg: -87.5,
                radius_km: 500.0,
                min_filings: 1,
            },
            Request::Network {
                licensee: "Alpha Networks".into(),
                date: Date::new(2016, 1, 1).unwrap(),
            },
            Request::Network {
                licensee: "Nobody Known".into(),
                date: Date::new(2016, 1, 1).unwrap(),
            },
            Request::Route {
                licensee: "Alpha Networks".into(),
                date: Date::new(2016, 1, 1).unwrap(),
                from: "CME".into(),
                to: "NY4".into(),
            },
            Request::Apa {
                licensee: "Beta Microwave".into(),
                date: Date::new(2016, 1, 1).unwrap(),
                from: "CME".into(),
                to: "BAD".into(),
            },
            Request::Race {
                licensee: "Alpha Networks".into(),
                date: Date::new(2016, 1, 1).unwrap(),
                from: "CME".into(),
                to: "NY4".into(),
                constellation: "starlink".into(),
                samples: 50,
                seed: 7,
            },
            Request::Race {
                licensee: "Nobody Known".into(),
                date: Date::new(2016, 1, 1).unwrap(),
                from: "CME".into(),
                to: "NYSE".into(),
                constellation: "starlink".into(),
                samples: 50,
                seed: 7,
            },
            Request::Race {
                licensee: "Alpha Networks".into(),
                date: Date::new(2016, 1, 1).unwrap(),
                from: "CME".into(),
                to: "NY4".into(),
                constellation: "iridium".into(),
                samples: 50,
                seed: 7,
            },
            Request::StretchSweep {
                licensee: "Alpha Networks".into(),
                date: Date::new(2016, 1, 1).unwrap(),
                constellation: "starlink".into(),
            },
        ]
    }

    #[test]
    fn sharded_answers_match_single_corpus_bytes() {
        let db = corpus();
        let single = Service::new(&db);
        for strategy in [ShardStrategy::LicenseeHash, ShardStrategy::SpatialCell] {
            for n in [1usize, 2, 3, 5] {
                let store = ShardedStore::seeded(&db, n, strategy, None);
                let router = ShardRouter::over(&store);
                for req in requests() {
                    let got = router.handle(&req).encode();
                    let want = single.handle(&req).encode();
                    assert_eq!(got, want, "{strategy:?} n={n} req={req:?}");
                }
            }
        }
    }

    #[test]
    fn router_follows_per_shard_generations() {
        let db = corpus();
        let store = ShardedStore::seeded(&db, 3, ShardStrategy::LicenseeHash, None);
        let router = ShardRouter::over(&store);
        let geo = Request::Geographic {
            lat_deg: 41.5,
            lon_deg: -87.5,
            radius_km: 500.0,
        };
        let before = match router.handle(&geo) {
            Response::Licenses { ids } => ids,
            other => panic!("unexpected response {other:?}"),
        };
        assert_eq!(before, vec![2, 4, 5, 7, 9]);

        // Publish a grown corpus through the fleet; the router must
        // answer from the new generation vector.
        let mut grown: Vec<License> = db.licenses().to_vec();
        grown.push(lic(1, "Epsilon Beam", 41.1, -87.9));
        let next = UlsDatabase::from_licenses(grown);
        assert_eq!(store.publish_full(&next, None), 1);
        assert_eq!(router.generation_vector(), vec![1, 1, 1]);
        let after = match router.handle(&geo) {
            Response::Licenses { ids } => ids,
            other => panic!("unexpected response {other:?}"),
        };
        assert_eq!(after, vec![1, 2, 4, 5, 7, 9]);

        // And the sharded answer still matches a single corpus of the
        // same generation.
        let single = Service::new(&next);
        assert_eq!(router.handle(&geo).encode(), single.handle(&geo).encode());
    }

    #[test]
    fn shard_workers_report_labeled_counters() {
        let db = corpus();
        let store = ShardedStore::seeded(&db, 2, ShardStrategy::LicenseeHash, None);
        let router = ShardRouter::over(&store);
        let geo = Request::Geographic {
            lat_deg: 41.5,
            lon_deg: -87.5,
            radius_km: 500.0,
        };
        router.handle(&geo);
        // A scatter touches every shard: each worker's own counters
        // advance (the labeled registry series mirror these atomics).
        for shard in router.shards() {
            let snap = shard.stats().snapshot();
            assert_eq!(snap.received, 1);
            assert_eq!(snap.completed, 1);
        }
        // Point-to-point touches exactly the owning shard.
        let net = Request::Network {
            licensee: "Alpha Networks".into(),
            date: Date::new(2016, 1, 1).unwrap(),
        };
        router.handle(&net);
        let owner = shard_of_licensee("Alpha Networks", 2) as usize;
        assert_eq!(router.shards()[owner].stats().snapshot().received, 2);
        assert_eq!(router.shards()[1 - owner].stats().snapshot().received, 1);
    }

    #[test]
    fn merged_stats_aggregate_across_shards() {
        let db = corpus();
        let store = ShardedStore::seeded(&db, 2, ShardStrategy::LicenseeHash, None);
        let router = ShardRouter::over(&store);
        let net = Request::Network {
            licensee: "Alpha Networks".into(),
            date: Date::new(2016, 1, 1).unwrap(),
        };
        router.handle(&net);
        router.handle(&net);
        match router.handle(&Request::Stats) {
            Response::Stats { serve, session } => {
                assert_eq!(serve.flights_led, 2);
                assert_eq!(session.reconstructions, 1);
                assert_eq!(session.network_hits, 1);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn traced_scatter_runs_its_legs_in_shard_order_under_one_root() {
        let db = corpus();
        let store = ShardedStore::seeded(&db, 4, ShardStrategy::LicenseeHash, None);
        let router = ShardRouter::over(&store);
        // Built sampled, so the tree is filed without touching the
        // process-wide sampling stride.
        let ctx = hft_obs::TraceContext {
            sampled: true,
            ..hft_obs::TraceContext::mint()
        };
        let shortlist = Request::Shortlist {
            lat_deg: 41.5,
            lon_deg: -87.5,
            radius_km: 500.0,
            min_filings: 1,
        };
        {
            let _root = hft_obs::trace_root("serve.request", "shortlist", ctx, Instant::now());
            router.handle(&shortlist);
        }
        let tree = hft_obs::find_trace(ctx.trace_id).expect("trace filed").tree;
        tree.check().expect("well-formed tree");
        let spans = &tree.spans;
        let children = |p: usize| -> Vec<usize> {
            (0..spans.len())
                .filter(|&i| spans[i].parent == Some(p as u32))
                .collect()
        };
        let top = children(0);
        let names: Vec<&str> = top.iter().map(|&i| spans[i].name).collect();
        assert_eq!(names, ["router.scatter", "router.merge"]);
        let (scatter, merge) = (&spans[top[0]], &spans[top[1]]);
        assert!(merge.start_ns >= scatter.start_ns + scatter.dur_ns);

        let legs = children(top[0]);
        assert_eq!(legs.len(), 4, "one leg per shard");
        for (k, &leg) in legs.iter().enumerate() {
            assert_eq!(spans[leg].name, "shard.call");
            assert_eq!(spans[leg].shard, Some(k as u32), "legs run in shard order");
        }
        for pair in legs.windows(2) {
            let (a, b) = (&spans[pair[0]], &spans[pair[1]]);
            assert!(b.start_ns >= a.start_ns + a.dur_ns, "legs run in turn");
        }
        // Every span inside leg k reads shard k, and each leg has work
        // inside it (the cold scrape's memo fill).
        let mut inside = [0usize; 4];
        for (i, span) in spans.iter().enumerate() {
            let mut up = span.parent;
            while let Some(p) = up {
                if let Some(k) = legs.iter().position(|&leg| leg == p as usize) {
                    assert_eq!(span.shard, Some(k as u32), "span {i} in leg {k}");
                    inside[k] += 1;
                    break;
                }
                up = spans[p as usize].parent;
            }
        }
        assert!(inside.iter().all(|&n| n > 0), "{inside:?}");
        for span in spans {
            assert!(span.start_ns + span.dur_ns <= tree.total_ns(), "{span:?}");
        }
    }

    /// One serial JSON round trip over a raw socket, returning the
    /// answer's bytes; a missing answer fails on the read timeout
    /// instead of hanging the test.
    fn round_trip(stream: &mut TcpStream, req: &Request) -> Vec<u8> {
        wire::write_frame(stream, &req.encode()).expect("send");
        wire::read_frame(stream, DEFAULT_MAX_FRAME)
            .expect("answer before the read timeout")
            .expect("connection open")
    }

    #[test]
    fn panicking_leg_answers_error_and_the_fleet_recovers() {
        let db = corpus();
        let single = Service::new(&db);
        let store = ShardedStore::seeded(&db, 4, ShardStrategy::LicenseeHash, None);
        let router = Arc::new(ShardRouter::over(&store));
        // One worker: had the panic killed it, nothing would answer the
        // requests that follow.
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr().expect("local addr");
        // A detached thread, so a hung server cannot hang the test harness.
        let serving = {
            let router = Arc::clone(&router);
            std::thread::spawn(move || server.run_with(&*router))
        };
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");

        let geo = Request::Geographic {
            lat_deg: 41.5,
            lon_deg: -87.5,
            radius_km: 500.0,
        };
        router.panicking_shard.store(2, Ordering::SeqCst);
        assert_eq!(
            Response::decode(&round_trip(&mut stream, &geo)),
            Ok(Response::Error {
                message: "internal error: handler panicked".into()
            })
        );
        router.panicking_shard.store(usize::MAX, Ordering::SeqCst);
        assert_eq!(round_trip(&mut stream, &geo), single.handle(&geo).encode());

        let owned = [
            "Alpha Networks",
            "Beta Microwave",
            "Gamma Wireless",
            "Delta Relay",
        ]
        .into_iter()
        .find(|name| shard_of_licensee(name, 4) == 2)
        .expect("a corpus licensee lives on shard 2");
        let point = Request::Network {
            licensee: owned.into(),
            date: Date::new(2016, 1, 1).unwrap(),
        };
        assert_eq!(
            round_trip(&mut stream, &point),
            single.handle(&point).encode()
        );
        assert_eq!(
            Response::decode(&round_trip(&mut stream, &Request::Shutdown)),
            Ok(Response::ShuttingDown)
        );

        let stats = serving
            .join()
            .expect("server thread")
            .expect("server ran cleanly");
        assert_eq!(stats.errors, 1, "only the faulted scatter is an error");
    }
}
