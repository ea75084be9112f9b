//! The in-process query engine: dispatches typed [`Request`]s onto an
//! [`AnalysisSession`] and a [`RaceEngine`], whose memos make
//! concurrent identical work run once.
//!
//! This is the same object whether the caller is a TCP connection
//! handler or a local thread — the wire server is a transport wrapper
//! around [`Service::handle`], which is what makes "served bytes must
//! equal direct-session bytes" a testable property.

use crate::api::{Dispatch, Request, Response, SweepEntry};
use crate::stats::{ServeSnapshot, ServeStats};
use hft_core::corridor::{DataCenter, CME, EQUINIX_NY4, NASDAQ, NYSE};
use hft_core::memo;
use hft_core::session::AnalysisSession;
use hft_geodesy::LatLon;
use hft_race::{RaceEngine, RaceOutcome};
use hft_uls::scrape::ScrapeConfig;
use hft_uls::{RadioService, StationClass, UlsDatabase, UlsPortal};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Resolve a data-center code used on the wire.
pub fn data_center(code: &str) -> Option<&'static DataCenter> {
    [&CME, &EQUINIX_NY4, &NYSE, &NASDAQ]
        .into_iter()
        .find(|dc| dc.code == code)
}

/// Anything that can answer requests for the transport layer: the
/// [`ShardRouter`](crate::ShardRouter) every server runs, or a bare
/// single-corpus [`Service`]. The wire server, the connection handlers
/// and the pool workers are generic over this.
pub trait Handler: Sync {
    /// Answer one request.
    fn handle(&self, req: &Request) -> Response;

    /// The serving-layer counters this handler reports into.
    fn serve_stats(&self) -> &ServeStats;

    /// The counters a `stats` answer and the shutdown dump report: by
    /// default [`Handler::serve_stats`], but a handler whose work is
    /// counted elsewhere (a fleet's shard workers) folds that in.
    fn serve_snapshot(&self) -> ServeSnapshot {
        self.serve_stats().snapshot()
    }
}

/// The query engine: one shared [`AnalysisSession`] and [`RaceEngine`]
/// plus the serving-layer counters.
///
/// A `Service` is pinned to exactly one corpus: its session and race
/// memos never see requests against another corpus (a fleet shard
/// builds a fresh `Service` whenever a publish brings it a new corpus),
/// so a stale memoized network can never answer a post-swap query. A
/// publish that hands back the very corpus the engine reads only
/// relabels it with the new generation number.
pub struct Service<'a> {
    session: AnalysisSession<'a>,
    generation: AtomicU64,
    stats: Arc<ServeStats>,
    race: RaceEngine,
}

impl<'a> Service<'a> {
    /// A service over a borrowed license corpus (generation 0, its own
    /// counters): the single-corpus reference that sharded answers are
    /// checked against.
    pub fn new(db: &'a UlsDatabase) -> Service<'a> {
        Service {
            session: AnalysisSession::new(db),
            generation: AtomicU64::new(0),
            stats: Arc::new(ServeStats::default()),
            race: RaceEngine::new(),
        }
    }

    /// A service pinned to a published corpus snapshot. The session
    /// co-owns the corpus (so the snapshot outlives the store's next
    /// publish), and `stats` is shared so counters accumulate across a
    /// fleet shard's generations.
    pub fn over_snapshot(
        db: Arc<UlsDatabase>,
        generation: u64,
        stats: Arc<ServeStats>,
    ) -> Service<'static> {
        Service {
            session: AnalysisSession::shared(db),
            generation: AtomicU64::new(generation),
            stats,
            race: RaceEngine::new(),
        }
    }

    /// The underlying analysis session.
    pub fn session(&self) -> &AnalysisSession<'a> {
        &self.session
    }

    /// The corpus generation this engine answers for.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Whether this engine reads exactly `db`: the same allocation, not
    /// an equal copy.
    pub(crate) fn reads(&self, db: &UlsDatabase) -> bool {
        std::ptr::eq(self.session.db(), db)
    }

    /// Answer for `generation` from now on, keeping every cache. Only
    /// sound when that generation's corpus is the one this engine
    /// [reads](Service::reads).
    pub(crate) fn relabel(&self, generation: u64) {
        self.generation.store(generation, Ordering::Relaxed);
    }

    /// The serving-layer counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The latency-race engine (and its caches) pinned to this
    /// service's corpus generation.
    pub fn race_engine(&self) -> &RaceEngine {
        &self.race
    }

    /// Answer one request. Safe to call from many threads at once; this
    /// is the entry point pool workers use.
    ///
    /// Every call with a point or scatter request counts as one flight:
    /// coalesced when it waited on a memo cell another call was filling,
    /// led otherwise. A fleet's router makes one call per shard leg, so
    /// a flight is one shard call, not one request.
    pub fn handle(&self, req: &Request) -> Response {
        if let Dispatch::Telemetry | Dispatch::Shutdown = req.dispatch() {
            return self.compute(req);
        }
        memo::take_waited(); // a mark left by work outside a request
        let response = self.compute(req);
        if memo::take_waited() {
            self.stats.on_flight_coalesced();
        } else {
            self.stats.on_flight_led();
        }
        response
    }

    /// One direct [`AnalysisSession`], [`RaceEngine`] or portal call per
    /// request kind.
    fn compute(&self, req: &Request) -> Response {
        match req {
            Request::Geographic {
                lat_deg,
                lon_deg,
                radius_km,
            } => match LatLon::new(*lat_deg, *lon_deg) {
                Err(e) => err(format!("bad coordinates: {e}")),
                Ok(center) => Response::Licenses {
                    ids: canonical_ids(self.session.db().geographic_search(&center, *radius_km)),
                },
            },
            Request::SiteSearch { service, class } => Response::Licenses {
                ids: canonical_ids(self.session.db().site_search(
                    &RadioService::from_code(service),
                    &StationClass::from_code(class),
                )),
            },
            Request::Shortlist {
                lat_deg,
                lon_deg,
                radius_km,
                min_filings,
            } => match LatLon::new(*lat_deg, *lon_deg) {
                Err(e) => err(format!("bad coordinates: {e}")),
                Ok(reference) => {
                    let config = ScrapeConfig {
                        radius_km: *radius_km,
                        min_filings: *min_filings,
                    };
                    let outcome = self.session.scrape(&reference, &config);
                    Response::Shortlist {
                        geographic_candidates: outcome.report.geographic_candidates as u64,
                        service_filtered: outcome.report.service_filtered as u64,
                        shortlisted: outcome.report.shortlisted as u64,
                        names: outcome.shortlist.clone(),
                    }
                }
            },
            Request::Network { licensee, date } => {
                let net = self.session.network(licensee, *date);
                Response::Network {
                    licensee: licensee.clone(),
                    as_of: *date,
                    towers: net.tower_count() as u64,
                    links: net.link_count() as u64,
                    active_licenses: self.session.active_count(licensee, *date) as u64,
                }
            }
            Request::Route {
                licensee,
                date,
                from,
                to,
            } => match pair(from, to) {
                Err(e) => err(e),
                Ok((a, b)) => match self.session.route(licensee, *date, a, b) {
                    None => Response::Route {
                        latency_ms: None,
                        towers: None,
                        length_m: None,
                    },
                    Some(route) => Response::Route {
                        latency_ms: Some(route.latency_ms),
                        towers: Some(route.towers as u64),
                        length_m: Some(route.length_m),
                    },
                },
            },
            Request::Apa {
                licensee,
                date,
                from,
                to,
            } => match pair(from, to) {
                Err(e) => err(e),
                Ok((a, b)) => Response::Apa {
                    apa: self.session.apa(licensee, *date, a, b),
                },
            },
            Request::Weather {
                licensee,
                date,
                from,
                to,
                samples,
                seed,
            } => match pair(from, to) {
                Err(e) => err(e),
                // Zero-length corridor: every link sits at its far end and
                // the "route" is two fiber tails.
                Ok(_) if from == to => err(format!("no weather route from {from} to itself")),
                Ok((a, b)) => {
                    if *samples == 0 || *samples > 1_000_000 {
                        return err(format!("samples must be in 1..=1000000, got {samples}"));
                    }
                    match self.race.weather_windows(
                        &self.session,
                        licensee,
                        *date,
                        a,
                        b,
                        *samples,
                        *seed,
                    ) {
                        None => err(format!("{licensee}: no route {from}->{to}")),
                        Some(o) => Response::Weather {
                            clear_ms: o.clear_ms,
                            p50_ms: o.p50_ms,
                            p95_ms: o.p95_ms,
                            p99_ms: o.p99_ms,
                            availability: o.availability,
                            samples: o.samples as u64,
                        },
                    }
                }
            },
            Request::Race {
                licensee,
                date,
                from,
                to,
                constellation,
                samples,
                seed,
            } => match pair(from, to) {
                Err(e) => err(e),
                // Zero geodesic: every stretch factor would be 0/0.
                Ok(_) if from == to => err(format!("cannot race {from} against itself")),
                Ok((a, b)) => {
                    if *samples == 0 || *samples > 1_000_000 {
                        return err(format!("samples must be in 1..=1000000, got {samples}"));
                    }
                    match self.race.race(
                        &self.session,
                        licensee,
                        *date,
                        a,
                        b,
                        constellation,
                        *samples,
                        *seed,
                    ) {
                        Err(e) => err(e),
                        Ok(outcome) => race_response(outcome),
                    }
                }
            },
            Request::StretchSweep {
                licensee,
                date,
                constellation,
            } => match self
                .race
                .stretch_sweep(&self.session, licensee, *date, constellation)
            {
                Err(e) => err(e),
                Ok(entries) => Response::StretchSweep {
                    entries: entries
                        .into_iter()
                        .map(|e| SweepEntry {
                            pair: e.pair,
                            geodesic_km: e.geodesic_km,
                            mw_stretch: e.mw_stretch,
                            fiber_stretch: e.fiber_stretch,
                            leo_stretch: e.leo_stretch,
                        })
                        .collect(),
                },
            },
            Request::Stats => Response::Stats {
                serve: self.stats.snapshot(),
                session: self.session.stats(),
            },
            Request::Metrics => Response::Metrics {
                registry: metrics_json(),
            },
            Request::Traces { limit, trace_id } => traces_response(*limit, *trace_id),
            Request::Shutdown => Response::ShuttingDown,
        }
    }
}

impl Handler for Service<'_> {
    fn handle(&self, req: &Request) -> Response {
        Service::handle(self, req)
    }

    fn serve_stats(&self) -> &ServeStats {
        self.stats()
    }
}

fn pair(from: &str, to: &str) -> Result<(&'static DataCenter, &'static DataCenter), String> {
    let a = data_center(from).ok_or_else(|| format!("unknown data center {from:?}"))?;
    let b = data_center(to).ok_or_else(|| format!("unknown data center {to:?}"))?;
    Ok((a, b))
}

fn err(message: String) -> Response {
    Response::Error { message }
}

/// Flatten a [`RaceOutcome`] onto the wire shape. An absent weather
/// model (no corpus microwave route) encodes as the empty Monte Carlo:
/// zero samples, zero availability, infinite latencies — the same
/// degenerate distribution an MC over a permanently-down link yields.
fn race_response(o: RaceOutcome) -> Response {
    let (mw_stretch, fiber_stretch, leo_stretch) =
        (o.mw_stretch(), o.fiber_stretch(), o.leo_stretch());
    let wx = o.weather;
    Response::Race {
        from: o.from,
        to: o.to,
        constellation: o.constellation,
        geodesic_km: o.geodesic_km,
        c_bound_ms: o.c_bound_ms,
        microwave_ms: o.microwave_ms,
        fiber_ms: o.fiber_ms,
        leo_ms: o.leo_ms,
        leo_isl_hops: o.leo_isl_hops,
        mw_stretch,
        fiber_stretch,
        leo_stretch,
        winner: o.winner,
        wx_clear_ms: wx.map_or(f64::INFINITY, |w| w.clear_ms),
        wx_p50_ms: wx.map_or(f64::INFINITY, |w| w.p50_ms),
        wx_p95_ms: wx.map_or(f64::INFINITY, |w| w.p95_ms),
        wx_p99_ms: wx.map_or(f64::INFINITY, |w| w.p99_ms),
        wx_availability: wx.map_or(0.0, |w| w.availability),
        wx_samples: wx.map_or(0, |w| w.samples as u64),
    }
}

/// Wire ordering of a license search result: ascending ids.
///
/// The portal returns corpus-insertion order, which is an artifact of
/// load order and — decisively — cannot be reconstructed from disjoint
/// shard corpora. Sorting by id makes the wire answer a pure function
/// of the *set* of matching licenses, so a shard router can k-way-merge
/// per-shard answers into exactly the bytes a single-corpus service
/// would have produced.
fn canonical_ids(licenses: Vec<&hft_uls::License>) -> Vec<u64> {
    let mut ids: Vec<u64> = licenses.iter().map(|l| l.id.0).collect();
    ids.sort_unstable();
    ids
}

/// The flight recorder's answer to [`Request::Traces`]: one exact trace
/// by id, or the slowest `limit` records. The recorder is process-wide,
/// so any engine answers it for the whole fleet.
pub(crate) fn traces_response(limit: usize, trace_id: Option<u128>) -> Response {
    let records = match trace_id {
        Some(id) => hft_obs::find_trace(id).into_iter().collect(),
        None => hft_obs::trace_snapshot(limit.min(256)),
    };
    Response::Traces {
        traces: records.iter().map(crate::api::WireTrace::of).collect(),
    }
}

/// The global telemetry registry as a wire-encodable JSON value.
///
/// Rendered through `hft_obs::expo::render_json` and re-parsed, so the
/// wire payload is byte-for-byte the registry's own deterministic
/// exposition (sorted names, fixed summary key order).
pub fn metrics_json() -> crate::json::Json {
    let snap = hft_obs::global().snapshot();
    crate::json::parse(&hft_obs::expo::render_json(&snap))
        .expect("registry exposition is well-formed JSON")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_center_codes_resolve() {
        assert_eq!(data_center("CME").unwrap().code, "CME");
        assert_eq!(data_center("NY4").unwrap().code, "NY4");
        assert_eq!(data_center("NYSE").unwrap().code, "NYSE");
        assert_eq!(data_center("NASDAQ").unwrap().code, "NASDAQ");
        assert!(data_center("LD4").is_none());
    }
}
