//! The race engine: per-substrate legs, result caches, instrumentation.

use hft_core::corridor::DataCenter;
use hft_core::memo::{Memo, Outcome};
use hft_core::session::AnalysisSession;
use hft_core::weather::{conditional_latency_on, WeatherOutcome};
use hft_geodesy::{latency_seconds, LatLon, Medium};
use hft_leo::{fiber_latency_ms, mw_latency_ms, Constellation, GroundStation};
use hft_obs::{Counter, Histogram};
use hft_radio::WeatherSampler;
use hft_time::Date;
use std::sync::Arc;
use std::time::Instant;

/// The outcome of one cross-substrate race between two sites.
///
/// All latencies are one-way milliseconds; every stretch factor is
/// relative to [`RaceOutcome::c_bound_ms`], the vacuum geodesic limit.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceOutcome {
    /// Origin site code.
    pub from: String,
    /// Destination site code.
    pub to: String,
    /// Constellation raced on the LEO leg.
    pub constellation: String,
    /// Geodesic distance, km.
    pub geodesic_km: f64,
    /// The vacuum geodesic limit, ms — the bound nothing beats.
    pub c_bound_ms: f64,
    /// Microwave leg, ms. Corpus-reconstructed in
    /// [`RaceEngine::race`] (`None` when the licensee has no route);
    /// idealized in [`RaceEngine::race_positions`] (`None` when
    /// terrestrial microwave is infeasible, e.g. transoceanic).
    pub microwave_ms: Option<f64>,
    /// Fiber leg: great-circle × route stretch at `2c/3`, ms.
    pub fiber_ms: f64,
    /// LEO leg: shortest up/ISL/down path, ms (`None` if unroutable).
    pub leo_ms: Option<f64>,
    /// Inter-satellite hops on the LEO leg.
    pub leo_isl_hops: Option<u64>,
    /// The winning substrate: `"microwave"`, `"LEO"` or `"fiber"`.
    pub winner: String,
    /// Weather-adjusted availability windows for the microwave leg
    /// (§5 Monte Carlo), absent when there is no corpus route.
    pub weather: Option<WeatherOutcome>,
}

impl RaceOutcome {
    /// Microwave stretch factor vs the vacuum bound.
    pub fn mw_stretch(&self) -> Option<f64> {
        self.microwave_ms.map(|ms| ms / self.c_bound_ms)
    }

    /// Fiber stretch factor vs the vacuum bound.
    pub fn fiber_stretch(&self) -> f64 {
        self.fiber_ms / self.c_bound_ms
    }

    /// LEO stretch factor vs the vacuum bound.
    pub fn leo_stretch(&self) -> Option<f64> {
        self.leo_ms.map(|ms| ms / self.c_bound_ms)
    }
}

/// Pick the winner among the available legs (ties go to the faster
/// medium in the [`hft_leo::Comparison`] order: microwave, LEO, fiber).
fn winner(microwave_ms: Option<f64>, leo_ms: Option<f64>, fiber_ms: f64) -> &'static str {
    let mw = microwave_ms.unwrap_or(f64::INFINITY);
    let leo = leo_ms.unwrap_or(f64::INFINITY);
    if mw <= leo && mw <= fiber_ms {
        "microwave"
    } else if leo <= fiber_ms {
        "LEO"
    } else {
        "fiber"
    }
}

/// A cached LEO leg: pure constellation geometry, corpus-independent.
#[derive(Debug, Clone, Copy)]
struct LeoLeg {
    latency_ms: f64,
    isl_hops: u64,
}

/// Monte-Carlo cache key: the (pair, epoch) identity of a weather
/// answer. The epoch pins the corpus snapshot, so a stable corpus
/// always hits.
type McKey = (String, usize, &'static str, &'static str, usize, u64);

/// LEO cache key: endpoint positions (bit-exact) plus constellation.
type LeoKey = ([u64; 2], [u64; 2], String);

/// The latency-race scenario engine.
///
/// Owns three memos: the lazily-built constellations, the §5 weather
/// Monte Carlo keyed per `(licensee, epoch, pair, samples, seed)` (races
/// and `Weather` answers share it) and the LEO legs keyed per `(pair,
/// constellation)`. An engine is expected to be owned by one corpus
/// generation (the serve layer builds one per `Service`), which is what
/// makes the epoch in the MC key a complete identity.
pub struct RaceEngine {
    constellations: Memo<String, Arc<Constellation>>,
    mc_cache: Memo<McKey, Option<WeatherOutcome>>,
    leo_cache: Memo<LeoKey, Option<LeoLeg>>,
    compute_ns: Arc<Histogram>,
    mc_hits: Arc<Counter>,
    mc_misses: Arc<Counter>,
}

impl Default for RaceEngine {
    fn default() -> Self {
        RaceEngine::new()
    }
}

impl RaceEngine {
    /// A fresh engine with empty caches, registered against the global
    /// telemetry registry.
    pub fn new() -> RaceEngine {
        let r = hft_obs::global();
        RaceEngine {
            constellations: Memo::new("race.constellation", "race.constellation.wait"),
            mc_cache: Memo::new("race.weather_mc", "race.weather_mc.wait"),
            leo_cache: Memo::new("race.leo", "race.leo.wait"),
            compute_ns: r.histogram("race.compute_ns"),
            mc_hits: r.counter_with("race.mc_cache", "outcome", "hit"),
            mc_misses: r.counter_with("race.mc_cache", "outcome", "miss"),
        }
    }

    /// Weather Monte-Carlo cache hits and misses since this engine was
    /// created (process-wide counters, monotone).
    pub fn mc_cache_counts(&self) -> (u64, u64) {
        (self.mc_hits.value(), self.mc_misses.value())
    }

    /// Resolve a constellation by name (`"starlink"`), building and
    /// caching it on first use.
    fn constellation(&self, name: &str) -> Result<Arc<Constellation>, String> {
        let build = match name {
            "starlink" => Constellation::starlink_like,
            other => return Err(format!("unknown constellation {other:?}; try \"starlink\"")),
        };
        let (shell, _) = self
            .constellations
            .get(name.to_string(), || Arc::new(build()));
        Ok(shell)
    }

    /// The LEO leg between two positions, cached per (pair,
    /// constellation) — pure geometry, identical on every shard.
    fn leo_leg(
        &self,
        a: &GroundStation,
        b: &GroundStation,
        constellation: &str,
    ) -> Result<Option<LeoLeg>, String> {
        let shell = self.constellation(constellation)?;
        let key: LeoKey = (
            [
                a.position.lat_deg().to_bits(),
                a.position.lon_deg().to_bits(),
            ],
            [
                b.position.lat_deg().to_bits(),
                b.position.lon_deg().to_bits(),
            ],
            constellation.to_string(),
        );
        let (leg, _) = self.leo_cache.get(key, || {
            shell.route(a, b, 0.0).map(|r| LeoLeg {
                latency_ms: r.latency_ms,
                isl_hops: r.isl_hops as u64,
            })
        });
        Ok(leg)
    }

    /// The §5 weather Monte Carlo for `licensee`'s corpus microwave
    /// route (`None` when there is none), cached per `(licensee, epoch,
    /// pair, samples, seed)`. Deterministic in `seed` (explicit ChaCha8
    /// threading downstream). Races read it for their weather windows;
    /// the serve layer answers `Weather` requests with it.
    #[allow(clippy::too_many_arguments)]
    pub fn weather_windows(
        &self,
        session: &AnalysisSession<'_>,
        licensee: &str,
        date: Date,
        from: &DataCenter,
        to: &DataCenter,
        samples: usize,
        seed: u64,
    ) -> Option<WeatherOutcome> {
        let epoch = session.epoch(licensee, date);
        let key: McKey = (
            licensee.to_string(),
            epoch,
            from.code,
            to.code,
            samples,
            seed,
        );
        let (outcome, how) = self.mc_cache.get(key, || {
            let network = session.network(licensee, date);
            let rg = session.routing_graph(licensee, date, from, to);
            let sampler = WeatherSampler::stormy_season();
            conditional_latency_on(&rg, &network, from, to, &sampler, samples, seed)
        });
        match how {
            Outcome::Filled => self.mc_misses.add(1),
            Outcome::Hit | Outcome::Waited => self.mc_hits.add(1),
        }
        outcome
    }

    /// Race every substrate between two corridor data centers, with the
    /// microwave leg reconstructed from `licensee`'s corpus as of
    /// `date` and weather windows from the §5 Monte Carlo.
    #[allow(clippy::too_many_arguments)]
    pub fn race(
        &self,
        session: &AnalysisSession<'_>,
        licensee: &str,
        date: Date,
        from: &DataCenter,
        to: &DataCenter,
        constellation: &str,
        samples: usize,
        seed: u64,
    ) -> Result<RaceOutcome, String> {
        if samples == 0 {
            return Err("samples must be >= 1".to_string());
        }
        let _span = hft_obs::span("race.compute");
        let start = Instant::now();
        let a = from.position();
        let b = to.position();
        let geodesic_m = a.geodesic_distance_m(&b);
        let microwave_ms = session.latency_ms(licensee, date, from, to);
        let weather = if microwave_ms.is_some() {
            self.weather_windows(session, licensee, date, from, to, samples, seed)
        } else {
            None
        };
        let outcome = self.assemble(
            from.code,
            a,
            to.code,
            b,
            geodesic_m,
            microwave_ms,
            weather,
            constellation,
        )?;
        self.compute_ns.record(start.elapsed().as_nanos() as u64);
        Ok(outcome)
    }

    /// Race arbitrary positions with an *idealized* microwave leg
    /// (geodesic × mature-network stretch) when `terrestrial_feasible`,
    /// and no weather model — the free-pair path used by corridor
    /// sweeps over segments the corpus does not cover.
    pub fn race_positions(
        &self,
        from: &GroundStation,
        to: &GroundStation,
        constellation: &str,
        terrestrial_feasible: bool,
    ) -> Result<RaceOutcome, String> {
        let _span = hft_obs::span("race.compute");
        let start = Instant::now();
        let geodesic_m = from.position.geodesic_distance_m(&to.position);
        let microwave_ms = terrestrial_feasible.then(|| mw_latency_ms(geodesic_m));
        let outcome = self.assemble(
            &from.name,
            from.position,
            &to.name,
            to.position,
            geodesic_m,
            microwave_ms,
            None,
            constellation,
        )?;
        self.compute_ns.record(start.elapsed().as_nanos() as u64);
        Ok(outcome)
    }

    /// Shared tail of both race paths: the corpus-independent legs plus
    /// the verdict.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        &self,
        from: &str,
        a: LatLon,
        to: &str,
        b: LatLon,
        geodesic_m: f64,
        microwave_ms: Option<f64>,
        weather: Option<WeatherOutcome>,
        constellation: &str,
    ) -> Result<RaceOutcome, String> {
        let gs_a = GroundStation {
            name: from.to_string(),
            position: a,
        };
        let gs_b = GroundStation {
            name: to.to_string(),
            position: b,
        };
        let leo = self.leo_leg(&gs_a, &gs_b, constellation)?;
        let fiber_ms = fiber_latency_ms(geodesic_m);
        let leo_ms = leo.map(|l| l.latency_ms);
        Ok(RaceOutcome {
            from: from.to_string(),
            to: to.to_string(),
            constellation: constellation.to_string(),
            geodesic_km: geodesic_m / 1000.0,
            c_bound_ms: latency_seconds(geodesic_m, Medium::Vacuum) * 1e3,
            microwave_ms,
            fiber_ms,
            leo_ms,
            leo_isl_hops: leo.map(|l| l.isl_hops),
            winner: winner(microwave_ms, leo_ms, fiber_ms).to_string(),
            weather,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hft_core::corridor::{CME, EQUINIX_NY4};

    fn date() -> Date {
        Date::new(2020, 4, 1).expect("valid")
    }

    #[test]
    fn empty_corpus_race_has_no_microwave_leg() {
        let session = AnalysisSession::over([]);
        let engine = RaceEngine::new();
        let race = engine
            .race(
                &session,
                "Nobody",
                date(),
                &CME,
                &EQUINIX_NY4,
                "starlink",
                40,
                7,
            )
            .expect("race");
        assert_eq!(race.from, "CME");
        assert_eq!(race.to, "NY4");
        assert!(race.microwave_ms.is_none());
        assert!(race.weather.is_none());
        assert!((race.geodesic_km - 1186.0).abs() < 0.1);
        // Every substrate is bounded below by the vacuum geodesic.
        assert!(race.fiber_ms > race.c_bound_ms);
        if let Some(leo) = race.leo_ms {
            assert!(leo > race.c_bound_ms);
            assert!(race.leo_isl_hops.is_some());
        }
        assert!(race.fiber_stretch() > 1.0);
    }

    #[test]
    fn unknown_constellation_is_an_error() {
        let session = AnalysisSession::over([]);
        let engine = RaceEngine::new();
        let err = engine
            .race(&session, "x", date(), &CME, &EQUINIX_NY4, "iridium", 10, 1)
            .expect_err("unknown constellation");
        assert!(err.contains("iridium"), "{err}");
    }

    #[test]
    fn zero_samples_is_an_error() {
        let session = AnalysisSession::over([]);
        let engine = RaceEngine::new();
        assert!(engine
            .race(&session, "x", date(), &CME, &EQUINIX_NY4, "starlink", 0, 1)
            .is_err());
    }

    #[test]
    fn race_is_deterministic_to_the_bit() {
        let session = AnalysisSession::over([]);
        let engine = RaceEngine::new();
        let a = engine
            .race(&session, "x", date(), &CME, &EQUINIX_NY4, "starlink", 25, 3)
            .expect("race");
        // Second call hits the LEO cache; a fresh engine recomputes.
        let b = engine
            .race(&session, "x", date(), &CME, &EQUINIX_NY4, "starlink", 25, 3)
            .expect("race");
        let c = RaceEngine::new()
            .race(&session, "x", date(), &CME, &EQUINIX_NY4, "starlink", 25, 3)
            .expect("race");
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.c_bound_ms.to_bits(), c.c_bound_ms.to_bits());
        assert_eq!(a.fiber_ms.to_bits(), c.fiber_ms.to_bits());
    }

    #[test]
    fn transoceanic_free_race_prefers_leo_over_fiber() {
        let engine = RaceEngine::new();
        let fra = GroundStation::new("Frankfurt", 50.1109, 8.6821).expect("valid");
        let dc = GroundStation::new("WashingtonDC", 38.9072, -77.0369).expect("valid");
        let race = engine
            .race_positions(&fra, &dc, "starlink", false)
            .expect("race");
        assert!(race.microwave_ms.is_none());
        let leo = race.leo_ms.expect("routable");
        assert!(leo < race.fiber_ms, "LEO {leo} vs fiber {}", race.fiber_ms);
        assert_eq!(race.winner, "LEO");
    }
}
