//! The traced run: replay a workload's stream in-process with the
//! benchmark's own spans around each public call, then time each
//! layer's entry points directly.
//!
//! Spans live in memory and are written to
//! `target/hftbench/<workload>.spans.jsonl` at the end. The same stream
//! is also replayed untraced; the two pipeline times bound what the
//! tracing itself costs.

use crate::fixture::{response_body, Entry, Fixture, Publisher};
use crate::report::{Metric, Report};
use crate::workload::{d2020, Workload};
use hft_core::corridor::{CME, EQUINIX_NY4};
use hft_core::session::AnalysisSession;
use hft_geodesy::LatLon;
use hft_serve::api::{Request, Response};
use hft_serve::{binwire, Proto, ServeStats, Service};
use hft_uls::scrape::ScrapeConfig;
use hft_uls::shard::shard_of_licensee;
use hft_uls::{RadioService, StationClass, UlsDatabase, UlsPortal};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One timed interval of one request.
#[derive(Debug, Clone)]
pub struct Span {
    /// The request (or publish) it belongs to.
    pub id: u32,
    /// Layer name.
    pub name: &'static str,
    /// Start, ns after the recorder's epoch.
    pub start_ns: u64,
    /// End, ns after the epoch.
    pub end_ns: u64,
    /// The enclosing span's index.
    pub parent: Option<usize>,
}

/// An in-memory span recorder.
pub struct Spans {
    epoch: Instant,
    /// Every span, in open order.
    pub spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The clock, ns after the epoch. Adjacent spans share a reading,
    /// so a request's spans cost one clock read per boundary.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a span and return its index.
    pub fn push(
        &mut self,
        id: u32,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Set span `i`'s end.
    pub fn end(&mut self, i: usize, end_ns: u64) {
        self.spans[i].end_ns = end_ns;
    }

    /// Per layer name: total self time (duration less the children's)
    /// and span count.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(children) {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(c);
            e.1 += 1;
        }
        out
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".into(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Values with nearest-rank percentiles.
#[derive(Default)]
struct Samples(Vec<f64>);

impl Samples {
    fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let r = black_box(f());
        self.push(started.elapsed().as_nanos() as f64);
        r
    }

    fn pct(&self, q: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        match v.len() {
            0 => 0.0,
            n => v[((n - 1) as f64 * q).round() as usize],
        }
    }

    fn mean(&self) -> f64 {
        self.0.iter().sum::<f64>() / self.0.len().max(1) as f64
    }

    fn n(&self) -> u64 {
        self.0.len() as u64
    }
}

/// Requests replayed per pass: enough for stable medians, few enough
/// that compute-mc's cold Monte Carlos fit a second or two.
fn replay_len(w: Workload) -> usize {
    match w {
        Workload::PointWarm => 3000,
        Workload::FleetScatter => 2000,
        Workload::LiveIngest => 1500,
        Workload::ComputeMc => 300,
    }
}

/// Decode a request body under `proto`.
fn decode(proto: Proto, body: &[u8]) -> Request {
    match proto {
        Proto::Json => Request::decode(body).expect("benchmark requests decode"),
        Proto::Binary => binwire::decode_request(body).expect("benchmark requests decode"),
    }
}

/// The replayed requests: the low rung's stream, truncated.
fn replay_requests(fx: &Fixture, seed: u64, reseed: u64) -> Vec<Entry> {
    let w = fx.workload;
    let (low, _) = w.rates();
    let n = replay_len(w);
    let stream = fx
        .mix
        .stream(seed, "replay", low, n as f64 / low * 1.5 + 1.0);
    stream
        .idx
        .iter()
        .take(n)
        .map(|&i| {
            let request = match (i as usize).checked_sub(fx.universe.len()) {
                None => fx.universe[i as usize].request.clone(),
                Some(j) => match stream.fresh[j].clone() {
                    // Each pass gets its own fresh seeds, so both pay
                    // the same cold Monte Carlos.
                    Request::Race {
                        licensee,
                        date,
                        from,
                        to,
                        constellation,
                        samples,
                        seed,
                    } => Request::Race {
                        licensee,
                        date,
                        from,
                        to,
                        constellation,
                        samples,
                        seed: seed ^ reseed,
                    },
                    other => other,
                },
            };
            Entry::new(request, w.proto(), None)
        })
        .collect()
}

/// Live-ingest's in-process publishes: one per this many replayed
/// requests, the served publisher's cadence at the low rate.
struct Replayer<'a> {
    fx: &'a Fixture,
    publisher: Option<Publisher<'a>>,
    every: usize,
    published: usize,
}

impl<'a> Replayer<'a> {
    fn new(fx: &'a Fixture) -> Replayer<'a> {
        Replayer {
            fx,
            publisher: fx.history.as_ref().map(Publisher::new),
            every: (fx.workload.rates().0 / 10.0) as usize,
            published: 0,
        }
    }

    /// Publish when request `i` is due one; returns the apply and
    /// publish times and the events folded.
    fn before(&mut self, i: usize, spans: &mut Spans) -> Option<(u64, u64, u64)> {
        if i == 0 || !i.is_multiple_of(self.every) {
            return None;
        }
        let (Some(p), Some(fleet)) = (self.publisher.as_mut(), self.fx.engine.fleet()) else {
            return None;
        };
        let id = i as u32;
        let t0 = spans.now();
        let root = spans.push(id, "publish", None, t0, t0);
        let events = p.advance();
        let t1 = spans.now();
        spans.push(id, "ingest.apply", Some(root), t0, t1);
        p.publish(&fleet.store);
        let t2 = spans.now();
        spans.push(id, "ingest.publish", Some(root), t1, t2);
        spans.end(root, t2);
        self.published += 1;
        Some((t1 - t0, t2 - t1, events))
    }
}

/// One request through the in-process pipeline under spans: decode,
/// handle, encode.
fn traced(fx: &Fixture, spans: &mut Spans, id: u32, body: &[u8]) -> Response {
    let proto = fx.workload.proto();
    let t0 = spans.now();
    let root = spans.push(id, "request", None, t0, t0);
    let req = decode(proto, body);
    let t1 = spans.now();
    spans.push(id, "codec.req_decode", Some(root), t0, t1);
    let resp = fx.engine.handle(&req);
    let t2 = spans.now();
    spans.push(id, "handler", Some(root), t1, t2);
    black_box(response_body(proto, &resp));
    let t3 = spans.now();
    spans.push(id, "codec.resp_encode", Some(root), t2, t3);
    spans.end(root, t3);
    resp
}

/// The per-layer numbers for `fx`'s workload, added to `report`.
/// `p50_low_ns` is the served `low` rung's median, which the
/// in-process pipeline is subtracted from.
pub fn measure(
    fx: &Fixture,
    seed: u64,
    p50_low_ns: f64,
    report: &mut Report,
) -> Result<(), String> {
    let w = fx.workload;
    let proto = w.proto();

    // Each request runs twice, traced and untraced, in alternating
    // order so drift and cache warmth fall on both sides alike; the
    // traced copy of a fresh race has its own seed, so both pay the
    // cold Monte Carlo.
    let plain = replay_requests(fx, seed, 0);
    let requests = replay_requests(fx, seed, 1 << 41);
    let mut pipeline = Samples::default();
    let mut spans = Spans::new();
    spans.spans.reserve(requests.len() * 4);
    let mut publisher = Replayer::new(fx);
    let (mut apply, mut publish, mut events) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut responses: Vec<Response> = Vec::with_capacity(requests.len());
    for (i, (u, t)) in plain.iter().zip(&requests).enumerate() {
        if let Some((a, p, n)) = publisher.before(i, &mut spans) {
            apply.push(a as f64);
            publish.push(p as f64);
            events.push(n as f64);
        }
        let mut untraced =
            || pipeline.time(|| response_body(proto, &fx.engine.handle(&decode(proto, &u.body))));
        // Counting publishes flips the order after each one, so the cold
        // request behind a swap falls on both sides alike.
        if (i + publisher.published).is_multiple_of(2) {
            untraced();
            responses.push(traced(fx, &mut spans, i as u32, &t.body));
        } else {
            responses.push(traced(fx, &mut spans, i as u32, &t.body));
            untraced();
        }
    }

    let self_times = spans.self_times();
    let per_request = |name| {
        self_times
            .get(name)
            .map_or(0.0, |&(total, _)| total as f64 / requests.len() as f64)
    };
    let traced_sum: f64 = [
        "request",
        "codec.req_decode",
        "handler",
        "codec.resp_encode",
    ]
    .into_iter()
    .map(per_request)
    .sum();
    let mut table = format!(
        "{} per-layer self time (traced replay of {} requests):\n",
        w.name(),
        requests.len()
    );
    for (name, (total, count)) in &self_times {
        let _ = writeln!(
            table,
            "  {name:<20} {:>12.0} ns/request  ({count} spans)",
            *total as f64 / requests.len() as f64
        );
    }
    let _ = writeln!(
        table,
        "  self-time sum {traced_sum:.0} ns vs untraced pipeline mean {:.0} ns",
        pipeline.mean()
    );
    eprint!("{table}");
    let path = std::path::Path::new("target/hftbench").join(format!("{}.spans.jsonl", w.name()));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    let selftime_ratio = traced_sum / pipeline.mean().max(1.0);
    if !(0.9..=1.1).contains(&selftime_ratio) {
        report.invalid.push(format!(
            "traced self times sum to {selftime_ratio:.3}x the untraced pipeline"
        ));
    }
    report.push(Metric::layer(
        "pipeline.p50_ns",
        "ns",
        pipeline.pct(0.5),
        pipeline.n(),
    ));
    report.push(Metric::layer(
        "transport.residual_ns",
        "ns",
        p50_low_ns - pipeline.pct(0.5),
        pipeline.n(),
    ));
    report.push(Metric::layer(
        "trace.selftime_ratio",
        "frac",
        selftime_ratio,
        requests.len() as u64,
    ));

    codecs(&requests, &responses, proto, report);
    handlers(fx, &requests, report);
    sessions(fx, report);
    if fx.history.is_some() {
        report.push(Metric::layer(
            "ingest.apply_ns",
            "ns",
            apply.pct(0.5),
            apply.n(),
        ));
        report.push(Metric::layer(
            "ingest.publish_ns",
            "ns",
            publish.pct(0.5),
            publish.n(),
        ));
        report.push(Metric::layer(
            "ingest.events_per_publish",
            "count",
            events.mean(),
            events.n(),
        ));
        cold_after_swap(fx, &mut publisher, report);
    }
    if w == Workload::ComputeMc {
        monte_carlo(fx, seed, report);
    }

    let mut overhead = Spans::new();
    const N: u32 = 20_000;
    overhead.spans.reserve(N as usize);
    let started = Instant::now();
    for i in 0..N {
        let t = overhead.now();
        overhead.push(i, "overhead", None, t, t);
    }
    report.push(Metric::layer(
        "trace.span_overhead_ns",
        "ns",
        started.elapsed().as_nanos() as f64 / f64::from(N),
        u64::from(N),
    ));
    Ok(())
}

/// Both codecs over the replayed requests and their answers.
fn codecs(requests: &[Entry], responses: &[Response], proto: Proto, report: &mut Report) {
    let (mut bin_dec, mut bin_enc, mut json_dec, mut json_enc, mut bytes) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    let mut buf = Vec::with_capacity(1 << 12);
    for (e, resp) in requests.iter().zip(responses) {
        let bin = binwire::request_bytes(Proto::Binary, &e.request);
        let json = binwire::request_bytes(Proto::Json, &e.request);
        bin_dec.time(|| binwire::decode_request(&bin).is_ok());
        json_dec.time(|| Request::decode(&json).is_ok());
        bin_enc.time(|| {
            buf.clear();
            binwire::encode_response_into(resp, &mut buf);
            buf.len()
        });
        json_enc.time(|| resp.encode());
        bytes.push(response_body(proto, resp).len() as f64);
    }
    report.push(Metric::layer(
        "codec.bin_req_decode_ns",
        "ns",
        bin_dec.pct(0.5),
        bin_dec.n(),
    ));
    report.push(Metric::layer(
        "codec.bin_resp_encode_ns",
        "ns",
        bin_enc.pct(0.5),
        bin_enc.n(),
    ));
    report.push(Metric::layer(
        "codec.json_req_decode_ns",
        "ns",
        json_dec.pct(0.5),
        json_dec.n(),
    ));
    report.push(Metric::layer(
        "codec.json_resp_encode_ns",
        "ns",
        json_enc.pct(0.5),
        json_enc.n(),
    ));
    report.push(Metric::layer(
        "codec.resp_bytes",
        "bytes",
        bytes.mean(),
        bytes.n(),
    ));
}

/// Whether the router scatters `req` to every shard.
fn scatters(req: &Request) -> bool {
    matches!(
        req,
        Request::Geographic { .. } | Request::SiteSearch { .. } | Request::Shortlist { .. }
    )
}

/// The single-licensee request's licensee.
fn licensee(req: &Request) -> Option<&str> {
    match req {
        Request::Network { licensee, .. }
        | Request::Route { licensee, .. }
        | Request::Apa { licensee, .. }
        | Request::Weather { licensee, .. }
        | Request::Race { licensee, .. }
        | Request::StretchSweep { licensee, .. } => Some(licensee),
        _ => None,
    }
}

/// Warm `Service::handle` per leg and, on a fleet, what the router and
/// the live engine handle add around the legs.
fn handlers(fx: &Fixture, requests: &[Entry], report: &mut Report) {
    let universe: Vec<&Request> = requests
        .iter()
        .map(|e| &e.request)
        .filter(|r| fx.universe.iter().any(|u| &u.request == *r))
        .collect();
    let mut leg = Samples::default();
    match &fx.engine {
        crate::fixture::Engine::Single(service) => {
            for req in &universe {
                leg.time(|| service.handle(req));
            }
        }
        crate::fixture::Engine::Fleet(fleet) => {
            let shards = fleet.router.shards();
            let (mut engine, mut scatter, mut leg_max, mut fanout, mut point) = (
                Samples::default(),
                Samples::default(),
                Samples::default(),
                Samples::default(),
                Samples::default(),
            );
            // The first pass re-warms engines a publish may have swapped;
            // legs and the router alternate which runs first.
            for pass in 0..2 {
                for (i, req) in universe.iter().enumerate() {
                    let owners: Vec<usize> = match licensee(req) {
                        Some(name) if !scatters(req) => {
                            vec![shard_of_licensee(name, shards.len()) as usize]
                        }
                        _ => (0..shards.len()).collect(),
                    };
                    let route = || {
                        let started = Instant::now();
                        black_box(fleet.router.handle(req));
                        started.elapsed().as_nanos() as f64
                    };
                    let mut total = if i % 2 == 1 { route() } else { 0.0 };
                    let mut slowest = 0.0f64;
                    for k in owners {
                        let started = Instant::now();
                        let e = shards[k].engine();
                        let got = started.elapsed().as_nanos() as f64;
                        let started = Instant::now();
                        black_box(e.handle(req));
                        let took = started.elapsed().as_nanos() as f64;
                        slowest = slowest.max(took);
                        if pass == 1 {
                            engine.push(got);
                            leg.push(took);
                        }
                    }
                    if i % 2 == 0 {
                        total = route();
                    }
                    if pass == 1 {
                        if scatters(req) {
                            scatter.push(total);
                            leg_max.push(slowest);
                            fanout.push(total - slowest);
                        } else {
                            point.push(total - slowest);
                        }
                    }
                }
            }
            report.push(Metric::layer(
                "router.scatter_ns",
                "ns",
                scatter.pct(0.5),
                scatter.n(),
            ));
            report.push(Metric::layer(
                "router.leg_max_ns",
                "ns",
                leg_max.pct(0.5),
                leg_max.n(),
            ));
            report.push(Metric::layer(
                "router.fanout_overhead_ns",
                "ns",
                fanout.pct(0.5),
                fanout.n(),
            ));
            report.push(Metric::layer(
                "router.point_overhead_ns",
                "ns",
                point.pct(0.5),
                point.n(),
            ));
            report.push(Metric::layer(
                "live.engine_ns.p50",
                "ns",
                engine.pct(0.5),
                engine.n(),
            ));
            report.push(Metric::layer(
                "live.engine_ns.p99",
                "ns",
                engine.pct(0.99),
                engine.n(),
            ));
        }
    }
    report.push(Metric::layer(
        "service.handle_warm_ns",
        "ns",
        leg.pct(0.5),
        leg.n(),
    ));
}

/// The corpus the workload's server answers from.
fn served_db(fx: &Fixture) -> &Arc<UlsDatabase> {
    fx.history.as_ref().map_or(&fx.corpus.db, |h| &h.base)
}

/// Cold analysis on a fresh session: reconstruction, then a route and
/// an APA over the reconstructed network; and the portal's searches.
fn sessions(fx: &Fixture, report: &mut Report) {
    let db = served_db(fx);
    let mut names: Vec<&str> = fx.mix.universe.iter().filter_map(licensee).collect();
    names.sort();
    names.dedup();
    let session = AnalysisSession::shared(Arc::clone(db));
    let date = d2020();
    let (mut net, mut route, mut apa) =
        (Samples::default(), Samples::default(), Samples::default());
    for name in names {
        net.time(|| session.network(name, date));
        route.time(|| session.route(name, date, &CME, &EQUINIX_NY4));
        apa.time(|| session.apa(name, date, &CME, &EQUINIX_NY4));
    }
    report.push(Metric::layer(
        "session.reconstruct_ns",
        "ns",
        net.pct(0.5),
        net.n(),
    ));
    report.push(Metric::layer(
        "session.route_cold_ns",
        "ns",
        route.pct(0.5),
        route.n(),
    ));
    report.push(Metric::layer(
        "session.apa_cold_ns",
        "ns",
        apa.pct(0.5),
        apa.n(),
    ));

    let (mut geo, mut site, mut shortlist) =
        (Samples::default(), Samples::default(), Samples::default());
    for req in &fx.mix.universe {
        match req {
            Request::Geographic {
                lat_deg,
                lon_deg,
                radius_km,
            } => {
                let centre = LatLon::new(*lat_deg, *lon_deg).expect("benchmark centres are valid");
                geo.time(|| db.geographic_search(&centre, *radius_km).len());
            }
            Request::SiteSearch { service, class } => {
                let (service, class) = (
                    RadioService::from_code(service),
                    StationClass::from_code(class),
                );
                site.time(|| db.site_search(&service, &class).len());
            }
            Request::Shortlist {
                lat_deg,
                lon_deg,
                radius_km,
                min_filings,
            } => {
                let centre = LatLon::new(*lat_deg, *lon_deg).expect("benchmark centres are valid");
                let config = ScrapeConfig {
                    radius_km: *radius_km,
                    min_filings: *min_filings,
                };
                shortlist.time(|| session.scrape(&centre, &config));
            }
            _ => {}
        }
    }
    if geo.n() > 0 {
        report.push(Metric::layer(
            "portal.geo_search_ns",
            "ns",
            geo.pct(0.5),
            geo.n(),
        ));
        report.push(Metric::layer(
            "portal.site_search_ns",
            "ns",
            site.pct(0.5),
            site.n(),
        ));
        report.push(Metric::layer(
            "portal.shortlist_ns",
            "ns",
            shortlist.pct(0.5),
            shortlist.n(),
        ));
    }
}

/// The first answer after a publish: the swap to a fresh engine plus
/// the cold analysis behind the answer.
fn cold_after_swap(fx: &Fixture, publisher: &mut Replayer<'_>, report: &mut Report) {
    let Some(probe) = fx
        .mix
        .universe
        .iter()
        .find(|r| matches!(r, Request::Network { .. }))
    else {
        return;
    };
    let mut cold = Samples::default();
    let mut scratch = Spans::new();
    for i in 1..=20 {
        publisher.before(i * publisher.every, &mut scratch);
        cold.time(|| fx.engine.handle(probe));
    }
    report.push(Metric::layer(
        "session.cold_after_swap_ns",
        "ns",
        cold.pct(0.5),
        cold.n(),
    ));
}

/// Weather and race Monte Carlo, cold and warm, on a fresh engine.
fn monte_carlo(fx: &Fixture, seed: u64, report: &mut Report) {
    let service = Service::over_snapshot(
        Arc::clone(&fx.corpus.db),
        0,
        Arc::new(ServeStats::default()),
    );
    let (mut weather, mut cold, mut warm, mut sweep) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    for req in &fx.mix.universe {
        match req {
            Request::Weather { .. } => {
                weather.time(|| service.handle(req));
            }
            Request::Race { .. } => {
                let fresh = match req.clone() {
                    Request::Race {
                        licensee,
                        date,
                        from,
                        to,
                        constellation,
                        samples,
                        seed: s,
                    } => Request::Race {
                        licensee,
                        date,
                        from,
                        to,
                        constellation,
                        samples,
                        seed: s ^ seed.rotate_left(17),
                    },
                    other => other,
                };
                cold.time(|| service.handle(&fresh));
                warm.time(|| service.handle(&fresh));
            }
            Request::StretchSweep { .. } => {
                sweep.time(|| service.handle(req));
            }
            _ => {}
        }
    }
    report.push(Metric::layer(
        "weather.mc_cold_ns",
        "ns",
        weather.pct(0.5),
        weather.n(),
    ));
    report.push(Metric::layer("race.cold_ns", "ns", cold.pct(0.5), cold.n()));
    report.push(Metric::layer("race.warm_ns", "ns", warm.pct(0.5), warm.n()));
    report.push(Metric::layer(
        "race.sweep_ns",
        "ns",
        sweep.pct(0.5),
        sweep.n(),
    ));
}
