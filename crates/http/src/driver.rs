//! The HTTP connection driver and route table.
//!
//! [`HttpExplorer`] is a [`DriverFactory`] for the serve crate's
//! readiness loop: register it as an extra listener and every accepted
//! connection gets an `HttpConn` — an incremental parser feeding a
//! route dispatcher, with responses queued strictly in request order
//! (HTTP/1.1 pipelining never reorders).
//!
//! Two answer shapes exist:
//!
//! * **Immediate** — index, evolution, metrics, dashboard, and every
//!   error: rendered on the loop from cheap lookups (cached licensee
//!   lists, registry snapshots) and queued at once.
//! * **Pooled** — licensee pages, the funnel, and the JSON API: the
//!   equivalent wire [`Request`] is admitted to the worker pool, the
//!   connection's queue holds the [`ResponseSlot`], and the page is
//!   finished (rendered or byte-encoded) when the slot fills. This
//!   keeps reconstruction/scrape work off the event loop *and* warms
//!   the owning engine's memoization, so the licensee page's follow-up
//!   read of the network geometry is a cache hit.
//!
//! The wire answers count; pages also need geometry (where a network's
//! towers stand), so the explorer reads engines straight from the
//! [`ShardRouter`]: a licensee page from [`ShardRouter::owner`], the
//! index and evolution pages from [`ShardRouter::engines`]. Each read
//! pins an engine with its corpus generation, so a page renders one
//! consistent corpus while the ingest applier publishes. A swap between
//! the pooled request and the render can make the render recompute on
//! the loop; that is rare (one page per publish) and bounded by one
//! request's work.
//!
//! The JSON API (`POST /api`) decodes a wire request from the body and
//! answers `handler.handle(request)` bytes verbatim — the HTTP answer
//! is byte-identical to the wire answer for the same request, which the
//! `httpload` bench asserts. `shutdown` is the one request HTTP
//! refuses (403): browsers must not be able to stop the fleet.

use crate::pages::{self, CorpusRow, HTML_CONTENT_TYPE};
use crate::parser::{HttpRequest, RequestParser};
use crate::response::write_response;
use hft_core::corridor::{CME, EQUINIX_NY4, NASDAQ, NYSE};
use hft_obs::expo::PROMETHEUS_CONTENT_TYPE;
use hft_serve::evloop::{ConnDriver, DriverCx, DriverFactory};
use hft_serve::pool::{ResponseSlot, SubmitError};
use hft_serve::{Dispatch, Request, Response, ShardRouter};
use hft_time::Date;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Content type of JSON API answers.
const JSON_CONTENT_TYPE: &str = "application/json";
/// Most rows the evolution page renders (largest networks first).
const EVOLUTION_MAX_ROWS: usize = 40;
/// Years sampled by the evolution sparklines (paper study window).
const EVOLUTION_YEARS: std::ops::RangeInclusive<i32> = 2013..=2020;

/// The date a licensee page renders when the query gives none: the
/// paper's 2020 snapshot.
fn default_date() -> Date {
    Date::new(2020, 4, 1).expect("valid default date")
}

/// [`DriverFactory`] serving the explorer over a fleet. Register with
/// [`ExtraListener`](hft_serve::ExtraListener) on the wire server's
/// readiness loop.
pub struct HttpExplorer<'h> {
    router: &'h ShardRouter,
}

impl<'h> HttpExplorer<'h> {
    /// An explorer over `router`'s fleet.
    pub fn new(router: &'h ShardRouter) -> HttpExplorer<'h> {
        HttpExplorer { router }
    }
}

impl DriverFactory for HttpExplorer<'_> {
    fn new_conn(&self) -> Box<dyn ConnDriver + '_> {
        Box::new(HttpConn {
            router: self.router,
            parser: RequestParser::new(),
            outq: VecDeque::new(),
            closed: false,
        })
    }
}

/// How a pooled answer becomes an HTTP response once its slot fills.
enum Finish {
    /// `POST /api`: the wire response's own bytes.
    Api,
    /// A licensee page: counts from the wire response, geometry from
    /// the owning engine (a cache hit: the pooled request just computed
    /// it).
    Licensee { name: String, date: Date },
    /// The funnel page: rendered entirely from the wire response.
    Funnel { radius_km: f64, min_filings: usize },
    /// A race page: rendered entirely from the wire response; the
    /// request identity rides along for the header line.
    Race { licensee: String, date: Date },
}

/// What a route produced.
enum Answer {
    Now {
        status: u16,
        content_type: &'static str,
        body: Vec<u8>,
    },
    Pooled {
        slot: Arc<ResponseSlot>,
        finish: Finish,
    },
}

/// One queued exchange, in request order.
struct OutEntry {
    answer: Answer,
    keep_alive: bool,
    head_only: bool,
    /// RED attribution: the route label and the parse instant. Duration
    /// is measured parse-to-response-ready in [`HttpConn::pump`], so a
    /// pooled page's queue wait and service time are both inside it.
    route: &'static str,
    started: Instant,
}

/// Per-connection HTTP state: parser in, ordered response queue out.
struct HttpConn<'h> {
    router: &'h ShardRouter,
    parser: RequestParser,
    outq: VecDeque<OutEntry>,
    /// No further requests are parsed (an error or `Connection: close`
    /// exchange is queued).
    closed: bool,
}

impl HttpConn<'_> {
    fn push(
        &mut self,
        answer: Answer,
        keep_alive: bool,
        head_only: bool,
        route: &'static str,
        started: Instant,
    ) {
        self.outq.push_back(OutEntry {
            answer,
            keep_alive,
            head_only,
            route,
            started,
        });
        if !keep_alive {
            self.closed = true;
        }
    }

    /// Route one parsed request.
    fn handle_request(&mut self, req: HttpRequest, cx: &mut DriverCx<'_>) {
        cx.handler().serve_stats().on_received();
        let started = Instant::now();
        let keep_alive = req.keep_alive;
        let head_only = req.method == "HEAD";
        let get_like = req.method == "GET" || head_only;

        let (label, answer) = match (get_like, req.path.as_str()) {
            (true, "/") => ("index", self.index()),
            (true, path) if path.starts_with("/licensee/") => ("licensee", self.licensee(&req, cx)),
            (true, path) if path.starts_with("/race/") => ("race", self.race(&req, cx)),
            (true, "/funnel") => ("funnel", self.funnel(&req, cx)),
            (true, "/evolution") => ("evolution", self.evolution()),
            (true, "/metrics") => ("metrics", metrics_answer()),
            (true, "/dashboard") => ("dashboard", dashboard_answer()),
            (true, "/traces") => ("traces", traces_answer()),
            (true, path) if path.starts_with("/trace/") => ("trace", trace_answer(path)),
            (false, "/api") if req.method == "POST" => ("api", self.api(&req, cx)),
            (
                _,
                "/" | "/funnel" | "/evolution" | "/metrics" | "/dashboard" | "/traces" | "/api",
            ) => (
                "other",
                html_error(405, &format!("method {} not allowed here", req.method)),
            ),
            (_, path)
                if (path.starts_with("/licensee/")
                    || path.starts_with("/race/")
                    || path.starts_with("/trace/"))
                    && !get_like =>
            {
                (
                    "other",
                    html_error(405, &format!("method {} not allowed here", req.method)),
                )
            }
            (_, path) => ("other", html_error(404, &format!("no route for {path}"))),
        };
        hft_obs::global()
            .counter_with("http.requests", "route", label)
            .incr();

        // Immediate answers complete here; pooled ones complete in the
        // worker, exactly like wire requests.
        if let Answer::Now { status, .. } = &answer {
            cx.handler().serve_stats().on_completed(*status >= 400);
        }
        self.push(answer, keep_alive, head_only, label, started);
    }

    /// `GET /` — cheap cached lookups only; renders on the loop.
    fn index(&self) -> Answer {
        let engines = self.router.engines();
        let generations: Vec<u64> = engines.iter().map(|e| e.generation()).collect();
        // Shards partition at licensee granularity: each name is on one.
        let mut rows: Vec<CorpusRow> = engines
            .iter()
            .flat_map(|e| {
                let db = e.session().db();
                db.licensees().into_iter().map(|name| CorpusRow {
                    name: name.to_string(),
                    licenses: db.filings(name).positions().len(),
                })
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        html_ok(pages::index_page(&generations, &rows))
    }

    /// `GET /licensee/{name}?date=` — pooled through a wire `network`
    /// request.
    fn licensee(&mut self, req: &HttpRequest, cx: &mut DriverCx<'_>) -> Answer {
        let name = req.path["/licensee/".len()..].to_string();
        if name.is_empty() || name.contains('/') {
            return html_error(404, "expected /licensee/{name}");
        }
        let date = match query(req, "date") {
            None => default_date(),
            Some(raw) => match Date::parse_iso(raw) {
                Ok(date) => date,
                Err(_) => return html_error(400, &format!("bad date {raw:?} (want YYYY-MM-DD)")),
            },
        };
        self.submit(
            Request::Network {
                licensee: name.clone(),
                date,
            },
            Finish::Licensee { name, date },
            cx,
        )
    }

    /// `GET /race/{from}/{to}?licensee=&date=&constellation=&samples=&seed=`
    /// — pooled through a wire `race` request; the page renders
    /// entirely from the wire response, so its numbers are exactly the
    /// served-bytes numbers.
    fn race(&mut self, req: &HttpRequest, cx: &mut DriverCx<'_>) -> Answer {
        let rest = &req.path["/race/".len()..];
        let mut parts = rest.split('/');
        let (from, to) = match (parts.next(), parts.next(), parts.next()) {
            (Some(from), Some(to), None) if !from.is_empty() && !to.is_empty() => (from, to),
            _ => return html_error(404, "expected /race/{from}/{to}"),
        };
        let licensee = query(req, "licensee")
            .unwrap_or("New Line Networks")
            .to_string();
        let date = match query(req, "date") {
            None => default_date(),
            Some(raw) => match Date::parse_iso(raw) {
                Ok(date) => date,
                Err(_) => return html_error(400, &format!("bad date {raw:?} (want YYYY-MM-DD)")),
            },
        };
        let constellation = query(req, "constellation")
            .unwrap_or("starlink")
            .to_string();
        let samples = match query(req, "samples").map(str::parse::<usize>) {
            None => 2000,
            Some(Ok(s)) if (1..=1_000_000).contains(&s) => s,
            Some(_) => return html_error(400, "bad samples (want 1..=1000000)"),
        };
        let seed = match query(req, "seed").map(str::parse::<u64>) {
            None => 0,
            Some(Ok(s)) => s,
            Some(Err(_)) => return html_error(400, "bad seed"),
        };
        self.submit(
            Request::Race {
                licensee: licensee.clone(),
                date,
                from: from.to_string(),
                to: to.to_string(),
                constellation,
                samples,
                seed,
            },
            Finish::Race { licensee, date },
            cx,
        )
    }

    /// `GET /funnel?radius_km=&min_filings=` — pooled through a wire
    /// `shortlist` request anchored at the CME reference point.
    fn funnel(&mut self, req: &HttpRequest, cx: &mut DriverCx<'_>) -> Answer {
        let radius_km = match query(req, "radius_km").map(str::parse::<f64>) {
            None => 10.0,
            Some(Ok(r)) if r.is_finite() && r > 0.0 => r,
            Some(_) => return html_error(400, "bad radius_km"),
        };
        let min_filings = match query(req, "min_filings").map(str::parse::<usize>) {
            None => 11,
            Some(Ok(m)) => m,
            Some(Err(_)) => return html_error(400, "bad min_filings"),
        };
        let reference = CME.position();
        self.submit(
            Request::Shortlist {
                lat_deg: reference.lat_deg(),
                lon_deg: reference.lon_deg(),
                radius_km,
                min_filings,
            },
            Finish::Funnel {
                radius_km,
                min_filings,
            },
            cx,
        )
    }

    /// `GET /evolution` — year-end active-count sparklines. The counts
    /// are cheap membership filters, so this renders on the loop.
    fn evolution(&self) -> Answer {
        let years: Vec<i32> = EVOLUTION_YEARS.collect();
        let mut rows: Vec<(String, Vec<usize>)> = Vec::new();
        for engine in self.router.engines() {
            let session = engine.session();
            // Shards partition at licensee granularity, so rows from
            // different shards never collide.
            for name in session.db().licensees() {
                let counts: Vec<usize> = years
                    .iter()
                    .map(|&y| {
                        let eoy = Date::new(y, 12, 31).expect("valid year end");
                        session.active_count(name, eoy)
                    })
                    .collect();
                if counts.iter().any(|&c| c > 0) {
                    rows.push((name.to_string(), counts));
                }
            }
        }
        rows.sort_by(|a, b| {
            let (fa, fb) = (a.1.last().copied(), b.1.last().copied());
            fb.cmp(&fa).then_with(|| a.0.cmp(&b.0))
        });
        rows.truncate(EVOLUTION_MAX_ROWS);
        html_ok(pages::evolution_page(&years, &rows))
    }

    /// `POST /api` — the wire request surface over HTTP. Telemetry
    /// requests bypass the queue exactly as the wire transport does;
    /// `shutdown` is refused.
    fn api(&mut self, req: &HttpRequest, cx: &mut DriverCx<'_>) -> Answer {
        let request = match Request::decode(&req.body) {
            Ok(request) => request,
            Err(message) => {
                return json_answer(
                    400,
                    Response::Error {
                        message: format!("bad request: {message}"),
                    },
                );
            }
        };
        match request.dispatch() {
            Dispatch::Shutdown => json_answer(
                403,
                Response::Error {
                    message: "shutdown is not permitted over http".to_string(),
                },
            ),
            Dispatch::Telemetry => {
                let (status, content_type, body) =
                    self.finish(&Finish::Api, cx.answer_inline(&request));
                Answer::Now {
                    status,
                    content_type,
                    body,
                }
            }
            Dispatch::Point(_) | Dispatch::Scatter => self.submit(request, Finish::Api, cx),
        }
    }

    /// Admit a wire request to the worker pool on this request's behalf.
    fn submit(&mut self, request: Request, finish: Finish, cx: &mut DriverCx<'_>) -> Answer {
        match cx.submit(request) {
            Ok(slot) => Answer::Pooled { slot, finish },
            Err(SubmitError::Overloaded) => match finish {
                Finish::Api => json_answer(503, Response::Overloaded),
                _ => html_error(503, "admission queue is full; retry shortly"),
            },
            Err(SubmitError::Closed) => {
                self.closed = true;
                match finish {
                    Finish::Api => json_answer(503, Response::ShuttingDown),
                    _ => html_error(503, "server is shutting down"),
                }
            }
        }
    }

    /// Render a filled slot per its finish plan.
    fn finish(&self, finish: &Finish, response: Response) -> (u16, &'static str, Vec<u8>) {
        match finish {
            Finish::Api => {
                let status = match &response {
                    Response::Error { .. } => 400,
                    Response::Overloaded | Response::ShuttingDown => 503,
                    _ => 200,
                };
                (status, JSON_CONTENT_TYPE, response.encode())
            }
            Finish::Licensee { name, date } => match response {
                Response::Network {
                    towers,
                    links,
                    active_licenses,
                    ..
                } => {
                    if towers == 0 && links == 0 && active_licenses == 0 {
                        let body = pages::error_page(
                            404,
                            &format!("no licenses filed under {name:?} as of {}", date.to_iso()),
                        );
                        return (404, HTML_CONTENT_TYPE, body.into_bytes());
                    }
                    let markers = [
                        ("CME", CME.position()),
                        ("NY4", EQUINIX_NY4.position()),
                        ("NYSE", NYSE.position()),
                        ("NASDAQ", NASDAQ.position()),
                    ];
                    // The pooled request just reconstructed this network
                    // in the owning engine: cache hit.
                    let engine = self.router.shards()[self.router.owner(name)].engine();
                    let network = engine.session().network(name, *date);
                    let svg = hft_viz::svgmap::network_to_svg(&network, &markers);
                    let body = pages::licensee_page(
                        name,
                        &date.to_iso(),
                        engine.generation(),
                        towers,
                        links,
                        active_licenses,
                        &svg,
                    );
                    (200, HTML_CONTENT_TYPE, body.into_bytes())
                }
                Response::Error { message } => {
                    let body = pages::error_page(400, &message);
                    (400, HTML_CONTENT_TYPE, body.into_bytes())
                }
                _ => {
                    let body = pages::error_page(503, "engine unavailable");
                    (503, HTML_CONTENT_TYPE, body.into_bytes())
                }
            },
            Finish::Funnel {
                radius_km,
                min_filings,
            } => match response {
                Response::Shortlist {
                    geographic_candidates,
                    service_filtered,
                    shortlisted,
                    names,
                } => {
                    let body = pages::funnel_page(
                        *radius_km,
                        *min_filings,
                        geographic_candidates,
                        service_filtered,
                        shortlisted,
                        &names,
                    );
                    (200, HTML_CONTENT_TYPE, body.into_bytes())
                }
                Response::Error { message } => {
                    let body = pages::error_page(400, &message);
                    (400, HTML_CONTENT_TYPE, body.into_bytes())
                }
                _ => {
                    let body = pages::error_page(503, "engine unavailable");
                    (503, HTML_CONTENT_TYPE, body.into_bytes())
                }
            },
            Finish::Race { licensee, date } => match response {
                Response::Race {
                    from,
                    to,
                    constellation,
                    geodesic_km,
                    c_bound_ms,
                    microwave_ms,
                    fiber_ms,
                    leo_ms,
                    leo_isl_hops,
                    mw_stretch,
                    fiber_stretch,
                    leo_stretch,
                    winner,
                    wx_p50_ms,
                    wx_p99_ms,
                    wx_availability,
                    wx_samples,
                    ..
                } => {
                    let body = pages::race_page(&pages::RaceView {
                        licensee: licensee.clone(),
                        date_iso: date.to_iso(),
                        from,
                        to,
                        constellation,
                        geodesic_km,
                        c_bound_ms,
                        microwave_ms,
                        fiber_ms,
                        leo_ms,
                        leo_isl_hops,
                        mw_stretch,
                        fiber_stretch,
                        leo_stretch,
                        winner,
                        wx_availability,
                        wx_p50_ms,
                        wx_p99_ms,
                        wx_samples,
                    });
                    (200, HTML_CONTENT_TYPE, body.into_bytes())
                }
                Response::Error { message } => {
                    let body = pages::error_page(400, &message);
                    (400, HTML_CONTENT_TYPE, body.into_bytes())
                }
                _ => {
                    let body = pages::error_page(503, "engine unavailable");
                    (503, HTML_CONTENT_TYPE, body.into_bytes())
                }
            },
        }
    }
}

impl ConnDriver for HttpConn<'_> {
    fn on_bytes(&mut self, bytes: &[u8], cx: &mut DriverCx<'_>) {
        if self.closed {
            return; // a close-marked exchange is queued; drop the rest
        }
        self.parser.feed(bytes);
        loop {
            if self.closed || cx.closing() {
                return;
            }
            match self.parser.next() {
                Ok(Some(request)) => self.handle_request(request, cx),
                Ok(None) => return,
                Err(e) => {
                    hft_obs::global()
                        .counter_with("http.requests", "route", "error")
                        .incr();
                    let stats = cx.handler().serve_stats();
                    stats.on_received();
                    stats.on_completed(true);
                    let body = pages::error_page(e.status(), &e.to_string());
                    self.push(
                        Answer::Now {
                            status: e.status(),
                            content_type: HTML_CONTENT_TYPE,
                            body: body.into_bytes(),
                        },
                        false,
                        false,
                        "error",
                        Instant::now(),
                    );
                    return;
                }
            }
        }
    }

    fn on_eof(&mut self, _cx: &mut DriverCx<'_>) {
        // A partial request at EOF is dropped; queued answers flush.
    }

    fn pump(&mut self, cx: &mut DriverCx<'_>) {
        loop {
            let Some(entry) = self.outq.pop_front() else {
                return;
            };
            let (status, content_type, body) = match entry.answer {
                Answer::Now {
                    status,
                    content_type,
                    body,
                } => (status, content_type, body),
                Answer::Pooled { slot, finish } => match slot.try_take() {
                    Some(response) => self.finish(&finish, response),
                    None => {
                        // Not filled yet: later answers must wait (order).
                        self.outq.push_front(OutEntry {
                            answer: Answer::Pooled { slot, finish },
                            keep_alive: entry.keep_alive,
                            head_only: entry.head_only,
                            route: entry.route,
                            started: entry.started,
                        });
                        return;
                    }
                },
            };
            red_done(entry.route, status, entry.started);
            let mut buf = cx.buf();
            write_response(
                &mut buf,
                status,
                content_type,
                &body,
                entry.keep_alive,
                entry.head_only,
            );
            cx.send(buf);
            if !entry.keep_alive {
                cx.close_after_flush();
                return;
            }
        }
    }

    fn idle(&self) -> bool {
        self.outq.is_empty()
    }
}

/// First query value under `key`.
fn query<'r>(req: &'r HttpRequest, key: &str) -> Option<&'r str> {
    req.query
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn html_ok(body: String) -> Answer {
    Answer::Now {
        status: 200,
        content_type: HTML_CONTENT_TYPE,
        body: body.into_bytes(),
    }
}

fn html_error(status: u16, detail: &str) -> Answer {
    Answer::Now {
        status,
        content_type: HTML_CONTENT_TYPE,
        body: pages::error_page(status, detail).into_bytes(),
    }
}

fn json_answer(status: u16, response: Response) -> Answer {
    Answer::Now {
        status,
        content_type: JSON_CONTENT_TYPE,
        body: response.encode(),
    }
}

/// `GET /metrics` — Prometheus text exposition of the global registry.
fn metrics_answer() -> Answer {
    let snapshot = hft_obs::global().snapshot();
    Answer::Now {
        status: 200,
        content_type: PROMETHEUS_CONTENT_TYPE,
        body: hft_obs::expo::render_prometheus(&snapshot).into_bytes(),
    }
}

/// Close the RED loop for one exchange: error count and duration, both
/// labeled by route. (`http.requests{route=}` — the R — is counted at
/// dispatch in `handle_request`.)
fn red_done(route: &'static str, status: u16, started: Instant) {
    let registry = hft_obs::global();
    if status >= 400 {
        registry.counter_with("http.errors", "route", route).incr();
    }
    registry
        .histogram(&hft_obs::registry::labeled(
            "http.duration_ns",
            "route",
            route,
        ))
        .record(started.elapsed().as_nanos() as u64);
}

/// `GET /traces` — the flight recorder's index, slowest first; a
/// registry snapshot-style read, so it renders on the loop.
fn traces_answer() -> Answer {
    let records = hft_obs::trace_snapshot(50);
    html_ok(pages::traces_page(&records))
}

/// `GET /trace/{id}` — one captured trace as a cross-shard waterfall.
fn trace_answer(path: &str) -> Answer {
    let raw = &path["/trace/".len()..];
    let Some(id) = hft_obs::parse_trace_id(raw) else {
        return html_error(404, &format!("bad trace id {raw:?} (want hex digits)"));
    };
    match hft_obs::find_trace(id) {
        Some(record) => html_ok(pages::trace_page(&record)),
        None => html_error(
            404,
            &format!("no captured trace {raw} (the flight recorder is a bounded ring)"),
        ),
    }
}

/// `GET /dashboard` — the same registry as HTML.
fn dashboard_answer() -> Answer {
    let snapshot = hft_obs::global().snapshot();
    Answer::Now {
        status: 200,
        content_type: HTML_CONTENT_TYPE,
        body: pages::dashboard_page(&snapshot).into_bytes(),
    }
}
