//! The typed query surface: every request the service answers and every
//! response it produces, declared once for both wire encodings.
//!
//! The variants cover the paper's query mix end to end — the §2.1 portal
//! searches, the §2.2 shortlist funnel, snapshot reconstruction
//! ([`Request::Network`]), per-pair route/APA (Tables 1–3), the §5
//! weather Monte Carlo and the §6 latency races — plus `stats`,
//! `metrics` and `traces` (observability) and `shutdown` (graceful
//! drain).
//!
//! The two enums below are the codec's one table: each variant names
//! its binary tag and JSON `type`, then its fields in wire order, and
//! the `wire_enum!` macro (in `codec.rs`) generates the JSON codec
//! ([`Request::to_json`], [`Request::decode`], ...) and the binary one
//! ([`crate::binwire`]) from it. Adding a request is one entry here, one
//! [`Request::dispatch`] arm and a handler arm. Encoding is
//! deterministic: one canonical key order per variant, so two encodings
//! of equal values are byte-identical and the load harness can diff
//! served bytes against locally computed ones.

use crate::codec::{wire_enum, wire_struct, Field, Latency};
use crate::json::Json;
use crate::stats::ServeSnapshot;
use hft_core::session::StatsSnapshot;
use hft_time::Date;

wire_enum! {
    /// A query, as submitted by a client (wire) or caller (in-process).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request ("request") {
        /// §2.1 "Geographic Search": license ids with any site within
        /// `radius_km` of a point.
        Geographic = 0x01, "geographic" {
            /// Search-center latitude, degrees.
            lat_deg: f64,
            /// Search-center longitude, degrees.
            lon_deg: f64,
            /// Search radius, km.
            radius_km: f64,
        },
        /// §2.1 "Site License Search": license ids by service + class code.
        SiteSearch = 0x02, "site_search" {
            /// Radio service code (e.g. `MG`).
            service: String,
            /// Station class code (e.g. `FXO`).
            class: String,
        },
        /// §2.2 scrape funnel: the shortlist around a reference point.
        Shortlist = 0x03, "shortlist" {
            /// Reference latitude, degrees.
            lat_deg: f64,
            /// Reference longitude, degrees.
            lon_deg: f64,
            /// Geographic-search radius, km.
            radius_km: f64,
            /// Minimum filings to stay shortlisted.
            min_filings: usize,
        },
        /// A licensee's reconstructed network summary as of a date.
        Network = 0x04, "network" {
            /// Licensee name (exact).
            licensee: String,
            /// As-of date.
            date: Date,
        },
        /// Lowest-latency route between two data centers as of a date.
        Route = 0x05, "route" {
            /// Licensee name.
            licensee: String,
            /// As-of date.
            date: Date,
            /// Origin data-center code (`CME`, `NY4`, `NYSE`, `NASDAQ`).
            from: String,
            /// Destination data-center code.
            to: String,
        },
        /// Alternate path availability between two data centers.
        Apa = 0x06, "apa" {
            /// Licensee name.
            licensee: String,
            /// As-of date.
            date: Date,
            /// Origin data-center code.
            from: String,
            /// Destination data-center code.
            to: String,
        },
        /// The §5 weather Monte Carlo (stormy-season sampler).
        Weather = 0x07, "weather" {
            /// Licensee name.
            licensee: String,
            /// As-of date.
            date: Date,
            /// Origin data-center code.
            from: String,
            /// Destination data-center code.
            to: String,
            /// Weather states to sample.
            samples: usize,
            /// RNG seed (deterministic outcomes per seed).
            seed: u64,
        },
        /// A cross-substrate latency race between two data centers: the
        /// licensee's corpus-reconstructed microwave route vs fiber vs a
        /// LEO constellation vs the vacuum geodesic limit, with
        /// weather-adjusted availability windows on the microwave leg.
        Race = 0x0b, "race" {
            /// Licensee whose corpus network runs the microwave leg.
            licensee: String,
            /// As-of date.
            date: Date,
            /// Origin data-center code.
            from: String,
            /// Destination data-center code.
            to: String,
            /// LEO constellation name (`starlink`).
            constellation: String,
            /// Weather states to sample on the microwave leg.
            samples: usize,
            /// RNG seed (deterministic outcomes per seed).
            seed: u64,
        },
        /// Sweep the standard segment set (corridor pairs + the §6
        /// transoceanic segments) and reduce each race to stretch factors
        /// vs the vacuum bound — the input of the stretch-CDF figure.
        StretchSweep = 0x0c, "stretch_sweep" {
            /// Licensee whose corpus network runs the corridor microwave legs.
            licensee: String,
            /// As-of date.
            date: Date,
            /// LEO constellation name (`starlink`).
            constellation: String,
        },
        /// Server + session counters.
        Stats = 0x08, "stats",
        /// The full process-wide telemetry registry (counters, gauges,
        /// latency histograms) in its deterministic JSON form.
        Metrics = 0x09, "metrics",
        /// Captured request traces from the flight recorder: the slowest
        /// `limit` records, or one exact trace by id.
        Traces = 0x0d, "traces" {
            /// Maximum records to return (slowest first; JSON default 16).
            limit: usize = 16,
            /// Fetch one specific trace instead of the slowest set.
            trace_id: Option<u128>,
        },
        /// Graceful shutdown: stop accepting, drain, dump stats.
        Shutdown = 0x0a, "shutdown",
    }
}

wire_enum! {
    /// An answer. `Error` carries a human-readable reason; `Overloaded` is
    /// the admission-queue backpressure rejection (never an error in the
    /// protocol sense — the client may retry).
    ///
    /// Optional `f64` fields are written as absent when non-finite.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response ("response") {
        /// License ids, in portal result order.
        Licenses = 0x01, "licenses" {
            /// Matching license ids.
            ids: Vec<u64>,
        },
        /// The §2.2 funnel outcome.
        Shortlist = 0x02, "shortlist" {
            /// Licensees with any license in the search region.
            geographic_candidates: u64,
            /// Licensees surviving the MG/FXO filter.
            service_filtered: u64,
            /// Licensees surviving the volume filter.
            shortlisted: u64,
            /// The shortlisted names, sorted.
            names: Vec<String>,
        },
        /// Network summary (counts, not the full graph — use the CLI's YAML
        /// dump for geometry).
        Network = 0x03, "network" {
            /// Licensee name.
            licensee: String,
            /// The exact requested as-of date.
            as_of: Date,
            /// Towers in the reconstructed network.
            towers: u64,
            /// Microwave links.
            links: u64,
            /// Licenses active on the as-of date.
            active_licenses: u64,
        },
        /// Route answer; all fields `None` when not connected.
        Route = 0x04, "route" {
            /// One-way latency, ms.
            latency_ms: Option<f64>,
            /// Towers traversed.
            towers: Option<u64>,
            /// Total path length, m.
            length_m: Option<f64>,
        },
        /// APA answer; `None` when not connected.
        Apa = 0x05, "apa" {
            /// Alternate-path availability, fraction.
            apa: Option<f64>,
        },
        /// Weather Monte Carlo outcome. Percentiles can be `+∞` (encoded as
        /// JSON `null`) when the network is down in that tail.
        Weather = 0x06, "weather" {
            /// Clear-sky latency, ms.
            clear_ms: f64 as Latency,
            /// Median conditional latency, ms.
            p50_ms: f64 as Latency,
            /// 95th-percentile conditional latency, ms.
            p95_ms: f64 as Latency,
            /// 99th-percentile conditional latency, ms.
            p99_ms: f64 as Latency,
            /// Fraction of states with the network connected.
            availability: f64,
            /// States sampled.
            samples: u64,
        },
        /// One cross-substrate race. All latencies are one-way ms; the
        /// `wx_*` fields are the §5 weather Monte Carlo on the microwave
        /// leg — when no corpus route exists (`microwave_ms` is `null`) the
        /// weather block degrades to `wx_samples == 0`, availability `0`,
        /// and `+∞` percentiles (encoded as JSON `null`).
        Race = 0x0c, "race" {
            /// Origin data-center code.
            from: String,
            /// Destination data-center code.
            to: String,
            /// Constellation raced on the LEO leg.
            constellation: String,
            /// Geodesic distance, km.
            geodesic_km: f64,
            /// Vacuum geodesic limit, ms.
            c_bound_ms: f64,
            /// Corpus microwave leg, ms (`None` when unroutable).
            microwave_ms: Option<f64>,
            /// Fiber leg, ms.
            fiber_ms: f64,
            /// LEO leg, ms (`None` when the constellation cannot route it).
            leo_ms: Option<f64>,
            /// Inter-satellite hops on the LEO leg.
            leo_isl_hops: Option<u64>,
            /// Microwave stretch factor vs the vacuum bound.
            mw_stretch: Option<f64>,
            /// Fiber stretch factor.
            fiber_stretch: f64,
            /// LEO stretch factor.
            leo_stretch: Option<f64>,
            /// The winning substrate (`microwave`, `LEO` or `fiber`).
            winner: String,
            /// Clear-sky microwave latency, ms (`+∞` when no weather run).
            wx_clear_ms: f64 as Latency,
            /// Median weather-conditional latency, ms.
            wx_p50_ms: f64 as Latency,
            /// 95th-percentile weather-conditional latency, ms.
            wx_p95_ms: f64 as Latency,
            /// 99th-percentile weather-conditional latency, ms.
            wx_p99_ms: f64 as Latency,
            /// Fraction of weather states with the microwave leg connected.
            wx_availability: f64,
            /// Weather states sampled (`0` when no weather run).
            wx_samples: u64,
        },
        /// The stretch-factor sweep, one entry per swept segment.
        StretchSweep = 0x0d, "stretch_sweep" {
            /// Swept segments in deterministic order.
            entries: Vec<SweepEntry>,
        },
        /// Serve + session counters.
        Stats = 0x07, "stats" {
            /// The serving layer's counters.
            serve: ServeSnapshot,
            /// The analysis session's cache counters.
            session: StatsSnapshot,
        },
        /// The telemetry registry snapshot, as the deterministic JSON object
        /// `{"counters":{...},"gauges":{...},"histograms":{...}}` rendered
        /// by `hft_obs::expo::render_json`.
        Metrics = 0x08, "metrics" {
            /// The registry object (sorted names, fixed summary key order).
            registry: Json,
        },
        /// Flight-recorder traces, slowest first.
        Traces = 0x0e, "traces" {
            /// The captured traces.
            traces: Vec<WireTrace>,
        },
        /// The request could not be served (unknown licensee field values,
        /// malformed frame, bad date, ...).
        Error = 0x09, "error" {
            /// Why.
            message: String,
        },
        /// Admission queue full — backpressure, retry later.
        Overloaded = 0x0a, "overloaded",
        /// Acknowledgement of [`Request::Shutdown`].
        ShuttingDown = 0x0b, "shutting_down",
    }
}

wire_struct! { SweepEntry { pair, geodesic_km, mw_stretch, fiber_stretch, leo_stretch } }
wire_struct! { WireSpan { name, parent, start_ns, dur_ns, shard } }
wire_struct! {
    ServeSnapshot {
        received, accepted, rejected_overloaded, completed, errors, flights_led,
        flights_coalesced, queue_wait_ns_total, queue_wait_ns_max, service_ns_total,
        service_ns_max, queue_high_water,
        // Absent in frames from pre-live servers.
        generation_swaps = 0,
    }
}
wire_struct! {
    StatsSnapshot {
        network_hits, reconstructions, route_hits, route_misses, apa_hits, apa_misses,
        graph_hits, graph_misses,
    }
}

/// One [`Response::StretchSweep`] segment, reduced to stretch factors
/// vs the vacuum geodesic bound.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepEntry {
    /// Segment name, `FROM-TO`.
    pub pair: String,
    /// Geodesic distance, km.
    pub geodesic_km: f64,
    /// Microwave stretch (`None` when unroutable/infeasible).
    pub mw_stretch: Option<f64>,
    /// Fiber stretch.
    pub fiber_stretch: f64,
    /// LEO stretch (`None` when unroutable).
    pub leo_stretch: Option<f64>,
}

/// One captured trace in its wire form: a [`Response::Traces`] entry.
/// Mirrors `hft_obs::TraceRecord` with owned strings so it survives
/// decoding on the client side.
#[derive(Debug, Clone, PartialEq)]
pub struct WireTrace {
    /// 128-bit trace id.
    pub trace_id: u128,
    /// Request kind that produced the trace (e.g. `shortlist`).
    pub label: String,
    /// Kept by head sampling.
    pub sampled: bool,
    /// Kept by tail capture (over the slow threshold).
    pub slow: bool,
    /// Root duration, ns.
    pub total_ns: u64,
    /// The span tree, preorder, root first.
    pub spans: Vec<WireSpan>,
}

/// One span of a [`WireTrace`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireSpan {
    /// Span name (dotted taxonomy).
    pub name: String,
    /// Parent index within the trace; `None` for the root.
    pub parent: Option<u32>,
    /// Start offset from the root, ns.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Shard the span ran against, when shard-addressed.
    pub shard: Option<u32>,
}

impl WireTrace {
    /// Build the wire form of a flight-recorder record.
    pub fn of(rec: &hft_obs::TraceRecord) -> WireTrace {
        WireTrace {
            trace_id: rec.trace_id,
            label: rec.label.to_string(),
            sampled: rec.sampled,
            slow: rec.slow,
            total_ns: rec.total_ns,
            spans: rec
                .tree
                .spans
                .iter()
                .map(|s| WireSpan {
                    name: s.name.to_string(),
                    parent: s.parent,
                    start_ns: s.start_ns,
                    dur_ns: s.dur_ns,
                    shard: s.shard,
                })
                .collect(),
        }
    }

    /// A text waterfall for terminals: header line, then one indented
    /// line per span with offset, duration and shard tag.
    pub fn render(&self) -> String {
        use hft_obs::span::format_ns;
        let mut out = format!(
            "trace {} {} {}{}{}\n",
            hft_obs::format_trace_id(self.trace_id),
            self.label,
            format_ns(self.total_ns),
            if self.slow { " SLOW" } else { "" },
            if self.sampled { " sampled" } else { "" },
        );
        let mut depth = vec![0usize; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                if let Some(d) = depth.get(p as usize).copied() {
                    depth[i] = d + 1;
                }
            }
            out.push_str("  ");
            for _ in 0..depth[i] {
                out.push_str("  ");
            }
            out.push_str(&format!(
                "{} +{} {}",
                s.name,
                format_ns(s.start_ns),
                format_ns(s.dur_ns)
            ));
            if let Some(shard) = s.shard {
                out.push_str(&format!(" [shard {shard}]"));
            }
            out.push('\n');
        }
        out
    }
}

/// Trace flag bits, packed into one byte on the binary wire.
const TRACE_FLAG_SAMPLED: u8 = 0b01;
const TRACE_FLAG_SLOW: u8 = 0b10;

/// Written by hand rather than by [`wire_struct!`]: JSON carries
/// `sampled` and `slow` as booleans, binary packs them into one flags
/// byte.
impl Field for WireTrace {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("trace_id".into(), self.trace_id.to_json()),
            ("label".into(), self.label.to_json()),
            ("sampled".into(), Json::Bool(self.sampled)),
            ("slow".into(), Json::Bool(self.slow)),
            ("total_ns".into(), self.total_ns.to_json()),
            ("spans".into(), self.spans.to_json()),
        ])
    }

    fn from_json(v: Option<&Json>, key: &str) -> Result<WireTrace, String> {
        let v = crate::codec::object(v, key)?;
        let flag = |k: &str| match v.get(k) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("missing or non-boolean field {k:?}")),
        };
        Ok(WireTrace {
            trace_id: Field::from_json(v.get("trace_id"), "trace_id")?,
            label: Field::from_json(v.get("label"), "label")?,
            sampled: flag("sampled")?,
            slow: flag("slow")?,
            total_ns: Field::from_json(v.get("total_ns"), "total_ns")?,
            spans: Field::from_json(v.get("spans"), "spans")?,
        })
    }

    fn put(&self, buf: &mut Vec<u8>) {
        self.trace_id.put(buf);
        self.label.put(buf);
        let sampled = if self.sampled { TRACE_FLAG_SAMPLED } else { 0 };
        let slow = if self.slow { TRACE_FLAG_SLOW } else { 0 };
        buf.push(sampled | slow);
        self.total_ns.put(buf);
        self.spans.put(buf);
    }

    fn get(cur: &mut crate::binwire::Cur<'_>) -> Result<WireTrace, crate::binwire::DecodeError> {
        let trace_id = Field::get(cur)?;
        let label = Field::get(cur)?;
        let flags = cur.u8()?;
        Ok(WireTrace {
            trace_id,
            label,
            sampled: flags & TRACE_FLAG_SAMPLED != 0,
            slow: flags & TRACE_FLAG_SLOW != 0,
            total_ns: Field::get(cur)?,
            spans: Field::get(cur)?,
        })
    }
}

/// Where a request is answered: the one routing decision, which every
/// dispatcher (the shard router, the wire loop, `POST /api`, the load
/// harness's attribution) reads from [`Request::dispatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch<'a> {
    /// Process-wide counters, registry or flight recorder: answered on
    /// the event loop, bypassing the admission queue, so it works
    /// precisely when the queue is full.
    Telemetry,
    /// Stop accepting, drain, and dump the serving counters.
    Shutdown,
    /// A question about one licensee's filings: only the shard that
    /// owns the licensee can answer it.
    Point(&'a str),
    /// A question about the whole corpus: every shard answers its piece
    /// and the router merges the answers.
    Scatter,
}

impl Request {
    /// The request's wire type name (`geographic`, `traces`, ...): the
    /// label used on trace records and per-kind metrics.
    pub fn kind(&self) -> &'static str {
        self.wire_type()
    }

    /// How this request is routed. One arm per variant and no wildcard,
    /// so a new request cannot compile until it has a route.
    pub fn dispatch(&self) -> Dispatch<'_> {
        match self {
            Request::Stats | Request::Metrics | Request::Traces { .. } => Dispatch::Telemetry,
            Request::Shutdown => Dispatch::Shutdown,
            Request::Network { licensee, .. }
            | Request::Route { licensee, .. }
            | Request::Apa { licensee, .. }
            | Request::Weather { licensee, .. }
            | Request::Race { licensee, .. }
            | Request::StretchSweep { licensee, .. } => Dispatch::Point(licensee),
            Request::Geographic { .. } | Request::SiteSearch { .. } | Request::Shortlist { .. } => {
                Dispatch::Scatter
            }
        }
    }
}
