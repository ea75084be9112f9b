//! HTML page rendering: the explorer's read-only views over the
//! corpus and the live registry.
//!
//! Styling follows the Tufte notes referenced by the roadmap: maximize
//! data-ink (no chrome beyond a header line), small multiples for
//! cross-network comparison (per-licensee sparklines on the evolution
//! page), and inline SVG so every page is one self-contained response
//! with zero subresource fetches.

use hft_obs::RegistrySnapshot;
use std::fmt::Write;

/// The content type every HTML page is served under.
pub const HTML_CONTENT_TYPE: &str = "text/html; charset=utf-8";

/// Escape text for HTML element content and attribute values.
pub fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            c => out.push(c),
        }
    }
    out
}

/// Percent-encode a licensee name for use in a path segment.
pub fn encode_path_segment(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char);
            }
            b => {
                let _ = write!(out, "%{b:02X}");
            }
        }
    }
    out
}

/// The shared page shell: one title line, a nav row, the body.
fn page(title: &str, body: &str) -> String {
    format!(
        concat!(
            "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">",
            "<title>{title} · hftnetview</title>",
            "<style>",
            "body{{font-family:Georgia,serif;max-width:72rem;margin:1.5rem auto;padding:0 1rem;color:#111}}",
            "nav a{{margin-right:1rem;color:#8a3324}}",
            "h1{{font-size:1.4rem;font-weight:normal;border-bottom:1px solid #999;padding-bottom:.3rem}}",
            "table{{border-collapse:collapse}}",
            "td,th{{padding:.15rem .8rem .15rem 0;text-align:left;font-variant-numeric:tabular-nums}}",
            "th{{font-weight:normal;border-bottom:1px solid #ccc}}",
            "svg{{max-width:100%}}",
            ".dim{{color:#666;font-size:.85rem}}",
            "</style></head><body>",
            "<nav><a href=\"/\">corpus</a><a href=\"/funnel\">funnel</a>",
            "<a href=\"/evolution\">evolution</a><a href=\"/dashboard\">dashboard</a>",
            "<a href=\"/traces\">traces</a><a href=\"/metrics\">metrics</a></nav>",
            "<h1>{title}</h1>\n{body}</body></html>\n"
        ),
        title = html_escape(title),
        body = body,
    )
}

/// One corpus index row.
pub struct CorpusRow {
    /// The filed licensee name.
    pub name: String,
    /// Licenses filed under the name.
    pub licenses: usize,
}

/// `GET /` — the corpus index: every licensee with a link to its
/// network page, plus the fleet's generation vector.
pub fn index_page(generations: &[u64], rows: &[CorpusRow]) -> String {
    let total: usize = rows.iter().map(|r| r.licenses).sum();
    let gens = generations
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let mut body = format!(
        "<p class=\"dim\">{} licensees · {} licenses · {} shard{} · generation [{}]</p>\n\
         <table><tr><th>licensee</th><th>licenses</th></tr>\n",
        rows.len(),
        total,
        generations.len(),
        if generations.len() == 1 { "" } else { "s" },
        gens,
    );
    for row in rows {
        let _ = writeln!(
            body,
            "<tr><td><a href=\"/licensee/{}\">{}</a></td><td>{}</td></tr>",
            encode_path_segment(&row.name),
            html_escape(&row.name),
            row.licenses,
        );
    }
    body.push_str("</table>\n");
    page("Microwave corpus", &body)
}

/// `GET /licensee/{name}` — one network as of a date: headline counts
/// plus the inline corridor map from `hft-viz`.
pub fn licensee_page(
    name: &str,
    date_iso: &str,
    generation: u64,
    towers: u64,
    links: u64,
    active: u64,
    svg: &str,
) -> String {
    let body = format!(
        "<p class=\"dim\">as of {} · generation {} · \
         <a href=\"/licensee/{}?date=2016-06-01\">2016</a> \
         <a href=\"/licensee/{}?date=2020-04-01\">2020</a></p>\n\
         <table><tr><th>towers</th><th>links</th><th>active licenses</th></tr>\n\
         <tr><td>{towers}</td><td>{links}</td><td>{active}</td></tr></table>\n{svg}",
        html_escape(date_iso),
        generation,
        encode_path_segment(name),
        encode_path_segment(name),
    );
    page(name, &body)
}

/// `GET /funnel` — the §2.2 scrape funnel as a data-ink bar chart:
/// three counts, bar lengths proportional, shortlist names below.
pub fn funnel_page(
    radius_km: f64,
    min_filings: usize,
    geographic: u64,
    filtered: u64,
    shortlisted: u64,
    names: &[String],
) -> String {
    let max = geographic.max(1);
    let mut body = format!(
        "<p class=\"dim\">radius {radius_km} km · ≥ {min_filings} MG/FXO filings · \
         <a href=\"/funnel?radius_km=50&amp;min_filings=2\">wide</a> \
         <a href=\"/funnel\">paper</a></p>\n<table>\n"
    );
    for (label, n) in [
        ("geographic candidates", geographic),
        ("service filtered", filtered),
        ("shortlisted", shortlisted),
    ] {
        let w = 420.0 * n as f64 / max as f64;
        let _ = writeln!(
            body,
            "<tr><td>{label}</td><td>{n}</td><td><svg width=\"430\" height=\"14\">\
             <rect x=\"0\" y=\"2\" width=\"{w:.1}\" height=\"10\" fill=\"#8a3324\"/></svg></td></tr>"
        );
    }
    body.push_str("</table>\n<p>");
    let links: Vec<String> = names
        .iter()
        .map(|n| {
            format!(
                "<a href=\"/licensee/{}\">{}</a>",
                encode_path_segment(n),
                html_escape(n)
            )
        })
        .collect();
    body.push_str(&links.join(" · "));
    body.push_str("</p>\n");
    page("Scrape funnel", &body)
}

/// An inline sparkline: the small-multiples primitive of the evolution
/// page. Pure data-ink — one polyline, one terminal dot, no axes.
pub fn sparkline(values: &[f64], width: f64, height: f64) -> String {
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let lo = 0.0;
    let span = (hi - lo).max(1e-9);
    let n = values.len().max(2) - 1;
    let pts: Vec<String> = values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let x = 2.0 + (width - 4.0) * i as f64 / n as f64;
            let y = 2.0 + (height - 4.0) * (1.0 - (v - lo) / span);
            format!("{x:.1},{y:.1}")
        })
        .collect();
    let last = pts.last().cloned().unwrap_or_default();
    format!(
        "<svg width=\"{width:.0}\" height=\"{height:.0}\" viewBox=\"0 0 {width:.0} {height:.0}\">\
         <polyline points=\"{}\" fill=\"none\" stroke=\"#8a3324\" stroke-width=\"1.5\"/>\
         <circle cx=\"{}\" cy=\"{}\" r=\"2\" fill=\"#8a3324\"/></svg>",
        pts.join(" "),
        last.split(',').next().unwrap_or("0"),
        last.split(',').nth(1).unwrap_or("0"),
    )
}

/// `GET /evolution` — small multiples: one sparkline of active license
/// count per licensee over the sampled years, largest networks first.
pub fn evolution_page(years: &[i32], rows: &[(String, Vec<usize>)]) -> String {
    let first = years.first().copied().unwrap_or(0);
    let last = years.last().copied().unwrap_or(0);
    let mut body = format!(
        "<p class=\"dim\">active licenses at year end, {first}–{last}; \
         one row per licensee, shared x, independent y (small multiples)</p>\n\
         <table><tr><th>licensee</th><th>{first}</th><th>{last}</th><th></th></tr>\n"
    );
    for (name, counts) in rows {
        let values: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        let _ = writeln!(
            body,
            "<tr><td><a href=\"/licensee/{}\">{}</a></td><td>{}</td><td>{}</td><td>{}</td></tr>",
            encode_path_segment(name),
            html_escape(name),
            counts.first().copied().unwrap_or(0),
            counts.last().copied().unwrap_or(0),
            sparkline(&values, 180.0, 22.0),
        );
    }
    body.push_str("</table>\n");
    page("Network evolution", &body)
}

/// Everything the race page renders, flattened from the wire
/// `Response::Race` plus the request's identity fields.
pub struct RaceView {
    /// Licensee whose corpus supplied the microwave leg.
    pub licensee: String,
    /// Corpus snapshot date, ISO.
    pub date_iso: String,
    /// Origin site code.
    pub from: String,
    /// Destination site code.
    pub to: String,
    /// Constellation raced on the LEO leg.
    pub constellation: String,
    /// Geodesic distance, km.
    pub geodesic_km: f64,
    /// Vacuum geodesic limit, ms.
    pub c_bound_ms: f64,
    /// Corpus microwave leg, ms.
    pub microwave_ms: Option<f64>,
    /// Fiber leg, ms.
    pub fiber_ms: f64,
    /// LEO leg, ms.
    pub leo_ms: Option<f64>,
    /// Inter-satellite hops on the LEO leg.
    pub leo_isl_hops: Option<u64>,
    /// Microwave stretch vs the vacuum bound.
    pub mw_stretch: Option<f64>,
    /// Fiber stretch vs the vacuum bound.
    pub fiber_stretch: f64,
    /// LEO stretch vs the vacuum bound.
    pub leo_stretch: Option<f64>,
    /// The winning substrate.
    pub winner: String,
    /// Weather-MC availability of the microwave leg.
    pub wx_availability: f64,
    /// Weather-MC median latency, ms.
    pub wx_p50_ms: f64,
    /// Weather-MC p99 latency, ms.
    pub wx_p99_ms: f64,
    /// Weather-MC sample count (0 = no corpus microwave route).
    pub wx_samples: u64,
}

/// A milliseconds cell: `∞` for a disconnected/absent leg.
fn fmt_ms(ms: f64) -> String {
    if ms.is_finite() {
        format!("{ms:.3}")
    } else {
        "∞".to_string()
    }
}

/// The substrate comparison as an `hft-viz` chart: one flat bar-top
/// segment per substrate at its one-way latency, the vacuum bound in
/// grey underneath everything.
fn substrate_chart(v: &RaceView) -> String {
    let mut series = vec![hft_viz::chart::Series::dense(
        &format!("vacuum bound {:.3} ms", v.c_bound_ms),
        "#999999",
        vec![(0.55, v.c_bound_ms), (4.45, v.c_bound_ms)],
    )];
    let mut bar = |i: f64, label: String, color: &str, ms: f64| {
        series.push(hft_viz::chart::Series::dense(
            &label,
            color,
            vec![(i - 0.3, ms), (i + 0.3, ms)],
        ));
    };
    if let Some(ms) = v.microwave_ms {
        bar(1.0, format!("microwave {} ms", fmt_ms(ms)), "#8a3324", ms);
    }
    if let Some(ms) = v.leo_ms {
        bar(2.0, format!("LEO {} ms", fmt_ms(ms)), "#1f77b4", ms);
    }
    bar(
        3.0,
        format!("fiber {} ms", fmt_ms(v.fiber_ms)),
        "#666666",
        v.fiber_ms,
    );
    let cfg = hft_viz::chart::ChartConfig {
        title: format!("{} → {} · one-way latency by substrate", v.from, v.to),
        x_label: "substrate (1 microwave · 2 LEO · 3 fiber)".into(),
        y_label: "one-way latency (ms)".into(),
        width_px: 640.0,
        height_px: 360.0,
        y_range: None,
        x_range: Some((0.5, 4.5)),
    };
    hft_viz::chart::render(&cfg, &series)
}

/// `GET /race/{from}/{to}` — one cross-substrate latency race: the
/// verdict line, a data-ink leg table (funnel-style proportional bars),
/// the weather-adjusted availability of the microwave leg, and the
/// substrate chart.
pub fn race_page(v: &RaceView) -> String {
    let legs: Vec<(&str, Option<f64>, Option<f64>)> = vec![
        ("vacuum bound", Some(v.c_bound_ms), None),
        ("microwave", v.microwave_ms, v.mw_stretch),
        ("LEO", v.leo_ms, v.leo_stretch),
        ("fiber", Some(v.fiber_ms), Some(v.fiber_stretch)),
    ];
    let slowest = legs
        .iter()
        .filter_map(|(_, ms, _)| *ms)
        .fold(v.c_bound_ms, f64::max)
        .max(1e-9);
    let mut body = format!(
        "<p class=\"dim\">{} · {} km geodesic · corpus {} as of {} · constellation {}</p>\n\
         <p>winner: <strong>{}</strong></p>\n\
         <table><tr><th>substrate</th><th>one-way ms</th><th>stretch ×c</th><th></th></tr>\n",
        html_escape(&format!("{} → {}", v.from, v.to)),
        format_args!("{:.0}", v.geodesic_km),
        html_escape(&v.licensee),
        html_escape(&v.date_iso),
        html_escape(&v.constellation),
        html_escape(&v.winner),
    );
    for (label, ms, stretch) in &legs {
        let (ms_cell, bar) = match ms {
            None => ("—".to_string(), String::new()),
            Some(ms) => {
                let w = 420.0 * ms / slowest;
                (
                    fmt_ms(*ms),
                    format!(
                        "<svg width=\"430\" height=\"14\"><rect x=\"0\" y=\"2\" \
                         width=\"{w:.1}\" height=\"10\" fill=\"#8a3324\"/></svg>"
                    ),
                )
            }
        };
        let stretch_cell = match stretch {
            None => "—".to_string(),
            Some(s) => format!("{s:.4}"),
        };
        let label = match (*label, v.leo_isl_hops) {
            ("LEO", Some(hops)) => format!("LEO ({hops} ISL hops)"),
            _ => label.to_string(),
        };
        let _ = writeln!(
            body,
            "<tr><td>{}</td><td>{ms_cell}</td><td>{stretch_cell}</td><td>{bar}</td></tr>",
            html_escape(&label),
        );
    }
    body.push_str("</table>\n");
    if v.wx_samples > 0 {
        let _ = writeln!(
            body,
            "<p class=\"dim\">microwave weather windows (§5 Monte Carlo, {} samples): \
             availability {:.4} · p50 {} ms · p99 {} ms</p>",
            v.wx_samples,
            v.wx_availability,
            fmt_ms(v.wx_p50_ms),
            fmt_ms(v.wx_p99_ms),
        );
    } else {
        body.push_str(
            "<p class=\"dim\">no corpus microwave route — weather windows not applicable</p>\n",
        );
    }
    body.push_str(&substrate_chart(v));
    body.push('\n');
    page(&format!("Race {} → {}", v.from, v.to), &body)
}

/// `GET /dashboard` — the live registry as three tables, straight from
/// one [`RegistrySnapshot`] so every number on the page is from the
/// same instant.
pub fn dashboard_page(s: &RegistrySnapshot) -> String {
    let mut body = String::from("<h2 class=\"dim\">counters</h2><table>\n");
    for (name, v) in &s.counters {
        let _ = writeln!(body, "<tr><td>{}</td><td>{v}</td></tr>", html_escape(name));
    }
    body.push_str("</table>\n<h2 class=\"dim\">gauges</h2><table>\n");
    for (name, v) in &s.gauges {
        let _ = writeln!(body, "<tr><td>{}</td><td>{v}</td></tr>", html_escape(name));
    }
    body.push_str(concat!(
        "</table>\n<h2 class=\"dim\">histograms</h2>",
        "<table><tr><th>name</th><th>count</th><th>p50</th><th>p90</th>",
        "<th>p99</th><th>p999</th><th>max</th></tr>\n"
    ));
    for (name, h) in &s.histograms {
        let _ = writeln!(
            body,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            html_escape(name),
            h.count,
            h.p50,
            h.p90,
            h.p99,
            h.p999,
            h.max,
        );
    }
    body.push_str("</table>\n");
    page("Live dashboard", &body)
}

/// Shard leg palette for the waterfall: one colour per shard index
/// (cycled), so a straggler leg is visually attributable at a glance.
const SHARD_COLORS: [&str; 6] = [
    "#1f77b4", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2",
];

/// `GET /traces` — the flight recorder's index: slowest captured trace
/// first, each row linking to its waterfall.
pub fn traces_page(records: &[hft_obs::TraceRecord]) -> String {
    if records.is_empty() {
        return page(
            "Flight recorder",
            "<p class=\"dim\">no captured traces yet — the recorder keeps head-sampled \
             (1-in-N) and over-threshold (slow) requests in per-thread rings; drive some \
             traffic and reload</p>\n",
        );
    }
    let mut body = String::from(
        "<p class=\"dim\">slowest captured traces first; \
         <b>slow</b> = over the slow-query threshold, <b>sampled</b> = 1-in-N head sample</p>\n\
         <table><tr><th>trace</th><th>request</th><th>total</th><th>spans</th>\
         <th>shards</th><th>why kept</th></tr>\n",
    );
    for r in records {
        let id = hft_obs::format_trace_id(r.trace_id);
        let shards: std::collections::BTreeSet<u32> =
            r.tree.spans.iter().filter_map(|s| s.shard).collect();
        let why = match (r.slow, r.sampled) {
            (true, true) => "slow + sampled",
            (true, false) => "slow",
            (false, true) => "sampled",
            (false, false) => "—",
        };
        let _ = writeln!(
            body,
            "<tr><td><a href=\"/trace/{id}\">{short}…</a></td><td>{label}</td>\
             <td>{total}</td><td>{spans}</td><td>{nshards}</td><td>{why}</td></tr>",
            short = &id[..8],
            label = html_escape(r.label),
            total = hft_obs::span::format_ns(r.total_ns),
            spans = r.tree.spans.len(),
            nshards = shards.len(),
        );
    }
    body.push_str("</table>\n");
    page("Flight recorder", &body)
}

/// One captured trace as a waterfall: a row per span, x proportional to
/// start offset, width proportional to duration, indented by depth,
/// shard legs coloured per shard. Pure data-ink, inline SVG.
pub fn trace_page(r: &hft_obs::TraceRecord) -> String {
    let id = hft_obs::format_trace_id(r.trace_id);
    let total = r.tree.total_ns().max(1);
    let spans = &r.tree.spans;
    let mut depth = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            depth[i] = depth[p as usize] + 1;
        }
    }
    const BAR_W: f64 = 560.0;
    const ROW_H: f64 = 22.0;
    const LEFT: f64 = 4.0;
    let height = ROW_H * spans.len() as f64 + 4.0;
    let mut svg = format!(
        "<svg width=\"960\" height=\"{height:.0}\" viewBox=\"0 0 960 {height:.0}\" \
         font-family=\"Georgia,serif\" font-size=\"12\">\n"
    );
    for (i, s) in spans.iter().enumerate() {
        let x = LEFT + BAR_W * s.start_ns as f64 / total as f64;
        let w = (BAR_W * s.dur_ns as f64 / total as f64).max(1.0);
        let y = 2.0 + ROW_H * i as f64;
        let color = match s.shard {
            Some(k) => SHARD_COLORS[k as usize % SHARD_COLORS.len()],
            None => "#8a3324",
        };
        let shard_note = match s.shard {
            Some(k) => format!(" · shard {k}"),
            None => String::new(),
        };
        let _ = writeln!(
            svg,
            "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{w:.1}\" height=\"14\" \
             fill=\"{color}\" fill-opacity=\"0.85\"/>\
             <text x=\"{tx:.1}\" y=\"{ty:.1}\">{pad}{name} · {dur}{shard_note}</text>",
            tx = LEFT + BAR_W + 12.0,
            ty = y + 11.0,
            pad = "\u{2003}".repeat(depth[i]),
            name = html_escape(s.name),
            dur = hft_obs::span::format_ns(s.dur_ns),
        );
    }
    svg.push_str("</svg>");
    let shards: std::collections::BTreeSet<u32> = spans.iter().filter_map(|s| s.shard).collect();
    let shard_list = shards
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let body = format!(
        "<p class=\"dim\">{label} · total {total_h}{slow}{sampled} · {n} spans · \
         shards [{shard_list}] · <a href=\"/traces\">all traces</a></p>\n{svg}\n\
         <pre class=\"dim\">{rendered}</pre>\n",
        label = html_escape(r.label),
        total_h = hft_obs::span::format_ns(r.total_ns),
        slow = if r.slow { " · <b>slow</b>" } else { "" },
        sampled = if r.sampled { " · sampled" } else { "" },
        n = spans.len(),
        rendered = html_escape(&hft_serve::WireTrace::of(r).render()),
    );
    page(&format!("Trace {}…", &id[..8]), &body)
}

/// An error/status page (404, 405, parse failures).
pub fn error_page(status: u16, detail: &str) -> String {
    page(
        &format!("{status} {}", crate::response::reason(status)),
        &format!("<p>{}</p>\n", html_escape(detail)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_links_escape_and_encode() {
        let html = index_page(
            &[3, 4],
            &[CorpusRow {
                name: "A&B <Networks>".into(),
                licenses: 7,
            }],
        );
        assert!(html.contains("A&amp;B &lt;Networks&gt;"));
        assert!(html.contains("/licensee/A%26B%20%3CNetworks%3E"));
        assert!(html.contains("generation [3,4]"));
    }

    #[test]
    fn sparkline_is_inline_svg() {
        let svg = sparkline(&[0.0, 2.0, 1.0], 100.0, 20.0);
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("polyline"));
        // Flat-zero data must not divide by zero.
        assert!(sparkline(&[0.0, 0.0], 100.0, 20.0).contains("polyline"));
    }

    #[test]
    fn race_page_renders_chart_and_legs() {
        let v = RaceView {
            licensee: "New Line Networks".into(),
            date_iso: "2020-04-01".into(),
            from: "CME".into(),
            to: "NY4".into(),
            constellation: "starlink".into(),
            geodesic_km: 1186.0,
            c_bound_ms: 3.956,
            microwave_ms: Some(3.982),
            fiber_ms: 7.12,
            leo_ms: Some(9.4),
            leo_isl_hops: Some(3),
            mw_stretch: Some(1.0066),
            fiber_stretch: 1.8,
            leo_stretch: Some(2.38),
            winner: "microwave".into(),
            wx_availability: 0.985,
            wx_p50_ms: 3.982,
            wx_p99_ms: f64::INFINITY,
            wx_samples: 5_000,
        };
        let html = race_page(&v);
        assert!(html.contains("<strong>microwave</strong>"));
        assert!(html.contains("LEO (3 ISL hops)"));
        assert!(html.contains("one-way latency by substrate"));
        assert!(html.contains("<polyline"), "viz chart must be inline");
        assert!(html.contains("p99 ∞ ms"));

        // No corpus route: weather section degrades, bars survive.
        let free = RaceView {
            microwave_ms: None,
            mw_stretch: None,
            wx_availability: 0.0,
            wx_p50_ms: f64::INFINITY,
            wx_p99_ms: f64::INFINITY,
            wx_samples: 0,
            winner: "fiber".into(),
            ..v
        };
        let html = race_page(&free);
        assert!(html.contains("weather windows not applicable"));
        assert!(html.contains("<td>—</td>"));
    }

    fn sample_trace() -> hft_obs::TraceRecord {
        use hft_obs::{SpanRecord, SpanTree};
        hft_obs::TraceRecord {
            trace_id: 0xfeed_f00d,
            label: "geographic",
            sampled: true,
            slow: true,
            total_ns: 80_000_000,
            tree: SpanTree {
                spans: vec![
                    SpanRecord {
                        name: "serve.request",
                        parent: None,
                        start_ns: 0,
                        dur_ns: 80_000_000,
                        shard: None,
                    },
                    SpanRecord {
                        name: "queue.wait",
                        parent: Some(0),
                        start_ns: 0,
                        dur_ns: 4_000_000,
                        shard: None,
                    },
                    SpanRecord {
                        name: "shard.call",
                        parent: Some(0),
                        start_ns: 4_000_000,
                        dur_ns: 70_000_000,
                        shard: Some(2),
                    },
                ],
            },
        }
    }

    #[test]
    fn traces_index_links_and_degrades_empty() {
        let html = traces_page(&[sample_trace()]);
        assert!(html.contains("/trace/000000000000000000000000feedf00d"));
        assert!(html.contains("geographic"));
        assert!(html.contains("slow + sampled"));
        assert!(traces_page(&[]).contains("no captured traces yet"));
    }

    #[test]
    fn trace_page_renders_waterfall_svg() {
        let html = trace_page(&sample_trace());
        assert!(html.contains("<svg"), "waterfall must be inline SVG");
        assert!(html.contains("shard 2"), "shard legs must be attributed");
        assert!(html.contains("queue.wait"));
        assert!(
            html.contains("shards [2]"),
            "header must list participating shards"
        );
        // The text tree rides along for copy-paste.
        assert!(html.contains("<pre class=\"dim\">"));
    }

    #[test]
    fn dashboard_renders_snapshot_tables() {
        let r = hft_obs::Registry::new();
        r.counter("http.requests").add(2);
        r.histogram("t.ns").record(500);
        let html = dashboard_page(&r.snapshot());
        assert!(html.contains("http.requests"));
        assert!(html.contains("<h2 class=\"dim\">histograms</h2>"));
        assert!(html.contains("t.ns"));
    }
}
