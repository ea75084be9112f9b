//! One function per table and figure of the paper.
//!
//! Each function consumes an [`Analysis`] — a generated ecosystem plus
//! the [`AnalysisSession`] caching every derived artifact — runs the real
//! analysis pipeline, and returns both structured data and ready-to-print
//! text. The `repro` binary (crate `hft-bench`) and the `hftnetview` CLI
//! wrap these, and the integration tests assert the *shapes* the paper
//! reports (rankings, crossovers, contrast directions).
//!
//! Sharing one session across the functions means the 2020-04-01
//! snapshot reconstructed for Table 1 is the same in-memory network that
//! Table 2, Table 3 and Fig 4 analyze, and the nine-date evolution sweep
//! of Figs 1–2 reconstructs each licensee only once per lifecycle epoch.

use hft_core::corridor::{DataCenter, CME, EQUINIX_NY4, NASDAQ, NYSE};
use hft_core::session::AnalysisSession;
use hft_core::{metrics, par_map, Network};
use hft_corridor::GeneratedEcosystem;
use hft_leo::{compare as leo_compare, paper_segments, Comparison, Constellation};
use hft_time::{paper_sample_dates, Date};
use hft_uls::scrape::ScrapeConfig;
use hft_viz::chart::{render, ChartConfig, Series};
use hft_viz::csv::CsvTable;
use hft_viz::geojson::network_to_geojson;
use hft_viz::svgmap::network_to_svg;
use std::sync::Arc;

/// The shared view all report functions consume: the generated ecosystem
/// plus one [`AnalysisSession`] over its corpus.
pub struct Analysis<'a> {
    /// The generated license corpus and its scenario metadata.
    pub eco: &'a GeneratedEcosystem,
    /// The snapshot engine caching networks, routes and APA per epoch.
    pub session: AnalysisSession<'a>,
}

impl<'a> Analysis<'a> {
    /// Open a fresh session over `eco`.
    pub fn new(eco: &'a GeneratedEcosystem) -> Analysis<'a> {
        Analysis {
            eco,
            session: eco.session(),
        }
    }

    /// The session's cache counters as machine-readable JSON (the same
    /// shape the serve layer's `stats` response uses).
    pub fn session_stats_json(&self) -> String {
        self.session.stats().to_json()
    }

    /// The cached §2.2 shortlist (licensee names, sorted).
    fn shortlist(&self) -> Vec<String> {
        self.session
            .scrape(&CME.position(), &ScrapeConfig::default())
            .shortlist
            .clone()
    }
}

/// The paper's snapshot date, 1 April 2020.
pub fn snapshot_date() -> Date {
    Date::new(2020, 4, 1).expect("static date")
}

/// The five networks plotted in Figs. 1 and 2.
pub const FIGURE_NETWORKS: [&str; 5] = [
    "National Tower Company",
    "Webline Holdings",
    "Jefferson Microwave",
    "Pierce Broadband",
    "New Line Networks",
];

/// Distinguishable chart colors for the five figure networks.
const FIGURE_COLORS: [&str; 5] = ["#7f7f7f", "#9467bd", "#2ca02c", "#1f77b4", "#d62728"];

/// One licensee's network at a date, served from the session's epoch
/// cache and stamped with the exact requested date.
pub fn network_of(analysis: &Analysis, name: &str, date: Date) -> Network {
    analysis.session.network_at(name, date)
}

/// One Table-1 row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Licensee name.
    pub licensee: String,
    /// One-way CME→NY4 latency, ms.
    pub latency_ms: f64,
    /// Alternate path availability, fraction.
    pub apa: f64,
    /// Towers on the shortest route.
    pub towers: usize,
}

/// Table 1: connected networks between CME and NY4 in increasing latency
/// order, with APA and route tower counts.
///
/// Candidates come from the §2.2 scrape shortlist — the paper's own
/// funnel — not from every licensee in the corpus: only shortlisted
/// MG/FXO corridor players can be connected, so reconstructing the noise
/// licensees (the bulk of the corpus) just to find no route was wasted
/// work. The shortlist fans out across worker threads over one session.
pub fn table1(analysis: &Analysis) -> Vec<Table1Row> {
    let asof = snapshot_date();
    let s = &analysis.session;
    let mut rows: Vec<Table1Row> = par_map(analysis.shortlist(), |name| {
        let r = s.route(&name, asof, &CME, &EQUINIX_NY4)?;
        let apa = s.apa(&name, asof, &CME, &EQUINIX_NY4).unwrap_or(0.0);
        Some(Table1Row {
            licensee: name,
            latency_ms: r.latency_ms,
            apa,
            towers: r.towers,
        })
    })
    .into_iter()
    .flatten()
    .collect();
    rows.sort_by(|a, b| {
        a.latency_ms
            .partial_cmp(&b.latency_ms)
            .expect("finite latencies")
    });
    rows
}

/// Render Table 1 as text + CSV.
pub fn table1_render(rows: &[Table1Row]) -> (String, CsvTable) {
    let mut csv = CsvTable::new(&["licensee", "latency_ms", "apa_percent", "towers"]);
    let mut text = String::from(
        "Table 1: Connected networks, CME -> Equinix NY4, as of 2020-04-01\n\
         Licensee                | Latency (ms) | APA (%) | #Towers\n\
         ------------------------+--------------+---------+--------\n",
    );
    for r in rows {
        text.push_str(&format!(
            "{:<24}| {:>12.5} | {:>7.0} | {:>6}\n",
            r.licensee,
            r.latency_ms,
            r.apa * 100.0,
            r.towers
        ));
        csv.push_row(&[
            r.licensee.clone(),
            format!("{:.5}", r.latency_ms),
            format!("{:.0}", r.apa * 100.0),
            r.towers.to_string(),
        ]);
    }
    (text, csv)
}

/// One Table-2 path entry: `(path name, geodesic km, top-3 of (licensee,
/// latency ms))`.
pub type Table2Path = (String, f64, Vec<(String, f64)>);

/// Table 2: the three fastest networks per corridor path.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// The three corridor paths in the paper's order.
    pub paths: Vec<Table2Path>,
}

/// Compute Table 2 from the snapshot.
pub fn table2(analysis: &Analysis) -> Table2 {
    let asof = snapshot_date();
    let s = &analysis.session;
    let mut paths = Vec::new();
    for dc in [&EQUINIX_NY4, &NYSE, &NASDAQ] {
        let geodesic_km = CME.position().geodesic_distance_m(&dc.position()) / 1000.0;
        let mut entries: Vec<(String, f64)> = Vec::new();
        for name in &analysis.eco.connected_2020 {
            if let Some(ms) = s.latency_ms(name, asof, &CME, dc) {
                entries.push((name.clone(), ms));
            }
        }
        entries.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite latencies"));
        entries.truncate(3);
        paths.push((format!("CME-{}", dc.code), geodesic_km, entries));
    }
    Table2 { paths }
}

/// Render Table 2 as text + CSV.
pub fn table2_render(t: &Table2) -> (String, CsvTable) {
    let mut csv = CsvTable::new(&["path", "geodesic_km", "rank", "licensee", "latency_ms"]);
    let mut text =
        String::from("Table 2: Fastest networks per path as of 2020-04-01 (one-way ms)\n");
    for (path, geo_km, entries) in &t.paths {
        text.push_str(&format!("{path} ({geo_km:.0} km geodesic):\n"));
        for (i, (name, ms)) in entries.iter().enumerate() {
            text.push_str(&format!("  rank {}: {:<24} {:.5}\n", i + 1, name, ms));
            csv.push_row(&[
                path.clone(),
                format!("{geo_km:.0}"),
                (i + 1).to_string(),
                name.clone(),
                format!("{ms:.5}"),
            ]);
        }
    }
    (text, csv)
}

/// Table 3: APA per path for NLN and WH.
pub fn table3(analysis: &Analysis) -> Vec<(String, [Option<f64>; 3])> {
    let asof = snapshot_date();
    let s = &analysis.session;
    ["New Line Networks", "Webline Holdings"]
        .iter()
        .map(|name| {
            let apas = [&EQUINIX_NY4, &NYSE, &NASDAQ].map(|dc| s.apa(name, asof, &CME, dc));
            (name.to_string(), apas)
        })
        .collect()
}

/// Render Table 3 as text + CSV.
pub fn table3_render(rows: &[(String, [Option<f64>; 3])]) -> (String, CsvTable) {
    let mut csv = CsvTable::new(&["licensee", "apa_ny4", "apa_nyse", "apa_nasdaq"]);
    let mut text = String::from(
        "Table 3: Alternate path availability (%)\n\
         Licensee                | CME-NY4 | CME-NYSE | CME-NASDAQ\n",
    );
    for (name, apas) in rows {
        let fmt = |v: &Option<f64>| {
            v.map(|x| format!("{:.0}", x * 100.0))
                .unwrap_or_else(|| "-".into())
        };
        text.push_str(&format!(
            "{:<24}| {:>7} | {:>8} | {:>9}\n",
            name,
            fmt(&apas[0]),
            fmt(&apas[1]),
            fmt(&apas[2]),
        ));
        csv.push_row(&[name.clone(), fmt(&apas[0]), fmt(&apas[1]), fmt(&apas[2])]);
    }
    (text, csv)
}

/// Figs. 1 & 2: per-network time series of latency and active licenses.
#[derive(Debug, Clone)]
pub struct EvolutionSeries {
    /// Licensee.
    pub licensee: String,
    /// `(sample date, latency ms if connected, active licenses)`.
    pub points: Vec<(Date, Option<f64>, usize)>,
}

/// Compute the Fig. 1 / Fig. 2 series for the five figure networks over
/// the paper's sample dates.
///
/// One [`AnalysisSession::trajectory`] per network, fanned out across
/// worker threads: dates falling in the same lifecycle epoch share a
/// single reconstruction instead of re-running one per sample date.
pub fn evolution(analysis: &Analysis) -> Vec<EvolutionSeries> {
    let dates = paper_sample_dates();
    let s = &analysis.session;
    par_map(FIGURE_NETWORKS.to_vec(), |name| {
        let t = s.trajectory(name, &CME, &EQUINIX_NY4, &dates);
        EvolutionSeries {
            licensee: t.licensee,
            points: t
                .points
                .iter()
                .map(|p| (p.date, p.latency_ms, p.active_licenses))
                .collect(),
        }
    })
}

/// Render Fig. 1 (latency evolution) as SVG + CSV.
pub fn fig1_render(series: &[EvolutionSeries]) -> (String, CsvTable) {
    let mut csv = CsvTable::new(&["licensee", "date", "latency_ms"]);
    let chart_series: Vec<Series> = series
        .iter()
        .enumerate()
        .map(|(i, s)| Series {
            label: s.licensee.clone(),
            color: FIGURE_COLORS[i % FIGURE_COLORS.len()].to_string(),
            points: s
                .points
                .iter()
                .map(|(d, lat, _)| (d.decimal_year(), *lat))
                .collect(),
        })
        .collect();
    for s in series {
        for (d, lat, _) in &s.points {
            if let Some(ms) = lat {
                csv.push_row(&[s.licensee.clone(), d.to_iso(), format!("{ms:.5}")]);
            }
        }
    }
    let cfg = ChartConfig {
        title: "Fig 1: CME-NY4 latency evolution".into(),
        x_label: "Time".into(),
        y_label: "Latency (ms)".into(),
        // The paper deliberately starts the y-axis at a non-zero point.
        y_range: Some((3.95, 4.05)),
        ..Default::default()
    };
    (render(&cfg, &chart_series), csv)
}

/// Render Fig. 2 (active licenses) as SVG + CSV.
pub fn fig2_render(series: &[EvolutionSeries]) -> (String, CsvTable) {
    let mut csv = CsvTable::new(&["licensee", "date", "active_licenses"]);
    let chart_series: Vec<Series> = series
        .iter()
        .enumerate()
        .map(|(i, s)| Series {
            label: s.licensee.clone(),
            color: FIGURE_COLORS[i % FIGURE_COLORS.len()].to_string(),
            points: s
                .points
                .iter()
                .map(|(d, _, n)| (d.decimal_year(), Some(*n as f64)))
                .collect(),
        })
        .collect();
    for s in series {
        for (d, _, n) in &s.points {
            csv.push_row(&[s.licensee.clone(), d.to_iso(), n.to_string()]);
        }
    }
    let cfg = ChartConfig {
        title: "Fig 2: active licenses over time".into(),
        x_label: "Time".into(),
        y_label: "No. of active licenses".into(),
        y_range: Some((0.0, 180.0)),
        ..Default::default()
    };
    (render(&cfg, &chart_series), csv)
}

/// Fig. 3 artifacts: NLN's network at the beginning of 2016 and at the
/// 2020 snapshot, as `(geojson_2016, geojson_2020, svg_2016, svg_2020)`.
pub fn fig3(analysis: &Analysis) -> (String, String, String, String) {
    let nln_2016 = network_of(
        analysis,
        "New Line Networks",
        Date::new(2016, 1, 1).expect("static"),
    );
    let nln_2020 = network_of(analysis, "New Line Networks", snapshot_date());
    let markers: Vec<(&str, hft_geodesy::LatLon)> = [&CME, &EQUINIX_NY4, &NYSE, &NASDAQ]
        .iter()
        .map(|dc: &&DataCenter| (dc.code, dc.position()))
        .collect();
    (
        network_to_geojson(&nln_2016),
        network_to_geojson(&nln_2020),
        network_to_svg(&nln_2016, &markers),
        network_to_svg(&nln_2020, &markers),
    )
}

/// Fig. 4a: link-length CDFs on low-latency CME→NY4 paths for WH and NLN.
pub fn fig4a(analysis: &Analysis) -> Vec<(String, hft_core::Cdf)> {
    let asof = snapshot_date();
    ["Webline Holdings", "New Line Networks"]
        .iter()
        .filter_map(|name| {
            let net = analysis.session.network(name, asof);
            metrics::link_length_cdf(&net, &CME, &EQUINIX_NY4).map(|c| (name.to_string(), c))
        })
        .collect()
}

/// Fig. 4b: frequency CDFs — WH and NLN on their shortest paths, plus
/// NLN's alternate paths.
pub fn fig4b(analysis: &Analysis) -> Vec<(String, hft_core::Cdf)> {
    let asof = snapshot_date();
    let s = &analysis.session;
    let mut out = Vec::new();
    for name in ["Webline Holdings", "New Line Networks"] {
        let net = s.network(name, asof);
        if let Some(c) = metrics::shortest_path_frequency_cdf(&net, &CME, &EQUINIX_NY4) {
            out.push((name.to_string(), c));
        }
    }
    let nln = s.network("New Line Networks", asof);
    if let Some(c) = metrics::alternate_path_frequency_cdf(&nln, &CME, &EQUINIX_NY4) {
        out.push(("NLN-alternate".to_string(), c));
    }
    out
}

/// Render a set of CDFs as an SVG chart + CSV of the step points.
pub fn cdf_render(
    title: &str,
    x_label: &str,
    cdfs: &[(String, hft_core::Cdf)],
) -> (String, CsvTable) {
    let colors = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd"];
    let series: Vec<Series> = cdfs
        .iter()
        .enumerate()
        .map(|(i, (label, cdf))| Series::cdf_steps(label, colors[i % colors.len()], &cdf.steps()))
        .collect();
    let mut csv = CsvTable::new(&["series", "value", "cdf"]);
    for (label, cdf) in cdfs {
        for (x, f) in cdf.steps() {
            csv.push_row(&[label.clone(), format!("{x:.4}"), format!("{f:.4}")]);
        }
    }
    let cfg = ChartConfig {
        title: title.into(),
        x_label: x_label.into(),
        y_label: "CDF".into(),
        y_range: Some((0.0, 1.0)),
        ..Default::default()
    };
    (render(&cfg, &series), csv)
}

/// Fig. 5 (quantified): LEO vs microwave vs fiber on the paper's
/// segments.
pub fn fig5() -> Vec<Comparison> {
    let shell = Constellation::starlink_like();
    leo_compare(&shell, &paper_segments(), 8)
}

/// Render the Fig. 5 comparison as text + CSV.
pub fn fig5_render(rows: &[Comparison]) -> (String, CsvTable) {
    let mut csv = CsvTable::new(&[
        "segment",
        "geodesic_km",
        "c_bound_ms",
        "microwave_ms",
        "fiber_ms",
        "leo_ms",
        "winner",
    ]);
    let mut text = String::from(
        "Fig 5 (quantified): one-way latency by technology (ms)\n\
         Segment                  | Geodesic km | c-bound |   MW    |  Fiber  |   LEO   | Winner\n",
    );
    for r in rows {
        let fmt_opt = |v: Option<f64>| v.map(|x| format!("{x:.3}")).unwrap_or_else(|| "-".into());
        text.push_str(&format!(
            "{:<25}| {:>11.0} | {:>7.3} | {:>7} | {:>7.3} | {:>7} | {}\n",
            r.name,
            r.geodesic_km,
            r.c_bound_ms,
            fmt_opt(r.microwave_ms),
            r.fiber_ms,
            fmt_opt(r.leo_ms),
            r.winner(),
        ));
        csv.push_row(&[
            r.name.clone(),
            format!("{:.0}", r.geodesic_km),
            format!("{:.3}", r.c_bound_ms),
            fmt_opt(r.microwave_ms),
            format!("{:.3}", r.fiber_ms),
            fmt_opt(r.leo_ms),
            r.winner().to_string(),
        ]);
    }
    (text, csv)
}

/// The §6 future-work item: scan the shortlisted licensees for
/// complementary-link evidence of split-entity filings (one physical
/// network behind several shell licensees).
pub fn entity_scan(analysis: &Analysis) -> Vec<hft_core::entity::MergeCandidate> {
    let asof = snapshot_date();
    let s = &analysis.session;
    let networks: Vec<(String, Arc<Network>)> = analysis
        .shortlist()
        .into_iter()
        .map(|name| {
            let net = s.network(&name, asof);
            (name, net)
        })
        .collect();
    hft_core::entity::complementary_pairs(&networks, &CME, &EQUINIX_NY4, 50.0)
}

/// The §2.2 funnel report.
pub fn funnel(analysis: &Analysis) -> hft_uls::scrape::FunnelReport {
    analysis
        .session
        .scrape(&CME.position(), &ScrapeConfig::default())
        .report
        .clone()
}

/// Render the funnel as text.
pub fn funnel_render(report: &hft_uls::scrape::FunnelReport) -> String {
    format!(
        "Section 2.2 funnel:\n  licensees near CME (10 km):     {}\n  after MG/FXO service filter:    {}\n  shortlisted (>= 11 filings):    {}\n",
        report.geographic_candidates, report.service_filtered, report.shortlisted,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hft_corridor::{chicago_nj, generate};
    use std::sync::OnceLock;

    fn eco() -> &'static Analysis<'static> {
        static ECO: OnceLock<GeneratedEcosystem> = OnceLock::new();
        static ANALYSIS: OnceLock<Analysis<'static>> = OnceLock::new();
        ANALYSIS.get_or_init(|| Analysis::new(ECO.get_or_init(|| generate(&chicago_nj(), 2020))))
    }

    #[test]
    fn table1_has_nine_rows_in_paper_order() {
        let rows = table1(eco());
        assert_eq!(rows.len(), 9);
        let names: Vec<&str> = rows.iter().map(|r| r.licensee.as_str()).collect();
        assert_eq!(names[0], "New Line Networks");
        assert_eq!(names[1], "Pierce Broadband");
        assert_eq!(names[2], "Jefferson Microwave");
        assert_eq!(names[8], "SW Networks");
        let (text, csv) = table1_render(&rows);
        assert!(text.contains("New Line Networks"));
        assert_eq!(csv.len(), 9);
    }

    #[test]
    fn table2_nln_sweeps_first_place() {
        let t = table2(eco());
        assert_eq!(t.paths.len(), 3);
        for (path, _, entries) in &t.paths {
            assert_eq!(entries[0].0, "New Line Networks", "{path}");
        }
        // Geodesic distances match the paper.
        assert!((t.paths[0].1 - 1186.0).abs() < 0.5);
        assert!((t.paths[1].1 - 1174.0).abs() < 0.5);
        assert!((t.paths[2].1 - 1176.0).abs() < 0.5);
    }

    #[test]
    fn table3_wh_dominates_nln() {
        let rows = table3(eco());
        let nln = &rows[0].1;
        let wh = &rows[1].1;
        for i in 0..3 {
            assert!(wh[i].unwrap() > nln[i].unwrap() + 0.15, "path {i}");
        }
    }

    #[test]
    fn evolution_series_shapes() {
        let series = evolution(eco());
        assert_eq!(series.len(), 5);
        let ntc = series
            .iter()
            .find(|s| s.licensee == "National Tower Company")
            .unwrap();
        // Connected 2013..2017, gone after.
        assert!(ntc.points[0].1.is_some(), "NTC connected at 2013");
        assert!(ntc.points[4].1.is_some(), "NTC connected at 2017");
        assert!(ntc.points[6].1.is_none(), "NTC gone by 2019");
        let pb = series
            .iter()
            .find(|s| s.licensee == "Pierce Broadband")
            .unwrap();
        assert!(
            pb.points[7].1.is_none(),
            "PB not yet connected on 2020-01-01"
        );
        assert!(pb.points[8].1.is_some(), "PB connected on 2020-04-01");
        let (svg1, csv1) = fig1_render(&series);
        assert!(svg1.contains("polyline"));
        assert!(csv1.len() > 20);
        let (svg2, csv2) = fig2_render(&series);
        assert!(svg2.contains("polyline"));
        assert_eq!(csv2.len(), 5 * 9);
    }

    #[test]
    fn fig3_artifacts_nonempty() {
        let (gj16, gj20, svg16, svg20) = fig3(eco());
        assert!(gj16.contains("FeatureCollection"));
        assert!(gj20.contains("FeatureCollection"));
        assert!(svg16.starts_with("<svg"));
        assert!(svg20.starts_with("<svg"));
        // 2020 network is bigger than 2016 (augmentation, Fig 3 caption).
        assert!(gj20.len() > gj16.len());
    }

    #[test]
    fn fig4a_medians_contrast() {
        let cdfs = fig4a(eco());
        assert_eq!(cdfs.len(), 2);
        let wh = &cdfs[0].1;
        let nln = &cdfs[1].1;
        assert!(wh.median() < nln.median() * 0.8, "WH links much shorter");
        let (svg, csv) = cdf_render("Fig 4a", "Distance (km)", &cdfs);
        assert!(svg.contains("polyline"));
        assert!(!csv.is_empty());
    }

    #[test]
    fn fig4b_band_contrast() {
        let cdfs = fig4b(eco());
        assert_eq!(cdfs.len(), 3);
        let wh = &cdfs[0].1;
        let nln = &cdfs[1].1;
        let alt = &cdfs[2].1;
        assert!(
            wh.fraction_below(7.0) > 0.94,
            "WH under 7 GHz: {}",
            wh.fraction_below(7.0)
        );
        assert!(nln.fraction_below(7.0) < 0.05, "NLN rides 11 GHz");
        assert!(
            alt.fraction_below(7.0) >= 0.18,
            "NLN alternates ≥18% in 6 GHz"
        );
    }

    #[test]
    fn funnel_counts() {
        let report = funnel(eco());
        assert_eq!(report.service_filtered, 57);
        assert_eq!(report.shortlisted, 29);
        assert!(funnel_render(&report).contains("57"));
    }
}
