//! The ecosystem generator: turns a [`ScenarioSpec`] into a ULS license
//! corpus whose analysis reproduces the paper's numbers.
//!
//! Construction of one network:
//!
//! 1. **Skeleton** — a *trunk* from a tower ~1 km outside CME along the
//!    CME→NY4 geodesic to a branch tower at 25% of the corridor, then
//!    *spurs* from the branch to towers just outside each served data
//!    center. Interior towers carry lateral offsets.
//! 2. **Era calibration** — for each Fig.-1 era, bisect a common offset
//!    scale for the trunk + NY4 spur so the end-to-end polyline length
//!    (plus the fiber tails at `2c/3`) hits the era's latency target.
//!    Only towers whose offset changes by more than a threshold
//!    *materialize* a move (a re-filed license); the final era uses a
//!    zero threshold so the 2020 snapshot is exact to sub-microsecond.
//! 3. **Rails** — redundant parallel chains over the covered fraction of
//!    route links dictated by the APA targets, laterally offset so they
//!    are always slightly longer than the links they protect (they add
//!    redundancy without ever becoming the shortest path).
//! 4. **Licenses** — every link emits one license per *epoch* (the spans
//!    between its endpoints' moves); spare licenses top the count up to
//!    the Fig.-2 anchors; National Tower Company's shutdown staggers
//!    cancellations across 2017–18.

use crate::layout::{
    make_chain_geometry, place_chain_with_offsets, polyline_length_m, sample_along, ChainFrame,
    ChainGeometry,
};
use crate::noise::{self, IdAllocator};
use crate::spec::{NetworkSpec, ScenarioSpec};
use hft_core::corridor::{CME, EQUINIX_NY4, NASDAQ, NYSE};
use hft_core::session::{fingerprint_words, par_map, AnalysisSession, RouteMemo};
use hft_geodesy::{
    gc_destination, gc_distance_m, gc_initial_bearing_deg, gc_interpolate, LatLon, Medium,
};
use hft_radio::{Band, BandPlan};
use hft_time::Date;
use hft_uls::{
    CallSign, FrequencyAssignment, License, LicenseId, MicrowavePath, RadioService, StationClass,
    TowerSite, UlsDatabase,
};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Fraction of the corridor covered by the shared trunk before the spurs
/// branch off towards the individual NJ data centers. The trunk stays
/// essentially straight (all latency-calibration wiggle lives on the
/// spurs) because the NASDAQ latency targets leave only ~1–2 µs of slack
/// over the branch dogleg.
const BRANCH_FRAC: f64 = 0.18;
/// Fixed lateral wiggle scale of the (near-straight) trunk, meters.
const TRUNK_SCALE_M: f64 = 150.0;
/// Lateral offset of redundancy rails from their parent chain, meters.
const RAIL_OFFSET_M: f64 = 4_000.0;
/// Minimum offset change that materializes a tower move (and thus a
/// license re-filing) in non-final eras, meters.
const MOVE_THRESHOLD_M: f64 = 250.0;
/// Upper bound for offset-scale bisection, meters.
const MAX_SCALE_M: f64 = 200_000.0;

/// The generator's output.
#[derive(Debug, Clone)]
pub struct GeneratedEcosystem {
    /// The full license corpus, queryable through [`hft_uls::UlsPortal`].
    pub db: UlsDatabase,
    /// Names of the explicitly modeled networks (incl. the defunct one).
    pub modeled: Vec<String>,
    /// Names of the networks connected CME↔NY4 as of 2020-04-01.
    pub connected_2020: Vec<String>,
}

impl GeneratedEcosystem {
    /// Open an [`AnalysisSession`] over this corpus — the shared entry
    /// point for all downstream analysis (tables, figures, trajectories).
    pub fn session(&self) -> AnalysisSession<'_> {
        AnalysisSession::new(&self.db)
    }
}

/// A tower whose position may change over time (each change re-files the
/// licenses of its incident links).
#[derive(Debug, Clone)]
struct TowerRec {
    /// `(effective_from, position)`, ascending; first entry is creation.
    timeline: Vec<(Date, LatLon)>,
}

impl TowerRec {
    fn fixed(p: LatLon) -> TowerRec {
        TowerRec {
            timeline: vec![(Date::MIN, p)],
        }
    }

    fn position_at(&self, date: Date) -> LatLon {
        let mut pos = self.timeline[0].1;
        for &(d, p) in &self.timeline {
            if d <= date {
                pos = p;
            } else {
                break;
            }
        }
        pos
    }

    /// Move dates strictly inside `(from, to_open)`.
    fn moves_between(&self, from: Date, to_open: Option<Date>) -> Vec<Date> {
        self.timeline[1..]
            .iter()
            .map(|&(d, _)| d)
            .filter(|&d| d > from && to_open.is_none_or(|t| d < t))
            .collect()
    }
}

/// A planned physical link between two registry towers.
#[derive(Debug, Clone)]
struct LinkPlan {
    a: usize,
    b: usize,
    online: Date,
    offline: Option<Date>,
    freq_hz: Vec<f64>,
}

/// Per-network builder state.
struct NetBuilder {
    towers: Vec<TowerRec>,
    links: Vec<LinkPlan>,
}

impl NetBuilder {
    fn new() -> NetBuilder {
        NetBuilder {
            towers: Vec::new(),
            links: Vec::new(),
        }
    }

    fn add_tower(&mut self, rec: TowerRec) -> usize {
        self.towers.push(rec);
        self.towers.len() - 1
    }

    fn add_link(&mut self, link: LinkPlan) {
        assert_ne!(link.a, link.b, "self-link");
        self.links.push(link);
    }

    /// Emit licenses: one per (link, endpoint-stability epoch).
    fn emit<R: Rng + ?Sized>(&self, licensee: &str, rng: &mut R) -> Vec<License> {
        let mut out = Vec::new();
        for link in &self.links {
            let mut boundaries = vec![link.online];
            boundaries.extend(self.towers[link.a].moves_between(link.online, link.offline));
            boundaries.extend(self.towers[link.b].moves_between(link.online, link.offline));
            boundaries.sort_unstable();
            boundaries.dedup();
            for (i, &start) in boundaries.iter().enumerate() {
                let end = boundaries.get(i + 1).copied().or(link.offline);
                let (id, call_sign) = unstamped();
                let tx_pos = self.towers[link.a].position_at(start);
                let rx_pos = self.towers[link.b].position_at(start);
                out.push(License {
                    id,
                    call_sign,
                    licensee: licensee.to_string(),
                    service: RadioService::MG,
                    station_class: StationClass::FXO,
                    grant_date: start,
                    termination_date: Some(start.add_days(15 * 365)),
                    cancellation_date: end,
                    paths: vec![MicrowavePath {
                        tx: tower_site(rng, tx_pos),
                        rx: tower_site(rng, rx_pos),
                        frequencies: link
                            .freq_hz
                            .iter()
                            .map(|&hz| FrequencyAssignment { center_hz: hz })
                            .collect(),
                    }],
                });
            }
        }
        out
    }
}

/// The id and call sign of a license not yet filed: a modeled network is
/// built without its place in the corpus, and `generate` stamps the real
/// ones in filing order ([`IdAllocator::stamp`]).
fn unstamped() -> (LicenseId, CallSign) {
    (LicenseId(0), CallSign(String::new()))
}

fn tower_site<R: Rng + ?Sized>(rng: &mut R, p: LatLon) -> TowerSite {
    TowerSite {
        position: p,
        ground_elevation_m: 170.0 + rng.gen::<f64>() * 200.0,
        structure_height_m: 70.0 + rng.gen::<f64>() * 110.0,
    }
}

/// Materialize offsets: each tower adopts `unit·scale` only when it
/// differs from its current offset by more than `threshold`.
fn materialize(unit: &[f64], current: &[f64], scale: f64, threshold: f64) -> Vec<f64> {
    unit.iter()
        .zip(current)
        .map(|(&u, &c)| {
            let proposed = u * scale;
            if (proposed - c).abs() > threshold {
                proposed
            } else {
                c
            }
        })
        .collect()
}

/// One movable chain (trunk or NY4 spur) during era processing.
struct MovableChain {
    frame: ChainFrame,
    geometry: ChainGeometry,
    /// Constant per-tower lateral bias in meters, added on top of the
    /// calibrated offsets (used to steer a spur's final approach).
    bias_m: Vec<f64>,
    /// Offset history: `(era_date, offsets_m)`, ascending.
    history: Vec<(Date, Vec<f64>)>,
}

impl MovableChain {
    fn new(start: LatLon, end: LatLon, geometry: ChainGeometry) -> MovableChain {
        let bias_m = vec![0.0; geometry.len()];
        MovableChain {
            frame: ChainFrame::new(&start, &end, &geometry.ts),
            geometry,
            bias_m,
            history: Vec::new(),
        }
    }

    fn biased(&self, offsets: &[f64]) -> Vec<f64> {
        offsets
            .iter()
            .zip(&self.bias_m)
            .map(|(o, b)| o + b)
            .collect()
    }

    fn current_offsets(&self) -> Vec<f64> {
        self.history
            .last()
            .map(|(_, o)| o.clone())
            .unwrap_or_else(|| vec![0.0; self.geometry.len()])
    }

    fn length_with(&self, offsets: &[f64]) -> f64 {
        polyline_length_m(&self.positions_with(offsets))
    }

    fn offsets_at(&self, date: Date) -> Vec<f64> {
        let mut out = self
            .history
            .first()
            .map(|(_, o)| o.clone())
            .unwrap_or_else(|| vec![0.0; self.geometry.len()]);
        for (d, o) in &self.history {
            if *d <= date {
                out = o.clone();
            }
        }
        out
    }

    fn positions_with(&self, offsets: &[f64]) -> Vec<LatLon> {
        self.frame.place(&self.biased(offsets))
    }
}

/// Bisect the spur's offset scale so its materialized length hits
/// `target_len_m`. Returns the materialized offsets.
fn calibrate_chain(
    chain: &MovableChain,
    target_len_m: f64,
    threshold: f64,
    scale_hi: f64,
) -> Vec<f64> {
    let cur = chain.current_offsets();
    let len_at = |scale: f64| {
        let o = materialize(&chain.geometry.unit_offsets, &cur, scale, threshold);
        chain.length_with(&o)
    };
    let min_len = len_at(0.0);
    assert!(
        target_len_m >= min_len - 1.0,
        "latency target below the geometric floor: want {target_len_m}, floor {min_len}"
    );
    let (mut lo, mut hi) = (0.0f64, scale_hi);
    assert!(
        len_at(hi) >= target_len_m,
        "scale ceiling too small for target"
    );
    for _ in 0..70 {
        let mid = (lo + hi) / 2.0;
        if mid == lo || mid == hi {
            break; // fixed point: see `bisect_scale`
        }
        if len_at(mid) < target_len_m {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    materialize(
        &chain.geometry.unit_offsets,
        &cur,
        (lo + hi) / 2.0,
        threshold,
    )
}

/// Microwave path length (meters) that realizes `latency_ms` once the
/// fiber tails (`tail_m` total, at 2c/3) are paid.
fn target_mw_length_m(latency_ms: f64, tail_m: f64) -> f64 {
    let total_s = latency_ms / 1e3;
    let fiber_s = tail_m / Medium::Fiber.speed_m_per_s();
    (total_s - fiber_s) * Medium::Air.speed_m_per_s()
}

/// A throwaway network assembled from explicit tower positions and links,
/// used to *measure* candidate geometries with the real analysis code
/// during calibration (the closed loop).
struct ProbeNet {
    positions: Vec<LatLon>,
    links: Vec<(usize, usize)>,
}

impl ProbeNet {
    fn new() -> ProbeNet {
        ProbeNet {
            positions: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Add a chain of towers; consecutive towers are linked. Returns the
    /// tower ids in order.
    fn add_chain(&mut self, pts: &[LatLon]) -> Vec<usize> {
        let base = self.positions.len();
        self.positions.extend_from_slice(pts);
        for i in 0..pts.len().saturating_sub(1) {
            self.links.push((base + i, base + i + 1));
        }
        (base..base + pts.len()).collect()
    }

    /// Add a chain anchored at existing towers `from` and `to`, with
    /// `interior` new towers between them.
    fn add_chain_between(&mut self, from: usize, interior: &[LatLon], to: usize) -> Vec<usize> {
        let base = self.positions.len();
        self.positions.extend_from_slice(interior);
        let mut ids = vec![from];
        ids.extend(base..base + interior.len());
        ids.push(to);
        for w in ids.windows(2) {
            self.links.push((w[0], w[1]));
        }
        ids
    }

    /// Exact identity of this assembly's geometry (position bits and link
    /// endpoints), keying a [`RouteMemo`]. Bisection converges onto a
    /// shrinking set of scales, so the tail of each calibration probes
    /// bit-identical assemblies repeatedly; only *exact* matches may share
    /// a measurement, or calibration results would drift.
    fn fingerprint(&self) -> u64 {
        fingerprint_words(
            self.positions
                .iter()
                .flat_map(|p| [p.lat_deg().to_bits(), p.lon_deg().to_bits()])
                .chain(
                    self.links
                        .iter()
                        .map(|&(u, v)| ((u as u64) << 32) ^ v as u64),
                ),
        )
    }

    /// Route latency (ms) between two data centers over this assembly,
    /// measured by the real `hft-core` router.
    fn latency_ms(&self, a: &hft_core::DataCenter, b: &hft_core::DataCenter) -> Option<f64> {
        use hft_core::network::{MwLink, Network, Tower};
        use hft_geodesy::SnapGrid;
        let snap = SnapGrid::arc_second();
        let mut graph = hft_netgraph::Graph::new();
        for p in &self.positions {
            graph.add_node(Tower {
                position: *p,
                cell: snap.snap(p),
                ground_elevation_m: 230.0,
                structure_height_m: 100.0,
            });
        }
        for &(u, v) in &self.links {
            let nu = hft_netgraph::NodeId::from_index(u);
            let nv = hft_netgraph::NodeId::from_index(v);
            let length_m = graph
                .node(nu)
                .position
                .geodesic_distance_m(&graph.node(nv).position);
            graph.add_edge(
                nu,
                nv,
                MwLink {
                    length_m,
                    frequencies_ghz: vec![11.2],
                    licenses: vec![],
                },
            );
        }
        let net = Network {
            licensee: "probe".into(),
            as_of: Date::new(2020, 4, 1).expect("static date"),
            graph,
        };
        hft_core::route(&net, a, b).map(|r| r.latency_ms)
    }
}

/// Bisect `scale` until `measure(scale)` hits `target_ms` (monotone
/// non-decreasing in scale). Panics when the target is below the
/// scale-zero floor or above the ceiling's reach.
///
/// The loop stops early once `lo` and `hi` are adjacent floats. That
/// exit is exact: `measure` is a pure function, `measure(hi)` is known to
/// reach the target and `measure(lo)` to miss it (`lo` cannot still be
/// its initial 0 there, since 60 halvings leave `hi` far above the
/// smallest float), so a midpoint equal to either end would only
/// reassign that end to itself on every remaining step.
fn bisect_scale(what: &str, target_ms: f64, mut measure: impl FnMut(f64) -> f64) -> f64 {
    let floor = measure(0.0);
    assert!(
        target_ms >= floor - 1e-6,
        "{what}: target {target_ms} ms below geometric floor {floor} ms"
    );
    let mut hi = MAX_SCALE_M;
    assert!(
        measure(hi) >= target_ms,
        "{what}: target {target_ms} ms beyond scale ceiling"
    );
    let mut lo = 0.0;
    for _ in 0..60 {
        let mid = (lo + hi) / 2.0;
        if mid == lo || mid == hi {
            break;
        }
        if measure(mid) < target_ms {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo + hi) / 2.0
}

/// Where a redundancy rail attaches and runs.
struct RailPlan {
    /// Interior rail-tower positions.
    interior: Vec<LatLon>,
    /// Index of the first covered tower within the parent chain.
    lo: usize,
    /// Index of the last covered tower within the parent chain.
    hi: usize,
}

/// Build the rail covering parent towers `lo..=hi`: interior towers
/// sampled along the parent polyline at the rail hop spacing, laterally
/// offset so the rail parallels (and slightly exceeds) the parent.
fn plan_rail(parent: &[LatLon], lo: usize, hi: usize, hop_km: f64) -> RailPlan {
    let run = &parent[lo..=hi];
    let mut interior = sample_along(run, hop_km * 1000.0, RAIL_OFFSET_M);
    if interior.is_empty() {
        // Short run: a single offset midpoint still provides a bypass.
        let mid = gc_interpolate(&run[0], run.last().expect("run non-empty"), 0.5);
        let bearing = gc_initial_bearing_deg(&run[0], run.last().expect("run non-empty"));
        interior = vec![gc_destination(&mid, bearing + 90.0, RAIL_OFFSET_M)];
    }
    RailPlan { interior, lo, hi }
}

/// Build one modeled network's licenses, in filing order, with
/// [`unstamped`] ids. Reads no id, so networks build independently.
fn build_network(spec: &NetworkSpec, seed: u64) -> Vec<License> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let cme = CME.position();
    let ny4 = EQUINIX_NY4.position();

    // ---- Skeleton anchors. ----
    let tail_m = spec.tail_km * 1000.0;
    let d_w = tail_m / 2.0;
    let d_e = tail_m / 2.0;
    let west = gc_destination(&cme, gc_initial_bearing_deg(&cme, &ny4), d_w);
    let branch = gc_interpolate(&cme, &ny4, BRANCH_FRAC);
    let east4 = gc_destination(&ny4, gc_initial_bearing_deg(&ny4, &branch), d_e);

    let route_links = spec.ny4_route_towers - 1;
    let trunk_towers = ((spec.ny4_route_towers as f64) * BRANCH_FRAC)
        .round()
        .max(3.0) as usize;
    let trunk_links = trunk_towers - 1;
    let spur4_links = route_links - trunk_links;

    // The trunk is fixed and essentially straight; every era's latency
    // adjustment happens on the spurs' offsets.
    let trunk_geom = make_chain_geometry(trunk_towers - 2, &mut rng);
    let trunk_offsets: Vec<f64> = trunk_geom
        .unit_offsets
        .iter()
        .map(|u| u * TRUNK_SCALE_M)
        .collect();
    let trunk_positions_all =
        place_chain_with_offsets(&west, &branch, &trunk_geom.ts, &trunk_offsets);
    let trunk_len = polyline_length_m(&trunk_positions_all);

    let spur4_geom = make_chain_geometry(spur4_links - 1, &mut rng);
    let mut spur4 = MovableChain::new(branch, east4, spur4_geom);
    // Bias the final approach south of the direct line: positive offsets
    // point south here, and without this the spur's last towers sit inside
    // NYSE's 50 km fiber circle, letting a network's NY4 route double as a
    // shortcut to NYSE that caps its NYSE latency below the intended value
    // (the Webline Holdings case: its NYSE path is >100 µs slower than a
    // hop off its NY4 route would be). The bias is absolute (meters) so
    // big-wiggle networks are not pushed so far south that their own NY4
    // route starts skipping the final towers.
    if let Some(n) = spur4.bias_m.len().checked_sub(1) {
        spur4.bias_m[n] = 6_500.0;
        if n >= 1 {
            spur4.bias_m[n - 1] = 4_000.0;
        }
    }

    // ---- Era calibration for all but the final era (polyline metric is
    // exact there: rails come online near the end of the story and are
    // handicapped, and tolerances before the 2020 snapshot are µs-scale).
    assert!(
        !spec.eras.is_empty(),
        "{}: connected networks need eras",
        spec.name
    );
    let last_era = spec.eras.len() - 1;
    for era in &spec.eras[..last_era] {
        let target = target_mw_length_m(era.ny4_latency_ms, tail_m) - trunk_len;
        let os = calibrate_chain(&spur4, target, MOVE_THRESHOLD_M, MAX_SCALE_M);
        spur4.history.push((era.date, os));
    }

    // ---- NYSE / NASDAQ spur geometry (tower counts fixed up front so
    // rail coverage arithmetic can run before calibration).
    struct SpurPlan {
        dc: &'static hft_core::DataCenter,
        frame: ChainFrame,
        geom: ChainGeometry,
        n_links: usize,
        target_ms: f64,
        covered: usize,
        positions: Vec<LatLon>, // filled by calibration
        rail: Option<RailPlan>, // filled by calibration
    }
    let mut spurs: Vec<SpurPlan> = Vec::new();
    for (target, dc) in [
        (spec.final_latency.and_then(|f| f.nyse), &NYSE),
        (spec.final_latency.and_then(|f| f.nasdaq), &NASDAQ),
    ] {
        let Some(target_ms) = target else { continue };
        let east = gc_destination(
            &dc.position(),
            gc_initial_bearing_deg(&dc.position(), &branch),
            d_e,
        );
        let dist_ratio = gc_distance_m(&branch, &east) / gc_distance_m(&branch, &east4);
        let n_links = ((spur4_links as f64) * dist_ratio).round().max(2.0) as usize;
        let geom = make_chain_geometry(n_links - 1, &mut rng);
        spurs.push(SpurPlan {
            dc,
            frame: ChainFrame::new(&branch, &east, &geom.ts),
            geom,
            n_links,
            target_ms,
            covered: 0,
            positions: Vec::new(),
            rail: None,
        });
    }

    // ---- Rail coverage arithmetic (from the APA targets). ----
    let mut c_trunk = 0usize;
    let mut c_spur4 = 0usize;
    if spec.rails_online.is_some() {
        let needed4 = (spec.apa.ny4 * route_links as f64).round() as usize;
        let mut needed_all = vec![needed4];
        let apa_for = |dc: &hft_core::DataCenter| {
            if dc.code == NYSE.code {
                spec.apa.nyse
            } else {
                spec.apa.nasdaq
            }
        };
        for s in &spurs {
            needed_all.push((apa_for(s.dc) * (trunk_links + s.n_links) as f64).round() as usize);
        }
        c_trunk = needed_all
            .iter()
            .copied()
            .min()
            .unwrap_or(0)
            .min(trunk_links);
        c_spur4 = needed4.saturating_sub(c_trunk).min(spur4_links);
        for (i, s) in spurs.iter_mut().enumerate() {
            s.covered = needed_all[i + 1].saturating_sub(c_trunk).min(s.n_links);
        }
    }
    let trunk_rail = (c_trunk > 0).then(|| {
        plan_rail(
            &trunk_positions_all,
            trunk_links - c_trunk,
            trunk_links,
            spec.rail_hop_km,
        )
    });

    // Probe assembly shared by the closed-loop calibrations: the straight
    // trunk plus its rail.
    let probe_base = |pn: &mut ProbeNet| -> Vec<usize> {
        let trunk_ids = pn.add_chain(&trunk_positions_all);
        if let Some(rail) = &trunk_rail {
            pn.add_chain_between(trunk_ids[rail.lo], &rail.interior, trunk_ids[rail.hi]);
        }
        trunk_ids
    };

    // ---- Closed-loop calibration: NYSE/NASDAQ spurs. ----
    for s in &mut spurs {
        let mut memo = RouteMemo::new();
        let measure = |scale: f64| -> f64 {
            let offsets: Vec<f64> = s.geom.unit_offsets.iter().map(|u| u * scale).collect();
            let pts = s.frame.place(&offsets);
            let mut pn = ProbeNet::new();
            let trunk_ids = probe_base(&mut pn);
            // Spur chain: anchored at the branch (last trunk tower), new
            // towers for the rest.
            let base = pn.positions.len();
            pn.positions.extend_from_slice(&pts[1..]);
            let mut ids_chain = vec![*trunk_ids.last().expect("trunk non-empty")];
            ids_chain.extend(base..base + pts.len() - 1);
            for w in ids_chain.windows(2) {
                pn.links.push((w[0], w[1]));
            }
            if s.covered > 0 {
                let rail = plan_rail(&pts, 0, s.covered, spec.rail_hop_km);
                pn.add_chain_between(ids_chain[rail.lo], &rail.interior, ids_chain[rail.hi]);
            }
            memo.latency_ms(pn.fingerprint(), || pn.latency_ms(&CME, s.dc))
                .expect("probe network is connected")
        };
        let scale = bisect_scale(
            &format!("{} {}", spec.name, s.dc.code),
            s.target_ms,
            measure,
        );
        let offsets: Vec<f64> = s.geom.unit_offsets.iter().map(|u| u * scale).collect();
        s.positions = s.frame.place(&offsets);
        s.rail = (s.covered > 0).then(|| plan_rail(&s.positions, 0, s.covered, spec.rail_hop_km));
    }

    // ---- Closed-loop calibration: final era of the NY4 spur. ----
    // The spur-4 rail follows the parent as it stood when the rails came
    // online; when that predates the final era the rail geometry is fixed
    // history, otherwise it tracks the probe.
    let rails_online = spec.rails_online;
    let rail4_static: Option<RailPlan> = match rails_online {
        Some(online) if c_spur4 > 0 && !spur4.history.is_empty() => {
            let offs = spur4.offsets_at(online);
            let pts = spur4.positions_with(&offs);
            Some(plan_rail(&pts, 0, c_spur4, spec.rail_hop_km))
        }
        _ => None,
    };
    {
        let final_target = spec.eras[last_era].ny4_latency_ms;
        let cur = spur4.current_offsets();
        let mut memo = RouteMemo::new();
        let measure = |scale: f64| -> f64 {
            let offsets = materialize(&spur4.geometry.unit_offsets, &cur, scale, 0.0);
            let pts = spur4.positions_with(&offsets);
            let mut pn = ProbeNet::new();
            let trunk_ids = probe_base(&mut pn);
            let base = pn.positions.len();
            pn.positions.extend_from_slice(&pts[1..]);
            let mut ids_chain = vec![*trunk_ids.last().expect("trunk non-empty")];
            ids_chain.extend(base..base + pts.len() - 1);
            for w in ids_chain.windows(2) {
                pn.links.push((w[0], w[1]));
            }
            match (&rail4_static, c_spur4 > 0) {
                (Some(rail), _) => {
                    pn.add_chain_between(ids_chain[rail.lo], &rail.interior, ids_chain[rail.hi]);
                }
                (None, true) => {
                    let rail = plan_rail(&pts, 0, c_spur4, spec.rail_hop_km);
                    pn.add_chain_between(ids_chain[rail.lo], &rail.interior, ids_chain[rail.hi]);
                }
                (None, false) => {}
            }
            memo.latency_ms(pn.fingerprint(), || pn.latency_ms(&CME, &EQUINIX_NY4))
                .expect("probe network is connected")
        };
        let scale = bisect_scale(&format!("{} NY4 final", spec.name), final_target, measure);
        let offsets = materialize(&spur4.geometry.unit_offsets, &cur, scale, 0.0);
        spur4.history.push((spec.eras[last_era].date, offsets));
    }
    // Each era's spur placed once; tower `j` of era `w` is `placed[w][j + 1]`.
    let placed: Vec<Vec<LatLon>> = spur4
        .history
        .iter()
        .map(|(_, offsets)| spur4.positions_with(offsets))
        .collect();
    let rail4: Option<RailPlan> = match rail4_static {
        Some(r) => Some(r),
        None if c_spur4 > 0 => Some(plan_rail(&placed[last_era], 0, c_spur4, spec.rail_hop_km)),
        None => None,
    };

    // ---- Registry: trunk (fixed) + spur4 towers with move timelines. ----
    let era0 = spec.eras[0].date;
    let mut nb = NetBuilder::new();
    let jittered_timeline = |j: usize, rng: &mut ChaCha8Rng| -> TowerRec {
        let mut timeline = vec![(Date::MIN, placed[0][j + 1])];
        for (w, pair) in spur4.history.windows(2).enumerate() {
            let (prev_date, ref prev_off) = pair[0];
            let (next_date, ref next_off) = pair[1];
            if (next_off[j] - prev_off[j]).abs() > 1e-9 {
                // Move materialized in era w+1: pick a date inside the window.
                let window = (next_date - prev_date - 1).max(1);
                let move_date =
                    prev_date.add_days(1 + (rng.gen::<f64>() * (window - 1).max(1) as f64) as i64);
                timeline.push((move_date, placed[w + 1][j + 1]));
            }
        }
        TowerRec { timeline }
    };

    let mut trunk_ids = Vec::with_capacity(trunk_towers);
    for p in &trunk_positions_all[..trunk_positions_all.len() - 1] {
        trunk_ids.push(nb.add_tower(TowerRec::fixed(*p)));
    }
    let branch_id = nb.add_tower(TowerRec::fixed(branch));
    trunk_ids.push(branch_id);

    let mut spur4_ids = vec![branch_id];
    for j in 0..spur4.geometry.len() {
        let rec = jittered_timeline(j, &mut rng);
        spur4_ids.push(nb.add_tower(rec));
    }
    spur4_ids.push(nb.add_tower(TowerRec::fixed(east4)));

    // ---- Route links with ramped online dates and frequencies. ----
    let ramp_end = era0.add_days(-5);
    let ramp_days = (ramp_end - spec.first_grant).max(1);
    let primary_plan = BandPlan::new(spec.primary_band);
    let route_channels = primary_plan.assign_chain(route_links);
    let offband_idx = (spec.primary_band == Band::L6GHz && spur4_links > 6)
        .then(|| trunk_links + spur4_links / 2);
    let offband_plan = BandPlan::new(Band::B11GHz);
    let push_route_link =
        |nb: &mut NetBuilder, i: usize, a: usize, b: usize, rng: &mut ChaCha8Rng| {
            let online = spec
                .first_grant
                .add_days((i as i64 * ramp_days) / route_links as i64)
                .add_days((rng.gen::<f64>() * 3.0) as i64);
            let mut freqs = vec![route_channels[i].center_hz];
            if Some(i) == offband_idx {
                freqs = vec![offband_plan.channel(3).center_hz];
            } else if rng.gen::<f64>() < 0.3 {
                // Some links get a second authorized channel.
                freqs.push(primary_plan.channel(route_channels[i].index + 5).center_hz);
            }
            nb.add_link(LinkPlan {
                a,
                b,
                online: online.min(ramp_end),
                offline: None,
                freq_hz: freqs,
            });
        };
    for (i, w) in trunk_ids.windows(2).enumerate() {
        push_route_link(&mut nb, i, w[0], w[1], &mut rng);
    }
    for (i, w) in spur4_ids.windows(2).enumerate() {
        push_route_link(&mut nb, trunk_links + i, w[0], w[1], &mut rng);
    }

    // ---- NYSE / NASDAQ spur registry + links. ----
    let mut spur_chain_ids: Vec<Vec<usize>> = Vec::new();
    for s in &spurs {
        let mut ids_chain = vec![branch_id];
        for p in &s.positions[1..] {
            ids_chain.push(nb.add_tower(TowerRec::fixed(*p)));
        }
        let channels = primary_plan.assign_chain(s.n_links);
        for (i, w) in ids_chain.windows(2).enumerate() {
            let online = era0.add_days(14 + (i as i64 * 9) + (rng.gen::<f64>() * 5.0) as i64);
            nb.add_link(LinkPlan {
                a: w[0],
                b: w[1],
                online,
                offline: None,
                freq_hz: vec![channels[i].center_hz],
            });
        }
        spur_chain_ids.push(ids_chain);
    }

    // ---- Rails registry + links. ----
    if let Some(online) = rails_online {
        let rail_plan_band = BandPlan::new(spec.rail_band);
        let add_rail =
            |nb: &mut NetBuilder, rail: &RailPlan, parent_ids: &[usize], rng: &mut ChaCha8Rng| {
                let mut chain_ids = vec![parent_ids[rail.lo]];
                for p in &rail.interior {
                    chain_ids.push(nb.add_tower(TowerRec::fixed(*p)));
                }
                chain_ids.push(parent_ids[rail.hi]);
                for (i, w) in chain_ids.windows(2).enumerate() {
                    let use_rail_band =
                        ((i * 37 + 11) % 100) as f64 / 100.0 < spec.rail_band_fraction;
                    let chan = if use_rail_band {
                        rail_plan_band.channel(i)
                    } else {
                        primary_plan.channel(i + 7)
                    };
                    // Rails build out over ~2 years, not weeks: the Fig-2
                    // license curves should climb through the redundancy era.
                    let link_online =
                        online.add_days((i as i64 * 12) + (rng.gen::<f64>() * 7.0) as i64);
                    nb.add_link(LinkPlan {
                        a: w[0],
                        b: w[1],
                        online: link_online,
                        offline: None,
                        freq_hz: vec![chan.center_hz],
                    });
                }
            };
        if let Some(rail) = &trunk_rail {
            add_rail(&mut nb, rail, &trunk_ids, &mut rng);
        }
        if let Some(rail) = &rail4 {
            add_rail(&mut nb, rail, &spur4_ids, &mut rng);
        }
        for (s, ids_chain) in spurs.iter().zip(&spur_chain_ids) {
            if let Some(rail) = &s.rail {
                add_rail(&mut nb, rail, ids_chain, &mut rng);
            }
        }
    }

    // ---- Emit core licenses. ----
    let mut licenses = nb.emit(&spec.name, &mut rng);

    // ---- Spares to satisfy the Fig.-2 anchors. ----
    // `licenses` accumulates spares as we go, so counting active licenses
    // at each anchor date sees both the core network and earlier spares.
    let mut prev_anchor = spec.first_grant;
    let mut open_spares: Vec<usize> = Vec::new(); // spare indexes into `licenses`
    for anchor in &spec.license_anchors {
        let total_now = licenses.iter().filter(|l| l.active_on(anchor.date)).count();
        let want = anchor.count;
        if want > total_now {
            let add = want - total_now;
            let window = (anchor.date - prev_anchor - 1).max(1);
            for k in 0..add {
                let grant = prev_anchor
                    .add_days(1 + ((k as i64 * window) / add as i64))
                    .min(anchor.date.add_days(-1))
                    .max(spec.first_grant);
                let t = 0.05 + rng.gen::<f64>() * 0.9;
                let lateral = 15_000.0 + rng.gen::<f64>() * 25_000.0;
                let side = if rng.gen::<f64>() < 0.5 { 90.0 } else { -90.0 };
                let on_line = gc_interpolate(&cme, &ny4, t);
                let bearing = gc_initial_bearing_deg(&on_line, &ny4);
                let p1 = gc_destination(&on_line, bearing + side, lateral);
                let p2 = gc_destination(
                    &p1,
                    bearing + side * 0.2,
                    6_000.0 + rng.gen::<f64>() * 9_000.0,
                );
                let (id, call_sign) = unstamped();
                licenses.push(License {
                    id,
                    call_sign,
                    licensee: spec.name.clone(),
                    service: RadioService::MG,
                    station_class: StationClass::FXO,
                    grant_date: grant,
                    termination_date: Some(grant.add_days(15 * 365)),
                    cancellation_date: None,
                    paths: vec![MicrowavePath {
                        tx: tower_site(&mut rng, p1),
                        rx: tower_site(&mut rng, p2),
                        frequencies: vec![FrequencyAssignment {
                            center_hz: BandPlan::new(spec.rail_band).channel(k).center_hz,
                        }],
                    }],
                });
                open_spares.push(licenses.len() - 1);
            }
        } else if want < total_now {
            // Cancel excess spares (never core) inside the window.
            let mut excess = total_now - want;
            let window = (anchor.date - prev_anchor - 1).max(1);
            let mut k = 0i64;
            open_spares.retain(|&i| {
                if excess > 0 && licenses[i].cancellation_date.is_none() {
                    let cancel = prev_anchor.add_days(1 + (k * 13) % window);
                    licenses[i].cancellation_date = Some(cancel.min(anchor.date.add_days(-1)));
                    excess -= 1;
                    k += 1;
                    false
                } else {
                    true
                }
            });
        }
        prev_anchor = anchor.date;
    }

    // ---- Shutdown (National Tower Company). ----
    if let Some(shutdown) = spec.shutdown {
        let window1_start = shutdown.add_days(-196);
        let year_end = Date::new(shutdown.year(), 12, 20).expect("valid");
        let window2_start = Date::new(shutdown.year() + 1, 1, 15).expect("valid");
        let mut k = 0u64;
        for lic in &mut licenses {
            let dies_later = lic.cancellation_date.is_none_or(|c| c > window1_start);
            if !dies_later {
                continue;
            }
            // ~74% of the survivors fall in the shutdown year, the rest
            // the year after — Fig. 2's "cancelled 71 licenses in 2017
            // and 2018".
            let in_first = (k * 61) % 100 < 74;
            let cancel = if in_first {
                let span = (year_end - window1_start).max(1);
                window1_start.add_days(((k * 37) % span as u64) as i64)
            } else {
                window2_start.add_days(((k * 29) % 230) as i64)
            };
            lic.cancellation_date = Some(cancel.max(lic.grant_date.succ()));
            k += 1;
        }
    }

    licenses
}

/// Names used by the hidden split-entity network (§2.4): one physical
/// CME→NY4 chain filed as a western and an eastern shell licensee that
/// share exactly one mid-corridor tower.
pub const SPLIT_ENTITY_NAMES: (&str, &str) =
    ("Lakefront Route Holdings", "Seaboard Route Holdings");

/// Build one split-entity network: a complete corridor chain whose links
/// are filed under two shells in *alternation* (odd hops under one name,
/// even hops under the other), so neither shell alone forms a single
/// usable hop sequence while the merged filings form a ~3.99 ms path.
/// Both shells hold licenses near CME, so both survive the paper's
/// geographic funnel — exactly the §2.4 blind spot.
fn build_split_entity(ids: &mut IdAllocator, seed: u64) -> Vec<License> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let cme = CME.position();
    let ny4 = EQUINIX_NY4.position();
    let d_tail = 2_500.0;
    let west_anchor = gc_destination(&cme, gc_initial_bearing_deg(&cme, &ny4), d_tail);
    let east_anchor = gc_destination(&ny4, gc_initial_bearing_deg(&ny4, &cme), d_tail);
    let geometry = make_chain_geometry(24, &mut rng);
    let mut points = place_chain_with_offsets(
        &west_anchor,
        &east_anchor,
        &geometry.ts,
        &geometry
            .unit_offsets
            .iter()
            .map(|u| u * 7_000.0)
            .collect::<Vec<_>>(),
    );
    // A short first hop puts one license of EACH shell inside the 10 km
    // geographic-search circle around CME (the alternation starts here).
    points.insert(
        1,
        gc_destination(
            &west_anchor,
            gc_initial_bearing_deg(&west_anchor, &ny4),
            5_500.0,
        ),
    );
    let plan = BandPlan::new(Band::B11GHz);
    let channels = plan.assign_chain(points.len() - 1);
    let grant_base = Date::new(2017, 3, 10).expect("static");
    let mut out = Vec::new();
    for (i, w) in points.windows(2).enumerate() {
        let licensee = if i % 2 == 0 {
            SPLIT_ENTITY_NAMES.0
        } else {
            SPLIT_ENTITY_NAMES.1
        };
        let (id, call_sign) = ids.next_id();
        out.push(License {
            id,
            call_sign,
            licensee: licensee.to_string(),
            service: RadioService::MG,
            station_class: StationClass::FXO,
            grant_date: grant_base.add_days(i as i64 * 11),
            termination_date: Some(grant_base.add_days(15 * 365)),
            cancellation_date: None,
            paths: vec![MicrowavePath {
                tx: tower_site(&mut rng, w[0]),
                rx: tower_site(&mut rng, w[1]),
                frequencies: vec![FrequencyAssignment {
                    center_hz: channels[i].center_hz,
                }],
            }],
        });
    }
    out
}

/// Generate the full ecosystem from a scenario and a seed. Deterministic:
/// identical inputs produce an identical corpus.
pub fn generate(spec: &ScenarioSpec, seed: u64) -> GeneratedEcosystem {
    let mut ids = IdAllocator::new(10_001);
    // Every generator group appends to one license list, which becomes
    // the corpus in one bulk build (`UlsDatabase::from_licenses` sorts
    // each index once and sizes it exactly).
    let mut licenses = Vec::new();
    let mut modeled = Vec::new();
    let mut connected = Vec::new();

    // Each modeled network calibrates on its own, so they build in
    // parallel; ids and call signs are stamped afterwards in spec order
    // and filing order, exactly as a serial build would assign them.
    let built = par_map(spec.networks.iter().enumerate().collect(), |(i, net)| {
        let child_seed = seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
        build_network(net, child_seed)
    });
    for (net, mut network) in spec.networks.iter().zip(built) {
        ids.stamp(&mut network);
        licenses.append(&mut network);
        modeled.push(net.name.clone());
        if net.final_latency.is_some() {
            connected.push(net.name.clone());
        }
    }

    for k in 0..spec.split_entity_pairs {
        licenses.extend(build_split_entity(
            &mut ids,
            seed ^ (0x5157_1111u64 + k as u64),
        ));
    }

    let cme = CME.position();
    let ny4 = EQUINIX_NY4.position();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD_EF01_2345_6789);
    licenses.extend(noise::partial_licensees(
        spec.partial_licensees,
        &cme,
        &ny4,
        &mut ids,
        &mut rng,
    ));
    licenses.extend(noise::small_licensees(
        spec.small_licensees,
        &cme,
        &mut ids,
        &mut rng,
    ));
    licenses.extend(noise::other_service_licensees(
        spec.other_service_licensees,
        &cme,
        &mut ids,
        &mut rng,
    ));

    let db = UlsDatabase::from_licenses(licenses);
    GeneratedEcosystem {
        db,
        modeled,
        connected_2020: connected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::chicago_nj;
    use hft_core::corridor;
    use hft_core::{reconstruct, route, ReconstructOptions};
    use hft_uls::UlsPortal;

    fn licenses_of<'a>(db: &'a UlsDatabase, name: &str) -> Vec<&'a License> {
        db.licensee_search(name)
    }

    #[test]
    fn nln_final_latency_matches_table1() {
        let spec = chicago_nj();
        let nln_spec = spec
            .networks
            .iter()
            .find(|n| n.name == "New Line Networks")
            .unwrap();
        let mut lics = build_network(nln_spec, 42);
        IdAllocator::new(1).stamp(&mut lics);
        let refs: Vec<&License> = lics.iter().collect();
        let asof = Date::new(2020, 4, 1).unwrap();
        let net = reconstruct(
            &refs,
            "New Line Networks",
            asof,
            &ReconstructOptions::default(),
        );
        let r = route(&net, &corridor::CME, &corridor::EQUINIX_NY4).expect("connected");
        assert!(
            (r.latency_ms - 3.96171).abs() < 0.0005,
            "calibration missed: got {} want 3.96171",
            r.latency_ms
        );
        assert_eq!(r.towers, 25, "Table 1 tower count");
    }

    #[test]
    fn era_latencies_track_fig1() {
        let spec = chicago_nj();
        let wh_spec = spec
            .networks
            .iter()
            .find(|n| n.name == "Webline Holdings")
            .unwrap();
        let mut lics = build_network(wh_spec, 42);
        IdAllocator::new(1).stamp(&mut lics);
        let refs: Vec<&License> = lics.iter().collect();
        for era in &wh_spec.eras {
            let net = reconstruct(
                &refs,
                "Webline Holdings",
                era.date,
                &ReconstructOptions::default(),
            );
            let r = route(&net, &corridor::CME, &corridor::EQUINIX_NY4)
                .unwrap_or_else(|| panic!("WH must be connected on {}", era.date));
            assert!(
                (r.latency_ms - era.ny4_latency_ms).abs() < 0.004,
                "era {}: got {} want {}",
                era.date,
                r.latency_ms,
                era.ny4_latency_ms
            );
        }
    }

    #[test]
    fn generate_is_deterministic() {
        let spec = chicago_nj();
        let a = generate(&spec, 7);
        let b = generate(&spec, 7);
        assert_eq!(a.db.len(), b.db.len());
        for (x, y) in a.db.licenses().iter().zip(b.db.licenses()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn full_funnel_counts() {
        let eco = generate(&chicago_nj(), 2020);
        let (shortlisted, report) = hft_uls::scrape::run_pipeline(
            &eco.db,
            &corridor::CME.position(),
            &hft_uls::scrape::ScrapeConfig::default(),
        );
        assert_eq!(report.service_filtered, 57, "57 MG/FXO candidates (§2.2)");
        assert_eq!(report.shortlisted, 29, "29 shortlisted (§2.2)");
        assert_eq!(shortlisted.len(), 29);
    }

    #[test]
    fn ntc_vanishes() {
        let eco = generate(&chicago_nj(), 2020);
        let lics = licenses_of(&eco.db, "National Tower Company");
        assert!(!lics.is_empty());
        let d2019 = Date::new(2019, 1, 1).unwrap();
        assert_eq!(
            lics.iter().filter(|l| l.active_on(d2019)).count(),
            0,
            "NTC gone by 2019"
        );
        let d2016 = Date::new(2016, 1, 1).unwrap();
        let active_2016 = lics.iter().filter(|l| l.active_on(d2016)).count();
        assert!(active_2016 > 80, "NTC at its peak in 2016: {active_2016}");
    }
}
