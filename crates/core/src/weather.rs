//! The §5 reliability argument as a runnable experiment.
//!
//! The paper *argues* that Webline Holdings survives against faster
//! competitors because its shorter links, lower frequencies and higher
//! APA make it more reliable: "one network may be able to dominate
//! another in fair weather, but a more reliable network may be faster at
//! other times." This module quantifies that claim: sample corridor
//! weather states, fail the links whose rain attenuation exceeds their
//! fade margin, and recompute each network's conditional latency.

use crate::corridor::DataCenter;
use crate::route::RoutingGraph;
use crate::Network;
use hft_netgraph::DijkstraWorkspace;
use hft_radio::{LinkOutageModel, RainScreen, WeatherEvent, WeatherSampler};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Distribution summary of a network's latency across weather states.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeatherOutcome {
    /// Clear-sky latency, ms.
    pub clear_ms: f64,
    /// Median conditional latency, ms (disconnected samples count as ∞).
    pub p50_ms: f64,
    /// 95th-percentile conditional latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile conditional latency, ms.
    pub p99_ms: f64,
    /// Fraction of weather states in which the network stays connected.
    pub availability: f64,
    /// Number of sampled weather states.
    pub samples: usize,
}

/// Run the weather Monte Carlo for `network` between two data centers.
///
/// Each sample draws a corridor weather state from `sampler`; every
/// microwave link whose rain attenuation (at its length and lowest
/// authorized frequency) exceeds its clear-air fade margin is removed,
/// and the route re-solved. Deterministic in `seed`.
pub fn conditional_latency(
    network: &Network,
    a: &DataCenter,
    b: &DataCenter,
    sampler: &WeatherSampler,
    samples: usize,
    seed: u64,
) -> Option<WeatherOutcome> {
    conditional_latency_on(
        &RoutingGraph::build(network, a, b),
        network,
        a,
        b,
        sampler,
        samples,
        seed,
    )
}

/// [`conditional_latency`] over a pre-built routing graph, so callers
/// holding a cached graph (e.g. an analysis session) skip the rebuild.
/// `rg` must have been built for `network` between `a` and `b`.
///
/// The entire Monte Carlo is a pure function of `seed`: the RNG is
/// constructed here from the seed and threaded explicitly through
/// [`conditional_latency_rng`] — no ambient entropy anywhere — so two
/// runs with the same inputs are bit-identical.
pub fn conditional_latency_on(
    rg: &RoutingGraph,
    network: &Network,
    a: &DataCenter,
    b: &DataCenter,
    sampler: &WeatherSampler,
    samples: usize,
    seed: u64,
) -> Option<WeatherOutcome> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    conditional_latency_rng(rg, network, a, b, sampler, samples, &mut rng)
}

/// [`conditional_latency_on`] with the weather-state RNG threaded in by
/// the caller, for composing the MC into a larger deterministic
/// experiment (one seeded stream shared across several runs).
///
/// # Panics
/// When `samples` is zero and the data centers are connected.
pub fn conditional_latency_rng<R: Rng + ?Sized>(
    rg: &RoutingGraph,
    network: &Network,
    a: &DataCenter,
    b: &DataCenter,
    sampler: &WeatherSampler,
    samples: usize,
    rng: &mut R,
) -> Option<WeatherOutcome> {
    let mut kernel = Kernel::new(rg, network, a, b)?;
    assert!(samples > 0, "a Monte Carlo needs at least one state");
    let clear_ms = kernel.clear_ms;
    // Only rerouted latencies are kept; the clear-sky majority and the
    // disconnected states are counts.
    let mut rerouted = Vec::new();
    let (mut clear, mut disconnected) = (0usize, 0usize);
    for _ in 0..samples {
        match sampler
            .sample(rng)
            .map_or(Latency::Clear, |event| kernel.latency(&event))
        {
            Latency::Clear => clear += 1,
            Latency::Rerouted(ms) => rerouted.push(ms),
            Latency::Disconnected => disconnected += 1,
        }
    }
    rerouted.sort_by(f64::total_cmp);
    // Index the sorted vector of every state's latency without building
    // it: the rerouted latencies below the clear one, the clear block,
    // the remaining rerouted latencies, then the disconnected states at
    // +∞.
    let below = rerouted.partition_point(|&ms| ms < clear_ms);
    let sorted = |i: usize| {
        if i < below {
            rerouted[i]
        } else if i < below + clear {
            clear_ms
        } else {
            rerouted.get(i - clear).copied().unwrap_or(f64::INFINITY)
        }
    };
    let q = |p: f64| sorted(((p * samples as f64) as usize).min(samples - 1));
    Some(WeatherOutcome {
        clear_ms,
        p50_ms: q(0.50),
        p95_ms: q(0.95),
        p99_ms: q(0.99),
        availability: (samples - disconnected) as f64 / samples as f64,
        samples,
    })
}

/// How one weather state leaves a network's route.
enum Latency {
    /// No failed link is on the clear-sky route, so its latency stands.
    Clear,
    /// The clear-sky route broke and the best detour takes this long, ms.
    Rerouted(f64),
    /// No route survives.
    Disconnected,
}

/// One network's Monte Carlo tables, built once per call: its microwave
/// links sorted by corridor position with their rain screens, the routing
/// graph's edge costs, and the failure marks and search buffers every
/// weather state reuses.
struct Kernel<'a> {
    rg: &'a RoutingGraph,
    clear_ms: f64,
    /// Sorted by `x`, ties by edge.
    links: Vec<Link>,
    /// Latency of each routing-graph edge, seconds.
    cost_s: Vec<f64>,
    /// Failed routing-graph edges in the current state.
    down: Vec<bool>,
    /// The edges `down` marks, to clear them after the state.
    failed: Vec<usize>,
    search: DijkstraWorkspace,
}

/// A microwave link's row in a [`Kernel`].
struct Link {
    /// Position along the corridor as a fraction `0..=1` of the way from
    /// `a` to `b`: the nearer endpoint's distance from `a`.
    x: f64,
    /// Routing-graph edge index.
    edge: usize,
    /// The link's radio at its length and lowest frequency.
    model: LinkOutageModel,
    /// `model`'s outage decision, built when rain first reaches the link:
    /// a sweep's one-state runs never pay for the links they skip.
    screen: Option<RainScreen>,
    /// Whether the clear-sky route uses the link.
    on_clear: bool,
}

impl<'a> Kernel<'a> {
    /// The tables for `network` over `rg`, or `None` when the data
    /// centers are not connected.
    fn new(
        rg: &'a RoutingGraph,
        network: &Network,
        a: &DataCenter,
        b: &DataCenter,
    ) -> Option<Kernel<'a>> {
        let clear = rg.route_filtered(network, |_| true)?;
        let mut on_clear = vec![false; network.graph.edge_count()];
        for e in &clear.mw_edges {
            on_clear[e.index()] = true;
        }
        let a_pos = a.position();
        let corridor_len = a_pos.geodesic_distance_m(&b.position());
        let mut links: Vec<Link> = rg
            .graph
            .edges()
            .filter_map(|(edge, _, _, re)| {
                let mw = re.mw_edge?;
                let (u, v) = network.graph.endpoints(mw);
                let d = a_pos
                    .geodesic_distance_m(&network.graph.node(u).position)
                    .min(a_pos.geodesic_distance_m(&network.graph.node(v).position));
                let x = (d / corridor_len).clamp(0.0, 1.0);
                // A zero-length corridor puts a link at 0/0: no rain falls
                // at a NaN position, and the sorted cull needs ordered ones.
                if x.is_nan() {
                    return None;
                }
                let link = network.graph.edge(mw);
                let freq = link
                    .frequencies_ghz
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min);
                let freq = if freq.is_finite() { freq } else { 11.0 };
                Some(Link {
                    x,
                    edge: edge.index(),
                    model: LinkOutageModel::typical(link.length_m / 1000.0, freq),
                    screen: None,
                    on_clear: on_clear[mw.index()],
                })
            })
            .collect();
        links.sort_by(|p, q| p.x.total_cmp(&q.x).then(p.edge.cmp(&q.edge)));
        Some(Kernel {
            rg,
            clear_ms: clear.latency_ms,
            links,
            cost_s: rg.graph.edges().map(|(.., re)| re.latency_s()).collect(),
            down: vec![false; rg.graph.edge_count()],
            failed: Vec::new(),
            search: DijkstraWorkspace::new(),
        })
    }

    /// The route's latency in weather state `event`: the same answer as
    /// re-solving the route without every link whose rain attenuation
    /// exceeds its fade margin.
    ///
    /// Only links inside the rain cell are visited, and `rain_at` still
    /// decides each one. When no failed link is on the clear-sky route
    /// its latency stands, exactly: rounded addition is monotone, so
    /// Dijkstra's target label is the least rounded path sum over the
    /// graph. Removing edges cannot lower that least sum, and the
    /// surviving clear route still attains it. Otherwise the search stops
    /// once the target settles, a truncation of the identical run.
    fn latency(&mut self, event: &WeatherEvent) -> Latency {
        // A position below `center − half_width` as rounded is below it
        // exactly, so |x − center| rounds to at least `half_width` and
        // `rain_at` is zero there; likewise above `center + half_width`.
        let lo = event.center - event.half_width;
        let hi = event.center + event.half_width;
        let start = self.links.partition_point(|l| l.x < lo);
        let end = self.links.partition_point(|l| l.x <= hi).max(start);
        let mut clear_broken = false;
        for link in &mut self.links[start..end] {
            let rain = event.rain_at(link.x);
            if rain > 0.0
                && !link
                    .screen
                    .get_or_insert_with(|| link.model.rain_screen())
                    .up_under_rain(rain)
            {
                self.down[link.edge] = true;
                self.failed.push(link.edge);
                clear_broken |= link.on_clear;
            }
        }
        let latency = if clear_broken {
            let (down, cost_s) = (&self.down, &self.cost_s);
            match self.search.distance(
                &self.rg.graph,
                self.rg.source,
                self.rg.target,
                |e, _| cost_s[e.index()],
                |e| !down[e.index()],
            ) {
                Some(s) => Latency::Rerouted(s * 1e3),
                None => Latency::Disconnected,
            }
        } else {
            Latency::Clear
        };
        for e in self.failed.drain(..) {
            self.down[e] = false;
        }
        latency
    }
}

/// The §5 closing thought, quantified: "The most competitive trading
/// firms may even use a combination of both services to maintain their
/// advantage in varied conditions." Evaluates a *portfolio* of networks
/// against one shared sequence of weather states, taking the best
/// available latency in each state.
pub fn portfolio_latency(
    networks: &[&Network],
    a: &DataCenter,
    b: &DataCenter,
    sampler: &WeatherSampler,
    samples: usize,
    seed: u64,
) -> Option<WeatherOutcome> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    portfolio_latency_rng(networks, a, b, sampler, samples, &mut rng)
}

/// [`portfolio_latency`] with the RNG threaded in by the caller (same
/// contract as [`conditional_latency_rng`]: no ambient entropy).
pub fn portfolio_latency_rng<R: Rng + ?Sized>(
    networks: &[&Network],
    a: &DataCenter,
    b: &DataCenter,
    sampler: &WeatherSampler,
    samples: usize,
    rng: &mut R,
) -> Option<WeatherOutcome> {
    if networks.is_empty() {
        return None;
    }
    let graphs: Vec<RoutingGraph> = networks
        .iter()
        .map(|net| RoutingGraph::build(net, a, b))
        .collect();
    let mut members = graphs
        .iter()
        .zip(networks)
        .map(|(rg, net)| Kernel::new(rg, net, a, b))
        .collect::<Option<Vec<_>>>()?;

    let mut latencies = Vec::with_capacity(samples);
    let mut connected = 0usize;
    for _ in 0..samples {
        let state = sampler.sample(rng);
        let mut best = f64::INFINITY;
        for m in &mut members {
            let ms = match state.as_ref().map_or(Latency::Clear, |e| m.latency(e)) {
                Latency::Clear => m.clear_ms,
                Latency::Rerouted(ms) => ms,
                Latency::Disconnected => continue,
            };
            best = best.min(ms);
        }
        if best.is_finite() {
            connected += 1;
        }
        latencies.push(best);
    }
    latencies.sort_by(|x, y| x.partial_cmp(y).expect("INF sorts fine"));
    let q = |p: f64| latencies[((p * samples as f64) as usize).min(samples - 1)];
    Some(WeatherOutcome {
        clear_ms: members
            .iter()
            .map(|m| m.clear_ms)
            .fold(f64::INFINITY, f64::min),
        p50_ms: q(0.50),
        p95_ms: q(0.95),
        p99_ms: q(0.99),
        availability: connected as f64 / samples as f64,
        samples,
    })
}
