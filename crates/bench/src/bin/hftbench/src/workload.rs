//! The four workloads: what each asks, how often, over which protocol,
//! and why it is in the benchmark (see the README for the layer map).

use crate::schedule::{permutation, poisson, Rng, Zipf};
use hft_serve::api::Request;
use hft_serve::Proto;
use hft_time::Date;
use hft_uls::shard::shard_of_licensee;

/// Shards in the fleet workloads.
pub const FLEET_SHARDS: usize = 4;

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm point queries on one shard, binary protocol.
    PointWarm,
    /// Scatter-gather and point queries on a 4-shard fleet, JSON.
    FleetScatter,
    /// Reads on a 4-shard fleet while the corpus history ingests.
    LiveIngest,
    /// Weather and race Monte Carlo on one shard, binary protocol.
    ComputeMc,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::PointWarm,
        Workload::FleetScatter,
        Workload::LiveIngest,
        Workload::ComputeMc,
    ];

    /// The CLI and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointWarm => "point-warm",
            Workload::FleetScatter => "fleet-scatter",
            Workload::LiveIngest => "live-ingest",
            Workload::ComputeMc => "compute-mc",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The wire encoding the load connection negotiates.
    pub fn proto(self) -> Proto {
        match self {
            Workload::FleetScatter => Proto::Json,
            _ => Proto::Binary,
        }
    }

    /// Shards behind the server (1 = a plain `Service`).
    pub fn shards(self) -> usize {
        match self {
            Workload::PointWarm | Workload::ComputeMc => 1,
            Workload::FleetScatter | Workload::LiveIngest => FLEET_SHARDS,
        }
    }

    /// The `(low, high)` offered rates, requests per second.
    pub fn rates(self) -> (f64, f64) {
        match self {
            Workload::PointWarm => (1000.0, 3000.0),
            Workload::FleetScatter => (300.0, 1000.0),
            Workload::LiveIngest => (300.0, 800.0),
            Workload::ComputeMc => (100.0, 300.0),
        }
    }

    /// The p99 latency a capacity step must meet, ms.
    pub fn p99_limit_ms(self) -> f64 {
        match self {
            Workload::PointWarm => 2.0,
            Workload::FleetScatter => 10.0,
            Workload::LiveIngest => 20.0,
            Workload::ComputeMc => 50.0,
        }
    }
}

/// The as-of date every 2020 query uses.
pub fn d2020() -> Date {
    Date::new(2020, 4, 1).expect("valid date")
}

const PAIRS: [(&str, &str); 3] = [("CME", "NY4"), ("CME", "NYSE"), ("CME", "NASDAQ")];

/// Connected-2020 licensees, widened from the full corpus until every
/// fleet shard owns at least one, so no shard worker idles.
fn fleet_licensees(connected: &[String], all: &[&str]) -> Vec<String> {
    let mut names: Vec<String> = connected.to_vec();
    let mut covered = [false; FLEET_SHARDS];
    for name in &names {
        covered[shard_of_licensee(name, FLEET_SHARDS) as usize] = true;
    }
    for name in all {
        let k = shard_of_licensee(name, FLEET_SHARDS) as usize;
        if !covered[k] {
            covered[k] = true;
            names.push(name.to_string());
        }
    }
    names.sort();
    names
}

/// The licensees whose Monte Carlo is cheapest (about 5-8 ms per
/// 20k-sample run), so compute-mc's CPU budget fits two cores.
const MC_LICENSEES: [&str; 3] = ["Pierce Broadband", "AQ2AT", "GTT Americas"];
/// Weather states per Monte Carlo.
const MC_SAMPLES: usize = 20_000;

/// How a workload draws each request.
#[derive(Debug, Clone)]
enum Picker {
    /// Zipf popularity over a seeded permutation of the universe.
    Zipf { order: Vec<usize>, zipf: Zipf },
    /// 60% scatter (geographic 36%, site 12%, shortlist 12%), 40% point;
    /// each entry is the universe range of that kind.
    Scatter {
        geo: (usize, usize),
        site: (usize, usize),
        shortlist: (usize, usize),
        point: (usize, usize),
    },
    /// Uniform over the universe.
    Uniform,
    /// Half from the hot universe, half a race with a fresh MC seed.
    Mc,
}

/// A workload's requests: the distinct ones (warmed, and verified
/// against reference bytes computed before any server starts) and the
/// rule that draws a stream from them.
#[derive(Debug, Clone)]
pub struct Mix {
    /// Every distinct request the stream draws from.
    pub universe: Vec<Request>,
    picker: Picker,
}

/// One phase's requests: `idx[i]` names request `i`'s entry in the
/// universe, or (at `universe.len()` and beyond) in `fresh`.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// Due times, ns from the phase start.
    pub due_ns: Vec<u64>,
    /// Request table index per arrival.
    pub idx: Vec<u32>,
    /// Requests drawn fresh for this phase (compute-mc's cold races).
    pub fresh: Vec<Request>,
}

impl Mix {
    /// The mix of `w` over a corpus whose connected-2020 licensees are
    /// `connected` and whose licensees are `all`.
    pub fn new(w: Workload, seed: u64, connected: &[String], all: &[&str]) -> Mix {
        let mut rng = Rng::stream(seed, w.name());
        let date = d2020();
        let mut connected = connected.to_vec();
        connected.sort();
        let route = |licensee: &str, from: &str, to: &str| Request::Route {
            licensee: licensee.to_string(),
            date,
            from: from.into(),
            to: to.into(),
        };
        let network = |licensee: &str, date: Date| Request::Network {
            licensee: licensee.to_string(),
            date,
        };
        match w {
            Workload::PointWarm => {
                let d2019 = Date::new(2019, 1, 1).expect("valid date");
                let mut universe = Vec::new();
                for l in &connected {
                    universe.push(network(l, date));
                    universe.push(network(l, d2019));
                    for (from, to) in PAIRS {
                        universe.push(route(l, from, to));
                    }
                    universe.push(Request::Apa {
                        licensee: l.clone(),
                        date,
                        from: "CME".into(),
                        to: "NY4".into(),
                    });
                }
                let order = permutation(&mut rng, universe.len());
                let zipf = Zipf::new(universe.len());
                Mix {
                    universe,
                    picker: Picker::Zipf { order, zipf },
                }
            }
            Workload::FleetScatter => {
                let mut universe = Vec::new();
                // Random centres along the Chicago-New Jersey corridor.
                let centre = |rng: &mut Rng| {
                    let t = rng.unit();
                    let lat = 41.7625 + (40.78 - 41.7625) * t + rng.range(-0.3, 0.3);
                    let lon = -88.1712 + (-74.05 + 88.1712) * t;
                    (round4(lat), round4(lon))
                };
                for _ in 0..128 {
                    let (lat_deg, lon_deg) = centre(&mut rng);
                    universe.push(Request::Geographic {
                        lat_deg,
                        lon_deg,
                        radius_km: round4(rng.range(5.0, 60.0)),
                    });
                }
                let geo = (0, universe.len());
                for (service, class) in [("MG", "FXO"), ("MG", "FB"), ("CF", "FXO")] {
                    universe.push(Request::SiteSearch {
                        service: service.into(),
                        class: class.into(),
                    });
                }
                let site = (geo.1, universe.len());
                for _ in 0..8 {
                    let (lat_deg, lon_deg) = centre(&mut rng);
                    universe.push(Request::Shortlist {
                        lat_deg,
                        lon_deg,
                        radius_km: round4(rng.range(10.0, 50.0)),
                        min_filings: 2 + rng.below(10),
                    });
                }
                let shortlist = (site.1, universe.len());
                for l in fleet_licensees(&connected, all) {
                    universe.push(network(&l, date));
                    universe.push(route(&l, "CME", "NY4"));
                }
                let point = (shortlist.1, universe.len());
                Mix {
                    universe,
                    picker: Picker::Scatter {
                        geo,
                        site,
                        shortlist,
                        point,
                    },
                }
            }
            Workload::LiveIngest => {
                // The fleetload read mix: answerable (if only emptily)
                // at every corpus generation.
                let d2016 = Date::new(2016, 6, 1).expect("valid date");
                let mut universe = Vec::new();
                for l in fleet_licensees(&connected, all) {
                    universe.push(network(&l, date));
                    universe.push(network(&l, d2016));
                    universe.push(route(&l, "CME", "NY4"));
                }
                for i in 0..4 {
                    universe.push(Request::Geographic {
                        lat_deg: 41.7625 + 0.02 * i as f64,
                        lon_deg: -88.1712 + 0.5 * i as f64,
                        radius_km: 10.0,
                    });
                }
                universe.push(Request::SiteSearch {
                    service: "MG".into(),
                    class: "FXO".into(),
                });
                universe.push(Request::Shortlist {
                    lat_deg: 41.7625,
                    lon_deg: -88.1712,
                    radius_km: 500.0,
                    min_filings: 2,
                });
                Mix {
                    universe,
                    picker: Picker::Uniform,
                }
            }
            Workload::ComputeMc => {
                // The hot set: cached races and sweeps, plus weather
                // Monte Carlos, which no cache holds.
                let seed = rng.next_u64() % 1_000_000;
                let [pierce, aq2at, gtt] = MC_LICENSEES;
                let race = |licensee: &str, (from, to): (&str, &str)| Request::Race {
                    licensee: licensee.into(),
                    date,
                    from: from.into(),
                    to: to.into(),
                    constellation: "starlink".into(),
                    samples: MC_SAMPLES,
                    seed,
                };
                let weather = |licensee: &str, (from, to): (&str, &str)| Request::Weather {
                    licensee: licensee.into(),
                    date,
                    from: from.into(),
                    to: to.into(),
                    samples: MC_SAMPLES,
                    seed,
                };
                let sweep = |licensee: &str| Request::StretchSweep {
                    licensee: licensee.into(),
                    date,
                    constellation: "starlink".into(),
                };
                let universe = vec![
                    race(pierce, PAIRS[0]),
                    race(aq2at, PAIRS[1]),
                    race(gtt, PAIRS[2]),
                    race(pierce, PAIRS[2]),
                    weather(pierce, PAIRS[0]),
                    weather(gtt, PAIRS[2]),
                    sweep(pierce),
                    sweep(aq2at),
                ];
                Mix {
                    universe,
                    picker: Picker::Mc,
                }
            }
        }
    }

    /// The licensees a compute-mc universe needs, checked against the
    /// corpus so a renamed licensee fails loudly instead of timing
    /// error answers.
    pub fn check_mc_licensees(connected: &[String]) -> Result<(), String> {
        for name in MC_LICENSEES {
            if !connected.iter().any(|c| c == name) {
                return Err(format!(
                    "compute-mc licensee {name:?} is not connected in 2020"
                ));
            }
        }
        Ok(())
    }

    /// Draw one phase: Poisson arrivals at `rate` for `seconds`, each
    /// with its request. `label` keeps phases' streams independent.
    pub fn stream(&self, seed: u64, label: &str, rate: f64, seconds: f64) -> Stream {
        let mut rng = Rng::stream(seed, label);
        let due_ns = poisson(&mut rng, rate, seconds);
        let n = self.universe.len();
        let mut fresh = Vec::new();
        let idx = due_ns
            .iter()
            .map(|_| {
                let i = match &self.picker {
                    Picker::Zipf { order, zipf } => order[zipf.sample(&mut rng)],
                    Picker::Uniform => rng.below(n),
                    Picker::Scatter {
                        geo,
                        site,
                        shortlist,
                        point,
                    } => {
                        let u = rng.unit();
                        let (lo, hi) = if u < 0.36 {
                            *geo
                        } else if u < 0.48 {
                            *site
                        } else if u < 0.60 {
                            *shortlist
                        } else {
                            *point
                        };
                        lo + rng.below(hi - lo)
                    }
                    Picker::Mc => {
                        if rng.unit() < 0.5 {
                            rng.below(n)
                        } else {
                            // A fresh seed defeats the race MC cache, so
                            // this race pays the full Monte Carlo.
                            let pair = PAIRS[rng.below(PAIRS.len())];
                            fresh.push(Request::Race {
                                licensee: MC_LICENSEES[0].into(),
                                date: d2020(),
                                from: pair.0.into(),
                                to: pair.1.into(),
                                constellation: "starlink".into(),
                                samples: MC_SAMPLES,
                                seed: 1_000_000 + rng.next_u64() % (1 << 40),
                            });
                            n + fresh.len() - 1
                        }
                    }
                };
                i as u32
            })
            .collect();
        Stream { due_ns, idx, fresh }
    }
}

fn round4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}
