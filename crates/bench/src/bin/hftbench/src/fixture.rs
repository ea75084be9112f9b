//! What a workload serves: the corpus, the handler behind the server,
//! live-ingest's history, and the reference answers the load client
//! checks every response against.

use crate::client::Conn;
use crate::workload::{Mix, Workload, FLEET_SHARDS};
use hft_corridor::{chicago_nj, generate};
use hft_ingest::{render_history, Applier, DumpBatch, ShardedStore};
use hft_serve::api::{Request, Response};
use hft_serve::{binwire, Client, Proto, ServeConfig, ServeStats, Server, Service, ShardRouter};
use hft_time::Date;
use hft_uls::shard::ShardStrategy;
use hft_uls::UlsDatabase;
use std::sync::Arc;
use std::time::Instant;

/// The corpus seed: fixed, so `--seed` moves only the request streams,
/// the arrival times and the Monte Carlo seeds.
pub const REPRO_SEED: u64 = 2020;

/// The generated corpus.
pub struct Corpus {
    /// Every license.
    pub db: Arc<UlsDatabase>,
    /// Licensees with a connected CME-NY4 network in 2020.
    pub connected: Vec<String>,
}

impl Corpus {
    /// Generate the Chicago-New Jersey corpus at [`REPRO_SEED`].
    pub fn generate() -> Corpus {
        let eco = generate(&chicago_nj(), REPRO_SEED);
        Corpus {
            connected: eco.connected_2020,
            db: Arc::new(eco.db),
        }
    }
}

/// Live-ingest's history: the corpus after the first half of its
/// rendered dump history, and the second half, which each phase's
/// publisher replays from that base.
pub struct History {
    /// The corpus every phase's publisher rewinds to.
    pub base: Arc<UlsDatabase>,
    /// The date of the last batch folded into `base`.
    pub base_date: Option<Date>,
    /// The batches the publisher replays, in order.
    pub batches: Vec<DumpBatch>,
}

/// Batches folded into each publish.
pub const BATCHES_PER_PUBLISH: usize = 4;

impl History {
    /// Render `db`'s history and fold its first half.
    pub fn render(db: &UlsDatabase) -> Result<History, String> {
        let mut batches = render_history(db.licenses());
        let rest = batches.split_off(batches.len() / 2);
        let mut applier = Applier::new(UlsDatabase::new());
        for batch in &batches {
            if let Some(conflict) = applier.apply(batch).first() {
                return Err(format!("history conflict: {conflict}"));
            }
        }
        Ok(History {
            base_date: applier.last_date(),
            base: Arc::new(applier.db().clone()),
            batches: rest,
        })
    }

    /// An applier positioned at the base corpus.
    pub fn applier(&self) -> Applier {
        Applier::resume(Arc::clone(&self.base), self.base_date)
    }
}

/// Live-ingest's stand-in for the server's ingest follower: it folds
/// the history's batches into its own corpus, [`BATCHES_PER_PUBLISH`]
/// at a time, and rewinds to the base when the history runs out.
pub struct Publisher<'h> {
    history: &'h History,
    applier: Applier,
    /// Batches folded past the base.
    pub cursor: usize,
}

impl<'h> Publisher<'h> {
    /// A publisher at the base corpus.
    pub fn new(history: &'h History) -> Publisher<'h> {
        Publisher {
            history,
            applier: history.applier(),
            cursor: 0,
        }
    }

    /// Fold the next batches, or rewind; returns the events folded.
    pub fn advance(&mut self) -> u64 {
        let batches = &self.history.batches;
        if self.cursor == batches.len() {
            self.applier = self.history.applier();
            self.cursor = 0;
            return 0;
        }
        let upto = (self.cursor + BATCHES_PER_PUBLISH).min(batches.len());
        let mut events = 0;
        for batch in &batches[self.cursor..upto] {
            self.applier.apply(batch);
            events += batch.events.len() as u64;
        }
        self.cursor = upto;
        events
    }

    /// Publish the corpus to every shard; returns the new generation.
    pub fn publish(&self, fleet: &ShardedStore) -> u64 {
        self.applier.publish_sharded(fleet)
    }
}

/// A sharded fleet: per-shard snapshot stores behind the router.
pub struct Fleet {
    /// The per-shard stores (live-ingest publishes through these).
    pub store: ShardedStore,
    /// The handler the server runs.
    pub router: ShardRouter,
}

/// The handler behind the server.
pub enum Engine {
    /// One unsharded `Service`.
    Single(Box<Service<'static>>),
    /// A licensee-hash fleet behind a `ShardRouter`.
    Fleet(Fleet),
}

impl Engine {
    /// Build `w`'s handler. Fleets are seeded from `db`, or from the
    /// history's base when the workload ingests.
    pub fn build(w: Workload, db: &Arc<UlsDatabase>, history: Option<&History>) -> Engine {
        if w.shards() == 1 {
            return Engine::Single(Box::new(Service::over_snapshot(
                Arc::clone(db),
                0,
                Arc::new(ServeStats::default()),
            )));
        }
        let store = match history {
            Some(h) => ShardedStore::seeded(
                &h.base,
                FLEET_SHARDS,
                ShardStrategy::LicenseeHash,
                h.base_date,
            ),
            None => ShardedStore::seeded(db, FLEET_SHARDS, ShardStrategy::LicenseeHash, None),
        };
        let router = ShardRouter::over(&store);
        Engine::Fleet(Fleet { store, router })
    }

    /// Answer in-process.
    pub fn handle(&self, req: &Request) -> Response {
        match self {
            Engine::Single(s) => s.handle(req),
            Engine::Fleet(f) => f.router.handle(req),
        }
    }

    /// Serve until a `shutdown` request arrives.
    pub fn serve(&self, server: &Server) -> std::io::Result<()> {
        match self {
            Engine::Single(s) => server.run_with(s.as_ref()).map(drop),
            Engine::Fleet(f) => server.run_with(&f.router).map(drop),
        }
    }

    /// Single-flight leaders and coalesced followers so far, summed over
    /// shards.
    pub fn flights(&self) -> (u64, u64) {
        let sum = |snaps: Vec<hft_serve::ServeSnapshot>| {
            snaps.iter().fold((0, 0), |(l, c), s| {
                (l + s.flights_led, c + s.flights_coalesced)
            })
        };
        match self {
            Engine::Single(s) => sum(vec![s.stats().snapshot()]),
            Engine::Fleet(f) => sum(f
                .router
                .shards()
                .iter()
                .map(|s| s.stats().snapshot())
                .collect()),
        }
    }

    /// The fleet, when sharded.
    pub fn fleet(&self) -> Option<&Fleet> {
        match self {
            Engine::Single(_) => None,
            Engine::Fleet(f) => Some(f),
        }
    }
}

/// One request as the load client sends it, with the bytes it must get
/// back (`None` where the answer is only known after the phase, as on
/// live-ingest).
pub struct Entry {
    /// The request.
    pub request: Request,
    /// Its frame body under the workload's protocol.
    pub body: Vec<u8>,
    /// The expected response frame body.
    pub expect: Option<Vec<u8>>,
}

impl Entry {
    /// Encode `request` and, given a reference handler, its answer.
    pub fn new(request: Request, proto: Proto, reference: Option<&Service<'_>>) -> Entry {
        let expect = reference.map(|r| response_body(proto, &r.handle(&request)));
        Entry {
            body: binwire::request_bytes(proto, &request),
            request,
            expect,
        }
    }
}

/// A response's frame body under `proto`.
pub fn response_body(proto: Proto, response: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    binwire::response_bytes_into(proto, response, &mut buf);
    buf
}

/// Encode `requests` with reference answers, spread over two threads:
/// compute-mc's fresh races each cost a full Monte Carlo.
pub fn entries(requests: &[Request], proto: Proto, reference: &Service<'_>) -> Vec<Entry> {
    let half = requests.len().div_ceil(2);
    std::thread::scope(|scope| {
        let parts: Vec<_> = requests
            .chunks(half.max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|r| Entry::new(r.clone(), proto, Some(reference)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

/// Everything a workload's phases run against.
pub struct Fixture {
    /// The workload.
    pub workload: Workload,
    /// The corpus the server answers from.
    pub corpus: Corpus,
    /// Live-ingest's history.
    pub history: Option<History>,
    /// The handler.
    pub engine: Engine,
    /// The request mix.
    pub mix: Mix,
    /// The mix's universe, encoded, with reference answers (for
    /// live-ingest, answers at the base generation).
    pub universe: Vec<Entry>,
    /// An independent single-corpus engine over the same corpus, for
    /// compute-mc's fresh races.
    pub reference: Service<'static>,
}

/// Build `w`'s fixture `reps` times, each from scratch, and return the
/// last with every build's set-up time: corpus, handler, bind and the
/// warm pass over every distinct request. Computing reference answers
/// is not counted.
pub fn setup(w: Workload, seed: u64, reps: usize) -> Result<(Fixture, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let corpus = Corpus::generate();
        let history = match w {
            Workload::LiveIngest => Some(History::render(&corpus.db)?),
            _ => None,
        };
        let engine = Engine::build(w, &corpus.db, history.as_ref());

        let excluded = Instant::now();
        if w == Workload::ComputeMc {
            Mix::check_mc_licensees(&corpus.connected)?;
        }
        let names = corpus.db.licensees();
        let mix = Mix::new(w, seed, &corpus.connected, &names);
        let served_db = history.as_ref().map_or(&corpus.db, |h| &h.base);
        let reference =
            Service::over_snapshot(Arc::clone(served_db), 0, Arc::new(ServeStats::default()));
        let universe = entries(&mix.universe, w.proto(), &reference);
        let excluded = excluded.elapsed();

        let fx = Fixture {
            workload: w,
            corpus,
            history,
            engine,
            mix,
            universe,
            reference,
        };
        warm(&fx)?;
        times.push((started.elapsed() - excluded).as_secs_f64());
        last = Some(fx);
    }
    Ok((last.expect("at least one set-up"), times))
}

/// The warm pass, the last step of set-up and outside every timed
/// phase: every distinct request once, over the wire, each answer
/// checked.
fn warm(fx: &Fixture) -> Result<(), String> {
    with_server(&fx.engine, |addr| {
        let mut conn = Conn::open(addr, fx.workload.proto()).map_err(|e| e.to_string())?;
        for entry in &fx.universe {
            let got = conn
                .call(&entry.body)
                .map_err(|e| format!("warm pass: {e}"))?;
            if Some(&got) != entry.expect.as_ref() {
                return Err(mismatch("warm pass", entry, &got, fx.workload.proto()));
            }
        }
        Ok(())
    })
}

/// Run `body` against a freshly bound server over `engine`, then shut
/// the server down and wait for it.
pub fn with_server<R>(
    engine: &Engine,
    body: impl FnOnce(&std::net::SocketAddr) -> Result<R, String>,
) -> Result<R, String> {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        let served = scope.spawn(|| engine.serve(&server));
        let result = body(&addr);
        let stopped = Client::connect(&addr)
            .and_then(|mut c| c.call(&Request::Shutdown))
            .map_err(|e| format!("shutdown: {e}"));
        let served = served.join().expect("server thread panicked");
        let result = result?;
        match stopped? {
            Response::ShuttingDown => {}
            other => return Err(format!("shutdown answered {other:?}")),
        }
        served.map_err(|e| format!("server: {e}"))?;
        Ok(result)
    })
}

/// A one-line description of a wrong answer.
pub fn mismatch(context: &str, entry: &Entry, got: &[u8], proto: Proto) -> String {
    let show = |bytes: &[u8]| match binwire::response_from(proto, bytes) {
        Ok(r) => format!("{r:?}"),
        Err(e) => format!("<undecodable: {e}>"),
    };
    format!(
        "{context}: request {:?}\n  want {}\n  got  {}",
        entry.request,
        entry.expect.as_deref().map_or("<none>".into(), show),
        show(got),
    )
}
