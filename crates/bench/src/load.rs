//! The load harness the three load binaries share, one per serving
//! surface: `loadgen` (the wire), `fleetload` (a fleet under live
//! ingest) and `httpload` (the HTTP explorer). The report writer serves
//! the Criterion benches too.
//!
//! * [`Flags`] parses `--name value` pairs and switches against the
//!   binary's usage line, which doubles as the flag table.
//! * [`connect`] opens a wire client, retrying while a server comes up.
//! * [`Tally`] counts answers (completed, verified, unpinned, wrong,
//!   overload retries) and their latencies, overall and per bucket.
//! * [`drive`] replays a mix with known answers over one pipelined
//!   connection.
//! * [`References`] holds one reference engine per corpus generation.
//! * [`serve_under_ingest`] serves a fleet while the dump history
//!   republishes it, byte-verifying every generation-pinned answer.
//! * [`self_host`] runs a server on a free port around a body, then
//!   pulls its slowest traces and shuts it down.
//! * [`write_report`] writes a `BENCH_*.json` stamped with the git
//!   revision and `nproc`.

use hft_corridor::{chicago_nj, generate, GeneratedEcosystem};
use hft_ingest::{render_history, Applier, DumpBatch, ShardedStore};
use hft_obs::{HistogramShard, HistogramSnapshot};
use hft_serve::api::{Dispatch, Request, Response};
use hft_serve::evloop::ExtraListener;
use hft_serve::{
    Client, Handler, Proto, ServeConfig, ServeSnapshot, ServeStats, Server, Service, ShardRouter,
    WireTrace,
};
use hft_uls::UlsDatabase;
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub use hft_serve::json::Json;

/// A report object from `"key": value` pairs, in order. Values go
/// through [`ToJson`](crate::load::ToJson).
#[macro_export]
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::load::Json::Obj(vec![
            $(($key.to_string(), $crate::load::ToJson::to_json(&$value))),*
        ])
    };
}

/// A value a report can hold. Floats round to 3 decimals and
/// non-finite floats become `null`.
pub trait ToJson {
    /// This value as JSON.
    fn to_json(&self) -> Json;
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::num_or_null((self * 1e3).round() / 1e3)
    }
}

macro_rules! int_to_json {
    ($($t:ty),*) => {
        $(impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        })*
    };
}
int_to_json!(u64, usize);

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

/// Append `key: value` to the report object `report`.
pub fn push(report: &mut Json, key: &str, value: impl ToJson) {
    if let Json::Obj(pairs) = report {
        pairs.push((key.to_string(), value.to_json()));
    }
}

/// A binary's flags, parsed against its usage line. The usage line is
/// the flag table: `[--name VALUE]` takes a value, `[--name]` is a
/// switch, and any other argument is rejected with the usage line.
pub struct Flags {
    usage: &'static str,
    given: HashMap<String, String>,
}

impl Flags {
    /// Parse the process arguments.
    pub fn parse(usage: &'static str) -> Result<Flags, String> {
        Flags::from_args(usage, std::env::args().skip(1))
    }

    /// Parse `args` (without the program name).
    pub fn from_args(
        usage: &'static str,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Flags, String> {
        let mut given = HashMap::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let spec = usage
                .split('[')
                .skip(1)
                .map(|s| s.split(']').next().unwrap_or_default())
                .find(|s| s.split_whitespace().next() == Some(arg.as_str()))
                .ok_or_else(|| format!("unknown argument {arg:?}\n{usage}"))?;
            let value = if spec.split_whitespace().count() > 1 {
                args.next()
                    .ok_or_else(|| format!("{arg} needs a value\n{usage}"))?
            } else {
                String::new()
            };
            given.insert(arg, value);
        }
        Ok(Flags { usage, given })
    }

    /// Whether switch `name` was given.
    pub fn on(&self, name: &str) -> bool {
        self.given.contains_key(name)
    }

    /// The value given for `name`, if any.
    pub fn string(&self, name: &str) -> Option<String> {
        self.given.get(name).cloned()
    }

    /// The value of `name` read by `parse`, or `default` when absent.
    pub fn parse_or<T>(
        &self,
        name: &str,
        default: T,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        match self.given.get(name) {
            None => Ok(default),
            Some(v) => parse(v).ok_or_else(|| format!("bad {name} {v:?}\n{}", self.usage)),
        }
    }

    /// The value of `name` via [`FromStr`], or `default` when absent.
    pub fn get<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.parse_or(name, default, |v| v.parse().ok())
    }
}

/// A binary's `main` body: exit 0 on success, or print the error and
/// exit 1.
pub fn exit(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The calibrated corpus for `seed`.
pub fn corpus(seed: u64) -> GeneratedEcosystem {
    eprintln!("generating corpus (seed {seed})...");
    generate(&chicago_nj(), seed)
}

/// The corpus as a dump follower sees it: `eco`'s licenses after one
/// flat-file round trip (what the dump dialect can carry), and their
/// event history rendered as daily dump batches.
pub fn history(eco: &GeneratedEcosystem) -> Result<(UlsDatabase, Vec<DumpBatch>), String> {
    let published = hft_uls::flatfile::decode(&hft_uls::flatfile::encode(eco.db.licenses()))
        .map_err(|e| format!("corpus round trip: {e}"))?;
    let published = UlsDatabase::from_licenses(published);
    let batches = render_history(published.licenses());
    eprintln!(
        "history: {} daily batches over {}..{}",
        batches.len(),
        batches.first().map(|b| b.date.to_iso()).unwrap_or_default(),
        batches.last().map(|b| b.date.to_iso()).unwrap_or_default(),
    );
    Ok((published, batches))
}

/// Connect to `addr` speaking `proto`, retrying for up to three minutes
/// while the server comes up.
pub fn connect(addr: &SocketAddr, proto: Proto) -> Result<Client, String> {
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        match Client::connect_with(addr, proto) {
            Ok(client) => return Ok(client),
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("could not connect to {addr}: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(250)),
        }
    }
}

/// Which latency bucket each mix entry lands in on `router`'s fleet, by
/// its dispatch: a point request lands in its owning shard's bucket;
/// every other request reaches every shard and lands in the last
/// bucket, `broadcast`.
pub fn attribution(mix: &[Request], router: &ShardRouter) -> Vec<usize> {
    mix.iter()
        .map(|req| match req.dispatch() {
            Dispatch::Point(licensee) => router.owner(licensee).0,
            _ => router.shards().len(),
        })
        .collect()
}

/// The report label of attribution bucket `b` among `shards` shards.
pub fn bucket_label(b: usize, shards: usize) -> String {
    if b == shards {
        "broadcast".to_string()
    } else {
        format!("shard{b}")
    }
}

/// Answer counts and latencies for one client, or merged over many.
#[derive(Default)]
pub struct Tally {
    /// Answers received, `Overloaded` rejections excluded.
    pub completed: u64,
    /// Answers byte-equal to their reference.
    pub verified: u64,
    /// Answers no single corpus generation can be pinned to.
    pub unpinned: u64,
    /// Answers that differ from their reference.
    pub wrong: u64,
    /// `Overloaded` rejections.
    pub overloaded_retries: u64,
    /// The first wrong answer: its context and both byte strings.
    pub first_mismatch: Option<String>,
    /// End-to-end latency (ns). Shards merge with no loss versus
    /// recording into one.
    pub latencies: HistogramShard,
    /// Latency (ns) per attribution bucket; empty without a breakout.
    pub by_bucket: Vec<HistogramShard>,
    /// The wall time the tally covers, in seconds.
    pub elapsed_s: f64,
}

impl Tally {
    /// An empty tally with `buckets` latency buckets.
    pub fn new(buckets: usize) -> Tally {
        Tally {
            by_bucket: vec![HistogramShard::new(); buckets],
            ..Tally::default()
        }
    }

    /// An empty tally with one bucket per attribution bucket in `attr`.
    pub fn for_attr(attr: &[usize]) -> Tally {
        Tally::new(attr.iter().max().map_or(0, |m| m + 1))
    }

    /// Count one answer and its latency, also in `bucket` if given.
    pub fn record(&mut self, latency: Duration, bucket: Option<usize>) {
        let ns = latency.as_nanos() as u64;
        self.completed += 1;
        self.latencies.record(ns);
        if let Some(b) = bucket {
            self.by_bucket[b].record(ns);
        }
    }

    /// Compare an answer with its reference: verified when the bytes
    /// match, wrong (keeping `context` and both byte strings) otherwise.
    pub fn check(&mut self, want: &[u8], got: &[u8], context: impl FnOnce() -> String) {
        if want == got {
            self.verified += 1;
        } else {
            self.fail(|| {
                format!(
                    "{}\n  want {}\n  got  {}",
                    context(),
                    String::from_utf8_lossy(want),
                    String::from_utf8_lossy(got),
                )
            });
        }
    }

    /// Count a wrong answer, keeping `detail` if it is the first.
    pub fn fail(&mut self, detail: impl FnOnce() -> String) {
        self.wrong += 1;
        if self.first_mismatch.is_none() {
            self.first_mismatch = Some(detail());
        }
    }

    /// Fold `other` in: counts sum, the first mismatch stays first,
    /// histograms merge and the wall time is the longer of the two.
    pub fn merge(&mut self, other: Tally) {
        self.completed += other.completed;
        self.verified += other.verified;
        self.unpinned += other.unpinned;
        self.wrong += other.wrong;
        self.overloaded_retries += other.overloaded_retries;
        if self.first_mismatch.is_none() {
            self.first_mismatch = other.first_mismatch;
        }
        self.latencies.merge(&other.latencies);
        if self.by_bucket.is_empty() {
            self.by_bucket = other.by_bucket;
        } else {
            for (mine, theirs) in self.by_bucket.iter_mut().zip(&other.by_bucket) {
                mine.merge(theirs);
            }
        }
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
    }

    /// Completed answers per second of wall time.
    pub fn rps(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.completed as f64 / self.elapsed_s
        } else {
            0.0
        }
    }

    /// The `q`-quantile latency, in ms.
    pub fn percentile_ms(&self, q: f64) -> f64 {
        ms(&self.latencies.snapshot(), q)
    }

    /// The largest latency, in ms.
    pub fn max_ms(&self) -> f64 {
        self.latencies.snapshot().max as f64 / 1e6
    }
}

/// The `q`-quantile of a latency snapshot (ns), in ms.
pub fn ms(snapshot: &HistogramSnapshot, q: f64) -> f64 {
    snapshot.percentile(q) as f64 / 1e6
}

/// Merge per-client tallies, failing with the first client's error.
pub fn merged(tallies: impl IntoIterator<Item = Result<Tally, String>>) -> Result<Tally, String> {
    let mut total = Tally::default();
    for tally in tallies {
        total.merge(tally?);
    }
    Ok(total)
}

/// Replay `mix` over one connection, starting at entry `offset` and
/// keeping up to `window` requests in flight; stop sending at
/// `deadline`, then drain. Each answer is re-encoded with the canonical
/// JSON codec and compared with `expected`, so the check does not
/// depend on the wire format. `Overloaded` answers are resent.
pub fn drive(
    client: &mut Client,
    mix: &[Request],
    expected: &[Vec<u8>],
    attr: &[usize],
    offset: usize,
    window: usize,
    deadline: Instant,
) -> Result<Tally, String> {
    let started = Instant::now();
    let mut tally = Tally::for_attr(attr);
    let mut next = offset % mix.len();
    let mut resend: VecDeque<usize> = VecDeque::new();
    let mut pending: VecDeque<(usize, Instant)> = VecDeque::new();
    let io = |e: std::io::Error| format!("load IO: {e}");
    loop {
        let now = Instant::now();
        let mut queued = false;
        while pending.len() < window && now < deadline {
            let idx = resend.pop_front().unwrap_or_else(|| {
                let idx = next;
                next = (next + 1) % mix.len();
                idx
            });
            client.send(&mix[idx]).map_err(io)?;
            pending.push_back((idx, Instant::now()));
            queued = true;
        }
        if queued {
            client.flush().map_err(io)?;
        }
        let Some((idx, sent)) = pending.pop_front() else {
            break; // past the deadline with nothing in flight
        };
        let response = client.recv().map_err(io)?;
        if response == Response::Overloaded {
            tally.overloaded_retries += 1;
            resend.push_back(idx);
            continue;
        }
        tally.record(sent.elapsed(), attr.get(idx).copied());
        tally.check(&expected[idx], &response.encode(), || {
            format!("[{}] request {:?}", client.proto().name(), mix[idx])
        });
    }
    tally.elapsed_s = started.elapsed().as_secs_f64();
    Ok(tally)
}

/// Reference engines for verifying answers, one per corpus generation.
/// A generation's corpus is registered before anything can serve it;
/// its single-corpus [`Service`] is built on first use and kept, so
/// verifying a request again at the same generation costs one lookup.
#[derive(Default)]
pub struct References {
    corpora: Mutex<HashMap<u64, Arc<UlsDatabase>>>,
    engines: Mutex<HashMap<u64, Arc<Service<'static>>>>,
}

impl References {
    /// Register `db` as generation `generation`'s corpus.
    pub fn register(&self, generation: u64, db: Arc<UlsDatabase>) {
        self.corpora
            .lock()
            .expect("reference corpora")
            .insert(generation, db);
    }

    /// Generation `generation`'s engine, or `None` if its corpus was
    /// never registered.
    pub fn engine(&self, generation: u64) -> Option<Arc<Service<'static>>> {
        let mut engines = self.engines.lock().expect("reference engines");
        if let Some(engine) = engines.get(&generation) {
            return Some(Arc::clone(engine));
        }
        let db = Arc::clone(
            self.corpora
                .lock()
                .expect("reference corpora")
                .get(&generation)?,
        );
        let stats = Arc::new(ServeStats::default());
        let engine = Arc::new(Service::over_snapshot(db, generation, stats));
        engines.insert(generation, Arc::clone(&engine));
        Some(engine)
    }
}

/// What a [`self_host`] body returned, with the server's parting state.
pub struct Served<T> {
    /// The body's result.
    pub body: T,
    /// The server's slowest captured traces, pulled before shutdown.
    pub traces: Vec<WireTrace>,
    /// The server's final counters, as `Server::run_with` returned them.
    pub stats: ServeSnapshot,
}

/// Serve `handler` (and `extras`) on a free local port, run `body`
/// against the wire address, then pull the three slowest traces, send
/// `shutdown` and wait for the server to drain. `config.addr` is
/// ignored. The server is shut down even when `body` fails.
pub fn self_host<H: Handler, T>(
    config: ServeConfig,
    handler: &H,
    extras: &[ExtraListener<'_>],
    body: impl FnOnce(SocketAddr) -> Result<T, String>,
) -> Result<Served<T>, String> {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("bind: {e}"))?;
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run_with_extras(handler, extras));
        let body = body(addr);
        let traces = slowest_traces(&addr, true);
        let stats = serving
            .join()
            .expect("server thread")
            .map_err(|e| format!("serve: {e}"))?;
        Ok(Served {
            body: body?,
            traces: traces?,
            stats,
        })
    })
}

/// The three slowest traces in the server's flight recorder, then a
/// `shutdown` if asked for. Best-effort on the traces: a server that
/// does not trace just yields none.
pub fn slowest_traces(addr: &SocketAddr, shutdown: bool) -> Result<Vec<WireTrace>, String> {
    let mut client = connect(addr, Proto::Json)?;
    let traces = match client.call(&Request::Traces {
        limit: 3,
        trace_id: None,
    }) {
        Ok(Response::Traces { traces }) => traces,
        _ => Vec::new(),
    };
    if shutdown {
        let ack = client.call(&Request::Shutdown).map_err(|e| e.to_string())?;
        if ack != Response::ShuttingDown {
            return Err(format!("shutdown not acknowledged: {ack:?}"));
        }
    }
    Ok(traces)
}

/// A serve-under-ingest run: the history, the mix and the pacing.
pub struct IngestPlan<'a> {
    /// The rendered dump history. The first half seeds the corpus; the
    /// rest is applied while the server answers.
    pub batches: &'a [DumpBatch],
    /// The requests each client cycles through.
    pub mix: &'a [Request],
    /// Wall time over which the second half is replayed.
    pub seconds: f64,
    /// Serial clients.
    pub concurrency: usize,
    /// Applied batches per publish.
    pub publish_every: usize,
}

/// What a [`serve_under_ingest`] run measured.
pub struct Ingested {
    /// Every client's answers, merged, with latencies bucketed by the
    /// shard each request reached (see [`attribution`]); `elapsed_s` is
    /// the serving time.
    pub tally: Tally,
    /// The last published generation.
    pub generations: u64,
    /// The server's slowest captured traces, pulled before shutdown.
    pub traces: Vec<WireTrace>,
    /// The server's final counters.
    pub stats: ServeSnapshot,
}

/// Serve a fleet through a [`ShardRouter`] while the second half of the
/// history is applied and published underneath it, with every answer
/// bracketed by generation-vector reads and byte-verified when it is
/// pinned.
///
/// `open` builds the fleet from the applier seeded with the first half,
/// and `publish` publishes the applier's corpus to it, returning the
/// new generation. The tail's batches fall due on a fixed schedule,
/// evenly spread over `plan.seconds`, so a cheaper publish changes
/// neither the run's length nor its publish cadence. Before each
/// publish the from-scratch rebuild of the corpus is registered as
/// that generation's reference, so a pinned answer always finds it,
/// and a fault in the incrementally maintained indexes shows as a
/// wrong answer.
///
/// Each client reads the generation vector before sending and after
/// receiving. When both reads are equal and uniform, the answer belongs
/// to exactly one generation and must match that generation's
/// reference; otherwise a publish landed mid-flight and the answer
/// counts as unpinned. Wrong answers are counted, not fatal: the caller
/// judges the tally.
pub fn serve_under_ingest(
    plan: &IngestPlan<'_>,
    open: impl FnOnce(&Applier) -> ShardedStore,
    publish: impl Fn(&Applier, &ShardedStore) -> u64 + Sync,
) -> Result<Ingested, String> {
    let (seed, tail) = plan.batches.split_at(plan.batches.len() / 2);
    let mut applier = Applier::new(UlsDatabase::new());
    for batch in seed {
        if let Some(conflict) = applier.apply(batch).first() {
            return Err(format!("seed ingest conflict: {conflict}"));
        }
    }
    let store = open(&applier);
    let router = ShardRouter::over(&store);
    let attr = attribution(plan.mix, &router);
    let references = References::default();
    let seeded = store.generation_vector()[0];
    references.register(seeded, Arc::new(applier.rebuild()));
    let pace = Duration::from_secs_f64(plan.seconds / tail.len().max(1) as f64);
    let done = AtomicBool::new(false);

    let client = |addr: SocketAddr, offset: usize| -> Result<Tally, String> {
        let mut wire = connect(&addr, Proto::Json)?;
        let mut tally = Tally::for_attr(&attr);
        let mut next = offset % plan.mix.len();
        while !done.load(Ordering::Relaxed) {
            let (idx, request) = (next, &plan.mix[next]);
            next = (next + 1) % plan.mix.len();
            let before = store.generation_vector();
            let sent = Instant::now();
            let response = wire.call(request).map_err(|e| format!("load IO: {e}"))?;
            if response == Response::Overloaded {
                tally.overloaded_retries += 1;
                continue;
            }
            tally.record(sent.elapsed(), Some(attr[idx]));
            let after = store.generation_vector();
            let pinned = before == after && before.windows(2).all(|w| w[0] == w[1]);
            match references.engine(before[0]).filter(|_| pinned) {
                None => tally.unpinned += 1,
                Some(reference) => {
                    let want = reference.handle(request).encode();
                    tally.check(&want, &response.encode(), || {
                        format!("generation {} request {request:?}", before[0])
                    })
                }
            }
        }
        Ok(tally)
    };

    let config = ServeConfig {
        workers: plan.concurrency.clamp(4, 64),
        queue_depth: (plan.concurrency * 4).max(64),
        ..ServeConfig::default()
    };
    let started = Instant::now();
    let served = self_host(config, &router, &[], |addr| {
        eprintln!(
            "serving generation vector {:?} on {addr}; ingesting {} batches behind it...",
            store.generation_vector(),
            tail.len(),
        );
        std::thread::scope(|scope| {
            let publisher = scope.spawn(|| {
                let mut generation = seeded;
                let mut publish_next = |applier: &Applier| {
                    references.register(generation + 1, Arc::new(applier.rebuild()));
                    generation = publish(applier, &store);
                };
                let mut replay = || {
                    let replay_started = Instant::now();
                    for (i, batch) in tail.iter().enumerate() {
                        if let Some(conflict) = applier.apply(batch).first() {
                            return Err(format!("ingest conflict: {conflict}"));
                        }
                        if (i + 1) % plan.publish_every == 0 {
                            publish_next(&applier);
                        }
                        // Batch i is due at a fixed time, however long
                        // the apply and publish took, so the run length
                        // does not depend on publish cost.
                        let due = replay_started + pace * (i as u32 + 1);
                        std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    }
                    publish_next(&applier);
                    Ok(())
                };
                let replayed = replay();
                done.store(true, Ordering::Relaxed);
                replayed.map(|()| generation)
            });
            let client = &client;
            let clients: Vec<_> = (0..plan.concurrency)
                .map(|i| scope.spawn(move || client(addr, i * 7)))
                .collect();
            let tally = merged(clients.into_iter().map(|c| c.join().expect("client")));
            let generations = publisher.join().expect("publisher")?;
            Ok((tally?, generations))
        })
    })?;
    let (mut tally, generations) = served.body;
    tally.elapsed_s = started.elapsed().as_secs_f64();
    Ok(Ingested {
        tally,
        generations,
        traces: served.traces,
        stats: served.stats,
    })
}

/// Timed calls per Criterion bench: `HFT_BENCH_SAMPLES` when set (CI
/// smoke runs pass 1), otherwise `default`.
pub fn sample_size(default: usize) -> usize {
    std::env::var("HFT_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// One `results` entry of a Criterion bench report: a bench id with its
/// mean in seconds (to the nanosecond) and sample count, or a figure
/// derived from other entries, such as a speedup, with 0 samples.
pub fn bench_entry(id: &str, mean_s: f64, samples: usize) -> Json {
    obj! {
        "id": id,
        "mean_s": Json::num_or_null((mean_s * 1e9).round() / 1e9),
        "samples": samples,
    }
}

/// Write `report` to `out`, or to `BENCH_<name>.json` at the workspace
/// root, under a leading `stamp` naming the git revision and `nproc`.
/// Top-level keys, and the items of top-level arrays, go one per line
/// so reports diff well.
pub fn write_report(name: &str, out: Option<&str>, report: Json) -> Result<(), String> {
    let Json::Obj(mut pairs) = report else {
        return Err(format!("report {name} is not a JSON object"));
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let stamp = obj! {"git_rev": git_rev(), "nproc": nproc};
    pairs.insert(0, ("stamp".into(), stamp));
    let lines: Vec<String> = pairs
        .iter()
        .map(|(key, value)| {
            let value = match value {
                Json::Arr(items) if !items.is_empty() => {
                    let items: Vec<String> = items.iter().map(Json::encode).collect();
                    format!("[\n  {}\n]", items.join(",\n  "))
                }
                value => value.encode(),
            };
            format!("{}: {value}", Json::Str(key.clone()).encode())
        })
        .collect();
    let path = out.map_or_else(
        || format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR")),
        str::to_string,
    );
    std::fs::write(&path, format!("{{\n{}\n}}\n", lines.join(",\n")))
        .map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// The git revision of the checkout this crate was built from, or
/// `unknown` outside a repository.
fn git_rev() -> String {
    let checkout = env!("CARGO_MANIFEST_DIR");
    std::process::Command::new("git")
        .args(["-C", checkout, "rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}
