//! One workload end to end: set-up, the timed phases on fresh servers,
//! the capacity ramp, and the metrics they yield.

use crate::client::{self, Load, LoadResult, Table};
use crate::fixture::{self, entries, mismatch, response_body, Entry, Fixture, Publisher};
use crate::layers;
use crate::report::{Metric, Report};
use crate::workload::{Stream, Workload};
use hft_obs::{HistogramShard, HistogramSnapshot};
use hft_serve::{ServeStats, Service};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long each rung runs, and what runs beside the rungs.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Seconds per rung (`low`, then `high`).
    pub rung_s: f64,
    /// A rung runs until it has offered at least this many requests.
    pub min_answers: u64,
    /// Run the capacity ramp after the rungs.
    pub ramp: bool,
    /// Add the in-process traced replay and the per-layer probes.
    pub traced: bool,
}

impl Plan {
    /// The full protocol: 15 s rungs with at least 1,500 answers each,
    /// then the capacity ramp.
    pub fn full(traced: bool) -> Plan {
        Plan {
            rung_s: 15.0,
            min_answers: 1500,
            ramp: true,
            traced,
        }
    }

    /// A run that fits `seconds`: both rungs share it; no ramp.
    pub fn fitted(seconds: f64, traced: bool) -> Plan {
        Plan {
            rung_s: seconds / 2.0,
            min_answers: 0,
            ramp: false,
            traced,
        }
    }

    fn rung_seconds(&self, rate: f64) -> f64 {
        self.rung_s.max(self.min_answers as f64 / rate)
    }
}

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Capacity ramp: at most this many steps of this many seconds.
const RAMP_STEPS: u32 = 10;
const STEP_S: f64 = 3.0;
/// Each ramp step offers this much more than the last.
const RAMP_FACTOR: f64 = 1.1;
/// A ramp step fails when more than this share of its requests fail.
const MAX_FAIL_FRAC: f64 = 0.001;
/// ... or when fewer than this share are answered in time.
const MIN_ANSWERED_FRAC: f64 = 0.999;
/// Live-ingest publishes per second.
const PUBLISHES_PER_S: f64 = 10.0;
/// The idle probe: isolated requests this far apart after `high`.
const IDLE_PROBES: usize = 50;
const IDLE_GAP_NS: u64 = 5_000_000;

/// Registry histograms read over served windows.
const WINDOW_HISTS: [&str; 3] = [
    "serve.poll_wake_ns",
    "serve.queue_wait_ns",
    "serve.service_ns",
];

/// Bucket-exact growth of registry metrics over served windows, summed
/// over every window recorded.
#[derive(Default)]
pub struct Window {
    /// Bucket counts and exact sum per histogram.
    hists: BTreeMap<String, (Vec<u64>, u64)>,
    counters: BTreeMap<String, u64>,
}

/// Registry state when a window opened.
pub struct WindowStart {
    hists: Vec<(String, HistogramSnapshot)>,
    registry: hft_obs::RegistrySnapshot,
}

fn hist_names() -> Vec<String> {
    let mut names: Vec<String> = WINDOW_HISTS.iter().map(|s| s.to_string()).collect();
    for k in 0..crate::workload::FLEET_SHARDS {
        names.push(hft_obs::registry::labeled(
            "serve.generation_swap_ns",
            "shard",
            &k.to_string(),
        ));
    }
    names
}

impl Window {
    /// Snapshot the registry before a served phase.
    pub fn open() -> WindowStart {
        let r = hft_obs::global();
        WindowStart {
            hists: hist_names()
                .into_iter()
                .map(|n| {
                    let s = r.histogram(&n).snapshot();
                    (n, s)
                })
                .collect(),
            registry: r.snapshot(),
        }
    }

    /// Add the growth since `start`.
    pub fn close(&mut self, start: WindowStart) {
        let r = hft_obs::global();
        for (name, before) in start.hists {
            let after = r.histogram(&name).snapshot();
            let (buckets, sum) = self
                .hists
                .entry(name)
                .or_insert_with(|| (vec![0; after.buckets.len()], 0));
            for (acc, (a, b)) in buckets
                .iter_mut()
                .zip(after.buckets.iter().zip(&before.buckets))
            {
                *acc += a.saturating_sub(*b);
            }
            *sum += after.sum.saturating_sub(before.sum);
        }
        let d = hft_obs::registry::delta(&start.registry, &r.snapshot());
        for (name, v) in d.counters {
            *self.counters.entry(name).or_default() += v;
        }
    }

    /// Values a histogram recorded in the windows.
    pub fn count(&self, name: &str) -> u64 {
        self.hists.get(name).map_or(0, |(b, _)| b.iter().sum())
    }

    /// Their mean (the registry keeps exact sums).
    pub fn mean(&self, name: &str) -> f64 {
        self.hists
            .get(name)
            .map_or(0.0, |(_, sum)| *sum as f64 / self.count(name).max(1) as f64)
    }

    /// Their `q`-quantile, interpolated within its bucket: the registry
    /// keeps bucket counts, not values.
    pub fn quantile(&self, name: &str, q: f64) -> f64 {
        let Some((buckets, _)) = self.hists.get(name) else {
            return 0.0;
        };
        let count: u64 = buckets.iter().sum();
        if count == 0 {
            return 0.0;
        }
        let rank = (count - 1) as f64 * q;
        let mut seen = 0u64;
        for (i, &c) in buckets.iter().enumerate() {
            if c > 0 && (seen + c) as f64 > rank {
                let (lo, hi) = hft_obs::hist::bucket_bounds(i);
                let within = (rank - seen as f64 + 0.5) / c as f64;
                return lo as f64 + within.min(1.0) * (hi - lo) as f64;
            }
            seen += c;
        }
        0.0
    }

    /// A counter's growth.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of a counter's growth over its `shard`-labeled series.
    pub fn sharded_counter(&self, name: &str) -> u64 {
        (0..crate::workload::FLEET_SHARDS)
            .map(|k| self.counter(&hft_obs::registry::labeled(name, "shard", &k.to_string())))
            .sum()
    }
}

/// Live-ingest's publisher log for one phase.
#[derive(Default)]
pub struct Publishes {
    /// `(generation, batches folded past the base)`: the generation
    /// served when the phase opened, then one entry per publish.
    pub generations: Vec<(u64, usize)>,
    /// Apply plus publish wall time per publish, ns.
    pub wall_ns: HistogramShard,
}

/// One served phase.
pub struct PhaseOutcome {
    /// Seconds of arrivals (before any idle probe).
    pub seconds: f64,
    /// What the client saw, with deferred answers resolved.
    pub load: LoadResult,
    /// Live-ingest's publishes.
    pub publishes: Publishes,
}

impl PhaseOutcome {
    /// Failed requests: refused, unexpected errors, wrong, unanswered.
    pub fn failed(&self) -> u64 {
        self.load.refused + self.load.errors + self.load.wrong + self.load.unanswered()
    }

    fn fail_frac(&self) -> f64 {
        self.failed() as f64 / self.load.sent.max(1) as f64
    }

    fn pct_ms(&self, q: f64) -> f64 {
        quantile_ms(&self.load.latency, q)
    }

    /// Whether a capacity step at this rate passes.
    fn passes(&self, limit_ms: f64) -> bool {
        self.pct_ms(0.99) <= limit_ms
            && self.fail_frac() <= MAX_FAIL_FRAC
            && self.load.answered_in_window as f64 >= MIN_ANSWERED_FRAC * self.load.sent as f64
    }
}

/// Run one phase of `seconds` (then any idle probe from `idle_from`)
/// on a fresh server over the fixture's warm handler. On live-ingest,
/// `publisher` republishes while the load runs, carrying on from where
/// the previous phase left it.
pub fn run_phase(
    fx: &Fixture,
    seconds: f64,
    stream: &Stream,
    fresh: &[Entry],
    idle_from: usize,
    publisher: Option<&mut Publisher<'_>>,
    window: &mut Window,
) -> Result<PhaseOutcome, String> {
    let w = fx.workload;
    let live = fx.engine.fleet().filter(|_| w == Workload::LiveIngest);
    let load = Load {
        due_ns: &stream.due_ns,
        idx: &stream.idx,
        table: Table {
            universe: &fx.universe,
            fresh,
        },
        idle_from,
        live: live.map(|f| &f.store),
    };
    let stop = AtomicBool::new(false);
    let start = Window::open();
    let (mut result, publishes) = fixture::with_server(&fx.engine, |addr| {
        std::thread::scope(|scope| {
            let publishing = match (live, publisher) {
                (Some(fleet), Some(p)) => {
                    let stop = &stop;
                    Some(scope.spawn(move || {
                        let mut log = Publishes::default();
                        log.generations
                            .push((fleet.store.generation_vector()[0], p.cursor));
                        let period = Duration::from_secs_f64(1.0 / PUBLISHES_PER_S);
                        let mut next = Instant::now() + period;
                        while !stop.load(Ordering::SeqCst) {
                            if let Some(wait) = next.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            next += period;
                            let started = Instant::now();
                            p.advance();
                            let g = p.publish(&fleet.store);
                            log.wall_ns.record(started.elapsed().as_nanos() as u64);
                            log.generations.push((g, p.cursor));
                        }
                        log
                    }))
                }
                _ => None,
            };
            let result = client::run(addr, w.proto(), &load);
            stop.store(true, Ordering::SeqCst);
            let log = publishing
                .map(|p| p.join().expect("publisher panicked"))
                .unwrap_or_default();
            result.map(|r| (r, log))
        })
    })?;
    window.close(start);
    if let Some(h) = fx.history.as_ref() {
        verify_live(fx, h, &publishes, fresh, &mut result);
    }
    Ok(PhaseOutcome {
        seconds,
        load: result,
        publishes,
    })
}

/// Check live-ingest's deferred answers after the phase: replay the
/// publisher's log from the base corpus and, at each generation some
/// answers were pinned to, compare them with an unsharded reference over
/// that generation's corpus. One generation's reference is alive at a
/// time, so the benchmark's own memory stays flat.
fn verify_live(
    fx: &Fixture,
    h: &fixture::History,
    log: &Publishes,
    fresh: &[Entry],
    r: &mut LoadResult,
) {
    let proto = fx.workload.proto();
    let table = Table {
        universe: &fx.universe,
        fresh,
    };
    let mut pinned: BTreeMap<u64, Vec<client::LiveAnswer>> = BTreeMap::new();
    for a in std::mem::take(&mut r.deferred) {
        match a.generation {
            Some(g) => pinned.entry(g).or_default().push(a),
            None => r.unpinned += 1,
        }
    }
    let mut applier = h.applier();
    let mut cursor = 0;
    for &(g, upto) in &log.generations {
        if upto < cursor {
            // The publisher rewound to the base.
            applier = h.applier();
            cursor = 0;
        }
        for batch in &h.batches[cursor..upto] {
            applier.apply(batch);
        }
        cursor = upto;
        let Some(answers) = pinned.remove(&g) else {
            continue;
        };
        let reference = Service::over_snapshot(
            Arc::new(applier.db().clone()),
            g,
            Arc::new(ServeStats::default()),
        );
        let mut expected: HashMap<u32, Vec<u8>> = HashMap::new();
        for a in answers {
            let entry = table.get(a.idx);
            let want = expected
                .entry(a.idx)
                .or_insert_with(|| response_body(proto, &reference.handle(&entry.request)));
            if a.body == *want {
                r.ok += 1;
                continue;
            }
            match hft_serve::binwire::response_from(proto, &a.body) {
                Ok(hft_serve::Response::Error { .. }) => r.errors += 1,
                _ => r.wrong += 1,
            }
            if r.first_mismatch.is_none() {
                let shown = Entry {
                    request: entry.request.clone(),
                    body: Vec::new(),
                    expect: Some(want.clone()),
                };
                r.first_mismatch =
                    Some(mismatch(&format!("generation {g}"), &shown, &a.body, proto));
            }
        }
    }
    // Pins to a generation outside the log cannot be attributed.
    r.unpinned += pinned.values().map(|v| v.len() as u64).sum::<u64>();
}

/// Draw a phase's stream and encode its fresh requests with reference
/// answers, before its server starts.
fn prepare(fx: &Fixture, seed: u64, label: &str, rate: f64, seconds: f64) -> (Stream, Vec<Entry>) {
    let stream = fx.mix.stream(seed, label, rate, seconds);
    let fresh = entries(&stream.fresh, fx.workload.proto(), &fx.reference);
    (stream, fresh)
}

/// Windows per rung. Each window runs on its own fresh server, the two
/// rungs' windows alternate so both span the whole run, and a rung's
/// latency metrics are medians over its windows: a stretch where the
/// event loop has lost a wake-up, or where the machine is slow, moves
/// the median no more than any other window.
pub const WINDOWS: usize = 10;

/// Everything one workload measured.
pub fn measure(w: Workload, seed: u64, plan: &Plan) -> Result<Report, String> {
    let (fx, setup_times) = fixture::setup(w, seed, SETUP_REPS)?;
    let (low, high) = w.rates();
    let mut window = Window::default();
    let flights_before = fx.engine.flights();
    let mut publisher = fx.history.as_ref().map(Publisher::new);

    let labels = [("low", low), ("high", high)];
    let mut rungs: Vec<Vec<PhaseOutcome>> =
        vec![Vec::with_capacity(WINDOWS), Vec::with_capacity(WINDOWS)];
    for k in 0..WINDOWS {
        for (r, &(label, rate)) in labels.iter().enumerate() {
            let seconds = plan.rung_seconds(rate) / WINDOWS as f64;
            let (mut stream, fresh) = prepare(&fx, seed, &format!("{label}{k}"), rate, seconds);
            let idle_from = stream.idx.len();
            if label == "high" && k == WINDOWS - 1 {
                // The idle probe: isolated requests after the last high
                // window, on its server, where a lost wake-up shows as a
                // stall.
                let end = (seconds * 1e9) as u64;
                for j in 1..=IDLE_PROBES as u64 {
                    stream.due_ns.push(end + j * IDLE_GAP_NS);
                    stream.idx.push(0);
                }
            }
            rungs[r].push(run_phase(
                &fx,
                seconds,
                &stream,
                &fresh,
                idle_from,
                publisher.as_mut(),
                &mut window,
            )?);
        }
    }
    for (windows, (label, rate)) in rungs.iter().zip(labels) {
        let sum = |f: fn(&LoadResult) -> u64| windows.iter().map(|p| f(&p.load)).sum::<u64>();
        eprintln!(
            "{}: {label} {rate:.0} rps x {WINDOWS} windows: sent {} refused {} errors {} wrong {} \
             unanswered {} unpinned {} p50 {:.3} ms p90 {:.3} ms",
            w.name(),
            sum(|l| l.sent),
            sum(|l| l.refused),
            sum(|l| l.errors),
            sum(|l| l.wrong),
            sum(LoadResult::unanswered),
            sum(|l| l.unpinned),
            over_windows(windows, 0.5),
            over_windows(windows, 0.9),
        );
    }
    let flights_after = fx.engine.flights();

    let mut ramp = Vec::new();
    let mut capacity = None;
    if plan.ramp {
        let mut rate = high;
        let mut passed = 0.0;
        for step in 0..RAMP_STEPS {
            let (stream, fresh) = prepare(&fx, seed, &format!("ramp{step}"), rate, STEP_S);
            let idle_from = stream.idx.len();
            let phase = run_phase(
                &fx,
                STEP_S,
                &stream,
                &fresh,
                idle_from,
                publisher.as_mut(),
                &mut Window::default(),
            )?;
            let ok = phase.passes(w.p99_limit_ms());
            eprintln!(
                "{}: ramp {rate:.0} rps: p99 {:.3} ms, {} failed of {} -> {}",
                w.name(),
                phase.pct_ms(0.99),
                phase.failed(),
                phase.load.sent,
                if ok { "pass" } else { "fail" }
            );
            ramp.push(phase);
            if !ok {
                break;
            }
            passed = rate;
            rate *= RAMP_FACTOR;
        }
        capacity = Some(passed);
    }

    let all = || rungs.iter().flatten().chain(&ramp);
    let mut report = Report::new(w);
    let attempted: u64 = all().map(|p| p.load.sent).sum();
    let failed: u64 = all().map(PhaseOutcome::failed).sum();
    report.attempted = attempted;
    report.failed = failed;
    report.wrong = all().map(|p| p.load.wrong).sum();
    report.first_mismatch = all().find_map(|p| p.load.first_mismatch.clone());

    let mut setup_sorted = setup_times.clone();
    setup_sorted.sort_by(f64::total_cmp);
    report.push(Metric::e2e(
        "setup_s",
        "s",
        median(&setup_sorted),
        setup_times.len() as u64,
    ));
    for (windows, label) in rungs.iter().zip(["low", "high"]) {
        let n = windows.iter().map(|p| p.load.latency.len() as u64).sum();
        for (name, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
            report.push(Metric::e2e(
                &format!("{name}_ms.{label}"),
                "ms",
                over_windows(windows, q),
                n,
            ));
        }
    }
    if let Some(c) = capacity {
        report.push(Metric::e2e("capacity_rps", "1/s", c, ramp.len() as u64));
    }
    report.push(Metric::e2e(
        "fail_frac",
        "frac",
        ratio(failed, attempted),
        attempted,
    ));
    if w == Workload::LiveIngest {
        let mut wall = HistogramShard::new();
        for p in rungs.iter().flatten() {
            wall.merge(&p.publishes.wall_ns);
        }
        let snap = wall.snapshot();
        report.push(Metric::e2e(
            "publish_p99_ms",
            "ms",
            snap.percentile(0.99) as f64 / 1e6,
            snap.count,
        ));
    }
    report.push(Metric::e2e("peak_rss_mb", "MB", peak_rss_mb()?, 1));

    // Layers read from the registry and public stats over the rungs.
    let responses = window.counter("serve.completed");
    let wakes = window.count("serve.poll_wake_ns");
    report.push(Metric::layer(
        "evloop.wakes_per_response",
        "ratio",
        ratio(wakes, responses),
        responses,
    ));
    let hist = |metric: &str, name: &str, q: f64| {
        Metric::layer(metric, "ns", window.quantile(name, q), window.count(name))
    };
    report.push(hist("evloop.poll_wake_ns.p99", "serve.poll_wake_ns", 0.99));
    let (hits, misses) = (
        window.counter("serve.bufpool_hits"),
        window.counter("serve.bufpool_misses"),
    );
    report.push(Metric::layer(
        "evloop.bufpool_hit_frac",
        "frac",
        ratio(hits, hits + misses),
        hits + misses,
    ));
    let idle = rungs[1].last().map_or(&[][..], |p| &p.load.idle[..]);
    report.push(Metric::layer(
        "evloop.idle_p50_ms",
        "ms",
        quantile_ms(idle, 0.5),
        idle.len() as u64,
    ));
    report.push(hist("pool.queue_wait_ns.p50", "serve.queue_wait_ns", 0.5));
    report.push(hist("pool.queue_wait_ns.p99", "serve.queue_wait_ns", 0.99));
    let received = window.counter("serve.received");
    report.push(Metric::layer(
        "pool.refused_frac",
        "frac",
        ratio(window.counter("serve.rejected_overloaded"), received),
        received,
    ));
    report.push(hist("pool.service_ns.p50", "serve.service_ns", 0.5));
    let (led, coalesced) = (
        flights_after.0 - flights_before.0,
        flights_after.1 - flights_before.1,
    );
    report.push(Metric::layer(
        "singleflight.coalesced_frac",
        "frac",
        ratio(coalesced, led + coalesced),
        led + coalesced,
    ));
    let (net_hits, recons) = (
        window.counter("session.network_hits"),
        window.counter("session.reconstructions"),
    );
    report.push(Metric::layer(
        "session.network_hit_frac",
        "frac",
        ratio(net_hits, net_hits + recons),
        net_hits + recons,
    ));
    let (route_hits, route_misses) = (
        window.counter("session.route_hits"),
        window.counter("session.route_misses"),
    );
    report.push(Metric::layer(
        "session.route_hit_frac",
        "frac",
        ratio(route_hits, route_hits + route_misses),
        route_hits + route_misses,
    ));
    if w == Workload::LiveIngest {
        let rung_s: f64 = rungs.iter().flatten().map(|p| p.seconds).sum();
        let swaps = window.sharded_counter("serve.generation_swaps");
        report.push(Metric::layer(
            "live.swaps_per_s",
            "1/s",
            swaps as f64 / rung_s,
            swaps,
        ));
        let swap_names: Vec<String> = (0..crate::workload::FLEET_SHARDS)
            .map(|k| {
                hft_obs::registry::labeled("serve.generation_swap_ns", "shard", &k.to_string())
            })
            .collect();
        let swap_count: u64 = swap_names.iter().map(|n| window.count(n)).sum();
        let swap_sum: f64 = swap_names
            .iter()
            .map(|n| window.mean(n) * window.count(n) as f64)
            .sum();
        report.push(Metric::layer(
            "live.swap_ns",
            "ns",
            swap_sum / swap_count.max(1) as f64,
            swap_count,
        ));
        let unpinned: u64 = rungs.iter().flatten().map(|p| p.load.unpinned).sum();
        report.push(Metric::layer(
            "live.unpinned_frac",
            "frac",
            ratio(unpinned, attempted),
            attempted,
        ));
    }
    if w == Workload::ComputeMc {
        let hit = window.counter("race.mc_cache{outcome=\"hit\"}");
        let miss = window.counter("race.mc_cache{outcome=\"miss\"}");
        report.push(Metric::layer(
            "race.mc_hit_frac",
            "frac",
            ratio(hit, hit + miss),
            hit + miss,
        ));
    }
    let mut lateness = HistogramShard::new();
    for p in all() {
        lateness.merge(&p.load.lateness);
    }
    let late = lateness.snapshot();
    report.push(Metric::layer(
        "loadgen.late_ms.p50",
        "ms",
        late.percentile(0.5) as f64 / 1e6,
        late.count,
    ));
    report.push(Metric::layer(
        "loadgen.late_ms.max",
        "ms",
        late.max as f64 / 1e6,
        late.count,
    ));
    for (windows, label) in rungs.iter().zip(["low", "high"]) {
        let mut late = HistogramShard::new();
        for p in windows {
            late.merge(&p.load.lateness);
        }
        let p99 = late.snapshot().percentile(0.99) as f64 / 1e6;
        if p99 > 5.0 {
            report.invalid.push(format!(
                "rung {label}: generator lateness p99 {p99:.3} ms exceeds 5 ms"
            ));
        }
    }

    if plan.traced {
        let p50_low_ns = over_windows(&rungs[0], 0.5) * 1e6;
        layers::measure(&fx, seed, p50_low_ns, &mut report)?;
    }
    Ok(report)
}

/// The median over a rung's windows of each window's `q`-quantile, ms.
fn over_windows(windows: &[PhaseOutcome], q: f64) -> f64 {
    let mut per: Vec<f64> = windows.iter().map(|p| p.pct_ms(q)).collect();
    per.sort_by(f64::total_cmp);
    median(&per)
}

/// The nearest-rank `q`-quantile of latencies in ns, as ms.
pub fn quantile_ms(ns: &[u64], q: f64) -> f64 {
    let mut v = ns.to_vec();
    v.sort_unstable();
    match v.len() {
        0 => 0.0,
        n => v[((n - 1) as f64 * q).round() as usize] as f64 / 1e6,
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The median of sorted values.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "peak RSS: no VmHWM line".to_string())
}
