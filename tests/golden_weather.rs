//! Pins the §5 weather Monte Carlo bit for bit.
//!
//! Every `WeatherOutcome` field enters an FNV-1a digest by its bit
//! pattern, over every licensee with a route on four data-center pairs
//! (both directions of one), two as-of dates, both weather samplers and
//! several `(samples, seed)` runs, plus the portfolio Monte Carlo over
//! growing sets of networks. A change to the Monte Carlo that is meant to
//! be exact (a speed-up, a refactor) must leave the digest alone; served
//! weather and race answers, the race Monte Carlo cache and `repro`
//! output all depend on these values.

use hftnetview::hft_core::corridor::{DataCenter, CME, EQUINIX_NY4, NASDAQ, NYSE};
use hftnetview::hft_core::AnalysisSession;
use hftnetview::hft_radio::WeatherSampler;
use hftnetview::prelude::*;
use hftnetview::weather::{conditional_latency_on, portfolio_latency, WeatherOutcome};

struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn outcome(&mut self, o: Option<WeatherOutcome>) {
        let Some(o) = o else {
            return self.word(0);
        };
        self.word(1);
        for x in [o.clear_ms, o.p50_ms, o.p95_ms, o.p99_ms, o.availability] {
            self.word(x.to_bits());
        }
        self.word(o.samples as u64);
    }
}

/// `(samples, seed)` runs: single-state and odd-sized ones probe the
/// quantile indexing, the larger ones reach failed links and
/// disconnected states.
const RUNS: [(usize, u64); 4] = [(1, 3), (7, 11), (600, 2020), (3000, 4242)];

#[test]
fn weather_outcomes_digest_is_pinned() {
    let eco = generate(&chicago_nj(), 2020);
    let session = AnalysisSession::new(&eco.db);
    let pairs: [(DataCenter, DataCenter); 4] = [
        (CME, EQUINIX_NY4),
        (CME, NYSE),
        (CME, NASDAQ),
        (NASDAQ, CME),
    ];
    let samplers = [WeatherSampler::stormy_season(), WeatherSampler::default()];
    let dates = [
        Date::new(2020, 4, 1).unwrap(),
        Date::new(2016, 6, 1).unwrap(),
    ];

    let mut h = Digest(0xcbf2_9ce4_8422_2325);
    let mut routed = 0u64;
    for date in dates {
        for licensee in eco.db.licensees() {
            for (a, b) in &pairs {
                if session.route(licensee, date, a, b).is_none() {
                    continue;
                }
                routed += 1;
                let net = session.network(licensee, date);
                let rg = session.routing_graph(licensee, date, a, b);
                for sampler in &samplers {
                    for (samples, seed) in RUNS {
                        h.outcome(conditional_latency_on(
                            &rg, &net, a, b, sampler, samples, seed,
                        ));
                    }
                }
            }
        }
    }
    h.word(routed);

    let date = dates[0];
    let nets: Vec<_> = eco
        .connected_2020
        .iter()
        .map(|l| session.network(l, date))
        .collect();
    for k in 1..=nets.len() {
        let members: Vec<&Network> = nets[..k].iter().map(|n| &**n).collect();
        for sampler in &samplers {
            h.outcome(portfolio_latency(
                &members,
                &CME,
                &EQUINIX_NY4,
                sampler,
                1000,
                k as u64,
            ));
        }
    }

    assert!(routed > 0, "no licensee has a route");
    assert_eq!(
        h.0, 0x5733_4e0f_348e_dc7f,
        "weather Monte Carlo outcomes drifted"
    );
}
