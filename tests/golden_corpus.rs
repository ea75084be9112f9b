//! Golden-file regression test: the generator is fully deterministic in
//! its seed, so the flat-file encoding of the canonical corpus (seed
//! 2020) must match the committed snapshot byte for byte. Any change to
//! the generator, calibration, RNG streams, coordinate formatting or the
//! codec shows up here first.
//!
//! When a change is *intentional*, regenerate the snapshot:
//! `cargo run --release -p hft-bench --bin repro` and re-dump the head —
//! then re-verify EXPERIMENTS.md, since the published numbers may move.

use hftnetview::prelude::*;

#[test]
fn corpus_head_matches_golden_snapshot() {
    let eco = generate(&chicago_nj(), 2020);
    let text = hft_uls::flatfile::encode(eco.db.licenses());
    let head: String = text.lines().take(60).collect::<Vec<_>>().join("\n");
    let golden = include_str!("data/corpus_head.golden");
    assert_eq!(
        head,
        golden.trim_end(),
        "generator output drifted from the golden snapshot"
    );
}

#[test]
fn corpus_size_is_stable() {
    let eco = generate(&chicago_nj(), 2020);
    // The exact license count is part of the published dataset identity.
    assert_eq!(
        eco.db.len(),
        2801,
        "corpus size changed — update EXPERIMENTS.md if intentional"
    );
}

/// FNV-1a over a field-by-field encoding of a whole generated corpus.
/// Strings and lists are length-prefixed and every `f64` enters by its
/// bit pattern, so any drift anywhere in the corpus (even far below the
/// flat file's 0.1″ coordinate precision) changes the digest.
struct CorpusDigest(u64);

impl CorpusDigest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn date(&mut self, d: Option<Date>) {
        match d {
            None => self.word(0),
            Some(d) => {
                self.word(1);
                self.word(d.year() as u64);
                self.word(u64::from(d.month()));
                self.word(u64::from(d.day()));
            }
        }
    }

    fn site(&mut self, s: &hft_uls::TowerSite) {
        self.f64(s.position.lat_deg());
        self.f64(s.position.lon_deg());
        self.f64(s.ground_elevation_m);
        self.f64(s.structure_height_m);
    }

    fn of(seed: u64) -> u64 {
        let eco = generate(&chicago_nj(), seed);
        let mut h = CorpusDigest(0xcbf2_9ce4_8422_2325);
        h.word(eco.db.len() as u64);
        for l in eco.db.licenses() {
            h.word(l.id.0);
            h.str(&l.call_sign.0);
            h.str(&l.licensee);
            h.str(l.service.code());
            h.str(l.station_class.code());
            h.date(Some(l.grant_date));
            h.date(l.termination_date);
            h.date(l.cancellation_date);
            h.word(l.paths.len() as u64);
            for p in &l.paths {
                h.site(&p.tx);
                h.site(&p.rx);
                h.word(p.frequencies.len() as u64);
                for f in &p.frequencies {
                    h.f64(f.center_hz);
                }
            }
        }
        for names in [&eco.modeled, &eco.connected_2020] {
            h.word(names.len() as u64);
            for n in names {
                h.str(n);
            }
        }
        h.0
    }
}

#[test]
fn whole_corpus_digest_is_pinned() {
    // Pins every field of every license, bit for bit, at two seeds. A
    // generator change that is meant to be exact (a speed-up, a refactor)
    // must leave both values alone.
    assert_eq!(
        [CorpusDigest::of(2020), CorpusDigest::of(7)],
        [0xd0ca_3b1a_826e_2e3c, 0x4111_4187_c486_8364],
        "generated corpus drifted"
    );
}
