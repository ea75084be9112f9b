//! Per-link outage models and weather-state sampling.
//!
//! Ties the propagation models together for the §5 reliability experiment:
//! a link fails when rain plus multipath fading exceeds its clear-air fade
//! margin. Sampling corridor-wide weather events then yields distributions
//! of *conditional* network latency — the quantity on which a
//! high-redundancy network (Webline Holdings) can beat a shorter-path one
//! (New Line Networks).

use crate::linkbudget::LinkBudget;
use crate::multipath::multipath_outage_probability;
use crate::rain::{effective_path_length_km, power_law, rain_attenuation_db};
use rand::Rng;

/// Outage model for one microwave link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkOutageModel {
    /// Path length, km.
    pub length_km: f64,
    /// Operating frequency, GHz.
    pub freq_ghz: f64,
    /// Radio parameters.
    pub budget: LinkBudget,
}

impl LinkOutageModel {
    /// Model with the [`LinkBudget::typical_hft`] radio.
    pub fn typical(length_km: f64, freq_ghz: f64) -> LinkOutageModel {
        LinkOutageModel {
            length_km,
            freq_ghz,
            budget: LinkBudget::typical_hft(),
        }
    }

    /// Clear-air fade margin, dB.
    pub fn fade_margin_db(&self) -> f64 {
        self.budget.fade_margin_db(self.freq_ghz, self.length_km)
    }

    /// Whether the link stays up under rain rate `rain_mm_h`:
    /// rain attenuation must leave the margin positive.
    pub fn up_under_rain(&self, rain_mm_h: f64) -> bool {
        rain_attenuation_db(self.freq_ghz, self.length_km, rain_mm_h) < self.fade_margin_db()
    }

    /// [`LinkOutageModel::up_under_rain`] with every term that depends on
    /// the link alone computed once, for loops that test one link
    /// against many rain rates.
    pub fn rain_screen(&self) -> RainScreen {
        let (k, alpha) = power_law(self.freq_ghz);
        let margin_db = self.fade_margin_db();
        // The attenuation is k·Rᵅ over the *effective* path, which is no
        // longer than the link, so any rain with k·Rᵅ·length below the
        // margin leaves the link up. The 1e-9 slack dwarfs the few ulps
        // of rounding in this bound and in the attenuation itself.
        let surely_up_mm_h = if margin_db > 0.0 && self.length_km > 0.0 {
            (margin_db * (1.0 - 1e-9) / (k * self.length_km)).powf(1.0 / alpha)
        } else {
            0.0
        };
        RainScreen {
            length_km: self.length_km,
            k,
            alpha,
            margin_db,
            surely_up_mm_h,
        }
    }

    /// Residual margin (dB) under rain rate `rain_mm_h`; negative = outage.
    pub fn residual_margin_db(&self, rain_mm_h: f64) -> f64 {
        self.fade_margin_db() - rain_attenuation_db(self.freq_ghz, self.length_km, rain_mm_h)
    }

    /// Probability of a clear-air multipath outage (no rain), i.e. fading
    /// through the entire margin.
    pub fn multipath_outage_probability(&self) -> f64 {
        multipath_outage_probability(self.freq_ghz, self.length_km, self.fade_margin_db())
    }

    /// The critical rain rate (mm/h) at which the link fails, found by
    /// bisection; `None` if the link survives even 200 mm/h (tropical
    /// cloudburst — effectively never on this corridor).
    pub fn critical_rain_rate(&self) -> Option<f64> {
        let margin = self.fade_margin_db();
        if margin <= 0.0 {
            return Some(0.0);
        }
        let attenuation = |r: f64| rain_attenuation_db(self.freq_ghz, self.length_km, r);
        if attenuation(200.0) < margin {
            return None;
        }
        let (mut lo, mut hi) = (0.0f64, 200.0f64);
        for _ in 0..60 {
            let mid = (lo + hi) / 2.0;
            if attenuation(mid) < margin {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some((lo + hi) / 2.0)
    }
}

/// One link's rain-outage decision with its constants hoisted: the
/// P.838 `(k, α)` at its frequency, its clear-air fade margin and a rain
/// rate below which it is surely up. Built by
/// [`LinkOutageModel::rain_screen`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RainScreen {
    length_km: f64,
    k: f64,
    alpha: f64,
    margin_db: f64,
    surely_up_mm_h: f64,
}

impl RainScreen {
    /// Rain rate (mm/h) below which the link stays up without the
    /// attenuation being evaluated; 0 (no screen) for a link with no
    /// positive margin or no length.
    pub fn surely_up_mm_h(&self) -> f64 {
        self.surely_up_mm_h
    }

    /// Exactly [`LinkOutageModel::up_under_rain`] of the model the screen
    /// was built from, for every rain rate: below
    /// [`RainScreen::surely_up_mm_h`] it answers without evaluating the
    /// attenuation, elsewhere it evaluates the identical expression.
    pub fn up_under_rain(&self, rain_mm_h: f64) -> bool {
        let specific = if rain_mm_h <= 0.0 {
            0.0
        } else if rain_mm_h < self.surely_up_mm_h {
            return true;
        } else {
            self.k * rain_mm_h.powf(self.alpha)
        };
        specific * effective_path_length_km(self.length_km, rain_mm_h) < self.margin_db
    }
}

/// One sampled corridor weather event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeatherEvent {
    /// Center of the rain cell as a fraction `0..1` of corridor length.
    pub center: f64,
    /// Half-width of the cell, same fractional units.
    pub half_width: f64,
    /// Peak rain rate at the cell center, mm/h.
    pub peak_mm_h: f64,
}

impl WeatherEvent {
    /// Rain rate at fractional corridor position `x`, with a triangular
    /// profile falling from the peak at the center to zero at the edges.
    pub fn rain_at(&self, x: f64) -> f64 {
        let d = (x - self.center).abs();
        if d >= self.half_width || self.half_width <= 0.0 {
            0.0
        } else {
            self.peak_mm_h * (1.0 - d / self.half_width)
        }
    }
}

/// Samples corridor weather states: clear skies most of the time, with
/// occasional rain cells of varying intensity placed along the corridor.
#[derive(Debug, Clone, Copy)]
pub struct WeatherSampler {
    /// Probability that a sampled state has any rain at all.
    pub rain_probability: f64,
    /// Scale (mean) of the exponentially distributed peak rain rate, mm/h.
    pub mean_peak_mm_h: f64,
    /// Maximum cell half-width as a fraction of the corridor.
    pub max_half_width: f64,
}

impl Default for WeatherSampler {
    /// Midwestern-corridor defaults: rain somewhere on the 1,200 km
    /// corridor in ~25% of states, mean peak 18 mm/h (with an
    /// exponential tail into violent-storm territory), cells up to ~8% of
    /// the corridor (~100 km) across.
    fn default() -> Self {
        WeatherSampler {
            rain_probability: 0.25,
            mean_peak_mm_h: 18.0,
            max_half_width: 0.08,
        }
    }
}

impl WeatherSampler {
    /// A convective-season distribution for tail-latency analysis: rain
    /// somewhere on the corridor in 40% of states, heavier cells (mean
    /// peak 28 mm/h) up to ~12% of the corridor across. Use this to study
    /// the §5 "who is faster in *bad* weather" question, where the mild
    /// [`WeatherSampler::default`] rarely breaks a well-engineered link.
    pub fn stormy_season() -> WeatherSampler {
        WeatherSampler {
            rain_probability: 0.40,
            mean_peak_mm_h: 28.0,
            max_half_width: 0.12,
        }
    }

    /// Sample a weather state: `None` = clear skies.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<WeatherEvent> {
        if rng.gen::<f64>() >= self.rain_probability {
            return None;
        }
        let center = rng.gen::<f64>();
        let half_width = rng.gen::<f64>() * self.max_half_width;
        // Exponential via inverse CDF; bounded to a physical ceiling.
        let u: f64 = rng.gen::<f64>().max(1e-12);
        let peak = (-u.ln() * self.mean_peak_mm_h).min(150.0);
        Some(WeatherEvent {
            center,
            half_width,
            peak_mm_h: peak,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn margin_decides_survival() {
        let link = LinkOutageModel::typical(48.5, 11.2);
        assert!(link.up_under_rain(0.0));
        assert!(!link.up_under_rain(150.0));
    }

    #[test]
    fn short_low_band_link_tougher_than_long_high_band() {
        let wh = LinkOutageModel::typical(36.0, 6.2);
        let nln = LinkOutageModel::typical(48.5, 11.2);
        let r_wh = wh.critical_rain_rate();
        let r_nln = nln
            .critical_rain_rate()
            .expect("11 GHz 48 km link must fail somewhere");
        match r_wh {
            None => {} // 6 GHz link survives everything we model — fine.
            Some(r_wh) => assert!(r_wh > r_nln, "wh fails at {r_wh}, nln at {r_nln}"),
        }
    }

    #[test]
    fn residual_margin_signs() {
        let link = LinkOutageModel::typical(40.0, 11.0);
        assert!(link.residual_margin_db(0.0) > 0.0);
        let crit = link.critical_rain_rate().unwrap();
        assert!(link.residual_margin_db(crit + 5.0) < 0.0);
        assert!(link.residual_margin_db(crit - 5.0) > 0.0);
    }

    #[test]
    fn critical_rate_is_a_fixed_point() {
        let link = LinkOutageModel::typical(45.0, 11.0);
        let crit = link.critical_rain_rate().unwrap();
        assert!(
            link.residual_margin_db(crit).abs() < 0.01,
            "margin at crit = {}",
            link.residual_margin_db(crit)
        );
    }

    #[test]
    fn multipath_outage_small_but_positive() {
        let link = LinkOutageModel::typical(48.5, 11.2);
        let p = link.multipath_outage_probability();
        assert!(p > 0.0 && p < 0.01, "got {p}");
    }

    /// Links from 0.5 to 120 km at 0.5 to 30 GHz, so both clamped ends
    /// of the coefficient table are crossed.
    fn link_grid() -> impl Iterator<Item = LinkOutageModel> {
        let lengths = [0.5, 1.0, 3.7, 12.0, 36.0, 48.5, 75.0, 120.0];
        let freqs = [0.5, 1.0, 2.3, 6.175, 10.7, 11.2, 18.0, 23.0, 25.0, 30.0];
        lengths
            .into_iter()
            .flat_map(move |l| freqs.map(|f| LinkOutageModel::typical(l, f)))
    }

    #[test]
    fn rain_just_below_the_screen_leaves_the_link_up() {
        for link in link_grid() {
            let r_up = link.rain_screen().surely_up_mm_h();
            assert!(r_up > 0.0, "{link:?} has positive margin and length");
            for r in [r_up * (1.0 - 1e-12), r_up.next_down(), r_up * 0.5] {
                assert!(link.up_under_rain(r), "{link:?} down at {r} < {r_up}");
            }
            if let Some(crit) = link.critical_rain_rate() {
                assert!(r_up <= crit, "{link:?}: screen {r_up} above failure {crit}");
            }
        }
    }

    /// A link with no fade margin and a link of zero length.
    fn unscreened() -> [LinkOutageModel; 2] {
        let mut deaf = LinkOutageModel::typical(40.0, 11.0);
        deaf.budget.rx_sensitivity_dbm = 0.0;
        assert!(deaf.fade_margin_db() <= 0.0);
        [deaf, LinkOutageModel::typical(0.0, 11.0)]
    }

    #[test]
    fn no_margin_or_no_length_means_no_screen() {
        for link in unscreened() {
            assert_eq!(link.rain_screen().surely_up_mm_h(), 0.0, "{link:?}");
        }
    }

    #[test]
    fn screen_decides_exactly_as_the_model() {
        for link in link_grid().chain(unscreened()) {
            let screen = link.rain_screen();
            let r_up = screen.surely_up_mm_h();
            let mut rates = vec![-3.0, 0.0, 1e-9, r_up, r_up.next_up(), f64::NAN];
            rates.extend((0..=300).map(|i| f64::from(i) * 0.5));
            if let Some(crit) = link.critical_rain_rate() {
                rates.extend([crit.next_down(), crit, crit.next_up()]);
            }
            for r in rates {
                assert_eq!(
                    screen.up_under_rain(r),
                    link.up_under_rain(r),
                    "{link:?} at {r} mm/h"
                );
            }
        }
    }

    #[test]
    fn weather_event_profile() {
        let e = WeatherEvent {
            center: 0.5,
            half_width: 0.1,
            peak_mm_h: 40.0,
        };
        assert_eq!(e.rain_at(0.5), 40.0);
        assert_eq!(e.rain_at(0.61), 0.0);
        assert_eq!(e.rain_at(0.39), 0.0);
        let mid = e.rain_at(0.55);
        assert!((mid - 20.0).abs() < 1e-9);
        assert_eq!(e.rain_at(0.3), 0.0);
    }

    #[test]
    fn degenerate_cell_has_no_rain_off_center() {
        let e = WeatherEvent {
            center: 0.5,
            half_width: 0.0,
            peak_mm_h: 40.0,
        };
        assert_eq!(e.rain_at(0.5), 0.0);
    }

    #[test]
    fn sampler_rain_fraction_matches_probability() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let s = WeatherSampler::default();
        let n = 20_000;
        let rainy = (0..n).filter(|_| s.sample(&mut rng).is_some()).count();
        let frac = rainy as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn sampler_events_within_bounds() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let s = WeatherSampler::default();
        for _ in 0..5_000 {
            if let Some(e) = s.sample(&mut rng) {
                assert!((0.0..=1.0).contains(&e.center));
                assert!((0.0..=s.max_half_width).contains(&e.half_width));
                assert!(e.peak_mm_h > 0.0 && e.peak_mm_h <= 150.0);
            }
        }
    }

    #[test]
    fn sampler_deterministic_under_seed() {
        let s = WeatherSampler::default();
        let mut a = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let mut b = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(s.sample(&mut a), s.sample(&mut b));
        }
    }
}
