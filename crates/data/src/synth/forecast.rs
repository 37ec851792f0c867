//! Synthetic stand-ins for the six forecasting benchmarks of Table I.
//!
//! Each generator matches its dataset's published feature count, default
//! length, sampling cadence, and qualitative structure:
//!
//! | dataset | features | timesteps | cadence | structure |
//! |---|---|---|---|---|
//! | ETTh1/ETTh2 | 7 | 17,420 | 1 hour  | daily+weekly seasonality, trend, AR noise; OT driven by loads |
//! | ETTm1/ETTm2 | 7 | 69,680 | 15 min  | same process at 4x resolution |
//! | Exchange    | 8 | 7,588  | 1 day   | correlated random walks (daily FX rates) |
//! | Weather     | 21| 52,696 | 10 min  | smooth annual/diurnal cycles + weather noise |
//!
//! The substitution rationale lives in DESIGN.md §2: the paper's
//! experiments compare *methods on shared data*; these processes expose the
//! same learnable structure (multi-scale periodicity, cross-channel
//! coupling, regime drift) on the same code paths.

use crate::dataset::ForecastDataset;
use timedrl_tensor::{NdArray, Prng};

/// Season / trend / noise mixing weights for an ETT-style channel.
struct EttChannel {
    daily_amp: f32,
    weekly_amp: f32,
    trend: f32,
    noise: f32,
    phase: f32,
}

/// Shared ETT process. `steps_per_day` distinguishes hourly (24) from
/// 15-minute (96) sampling; `volatility` distinguishes the calmer h1/m1
/// provinces from the more erratic h2/m2.
fn ett_like(
    name: &'static str,
    len: usize,
    steps_per_day: usize,
    volatility: f32,
    frequency: &'static str,
    seed: u64,
) -> ForecastDataset {
    let mut rng = Prng::new(seed);
    let n_loads = 6;
    let channels: Vec<EttChannel> = (0..n_loads)
        .map(|_| EttChannel {
            daily_amp: rng.uniform_in(0.5, 2.0),
            weekly_amp: rng.uniform_in(0.2, 0.8),
            trend: rng.uniform_in(-0.3, 0.3),
            noise: rng.uniform_in(0.1, 0.3) * volatility,
            phase: rng.uniform_in(0.0, std::f32::consts::TAU),
        })
        .collect();
    let day = steps_per_day as f32;
    let week = day * 7.0;
    let mut series = NdArray::zeros(&[len, 7]);
    // AR(1) noise state per channel, occasional regime shifts, and —
    // crucially — per-channel slow level drift. Real ETT spans two years
    // of electricity demand with pronounced non-stationarity (seasonal
    // migration, growing load): the train/test splits differ in level and
    // scale, which is exactly why instance-normalizing models dominate it.
    // The random-walk drift reproduces that inter-split shift at any
    // generated length, and the slow cycle adds within-series seasonal
    // migration (period tied to the series span, as a 2-year window of
    // real data would show ~2 annual swings).
    let mut ar = vec![0.0f32; n_loads];
    let mut level = vec![0.0f32; n_loads];
    let drift_std = 0.04 * volatility / (steps_per_day as f32 / 24.0).sqrt();
    let slow_period = len as f32 / 2.0;
    let slow_amp: Vec<f32> = (0..n_loads).map(|_| rng.uniform_in(0.8, 1.8)).collect();
    let slow_phase: Vec<f32> = (0..n_loads).map(|_| rng.uniform_in(0.0, std::f32::consts::TAU)).collect();
    let mut regime = 0.0f32;
    for t in 0..len {
        let tf = t as f32;
        if rng.bernoulli(1.0 / (30.0 * day)) {
            // Roughly monthly regime shift in overall demand.
            regime += rng.normal_with(0.0, 0.8) * volatility;
        }
        let mut load_sum = 0.0f32;
        for (c, ch) in channels.iter().enumerate() {
            ar[c] = 0.9 * ar[c] + rng.normal_with(0.0, ch.noise);
            level[c] += rng.normal_with(0.0, drift_std);
            let v = ch.daily_amp * (std::f32::consts::TAU * tf / day + ch.phase).sin()
                + ch.weekly_amp * (std::f32::consts::TAU * tf / week + ch.phase * 0.5).sin()
                + slow_amp[c] * (std::f32::consts::TAU * tf / slow_period + slow_phase[c]).sin()
                + ch.trend * 3.0 * tf / len as f32
                + regime
                + level[c]
                + ar[c];
            series.set(&[t, c], v);
            load_sum += v;
        }
        // Oil temperature: smoothed response to total load, lagging by
        // roughly half a day, plus its own seasonal cycle.
        let lag = steps_per_day / 2;
        let lagged = if t >= lag { series.at(&[t - lag, 0]) } else { 0.0 };
        let ot = 0.35 * load_sum / n_loads as f32
            + 0.25 * lagged
            + 0.8 * (std::f32::consts::TAU * tf / day).sin()
            + rng.normal_with(0.0, 0.05 * volatility);
        series.set(&[t, 6], ot);
    }
    ForecastDataset { name, series, frequency, target_channel: 6 }
}

/// ETTh1: hourly, calmer province. Default length 17,420.
pub fn etth1(len: usize, seed: u64) -> ForecastDataset {
    ett_like("ETTh1", len, 24, 1.0, "1 hour", seed ^ 0x0e77_0001)
}

/// ETTh2: hourly, higher volatility. Default length 17,420.
pub fn etth2(len: usize, seed: u64) -> ForecastDataset {
    ett_like("ETTh2", len, 24, 2.2, "1 hour", seed ^ 0x0e77_0002)
}

/// ETTm1: 15-minute sampling. Default length 69,680.
pub fn ettm1(len: usize, seed: u64) -> ForecastDataset {
    ett_like("ETTm1", len, 96, 1.0, "15 min", seed ^ 0x0e77_0003)
}

/// ETTm2: 15-minute sampling, higher volatility. Default length 69,680.
pub fn ettm2(len: usize, seed: u64) -> ForecastDataset {
    ett_like("ETTm2", len, 96, 2.2, "15 min", seed ^ 0x0e77_0004)
}

/// Exchange: 8 correlated FX random walks (daily). Default length 7,588.
/// The univariate target (channel 7) plays Singapore's role.
pub fn exchange(len: usize, seed: u64) -> ForecastDataset {
    let mut rng = Prng::new(seed ^ 0xf0e8_0005);
    let c = 8;
    let mut series = NdArray::zeros(&[len, c]);
    let mut level: Vec<f32> = (0..c).map(|_| rng.uniform_in(0.5, 2.0)).collect();
    let drift: Vec<f32> = (0..c).map(|_| rng.normal_with(0.0, 2e-5)).collect();
    for t in 0..len {
        // A common "dollar factor" couples all currencies, as real FX data
        // exhibits, plus idiosyncratic innovations.
        let common = rng.normal_with(0.0, 0.004);
        for ch in 0..c {
            let innovation = drift[ch] + 0.6 * common + rng.normal_with(0.0, 0.006);
            level[ch] *= 1.0 + innovation;
            series.set(&[t, ch], level[ch]);
        }
    }
    ForecastDataset { name: "Exchange", series, frequency: "1 day", target_channel: 7 }
}

/// Weather: 21 meteorological channels at 10-minute cadence. Default
/// length 52,696. Channel 20 plays the 'wet bulb' target.
pub fn weather(len: usize, seed: u64) -> ForecastDataset {
    let mut rng = Prng::new(seed ^ 0x3ea7_0006);
    let c = 21;
    let day = 144.0; // 10-minute steps per day
    let year = day * 365.0;
    let mut series = NdArray::zeros(&[len, c]);
    // Channel roles: 0 temperature-like, 1 pressure-like, 2 humidity-like,
    // the rest mixtures with varying smoothness.
    let smooth: Vec<f32> = (0..c).map(|_| rng.uniform_in(0.6, 0.98)).collect();
    let diurnal: Vec<f32> = (0..c).map(|_| rng.uniform_in(0.0, 1.5)).collect();
    let annual: Vec<f32> = (0..c).map(|_| rng.uniform_in(0.0, 2.0)).collect();
    let mut state = vec![0.0f32; c];
    for t in 0..len {
        let tf = t as f32;
        let mut temp_proxy = 0.0f32;
        for ch in 0..c - 1 {
            let target = diurnal[ch] * (std::f32::consts::TAU * tf / day).sin()
                + annual[ch] * (std::f32::consts::TAU * tf / year).sin()
                + rng.normal_with(0.0, 0.3);
            state[ch] = smooth[ch] * state[ch] + (1.0 - smooth[ch]) * target;
            series.set(&[t, ch], state[ch]);
            if ch < 3 {
                temp_proxy += state[ch];
            }
        }
        // Wet bulb: a function of the temperature/humidity channels.
        let wb = 0.5 * temp_proxy / 3.0
            + 0.3 * (std::f32::consts::TAU * tf / day - 0.7).sin()
            + rng.normal_with(0.0, 0.05);
        series.set(&[t, c - 1], wb);
    }
    ForecastDataset { name: "Weather", series, frequency: "10 min", target_channel: 20 }
}

/// Paper-published default lengths (Table I).
pub mod default_len {
    /// ETTh1/ETTh2 timesteps.
    pub const ETTH: usize = 17_420;
    /// ETTm1/ETTm2 timesteps.
    pub const ETTM: usize = 69_680;
    /// Exchange timesteps.
    pub const EXCHANGE: usize = 7_588;
    /// Weather timesteps.
    pub const WEATHER: usize = 52_696;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_table_one() {
        assert_eq!(etth1(default_len::ETTH, 0).series.shape(), &[17_420, 7]);
        assert_eq!(ettm2(default_len::ETTM, 0).series.shape(), &[69_680, 7]);
        assert_eq!(exchange(default_len::EXCHANGE, 0).series.shape(), &[7_588, 8]);
        assert_eq!(weather(default_len::WEATHER, 0).series.shape(), &[52_696, 21]);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = etth1(500, 42).series;
        let b = etth1(500, 42).series;
        assert_eq!(a, b);
        let c = etth1(500, 43).series;
        assert!(a.max_abs_diff(&c) > 0.0);
    }

    #[test]
    fn ett_has_daily_periodicity() {
        // Autocorrelation at the daily lag should clearly beat a random lag.
        let s = etth1(24 * 90, 7).series;
        let ch0: Vec<f32> = (0..s.shape()[0]).map(|t| s.at(&[t, 0])).collect();
        let ac_daily = autocorr(&ch0, 24);
        let ac_off = autocorr(&ch0, 17);
        assert!(ac_daily > ac_off + 0.1, "daily {ac_daily} vs off-cycle {ac_off}");
    }

    #[test]
    fn etth2_more_volatile_than_etth1() {
        let v1 = diff_std(&etth1(2000, 3).series);
        let v2 = diff_std(&etth2(2000, 3).series);
        assert!(v2 > v1 * 1.3, "h2 {v2} vs h1 {v1}");
    }

    #[test]
    fn exchange_is_near_random_walk() {
        // First differences of a random walk are near-white: the daily
        // autocorrelation of *levels* is high, of *diffs* near zero.
        let s = exchange(2000, 9).series;
        let ch: Vec<f32> = (0..2000).map(|t| s.at(&[t, 0])).collect();
        assert!(autocorr(&ch, 1) > 0.95);
        let d: Vec<f32> = ch.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(autocorr(&d, 1).abs() < 0.1);
    }

    #[test]
    fn weather_channels_differ_in_smoothness() {
        let s = weather(3000, 5).series;
        let stds: Vec<f32> = (0..21)
            .map(|c| {
                let ch: Vec<f32> = (0..3000).map(|t| s.at(&[t, c])).collect();
                let d: Vec<f32> = ch.windows(2).map(|w| w[1] - w[0]).collect();
                std(&d)
            })
            .collect();
        let max = stds.iter().cloned().fold(0.0f32, f32::max);
        let min = stds.iter().cloned().fold(f32::INFINITY, f32::min);
        assert!(max > 2.0 * min, "channel smoothness should vary: {min}..{max}");
    }

    #[test]
    fn target_channel_is_coupled_to_loads() {
        // Shuffling test: correlation between OT and mean load should be
        // well above zero.
        let s = etth1(5000, 11).series;
        let ot: Vec<f32> = (0..5000).map(|t| s.at(&[t, 6])).collect();
        let load: Vec<f32> = (0..5000)
            .map(|t| (0..6).map(|c| s.at(&[t, c])).sum::<f32>() / 6.0)
            .collect();
        assert!(corr(&ot, &load) > 0.3);
    }

    fn mean(xs: &[f32]) -> f32 {
        xs.iter().sum::<f32>() / xs.len() as f32
    }

    fn std(xs: &[f32]) -> f32 {
        let m = mean(xs);
        (xs.iter().map(|&v| (v - m) * (v - m)).sum::<f32>() / xs.len() as f32).sqrt()
    }

    fn corr(a: &[f32], b: &[f32]) -> f32 {
        let (ma, mb) = (mean(a), mean(b));
        let cov: f32 =
            a.iter().zip(b.iter()).map(|(&x, &y)| (x - ma) * (y - mb)).sum::<f32>() / a.len() as f32;
        cov / (std(a) * std(b) + 1e-9)
    }

    fn autocorr(xs: &[f32], lag: usize) -> f32 {
        corr(&xs[..xs.len() - lag], &xs[lag..])
    }

    fn diff_std(s: &NdArray) -> f32 {
        // Average over the six load channels: each channel's noise amplitude
        // is an independent draw, so a single channel is seed-luck.
        let t = s.shape()[0];
        (0..6)
            .map(|c| {
                let ch: Vec<f32> = (0..t).map(|i| s.at(&[i, c])).collect();
                let d: Vec<f32> = ch.windows(2).map(|w| w[1] - w[0]).collect();
                std(&d)
            })
            .sum::<f32>()
            / 6.0
    }
}

#[cfg(test)]
mod nonstationarity_tests {
    use super::*;

    /// Real ETT's signature: the chronological test split sits at a
    /// different level/scale than the train split. Verify the generator
    /// reproduces that inter-split shift (the property RevIN-style models
    /// exploit).
    #[test]
    fn ett_splits_are_distribution_shifted() {
        let s = etth1(3000, 2024).series;
        let train = s.slice(0, 0, 1800).unwrap();
        let test = s.slice(0, 2400, 600).unwrap();
        let shift = (train.mean_axis(0, false).sub(&test.mean_axis(0, false))).map(f32::abs).mean();
        let scale = train.var_axis(0, false).mean().sqrt();
        assert!(
            shift > 0.3 * scale,
            "test split should be level-shifted: shift {shift} vs train std {scale}"
        );
    }

    #[test]
    fn daily_cycle_survives_the_drift() {
        let s = etth1(24 * 120, 7).series;
        // Autocorrelation of first differences at the daily lag stays
        // clearly positive (drift inflates level autocorrelation, so test
        // on differences).
        let ch: Vec<f32> = (0..s.shape()[0]).map(|t| s.at(&[t, 0])).collect();
        let d: Vec<f32> = ch.windows(2).map(|w| w[1] - w[0]).collect();
        let n = d.len() - 24;
        let mean: f32 = d.iter().sum::<f32>() / d.len() as f32;
        let mut num = 0.0f32;
        let mut den = 0.0f32;
        for i in 0..n {
            num += (d[i] - mean) * (d[i + 24] - mean);
        }
        for v in &d {
            den += (v - mean) * (v - mean);
        }
        assert!(num / den > 0.1, "daily structure lost: {}", num / den);
    }
}
