//! Synthetic stand-ins for the five classification benchmarks of Table II.
//!
//! | dataset | samples | features | classes | length | structure |
//! |---|---|---|---|---|---|
//! | FingerMovements | 416    | 28 | 2  | 50  | EEG-like noise with class-dependent lateralized drift |
//! | PenDigits       | 10,992 | 2  | 10 | 8   | 8-point pen trajectories of digit prototypes |
//! | HAR             | 10,299 | 9  | 6  | 128 | accelerometer/gyroscope motifs per activity |
//! | Epilepsy        | 11,500 | 1  | 2  | 178 | EEG: seizure = high-amplitude spiking rhythm |
//! | WISDM           | 4,091  | 3  | 6  | 256 | smartphone accelerometer motifs per activity |
//!
//! Each class owns a parametric signal family; samples draw per-instance
//! amplitude/frequency/phase jitter plus sensor noise, so classes overlap
//! but remain separable — the regime the paper's linear-evaluation protocol
//! probes.

use crate::dataset::ClassifyDataset;
use timedrl_tensor::{NdArray, Prng};

const TAU: f32 = std::f32::consts::TAU;

/// Activity motif generator shared by HAR and WISDM: walking-like periodic
/// bursts, sitting-like flatness, stair-like asymmetric ramps, etc.
fn activity_sample(class: usize, len: usize, features: usize, rng: &mut Prng) -> NdArray {
    let base_freq = match class {
        0 => 2.0,  // walking
        1 => 2.8,  // walking upstairs (faster, asymmetric)
        2 => 2.4,  // walking downstairs
        3 => 0.0,  // sitting
        4 => 0.0,  // standing
        5 => 0.05, // laying (slow drift)
        _ => 1.0,
    };
    let amp = match class {
        0 => 1.0,
        1 => 1.4,
        2 => 1.2,
        3 => 0.05,
        4 => 0.10,
        5 => 0.05,
        _ => 0.5,
    };
    let asym = matches!(class, 1 | 2);
    let freq_jitter = rng.uniform_in(0.85, 1.15);
    let phase = rng.uniform_in(0.0, TAU);
    let amp_jitter = rng.uniform_in(0.8, 1.2);
    NdArray::from_fn(&[len, features], |flat| {
        let t = (flat / features) as f32 / len as f32 * 8.0; // ~8 "seconds"
        let ch = flat % features;
        let ch_phase = ch as f32 * 0.7;
        let mut v = if base_freq > 0.0 {
            let s = (TAU * base_freq * freq_jitter * t + phase + ch_phase).sin();
            // Upstairs/downstairs motifs clip one half-cycle harder.
            if asym && s < 0.0 {
                s * 0.4
            } else {
                s
            }
        } else {
            0.0
        };
        // Standing vs sitting differ in micro-tremor frequency.
        if class == 4 {
            v += 0.1 * (TAU * 8.0 * t + ch_phase).sin();
        }
        if class == 5 {
            v += 0.3 * (TAU * 0.05 * t).sin(); // slow postural drift
        }
        amp * amp_jitter * v
    })
    .add(&noise(len, features, 0.15, rng))
}

fn noise(len: usize, features: usize, std: f32, rng: &mut Prng) -> NdArray {
    NdArray::from_fn(&[len, features], |_| rng.normal_with(0.0, std))
}

/// HAR: 10,299 samples, 9 features (3x accelerometer body/total +
/// gyroscope), 6 activities, length 128.
pub fn har(n_samples: usize, seed: u64) -> ClassifyDataset {
    build("HAR", n_samples, 6, seed ^ 0xAA01, |class, rng| activity_sample(class, 128, 9, rng))
}

/// WISDM: 4,091 samples, 3 accelerometer axes, 6 activities, length 256.
pub fn wisdm(n_samples: usize, seed: u64) -> ClassifyDataset {
    build("WISDM", n_samples, 6, seed ^ 0xAA02, |class, rng| activity_sample(class, 256, 3, rng))
}

/// Epilepsy: 11,500 samples, single EEG channel, binary seizure label,
/// length 178. Seizure activity shows high-amplitude 3–5 Hz spiking.
pub fn epilepsy(n_samples: usize, seed: u64) -> ClassifyDataset {
    build("Epilepsy", n_samples, 2, seed ^ 0xAA03, |class, rng| {
        let len = 178;
        let seizure = class == 1;
        let spike_freq = rng.uniform_in(3.0, 5.0);
        let phase = rng.uniform_in(0.0, TAU);
        let alpha = rng.uniform_in(8.0, 12.0);
        let base = NdArray::from_fn(&[len, 1], |i| {
            let t = i as f32 / 178.0 * 23.6 / 10.0; // compressed time axis
            if seizure {
                // Sharp, saturating spike train.
                let s = (TAU * spike_freq * t + phase).sin();
                4.0 * s.signum() * s.abs().powf(0.3)
            } else {
                // Normal alpha-band background rhythm.
                (TAU * alpha * t + phase).sin()
            }
        });
        let noise_std = if seizure { 0.8 } else { 0.4 };
        base.add(&noise(len, 1, noise_std, rng))
    })
}

/// Digit stroke prototypes for PenDigits: 8 (x, y) waypoints per digit,
/// loosely tracing each numeral's pen path in a unit box.
const DIGIT_PROTOS: [[(f32, f32); 8]; 10] = [
    // 0: oval
    [(0.5, 1.0), (0.15, 0.8), (0.1, 0.4), (0.35, 0.0), (0.65, 0.0), (0.9, 0.4), (0.85, 0.8), (0.5, 1.0)],
    // 1: vertical stroke
    [(0.4, 0.9), (0.5, 1.0), (0.5, 0.85), (0.5, 0.6), (0.5, 0.45), (0.5, 0.3), (0.5, 0.15), (0.5, 0.0)],
    // 2: arc then base line
    [(0.15, 0.8), (0.4, 1.0), (0.75, 0.9), (0.8, 0.6), (0.5, 0.35), (0.2, 0.1), (0.5, 0.05), (0.9, 0.0)],
    // 3: double bump
    [(0.2, 0.95), (0.65, 1.0), (0.8, 0.75), (0.45, 0.55), (0.8, 0.35), (0.7, 0.1), (0.35, 0.0), (0.15, 0.1)],
    // 4: down-diagonal, cross, vertical
    [(0.7, 1.0), (0.45, 0.7), (0.2, 0.4), (0.5, 0.4), (0.85, 0.4), (0.7, 0.7), (0.7, 0.3), (0.7, 0.0)],
    // 5: top bar, belly
    [(0.85, 1.0), (0.3, 1.0), (0.25, 0.6), (0.6, 0.6), (0.85, 0.4), (0.8, 0.15), (0.45, 0.0), (0.15, 0.1)],
    // 6: sweep down into loop
    [(0.75, 1.0), (0.45, 0.8), (0.2, 0.5), (0.15, 0.2), (0.45, 0.0), (0.75, 0.15), (0.7, 0.4), (0.3, 0.4)],
    // 7: top bar, diagonal
    [(0.1, 1.0), (0.5, 1.0), (0.9, 1.0), (0.7, 0.7), (0.55, 0.5), (0.45, 0.3), (0.35, 0.15), (0.3, 0.0)],
    // 8: two loops
    [(0.5, 1.0), (0.2, 0.8), (0.5, 0.55), (0.8, 0.8), (0.5, 1.0), (0.15, 0.2), (0.5, 0.0), (0.85, 0.25)],
    // 9: loop then tail
    [(0.8, 0.8), (0.5, 1.0), (0.2, 0.8), (0.5, 0.55), (0.8, 0.8), (0.75, 0.5), (0.7, 0.25), (0.65, 0.0)],
];

/// PenDigits: 10,992 samples, (x, y) pen coordinates resampled to 8 points,
/// 10 digit classes.
pub fn pendigits(n_samples: usize, seed: u64) -> ClassifyDataset {
    build("PenDigits", n_samples, 10, seed ^ 0xAA04, |class, rng| {
        let proto = &DIGIT_PROTOS[class];
        // Affine jitter: per-writer scale, shear, offset, point noise.
        let sx = rng.uniform_in(0.8, 1.2);
        let sy = rng.uniform_in(0.8, 1.2);
        let shear = rng.uniform_in(-0.15, 0.15);
        let (ox, oy) = (rng.uniform_in(-0.05, 0.05), rng.uniform_in(-0.05, 0.05));
        let mut out = NdArray::zeros(&[8, 2]);
        for (i, &(px, py)) in proto.iter().enumerate() {
            let x = sx * px + shear * py + ox + rng.normal_with(0.0, 0.03);
            let y = sy * py + oy + rng.normal_with(0.0, 0.03);
            out.set(&[i, 0], x);
            out.set(&[i, 1], y);
        }
        out
    })
}

/// FingerMovements: 416 samples, 28 EEG channels, binary left/right
/// intention, length 50. The class signal is a weak lateralized readiness
/// drift — deliberately hard, matching the near-chance baseline accuracies
/// of Table V.
pub fn finger_movements(n_samples: usize, seed: u64) -> ClassifyDataset {
    build("FingerMovements", n_samples, 2, seed ^ 0xAA05, |class, rng| {
        let len = 50;
        let c = 28;
        // Left hemisphere channels 0..14, right 14..28; upcoming left key
        // press (class 0) shows contralateral (right-side) drift and vice
        // versa.
        let lateral = if class == 0 { 1.0 } else { -1.0 };
        let drift_amp = rng.uniform_in(0.2, 0.45);
        let alpha_freq = rng.uniform_in(9.0, 11.0);
        let phase = rng.uniform_in(0.0, TAU);
        let base = NdArray::from_fn(&[len, c], |flat| {
            let t = (flat / c) as f32 / len as f32;
            let ch = flat % c;
            let side = if ch < 14 { -1.0 } else { 1.0 };
            // Readiness potential: slow ramp toward movement onset.
            let drift = lateral * side * drift_amp * t * t;
            let rhythm = 0.3 * (TAU * alpha_freq * t + phase + ch as f32 * 0.3).sin();
            drift + rhythm
        });
        base.add(&noise(len, c, 0.5, rng))
    })
}

/// Builds a dataset with a balanced class distribution.
fn build(
    name: &'static str,
    n_samples: usize,
    n_classes: usize,
    seed: u64,
    mut gen: impl FnMut(usize, &mut Prng) -> NdArray,
) -> ClassifyDataset {
    let mut rng = Prng::new(seed);
    let mut samples = Vec::with_capacity(n_samples);
    let mut labels = Vec::with_capacity(n_samples);
    for i in 0..n_samples {
        let class = i % n_classes;
        samples.push(gen(class, &mut rng));
        labels.push(class);
    }
    // Shuffle so class order carries no information.
    let mut idx: Vec<usize> = (0..n_samples).collect();
    rng.shuffle(&mut idx);
    let samples = idx.iter().map(|&i| samples[i].clone()).collect();
    let labels = idx.iter().map(|&i| labels[i]).collect();
    ClassifyDataset { name, samples, labels, n_classes }
}

/// Paper-published sample counts (Table II).
pub mod default_n {
    /// FingerMovements samples.
    pub const FINGER_MOVEMENTS: usize = 416;
    /// PenDigits samples.
    pub const PENDIGITS: usize = 10_992;
    /// HAR samples.
    pub const HAR: usize = 10_299;
    /// Epilepsy samples.
    pub const EPILEPSY: usize = 11_500;
    /// WISDM samples.
    pub const WISDM: usize = 4_091;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_table_two() {
        let fm = finger_movements(default_n::FINGER_MOVEMENTS, 0);
        assert_eq!(fm.len(), 416);
        assert_eq!(fm.sample_len(), 50);
        assert_eq!(fm.features(), 28);
        assert_eq!(fm.n_classes, 2);
        let pd = pendigits(100, 0);
        assert_eq!((pd.sample_len(), pd.features(), pd.n_classes), (8, 2, 10));
        let h = har(60, 0);
        assert_eq!((h.sample_len(), h.features(), h.n_classes), (128, 9, 6));
        let ep = epilepsy(40, 0);
        assert_eq!((ep.sample_len(), ep.features(), ep.n_classes), (178, 1, 2));
        let w = wisdm(60, 0);
        assert_eq!((w.sample_len(), w.features(), w.n_classes), (256, 3, 6));
    }

    #[test]
    fn labels_are_balanced() {
        let ds = har(600, 1);
        for class in 0..6 {
            let count = ds.labels.iter().filter(|&&l| l == class).count();
            assert_eq!(count, 100);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = wisdm(20, 5);
        let b = wisdm(20, 5);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.samples[0], b.samples[0]);
    }

    #[test]
    fn epilepsy_seizure_has_higher_energy() {
        let ds = epilepsy(200, 2);
        let mut energy = [0.0f32; 2];
        let mut counts = [0usize; 2];
        for (s, &l) in ds.samples.iter().zip(&ds.labels) {
            energy[l] += s.data().iter().map(|v| v * v).sum::<f32>();
            counts[l] += 1;
        }
        let normal = energy[0] / counts[0] as f32;
        let seizure = energy[1] / counts[1] as f32;
        assert!(seizure > 2.0 * normal, "seizure {seizure} vs normal {normal}");
    }

    #[test]
    fn activity_classes_are_distinguishable_by_energy() {
        // Walking (0) must be far more energetic than sitting (3).
        let ds = har(120, 3);
        let avg_energy = |class: usize| {
            let (mut e, mut n) = (0.0f32, 0);
            for (s, &l) in ds.samples.iter().zip(&ds.labels) {
                if l == class {
                    e += s.data().iter().map(|v| v * v).sum::<f32>() / s.numel() as f32;
                    n += 1;
                }
            }
            e / n as f32
        };
        assert!(avg_energy(0) > 5.0 * avg_energy(3));
    }

    #[test]
    fn pendigits_prototypes_are_distinct() {
        // Mean trajectories of two different digits must differ clearly.
        let ds = pendigits(400, 4);
        let mean_traj = |class: usize| {
            let mut acc = NdArray::zeros(&[8, 2]);
            let mut n = 0;
            for (s, &l) in ds.samples.iter().zip(&ds.labels) {
                if l == class {
                    acc = acc.add(s);
                    n += 1;
                }
            }
            acc.scale(1.0 / n as f32)
        };
        let d0 = mean_traj(0);
        let d1 = mean_traj(1);
        assert!(d0.max_abs_diff(&d1) > 0.2);
    }

    #[test]
    fn finger_movements_lateralization() {
        // Class-conditional mean of (right-side minus left-side) late-window
        // activity should have opposite signs across classes.
        let ds = finger_movements(400, 6);
        let mut side_diff = [0.0f32; 2];
        let mut counts = [0usize; 2];
        for (s, &l) in ds.samples.iter().zip(&ds.labels) {
            let mut left = 0.0;
            let mut right = 0.0;
            for t in 40..50 {
                for ch in 0..14 {
                    left += s.at(&[t, ch]);
                }
                for ch in 14..28 {
                    right += s.at(&[t, ch]);
                }
            }
            side_diff[l] += right - left;
            counts[l] += 1;
        }
        let d0 = side_diff[0] / counts[0] as f32;
        let d1 = side_diff[1] / counts[1] as f32;
        assert!(d0 > 0.0 && d1 < 0.0, "lateralization d0={d0} d1={d1}");
    }
}
