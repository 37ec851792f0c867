//! Classification with linear evaluation on synthetic HAR: pre-train the
//! encoder, freeze it, and fit a logistic probe on the `[CLS]`
//! instance-level embeddings — the protocol behind Table V.
//!
//! ```text
//! cargo run -p timedrl --release --example classification
//! ```

use timedrl::{classification_linear_eval, TimeDrlConfig};
use timedrl_data::synth::classify::har;
use timedrl_eval::LogisticConfig;
use timedrl_tensor::Prng;

fn main() {
    // Synthetic HAR: 9 sensor channels, 6 activities, length-128 samples.
    let dataset = har(300, 7);
    println!(
        "dataset: {} ({} samples x {} steps x {} features, {} classes)",
        dataset.name,
        dataset.len(),
        dataset.sample_len(),
        dataset.features(),
        dataset.n_classes
    );
    let (train, test) = dataset.train_test_split(0.6, &mut Prng::new(0)).unwrap();
    println!("split: {} train / {} test", train.len(), test.len());

    // Classification uses channel mixing (no channel-independence) per the
    // paper's implementation notes.
    let mut cfg = TimeDrlConfig::classification(train.sample_len(), train.features());
    cfg.epochs = 5;
    let probe = LogisticConfig::default();
    let (model, report) = classification_linear_eval(&cfg, &train, &test, &probe)
        .expect("pre-training failed");
    let (acc, mf1, kappa) = report.as_percentages();
    println!("\nlinear evaluation on frozen [CLS] embeddings:");
    println!("  accuracy : {acc:.2}%");
    println!("  macro-F1 : {mf1:.2}%");
    println!("  kappa    : {kappa:.2}%");
    println!("\n(chance accuracy for 6 balanced classes: 16.67%)");
    let _ = model;
}
