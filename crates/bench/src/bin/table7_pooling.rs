//! Table VII: ablation study on pooling methods — the dedicated `[CLS]`
//! token (disentangled instance embedding) vs deriving the instance
//! embedding from timestamp-level embeddings via Last / GAP / All pooling,
//! on FingerMovements and Epilepsy.
//!
//! The paper's point: pooled derivations suffer the anisotropy problem;
//! `[CLS]` wins, and GAP (the common choice, e.g. TS2Vec) is worst.

use testkit::impl_to_json;
use timedrl::{classification_linear_eval, Pooling};
use timedrl_bench::registry::classify_by_name;
use timedrl_bench::runners::{probe_config, timedrl_classify_config};
use timedrl_bench::{ResultSink, Scale};
use timedrl_tensor::Prng;

struct PoolRecord {
    dataset: String,
    pooling: String,
    acc: f32,
}

impl_to_json!(PoolRecord { dataset, pooling, acc });

fn main() {
    let scale = Scale::from_args();
    let seed = 23u64;
    let mut sink = ResultSink::new("table7_pooling");

    println!("Table VII. Ablation on pooling methods (accuracy, percent).\n");
    println!("{:<14} {:>18} {:>12}", "pooling", "FingerMovements", "Epilepsy");

    let datasets = ["FingerMovements", "Epilepsy"];
    for pooling in Pooling::ALL {
        let mut cells = [0.0f32; 2];
        for (d, name) in datasets.iter().enumerate() {
            let ds = classify_by_name(name, scale);
            let (train, test) = ds.train_test_split(0.6, &mut Prng::new(seed)).unwrap();
            let mut cfg = timedrl_classify_config(&train, scale, seed);
            cfg.pooling = pooling;
            // `All` pooling widens the instance embedding beyond the
            // contrast head's width; pre-training then runs with [CLS] (as
            // in the paper, the pooling ablation concerns the downstream
            // readout) while the probe reads the flattened embedding.
            if pooling == Pooling::All {
                cfg.pooling = Pooling::Cls;
                let (model, _) =
                    classification_linear_eval(&cfg, &train, &test, &probe_config(scale))
                        .expect("pre-training failed");
                // Re-probe with All pooling on the frozen encoder.
                cells[d] = probe_with_pooling(&model, &train, &test, Pooling::All, scale, seed);
            } else {
                let (_, report) =
                    classification_linear_eval(&cfg, &train, &test, &probe_config(scale))
                        .expect("pre-training failed");
                cells[d] = report.accuracy * 100.0;
            }
        }
        println!("{:<14} {:>18.2} {:>12.2}", pooling.name(), cells[0], cells[1]);
        for (d, dataset) in datasets.iter().enumerate() {
            sink.push(PoolRecord {
                dataset: dataset.to_string(),
                pooling: pooling.name().to_string(),
                acc: cells[d],
            });
        }
    }

    println!("\nExpected shape (paper): [CLS] best on both datasets; GAP suffers the");
    println!("anisotropy problem most.");
    let path = sink.write();
    println!("results written to {}", path.display());
}

/// Probes a frozen encoder with an alternative pooling strategy.
fn probe_with_pooling(
    model: &timedrl::TimeDrl,
    train: &timedrl_data::ClassifyDataset,
    test: &timedrl_data::ClassifyDataset,
    pooling: Pooling,
    scale: Scale,
    seed: u64,
) -> f32 {
    use timedrl_eval::{classification_report, LogisticProbe};
    use timedrl_nn::Ctx;

    let embed = |ds: &timedrl_data::ClassifyDataset| {
        let batch = ds.to_batch();
        let n = batch.shape()[0];
        let mut parts = Vec::new();
        let mut ctx = Ctx::eval();
        let mut start = 0;
        while start < n {
            let len = 128.min(n - start);
            let chunk = batch.slice(0, start, len).expect("chunk");
            let enc = model.encode(&chunk, &mut ctx);
            parts.push(enc.instance(pooling).to_array());
            start += len;
        }
        let refs: Vec<&timedrl_tensor::NdArray> = parts.iter().collect();
        timedrl_tensor::NdArray::concat(&refs, 0)
    };
    let train_emb = embed(train);
    let test_emb = embed(test);
    let probe = LogisticProbe::fit(&train_emb, &train.labels, train.n_classes, &probe_config(scale), seed);
    let pred = probe.predict(&test_emb);
    classification_report(&pred, &test.labels, test.n_classes).accuracy * 100.0
}
