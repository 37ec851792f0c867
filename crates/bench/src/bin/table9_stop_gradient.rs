//! Table IX: ablation study on the stop-gradient operation in the
//! instance-contrastive task (Eqs. 16–17). Without stop-gradient the
//! negative-free Siamese objective admits the collapsed constant solution;
//! the paper shows accuracy drops sharply on FingerMovements and Epilepsy.

use testkit::impl_to_json;
use timedrl::classification_linear_eval;
use timedrl_bench::registry::classify_by_name;
use timedrl_bench::runners::{probe_config, timedrl_classify_config};
use timedrl_bench::{ResultSink, Scale};
use timedrl_tensor::Prng;

struct SgRecord {
    dataset: String,
    stop_gradient: bool,
    acc: f32,
    embedding_std: f32,
}

impl_to_json!(SgRecord { dataset, stop_gradient, acc, embedding_std });

fn main() {
    let scale = Scale::from_args();
    let seed = 31u64;
    let mut sink = ResultSink::new("table9_stop_gradient");

    println!("Table IX. Ablation on the stop-gradient operation (accuracy, percent).\n");
    println!("{:<14} {:>18} {:>12}", "variant", "FingerMovements", "Epilepsy");

    let datasets = ["FingerMovements", "Epilepsy"];
    for (label, sg) in [("w/ SG (Ours)", true), ("w/o SG", false)] {
        let mut cells = [0.0f32; 2];
        for (d, name) in datasets.iter().enumerate() {
            let ds = classify_by_name(name, scale);
            let (train, test) = ds.train_test_split(0.6, &mut Prng::new(seed)).unwrap();
            let mut cfg = timedrl_classify_config(&train, scale, seed);
            cfg.stop_gradient = sg;
            // Emphasize the contrastive task so the collapse mechanism is
            // load-bearing (with lambda << 1 the predictive task would
            // mask the ablation).
            cfg.lambda = 5.0;
            let (model, report) =
                classification_linear_eval(&cfg, &train, &test, &probe_config(scale))
                    .expect("pre-training failed");
            cells[d] = report.accuracy * 100.0;
            // Collapse diagnostic: std of instance embeddings across the
            // test set.
            let emb = model.embed_instances(&test.to_batch());
            let std = emb.var_axis(0, false).mean().sqrt();
            sink.push(SgRecord {
                dataset: name.to_string(),
                stop_gradient: sg,
                acc: cells[d],
                embedding_std: std,
            });
        }
        println!("{label:<14} {:>18.2} {:>12.2}", cells[0], cells[1]);
    }

    println!("\nExpected shape (paper): removing the stop-gradient drops accuracy on");
    println!("both datasets (collapse-prone objective). The JSON records include the");
    println!("embedding std as a collapse diagnostic.");
    let path = sink.write();
    println!("results written to {}", path.display());
}
