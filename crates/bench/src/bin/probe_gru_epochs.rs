//! Diagnostic: does the GRU baseline family underfit at the harness's
//! default epoch budget? The paper trains 100 epochs; our small scale
//! trains 10. This probe sweeps the budget for NT-No-SAM on one
//! city/measure so EXPERIMENTS.md can quantify the gap.
//!
//! ```text
//! cargo run -p traj-bench --release --bin probe_gru_epochs -- --city porto --measure frechet
//! ```

use traj_baselines::{train_wmse, GruMetricEncoder, TrajEncoder, WmseConfig};
use traj_bench::{build_dataset, eval_euclidean, test_ground_truth, CommonArgs};
use traj_eval::{fmt4, TextTable};
use traj2hash::{ModelContext, TrainData};

fn main() {
    let args = CommonArgs::parse(&std::env::args().skip(1).collect::<Vec<_>>());
    let scale = &args.scale;
    let city = args.cities()[0];
    let measure = args.measures()[0];
    println!(
        "# GRU epoch-budget probe ({}, {}, scale={})\n",
        city.name(),
        measure.name(),
        scale.name
    );
    let dataset = build_dataset(city, scale, args.seed);
    let ctx = ModelContext::prepare(&dataset.training_visible(), &scale.model, args.seed);
    let data = TrainData::prepare(&dataset, measure, &scale.train).expect("failed to prepare training supervision");
    let truth = test_ground_truth(&dataset.query, &dataset.database, measure);

    let mut table = TextTable::new(vec!["Epochs", "HR@10", "HR@50", "R10@50", "final loss"]);
    for epochs in [scale.baseline_epochs, scale.baseline_epochs * 3, scale.baseline_epochs * 6] {
        let enc = GruMetricEncoder::plain(scale.model.dim, ctx.norm, args.seed);
        let losses = train_wmse(
            &enc,
            &dataset.seeds,
            &data.sim,
            &WmseConfig { epochs, lr: scale.train.lr, seed: args.seed, ..WmseConfig::default() },
        );
        let m = eval_euclidean(
            &enc.embed_all(&dataset.database),
            &enc.embed_all(&dataset.query),
            &truth,
        );
        table.add_row(vec![
            epochs.to_string(),
            fmt4(m.hr10),
            fmt4(m.hr50),
            fmt4(m.r10_50),
            format!("{:.5}", losses.last().unwrap()),
        ]);
        eprintln!("[probe_gru] epochs={epochs}: {m}");
    }
    println!("{}", table.render());
}
