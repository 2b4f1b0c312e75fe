//! Fig. 8: HR@10 in Euclidean and Hamming space as the ranking margin
//! `alpha` varies over [0, 25].
//!
//! ```text
//! cargo run -p traj-bench --release --bin fig8 -- --city porto --measure dtw
//! ```

use traj_bench::{build_dataset, eval_traj2hash, test_ground_truth, CommonArgs};
use traj_eval::{fmt4, TextTable};
use traj2hash::{train, ModelContext, Traj2Hash, TrainData};

fn main() {
    let args = CommonArgs::parse(&std::env::args().skip(1).collect::<Vec<_>>());
    let scale = &args.scale;
    let city = args.cities()[0];
    println!(
        "# Fig. 8 reproduction — effect of the margin alpha ({}, scale={})\n",
        city.name(),
        scale.name
    );
    let dataset = build_dataset(city, scale, args.seed);
    let ctx = ModelContext::prepare(&dataset.training_visible(), &scale.model, args.seed);
    for measure in args.measures() {
        let truth = test_ground_truth(&dataset.query, &dataset.database, measure);
        let data = TrainData::prepare(&dataset, measure, &scale.train).expect("failed to prepare training supervision");
        let mut table =
            TextTable::new(vec!["Measure", "alpha", "HR@10 (Euclidean)", "HR@10 (Hamming)"]);
        for alpha in [0.0f32, 1.0, 5.0, 10.0, 25.0] {
            let mut tcfg = scale.train.clone();
            tcfg.alpha = alpha;
            let mut model = Traj2Hash::new(scale.model.clone(), &ctx, args.seed);
            train(&mut model, &data, &tcfg).expect("training failed");
            let (me, mh) = eval_traj2hash(&model, &dataset, &truth);
            table.add_row(vec![
                measure.name().to_string(),
                format!("{alpha}"),
                fmt4(me.hr10),
                fmt4(mh.hr10),
            ]);
            eprintln!(
                "[fig8] {} alpha={alpha}: euclid HR@10 {:.4} | hamming HR@10 {:.4}",
                measure.name(),
                me.hr10,
                mh.hr10
            );
        }
        println!("{}", table.render());
    }
}
