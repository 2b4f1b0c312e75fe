//! Fig. 9: HR@10 in Euclidean and Hamming space as the balance weight
//! `gamma` (Eq. 21) varies over [0, 12]. At `gamma = 0` the hashing
//! objectives vanish and Hamming-space search should collapse, as the
//! paper reports.
//!
//! ```text
//! cargo run -p traj-bench --release --bin fig9 -- --city porto --measure dtw
//! ```

use traj_bench::{build_dataset, eval_traj2hash, test_ground_truth, CommonArgs};
use traj_eval::{fmt4, TextTable};
use traj2hash::{train, ModelContext, Traj2Hash, TrainData};

fn main() {
    let args = CommonArgs::parse(&std::env::args().skip(1).collect::<Vec<_>>());
    let scale = &args.scale;
    let city = args.cities()[0];
    println!(
        "# Fig. 9 reproduction — effect of the balance weight gamma ({}, scale={})\n",
        city.name(),
        scale.name
    );
    let dataset = build_dataset(city, scale, args.seed);
    let ctx = ModelContext::prepare(&dataset.training_visible(), &scale.model, args.seed);
    for measure in args.measures() {
        let truth = test_ground_truth(&dataset.query, &dataset.database, measure);
        let data = TrainData::prepare(&dataset, measure, &scale.train).expect("failed to prepare training supervision");
        let mut table =
            TextTable::new(vec!["Measure", "gamma", "HR@10 (Euclidean)", "HR@10 (Hamming)"]);
        for gamma in [0.0f32, 1.0, 3.0, 6.0, 12.0] {
            let mut tcfg = scale.train.clone();
            tcfg.gamma = gamma;
            if gamma == 0.0 {
                // Eq. 21 with gamma = 0 removes L_r and L_t entirely.
                tcfg.use_triplets = false;
            }
            let mut model = Traj2Hash::new(scale.model.clone(), &ctx, args.seed);
            train(&mut model, &data, &tcfg).expect("training failed");
            let (me, mh) = eval_traj2hash(&model, &dataset, &truth);
            table.add_row(vec![
                measure.name().to_string(),
                format!("{gamma}"),
                fmt4(me.hr10),
                fmt4(mh.hr10),
            ]);
            eprintln!(
                "[fig9] {} gamma={gamma}: euclid HR@10 {:.4} | hamming HR@10 {:.4}",
                measure.name(),
                me.hr10,
                mh.hr10
            );
        }
        println!("{}", table.render());
    }
}
