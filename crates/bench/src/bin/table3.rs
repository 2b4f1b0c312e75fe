//! Table III: cumulative ablation of Traj2Hash (full / -Grids / -RevAug /
//! -Triplets) evaluated in both Euclidean and Hamming space under the
//! Fréchet distance and DTW.
//!
//! ```text
//! cargo run -p traj-bench --release --bin table3 -- --scale small
//! ```

use traj_bench::{build_dataset, eval_traj2hash, test_ground_truth, CommonArgs};
use traj_dist::Measure;
use traj_eval::{fmt4, TextTable};
use traj2hash::{train, ModelContext, Traj2Hash, TrainData};

fn main() {
    let args = CommonArgs::parse(&std::env::args().skip(1).collect::<Vec<_>>());
    let scale = &args.scale;
    println!(
        "# Table III reproduction — ablation study (scale={}, seed={})\n",
        scale.name, args.seed
    );
    // The paper's Table III covers Frechet and DTW.
    let measures: Vec<Measure> = args
        .measures()
        .into_iter()
        .filter(|m| matches!(m, Measure::Frechet | Measure::Dtw))
        .collect();
    for city in args.cities() {
        let dataset = build_dataset(city, scale, args.seed);
        let ctx = ModelContext::prepare(&dataset.training_visible(), &scale.model, args.seed);
        let mut table = TextTable::new(vec![
            "Dataset", "Measure", "Space", "Metric", "Traj2Hash", "-Grids", "-RevAug",
            "-Triplets",
        ]);
        for &measure in &measures {
            let truth = test_ground_truth(&dataset.query, &dataset.database, measure);
            let data = TrainData::prepare(&dataset, measure, &scale.train).expect("failed to prepare training supervision");

            // (model config, train config) per cumulative ablation
            let variants = [
                ("Traj2Hash", scale.model.clone(), scale.train.clone()),
                ("-Grids", scale.model.clone().without_grids(), scale.train.clone()),
                ("-RevAug", scale.model.clone().without_rev_aug(), scale.train.clone()),
                (
                    "-Triplets",
                    scale.model.clone().without_rev_aug(),
                    scale.train.clone().without_triplets(),
                ),
            ];
            let mut euclid = Vec::new();
            let mut hamming = Vec::new();
            for (name, mcfg, tcfg) in &variants {
                let mut model = Traj2Hash::new(mcfg.clone(), &ctx, args.seed);
                let report = train(&mut model, &data, tcfg).expect("training failed");
                let (me, mh) = eval_traj2hash(&model, &dataset, &truth);
                euclid.push(me);
                hamming.push(mh);
                eprintln!(
                    "[table3] {} {} {}: euclid {} | hamming {} ({:.1}s)",
                    city.name(),
                    measure.name(),
                    name,
                    euclid.last().unwrap(),
                    hamming.last().unwrap(),
                    report.seconds
                );
            }
            for (space, ms) in [("Euclidean", &euclid), ("Hamming", &hamming)] {
                for (metric, get) in [
                    ("HR@10", 0usize),
                    ("HR@50", 1),
                    ("R10@50", 2),
                ] {
                    let pick = |m: &traj_eval::Metrics| match get {
                        0 => m.hr10,
                        1 => m.hr50,
                        _ => m.r10_50,
                    };
                    table.add_row(vec![
                        city.name().to_string(),
                        measure.name().to_string(),
                        space.to_string(),
                        metric.to_string(),
                        fmt4(pick(&ms[0])),
                        fmt4(pick(&ms[1])),
                        fmt4(pick(&ms[2])),
                        fmt4(pick(&ms[3])),
                    ]);
                }
            }
        }
        println!("{}", table.render());
    }
}
