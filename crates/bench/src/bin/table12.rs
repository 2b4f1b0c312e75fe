//! Tables I and II in one pass: trains each method once per
//! (city, measure) and evaluates it in both Euclidean space (Table I)
//! and Hamming space (Table II).
//!
//! ```text
//! cargo run -p traj-bench --release --bin table12 -- --scale small
//! ```

use traj_baselines::{Fresh, FreshConfig, HashHead, HashHeadConfig};
use traj_bench::{
    build_dataset, eval_euclidean, eval_hamming, eval_traj2hash, test_ground_truth, train_dense,
    train_traj2hash, CommonArgs, DenseMethod,
};
use traj_eval::{fmt4, Metrics, TextTable};
use traj2hash::{ModelContext, TrainData};

fn main() {
    let args = CommonArgs::parse(&std::env::args().skip(1).collect::<Vec<_>>());
    let scale = &args.scale;
    println!(
        "# Tables I & II reproduction (scale={}, seed={})\n",
        scale.name, args.seed
    );
    let bits = scale.model.dim;
    let headers = vec!["Dataset", "Method", "Measure", "HR@10", "HR@50", "R10@50"];
    let mut euclid_table = TextTable::new(headers.clone());
    let mut hamming_table = TextTable::new(headers);
    let push = |table: &mut TextTable, city: &str, method: &str, measure: &str, m: &Metrics| {
        table.add_row(vec![
            city.to_string(),
            method.to_string(),
            measure.to_string(),
            fmt4(m.hr10),
            fmt4(m.hr50),
            fmt4(m.r10_50),
        ]);
    };

    for city in args.cities() {
        let dataset = build_dataset(city, scale, args.seed);
        let ctx = ModelContext::prepare(&dataset.training_visible(), &scale.model, args.seed);
        for measure in args.measures() {
            let truth = test_ground_truth(&dataset.query, &dataset.database, measure);
            let data = TrainData::prepare(&dataset, measure, &scale.train).expect("failed to prepare training supervision");
            let head_cfg = HashHeadConfig {
                bits,
                alpha: scale.train.alpha,
                epochs: scale.baseline_epochs.max(10),
                seed: args.seed,
                ..HashHeadConfig::default()
            };
            for method in DenseMethod::all() {
                let enc = train_dense(method, &dataset, &ctx, &data, scale, args.seed);
                let db_emb = enc.embed_all(&dataset.database);
                let q_emb = enc.embed_all(&dataset.query);
                let me = eval_euclidean(&db_emb, &q_emb, &truth);
                push(&mut euclid_table, city.name(), method.name(), measure.name(), &me);

                let seed_embs = enc.embed_all(&dataset.seeds);
                let (head, _) = HashHead::train(&seed_embs, &data.sim, &head_cfg);
                let mh = eval_hamming(&head.hash_all(&db_emb), &head.hash_all(&q_emb), &truth);
                push(&mut hamming_table, city.name(), method.name(), measure.name(), &mh);
                eprintln!(
                    "[table12] {} {} {}: euclid {me} | hamming {mh}",
                    city.name(),
                    method.name(),
                    measure.name()
                );
            }
            // Fresh appears only in Table II.
            // Resolution tuned per dataset like the paper tuned its 1 km
            // for real taxi data; see `fresh_eval` for the sweep. The
            // synthetic trips need coarser cells for partial collisions,
            // consistent with the coarse-triplet-cell scaling (DESIGN.md).
            let fresh = Fresh::new(FreshConfig {
                resolution: 4000.0,
                bits_per_rep: bits / 4,
                seed: args.seed,
                ..FreshConfig::default()
            });
            let mf = eval_hamming(
                &fresh.hash_all(&dataset.database),
                &fresh.hash_all(&dataset.query),
                &truth,
            );
            push(&mut hamming_table, city.name(), "Fresh", measure.name(), &mf);
            eprintln!("[table12] {} Fresh {}: hamming {mf}", city.name(), measure.name());

            let (model, _) = train_traj2hash(&dataset, &ctx, &data, scale, args.seed);
            let (me, mh) = eval_traj2hash(&model, &dataset, &truth);
            push(&mut euclid_table, city.name(), "Traj2Hash", measure.name(), &me);
            push(&mut hamming_table, city.name(), "Traj2Hash", measure.name(), &mh);
            eprintln!(
                "[table12] {} Traj2Hash {}: euclid {me} | hamming {mh}",
                city.name(),
                measure.name()
            );
        }
    }
    println!("## Table I — Euclidean space\n\n{}", euclid_table.render());
    println!("## Table II — Hamming space\n\n{}", hamming_table.render());
}
