//! Fig. 7: the effect of the grid representation — the decomposed
//! representation with NCE pre-training vs a Node2vec full table vs no
//! grid channel at all (-Grids) — plus the pre-training time gap the
//! paper reports (~80 s vs >2 h at 1100x1100; proportionally reproduced
//! at our grid size).
//!
//! ```text
//! cargo run -p traj-bench --release --bin fig7 -- --city porto --measure frechet
//! ```

use std::sync::Arc;
use traj_bench::{build_dataset, eval_traj2hash, test_ground_truth, CommonArgs};
use traj_eval::{fmt4, TextTable};
use traj_grid::{GridEmbedding, Node2vecConfig, Node2vecEmbedding};
use traj2hash::{train, ModelContext, Traj2Hash, TrainData};

fn main() {
    let args = CommonArgs::parse(&std::env::args().skip(1).collect::<Vec<_>>());
    let scale = &args.scale;
    // The paper reports Fig. 7 on Porto; default to that but honour filters.
    let city = args.cities()[0];
    let measure = args.measures()[0];
    println!(
        "# Fig. 7 reproduction — grid representation comparison ({}, {}, scale={})\n",
        city.name(),
        measure.name(),
        scale.name
    );
    let dataset = build_dataset(city, scale, args.seed);
    let ctx = ModelContext::prepare(&dataset.training_visible(), &scale.model, args.seed);
    let data = TrainData::prepare(&dataset, measure, &scale.train).expect("failed to prepare training supervision");
    let truth = test_ground_truth(&dataset.query, &dataset.database, measure);

    // Node2vec on the same fine grid; walk budget scaled to grid size.
    let n2v_cfg = Node2vecConfig {
        dim: scale.model.grid_dim,
        walk_length: 40,
        walks_per_node: 4,
        window: 5,
        seed: args.seed,
        ..Node2vecConfig::default()
    };
    let (n2v, n2v_secs) = Node2vecEmbedding::train(&ctx.fine_spec, &n2v_cfg);
    eprintln!(
        "[fig7] grid {}x{}: decomposed NCE pretrain {:.2}s ({} params) vs Node2vec {:.2}s ({} params)",
        ctx.fine_spec.nx(),
        ctx.fine_spec.ny(),
        ctx.pretrain_secs,
        ctx.grid_emb.num_parameters(),
        n2v_secs,
        GridEmbedding::num_parameters(&n2v),
    );

    let mut table = TextTable::new(vec![
        "Variant", "Space", "HR@10", "R10@50", "Pretrain (s)", "Params",
    ]);
    type Variant<'a> = (&'a str, Option<Arc<dyn GridEmbedding + Send + Sync>>, f64, usize);
    let variants: Vec<Variant> = vec![
        (
            "Decomposed+NCE",
            Some(Arc::new(ctx.grid_emb.clone())),
            ctx.pretrain_secs,
            ctx.grid_emb.num_parameters(),
        ),
        (
            "Node2vec",
            Some(Arc::new(n2v.clone())),
            n2v_secs,
            GridEmbedding::num_parameters(&n2v),
        ),
        ("-Grids", None, 0.0, 0),
    ];
    for (name, emb, secs, params) in variants {
        let mcfg = match &emb {
            Some(_) => scale.model.clone(),
            None => scale.model.clone().without_grids(),
        };
        let mut model = match emb {
            Some(e) => Traj2Hash::with_grid_embedding(mcfg, &ctx, e, args.seed),
            None => Traj2Hash::new(mcfg, &ctx, args.seed),
        };
        train(&mut model, &data, &scale.train).expect("training failed");
        let (me, mh) = eval_traj2hash(&model, &dataset, &truth);
        table.add_row(vec![
            name.to_string(),
            "Euclidean".to_string(),
            fmt4(me.hr10),
            fmt4(me.r10_50),
            format!("{secs:.2}"),
            params.to_string(),
        ]);
        table.add_row(vec![
            name.to_string(),
            "Hamming".to_string(),
            fmt4(mh.hr10),
            fmt4(mh.r10_50),
            String::new(),
            String::new(),
        ]);
        eprintln!("[fig7] {name}: euclid {me} | hamming {mh}");
    }
    println!("{}", table.render());
}
