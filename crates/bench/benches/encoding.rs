//! Micro-benchmarks of encoder forward passes: the O(d) amortized
//! similarity computation the neural methods buy with one O(encoder)
//! pass per trajectory, versus the exact O(n^2) kernel per pair.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tinynn::Tape;
use traj_baselines::{GruMetricEncoder, TrajEncoder};
use traj_data::{CityGenerator, CityParams, NormStats};
use traj2hash::{ModelConfig, ModelContext, Traj2Hash};

fn bench_encoding(c: &mut Criterion) {
    let trajs = CityGenerator::new(CityParams::porto_like(), 5).generate(32);
    let norm = NormStats::fit(&trajs);
    let ctx = ModelContext::prepare(&trajs, &ModelConfig::small(), 5);
    let model = Traj2Hash::new(ModelConfig::small(), &ctx, 5);
    let gru = GruMetricEncoder::plain(32, norm, 5);
    let t = &trajs[0];

    // the two forwards over the same weights: forward-only inference,
    // then the training forward on a fresh tape (what `embed` used to be)
    c.bench_function("traj2hash_embed", |b| b.iter(|| model.embed(black_box(t))));
    c.bench_function("traj2hash_embed_var_tape", |b| {
        b.iter(|| model.embed_var(&Tape::new(), black_box(t)).value())
    });
    c.bench_function("traj2hash_hash_signs", |b| b.iter(|| model.hash_signs(black_box(t))));
    c.bench_function("gru_embed", |b| b.iter(|| gru.embed(black_box(t))));

    // the O(d) similarity the embeddings enable
    let e1 = model.embed(&trajs[0]);
    let e2 = model.embed(&trajs[1]);
    c.bench_function("embedding_euclidean_distance", |b| {
        b.iter(|| black_box(&e1).distance(black_box(&e2)))
    });
    // versus one exact DTW on the same pair
    c.bench_function("exact_dtw_same_pair", |b| {
        b.iter(|| traj_dist::dtw(black_box(&trajs[0]), black_box(&trajs[1])))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_encoding
}
criterion_main!(benches);
