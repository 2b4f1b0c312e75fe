//! Cross-version pin of the `tinynn::tensor` kernels under both
//! forwards. `tests/infer_parity.rs` compares two forwards that share
//! those kernels, so it cannot see a kernel that drifts; these constants
//! were recorded at commit `fb10670` (the ikj matmul and the cast-based
//! `exp_approx`), and any kernel that changes one output bit of a
//! `ModelConfig::small()` embed, or of one training epoch's forward and
//! backward, changes them. The values also pass through libm (`tanh`,
//! `sqrt`, the generator's `sin`/`cos`), so they hold for this
//! toolchain on x86-64 Linux, which is where the benchmark's `hr10`
//! repeats as well. They hold on both ISAs the workspace builds for:
//! the default x86-64-v3 build (`.cargo/config.toml`) and the baseline
//! x86-64 build of `./check.sh portable`. The kernels fix every sum's
//! order in source and rustc never fuses a multiply and an add on its
//! own, so a wider ISA changes the speed of these values, not their bits.

use traj2hash::{train, ModelConfig, ModelContext, Traj2Hash, TrainConfig, TrainData};
use traj_data::{CityGenerator, CityParams, Dataset, SplitSizes, Trajectory};
use traj_dist::Measure;

const GOLDEN_EMBED: u64 = 0x9486_feee_d25e_60c7;
const GOLDEN_EPOCH: u64 = 0x7ffa_cfc1_638e_8b03;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the `to_bits()` of every value.
fn fold_bits(hash: u64, values: &[f32]) -> u64 {
    values.iter().flat_map(|v| v.to_bits().to_le_bytes()).fold(hash, |h, byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn small_model_embeddings_are_the_bits_recorded_at_fb10670() {
    // porto_like trips have 20..=100 points: four below the 64-key
    // order switch of `matmul_nt_into`, four long ones.
    let pool = CityGenerator::new(CityParams::porto_like(), 5).generate(80);
    let cfg = ModelConfig::small();
    let model = Traj2Hash::new(cfg.clone(), &ModelContext::prepare(&pool, &cfg, 5), 6);
    let short = pool.iter().filter(|t| t.len() < 64).take(4);
    let long = pool.iter().filter(|t| t.len() >= 90).take(4);
    let picked: Vec<&Trajectory> = short.chain(long).collect();
    assert_eq!(picked.len(), 8, "the pool must hold four short and four long trips");
    let hash = picked.iter().fold(FNV_OFFSET, |h, t| fold_bits(h, model.embed(t).data()));
    assert_eq!(hash, GOLDEN_EMBED, "embed bits moved: {hash:#018x}");
}

#[test]
fn one_small_epoch_is_the_bits_recorded_at_fb10670() {
    // Two anchor batches and one 16-triplet batch, an optimizer step
    // after each: the epoch loss sees the backward kernels through the
    // weights the later batches run on, the final embed sees all three.
    // At 3 threads the calling thread and two workers share each batch
    // in uneven chunks; the bits are the single-threaded ones.
    let sizes = SplitSizes { seeds: 16, validation: 8, corpus: 120, query: 4, database: 16 };
    let dataset = Dataset::generate(CityParams::test_city(), sizes, 21);
    let cfg = ModelConfig::small();
    let ctx = ModelContext::prepare(&dataset.training_visible(), &cfg, 1);
    for num_threads in [1, 3] {
        let mut model = Traj2Hash::new(cfg.clone(), &ctx, 2);
        let tcfg = TrainConfig {
            epochs: 1,
            validate: false,
            batch_size: 8,
            triplets_per_epoch: 16,
            triplet_batch: 16,
            num_threads,
            ..TrainConfig::default()
        };
        let data = TrainData::prepare(&dataset, Measure::Frechet, &tcfg).expect("supervision");
        let report = train(&mut model, &data, &tcfg).expect("training");
        assert!(report.recoveries.is_empty(), "the pinned epoch must not roll back");
        let hash = fold_bits(FNV_OFFSET, &report.epoch_losses);
        let hash = fold_bits(hash, model.embed(&dataset.query[0]).data());
        assert_eq!(
            hash, GOLDEN_EPOCH,
            "epoch bits moved at {num_threads} threads: {hash:#018x} (loss {:?})",
            report.epoch_losses
        );
    }
}
