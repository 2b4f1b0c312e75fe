//! The forward-only evaluator behind `Traj2Hash::embed` must return the
//! value of the tape forward `embed_var` **bit for bit** — for every
//! read-out, with and without the grid channel and reverse
//! augmentation, at one and two blocks, at the lengths where the
//! kernels change shape, and after every way the weights can change
//! under it.

use proptest::prelude::*;
use tinynn::{Adam, Tape};
use traj2hash::{ModelConfig, ModelContext, Readout, Traj2Hash};
use traj_data::{CityGenerator, CityParams, Trajectory};

/// Lane width (8) and the `matmul_nt` order switch at `4 * d_head`:
/// 32 for `tiny()` (d_head 8), 64 for `small()` (d_head 16). Ordered
/// long, short, long so scratch reuse and the grown positional table
/// are exercised on one model.
const EDGE_LENGTHS: [usize; 11] = [65, 1, 64, 2, 63, 7, 33, 8, 32, 9, 31];

fn context(cfg: &ModelConfig) -> ModelContext {
    let trajs = CityGenerator::new(CityParams::test_city(), 11).generate(12);
    ModelContext::prepare(&trajs, cfg, 11)
}

/// Every read-out x grids x rev-aug x blocks in {1, 2} over `base`.
fn variants(base: &ModelConfig) -> Vec<ModelConfig> {
    let mut out = Vec::new();
    for readout in [Readout::LowerBound, Readout::Mean, Readout::Cls] {
        for use_grids in [true, false] {
            for use_rev_aug in [true, false] {
                for blocks in [1, 2] {
                    out.push(ModelConfig { readout, use_grids, use_rev_aug, blocks, ..base.clone() });
                }
            }
        }
    }
    out
}

fn assert_bit_identical(model: &Traj2Hash, t: &Trajectory, when: &str) {
    let fast = model.embed(t);
    let slow = model.embed_var(&Tape::new(), t).value();
    assert_eq!(fast.shape(), slow.shape(), "{when}: shape, {:?}", model.config());
    for (i, (a, b)) in fast.data().iter().zip(slow.data()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{when}: column {i} of a {}-point trajectory differs ({a} vs {b}), {:?}",
            t.len(),
            model.config()
        );
    }
}

/// Checks `ts` on a fresh model, then again after each way the weights
/// can change under the evaluator: an optimizer step, `load_values`
/// from another model, `load_bytes`.
fn check_through_weight_changes(cfg: &ModelConfig, ctx: &ModelContext, ts: &[Trajectory]) {
    let model = Traj2Hash::new(cfg.clone(), ctx, 1);
    let check = |when: &str| ts.iter().for_each(|t| assert_bit_identical(&model, t, when));
    check("fresh");

    let tape = Tape::new();
    model.params.zero_grad();
    model.embed_var(&tape, &ts[0]).square().mean_all().backward();
    let before = model.embed(&ts[0]);
    Adam::new(0.05).step(&model.params);
    assert!(model.embed(&ts[0]).max_abs_diff(&before) > 0.0, "the step must move the weights");
    check("after an optimizer step");

    model.params.load_values(&Traj2Hash::new(cfg.clone(), ctx, 2).params.clone_values());
    check("after load_values");

    model.load_bytes(&Traj2Hash::new(cfg.clone(), ctx, 3).save_bytes()).expect("same layout");
    check("after load_bytes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn embed_is_bit_identical_to_the_tape_forward(
        xy in proptest::collection::vec((0.0f64..2000.0, 0.0f64..2000.0), 200),
        random_lengths in proptest::collection::vec(1usize..201, 3),
    ) {
        let lengths = EDGE_LENGTHS.iter().chain(&random_lengths);
        let ts: Vec<Trajectory> = lengths.map(|&n| Trajectory::from_xy(&xy[..n])).collect();
        let tiny = ModelConfig::tiny();
        let ctx = context(&tiny);
        for cfg in variants(&tiny) {
            check_through_weight_changes(&cfg, &ctx, &ts);
        }
        // d_head 16: the order switch sits at 64 keys.
        let small = ModelConfig::small();
        check_through_weight_changes(&small, &context(&small), &ts);
    }
}
