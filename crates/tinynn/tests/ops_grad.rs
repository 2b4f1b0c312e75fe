//! Numerical gradient checks for individual ops that the in-crate
//! gradcheck tests don't exercise directly.

use tinynn::gradcheck::check_gradients;
use tinynn::{init, Param, ParamSet, Tape, Tensor};
use rand::{rngs::StdRng, SeedableRng};

fn check(build: impl Fn(&Tape, &tinynn::Var) -> tinynn::Var, init_val: Tensor) {
    let mut params = ParamSet::new();
    let p = params.register(Param::new(init_val));
    let bad = check_gradients(
        &params,
        || {
            let tape = Tape::new();
            let v = tape.param(&p);
            let loss = build(&tape, &v);
            loss.backward();
            loss.item()
        },
        1e-3,
        3e-2,
    );
    assert!(bad.is_empty(), "gradient mismatches: {bad:?}");
}

#[test]
fn grad_div() {
    let mut rng = StdRng::seed_from_u64(1);
    let denom = init::uniform(&mut rng, 2, 3, 1.0, 3.0);
    check(
        move |tape, v| {
            let d = tape.constant(denom.clone());
            v.div(&d).sum_all()
        },
        init::uniform(&mut StdRng::seed_from_u64(2), 2, 3, -2.0, 2.0),
    );
}

#[test]
fn grad_exp_ln_composite() {
    check(
        |_tape, v| v.exp().add_scalar(1.0).ln().sum_all(),
        init::uniform(&mut StdRng::seed_from_u64(3), 1, 4, -1.0, 1.0),
    );
}

#[test]
fn grad_sigmoid() {
    check(
        |_tape, v| v.sigmoid().square().sum_all(),
        init::uniform(&mut StdRng::seed_from_u64(4), 2, 2, -2.0, 2.0),
    );
}

#[test]
fn grad_sqrt_of_positive() {
    check(
        |_tape, v| v.square().add_scalar(0.5).sqrt().sum_all(),
        init::uniform(&mut StdRng::seed_from_u64(5), 1, 5, -2.0, 2.0),
    );
}

#[test]
fn grad_add_row_broadcast() {
    let mut rng = StdRng::seed_from_u64(6);
    let x = init::uniform(&mut rng, 4, 3, -1.0, 1.0);
    check(
        move |tape, v| {
            let xs = tape.constant(x.clone());
            xs.add_row(v).square().mean_all()
        },
        init::uniform(&mut StdRng::seed_from_u64(7), 1, 3, -1.0, 1.0),
    );
}

#[test]
fn grad_mean_rows_and_select() {
    check(
        |_tape, v| {
            let pooled = v.mean_rows();
            let first = v.select_row(0);
            pooled.add(&first).square().sum_all()
        },
        init::uniform(&mut StdRng::seed_from_u64(8), 3, 4, -1.0, 1.0),
    );
}

#[test]
fn grad_concat_rows_path() {
    check(
        |_tape, v| {
            let doubled = v.concat_rows(v);
            doubled.tanh().mean_all()
        },
        init::uniform(&mut StdRng::seed_from_u64(9), 2, 3, -1.0, 1.0),
    );
}

#[test]
fn grad_dot_and_distance() {
    let mut rng = StdRng::seed_from_u64(10);
    let other = init::uniform(&mut rng, 1, 4, -1.0, 1.0);
    let o2 = other.clone();
    check(
        move |tape, v| {
            let w = tape.constant(o2.clone());
            v.dot(&w).square().add(&v.distance(&w).square()).sum_all()
        },
        init::uniform(&mut StdRng::seed_from_u64(11), 1, 4, 1.0, 2.0),
    );
    drop(other);
}
