//! Fig. 6: per-query search time of the three search strategies as the
//! requested `k` varies from 10 to 50 over a fixed 100K-row database —
//! timed through the serving engine over the trained model's own codes
//! (see `traj_bench::SearchBed`).
//!
//! ```text
//! cargo run -p traj-bench --release --bin fig6 -- --scale small
//! ```

use traj_bench::{CommonArgs, SearchBed};
use traj_engine::{EuclideanBackend, Strategy};

fn main() {
    let args = CommonArgs::parse(&std::env::args().skip(1).collect::<Vec<_>>());
    let mut bed = SearchBed::train(&args.scale, args.seed);
    let engine = bed.engine(100_000, EuclideanBackend::BruteForce);
    let mut table = SearchBed::table(&["k", "Strategy"]);
    for k in [10, 20, 30, 40, 50] {
        for strategy in [Strategy::EuclideanBf, Strategy::HammingBf, Strategy::Hybrid] {
            let mut row = vec![k.to_string(), strategy.name().to_string()];
            row.extend(bed.measure(&engine, strategy, k).cells());
            eprintln!("[fig6] {}", row.join(" | "));
            table.add_row(row);
        }
    }
    println!("{}", bed.header(&format!("Fig. 6 — search time vs k ({} rows)", engine.len())));
    println!("{}", table.render());
}
