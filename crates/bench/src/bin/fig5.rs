//! Fig. 5: per-query search time of the three search strategies
//! (Euclidean-BF, Hamming-BF, Hamming-Hybrid) as the database grows from
//! 20K to 100K rows, top-50 queries — timed through the serving engine
//! over the trained model's own codes (see `traj_bench::SearchBed`).
//!
//! ```text
//! cargo run -p traj-bench --release --bin fig5 -- --scale small
//! ```

use traj_bench::{CommonArgs, SearchBed};
use traj_engine::{EuclideanBackend, Strategy};

fn main() {
    let args = CommonArgs::parse(&std::env::args().skip(1).collect::<Vec<_>>());
    let k = 50;
    let mut bed = SearchBed::train(&args.scale, args.seed);
    let mut table = SearchBed::table(&["DB size", "Strategy"]);
    for paper_rows in [20_000, 40_000, 60_000, 80_000, 100_000] {
        let engine = bed.engine(paper_rows, EuclideanBackend::BruteForce);
        for strategy in [Strategy::EuclideanBf, Strategy::HammingBf, Strategy::Hybrid] {
            let mut row = vec![engine.len().to_string(), strategy.name().to_string()];
            row.extend(bed.measure(&engine, strategy, k).cells());
            eprintln!("[fig5] {}", row.join(" | "));
            table.add_row(row);
        }
    }
    println!("{}", bed.header(&format!("Fig. 5 — search time vs database size (k = {k})")));
    println!("{}", table.render());
}
