//! Extension experiment (beyond the paper): the paper's three strategies
//! beside the structures this library adds — the radius-2 table alone,
//! multi-index hashing for exact Hamming top-k, and a VP-tree for exact
//! Euclidean top-k — at 2K / 20K / 100K rows, top-10 queries. Every row
//! is the serving engine answering over the trained model's own codes
//! (see `traj_bench::SearchBed`); the VP-tree rows come from a second
//! engine built with `EuclideanBackend::VpTree`.
//!
//! ```text
//! cargo run -p traj-bench --release --bin ext_indexes -- --scale small
//! ```

use traj_bench::{CommonArgs, SearchBed};
use traj_engine::{EuclideanBackend, Strategy};

fn main() {
    let args = CommonArgs::parse(&std::env::args().skip(1).collect::<Vec<_>>());
    let k = 10;
    let mut bed = SearchBed::train(&args.scale, args.seed);
    let mut table = SearchBed::table(&["DB size", "Strategy"]);
    for paper_rows in [2_000, 20_000, 100_000] {
        let legs = [
            (EuclideanBackend::BruteForce, &Strategy::ALL[..]),
            (EuclideanBackend::VpTree, &[Strategy::EuclideanBf][..]),
        ];
        for (backend, strategies) in legs {
            let engine = bed.engine(paper_rows, backend);
            for &strategy in strategies {
                let name = match backend {
                    EuclideanBackend::BruteForce => strategy.name(),
                    EuclideanBackend::VpTree => "Euclidean-VP-tree",
                };
                let mut row = vec![engine.len().to_string(), name.to_string()];
                row.extend(bed.measure(&engine, strategy, k).cells());
                eprintln!("[ext_indexes] {}", row.join(" | "));
                table.add_row(row);
            }
        }
    }
    println!(
        "{}",
        bed.header(&format!("Extension — every engine strategy and the VP-tree backend (k = {k})"))
    );
    println!("{}", table.render());
}
