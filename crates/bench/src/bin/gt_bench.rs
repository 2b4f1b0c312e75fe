//! Ground-truth scale benchmark CLI: runs the bucket-pruned exact
//! top-k driver against the dense oracle on large synthetic corpora
//! and prints pruning rate, recall (must be 1.0 — exactness), and
//! wall-clock speedup. Under `--smoke` or `--full` it also exits
//! non-zero when the pruning rate is below `PRUNING_FLOOR`.
//!
//! ```text
//! gt_bench --smoke                 # 10K database, seconds (check.sh gate)
//! gt_bench --full                  # 100K database (DESIGN.md §14's scale row)
//! gt_bench --db 50000 --queries 100 --measure frechet
//! ```

use traj_bench::{run_gt_bench, GtBenchConfig};
use traj_dist::Measure;

/// Least pruning rate the `--smoke` / `--full` gates accept. The rate is
/// a count, not a timing, so it repeats exactly: `--smoke` prunes
/// 384 278 of 400 000 pairs (96.1 %).
const PRUNING_FLOOR: f64 = 0.90;

fn usage(msg: &str) -> ! {
    eprintln!(
        "{msg}\n\nusage: gt_bench [--smoke|--full] [--db N] [--queries N] \
         [--dense-queries N] [--k N] [--cell-m M] \
         [--measure dtw|frechet|hausdorff|cdtw(N)|erp(x,y)|edr(eps)] [--seed N]"
    );
    std::process::exit(2)
}

/// The workload, and whether it runs as a gate (`--smoke` / `--full`
/// given) and so must clear [`PRUNING_FLOOR`].
fn parse_args(args: &[String]) -> (GtBenchConfig, bool) {
    let mut cfg = GtBenchConfig::smoke();
    let mut gated = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => (cfg, gated) = (GtBenchConfig::smoke(), true),
            "--full" => (cfg, gated) = (GtBenchConfig::full(), true),
            "--db" => {
                i += 1;
                cfg.database = num(args.get(i), "--db");
            }
            "--queries" => {
                i += 1;
                cfg.queries = num(args.get(i), "--queries");
            }
            "--dense-queries" => {
                i += 1;
                cfg.dense_queries = num(args.get(i), "--dense-queries");
            }
            "--k" => {
                i += 1;
                cfg.k = num(args.get(i), "--k");
            }
            "--cell-m" => {
                i += 1;
                cfg.cell_m = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--cell-m needs a number"));
            }
            "--measure" => {
                i += 1;
                cfg.measure = args
                    .get(i)
                    .and_then(|s| Measure::from_name(s))
                    .unwrap_or_else(|| usage("unknown measure"));
            }
            "--seed" => {
                i += 1;
                cfg.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--help" | "-h" => usage("gt_bench options"),
            other => usage(&format!("unknown argument: {other}")),
        }
        i += 1;
    }
    (cfg, gated)
}

fn num(arg: Option<&String>, flag: &str) -> usize {
    arg.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs an integer")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, gated) = parse_args(&args);
    println!(
        "gt_bench: db={} queries={} dense_queries={} k={} cell_m={} measure={} seed={}",
        cfg.database, cfg.queries, cfg.dense_queries, cfg.k, cfg.cell_m, cfg.measure, cfg.seed
    );
    let report = run_gt_bench(&cfg);
    println!("generated corpus in {:.2}s", report.generate_secs);
    println!("{}", report.summary());
    println!(
        "pairs: total={} bucket_pruned={} lb_pruned={} exact={}",
        report.stats.pairs_total,
        report.stats.pairs_pruned_bucket,
        report.stats.pairs_pruned_lb,
        report.stats.pairs_exact
    );
    if gated && report.pruning_rate < PRUNING_FLOOR {
        eprintln!(
            "pruning-rate gate failed: {:.1}% < {:.0}%",
            report.pruning_rate * 100.0,
            PRUNING_FLOOR * 100.0
        );
        std::process::exit(1);
    }
}
