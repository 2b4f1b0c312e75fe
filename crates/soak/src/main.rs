//! `traj-soak` — run a bounded, deterministic, fault-injected soak of
//! the serving engine and self-validate its JSONL telemetry.
//!
//! ```text
//! OBS_JSONL=soak.jsonl traj-soak --ticks 60 --seed 77 --workdir /tmp/traj-soak
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use traj_soak::{SoakConfig, SoakRunner};

fn usage() -> ! {
    eprintln!(
        "usage: traj-soak [--ticks N] [--seed N] [--workdir DIR] [--no-faults]\n\
         \n\
         Runs the deterministic demo soak (porto→chengdu drift, write\n\
         faults, degrade drills). Set OBS_JSONL=<path> to export the\n\
         telemetry stream; the run validates it before exiting.\n\
         \n\
         Ops surface:\n\
           --ops-port N   bind the ops HTTP server (/metrics, /healthz,\n\
                          /traces) to 127.0.0.1:N (default 0 = ephemeral)\n\
           --no-ops       run without the ops server"
    );
    std::process::exit(2);
}

fn parse_args(cfg: &mut SoakConfig) {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ticks" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.ticks = v,
                None => usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.seed = v,
                None => usage(),
            },
            "--workdir" => match args.next() {
                Some(v) => cfg.workdir = PathBuf::from(v),
                None => usage(),
            },
            "--no-faults" => cfg.faults.clear(),
            "--ops-port" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.ops_port = v,
                None => usage(),
            },
            "--no-ops" => cfg.ops_server = false,
            _ => usage(),
        }
    }
}

fn main() -> ExitCode {
    if let Err(e) = traj_obs::init_from_env() {
        eprintln!("traj-soak: cannot open OBS_JSONL sink: {e}");
        return ExitCode::FAILURE;
    }
    let workdir = std::env::temp_dir().join(format!("traj-soak-{}", std::process::id()));
    let mut cfg = SoakConfig::demo(workdir);
    parse_args(&mut cfg);

    let mut runner = match SoakRunner::new(cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("traj-soak: bootstrap failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match runner.run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("traj-soak: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    traj_obs::flush();
    print!("{}", report.summary());
    print!("{}", runner.engine().telemetry().summary());

    let mut failed = false;
    if !report.final_health.is_healthy() {
        eprintln!("traj-soak: FAIL — run ended degraded");
        failed = true;
    }
    if report.final_stats.degraded {
        eprintln!("traj-soak: FAIL — engine ended with degraded strategies");
        failed = true;
    }

    // Self-validate the flight-recorder dump the run left behind:
    // unique query ids, monotone step clocks, per-shard publish seqs
    // that match the published generations.
    let flight_path = runner.workdir().join("flight.jsonl");
    if flight_path.exists() {
        match std::fs::read_to_string(&flight_path) {
            Ok(text) => match traj_obs::flight::validate_flight_dump(&text) {
                Ok(n) => println!(
                    "flight: {n} traces validated ({})",
                    flight_path.to_string_lossy()
                ),
                Err(e) => {
                    eprintln!("traj-soak: FAIL — bad flight dump: {e}");
                    failed = true;
                }
            },
            Err(e) => {
                eprintln!("traj-soak: FAIL — cannot read flight dump: {e}");
                failed = true;
            }
        }
    }

    // Self-validate the JSONL artifact when one was exported.
    if let Some(path) = std::env::var_os("OBS_JSONL") {
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let mut n = 0usize;
                for (i, line) in text.lines().enumerate() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    if let Err(e) = traj_obs::validate_record(line) {
                        eprintln!("traj-soak: FAIL — bad JSONL record on line {}: {e}", i + 1);
                        failed = true;
                        break;
                    }
                    n += 1;
                }
                println!("jsonl: {n} records validated ({})", path.to_string_lossy());
            }
            Err(e) => {
                eprintln!("traj-soak: FAIL — cannot re-read OBS_JSONL: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
