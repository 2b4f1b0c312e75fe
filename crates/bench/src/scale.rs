//! Experiment scales and command-line argument handling.

use traj_data::{CityParams, Dataset, SplitSizes};
use traj_dist::Measure;
use traj2hash::{ModelConfig, TrainConfig};

/// The two evaluation cities (synthetic stand-ins for the paper's
/// datasets; see DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum City {
    /// Porto-like synthetic city.
    Porto,
    /// ChengDu-like synthetic city.
    Chengdu,
}

impl City {
    /// City generator parameters.
    pub fn params(&self) -> CityParams {
        match self {
            City::Porto => CityParams::porto_like(),
            City::Chengdu => CityParams::chengdu_like(),
        }
    }

    /// Name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            City::Porto => "Porto",
            City::Chengdu => "ChengDu",
        }
    }

    /// Both cities.
    pub fn both() -> [City; 2] {
        [City::Porto, City::Chengdu]
    }
}

/// A named experiment scale bundling dataset sizes and training budgets.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Scale name ("tiny", "small", "medium").
    pub name: &'static str,
    /// Dataset split sizes.
    pub sizes: SplitSizes,
    /// Model configuration.
    pub model: ModelConfig,
    /// Traj2Hash training configuration.
    pub train: TrainConfig,
    /// Epoch budget for baseline training loops.
    pub baseline_epochs: usize,
}

impl Scale {
    /// Fast smoke-test scale (used by integration tests).
    pub fn tiny() -> Scale {
        Scale {
            name: "tiny",
            sizes: SplitSizes { seeds: 24, validation: 32, corpus: 300, query: 12, database: 150 },
            model: ModelConfig::tiny(),
            train: TrainConfig {
                epochs: 3,
                triplets_per_epoch: 64,
                triplet_batch: 32,
                validate: false,
                // The paper's 500 m coarse cells assume a 200K corpus of
                // road-following taxi trips; at our corpus sizes the
                // collision rate only becomes useful at ~2 km (see
                // EXPERIMENTS.md). The in-cluster distance bound scales
                // with the cell size and remains valid.
                coarse_cell_m: 2000.0,
                ..TrainConfig::default()
            },
            baseline_epochs: 3,
        }
    }

    /// The default experiment scale: preserves the paper's ratios at
    /// laptop size (see DESIGN.md).
    pub fn small() -> Scale {
        Scale {
            name: "small",
            sizes: SplitSizes::small(),
            model: ModelConfig::small(),
            train: TrainConfig {
                epochs: 10,
                triplets_per_epoch: 512,
                triplet_batch: 64,
                coarse_cell_m: 2000.0,
                ..TrainConfig::default()
            },
            baseline_epochs: 10,
        }
    }

    /// A larger run for overnight-style experiments.
    pub fn medium() -> Scale {
        Scale {
            name: "medium",
            sizes: SplitSizes {
                seeds: 300,
                validation: 500,
                corpus: 6_000,
                query: 150,
                database: 5_000,
            },
            model: ModelConfig::small(),
            train: TrainConfig {
                epochs: 20,
                triplets_per_epoch: 1024,
                triplet_batch: 64,
                coarse_cell_m: 2000.0,
                ..TrainConfig::default()
            },
            baseline_epochs: 20,
        }
    }

    /// Parses a scale by name.
    pub fn by_name(name: &str) -> Option<Scale> {
        match name {
            "tiny" => Some(Scale::tiny()),
            "small" => Some(Scale::small()),
            "medium" => Some(Scale::medium()),
            _ => None,
        }
    }
}

/// Parsed common CLI arguments.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Selected scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// City filter (None = both).
    pub city: Option<City>,
    /// Measure filter (None = all three of the paper).
    pub measure: Option<Measure>,
}

impl CommonArgs {
    /// Parses `--scale`, `--seed`, `--city`, `--measure` from an argument
    /// list; exits with a usage message on errors.
    pub fn parse(args: &[String]) -> CommonArgs {
        let mut out = CommonArgs {
            scale: Scale::small(),
            seed: 42,
            city: None,
            measure: None,
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    out.scale = Scale::by_name(args.get(i).map(String::as_str).unwrap_or(""))
                        .unwrap_or_else(|| usage("unknown scale (tiny|small|medium)"));
                }
                "--seed" => {
                    i += 1;
                    out.seed = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs an integer"));
                }
                "--city" => {
                    i += 1;
                    out.city = match args.get(i).map(String::as_str) {
                        Some("porto") => Some(City::Porto),
                        Some("chengdu") => Some(City::Chengdu),
                        Some("both") => None,
                        _ => usage("--city porto|chengdu|both"),
                    };
                }
                "--measure" => {
                    i += 1;
                    // anything Measure::from_name accepts works here,
                    // including parameterized forms like cdtw(16)
                    out.measure = match args.get(i).map(String::as_str) {
                        Some("all") => None,
                        Some(name) => match Measure::from_name(name) {
                            Some(m) => Some(m),
                            None => usage(
                                "--measure dtw|frechet|hausdorff|cdtw(N)|erp(x,y)|edr(eps)|all",
                            ),
                        },
                        None => usage(
                            "--measure dtw|frechet|hausdorff|cdtw(N)|erp(x,y)|edr(eps)|all",
                        ),
                    };
                }
                "--help" | "-h" => usage("harness options"),
                other => usage(&format!("unknown argument: {other}")),
            }
            i += 1;
        }
        out
    }

    /// Cities selected by the filter.
    pub fn cities(&self) -> Vec<City> {
        match self.city {
            Some(c) => vec![c],
            None => City::both().to_vec(),
        }
    }

    /// Measures selected by the filter.
    pub fn measures(&self) -> Vec<Measure> {
        match self.measure {
            Some(m) => vec![m],
            None => Measure::paper_suite().to_vec(),
        }
    }
}

#[expect(clippy::print_stderr, reason = "CLI usage text goes to stderr by design")]
fn usage(msg: &str) -> ! {
    eprintln!(
        "{msg}\n\nusage: <bin> [--scale tiny|small|medium] [--seed N] \
         [--city porto|chengdu|both] [--measure dtw|frechet|hausdorff|cdtw(N)|erp(x,y)|edr(eps)|all]"
    );
    std::process::exit(2)
}

/// Generates the dataset for a city at a scale.
pub fn build_dataset(city: City, scale: &Scale, seed: u64) -> Dataset {
    Dataset::generate(city.params(), scale.sizes, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_resolve_by_name() {
        assert_eq!(Scale::by_name("tiny").unwrap().name, "tiny");
        assert_eq!(Scale::by_name("small").unwrap().name, "small");
        assert_eq!(Scale::by_name("medium").unwrap().name, "medium");
        assert!(Scale::by_name("gigantic").is_none());
    }

    #[test]
    fn args_parse_filters() {
        let args: Vec<String> = ["--scale", "tiny", "--seed", "7", "--city", "porto",
            "--measure", "dtw"].iter().map(|s| s.to_string()).collect();
        let parsed = CommonArgs::parse(&args);
        assert_eq!(parsed.scale.name, "tiny");
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.cities(), vec![City::Porto]);
        assert_eq!(parsed.measures(), vec![Measure::Dtw]);
    }

    #[test]
    fn measure_filter_accepts_parameterized_names() {
        let args: Vec<String> =
            ["--measure", "cdtw(16)"].iter().map(|s| s.to_string()).collect();
        let parsed = CommonArgs::parse(&args);
        assert_eq!(parsed.measures(), vec![Measure::CDtw(16)]);
        let args: Vec<String> =
            ["--measure", "Hausdorff"].iter().map(|s| s.to_string()).collect();
        assert_eq!(CommonArgs::parse(&args).measures(), vec![Measure::Hausdorff]);
    }

    #[test]
    fn default_args_cover_paper_protocol() {
        let parsed = CommonArgs::parse(&[]);
        assert_eq!(parsed.cities().len(), 2);
        assert_eq!(parsed.measures().len(), 3);
    }

    #[test]
    fn dataset_generation_is_scale_sized() {
        let scale = Scale::tiny();
        let d = build_dataset(City::Chengdu, &scale, 1);
        assert_eq!(d.database.len(), scale.sizes.database);
        assert_eq!(d.query.len(), scale.sizes.query);
    }
}
