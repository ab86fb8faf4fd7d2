//! Top-down benchmark of the cactus-rs stack.
//!
//! ```text
//! perfbench run --workload offline_suite|cold_fleet|warm_fleet --seed N
//!               --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR
//!               --digest-dir DIR
//! perfbench digests --out DIR
//! ```
//!
//! `run` prints one JSON result line last on stdout (see [`report`]);
//! `perfbench/run.py` builds the program and this driver, then calls it.
//! `digests` regenerates the reference profile digests for the current
//! `MODEL_VERSION`. See `perfbench/README.md`.

mod checks;
mod cold;
mod fleet;
mod gen;
mod http;
mod offline;
mod report;
mod rng;
mod warm;

use std::path::PathBuf;
use std::process::ExitCode;

use checks::Digests;
use report::Report;

pub const WORKLOADS: [&str; 3] = ["offline_suite", "cold_fleet", "warm_fleet"];

/// A traced run reports every per-layer metric. The layers of the named
/// workload come from a run of full length; those of the other two from
/// runs of at most this many seconds.
const TRACE_OTHERS_S: f64 = 3.0;

/// Parsed `run` arguments.
#[derive(Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where `cactus-serve` and `cactus-gateway` were built.
    pub bin_dir: PathBuf,
    /// Scratch space for stores, port files and daemon logs.
    pub work_dir: PathBuf,
    /// Reference digests (`perfbench/digests`).
    pub digest_dir: PathBuf,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => parse_run(&argv[1..]).and_then(|args| run(&args)),
        Some("digests") => digests(&argv[1..]),
        _ => Err(
            "usage: perfbench run --workload W --seed N --seconds S --trace 0|1 \
                  --bin-dir DIR --work-dir DIR --digest-dir DIR | perfbench digests --out DIR"
                .to_owned(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag<'a>(argv: &'a [String], name: &str) -> Result<&'a str, String> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn parse_run(argv: &[String]) -> Result<Args, String> {
    let workload = flag(argv, "--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let number = |name: &str| -> Result<f64, String> {
        flag(argv, name)?
            .parse()
            .map_err(|_| format!("{name} takes a number"))
    };
    let seconds = number("--seconds")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: flag(argv, "--seed")?
            .parse()
            .map_err(|_| "--seed takes a whole number".to_owned())?,
        seconds,
        trace: match flag(argv, "--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        bin_dir: flag(argv, "--bin-dir")?.into(),
        work_dir: flag(argv, "--work-dir")?.into(),
        digest_dir: flag(argv, "--digest-dir")?.into(),
    })
}

fn run(args: &Args) -> Result<(), String> {
    let digests = Digests::load(&args.digest_dir)?;
    std::fs::create_dir_all(&args.work_dir).map_err(|e| e.to_string())?;
    let mut report = Report::default();
    run_workload(args, &digests, &mut report)?;
    if args.trace {
        for other in WORKLOADS.into_iter().filter(|&w| w != args.workload) {
            let short = Args {
                workload: other.to_owned(),
                seconds: args.seconds.min(TRACE_OTHERS_S),
                ..args.clone()
            };
            run_workload(&short, &digests, &mut report)?;
        }
    }
    report.check_declared(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    })?;
    if report.mismatches > 0 {
        eprintln!("perfbench: {} output mismatch(es)", report.mismatches);
    }
    println!("{}", report.to_json());
    Ok(())
}

fn run_workload(args: &Args, digests: &Digests, report: &mut Report) -> Result<(), String> {
    match args.workload.as_str() {
        "offline_suite" => {
            offline::run(args, digests, report);
            Ok(())
        }
        "cold_fleet" => cold::run(args, digests, report),
        _ => warm::run(args, digests, report),
    }
}

fn digests(argv: &[String]) -> Result<(), String> {
    let dir = PathBuf::from(flag(argv, "--out")?);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(Digests::file_name());
    std::fs::write(&path, checks::render_digests()).map_err(|e| e.to_string())?;
    eprintln!("perfbench: wrote {}", path.display());
    Ok(())
}
