//! The repo's benchmark. See `README.md` in this directory.

mod compare;
mod contract;
mod drive;
mod env;
mod oracle;
mod report;
mod run;
mod setup;
mod stats;
mod trace;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark run --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
  benchmark contract
  benchmark aa [--sets <n>] [--runs <n>] [--seconds <s>] [--out <dir>]
  benchmark compare <a-dir> <b-dir>
  benchmark baseline [--runs <n>] [--seed <n>] [--seconds <s>] [--out <dir>]";

/// The value following `flag`, if present.
fn flag<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse `{v}`")),
    }
}

fn run_args(args: &[String]) -> Result<run::RunArgs, String> {
    let name = flag(args, "--workload").ok_or("--workload is required")?;
    let spec = workload::spec(name).ok_or_else(|| {
        let known: Vec<_> = workload::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload `{name}` (one of {})", known.join(", "))
    })?;
    let seconds: f64 = parsed(args, "--seconds", contract::RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let traced = match flag(args, "--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(run::RunArgs {
        spec,
        seed: parsed(args, "--seed", 1)?,
        seconds,
        traced,
    })
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => run::run(run_args(&args[1..])?),
        Some("contract") => {
            print!("{}", contract::render());
            Ok(true)
        }
        Some("aa") => compare::aa(
            parsed(args, "--sets", 2)?,
            parsed(args, "--runs", 5)?,
            parsed(args, "--seconds", contract::RUN_SECONDS as f64)?,
            &flag(args, "--out").map_or_else(|| setup::out_dir().join("aa"), PathBuf::from),
        ),
        Some("baseline") => compare::baseline(
            parsed(args, "--runs", 5)?,
            parsed(args, "--seed", 1)?,
            parsed(args, "--seconds", contract::RUN_SECONDS as f64)?,
            &flag(args, "--out").map_or_else(
                || Path::new(env!("CARGO_MANIFEST_DIR")).join("baseline"),
                PathBuf::from,
            ),
        ),
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(Path::new(a), Path::new(b)),
            _ => Err(USAGE.into()),
        },
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    // The exact-tier split must follow the planner, not the caller's
    // environment.
    std::env::remove_var("AB_HYBRID");
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
