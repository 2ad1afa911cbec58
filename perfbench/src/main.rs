//! The service benchmark of `topo-store` / `topo-core`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|query|edit> --seed <n> --seconds <s> --trace <0|1> [--scale smoke]
//! ```
//!
//! Each workload drives the public API in a closed loop for `--seconds`,
//! checks every answer outside the timed phase, and prints as its last line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `perfbench/README.md` for the metric catalogue.

mod backend;
mod check;
mod edit;
mod env;
mod gen;
mod ingest;
mod json;
mod pipeline;
mod query;
mod report;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;

/// Input sizes: the benchmark's own, or tiny ones for the smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// Where store directories and traces go, relative to the working
/// directory.
pub fn out_dir() -> &'static Path {
    Path::new(".perfbench_out")
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, scale: Scale::Full };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("--scale takes full or smoke, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["ingest", "query", "edit"].contains(&args.workload.as_str()) {
        return Err(format!("--workload must be ingest, query or edit, not {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    std::fs::create_dir_all(out_dir()).expect("create output directory");
    let result = match args.workload.as_str() {
        "ingest" => report::run::<ingest::Ingest>(&args),
        "query" => report::run::<query::Query>(&args),
        _ => report::run::<edit::Edit>(&args),
    };
    println!("{}", result.context);
    println!("{}", result.line);
    ExitCode::SUCCESS
}
