//! Benchmark of the tbmd workspace: one seeded workload per run, measured
//! end to end (untraced) or layer by layer (traced). See README.md in this
//! directory for the workloads, the metrics and what each should move.
//!
//! ```text
//! tbmd-perfbench --workload <cnt-md|si64-dist> --seed <n> --seconds <s>
//!                --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! Prints one line per check, diagnostic and metric, then the result as one
//! JSON object on the last line. A traced run also writes its spans to
//! `<out-dir>/spans-<workload>-<seed>.json`.

mod layers;
mod md_loop;
mod procstat;
mod report;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out_dir) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let mut tracer = spans::Tracer::new(args.trace);
    let rep = match args.workload.as_str() {
        "cnt-md" => md_loop::run(&md_loop::CNT_MD, &args, &mut tracer)?,
        "si64-dist" => md_loop::run(&md_loop::SI64_DIST, &args, &mut tracer)?,
        other => {
            return Err(format!(
                "unknown workload {other}; one of cnt-md, si64-dist"
            ))
        }
    };
    if args.trace {
        if let Some(dir) = &args.out_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = dir.join(format!("spans-{}-{}.json", args.workload, args.seed));
            std::fs::write(&path, tracer.to_json())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            );
        }
        rep.print(&report::PER_LAYER)
    } else {
        rep.print(&report::END_TO_END)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tbmd-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
