//! `pristi-e2e-bench --workload NAME --seed N --seconds S --trace 0|1
//! --pristi PATH --out-dir DIR`
//!
//! Runs one workload and prints its result as the last stdout line. Usually
//! started through `run.py`, which builds this package and the `pristi`
//! binary first.

use pristi_e2e_bench::report::{Report, WORKLOADS};
use pristi_e2e_bench::{serve, stream, train_eval, Args, KERNEL_THREADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {WORKLOADS:?})"
        ));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed needs an integer")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds needs a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        pristi: PathBuf::from(get("--pristi")?),
        out_dir: PathBuf::from(get("--out-dir")?),
    })
}

fn main() -> ExitCode {
    // Before any kernel runs (st-par reads it once) and before any child
    // starts (children inherit it); see `KERNEL_THREADS`.
    std::env::set_var("ST_PAR_THREADS", KERNEL_THREADS);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("cannot create {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    let name = WORKLOADS
        .into_iter()
        .find(|w| *w == args.workload)
        .expect("validated above");
    let mut rep = Report::new(name, args.trace);
    let outcome = match name {
        "train_eval" => train_eval::run(&args, &mut rep),
        "serve" => serve::run(&args, &mut rep),
        _ => stream::run(&args, &mut rep),
    };
    if let Err(e) = outcome {
        eprintln!("{name}: {e}");
        return ExitCode::FAILURE;
    }
    let line = rep.render();
    for p in rep.problems() {
        eprintln!("CHECK FAILED: {p}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}
