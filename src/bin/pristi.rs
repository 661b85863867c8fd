//! `pristi` — command-line spatiotemporal imputation on CSV files.
//!
//! ```text
//! pristi generate --kind aqi --out panel.csv --coords-out coords.csv
//! pristi impute   --data panel.csv --coords coords.csv --out imputed.csv \
//!                 [--epochs 30] [--samples 16] [--window 24] \
//!                 [--sampler SPEC | --ddim 8] \
//!                 [--quantiles lo.csv,hi.csv] [--steps-per-day 24]
//! pristi checkpoint save        --data panel.csv --coords coords.csv --out model.ckpt \
//!                               [--epochs 30] [--window 24] [--seed N] [--steps-per-day 24]
//! pristi checkpoint load-verify --ckpt model.ckpt
//! pristi serve    --ckpt model.ckpt [--samples 8] [--sampler SPEC | --ddim K] \
//!                 [--batch 32] [--deadline-ms 30000] [--seed N] [--workers N]
//! pristi serve    --stream --ckpt model.ckpt [--samples 8] [--sampler SPEC] \
//!                 [--horizon H] [--seed N] [--workers N]
//! pristi loadtest [--seed N] [--clients C] [--requests R] [--workers 1,4] \
//!                 [--out BENCH_serve.json] [--ckpt model.ckpt] [--quick] [--stream]
//! pristi profile  [--seed N] [--out PROFILE.json] [--folded PROFILE_folded.txt] [--quick]
//! pristi bench    --compare OLD,NEW [--threshold-pct P]
//! pristi bench    --sweep [--quick] [--seed N] [--out results/steps_vs_crps.csv]
//! pristi bench    --filter <substr> [--quick] [--json]
//! ```
//!
//! `impute` trains PriSTI on the visible values of the panel (self-supervised
//! re-masking, Algorithm 1), imputes every missing cell, and writes the
//! completed panel back as CSV. With `--quantiles` it also writes the 5 % and
//! 95 % ensemble quantiles for uncertainty-aware downstream use.
//!
//! `checkpoint save` trains the same way and persists the model as an
//! `st-ckpt/1` file; `checkpoint load-verify` proves a file parses, verifies
//! its checksum, and rebuilds the model. `serve` loads a checkpoint into a
//! micro-batching [`st_serve::ImputeService`] and answers JSONL requests from
//! stdin with one JSON line each on stdout; `serve --stream` answers JSONL
//! ticks of a live feed with revised quantiles for its still-open gaps (see
//! [`st_serve::stream`] and README §Streaming). Both modes share one front
//! end, [`st_serve::wire`], whose docs give the wire format and the typed
//! error shape.
//!
//! `loadtest` drives the same service with a seeded closed-loop schedule and
//! writes `BENCH_serve.json` (see the [`loadtest`] module docs).

use pristi_core::train::{train, MaskStrategyKind, Reporter, TrainConfig, TrainedModel};
use pristi_core::{impute, ImputeOptions, PristiConfig, Sampler};
use st_rand::StdRng;
use st_rand::SeedableRng;
use st_baselines::visible;
use st_data::generators::{generate_air_quality, generate_traffic, AirQualityConfig, TrafficConfig};
use st_data::io::{load_dataset, panel_to_csv};
use st_data::SpatioTemporalDataset;
use st_serve::wire::{serve_lines, Engine};
use st_serve::{load_checkpoint, save_checkpoint, ImputeService, ServeConfig, StreamConfig};
use st_tensor::NdArray;
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

// A crate root's submodules resolve beside it (`src/bin/`), where any `.rs`
// file would be auto-discovered as another binary — park it a level down.
#[path = "pristi/loadtest.rs"]
mod loadtest;
#[path = "pristi/profile.rs"]
mod profile;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("impute") => with_flags(&args[1..], run_impute),
        Some("generate") => with_flags(&args[1..], run_generate),
        Some("serve") => {
            // `--stream` is a boolean mode switch, not a `--key value` pair.
            let stream = args.iter().any(|a| a == "--stream");
            let rest: Vec<String> =
                args[1..].iter().filter(|a| *a != "--stream").cloned().collect();
            with_flags(&rest, |flags| run_serve(flags, stream))
        }
        Some("loadtest") => loadtest::run(&args[1..]),
        Some("profile") => profile::run(&args[1..]),
        Some("bench") => run_bench(&args[1..]),
        Some("checkpoint") => match args.get(1).map(String::as_str) {
            Some("save") => with_flags(&args[2..], run_checkpoint_save),
            Some("load-verify") => with_flags(&args[2..], run_checkpoint_verify),
            _ => usage(),
        },
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: pristi <impute|generate|checkpoint|serve|loadtest> [--flag value]...");
    eprintln!("  pristi generate --kind aqi|metr-la|pems-bay --out panel.csv --coords-out coords.csv");
    eprintln!("  pristi impute --data panel.csv --coords coords.csv --out imputed.csv");
    eprintln!("                [--epochs N] [--samples S] [--window L]");
    eprintln!("                [--sampler ddpm|ddim:K[:ETA]|pndm:K[:ORDER]|refine:K[:STRENGTH] | --ddim K]");
    eprintln!("                [--steps-per-day N] [--quantiles lo.csv,hi.csv] [--seed N]");
    eprintln!("  pristi checkpoint save --data panel.csv --coords coords.csv --out model.ckpt");
    eprintln!("                         [--epochs N] [--window L] [--steps-per-day N] [--seed N]");
    eprintln!("  pristi checkpoint load-verify --ckpt model.ckpt");
    eprintln!("  pristi serve --ckpt model.ckpt [--samples S] [--sampler SPEC | --ddim K]");
    eprintln!("               [--batch S_max] [--deadline-ms N] [--seed N] [--workers N]");
    eprintln!("               (JSONL requests on stdin)");
    eprintln!("  pristi serve --stream --ckpt model.ckpt [--samples S] [--sampler SPEC]");
    eprintln!("               [--horizon H] [--seed N] [--workers N]");
    eprintln!("               (JSONL ticks on stdin, revised imputations out)");
    eprintln!("  pristi loadtest [--seed N] [--clients C] [--requests R] [--workers 1,4]");
    eprintln!("                  [--out BENCH_serve.json] [--ckpt model.ckpt] [--quick]");
    eprintln!("                  [--stream]");
    eprintln!("  pristi profile  [--seed N] [--out PROFILE.json] [--folded PROFILE_folded.txt]");
    eprintln!("                  [--quick]");
    eprintln!("  pristi bench --compare OLD,NEW [--threshold-pct P]");
    eprintln!("  pristi bench --sweep [--quick] [--seed N] [--out PATH]");
    eprintln!("  pristi bench --filter <substr> [--quick] [--json]");
    ExitCode::from(2)
}

/// `pristi bench` dispatcher:
///
/// * `--compare OLD,NEW [--threshold-pct P]` — diff two bench reports;
/// * `--sweep [--quick] [--seed N] [--out PATH]` — the steps-vs-CRPS solver
///   accuracy sweep (exits nonzero when a gated few-step configuration
///   drifts from the 50-step reference);
/// * `--filter <substr> [--quick] [--json]` — run the matching subset of the
///   micro-benchmark cases in-process, so a kernel iteration doesn't require
///   running the full `cargo bench` suite.
fn run_bench(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--compare") {
        run_bench_compare(args)
    } else if args.iter().any(|a| a == "--sweep") {
        run_bench_sweep(args)
    } else {
        run_bench_filter(args)
    }
}

/// `pristi bench --sweep [--quick] [--seed N] [--out PATH]` — train a seeded
/// `T = 50` model and score every solver × step-count configuration against
/// the 50-step DDIM reference (see `pristi_bench::sweep`). Writes the CSV to
/// `--out` (default `results/steps_vs_crps.csv`) and fails when a gated spec
/// exceeds the pinned CRPS/MAE ratio tolerances.
fn run_bench_sweep(args: &[String]) -> ExitCode {
    let mut opts = pristi_bench::SweepOpts::default();
    let mut out = "results/steps_vs_crps.csv".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sweep" => i += 1,
            "--quick" => {
                opts.quick = true;
                i += 1;
            }
            "--seed" => {
                let Some(v) = args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("--seed needs a number");
                    return ExitCode::from(2);
                };
                opts.seed = v;
                i += 2;
            }
            "--out" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("--out needs a path");
                    return ExitCode::from(2);
                };
                out = v.clone();
                i += 2;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: pristi bench --sweep [--quick] [--seed N] [--out PATH]");
                return ExitCode::from(2);
            }
        }
    }
    eprintln!(
        "sweep: training T=50 model and scoring solvers ({} mode)...",
        if opts.quick { "quick" } else { "full" }
    );
    let report = match pristi_bench::run_sweep(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render_table());
    if let Err(e) = std::fs::write(&out, report.to_csv()) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("sweep table -> {out}");
    if !report.violations.is_empty() {
        for v in &report.violations {
            eprintln!("SWEEP GATE VIOLATION: {v}");
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `pristi bench --filter <substr> [--quick] [--json]` — time only the micro
/// cases whose name contains `<substr>` (the same case set and timing loop as
/// `cargo bench -p pristi-bench`; `--json` rewrites `BENCH_micro.json` with
/// just the matched entries, so leave it off when iterating on one kernel).
fn run_bench_filter(args: &[String]) -> ExitCode {
    let mut filter: Option<String> = None;
    let mut quick = false;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--filter" => {
                let Some(value) = args.get(i + 1).filter(|a| !a.starts_with("--")) else {
                    eprintln!("--filter needs a substring");
                    eprintln!("usage: pristi bench --filter <substr> [--quick] [--json]");
                    return ExitCode::from(2);
                };
                filter = Some(value.clone());
                i += 2;
            }
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: pristi bench --compare OLD,NEW [--threshold-pct P]");
                eprintln!("       pristi bench --filter <substr> [--quick] [--json]");
                return ExitCode::from(2);
            }
        }
    }
    let mut h = pristi_bench::micro::MicroHarness::new(filter, quick);
    pristi_bench::micro::run_all(&mut h);
    if h.results().is_empty() {
        eprintln!("no bench case matched the filter");
        return ExitCode::FAILURE;
    }
    if json {
        let path = pristi_bench::micro::JSON_PATH;
        if let Err(e) = std::fs::write(path, h.to_json()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {} entries to {path}", h.results().len());
    }
    ExitCode::SUCCESS
}

/// `pristi bench --compare OLD,NEW [--threshold-pct P]` — diff two bench
/// reports (`st-bench/1` or `st-serve-bench/1`, auto-detected) and exit
/// nonzero when any entry regressed beyond the threshold or went missing.
/// `OLD NEW` as two separate arguments is accepted too.
fn run_bench_compare(args: &[String]) -> ExitCode {
    let mut old_path: Option<String> = None;
    let mut new_path: Option<String> = None;
    let mut threshold_pct = 25.0f64;
    let usage = || {
        eprintln!("usage: pristi bench --compare OLD,NEW [--threshold-pct P]");
        ExitCode::from(2)
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--compare" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("--compare needs OLD,NEW report paths");
                    return usage();
                };
                if let Some((old, new)) = value.split_once(',') {
                    old_path = Some(old.to_string());
                    new_path = Some(new.to_string());
                    i += 2;
                } else {
                    let Some(new) = args.get(i + 2).filter(|a| !a.starts_with("--")) else {
                        eprintln!("--compare needs two report paths (OLD,NEW or OLD NEW)");
                        return usage();
                    };
                    old_path = Some(value.clone());
                    new_path = Some(new.clone());
                    i += 3;
                }
            }
            "--threshold-pct" => {
                let parsed = args.get(i + 1).and_then(|v| v.parse::<f64>().ok());
                let Some(p) = parsed else {
                    eprintln!("--threshold-pct needs a numeric percentage");
                    return usage();
                };
                threshold_pct = p;
                i += 2;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }
    let (Some(old_path), Some(new_path)) = (old_path, new_path) else {
        return usage();
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| format!("failed to read {path}: {e}"))
    };
    let outcome = read(&old_path)
        .and_then(|old| read(&new_path).map(|new| (old, new)))
        .and_then(|(old, new)| pristi_bench::compare_reports(&old, &new, threshold_pct));
    match outcome {
        Ok(out) => {
            print!("{}", out.render_table());
            if out.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench compare failed: {e}");
            ExitCode::from(2)
        }
    }
}

/// Flags whose value must be a non-negative integer.
const NUMERIC_FLAGS: [&str; 9] = [
    "seed", "epochs", "samples", "window", "steps-per-day", "batch", "workers", "deadline-ms",
    "horizon",
];

/// Run `cmd` on the `--key value` pairs of `args`, or exit 2 naming a
/// numeric flag whose value is not a non-negative integer.
fn with_flags(
    args: &[String],
    cmd: impl FnOnce(HashMap<String, String>) -> Result<(), ExitCode>,
) -> ExitCode {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        match (args[i].strip_prefix("--"), args.get(i + 1)) {
            (Some(key), Some(value)) => {
                if NUMERIC_FLAGS.contains(&key) && value.parse::<usize>().is_err() {
                    return usage_error(format!(
                        "--{key} needs a non-negative integer, got `{value}`"
                    ));
                }
                flags.insert(key.to_string(), value.clone());
                i += 2;
            }
            _ => {
                eprintln!("warning: ignoring stray argument `{}`", args[i]);
                i += 1;
            }
        }
    }
    cmd(flags).err().unwrap_or(ExitCode::SUCCESS)
}

/// Report a usage error: exit code 2.
fn usage_error(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::from(2)
}

/// Report a failure as `what: error`: exit code 1.
fn failed<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> ExitCode + '_ {
    move |e| {
        eprintln!("{what}: {e}");
        ExitCode::FAILURE
    }
}

fn get_usize(flags: &HashMap<String, String>, key: &str, default: usize) -> usize {
    debug_assert!(NUMERIC_FLAGS.contains(&key), "with_flags does not check --{key}");
    flags.get(key).map_or(default, |v| v.parse().expect("with_flags checked numeric flags"))
}

/// Resolve the sampler from `--sampler SPEC` (the shared spec grammar:
/// `ddpm`, `ddim:K[:ETA]`, `pndm:K[:ORDER]`, `refine:K[:STRENGTH]`) with
/// `--ddim K` kept as a back-compat alias for `ddim:K`. Neither flag means
/// `default`; a malformed flag is a usage error.
fn parse_sampler_flags(
    flags: &HashMap<String, String>,
    default: Sampler,
) -> Result<Sampler, ExitCode> {
    match (flags.get("sampler"), flags.get("ddim")) {
        (Some(_), Some(_)) => Err(usage_error("--sampler and --ddim are mutually exclusive")),
        (Some(spec), None) => spec.parse::<Sampler>().map_err(usage_error),
        (None, Some(k)) => {
            let steps = k.parse().map_err(|_| usage_error(format!("bad --ddim value `{k}`")))?;
            Ok(Sampler::Ddim { steps, eta: 0.0 })
        }
        (None, None) => Ok(default),
    }
}

fn run_generate(flags: HashMap<String, String>) -> Result<(), ExitCode> {
    let kind = flags.get("kind").map(String::as_str).unwrap_or("aqi");
    let out = flags.get("out").map(String::as_str).unwrap_or("panel.csv");
    let coords_out = flags.get("coords-out").map(String::as_str).unwrap_or("coords.csv");
    let seed = get_usize(&flags, "seed", 2023) as u64;
    let data: SpatioTemporalDataset = match kind {
        "aqi" => generate_air_quality(&AirQualityConfig { seed, n_days: 28, ..Default::default() }),
        "metr-la" => generate_traffic(&TrafficConfig { seed, ..TrafficConfig::metr_la() }),
        "pems-bay" => generate_traffic(&TrafficConfig { seed, ..TrafficConfig::pems_bay() }),
        other => {
            return Err(usage_error(format!(
                "unknown --kind `{other}` (expected aqi|metr-la|pems-bay)"
            )))
        }
    };
    let sensors: Vec<String> = (0..data.n_nodes()).map(|i| format!("s{i}")).collect();
    // write panel with original missing as empty cells
    let (t, n) = (data.n_steps(), data.n_nodes());
    let mut csv = String::from("time");
    for s in &sensors {
        csv.push(',');
        csv.push_str(s);
    }
    csv.push('\n');
    for ti in 0..t {
        csv.push_str(&ti.to_string());
        for i in 0..n {
            let idx = ti * n + i;
            if data.observed_mask.data()[idx] > 0.0 {
                csv.push_str(&format!(",{:.4}", data.values.data()[idx]));
            } else {
                csv.push(',');
            }
        }
        csv.push('\n');
    }
    let mut coords = String::from("sensor,x,y\n");
    for (i, c) in data.graph.coords.iter().enumerate() {
        coords.push_str(&format!("s{i},{:.4},{:.4}\n", c.x, c.y));
    }
    std::fs::write(out, csv)
        .and_then(|_| std::fs::write(coords_out, coords))
        .map_err(failed("write failed"))?;
    println!(
        "generated {kind}-like panel: {t} steps x {n} sensors -> {out}, coordinates -> {coords_out}"
    );
    Ok(())
}

/// Load `--data`/`--coords` and train PriSTI on the visible values of the
/// panel — the part `impute` and `checkpoint save` share.
fn load_and_train(
    flags: &HashMap<String, String>,
) -> Result<(SpatioTemporalDataset, TrainedModel), ExitCode> {
    let (Some(data_path), Some(coords_path)) = (flags.get("data"), flags.get("coords")) else {
        return Err(usage_error("--data <panel.csv> and --coords <coords.csv> are required"));
    };
    let steps_per_day = get_usize(flags, "steps-per-day", 24);
    let epochs = get_usize(flags, "epochs", 30);
    let window = get_usize(flags, "window", 24);
    let data = load_dataset(Path::new(data_path), Path::new(coords_path), steps_per_day)
        .map_err(failed("failed to load dataset"))?;
    let missing = 1.0
        - data.observed_mask.data().iter().map(|&v| v as f64).sum::<f64>()
            / data.observed_mask.numel() as f64;
    println!(
        "loaded {}: {} steps x {} sensors, {:.1}% missing",
        data.name,
        data.n_steps(),
        data.n_nodes(),
        100.0 * missing
    );
    if data.n_steps() < 2 * window {
        eprintln!("panel too short for --window {window}");
        return Err(ExitCode::FAILURE);
    }
    let mut cfg = PristiConfig::small();
    cfg.virtual_nodes = cfg.virtual_nodes.min(data.n_nodes());
    let tc = TrainConfig {
        epochs,
        window_len: window,
        window_stride: (window / 2).max(1),
        strategy: MaskStrategyKind::HybridBlock,
        seed: get_usize(flags, "seed", 7) as u64,
        reporter: Reporter::Stderr,
        ..Default::default()
    };
    println!("training PriSTI ({epochs} epochs, window {window})...");
    let trained = train(&data, cfg, &tc).map_err(failed("training failed"))?;
    Ok((data, trained))
}

fn run_impute(flags: HashMap<String, String>) -> Result<(), ExitCode> {
    let out_path = flags.get("out").map(String::as_str).unwrap_or("imputed.csv");
    let n_samples = get_usize(&flags, "samples", 16);
    let window = get_usize(&flags, "window", 24);
    let sampler = parse_sampler_flags(&flags, Sampler::Ddpm)?;
    let seed = get_usize(&flags, "seed", 7) as u64;
    let quantiles = match flags.get("quantiles").map(|q| q.split_once(',')) {
        Some(None) => return Err(usage_error("--quantiles expects `lo.csv,hi.csv`")),
        q => q.flatten(),
    };
    let (data, trained) = load_and_train(&flags)?;
    println!("trained {} parameters", trained.model.n_params());

    // Impute the whole panel window by window.
    let (mut panel, mask) = visible(&data);
    let mut lo = panel.clone();
    let mut hi = panel.clone();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
    let (t_len, n) = (data.n_steps(), data.n_nodes());
    let mut starts: Vec<usize> = (0..=(t_len - window)).step_by(window).collect();
    if starts.last() != Some(&(t_len - window)) {
        starts.push(t_len - window);
    }
    for (wi, &t0) in starts.iter().enumerate() {
        let w = data.window_at(t0, window);
        let res = impute(&trained, &w, &ImputeOptions { n_samples, sampler }, &mut rng)
            .map_err(failed("imputation failed"))?;
        let med = res.median();
        let q05 = res.quantile(0.05);
        let q95 = res.quantile(0.95);
        write_window(&mut panel, &mask, &med, t0, n, window);
        write_window(&mut lo, &mask, &q05, t0, n, window);
        write_window(&mut hi, &mask, &q95, t0, n, window);
        println!("  window {}/{} imputed", wi + 1, starts.len());
    }

    let sensors: Vec<String> = panel_sensor_names(&flags["data"], n);
    std::fs::write(out_path, panel_to_csv(&panel, &sensors)).map_err(failed("write failed"))?;
    println!("imputed panel -> {out_path}");
    if let Some((lo_path, hi_path)) = quantiles {
        std::fs::write(lo_path, panel_to_csv(&lo, &sensors))
            .and_then(|_| std::fs::write(hi_path, panel_to_csv(&hi, &sensors)))
            .map_err(failed("quantile write failed"))?;
        println!("quantile bands -> {lo_path}, {hi_path}");
    }
    Ok(())
}

/// Train exactly as `pristi impute` would, then persist the model as an
/// `st-ckpt/1` file instead of imputing.
fn run_checkpoint_save(flags: HashMap<String, String>) -> Result<(), ExitCode> {
    let out_path = flags.get("out").map(String::as_str).unwrap_or("model.ckpt");
    let (_, trained) = load_and_train(&flags)?;
    save_checkpoint(&trained, Path::new(out_path)).map_err(failed("checkpoint save failed"))?;
    println!(
        "checkpoint ({} parameters, {} sensors, window {}) -> {out_path}",
        trained.model.n_params(),
        trained.model.n_nodes(),
        trained.model.window_len()
    );
    Ok(())
}

/// Load a checkpoint end to end — header, checksum, config validation, and
/// full model rebuild — and print what it holds. A valid file exits 0.
fn run_checkpoint_verify(flags: HashMap<String, String>) -> Result<(), ExitCode> {
    let ckpt_path =
        flags.get("ckpt").ok_or_else(|| usage_error("--ckpt <model.ckpt> is required"))?;
    let trained =
        load_checkpoint(Path::new(ckpt_path)).map_err(failed("checkpoint verify failed"))?;
    println!("checkpoint OK: {ckpt_path}");
    println!("  parameters: {}", trained.model.n_params());
    println!("  sensors:    {}", trained.model.n_nodes());
    println!("  window:     {}", trained.model.window_len());
    println!("  t_steps:    {}", trained.schedule.betas().len());
    match trained.epoch_losses.last() {
        Some(last) => {
            println!("  training:   {} epochs, final loss {last:.6}", trained.epoch_losses.len())
        }
        None => println!("  training:   no recorded epochs"),
    }
    Ok(())
}

/// `pristi serve [--stream]`: load a checkpoint and answer JSONL lines from
/// stdin on stdout through [`st_serve::wire`] — imputation requests through
/// an [`ImputeService`], or with `--stream` ticks through streaming sessions.
fn run_serve(flags: HashMap<String, String>, stream: bool) -> Result<(), ExitCode> {
    let ckpt_path =
        flags.get("ckpt").ok_or_else(|| usage_error("--ckpt <model.ckpt> is required"))?;
    // Streaming revises gaps every tick, so its default solver is the
    // few-step `pndm:4` rather than full DDPM.
    let default = if stream { Sampler::Pndm { steps: 4, order: 4 } } else { Sampler::Ddpm };
    let sampler = parse_sampler_flags(&flags, default)?;
    let trained =
        load_checkpoint(Path::new(ckpt_path)).map_err(failed("failed to load checkpoint"))?;
    let (n_nodes, window_len) = (trained.model.n_nodes(), trained.model.window_len());
    let (n_samples, workers) = (get_usize(&flags, "samples", 8), get_usize(&flags, "workers", 1));
    let base_seed = get_usize(&flags, "seed", 0) as u64;
    let service;
    let engine = if stream {
        let horizon = get_usize(&flags, "horizon", 4);
        eprintln!(
            "streaming {ckpt_path} ({n_nodes} sensors, window {window_len}, horizon {horizon}, \
             sampler {sampler}); reading JSONL ticks from stdin"
        );
        let session = StreamConfig { n_samples, sampler, horizon, base_seed };
        Engine::Stream { trained: Arc::new(trained), session, workers }
    } else {
        let cfg = ServeConfig {
            max_batch_samples: get_usize(&flags, "batch", 32),
            workers,
            default_deadline: Duration::from_millis(
                get_usize(&flags, "deadline-ms", 30_000) as u64,
            ),
            base_seed,
            ..Default::default()
        };
        service = ImputeService::start(trained, cfg).map_err(failed("failed to start service"))?;
        eprintln!(
            "serving {ckpt_path} ({n_nodes} sensors, window {window_len}); \
             reading JSONL requests from stdin"
        );
        Engine::Requests { service: &service, defaults: ImputeOptions { n_samples, sampler } }
    };
    let summary = serve_lines(engine, std::io::stdin().lock(), std::io::stdout())
        .map_err(failed("serve I/O failed"))?;
    eprintln!("input closed: {summary:?}");
    Ok(())
}

fn write_window(panel: &mut NdArray, mask: &NdArray, win: &NdArray, t0: usize, n: usize, l: usize) {
    for li in 0..l {
        for i in 0..n {
            let idx = (t0 + li) * n + i;
            if mask.data()[idx] == 0.0 {
                panel.data_mut()[idx] = win.data()[i * l + li];
            }
        }
    }
}

fn panel_sensor_names(path: &str, n: usize) -> Vec<String> {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            let header = text.lines().next()?.to_string();
            let names: Vec<String> =
                header.split(',').skip(1).map(|s| s.trim().to_string()).collect();
            (names.len() == n).then_some(names)
        })
        .unwrap_or_else(|| (0..n).map(|i| format!("s{i}")).collect())
}
