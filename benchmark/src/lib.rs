//! End-to-end and per-layer benchmark of PriSTI-rs.
//!
//! Three seeded workloads drive the surfaces users run: `train_eval` calls
//! `pristi_core::train` and `impute` in process; `serve` and `stream` drive
//! the `pristi serve` and `pristi serve --stream` binaries over pipes. See
//! `README.md` in this directory for why each workload exists and what every
//! metric means.

#![allow(clippy::too_many_arguments)]

pub mod client;
pub mod inputs;
pub mod replay;
pub mod report;
pub mod serve;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod train_eval;

use pristi_core::train::{TrainConfig, TrainedModel};
use pristi_core::PriorCache;
use st_data::SpatioTemporalDataset;
use st_rand::{SeedableRng, StdRng};
use st_tensor::pool::PoolStats;
use st_tensor::NdArray;
use std::path::PathBuf;
use std::time::Instant;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// The `pristi` binary.
    pub pristi: PathBuf,
    /// Directory for checkpoints and trace dumps.
    pub out_dir: PathBuf,
}

/// `--workers` of the `pristi` servers.
pub const WORKERS: &str = "2";

/// Kernel threads (`ST_PAR_THREADS`) of the benchmark process and of every
/// `pristi` child it starts. On the reference host, a shared 2-vCPU VM, a
/// second kernel thread is no faster (`st-par.speedup` 0.8–1.03) but ties
/// every time figure to the load on the other vCPU: over five runs the
/// spread of `train_windows_per_s` was 0.25 with two threads and 0.05–0.17
/// with one. `st-par.speedup` still times the default thread count against
/// one.
pub const KERNEL_THREADS: &str = "1";

/// The rate ladder of `serve` and `stream`, in multiples of the low rate:
/// the low rate, the high rate, then steps of four. `serve`'s capacity on the
/// reference host ranges over 2× from run to run, and a rung less than about
/// 1.2× over capacity leaves too small a backlog to show, so a closer rung
/// would be met on some runs and missed on others.
pub const LADDER: [f64; 6] = [1.0, 2.0, 8.0, 32.0, 128.0, 512.0];

/// Median of nanosecond samples, in seconds.
pub fn secs(ns: &[u64]) -> f64 {
    stats::median(&ns.iter().map(|&v| v as f64).collect::<Vec<_>>()) / 1e9
}

/// Pool hit ratio and misses between two snapshots.
pub fn pool_delta(a: PoolStats, b: PoolStats) -> (f64, f64) {
    let (hits, misses) = ((b.hits - a.hits) as f64, (b.misses - a.misses) as f64);
    (hits / (hits + misses).max(1.0), misses)
}

/// Time one `predict_eps_eval_cached` call at one thread and at the default
/// thread count (the available parallelism, which `ST_PAR_THREADS` would
/// otherwise set), alternating, and return the ratio of the medians.
pub fn par_speedup(trained: &TrainedModel, cache: &PriorCache, seed: u64) -> f64 {
    let (n, l) = (trained.model.n_nodes(), trained.model.window_len());
    let x = NdArray::randn(
        &[cache.n_samples_total(), n, l],
        &mut StdRng::seed_from_u64(seed),
    );
    let t = trained.schedule.betas().len() / 2;
    let time = |threads: usize| {
        st_par::set_threads(threads);
        let t0 = Instant::now();
        std::hint::black_box(trained.model.predict_eps_eval_cached(
            cache,
            std::hint::black_box(&x),
            t,
        ));
        t0.elapsed().as_secs_f64()
    };
    let default = std::thread::available_parallelism().map_or(1, |n| n.get());
    time(1);
    time(default);
    let (mut one, mut many) = (Vec::new(), Vec::new());
    for _ in 0..9 {
        one.push(time(1));
        many.push(time(default));
    }
    st_par::set_threads(0);
    stats::median(&one) / stats::median(&many)
}

/// Whether a rate phase left a growing backlog: its last answer came more
/// than a fifth of the phase after the last arrival was due. A server that
/// keeps up answers within a few service times of the last arrival; one that
/// falls behind by a share `x` of the offered load needs about `x` of the
/// phase to drain, whatever its speed.
pub fn backlog_grew(phase: &client::Phase, last_due: f64, last_answer: Instant) -> bool {
    phase.since_due_ms(last_due, last_answer) > last_due * 1e3 / 5.0
}

/// Median self time of the spans named `name`, in ms.
pub fn self_ms(tr: &trace::Tracer, name: &str) -> f64 {
    tr.by_name()
        .get(name)
        .map_or(f64::NAN, |(selfs, _)| secs(selfs) * 1e3)
}

/// Set the per-layer metrics every workload's reverse-loop replay yields,
/// and the trace's coverage and total.
pub fn set_reverse_layers(rep: &mut report::Report, tr: &trace::Tracer) {
    for (metric, span) in [
        ("st-diffusion.step_ms", "st-diffusion.step"),
        ("pristi-core.cond_prep_ms", "pristi-core.cond_prep"),
        ("pristi-core.prior_build_ms", "pristi-core.prior_build"),
        ("pristi-core.eps_eval_ms", "pristi-core.eps_eval"),
        ("pristi-core.merge_ms", "pristi-core.merge"),
        ("pristi-core.quantile_ms", "pristi-core.quantile"),
    ] {
        rep.set(metric, self_ms(tr, span));
    }
    let impute = tr
        .by_name()
        .get("pristi-core.impute")
        .map_or(f64::NAN, |(_, durs)| secs(durs) * 1e3);
    rep.set("pristi-core.impute_ms", impute);
    rep.set("trace.coverage", tr.coverage());
    rep.set("trace.traced_total_s", tr.roots_total_s());
}

/// Replay `train(data, model_config(), tc)` traced, check that it reproduces
/// `trained` bit for bit (epoch losses and parameters), and set the training
/// layers' metrics; `pool` holds the tensor-pool counters around the
/// untraced `train`.
pub fn set_train_layers(
    rep: &mut report::Report,
    data: &SpatioTemporalDataset,
    tc: &TrainConfig,
    trained: &TrainedModel,
    pool: (PoolStats, PoolStats),
    tr: &mut trace::Tracer,
) -> Result<(), String> {
    let replayed =
        replay::train(data, inputs::model_config(), tc, tr).map_err(|e| e.to_string())?;
    let same_losses = replayed.epoch_losses.len() == trained.epoch_losses.len()
        && replayed
            .epoch_losses
            .iter()
            .zip(&trained.epoch_losses)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    rep.check(same_losses, || {
        format!(
            "train replay losses {:?} != train() {:?}",
            replayed.epoch_losses, trained.epoch_losses
        )
    });
    let same_params = replayed
        .model
        .store
        .iter()
        .zip(trained.model.store.iter())
        .all(|((ka, a), (kb, b))| {
            ka == kb
                && a.data()
                    .iter()
                    .zip(b.data())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        });
    rep.check(same_params, || {
        "train replay parameters differ from train()".into()
    });
    for (metric, span) in [
        ("st-data.batch_prep_ms", "st-data.batch_prep"),
        ("pristi-core.train_forward_ms", "pristi-core.train_forward"),
        ("st-tensor.backward_ms", "st-tensor.backward"),
        ("st-tensor.optim_ms", "st-tensor.optim"),
    ] {
        rep.set(metric, self_ms(tr, span));
    }
    let nodes: Vec<f64> = replayed.tape_nodes.iter().map(|&n| n as f64).collect();
    rep.set("st-tensor.tape_nodes", stats::median(&nodes));
    let (hit, miss) = pool_delta(pool.0, pool.1);
    rep.set("st-tensor.pool_hit_ratio.train", hit);
    rep.set("st-tensor.pool_misses.train", miss);
    Ok(())
}

/// Report 0 for per-layer metrics of layers the workload never enters.
pub fn set_absent(rep: &mut report::Report, names: &[&'static str]) {
    for &name in names {
        rep.set(name, 0.0);
    }
}

/// Write the traced run's spans next to the other run artefacts, as
/// `trace_<workload>_<seed><suffix>.jsonl`.
pub fn write_trace(args: &Args, tr: &trace::Tracer, suffix: &str) {
    let path = args.out_dir.join(format!(
        "trace_{}_{}{suffix}.jsonl",
        args.workload, args.seed
    ));
    match tr.write_jsonl(&path) {
        Ok(()) => eprintln!("{} spans -> {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}
