//! `train_eval`: Algorithm 1 training then Algorithm 2 ensemble imputation of
//! every held-out window, called in process.
//!
//! Why: the workload where backward, the optimizer and the autodiff tape do
//! most of the work (`serve` and `stream` train only a small serving model at
//! set-up); and the eval ensemble (S=32) sits past the tensor pool's
//! working-set cliff, so memory and kernel changes show here first.

use crate::inputs::{aqi_panel, model_config, sub_seed};
use crate::replay::{self, ReplayInput};
use crate::report::Report;
use crate::stats::{median, Scores};
use crate::trace::Tracer;
use crate::{pool_delta, set_reverse_layers, Args};
use pristi_core::train::{train, MaskStrategyKind, TrainConfig, TrainedModel};
use pristi_core::{impute, ImputationResult, ImputeOptions, PreparedWindow, Sampler};
use st_data::{SpatioTemporalDataset, Split, Window};
use st_rand::{SeedableRng, StdRng};
use st_tensor::NdArray;
use std::time::Instant;

/// Window length.
pub const WINDOW: usize = 36;
/// Simulated days of the AQI-like panel (hourly steps).
pub const DAYS: usize = 30;
/// Fixed epoch budget.
pub const EPOCHS: usize = 3;
/// Stride between training windows.
pub const STRIDE: usize = 6;
/// Stride between held-out windows: half a window, so the evaluation
/// imputes 7 windows (overlapping; a cell may be scored twice) in place of
/// 4, and `lo.p50_ms` is a median over 7 window times.
pub const EVAL_STRIDE: usize = WINDOW / 2;
/// Eval ensemble size.
pub const SAMPLES: usize = 32;
/// Eval sampler.
pub const SAMPLER: Sampler = Sampler::Ddim {
    steps: 10,
    eta: 0.0,
};
/// Set-ups per run, in three equal groups: before training, between
/// training and evaluation, and after evaluation; `setup_s` is their median.
/// One takes about 10 ms, so a group taken at one moment follows the host's
/// pace at that moment: nine set-ups in a row moved the median of ten runs
/// by a fifth from one set of runs to the next.
pub const SETUPS: usize = 33;

fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        batch_size: 8,
        window_len: WINDOW,
        window_stride: STRIDE,
        strategy: MaskStrategyKind::HybridHistorical,
        seed: sub_seed(seed, 5),
        ..Default::default()
    }
}

fn window_rng(seed: u64, wi: usize) -> StdRng {
    StdRng::seed_from_u64(sub_seed(seed, 1000 + wi as u64))
}

/// Output checks of one eval window: finite, median equal to the input on
/// every conditioned cell, `q05 ≤ median ≤ q95`.
fn check_window(w: &Window, med: &NdArray, q05: &NdArray, q95: &NdArray) -> Result<(), String> {
    let cond = w.cond_mask();
    for i in 0..med.numel() {
        let (m, lo, hi) = (med.data()[i], q05.data()[i], q95.data()[i]);
        if !(m.is_finite() && lo.is_finite() && hi.is_finite()) {
            return Err(format!("non-finite output at cell {i}"));
        }
        if lo > m || m > hi {
            return Err(format!("quantiles out of order at cell {i}: {lo} {m} {hi}"));
        }
        let v = w.values.data()[i];
        if cond.data()[i] > 0.0 && (m - v).abs() > 1e-3 * v.abs().max(1.0) {
            return Err(format!("observed cell {i} changed: {v} -> {m}"));
        }
    }
    Ok(())
}

struct Eval {
    results: Vec<ImputationResult>,
    secs: f64,
    /// Per window: wall time of `impute` and the quantiles, ms.
    window_ms: Vec<f64>,
    scores: Scores,
    failed: u64,
}

fn evaluate(trained: &TrainedModel, windows: &[Window], seed: u64, rep: &mut Report) -> Eval {
    let opts = ImputeOptions {
        n_samples: SAMPLES,
        sampler: SAMPLER,
    };
    let (mut scores, mut failed, mut results) = (Scores::default(), 0, Vec::new());
    let mut window_ms = Vec::with_capacity(windows.len());
    let t = Instant::now();
    for (wi, w) in windows.iter().enumerate() {
        let tw = Instant::now();
        let outcome = impute(trained, w, &opts, &mut window_rng(seed, wi))
            .map_err(|e| e.to_string())
            .and_then(|res| {
                let (med, q05, q95) = (res.median(), res.quantile(0.05), res.quantile(0.95));
                window_ms.push(tw.elapsed().as_secs_f64() * 1e3);
                check_window(w, &med, &q05, &q95)?;
                scores.add_ensemble(
                    &res.samples_flat(),
                    SAMPLES,
                    med.data(),
                    w.values.data(),
                    w.eval.data(),
                );
                Ok(res)
            });
        match outcome {
            Ok(res) => results.push(res),
            Err(e) => {
                failed += 1;
                rep.check(false, || format!("eval window {wi}: {e}"));
            }
        }
    }
    Eval {
        results,
        secs: t.elapsed().as_secs_f64(),
        window_ms,
        scores,
        failed,
    }
}

/// One group of set-ups: generate the panel `SETUPS / 3` times, timing each.
fn setup(seed: u64, times: &mut Vec<f64>) -> SpatioTemporalDataset {
    let mut data = None;
    for _ in 0..SETUPS / 3 {
        let t = Instant::now();
        data = Some(aqi_panel(seed, DAYS));
        times.push(t.elapsed().as_secs_f64());
    }
    data.expect("at least one set-up")
}

/// Run the workload.
pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let mut setup_times = Vec::with_capacity(SETUPS);
    let data = setup(args.seed, &mut setup_times);
    let tc = train_config(args.seed);
    let windows = data.windows(Split::Test, WINDOW, EVAL_STRIDE);
    let n_train = data.windows(Split::Train, WINDOW, STRIDE).len();
    let steps = EPOCHS * n_train.div_ceil(tc.batch_size);
    rep.attempted = (steps + windows.len()) as u64;

    let pool0 = st_tensor::pool::stats();
    let t = Instant::now();
    let trained = train(&data, model_config(), &tc).map_err(|e| e.to_string())?;
    let train_s = t.elapsed().as_secs_f64();
    let pool1 = st_tensor::pool::stats();
    let loss = *trained.epoch_losses.last().expect("at least one epoch");
    rep.check(loss.is_finite(), || format!("training loss is {loss}"));
    setup(args.seed, &mut setup_times);
    let pool_eval = st_tensor::pool::stats();
    let eval = evaluate(&trained, &windows, args.seed, rep);
    let pool2 = st_tensor::pool::stats();
    setup(args.seed, &mut setup_times);
    rep.failed = eval.failed + u64::from(!loss.is_finite());
    eprintln!(
        "train_eval: {} train windows x {EPOCHS} epochs in {train_s:.3} s; {} eval windows in {:.3} s; {} cells scored",
        n_train,
        windows.len(),
        eval.secs,
        eval.scores.cells()
    );

    if !args.trace {
        rep.set("setup_s", median(&setup_times));
        rep.set(
            "peak_rss_mb",
            crate::client::vm_hwm_mib("/proc/self/status").unwrap_or(f64::NAN),
        );
        rep.set("train_windows_per_s", (n_train * EPOCHS) as f64 / train_s);
        rep.set("train_loss", loss);
        rep.set("capacity_rps", windows.len() as f64 / eval.secs);
        rep.set("lo.p50_ms", median(&eval.window_ms));
        rep.set("heldout_crps", eval.scores.crps());
        rep.set("heldout_mae", eval.scores.mae());
        return Ok(());
    }

    // Traced replays of the same training and evaluation.
    let mut tr = Tracer::new();
    crate::set_train_layers(rep, &data, &tc, &trained, (pool0, pool1), &mut tr)?;

    let mut nfe = Vec::new();
    for (wi, w) in windows.iter().enumerate() {
        let op = 1_000_000 + wi as u64;
        let root = tr.begin("pristi-core.impute", op);
        let s = tr.begin("pristi-core.cond_prep", op);
        let prep = PreparedWindow::prepare(&trained, w).map_err(|e| e.to_string())?;
        let mut values_z = w.values.clone();
        trained.normalizer.normalize_window(&mut values_z);
        let cond_mask = w.cond_mask();
        tr.end(s);
        let input = ReplayInput {
            prep: &prep,
            values_z: &values_z,
            cond_mask: &cond_mask,
        };
        let (samples, k) = replay::reverse(
            &trained,
            &input,
            SAMPLES,
            SAMPLER,
            &mut window_rng(args.seed, wi),
            None,
            &mut tr,
            op,
        );
        nfe.push(k as f64);
        let s = tr.begin("pristi-core.quantile", op);
        let res = ImputationResult::new(samples, prep.target_mask().clone());
        let _ = (res.median(), res.quantile(0.05), res.quantile(0.95));
        tr.end(s);
        tr.end(root);
        if let Some(reference) = eval.results.get(wi) {
            rep.check(replay::same_bits(&res.samples, &reference.samples), || {
                format!("eval replay of window {wi} differs from impute()")
            });
        }
    }

    let prep = PreparedWindow::prepare(&trained, &windows[0]).map_err(|e| e.to_string())?;
    let cache = prep.build_prior(&trained, SAMPLES);
    rep.set(
        "pristi-core.prior_cache_mb",
        cache.bytes() as f64 / (1 << 20) as f64,
    );
    rep.set(
        "st-par.speedup",
        crate::par_speedup(&trained, &cache, args.seed),
    );
    let (hit, miss) = pool_delta(pool_eval, pool2);
    rep.set("st-tensor.pool_hit_ratio.impute", hit);
    rep.set("st-tensor.pool_misses.impute", miss);
    rep.set("st-diffusion.nfe", median(&nfe));
    set_reverse_layers(rep, &tr);
    rep.set("st-serve.failed", rep.failed as f64);
    crate::set_absent(
        rep,
        &[
            "st-data.slide_us",
            "st-serve.submit_ms",
            "st-serve.service_overhead_ms",
            "st-serve.tick_impute_ms",
            "st-serve.tick_skip_ms",
            "st-serve.impute_share",
            "pristi.frontend_ms",
            "pristi.wait_ms",
        ],
    );
    rep.set("trace.untraced_total_s", train_s + eval.secs);
    crate::write_trace(args, &tr, "");
    Ok(())
}
