//! Traced replays: Algorithm 1's train step and Algorithm 2's reverse loop
//! rebuilt from the program's public calls, with a span around each call.
//!
//! Each replay performs exactly the arithmetic of `pristi_core::train` and
//! `pristi_core::impute` in the same order, so its outputs must equal theirs
//! bit for bit; the workloads check this and fail the traced run otherwise.

use crate::trace::Tracer;
use pristi_core::train::{MaskStrategyKind, TrainConfig, TrainedModel};
use pristi_core::{PreparedWindow, PriorCache, PristiConfig, PristiModel, Result, Sampler};
use st_data::interpolate::linear_interpolate;
use st_data::{MaskStrategy, Normalizer, SpatioTemporalDataset, Split};
use st_diffusion::process::ChainInit;
use st_diffusion::{add_reverse_noise_slice, q_sample, DiffusionSchedule};
use st_rand::{Rng, SeedableRng, SliceRandom, StdRng};
use st_tensor::graph::Graph;
use st_tensor::ndarray::NdArray;
use st_tensor::optim::{clip_grad_norm, pristi_lr, Adam};

/// What the traced training replay produced.
pub struct TrainReplay {
    /// Mean loss per epoch (must equal `TrainedModel::epoch_losses`).
    pub epoch_losses: Vec<f64>,
    /// Tape length after each training forward pass.
    pub tape_nodes: Vec<usize>,
    /// The trained parameters.
    pub model: PristiModel,
}

/// Replay `train(data, cfg, tc)` step by step. Root span per train step:
/// `train_step`, with children `st-data.batch_prep`,
/// `pristi-core.train_forward`, `st-tensor.backward` and `st-tensor.optim`.
pub fn train(
    data: &SpatioTemporalDataset,
    cfg: PristiConfig,
    tc: &TrainConfig,
    tr: &mut Tracer,
) -> Result<TrainReplay> {
    st_par::set_threads(tc.threads);
    let mut rng = StdRng::seed_from_u64(tc.seed);
    let normalizer = Normalizer::fit(data);
    let windows = data.windows(Split::Train, tc.window_len, tc.window_stride);
    let strategy = match tc.strategy {
        MaskStrategyKind::Point => MaskStrategy::Point,
        MaskStrategyKind::HybridBlock => MaskStrategy::HybridBlock,
        MaskStrategyKind::HybridHistorical => MaskStrategy::HybridHistorical {
            patterns: windows.iter().map(|w| w.observed.clone()).collect(),
        },
    };
    let schedule = DiffusionSchedule::new(cfg.schedule, cfg.t_steps, cfg.beta_min, cfg.beta_max);
    let use_interp = cfg.use_interpolation;
    let mut model = PristiModel::new(cfg, &data.graph, tc.window_len, &mut rng)?;
    let mut opt = Adam::new(tc.lr);
    let prepared: Vec<(NdArray, NdArray)> = windows
        .iter()
        .map(|w| {
            let mut z = w.values.clone();
            normalizer.normalize_window(&mut z);
            (z, w.cond_mask())
        })
        .collect();
    let (n, l) = (data.n_nodes(), tc.window_len);
    let mut order: Vec<usize> = (0..prepared.len()).collect();
    let mut epoch_losses = Vec::with_capacity(tc.epochs);
    let mut tape_nodes = Vec::new();
    let mut op = 0u64;
    for epoch in 0..tc.epochs {
        opt.lr = pristi_lr(tc.lr, epoch, tc.epochs);
        order.shuffle(&mut rng);
        let (mut loss_sum, mut batches) = (0.0f64, 0usize);
        for chunk in order.chunks(tc.batch_size) {
            let root = tr.begin("train_step", op);
            let b = chunk.len();

            let s = tr.begin("st-data.batch_prep", op);
            let drawn: Vec<(NdArray, usize, NdArray)> = chunk
                .iter()
                .map(|&wi| {
                    let target = strategy.sample(&prepared[wi].1, &mut rng);
                    let t_step = rng.random_range(1..=schedule.t_steps());
                    let eps = NdArray::randn(&[n, l], &mut rng);
                    (target, t_step, eps)
                })
                .collect();
            let samples = st_par::par_map("train_batch_prep", b, |bi| {
                let (target, t_step, eps) = &drawn[bi];
                let (values_z, cond_observed) = &prepared[chunk[bi]];
                let cond_train =
                    cond_observed
                        .zip_map(target, |o, t| if o > 0.0 && t == 0.0 { 1.0 } else { 0.0 });
                let x0 = values_z.mul(target);
                let cond_w = if use_interp {
                    linear_interpolate(values_z, &cond_train, 0.0)
                } else {
                    values_z.mul(&cond_train)
                };
                let x_t = q_sample(&x0, eps, &schedule, *t_step).mul(target);
                (*t_step, x_t, cond_w)
            });
            let mut noisy = NdArray::zeros(&[b, n, l]);
            let mut cond = NdArray::zeros(&[b, n, l]);
            let mut eps_all = NdArray::zeros(&[b, n, l]);
            let mut tmask = NdArray::zeros(&[b, n, l]);
            let mut steps = Vec::with_capacity(b);
            for (bi, ((t_step, x_t, cond_w), (target, _, eps))) in
                samples.into_iter().zip(drawn).enumerate()
            {
                steps.push(t_step);
                let base = bi * n * l;
                noisy.data_mut()[base..base + n * l].copy_from_slice(x_t.data());
                cond.data_mut()[base..base + n * l].copy_from_slice(cond_w.data());
                eps_all.data_mut()[base..base + n * l].copy_from_slice(eps.data());
                tmask.data_mut()[base..base + n * l].copy_from_slice(target.data());
            }
            tr.end(s);

            let (loss_val, mut grads) = {
                let mut g = Graph::new(&model.store);
                let s = tr.begin("pristi-core.train_forward", op);
                let noisy_tx = g.input(noisy);
                let cond_tx = g.input(cond);
                let eps_hat = model.predict_eps(&mut g, noisy_tx, cond_tx, &steps);
                let eps_tx = g.input(eps_all);
                let mask_tx = g.input(tmask);
                let loss = g.mse_masked(eps_hat, eps_tx, mask_tx);
                tr.end(s);
                tape_nodes.push(g.len());
                let loss_val = g.value(loss).data()[0] as f64;
                let s = tr.begin("st-tensor.backward", op);
                let grads = g.backward(loss);
                tr.end(s);
                (loss_val, grads)
            };
            let s = tr.begin("st-tensor.optim", op);
            clip_grad_norm(&mut grads, tc.clip_norm);
            opt.step(&mut model.store, &grads);
            tr.end(s);

            tr.end(root);
            loss_sum += loss_val;
            batches += 1;
            op += 1;
        }
        epoch_losses.push(loss_sum / batches.max(1) as f64);
    }
    Ok(TrainReplay {
        epoch_losses,
        tape_nodes,
        model,
    })
}

/// One request's conditioning for the reverse replay: the prepared window
/// plus the normalised values and conditioning mask it was built from
/// (`PreparedWindow` keeps those private).
pub struct ReplayInput<'a> {
    /// The prepared window (conditional and target mask).
    pub prep: &'a PreparedWindow,
    /// Normalised window values `[N, L]`.
    pub values_z: &'a NdArray,
    /// Conditioning mask `[N, L]`.
    pub cond_mask: &'a NdArray,
}

/// Replay one request's reverse pass (`impute` / `impute_prepared` with a
/// single request): spans `pristi-core.prior_build` (unless a cache is
/// given), then per network evaluation `pristi-core.eps_eval` and
/// `st-diffusion.step`, then `pristi-core.merge`. Returns the denormalised
/// samples and the number of network evaluations.
pub fn reverse(
    trained: &TrainedModel,
    input: &ReplayInput<'_>,
    n_samples: usize,
    sampler: Sampler,
    rng: &mut StdRng,
    prior: Option<&PriorCache>,
    tr: &mut Tracer,
    op: u64,
) -> (Vec<NdArray>, usize) {
    let (n, l) = (trained.model.n_nodes(), trained.model.window_len());
    let mut solver = sampler.solver();
    solver.reset();
    let pairs = solver.timesteps(&trained.schedule);
    let prep = input.prep;

    let mut cond_b = NdArray::zeros(&[n_samples, n, l]);
    let mut tmask_b = NdArray::zeros(&[n_samples, n, l]);
    for s in 0..n_samples {
        cond_b.data_mut()[s * n * l..(s + 1) * n * l].copy_from_slice(prep.cond().data());
        tmask_b.data_mut()[s * n * l..(s + 1) * n * l].copy_from_slice(prep.target_mask().data());
    }

    let built;
    let cache = match prior {
        Some(c) => c,
        None => {
            let s = tr.begin("pristi-core.prior_build", op);
            built = prep.build_prior(trained, n_samples);
            tr.end(s);
            &built
        }
    };

    let mut x = NdArray::randn(&[n_samples, n, l], rng);
    if let ChainInit::NoisedPrior { t_start } = solver.init(&trained.schedule) {
        let ab = trained.schedule.alpha_bar(t_start);
        let (a, b) = (ab.sqrt() as f32, (1.0 - ab).sqrt() as f32);
        x = cond_b.zip_map(&x, |p, z| a * p + b * z);
    }
    x = x.mul(&tmask_b);
    for &(t, t_prev) in &pairs {
        let s = tr.begin("pristi-core.eps_eval", op);
        let eps_hat = trained.model.predict_eps_eval_cached(cache, &x, t);
        tr.end(s);
        let s = tr.begin("st-diffusion.step", op);
        let step = solver.step(&x, &eps_hat, &trained.schedule, t, t_prev);
        let mut next = step.mean;
        add_reverse_noise_slice(next.data_mut(), step.noise_scale, rng);
        x = next.mul(&tmask_b);
        tr.end(s);
    }

    let s = tr.begin("pristi-core.merge", op);
    let cond_part = input.values_z.mul(input.cond_mask);
    let xd = x.data();
    let samples = st_par::par_map("denorm_samples", n_samples, |si| {
        let sample = NdArray::from_vec(&[n, l], xd[si * n * l..(si + 1) * n * l].to_vec());
        let mut merged = sample.mul(prep.target_mask()).add(&cond_part);
        trained.normalizer.denormalize_window(&mut merged);
        merged
    });
    tr.end(s);
    (samples, pairs.len())
}

/// Bitwise equality of two sample ensembles.
pub fn same_bits(a: &[NdArray], b: &[NdArray]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.shape() == y.shape()
                && x.data()
                    .iter()
                    .zip(y.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}
