//! `stream`: 8 sessions tick held-out readings into
//! `pristi serve --stream --ckpt M --workers 2` on a fixed cadence.
//!
//! Why: the only workload that runs `SlidingInterp`, prior reuse, the skip
//! path and the reorder buffer. At the seed the server withholds every
//! response until stdin closes, so each phase runs its own server and a
//! tick's latency includes the wait for the end of its phase.

use crate::client::{Phase, Server};
use crate::inputs::{
    serving_model, serving_train_config, stream_feed, sub_seed, tick_line, ServingModel,
    StreamFeed, SESSIONS,
};
use crate::replay::{self, ReplayInput};
use crate::report::Report;
use crate::stats::{fnv1a, median, percentile_of, Latency, Scores};
use crate::trace::Tracer;
use crate::{pool_delta, self_ms, set_reverse_layers, Args, LADDER};
use pristi_core::train::TrainedModel;
use pristi_core::{ImputationResult, PreparedWindow, Sampler};
use st_data::{SlidingInterp, SpatioTemporalDataset};
use st_obs::json::{self, Json};
use st_rand::{SeedableRng, StdRng};
use st_serve::{load_checkpoint, stream_rng, StreamConfig, StreamSession, TickOutput};
use st_tensor::NdArray;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` and `train_windows_per_s` are their medians.
/// One trains for about a second, so the median of three still spread 0.2
/// over ten runs.
pub const SETUPS: usize = 5;
/// Lowest rung (ticks per second over all sessions), about a third of the
/// seed's capacity; rung `k` offers `LO_TPS · LADDER[k]`, rung 1 is the high
/// rate.
pub const LO_TPS: f64 = 20.0;
/// Length of every rate phase, seconds.
pub const PHASE_S: f64 = 2.5;
/// Latency limit on the tail percentile. It sits above `PHASE_S` because the
/// seed answers nothing before EOF; see README.md.
pub const LIMIT_MS: f64 = 4000.0;
/// Writer lateness (p90, ms) beyond which a measured rung is invalid: the
/// generator fell behind. The p90, not the p99, so that a single stall of
/// the host's vCPU does not void a run; stderr shows the p99 and the maximum.
pub const LATE_BOUND_MS: f64 = 25.0;
/// Ticks per session written back to back in one capacity round.
pub const CAPACITY_TICKS: usize = 36;
/// Capacity rounds, each against a fresh server; `capacity_rps` is their
/// median. Their settled cells are most of what `heldout_mae` and
/// `heldout_crps` score: with three rounds of 24 ticks the scores' spread
/// over five seeds was 0.11–0.12, with four of 36 it was 0.04–0.07.
pub const CAPACITY_ROUNDS: usize = 3;
/// The server's defaults, which the workload keeps: ensemble, sampler,
/// revision horizon and seed.
pub const SESSION: StreamConfig = StreamConfig {
    n_samples: 8,
    sampler: Sampler::Pndm { steps: 4, order: 4 },
    horizon: 4,
    base_seed: 0,
};

/// Start a stream server and wait for its stderr ready banner (it sends
/// nothing on stdout before EOF).
fn start(args: &Args, ckpt: &Path) -> Result<Server, String> {
    let ckpt = ckpt.display().to_string();
    let mut server = Server::spawn(
        &args.pristi,
        &[
            "serve",
            "--stream",
            "--ckpt",
            &ckpt,
            "--workers",
            crate::WORKERS,
        ],
    )
    .map_err(|e| format!("spawn {}: {e}", args.pristi.display()))?;
    server.wait_banner("streaming").map_err(|e| e.to_string())?;
    Ok(server)
}

/// One phase's checked outcome.
struct PhaseOutcome {
    lat: Option<Latency>,
    pass: bool,
    completions_per_s: f64,
    late_p90: f64,
    failed: u64,
    imputed: usize,
    /// Parsed responses in schedule order (`None` when missing or bad).
    responses: Vec<Option<Json>>,
    phase: Phase,
    peak_rss_mib: Option<f64>,
}

/// Check one response: ok, right session and step, monotone watermark,
/// revisions only for cells the feed left null and only within the horizon.
fn check_tick(
    obj: &Json,
    feed: &StreamFeed,
    s: usize,
    k: usize,
    last_wm: &mut [u64],
) -> Result<bool, String> {
    if !matches!(obj.get("ok"), Some(Json::Bool(true))) {
        return Err(format!("not ok: {:?}", obj.get("error")));
    }
    let get = |key: &str| {
        obj.get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("missing {key}"))
    };
    if get("session")? != s as u64 || get("step")? != k as u64 {
        return Err(format!(
            "answer for session {} step {} in place of {s}/{k}",
            get("session")?,
            get("step")?
        ));
    }
    let wm = get("watermark")?;
    if wm < last_wm[s] {
        return Err(format!("watermark fell from {} to {wm}", last_wm[s]));
    }
    last_wm[s] = wm;
    for r in obj
        .get("revisions")
        .and_then(Json::as_arr)
        .ok_or("missing revisions")?
    {
        let node = r
            .get("node")
            .and_then(Json::as_u64)
            .ok_or("revision without node")? as usize;
        let step = r
            .get("step")
            .and_then(Json::as_u64)
            .ok_or("revision without step")?;
        if step < wm || step > k as u64 {
            return Err(format!(
                "revision of step {step} outside the horizon [{wm}, {k}]"
            ));
        }
        if feed.cells[s]
            .get(step as usize)
            .and_then(|c| c.get(node))
            .is_none_or(|c| c.is_some())
        {
            return Err(format!(
                "revision of node {node} step {step}, which the feed sent"
            ));
        }
        let q = |key: &str| {
            r.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("revision without finite {key}"))
        };
        let (q05, q50, q95) = (q("q05")?, q("q50")?, q("q95")?);
        if q05 > q50 || q50 > q95 {
            return Err(format!(
                "revision quantiles out of order: {q05} {q50} {q95}"
            ));
        }
    }
    Ok(matches!(obj.get("imputed"), Some(Json::Bool(true))))
}

/// Run one phase against a fresh server: ticks at their due times, then EOF.
fn drive(
    args: &Args,
    ckpt: &Path,
    feed: &StreamFeed,
    due: &[f64],
    rep: &mut Report,
) -> Result<PhaseOutcome, String> {
    let mut server = start(args, ckpt)?;
    let lines: Vec<(f64, String)> = feed
        .schedule
        .iter()
        .zip(due)
        .enumerate()
        .map(|(id, (&(_, s, k), &d))| (d, tick_line(id as u64, s, &feed.cells[s][k])))
        .collect();
    let timeout = Duration::from_secs_f64(due.last().copied().unwrap_or(0.0) + 60.0);
    let phase = server
        .phase(&lines, None, true, timeout)
        .map_err(|e| e.to_string())?;
    let peak_rss_mib = phase.peak_rss_mib;
    rep.check(server.finish().map_err(|e| e.to_string())?, || {
        "stream server exited with an error".into()
    });
    if let Some(e) = &phase.write_error {
        return Err(format!("stream server stopped reading: {e}"));
    }
    let n = lines.len();
    let mut lat = vec![f64::INFINITY; n];
    let mut responses: Vec<Option<Json>> = (0..n).map(|_| None).collect();
    let mut last_wm = vec![0u64; SESSIONS];
    let mut imputed = 0;
    rep.check(phase.responses.len() == n, || {
        format!("{} responses to {n} ticks", phase.responses.len())
    });
    for (i, (at, line)) in phase.responses.iter().enumerate().take(n) {
        let (_, s, k) = feed.schedule[i];
        let checked = json::parse(line)
            .map_err(|e| format!("unparseable: {e}"))
            .and_then(|obj| {
                if obj.get("id").and_then(Json::as_u64) != Some(i as u64) {
                    return Err(format!("response {i} out of input order: {line:.60}"));
                }
                let was_imputed = check_tick(&obj, feed, s, k, &mut last_wm)?;
                Ok((obj, was_imputed))
            });
        match checked {
            Ok((obj, was_imputed)) => {
                lat[i] = phase.since_due_ms(due[i], *at);
                imputed += usize::from(was_imputed);
                responses[i] = Some(obj);
            }
            Err(e) => rep.check(false, || format!("tick {i}: {e}")),
        }
    }
    let failed = lat.iter().filter(|v| !v.is_finite()).count() as u64;
    let summary = Latency::of(&lat);
    let last_due = due.last().copied().unwrap_or(0.0);
    let last = phase
        .responses
        .iter()
        .map(|(t, _)| *t)
        .max()
        .unwrap_or(phase.start);
    let drain_ms = phase.since_due_ms(last_due, last);
    let pass = failed == 0
        && summary.is_some_and(|s| s.tail <= LIMIT_MS)
        && !crate::backlog_grew(&phase, last_due, last);
    let completions_per_s =
        (n as u64 - failed) as f64 / last.duration_since(phase.start).as_secs_f64().max(1e-9);
    let late_p90 = percentile_of(&phase.lateness_ms, 90.0);
    eprintln!(
        "stream phase {:.1} tps: n={n} p50={:.1} ms p{}={:.1} ms (beyond {}), drain {drain_ms:.1} ms, imputed {imputed}/{n}, failed={failed}, {:.2} done/s, writer late p90 {late_p90:.2} ms p99 {:.2} ms -> {}",
        n as f64 / PHASE_S,
        summary.map_or(f64::NAN, |s| s.p50),
        summary.map_or(f64::NAN, |s| s.tail_pct),
        summary.map_or(f64::NAN, |s| s.tail),
        summary.map_or(0, |s| s.beyond),
        completions_per_s,
        percentile_of(&phase.lateness_ms, 99.0),
        if pass { "meets limit" } else { "misses limit" }
    );
    Ok(PhaseOutcome {
        lat: summary,
        pass,
        completions_per_s,
        late_p90,
        failed,
        imputed,
        responses,
        phase,
        peak_rss_mib,
    })
}

/// Score the settled quantiles (last revision of each cell below the final
/// watermark) against the truth.
fn score(scores: &mut Scores, feed: &StreamFeed, out: &PhaseOutcome) {
    let mut settled: HashMap<(usize, u64, usize), [f32; 3]> = HashMap::new();
    let mut final_wm = [0u64; SESSIONS];
    for (i, obj) in out.responses.iter().enumerate() {
        let Some(obj) = obj else { continue };
        let s = feed.schedule[i].1;
        final_wm[s] = obj.get("watermark").and_then(Json::as_u64).unwrap_or(0);
        for r in obj.get("revisions").and_then(Json::as_arr).unwrap_or(&[]) {
            let q = |key: &str| r.get(key).and_then(Json::as_f64).map(|v| v as f32);
            let (Some(node), Some(step), Some(q05), Some(q50), Some(q95)) = (
                r.get("node").and_then(Json::as_u64),
                r.get("step").and_then(Json::as_u64),
                q("q05"),
                q("q50"),
                q("q95"),
            ) else {
                continue;
            };
            settled.insert((s, step, node as usize), [q05, q50, q95]);
        }
    }
    let mut keys: Vec<_> = settled
        .keys()
        .copied()
        .filter(|&(s, step, _)| step < final_wm[s])
        .collect();
    keys.sort_unstable();
    for (s, step, node) in keys {
        let [q05, q50, q95] = settled[&(s, step, node)];
        scores.add_quantiles(
            [&[q05], &[q50], &[q95]],
            &[feed.truth[s][step as usize][node]],
            &[1.0],
        );
    }
}

fn phase_input(
    data: &SpatioTemporalDataset,
    seed: u64,
    k: usize,
    rate: f64,
    ticks: usize,
) -> (StreamFeed, Vec<f64>) {
    let feed = stream_feed(
        data,
        ticks,
        rate,
        &mut StdRng::seed_from_u64(sub_seed(seed, 60 + k as u64)),
    );
    let due = feed.schedule.iter().map(|&(d, _, _)| d).collect();
    (feed, due)
}

fn ckpt_path(args: &Args) -> PathBuf {
    args.out_dir.join(format!("stream_{}.ckpt", args.seed))
}

/// Run the workload.
pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let ckpt = ckpt_path(args);
    let (mut setup_times, mut train_rates) = (Vec::new(), Vec::new());
    let mut model = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        let t = Instant::now();
        let m = serving_model(&ckpt)?;
        let server = start(args, &ckpt)?;
        setup_times.push(t.elapsed().as_secs_f64());
        train_rates.push(m.train_windows_per_s);
        model = Some(m);
        rep.check(server.finish().map_err(|e| e.to_string())?, || {
            "stream server exited with an error".into()
        });
    }
    let model = model.expect("at least one set-up");
    let data = &model.data;
    let ticks = |rate: f64| ((rate * PHASE_S / SESSIONS as f64).round() as usize).max(1);
    let mut phases = Vec::new();
    let mut digest = Vec::new();
    let mut scores = Scores::default();
    let (mut valid, mut slo, mut peak) = (true, 0.0, 0.0f64);
    for (k, &step) in LADDER
        .iter()
        .enumerate()
        .take(if args.trace { 1 } else { LADDER.len() })
    {
        let rate = LO_TPS * step;
        let (feed, due) = phase_input(data, args.seed, k, rate, ticks(rate));
        digest.extend(due.iter().flat_map(|d| d.to_le_bytes()));
        let out = drive(args, &ckpt, &feed, &due, rep)?;
        rep.attempted += due.len() as u64;
        rep.failed += out.failed;
        peak = peak.max(out.peak_rss_mib.unwrap_or(0.0));
        if k < 2 {
            score(&mut scores, &feed, &out);
        }
        if (k < 2 || out.pass) && out.late_p90 > LATE_BOUND_MS {
            valid = false;
        }
        if out.pass
            && phases
                .iter()
                .all(|(_, _, o): &(StreamFeed, Vec<f64>, PhaseOutcome)| o.pass)
        {
            slo = out.completions_per_s;
        }
        let stop = !out.pass && k >= 1;
        phases.push((feed, due, out));
        if stop {
            break;
        }
    }
    eprintln!("stream: schedule digest {:016x}", fnv1a(&digest));
    rep.check(valid, || format!("generator fell behind: writer lateness p90 above {LATE_BOUND_MS} ms on a measured rung"));

    if args.trace {
        return traced(args, rep, &model, &ckpt, &phases[0]);
    }

    let (mut capacity, mut cap_share) = (Vec::new(), Vec::new());
    for c in 0..CAPACITY_ROUNDS {
        let (feed, _) = phase_input(data, args.seed, 90 + c, f64::INFINITY, CAPACITY_TICKS);
        let due = vec![0.0; feed.schedule.len()];
        let cap = drive(args, &ckpt, &feed, &due, rep)?;
        rep.attempted += due.len() as u64;
        rep.failed += cap.failed;
        peak = peak.max(cap.peak_rss_mib.unwrap_or(0.0));
        score(&mut scores, &feed, &cap);
        capacity.push(cap.completions_per_s);
        cap_share.push(cap.imputed as f64 / due.len() as f64);
    }

    let (lo, hi) = (&phases[0].2, &phases[1].2);
    let show = |s: Option<Latency>| {
        s.map_or_else(
            || "-".into(),
            |s| format!("p50 {:.1} ms, p{} {:.1} ms", s.p50, s.tail_pct, s.tail),
        )
    };
    eprintln!(
        "stream (not gated): lo {}; hi {}; slo {slo:.2}/s; capacity rounds {capacity:.2?}; imputed share lo {:.3} hi {:.3} capacity {cap_share:.3?}",
        show(lo.lat),
        show(hi.lat),
        lo.imputed as f64 / phases[0].1.len() as f64,
        hi.imputed as f64 / phases[1].1.len() as f64,
    );
    rep.set("setup_s", median(&setup_times));
    rep.set("peak_rss_mb", if peak > 0.0 { peak } else { f64::NAN });
    rep.set("train_windows_per_s", median(&train_rates));
    rep.set(
        "train_loss",
        *model
            .trained
            .epoch_losses
            .last()
            .expect("at least one epoch"),
    );
    rep.set("capacity_rps", median(&capacity));
    rep.set("lo.p50_ms", lo.lat.map_or(f64::NAN, |s| s.p50));
    rep.set("heldout_crps", scores.crps());
    rep.set("heldout_mae", scores.mae());
    Ok(())
}

/// A replica of one stream session built from public calls, so a tick can
/// be decomposed into layers.
struct Replica {
    values_z: NdArray,
    cond_mask: NdArray,
    interp: SlidingInterp,
    ticks: u64,
    seq: u64,
}

impl Replica {
    fn new(trained: &TrainedModel) -> Self {
        let (n, l) = (trained.model.n_nodes(), trained.model.window_len());
        let mut values_z = NdArray::zeros(&[n, l]);
        for i in 0..n {
            let z = trained.normalizer.normalize_value(i, 0.0);
            values_z.data_mut()[i * l..(i + 1) * l].fill(z);
        }
        Self {
            values_z,
            cond_mask: NdArray::zeros(&[n, l]),
            interp: SlidingInterp::new(n, l, 0.0),
            ticks: 0,
            seq: 0,
        }
    }

    /// One data tick, traced; returns `(imputed, [(node, step, q05, q50, q95)])`.
    fn tick(
        &mut self,
        trained: &TrainedModel,
        session: u64,
        cells: &[Option<f32>],
        tr: &mut Tracer,
        op: u64,
    ) -> (bool, Vec<(usize, u64, [f32; 3])>) {
        let (n, l) = (trained.model.n_nodes(), trained.model.window_len());
        let zvals: Vec<f32> = (0..n)
            .map(|i| {
                trained
                    .normalizer
                    .normalize_value(i, cells[i].unwrap_or(0.0))
            })
            .collect();
        let observed: Vec<bool> = cells.iter().map(Option::is_some).collect();
        for i in 0..n {
            let row = &mut self.values_z.data_mut()[i * l..(i + 1) * l];
            row.copy_within(1.., 0);
            row[l - 1] = zvals[i];
            let row = &mut self.cond_mask.data_mut()[i * l..(i + 1) * l];
            row.copy_within(1.., 0);
            row[l - 1] = f32::from(u8::from(observed[i]));
        }
        let s = tr.begin("st-data.slide", op);
        self.interp.shift(&zvals, &observed);
        tr.end(s);
        self.ticks += 1;
        let newest = self.ticks - 1;
        let h = SESSION.horizon.min(self.ticks as usize);
        let abs = |col: usize| newest.checked_sub((l - 1 - col) as u64);
        let gaps: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| ((l - h)..l).map(move |c| (i, c)))
            .filter(|&(i, c)| self.cond_mask.data()[i * l + c] == 0.0 && abs(c).is_some())
            .collect();
        if gaps.is_empty() {
            return (false, Vec::new());
        }
        let root = tr.begin("pristi-core.impute", op);
        let s = tr.begin("pristi-core.cond_prep", op);
        let prep = PreparedWindow::from_parts(
            trained,
            self.values_z.clone(),
            self.cond_mask.clone(),
            Some(self.interp.cond()),
        )
        .expect("replica window matches the model");
        tr.end(s);
        let mut rng = stream_rng(SESSION.base_seed, session, self.seq);
        self.seq += 1;
        let input = ReplayInput {
            prep: &prep,
            values_z: &self.values_z,
            cond_mask: &self.cond_mask,
        };
        let (samples, _) = replay::reverse(
            trained,
            &input,
            SESSION.n_samples,
            SESSION.sampler,
            &mut rng,
            None,
            tr,
            op,
        );
        let s = tr.begin("pristi-core.quantile", op);
        let res = ImputationResult::new(samples, prep.target_mask().clone());
        let (q05, q50, q95) = (res.quantile(0.05), res.quantile(0.5), res.quantile(0.95));
        tr.end(s);
        tr.end(root);
        let revs = gaps
            .into_iter()
            .map(|(i, c)| {
                (
                    i,
                    abs(c).expect("open gaps are never padding"),
                    [
                        q05.data()[i * l + c],
                        q50.data()[i * l + c],
                        q95.data()[i * l + c],
                    ],
                )
            })
            .collect();
        (true, revs)
    }
}

fn same_output(out: &TickOutput, imputed: bool, revs: &[(usize, u64, [f32; 3])]) -> bool {
    out.imputed == imputed
        && out.revisions.len() == revs.len()
        && out.revisions.iter().zip(revs).all(|(r, (node, step, q))| {
            r.node == *node
                && r.step == *step
                && [r.q05, r.q50, r.q95]
                    .iter()
                    .zip(q)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        })
}

fn served_matches(obj: Option<&Json>, out: &TickOutput) -> bool {
    let Some(revs) = obj.and_then(|o| o.get("revisions")).and_then(Json::as_arr) else {
        return false;
    };
    revs.len() == out.revisions.len()
        && revs.iter().zip(&out.revisions).all(|(j, r)| {
            let q = |k: &str| {
                j.get(k)
                    .and_then(Json::as_f64)
                    .map(|v| (v as f32).to_bits())
            };
            q("q05") == Some(r.q05.to_bits())
                && q("q50") == Some(r.q50.to_bits())
                && q("q95") == Some(r.q95.to_bits())
        })
}

/// The traced run: the low rung was driven against the binary; replay its
/// feed through in-process `StreamSession`s (service time per tick) and
/// through the decomposed replica, and check both against the answers.
fn traced(
    args: &Args,
    rep: &mut Report,
    model: &ServingModel,
    ckpt: &Path,
    lo: &(StreamFeed, Vec<f64>, PhaseOutcome),
) -> Result<(), String> {
    let (feed, _, out) = lo;
    let mut train_tr = Tracer::new();
    crate::set_train_layers(
        rep,
        &model.data,
        &serving_train_config(),
        &model.trained,
        model.pool,
        &mut train_tr,
    )?;
    let trained = Arc::new(load_checkpoint(ckpt).map_err(|e| e.to_string())?);
    let mut sessions: Vec<StreamSession> = (0..SESSIONS)
        .map(|s| StreamSession::new(Arc::clone(&trained), SESSION, s as u64))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let pool0 = st_tensor::pool::stats();
    let (mut impute_ms, mut skip_ms, mut failed) = (Vec::new(), Vec::new(), 0u64);
    let mut outputs = Vec::with_capacity(feed.schedule.len());
    for (i, &(_, s, k)) in feed.schedule.iter().enumerate() {
        let t = Instant::now();
        let res = sessions[s].data_tick(&feed.cells[s][k]);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match res {
            Ok(o) => {
                if o.imputed {
                    impute_ms.push(ms)
                } else {
                    skip_ms.push(ms)
                }
                rep.check(served_matches(out.responses[i].as_ref(), &o), || {
                    format!("tick {i}: StreamSession differs from the served response")
                });
                outputs.push(Some(o));
            }
            Err(e) => {
                failed += 1;
                rep.check(false, || format!("tick {i}: {e}"));
                outputs.push(None);
            }
        }
    }
    let pool1 = st_tensor::pool::stats();

    let mut tr = Tracer::new();
    let mut replicas: Vec<Replica> = (0..SESSIONS).map(|_| Replica::new(&trained)).collect();
    for (i, &(_, s, k)) in feed.schedule.iter().enumerate() {
        let root = tr.begin("stream.tick", i as u64);
        let (imputed, revs) =
            replicas[s].tick(&trained, s as u64, &feed.cells[s][k], &mut tr, i as u64);
        tr.end(root);
        let same = outputs[i]
            .as_ref()
            .is_some_and(|o| same_output(o, imputed, &revs));
        rep.check(same, || {
            format!("tick {i}: replica differs from StreamSession::data_tick")
        });
    }

    let ticks = feed.schedule.len();
    let (hit, miss) = pool_delta(pool0, pool1);
    let all_ticks: Vec<f64> = impute_ms.iter().chain(&skip_ms).copied().collect();
    let nfe = SESSION.sampler.solver().timesteps(&trained.schedule).len();
    let cache = PreparedWindow::from_parts(
        &trained,
        replicas[0].values_z.clone(),
        replicas[0].cond_mask.clone(),
        Some(replicas[0].interp.cond()),
    )
    .map_err(|e| e.to_string())?
    .build_prior(&trained, SESSION.n_samples);
    rep.set("st-data.slide_us", self_ms(&tr, "st-data.slide") * 1e3);
    rep.set("st-tensor.pool_hit_ratio.impute", hit);
    rep.set("st-tensor.pool_misses.impute", miss);
    rep.set("st-diffusion.nfe", nfe as f64);
    rep.set(
        "pristi-core.prior_cache_mb",
        cache.bytes() as f64 / (1 << 20) as f64,
    );
    rep.set(
        "st-par.speedup",
        crate::par_speedup(&trained, &cache, args.seed),
    );
    set_reverse_layers(rep, &tr);
    rep.set("st-serve.tick_impute_ms", median(&impute_ms));
    rep.set("st-serve.tick_skip_ms", median(&skip_ms));
    rep.set(
        "st-serve.impute_share",
        impute_ms.len() as f64 / ticks.max(1) as f64,
    );
    rep.set("st-serve.failed", (failed + out.failed) as f64);
    rep.set(
        "pristi.wait_ms",
        out.lat.map_or(f64::NAN, |s| s.p50) - median(&all_ticks),
    );
    crate::set_absent(
        rep,
        &[
            "st-serve.submit_ms",
            "st-serve.service_overhead_ms",
            "pristi.frontend_ms",
        ],
    );
    let untraced: f64 = feed
        .schedule
        .iter()
        .enumerate()
        .filter_map(|(i, &(due, _, _))| {
            out.phase
                .responses
                .get(i)
                .map(|(at, _)| out.phase.since_due_ms(due, *at) / 1e3)
        })
        .sum();
    rep.set("trace.untraced_total_s", untraced);
    crate::write_trace(args, &tr, "");
    crate::write_trace(args, &train_tr, "_train");
    Ok(())
}
