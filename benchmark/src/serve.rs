//! `serve`: an open loop of Poisson arrivals against
//! `pristi serve --ckpt M --workers 2`, one pipe, JSONL in and out.
//!
//! Why: the JSONL front end, the service queue and small-S forward passes do
//! the work here; backward runs only in set-up, training the serving model.

use crate::client::{Phase, Server};
use crate::inputs::{
    poisson_schedule, serve_line, serve_requests, serving_model, serving_train_config, sub_seed,
    ServeRequest, ServingModel, LONE_MIX, SERVE_MIX,
};
use crate::replay::{self, ReplayInput};
use crate::report::Report;
use crate::stats::{fnv1a, median, percentile_of, Latency, Scores};
use crate::trace::Tracer;
use crate::{pool_delta, set_reverse_layers, Args, LADDER};
use pristi_core::train::TrainedModel;
use pristi_core::{ImputationResult, PreparedWindow, Sampler};
use st_data::{SpatioTemporalDataset, Window};
use st_obs::json::{self, Json};
use st_rand::{SeedableRng, StdRng};
use st_serve::{
    load_checkpoint, request_rng, AdmissionTier, ImputeRequest, ImputeService, ServeConfig,
};
use st_tensor::NdArray;
use std::collections::HashMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Window length of the serving model.
pub const WINDOW: usize = 24;
/// Set-ups per run; `setup_s` and `train_windows_per_s` are their medians.
/// One trains for about a second, so the median of three still spread 0.2
/// over ten runs.
pub const SETUPS: usize = 5;
/// Lowest rung of the rate ladder (about a third of the seed's capacity);
/// rung `k` offers `LO_RPS · LADDER[k]`, so rung 1 is the high rate.
pub const LO_RPS: f64 = 8.0;
/// Latency limit on the tail percentile: an interactive answer later than
/// a second is late.
pub const LIMIT_MS: f64 = 1000.0;
/// Writer lateness (p90, ms) beyond which a measured rung is invalid: the
/// generator fell behind. The p90, not the p99, so that a single stall of
/// the host's vCPU does not void a run; stderr shows the p99 and the maximum.
pub const LATE_BOUND_MS: f64 = 25.0;
/// Requests written back to back in one capacity round.
pub const CAPACITY_REQUESTS: usize = 24;
/// Blocks the low and high rungs are each split into. Each pair of blocks is
/// followed by `LONE_PER_BLOCK` requests sent one at a time and by one
/// capacity round, so every measured figure is spread over the whole run
/// and host noise that comes and goes reaches them alike.
pub const BLOCKS: usize = 8;
/// Untimed requests between set-up and the first rung.
pub const WARMUP_REQUESTS: usize = 16;
/// Requests sent one at a time (of `LONE_MIX`) after each pair of low- and
/// high-rate blocks; `lo.p50_ms` is the median latency of all of them.
pub const LONE_PER_BLOCK: usize = 12;

/// Send requests one at a time, each as soon as the previous answer has
/// arrived, and fail unless every answer is `ok:true`.
fn round_trips(
    server: &mut Server,
    data: &SpatioTemporalDataset,
    reqs: &[ServeRequest],
) -> Result<(), String> {
    let lines: Vec<String> = reqs
        .iter()
        .map(|q| serve_line(q, data.n_nodes(), WINDOW))
        .collect();
    let phases = server
        .closed_loop(&lines, Duration::from_secs(60))
        .map_err(|e| e.to_string())?;
    for (q, phase) in reqs.iter().zip(&phases) {
        match phase.responses.first() {
            Some((_, answer)) if answer.contains("\"ok\":true") => {}
            other => return Err(format!("request {} failed: {other:?}", q.id)),
        }
    }
    Ok(())
}

/// Train the serving model, write the checkpoint, start the server and wait
/// for a first answer.
fn setup(args: &Args, ckpt: &Path) -> Result<(ServingModel, Server), String> {
    let model = serving_model(ckpt)?;
    let data = &model.data;
    let ckpt = ckpt.display().to_string();
    let mut server = Server::spawn(
        &args.pristi,
        &["serve", "--ckpt", &ckpt, "--workers", crate::WORKERS],
    )
    .map_err(|e| format!("spawn {}: {e}", args.pristi.display()))?;
    server.wait_banner("serving").map_err(|e| e.to_string())?;
    let first = serve_requests(
        data,
        WINDOW,
        1,
        0,
        &SERVE_MIX,
        &mut StdRng::seed_from_u64(sub_seed(args.seed, 9)),
    );
    round_trips(&mut server, data, &first)?;
    Ok((model, server))
}

/// Untimed warm-up after set-up: `WARMUP_REQUESTS` requests one at a time,
/// so both service workers and their buffer pools are warm before the first
/// rung.
fn warm_up(server: &mut Server, data: &SpatioTemporalDataset, seed: u64) -> Result<(), String> {
    let reqs = serve_requests(
        data,
        WINDOW,
        WARMUP_REQUESTS,
        1,
        &SERVE_MIX,
        &mut StdRng::seed_from_u64(sub_seed(seed, 10)),
    );
    round_trips(server, data, &reqs)
}

/// A checked answer's median, q05 and q95 grids, or why it failed.
type Grids = Result<[Vec<f32>; 3], String>;

/// One driven block: its phase, per-request latencies and checked answers.
type Block = (Phase, Vec<f64>, Vec<Grids>);

/// One rung's generated input: requests in blocks, each block with its own
/// arrival schedule (offsets from the block's start).
struct Rung {
    rate: f64,
    requests: Vec<ServeRequest>,
    due: Vec<f64>,
    blocks: Vec<Range<usize>>,
}

fn rung(
    data: &SpatioTemporalDataset,
    seed: u64,
    k: usize,
    n: usize,
    blocks: usize,
    rate: f64,
) -> Rung {
    let requests = serve_requests(
        data,
        WINDOW,
        n,
        100_000 * (k as u64 + 1),
        &SERVE_MIX,
        &mut StdRng::seed_from_u64(sub_seed(seed, 20 + k as u64)),
    );
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 40 + k as u64));
    let blocks: Vec<Range<usize>> = (0..blocks)
        .map(|b| b * n / blocks..(b + 1) * n / blocks)
        .collect();
    let due = blocks
        .iter()
        .flat_map(|r| poisson_schedule(r.len(), r.len() as f64 / rate, &mut rng))
        .collect();
    Rung {
        rate,
        requests,
        due,
        blocks,
    }
}

fn grid(v: Option<&Json>, n: usize, l: usize) -> Result<Vec<f32>, String> {
    let rows = v.and_then(Json::as_arr).ok_or("missing grid")?;
    if rows.len() != n {
        return Err(format!("grid has {} rows, want {n}", rows.len()));
    }
    let mut out = Vec::with_capacity(n * l);
    for row in rows {
        let cells = row.as_arr().ok_or("grid row is not an array")?;
        if cells.len() != l {
            return Err(format!("grid row has {} cells, want {l}", cells.len()));
        }
        for c in cells {
            out.push(c.as_f64().ok_or("non-finite grid cell")? as f32);
        }
    }
    Ok(out)
}

/// Check one response against its request: `ok:true`, N×L grids, observed
/// cells preserved, `q05 ≤ median ≤ q95`.
fn check_response(obj: &Json, req: &ServeRequest, n: usize, l: usize) -> Grids {
    if !matches!(obj.get("ok"), Some(Json::Bool(true))) {
        return Err(format!("not ok: {:?}", obj.get("error")));
    }
    let med = grid(obj.get("median"), n, l)?;
    let q05 = grid(obj.get("q05"), n, l)?;
    let q95 = grid(obj.get("q95"), n, l)?;
    for i in 0..n * l {
        if let Some(v) = req.cells[i] {
            if (med[i] - v).abs() > 1e-3 * v.abs().max(1.0) {
                return Err(format!("observed cell {i} changed: {v} -> {}", med[i]));
            }
        }
        if q05[i] > med[i] || med[i] > q95[i] {
            return Err(format!("quantiles out of order at cell {i}"));
        }
    }
    Ok([med, q05, q95])
}

/// Match a phase's responses to its requests: per request its latency from
/// due time (infinite when missing or failing a check) and checked grids.
fn collect(
    phase: &Phase,
    reqs: &[ServeRequest],
    due: &[f64],
    n: usize,
    rep: &mut Report,
) -> (Vec<f64>, Vec<Grids>) {
    let index: HashMap<u64, usize> = reqs.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    let mut lat = vec![f64::INFINITY; reqs.len()];
    let mut out: Vec<Grids> = (0..reqs.len()).map(|_| Err("no response".into())).collect();
    let mut seen = vec![0usize; reqs.len()];
    for (at, line) in &phase.responses {
        let obj = match json::parse(line) {
            Ok(o) => o,
            Err(e) => {
                rep.check(false, || format!("unparseable response: {e}"));
                continue;
            }
        };
        let Some(&i) = obj
            .get("id")
            .and_then(Json::as_u64)
            .and_then(|id| index.get(&id))
        else {
            rep.check(false, || format!("response for an unknown id: {line:.80}"));
            continue;
        };
        seen[i] += 1;
        out[i] = check_response(&obj, &reqs[i], n, WINDOW);
        lat[i] = phase.since_due_ms(due[i], *at);
    }
    for i in 0..reqs.len() {
        if seen[i] != 1 {
            out[i] = Err(format!("{} responses", seen[i]));
        }
        if let Err(e) = &out[i] {
            lat[i] = f64::INFINITY;
            rep.check(false, || format!("request {}: {e}", reqs[i].id));
        }
    }
    (lat, out)
}

/// Outcome of one rung, pooled over its blocks.
struct RungOutcome {
    /// Per request: latency from its due time (infinite when it failed).
    lat_ms: Vec<f64>,
    lat: Option<Latency>,
    pass: bool,
    completions_per_s: f64,
    late_p90: f64,
    failed: u64,
    grids: Vec<Grids>,
}

/// Drive one block of a rung and check its answers.
fn drive_block(
    server: &mut Server,
    data: &SpatioTemporalDataset,
    r: &Rung,
    block: Range<usize>,
    rep: &mut Report,
) -> Result<Block, String> {
    let n = data.n_nodes();
    let (reqs, due) = (&r.requests[block.clone()], &r.due[block]);
    let lines: Vec<(f64, String)> = due
        .iter()
        .zip(reqs)
        .map(|(&d, q)| (d, serve_line(q, n, WINDOW)))
        .collect();
    let timeout = Duration::from_secs_f64(due.last().copied().unwrap_or(0.0) + 60.0);
    let phase = server
        .phase(&lines, Some(lines.len()), false, timeout)
        .map_err(|e| e.to_string())?;
    if let Some(e) = &phase.write_error {
        return Err(format!("server stopped reading: {e}"));
    }
    let (lat, grids) = collect(&phase, reqs, due, n, rep);
    Ok((phase, lat, grids))
}

/// Pool a rung's driven blocks. The rung meets the limit when every request
/// succeeded, the pooled tail is within `LIMIT_MS`, and the backlog did not
/// grow in the median block.
fn finish_rung(r: &Rung, blocks: Vec<Block>) -> RungOutcome {
    let (mut lat_ms, mut grids, mut late, mut grew, mut busy_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), 0.0);
    let mut block_p50 = Vec::new();
    for ((phase, lat, g), range) in blocks.into_iter().zip(&r.blocks) {
        block_p50.push(median(&lat));
        let last = phase
            .responses
            .iter()
            .map(|(t, _)| *t)
            .max()
            .unwrap_or(phase.start);
        grew.push(crate::backlog_grew(&phase, r.due[range.end - 1], last));
        busy_s += last.duration_since(phase.start).as_secs_f64();
        late.extend(phase.lateness_ms);
        lat_ms.extend(lat);
        grids.extend(g);
    }
    let failed = lat_ms.iter().filter(|v| !v.is_finite()).count() as u64;
    let summary = Latency::of(&lat_ms);
    let growing = 2 * grew.iter().filter(|&&g| g).count() > grew.len();
    let pass = failed == 0 && summary.is_some_and(|s| s.tail <= LIMIT_MS) && !growing;
    let completions_per_s = (lat_ms.len() as u64 - failed) as f64 / busy_s.max(1e-9);
    let late_p90 = percentile_of(&late, 90.0);
    eprintln!(
        "serve rung {:.1} rps: n={} in {} blocks, p50={:.1} ms p{}={:.1} ms (beyond {}), growing={growing}, failed={failed}, {:.2} done/s, writer late p90 {:.2} ms p99 {:.2} ms max {:.2} ms -> {}",
        r.rate,
        lat_ms.len(),
        r.blocks.len(),
        summary.map_or(f64::NAN, |s| s.p50),
        summary.map_or(f64::NAN, |s| s.tail_pct),
        summary.map_or(f64::NAN, |s| s.tail),
        summary.map_or(0, |s| s.beyond),
        completions_per_s,
        late_p90,
        percentile_of(&late, 99.0),
        percentile_of(&late, 100.0),
        if pass { "meets limit" } else { "misses limit" }
    );
    eprintln!("  block p50s (ms): {block_p50:.1?}");
    RungOutcome {
        lat_ms,
        lat: summary,
        pass,
        completions_per_s,
        late_p90,
        failed,
        grids,
    }
}

/// Drive a whole rung, block after block.
fn drive(
    server: &mut Server,
    data: &SpatioTemporalDataset,
    r: &Rung,
    rep: &mut Report,
) -> Result<RungOutcome, String> {
    let blocks = r
        .blocks
        .iter()
        .map(|b| drive_block(server, data, r, b.clone(), rep))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(finish_rung(r, blocks))
}

/// Send `reqs` one at a time, each as soon as the previous answer has
/// arrived (a closed loop of one client): per request its latency (infinite
/// when it failed) and checked grids.
fn lone(
    server: &mut Server,
    data: &SpatioTemporalDataset,
    reqs: &[ServeRequest],
    rep: &mut Report,
) -> Result<(Vec<f64>, Vec<Grids>), String> {
    let n = data.n_nodes();
    let lines: Vec<String> = reqs.iter().map(|q| serve_line(q, n, WINDOW)).collect();
    let phases = server
        .closed_loop(&lines, Duration::from_secs(60))
        .map_err(|e| e.to_string())?;
    let (mut lat, mut grids) = (Vec::new(), Vec::new());
    for (q, phase) in reqs.iter().zip(&phases) {
        let (l, g) = collect(phase, std::slice::from_ref(q), &[0.0], n, rep);
        lat.extend(l);
        grids.extend(g);
    }
    Ok((lat, grids))
}

fn score(
    scores: &mut Scores,
    data: &SpatioTemporalDataset,
    reqs: &[ServeRequest],
    grids: &[Grids],
) {
    for (req, g) in reqs.iter().zip(grids) {
        if let Ok([med, q05, q95]) = g {
            let w = data.window_at(req.t0, WINDOW);
            let mask: Vec<f32> = req.scored.iter().map(|&s| f32::from(u8::from(s))).collect();
            scores.add_quantiles([q05, med, q95], w.values.data(), &mask);
        }
    }
}

/// Requests of the low and high rungs: enough for a p75 tail, and more when
/// the run's seconds allow (the two take about half that many seconds), in
/// whole blocks. Rungs above them carry a quarter as many.
fn per_rung(seconds: f64) -> usize {
    let n = ((seconds * LO_RPS / 3.0).round() as usize).max(80);
    n.div_ceil(BLOCKS) * BLOCKS
}

/// One capacity round: `CAPACITY_REQUESTS` requests written at once.
fn capacity_round(
    server: &mut Server,
    data: &SpatioTemporalDataset,
    seed: u64,
    c: usize,
    rep: &mut Report,
) -> Result<(Rung, RungOutcome), String> {
    let cap = rung(data, seed, 90 + c, CAPACITY_REQUESTS, 1, f64::INFINITY);
    let cap = Rung {
        due: vec![0.0; CAPACITY_REQUESTS],
        ..cap
    };
    let out = drive(server, data, &cap, rep)?;
    Ok((cap, out))
}

fn ckpt_path(args: &Args) -> PathBuf {
    args.out_dir.join(format!("serve_{}.ckpt", args.seed))
}

/// Run the workload.
pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let ckpt = ckpt_path(args);
    let (mut setup_times, mut train_rates) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        if let Some((_, old)) = last.take() {
            let _ = Server::finish(old);
        }
        let t = Instant::now();
        let (model, server) = setup(args, &ckpt)?;
        setup_times.push(t.elapsed().as_secs_f64());
        train_rates.push(model.train_windows_per_s);
        last = Some((model, server));
    }
    let (model, mut server) = last.expect("at least one set-up");
    let data = &model.data;
    let train_loss = *model
        .trained
        .epoch_losses
        .last()
        .expect("at least one epoch");
    warm_up(&mut server, data, args.seed)?;
    let n = per_rung(args.seconds);
    let mut scores = Scores::default();
    let mut digest = Vec::new();

    // The low and high rungs run in alternating blocks, so host noise that
    // comes and goes over a run reaches both rates alike.
    let pair = [
        rung(data, args.seed, 0, n, BLOCKS, LO_RPS * LADDER[0]),
        rung(data, args.seed, 1, n, BLOCKS, LO_RPS * LADDER[1]),
    ];
    let lone_reqs = serve_requests(
        data,
        WINDOW,
        BLOCKS * LONE_PER_BLOCK,
        800_000,
        &LONE_MIX,
        &mut StdRng::seed_from_u64(sub_seed(args.seed, 30)),
    );
    let mut driven: [Vec<_>; 2] = [Vec::new(), Vec::new()];
    let (mut lone_ms, mut lone_grids, mut capacity) = (Vec::new(), Vec::new(), Vec::new());
    for b in 0..BLOCKS {
        for (r, out) in pair.iter().zip(driven.iter_mut()) {
            out.push(drive_block(&mut server, data, r, r.blocks[b].clone(), rep)?);
        }
        let part = &lone_reqs[b * LONE_PER_BLOCK..(b + 1) * LONE_PER_BLOCK];
        let (l, g) = lone(&mut server, data, part, rep)?;
        lone_ms.extend(l);
        lone_grids.extend(g);
        if !args.trace {
            let (cap, out) = capacity_round(&mut server, data, args.seed, b, rep)?;
            rep.attempted += cap.requests.len() as u64;
            rep.failed += out.failed;
            score(&mut scores, data, &cap.requests, &out.grids);
            capacity.push(out.completions_per_s);
        }
    }
    let lone_failed = lone_ms.iter().filter(|v| !v.is_finite()).count() as u64;
    rep.attempted += lone_reqs.len() as u64;
    rep.failed += lone_failed;
    score(&mut scores, data, &lone_reqs, &lone_grids);
    let lone_p50 = median(&lone_ms);
    eprintln!(
        "serve one at a time: n={} p50={lone_p50:.2} ms p90={:.2} ms, failed={lone_failed}",
        lone_ms.len(),
        percentile_of(&lone_ms, 90.0)
    );
    let mut rungs: Vec<(Rung, RungOutcome)> = Vec::new();
    for (r, blocks) in pair.into_iter().zip(driven) {
        let out = finish_rung(&r, blocks);
        score(&mut scores, data, &r.requests, &out.grids);
        rungs.push((r, out));
    }
    if !args.trace {
        for (k, &step) in LADDER.iter().enumerate().skip(2) {
            if !rungs.iter().all(|(_, o)| o.pass) {
                break;
            }
            let r = rung(data, args.seed, k, n / 4, 1, LO_RPS * step);
            let out = drive(&mut server, data, &r, rep)?;
            rungs.push((r, out));
        }
    }
    let mut valid = true;
    let mut slo = 0.0;
    for (k, (r, out)) in rungs.iter().enumerate() {
        digest.extend(r.due.iter().flat_map(|d| d.to_le_bytes()));
        rep.attempted += r.requests.len() as u64;
        rep.failed += out.failed;
        if (k < 2 || out.pass) && out.late_p90 > LATE_BOUND_MS {
            valid = false;
        }
        if rungs[..=k].iter().all(|(_, o)| o.pass) {
            slo = out.completions_per_s;
        }
    }
    eprintln!("serve: schedule digest {:016x}", fnv1a(&digest));
    rep.check(valid, || format!("generator fell behind: writer lateness p90 above {LATE_BOUND_MS} ms on a measured rung"));

    if args.trace {
        return traced(
            args,
            rep,
            &model,
            &ckpt,
            server,
            &rungs,
            (&lone_reqs, lone_p50),
        );
    }

    let peak = server.peak_rss_mib();
    rep.check(server.finish().map_err(|e| e.to_string())?, || {
        "server exited with an error".into()
    });

    // The open-loop rungs' latencies follow the host's thread wake-up latency
    // through the serial JSONL loop (see README.md, "Host noise"), far beyond
    // any bound a regression gate could use; they are reported here only.
    let (lo, hi) = (&rungs[0].1, &rungs[1].1);
    let show = |s: Option<Latency>| {
        s.map_or_else(
            || "-".into(),
            |s| format!("p50 {:.2} ms, p{} {:.2} ms", s.p50, s.tail_pct, s.tail),
        )
    };
    eprintln!(
        "serve (not gated): lo {}; hi {}; slo {slo:.2}/s; capacity rounds {capacity:.2?}",
        show(lo.lat),
        show(hi.lat),
    );
    rep.set("setup_s", median(&setup_times));
    rep.set("peak_rss_mb", peak.unwrap_or(f64::NAN));
    rep.set("train_windows_per_s", median(&train_rates));
    rep.set("train_loss", train_loss);
    rep.set("capacity_rps", median(&capacity));
    rep.set("lo.p50_ms", lone_p50);
    rep.set("heldout_crps", scores.crps());
    rep.set("heldout_mae", scores.mae());
    Ok(())
}

/// The window a request sends, as `pristi serve` parses it.
fn request_window(req: &ServeRequest, n: usize) -> Window {
    let cells = &req.cells;
    let values = NdArray::from_vec(
        &[n, WINDOW],
        cells.iter().map(|c| c.unwrap_or(0.0)).collect(),
    );
    let observed = NdArray::from_vec(
        &[n, WINDOW],
        cells
            .iter()
            .map(|c| f32::from(u8::from(c.is_some())))
            .collect(),
    );
    Window {
        values,
        observed,
        eval: NdArray::zeros(&[n, WINDOW]),
        t_start: 0,
    }
}

/// The traced run: the low and high rungs were driven against the binary;
/// replay the low rung in process through `ImputeService::submit` and through
/// the decomposed reverse loop, and check both against the served answers.
fn traced(
    args: &Args,
    rep: &mut Report,
    model: &ServingModel,
    ckpt: &Path,
    server: Server,
    rungs: &[(Rung, RungOutcome)],
    (lone_reqs, lone_p50): (&[ServeRequest], f64),
) -> Result<(), String> {
    rep.check(server.finish().map_err(|e| e.to_string())?, || {
        "server exited with an error".into()
    });
    let data = &model.data;
    let mut train_tr = Tracer::new();
    crate::set_train_layers(
        rep,
        data,
        &serving_train_config(),
        &model.trained,
        model.pool,
        &mut train_tr,
    )?;
    let n = data.n_nodes();
    let (lo_rung, lo) = &rungs[0];
    let trained: TrainedModel = load_checkpoint(ckpt).map_err(|e| e.to_string())?;
    let service = ImputeService::start(
        load_checkpoint(ckpt).map_err(|e| e.to_string())?,
        ServeConfig {
            workers: 2,
            max_batch_samples: 32,
            default_deadline: Duration::from_secs(30),
            base_seed: 0,
            ..Default::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let windows: Vec<Window> = lo_rung
        .requests
        .iter()
        .map(|q| request_window(q, n))
        .collect();
    let samplers: Vec<Sampler> = lo_rung
        .requests
        .iter()
        .map(|q| q.sampler.parse().expect("mix specs parse"))
        .collect();

    let pool0 = st_tensor::pool::stats();
    let mut submit_ms = Vec::new();
    let mut served: Vec<Option<ImputationResult>> = Vec::new();
    let mut failed = 0u64;
    for ((q, w), &sampler) in lo_rung.requests.iter().zip(&windows).zip(&samplers) {
        let req = ImputeRequest {
            id: q.id,
            window: w.clone(),
            n_samples: q.n_samples,
            sampler,
            tier: AdmissionTier::Interactive,
            deadline: None,
        };
        let t = Instant::now();
        let res = service.submit(req);
        submit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        failed += u64::from(res.is_err());
        served.push(res.ok());
    }
    let pool1 = st_tensor::pool::stats();
    // The requests sent alone, through the same service: `pristi.frontend_ms`
    // compares their served latency with their `submit` time.
    let mut lone_submit_ms = Vec::with_capacity(lone_reqs.len());
    for q in lone_reqs {
        let req = ImputeRequest {
            id: q.id,
            window: request_window(q, n),
            n_samples: q.n_samples,
            sampler: q.sampler.parse().expect("mix specs parse"),
            tier: AdmissionTier::Interactive,
            deadline: None,
        };
        let t = Instant::now();
        let res = service.submit(req);
        lone_submit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        failed += u64::from(res.is_err());
    }
    service.shutdown();

    let mut tr = Tracer::new();
    let mut nfe = Vec::new();
    for (i, ((q, w), &sampler)) in lo_rung
        .requests
        .iter()
        .zip(&windows)
        .zip(&samplers)
        .enumerate()
    {
        let op = q.id;
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
            q.n_samples,
            sampler,
            &mut request_rng(0, q.id),
            None,
            &mut tr,
            op,
        );
        nfe.push(k as f64);
        let s = tr.begin("pristi-core.quantile", op);
        let res = ImputationResult::new(samples, prep.target_mask().clone());
        let grids = [res.median(), res.quantile(0.05), res.quantile(0.95)];
        tr.end(s);
        tr.end(root);
        let same_as_service = served[i]
            .as_ref()
            .is_some_and(|s| replay::same_bits(&res.samples, &s.samples));
        rep.check(same_as_service, || {
            format!(
                "replay of request {} differs from ImputeService::submit",
                q.id
            )
        });
        let same_as_binary = lo.grids[i].as_ref().is_ok_and(|got| {
            got.iter().zip(&grids).all(|(g, want)| {
                g.iter()
                    .zip(want.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            })
        });
        rep.check(same_as_binary, || {
            format!(
                "replay of request {} differs from the served response",
                q.id
            )
        });
    }

    let probe = PreparedWindow::prepare(&trained, &windows[0]).map_err(|e| e.to_string())?;
    let cache = probe.build_prior(&trained, 4);
    rep.set(
        "st-par.speedup",
        crate::par_speedup(&trained, &cache, args.seed),
    );
    rep.set(
        "pristi-core.prior_cache_mb",
        cache.bytes() as f64 / (1 << 20) as f64,
    );

    let submit = median(&submit_ms);
    let imputes = tr
        .spans()
        .iter()
        .filter(|s| s.name == "pristi-core.impute")
        .map(|s| s.dur_ns() as f64 / 1e6);
    let overhead: Vec<f64> = submit_ms.iter().zip(imputes).map(|(s, i)| s - i).collect();
    let (hit, miss) = pool_delta(pool0, pool1);
    rep.set("st-tensor.pool_hit_ratio.impute", hit);
    rep.set("st-tensor.pool_misses.impute", miss);
    rep.set(
        "st-diffusion.nfe",
        nfe.iter().sum::<f64>() / nfe.len().max(1) as f64,
    );
    set_reverse_layers(rep, &tr);
    rep.set("st-serve.submit_ms", submit);
    rep.set("st-serve.service_overhead_ms", median(&overhead));
    rep.set(
        "st-serve.failed",
        (failed + rungs.iter().map(|(_, o)| o.failed).sum::<u64>()) as f64,
    );
    rep.set("pristi.frontend_ms", lone_p50 - median(&lone_submit_ms));
    rep.set(
        "pristi.wait_ms",
        rungs[1].1.lat.map_or(f64::NAN, |s| s.p50) - submit,
    );
    crate::set_absent(
        rep,
        &[
            "st-data.slide_us",
            "st-serve.tick_impute_ms",
            "st-serve.tick_skip_ms",
            "st-serve.impute_share",
        ],
    );
    rep.set(
        "trace.untraced_total_s",
        lo.lat_ms.iter().sum::<f64>() / 1e3,
    );
    crate::write_trace(args, &tr, "");
    crate::write_trace(args, &train_tr, "_train");
    Ok(())
}
