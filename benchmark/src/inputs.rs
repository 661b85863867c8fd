//! Seeded workload inputs: panels, the serve request mix, arrival schedules
//! and the stream feeds. Everything here is a pure function of the seed; the
//! program under test only ever receives what these functions produce.

use pristi_core::train::{train, MaskStrategyKind, TrainConfig, TrainedModel};
use pristi_core::PristiConfig;
use st_data::generators::{
    generate_air_quality, generate_traffic, AirQualityConfig, TrafficConfig,
};
use st_data::missing::inject_point_missing;
use st_data::{SpatioTemporalDataset, Split};
use st_rand::{Rng, SliceRandom, StdRng};
use st_serve::save_checkpoint;
use st_tensor::pool::PoolStats;
use std::path::Path;
use std::time::Instant;

/// Mix a seed with a stream label so different inputs draw disjoint streams.
pub fn sub_seed(seed: u64, label: u64) -> u64 {
    let mut z = seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the generated panels. The panels are the benchmark's fixed data
/// sets; `--seed` picks everything drawn from them (hidden cells, training
/// randomness, requests, schedules, drops). With a handful of held-out days,
/// a panel drawn per seed would swing the held-out scores from seed to seed
/// far more than any change to the program.
pub const DATA_SEED: u64 = 2023;

/// The PriSTI small configuration every workload trains: d=16, 4 heads,
/// 2 layers, T=50, 16 virtual nodes.
pub fn model_config() -> PristiConfig {
    PristiConfig {
        t_steps: 50,
        ..PristiConfig::small()
    }
}

/// `train_eval` panel: 36-node AQI-36-like, with a seeded quarter of the
/// observed cells hidden for scoring.
pub fn aqi_panel(seed: u64, n_days: usize) -> SpatioTemporalDataset {
    let mut data = generate_air_quality(&AirQualityConfig {
        n_nodes: 36,
        n_days,
        seed: DATA_SEED,
        ..Default::default()
    });
    data.eval_mask = inject_point_missing(&data.observed_mask, 0.25, sub_seed(seed, 2));
    data
}

/// `serve`/`stream` panel: 24-node METR-LA-like traffic, 3 days of 5-minute
/// steps.
pub fn traffic_panel() -> SpatioTemporalDataset {
    generate_traffic(&TrafficConfig {
        n_nodes: 24,
        n_days: 3,
        seed: DATA_SEED,
        ..TrafficConfig::metr_la()
    })
}

/// Training configuration of the serving model: L=24, point strategy,
/// 2 epochs.
pub fn serving_train_config() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batch_size: 8,
        window_len: 24,
        window_stride: 12,
        strategy: MaskStrategyKind::Point,
        seed: DATA_SEED,
        ..Default::default()
    }
}

/// What one set-up of `serve` or `stream` trained.
pub struct ServingModel {
    /// The traffic panel.
    pub data: SpatioTemporalDataset,
    /// The serving model.
    pub trained: TrainedModel,
    /// Training windows × epochs ÷ wall time of `train`.
    pub train_windows_per_s: f64,
    /// Tensor-pool counters before and after `train`.
    pub pool: (PoolStats, PoolStats),
}

/// Set-up of `serve` and `stream`: generate the traffic panel, train the
/// serving model briefly and write its checkpoint to `ckpt`. The served
/// model is the same on every seed, like the panel it is trained on.
pub fn serving_model(ckpt: &Path) -> Result<ServingModel, String> {
    let data = traffic_panel();
    let tc = serving_train_config();
    let windows = data
        .windows(Split::Train, tc.window_len, tc.window_stride)
        .len();
    let pool0 = st_tensor::pool::stats();
    let t = Instant::now();
    let trained = train(&data, model_config(), &tc).map_err(|e| e.to_string())?;
    let train_s = t.elapsed().as_secs_f64();
    let pool1 = st_tensor::pool::stats();
    save_checkpoint(&trained, ckpt).map_err(|e| e.to_string())?;
    Ok(ServingModel {
        data,
        trained,
        train_windows_per_s: (windows * tc.epochs) as f64 / train_s,
        pool: (pool0, pool1),
    })
}

/// Split `n` items over `weights` by largest remainder, so every phase
/// carries the same mix and only the order depends on the seed.
pub fn allocate(n: usize, weights: &[f64]) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor())
            .total_cmp(&(exact[a] - exact[a].floor()))
            .then(a.cmp(&b))
    });
    let short = n - counts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

/// Arrival offsets (seconds) of `n` Poisson arrivals conditioned on falling in
/// `[0, duration)`: normalised partial sums of `n + 1` exponential gaps, which
/// are distributed as the order statistics of `n` uniforms.
pub fn poisson_schedule(n: usize, duration: f64, rng: &mut StdRng) -> Vec<f64> {
    let gaps: Vec<f64> = (0..=n).map(|_| -(1.0 - rng.random::<f64>()).ln()).collect();
    let total: f64 = gaps.iter().sum();
    let mut acc = 0.0;
    gaps[..n]
        .iter()
        .map(|g| {
            acc += g;
            duration * acc / total
        })
        .collect()
}

/// One serve request as generated (before rendering to JSON).
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Request id (keys the server's RNG stream).
    pub id: u64,
    /// First step of the window in the panel.
    pub t0: usize,
    /// Ensemble size.
    pub n_samples: usize,
    /// Sampler spec.
    pub sampler: &'static str,
    /// Cells sent (`[N, L]` row-major): `Some(v)` observed, `None` hidden or missing.
    pub cells: Vec<Option<f32>>,
    /// Cells hidden on purpose, whose truth scores the response (`[N, L]`).
    pub scored: Vec<bool>,
}

/// `(sampler, n_samples, weight)`: `n_samples` weighted 4:3:2:1 toward small
/// values over the three few-step solvers, plus 3 % of 1–2 sample `ddpm`
/// requests (T network evaluations each) for a heavy service-time tail.
pub const SERVE_MIX: [(&str, usize, f64); 14] = [
    ("pndm:4", 1, 0.1293),
    ("pndm:4", 2, 0.0970),
    ("pndm:4", 4, 0.0647),
    ("pndm:4", 8, 0.0323),
    ("ddim:4", 1, 0.1293),
    ("ddim:4", 2, 0.0970),
    ("ddim:4", 4, 0.0647),
    ("ddim:4", 8, 0.0323),
    ("refine:3", 1, 0.1293),
    ("refine:3", 2, 0.0970),
    ("refine:3", 4, 0.0647),
    ("refine:3", 8, 0.0323),
    ("ddpm", 1, 0.015),
    ("ddpm", 2, 0.015),
];

/// The requests `serve` sends alone: one kind, 4-sample `pndm:4`. Over the
/// whole mix the median falls where 2-sample `refine:3` requests meet
/// 2-sample `pndm:4`/`ddim:4` ones, about 1.3× dearer, so a lone p50 over
/// the mix jumps between the two from run to run.
pub const LONE_MIX: [(&str, usize, f64); 1] = [("pndm:4", 4, 1.0)];

/// Share of a request window's observed cells hidden for scoring.
const SERVE_HIDDEN: f64 = 0.2;

/// `n` serve requests of `mix` (`SERVE_MIX` or `LONE_MIX`) with ids from
/// `first_id`, windows cut at seeded offsets of the held-out split.
pub fn serve_requests(
    data: &SpatioTemporalDataset,
    window_len: usize,
    n: usize,
    first_id: u64,
    mix: &[(&'static str, usize, f64)],
    rng: &mut StdRng,
) -> Vec<ServeRequest> {
    let weights: Vec<f64> = mix.iter().map(|m| m.2).collect();
    let (mut light, mut heavy) = (Vec::with_capacity(n), Vec::new());
    for (k, c) in allocate(n, &weights).into_iter().enumerate() {
        let bucket = if mix[k].0 == "ddpm" {
            &mut heavy
        } else {
            &mut light
        };
        bucket.extend(std::iter::repeat_n(k, c));
    }
    light.shuffle(rng);
    heavy.shuffle(rng);
    // The heavy requests sit at evenly spaced places in the phase, so every
    // phase meets the same number of them at the same spacing.
    let mut kinds = light;
    for (j, &k) in heavy.iter().enumerate() {
        kinds.insert((j * n + n / 2) / heavy.len(), k);
    }
    let (start, end) = data.split_range(Split::Test);
    let nn = data.n_nodes();
    kinds
        .into_iter()
        .enumerate()
        .map(|(k, kind)| {
            let t0 = rng.random_range(start..=end - window_len);
            let w = data.window_at(t0, window_len);
            let mut cells = Vec::with_capacity(nn * window_len);
            let mut scored = Vec::with_capacity(nn * window_len);
            for (&v, &o) in w.values.data().iter().zip(w.observed.data()) {
                let hide = o > 0.0 && rng.random::<f64>() < SERVE_HIDDEN;
                cells.push((o > 0.0 && !hide).then_some(v));
                scored.push(hide);
            }
            ServeRequest {
                id: first_id + k as u64,
                t0,
                n_samples: mix[kind].1,
                sampler: mix[kind].0,
                cells,
                scored,
            }
        })
        .collect()
}

/// Render a serve request as one JSONL line (`null` for unsent cells).
pub fn serve_line(req: &ServeRequest, n: usize, l: usize) -> String {
    let mut s = format!(
        "{{\"id\":{},\"n_samples\":{},\"sampler\":\"{}\",\"values\":[",
        req.id, req.n_samples, req.sampler
    );
    for i in 0..n {
        s.push_str(if i == 0 { "[" } else { ",[" });
        for li in 0..l {
            if li > 0 {
                s.push(',');
            }
            match req.cells[i * l + li] {
                Some(v) => s.push_str(&format!("{v}")),
                None => s.push_str("null"),
            }
        }
        s.push(']');
    }
    s.push_str("]}");
    s
}

/// Stream sessions per phase.
pub const SESSIONS: usize = 8;
/// Revision horizon of the stream server (its default).
pub const HORIZON: usize = 4;
/// Length of a sensor outage, in ticks.
const OUTAGE_TICKS: usize = 5;
/// Sensors a point-drop event and an outage event hit.
const EVENT_SENSORS: [usize; 2] = [6, 4];

/// Drop events on one session's timeline: a repeating cycle of point drops
/// on a few sensors, then an outage of `OUTAGE_TICKS` on a few sensors, each
/// followed by twice as many clean ticks as it leaves a gap open. A dropped
/// cell stays open for `HORIZON` ticks, so an event of `len` ticks opens
/// gaps on `len + HORIZON - 1` ticks and exactly a third of every cycle's
/// ticks impute. `offset` is where tick 0 falls in the cycle; the sensors
/// are seeded.
fn drop_events(offset: usize, ticks: usize, n: usize, rng: &mut StdRng) -> Vec<Vec<bool>> {
    let mut dropped = vec![vec![false; n]; ticks];
    let mut k = -(offset as i64);
    for (len, sensors) in [1, OUTAGE_TICKS].into_iter().zip(EVENT_SENSORS).cycle() {
        if k >= ticks as i64 {
            break;
        }
        let mut nodes: Vec<usize> = (0..n).collect();
        nodes.shuffle(rng);
        for &node in &nodes[..sensors] {
            for t in k.max(0)..(k + len as i64).min(ticks as i64) {
                dropped[t as usize][node] = true;
            }
        }
        k += 3 * (len + HORIZON - 1) as i64;
    }
    dropped
}

/// Ticks in one drop cycle (see `drop_events`).
const DROP_CYCLE: usize = 3 * (1 + HORIZON - 1) + 3 * (OUTAGE_TICKS + HORIZON - 1);

/// One stream phase's input: per session, its ticks (cells, `None` dropped)
/// and the truth of every cell; plus the merged tick schedule.
#[derive(Debug, Clone)]
pub struct StreamFeed {
    /// `[session][tick][node]` cells as sent.
    pub cells: Vec<Vec<Vec<Option<f32>>>>,
    /// `[session][tick][node]` ground truth.
    pub truth: Vec<Vec<Vec<f32>>>,
    /// `(due offset s, session, tick index)`, sorted by due time.
    pub schedule: Vec<(f64, usize, usize)>,
}

/// A stream phase: `ticks` per session over the held-out split, point drops
/// and outages on a cycle (see `drop_events`), sessions ticking every
/// `SESSIONS / rate` seconds from seeded phase offsets.
pub fn stream_feed(
    data: &SpatioTemporalDataset,
    ticks: usize,
    rate: f64,
    rng: &mut StdRng,
) -> StreamFeed {
    let n = data.n_nodes();
    let (start, end) = data.split_range(Split::Test);
    assert!(
        end - start >= ticks,
        "held-out split shorter than a session"
    );
    // Session feeds start at evenly spread places of the held-out split (in
    // a seeded order, from a seeded shift), so every phase sees all times of
    // day alike.
    let span = (end - ticks - start + 1) as f64;
    let shift = rng.random::<f64>();
    let mut places: Vec<usize> = (0..SESSIONS).collect();
    places.shuffle(rng);
    let mut truth = Vec::with_capacity(SESSIONS);
    for &place in &places {
        let t0 = start + ((place as f64 + shift) / SESSIONS as f64 * span) as usize;
        truth.push(
            (0..ticks)
                .map(|k| {
                    (0..n)
                        .map(|i| data.values.data()[(t0 + k) * n + i])
                        .collect::<Vec<f32>>()
                })
                .collect::<Vec<_>>(),
        );
    }
    // Sessions sit at evenly spread places of the drop cycle (in a seeded
    // order from a seeded start), so the share of imputing ticks in a phase
    // stays close to a third on every seed.
    let start = rng.random_range(0..DROP_CYCLE);
    let mut places: Vec<usize> = (0..SESSIONS)
        .map(|s| (start + s * DROP_CYCLE / SESSIONS) % DROP_CYCLE)
        .collect();
    places.shuffle(rng);
    let dropped: Vec<Vec<Vec<bool>>> = places
        .iter()
        .map(|&p| drop_events(p, ticks, n, rng))
        .collect();
    let cells = truth
        .iter()
        .zip(&dropped)
        .map(|(ts, ds)| {
            ts.iter()
                .zip(ds)
                .map(|(t, d)| t.iter().zip(d).map(|(&v, &x)| (!x).then_some(v)).collect())
                .collect()
        })
        .collect();
    // Each session ticks every `period`; their phases are spread evenly over
    // the period (in a seeded order, from a seeded start), so the phase's
    // ticks arrive at a steady overall cadence.
    let period = SESSIONS as f64 / rate;
    let start = rng.random::<f64>();
    let mut slots: Vec<usize> = (0..SESSIONS).collect();
    slots.shuffle(rng);
    let mut schedule = Vec::with_capacity(SESSIONS * ticks);
    for (s, &slot) in slots.iter().enumerate() {
        let phase = (start + slot as f64) / SESSIONS as f64 * period;
        for k in 0..ticks {
            schedule.push((phase + k as f64 * period, s, k));
        }
    }
    schedule.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    StreamFeed {
        cells,
        truth,
        schedule,
    }
}

/// Render one data tick as a JSONL line.
pub fn tick_line(id: u64, session: usize, cells: &[Option<f32>]) -> String {
    let mut s = format!("{{\"id\":{id},\"session\":{session},\"tick\":[");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        match c {
            Some(v) => s.push_str(&format!("{v}")),
            None => s.push_str("null"),
        }
    }
    s.push_str("]}");
    s
}
