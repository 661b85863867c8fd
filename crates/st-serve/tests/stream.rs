//! Streaming determinism contract: every revision a `StreamSession` emits
//! is bitwise identical to a cold full-window impute of the same window
//! with the same RNG stream; the JSONL engine's output bytes are invariant
//! to the worker count and reproduce exactly under tick-log replay; and
//! malformed lines become typed, line-numbered error responses.

use pristi_core::train::{train, TrainConfig};
use pristi_core::{impute, ImputeOptions, PristiConfig, PristiError, Sampler};
use st_data::dataset::Window;
use st_data::generators::{generate_air_quality, AirQualityConfig};
use st_data::missing::inject_point_missing;
use st_rand::{Rng, SeedableRng, StdRng};
use st_serve::wire::{serve_lines, Engine, Summary};
use st_serve::{stream_rng, StreamConfig, StreamSession, Tick};
use st_tensor::NdArray;
use std::sync::Arc;

const N: usize = 8;
const L: usize = 12;

fn tiny_cfg() -> PristiConfig {
    let mut c = PristiConfig::small();
    c.d_model = 8;
    c.heads = 2;
    c.layers = 1;
    c.t_steps = 8;
    c.time_emb_dim = 8;
    c.node_emb_dim = 4;
    c.step_emb_dim = 8;
    c.virtual_nodes = 4;
    c.adaptive_dim = 2;
    c
}

fn trained_setup() -> pristi_core::TrainedModel {
    let mut data = generate_air_quality(&AirQualityConfig {
        n_nodes: N,
        n_days: 6,
        seed: 31,
        episodes_per_week: 0.0,
        ..Default::default()
    });
    data.eval_mask = inject_point_missing(&data.observed_mask, 0.2, 32);
    let tc = TrainConfig {
        epochs: 2,
        batch_size: 4,
        window_len: L,
        window_stride: L,
        seed: 33,
        ..Default::default()
    };
    train(&data, tiny_cfg(), &tc).unwrap()
}

/// A deterministic tick log: per-tick sensor columns with bursty gaps and
/// some fully-observed stretches (so both the impute and the skip path run).
fn tick_log(seed: u64, ticks: usize) -> Vec<Vec<Option<f32>>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ticks)
        .map(|t| {
            // blocks of 4 fully-observed ticks → guaranteed skip ticks once
            // the whole horizon is gap-free
            let dense = t % 8 >= 4;
            (0..N)
                .map(|_| {
                    let v = 18.0 + (rng.random::<f32>() - 0.5) * 10.0;
                    if !dense && rng.random_bool(0.3) {
                        None
                    } else {
                        Some(v)
                    }
                })
                .collect()
        })
        .collect()
}

/// The cold reference for one tick: materialise the raw window the stream
/// has seen so far (pre-stream padding = unobserved zeros) and impute it
/// from scratch with the session's RNG stream for that revision.
fn cold_window(log: &[Vec<Option<f32>>], upto: usize) -> Window {
    let mut values = NdArray::zeros(&[N, L]);
    let mut observed = NdArray::zeros(&[N, L]);
    for (col_back, cells) in log[..=upto].iter().rev().take(L).enumerate() {
        let col = L - 1 - col_back;
        for (i, cell) in cells.iter().enumerate() {
            if let Some(v) = *cell {
                values.data_mut()[i * L + col] = v;
                observed.data_mut()[i * L + col] = 1.0;
            }
        }
    }
    Window { values, observed, eval: NdArray::zeros(&[N, L]), t_start: 0 }
}

/// T ticks through a `StreamSession` ≡ a cold full-window impute at every
/// step, bitwise — the incremental prior (re-interpolated columns, reused
/// `PriorCache`) is invisible in the output.
#[test]
fn stream_ticks_bitwise_match_cold_full_window_impute() {
    let trained = Arc::new(trained_setup());
    let cfg = StreamConfig {
        n_samples: 2,
        sampler: Sampler::Pndm { steps: 4, order: 4 },
        horizon: 4,
        base_seed: 9,
    };
    let session_id = 5u64;
    let mut session = StreamSession::new(Arc::clone(&trained), cfg, session_id).unwrap();
    let log = tick_log(1, 20);
    let (mut imputes, mut skips) = (0u64, 0u64);
    let mut last_watermark = 0u64;
    for (t, cells) in log.iter().enumerate() {
        let out = session.data_tick(cells).unwrap();
        assert_eq!(out.step, t as u64);
        assert!(out.watermark >= last_watermark, "watermark must be monotone");
        last_watermark = out.watermark;
        if !out.imputed {
            skips += 1;
            assert!(out.revisions.is_empty());
            continue;
        }
        // the cold path: fresh window, fresh prior, same RNG stream
        let mut rng = stream_rng(cfg.base_seed, session_id, imputes);
        imputes += 1;
        let cold = impute(
            &trained,
            &cold_window(&log, t),
            &ImputeOptions { n_samples: cfg.n_samples, sampler: cfg.sampler },
            &mut rng,
        )
        .unwrap();
        let (q05, q50, q95) = (cold.quantile(0.05), cold.quantile(0.5), cold.quantile(0.95));
        assert!(!out.revisions.is_empty());
        for r in &out.revisions {
            assert!(r.step >= out.watermark && r.step <= out.step, "revision outside horizon");
            let col = L - 1 - (out.step - r.step) as usize;
            let idx = r.node * L + col;
            assert_eq!(r.q05.to_bits(), q05.data()[idx].to_bits(), "tick {t} q05");
            assert_eq!(r.q50.to_bits(), q50.data()[idx].to_bits(), "tick {t} q50");
            assert_eq!(r.q95.to_bits(), q95.data()[idx].to_bits(), "tick {t} q95");
        }
    }
    assert_eq!(session.impute_seq(), imputes);
    assert!(imputes >= 3, "log should trigger several revisions, got {imputes}");
    assert!(skips >= 1, "log should skip at least one tick, got {skips}");
}

/// `reimpute` draws the next RNG stream over the unchanged window — reusing
/// the prior cache — and still matches a cold impute bitwise, twice in a
/// row.
#[test]
fn reimpute_reuses_prior_and_matches_cold() {
    let trained = Arc::new(trained_setup());
    let cfg = StreamConfig {
        n_samples: 2,
        sampler: Sampler::Refine { steps: 3, strength: 0.5 },
        horizon: 6,
        base_seed: 21,
    };
    let mut session = StreamSession::new(Arc::clone(&trained), cfg, 0).unwrap();
    let mut log = tick_log(7, 9);
    log.push(vec![None; N]); // guarantee open gaps at the newest step
    let mut seq = 0u64;
    for cells in &log {
        if session.data_tick(cells).unwrap().imputed {
            seq += 1;
        }
    }
    let window = cold_window(&log, log.len() - 1);
    // two consecutive reimputes: the first after a data tick may rebuild the
    // prior, the second definitely reuses it — both must match cold.
    for round in 0..2 {
        let out = session.reimpute().unwrap();
        assert!(out.imputed, "open gaps must exist in this log");
        let mut rng = stream_rng(cfg.base_seed, 0, seq);
        seq += 1;
        let cold = impute(
            &trained,
            &window,
            &ImputeOptions { n_samples: cfg.n_samples, sampler: cfg.sampler },
            &mut rng,
        )
        .unwrap();
        let q50 = cold.quantile(0.5);
        for r in &out.revisions {
            let col = L - 1 - (out.step - r.step) as usize;
            assert_eq!(
                r.q50.to_bits(),
                q50.data()[r.node * L + col].to_bits(),
                "reimpute round {round} diverges from cold"
            );
        }
    }
}

/// Replaying the same tick log through a fresh session reproduces every
/// output exactly.
#[test]
fn session_replay_is_bitwise_identical() {
    let trained = Arc::new(trained_setup());
    let cfg = StreamConfig { n_samples: 2, horizon: 3, base_seed: 4, ..Default::default() };
    let log = tick_log(3, 14);
    let run = |trained: &Arc<pristi_core::TrainedModel>| {
        let mut session = StreamSession::new(Arc::clone(trained), cfg, 8).unwrap();
        log.iter().map(|cells| session.data_tick(cells).unwrap()).collect::<Vec<_>>()
    };
    assert_eq!(run(&trained), run(&trained));
}

/// Drive the stream front end over `log`; the answers and the totals.
fn run_stream(
    trained: &Arc<pristi_core::TrainedModel>,
    session: StreamConfig,
    workers: usize,
    log: &str,
) -> (String, Summary) {
    let engine = Engine::Stream { trained: Arc::clone(trained), session, workers };
    let mut out = Vec::new();
    let summary = serve_lines(engine, log.as_bytes(), &mut out).unwrap();
    (String::from_utf8(out).unwrap(), summary)
}

/// Build an interleaved multi-session JSONL log, with some malformed lines.
fn jsonl_log() -> String {
    let mut lines = Vec::new();
    let logs: Vec<Vec<Vec<Option<f32>>>> =
        (0..3).map(|s| tick_log(40 + s as u64, 8)).collect();
    let mut id = 0u64;
    for t in 0..8 {
        for (s, log) in logs.iter().enumerate() {
            id += 1;
            let cells = log[t]
                .iter()
                .map(|c| c.map_or("null".to_string(), |v| format!("{v}")))
                .collect::<Vec<_>>()
                .join(",");
            lines.push(format!("{{\"id\":{id},\"session\":{s},\"tick\":[{cells}]}}"));
        }
        if t == 3 {
            lines.push("this is not json".to_string());
            id += 1;
            lines.push(format!("{{\"id\":{id},\"session\":1,\"tick\":[1.0,2.0]}}")); // wrong N
            id += 1;
            lines.push(format!("{{\"id\":{id},\"session\":2,\"reimpute\":true}}"));
        }
    }
    lines.join("\n") + "\n"
}

/// Engine output bytes are invariant to the worker count and reproduce
/// exactly on replay — the reorder buffer keeps responses in input order
/// and sessions are sharded deterministically.
#[test]
fn engine_output_invariant_to_workers_and_replay() {
    let trained = Arc::new(trained_setup());
    let log = jsonl_log();
    let session = StreamConfig { n_samples: 2, horizon: 3, base_seed: 11, ..Default::default() };
    let mut outputs = Vec::new();
    let mut summaries = Vec::new();
    for workers in [1usize, 2, 2] {
        let (out, summary) = run_stream(&trained, session, workers, &log);
        outputs.push(out);
        summaries.push(summary);
    }
    assert_eq!(outputs[0], outputs[1], "worker count changed output bytes");
    assert_eq!(outputs[1], outputs[2], "replay changed output bytes");
    assert_eq!(summaries[0], summaries[1]);
    let s = summaries[0];
    assert_eq!(s.errors, 2, "bad-json and wrong-N lines are errors");
    assert_eq!(s.ok, 25, "24 data ticks + 1 reimpute");
    assert!(s.imputes >= 1 && s.skips >= 1);
    assert_eq!(s.ok + s.errors, outputs[0].lines().count() as u64);
}

/// Malformed lines become the typed `{"id":..,"ok":false,"error":{kind,
/// detail,line}}` shape, with 1-based line numbers and the service error
/// kinds from `PristiError::kind`.
#[test]
fn error_lines_are_typed_and_line_numbered() {
    let trained = Arc::new(trained_setup());
    let log = "not json\n\
               {\"id\":1,\"tick\":[1,2]}\n\
               {\"id\":2,\"reimpute\":true}\n\
               {\"tick\":[1,2,3]}\n\
               {\"id\":3,\"tick\":[1,2],\"reimpute\":true}\n";
    let session = StreamConfig { n_samples: 2, ..Default::default() };
    let (out, summary) = run_stream(&trained, session, 1, log);
    assert_eq!(summary.errors, 5);
    assert_eq!(summary.ok, 0);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 5);
    // line 1: not JSON at all
    assert!(lines[0].contains("\"kind\":\"bad_json\"") && lines[0].contains("\"line\":1"));
    assert!(lines[0].contains("\"id\":null"));
    // line 2: parses, but the cell count disagrees with the model
    assert!(lines[1].contains("\"kind\":\"shape_mismatch\"") && lines[1].contains("\"line\":2"));
    assert!(lines[1].contains("\"id\":1"));
    // line 3: reimpute before any data tick
    assert!(lines[2].contains("\"kind\":\"degenerate_config\"") && lines[2].contains("\"line\":3"));
    // line 4: missing id
    assert!(lines[3].contains("\"kind\":\"bad_request\"") && lines[3].contains("\"id\":null"));
    // line 5: tick and reimpute are mutually exclusive
    assert!(lines[4].contains("\"kind\":\"bad_request\"") && lines[4].contains("\"line\":5"));
}

/// Session construction validates its configuration with typed errors.
#[test]
fn degenerate_stream_configs_are_typed_errors() {
    let trained = Arc::new(trained_setup());
    for horizon in [0usize, L + 1] {
        let err = StreamSession::new(
            Arc::clone(&trained),
            StreamConfig { horizon, ..Default::default() },
            0,
        )
        .err()
        .unwrap();
        assert!(matches!(err, PristiError::DegenerateConfig(_)), "horizon {horizon}");
    }
    let err = StreamSession::new(
        Arc::clone(&trained),
        StreamConfig { n_samples: 0, ..Default::default() },
        0,
    )
    .err()
    .unwrap();
    assert!(matches!(err, PristiError::DegenerateConfig(_)));
    let mut session = StreamSession::new(
        Arc::clone(&trained),
        StreamConfig { n_samples: 2, ..Default::default() },
        0,
    )
    .unwrap();
    let err = session.tick(&Tick::Data(vec![None; N + 1])).unwrap_err();
    assert!(matches!(err, PristiError::ShapeMismatch { .. }));
}
