//! The JSONL front end shared by `pristi serve` and `pristi serve --stream`:
//! every malformed request line gets a typed, line-numbered error; valid
//! answers do not depend on the worker count; and in both modes a line is
//! answered while the input is still open, not at EOF.

use pristi_core::train::{train, TrainConfig};
use pristi_core::{ImputeOptions, PristiConfig, Sampler, TrainedModel};
use st_data::generators::{generate_air_quality, AirQualityConfig};
use st_obs::json::{self, Json};
use st_serve::wire::{serve_lines, Engine, Summary};
use st_serve::{ImputeService, ServeConfig, StreamConfig};
use std::io::{BufReader, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

const N: usize = 8;
const L: usize = 12;

fn trained_setup() -> TrainedModel {
    let data = generate_air_quality(&AirQualityConfig {
        n_nodes: N,
        n_days: 6,
        seed: 31,
        episodes_per_week: 0.0,
        ..Default::default()
    });
    let mut cfg = PristiConfig::small();
    cfg.d_model = 8;
    cfg.heads = 2;
    cfg.layers = 1;
    cfg.t_steps = 8;
    cfg.time_emb_dim = 8;
    cfg.node_emb_dim = 4;
    cfg.step_emb_dim = 8;
    cfg.virtual_nodes = 4;
    cfg.adaptive_dim = 2;
    let tc = TrainConfig {
        epochs: 1,
        batch_size: 4,
        window_len: L,
        window_stride: L,
        seed: 33,
        ..Default::default()
    };
    train(&data, cfg, &tc).unwrap()
}

/// `n` rows of `L` cells with a few nulls, as JSON.
fn values(n: usize) -> String {
    let row: Vec<String> =
        (0..L).map(|l| if l % 4 == 2 { "null".into() } else { format!("{}.5", 10 + l) }).collect();
    vec![format!("[{}]", row.join(",")); n].join(",")
}

/// A request-mode front end over a fresh service; the answers and totals.
fn serve_requests(trained: TrainedModel, workers: usize, log: &str) -> (String, Summary) {
    let service =
        ImputeService::start(trained, ServeConfig { workers, ..Default::default() }).unwrap();
    let defaults = ImputeOptions { n_samples: 2, sampler: Sampler::Ddim { steps: 2, eta: 0.0 } };
    let mut out = Vec::new();
    let engine = Engine::Requests { service: &service, defaults };
    let summary = serve_lines(engine, log.as_bytes(), &mut out).unwrap();
    (String::from_utf8(out).unwrap(), summary)
}

/// `(ok, kind, id, line)` of one answer line.
fn shape(answer: &str) -> (bool, Option<String>, Option<u64>, Option<u64>) {
    let v = json::parse(answer).unwrap();
    let err = v.get("error");
    (
        v.get("ok") == Some(&Json::Bool(true)),
        err.and_then(|e| e.get("kind")).and_then(Json::as_str).map(str::to_string),
        v.get("id").and_then(Json::as_u64),
        err.and_then(|e| e.get("line")).and_then(Json::as_u64),
    )
}

#[test]
fn malformed_request_lines_get_typed_line_numbered_errors() {
    let rows = values(N);
    // (line, kind, id, what the detail must name); the blank line still
    // counts towards the 1-based line numbers.
    let cases: Vec<(String, &str, Option<u64>, &str)> = vec![
        ("not json".into(), "bad_json", None, "JSON"),
        (format!(r#"{{"values":[{rows}]}}"#), "bad_request", None, "\"id\""),
        (r#"{"id":3,"values":[[1.0,2.0],[3.0]]}"#.into(), "bad_request", Some(3), "ragged"),
        (r#"{"id":4,"values":[[1.0,"x"]]}"#.into(), "bad_request", Some(4), "cell [1]"),
        (
            format!(r#"{{"id":5,"values":[{rows}],"sampler":"ddim:4","ddim_steps":4}}"#),
            "bad_request",
            Some(5),
            "ddim_steps",
        ),
        (format!(r#"{{"id":6,"values":[{rows}],"tier":5}}"#), "bad_request", Some(6), "tier"),
        (format!(r#"{{"id":7,"values":[{rows}],"tier":"gold"}}"#), "bad_request", Some(7), "tier"),
        (
            format!(r#"{{"id":8,"values":[{rows}],"n_samples":2.5}}"#),
            "bad_request",
            Some(8),
            "n_samples",
        ),
        (
            format!(r#"{{"id":9,"values":[{rows}],"n_samples":-1}}"#),
            "bad_request",
            Some(9),
            "n_samples",
        ),
        (
            format!(r#"{{"id":10,"values":[{rows}],"n_samples":"2"}}"#),
            "bad_request",
            Some(10),
            "n_samples",
        ),
        (
            format!(r#"{{"id":11,"values":[{rows}],"n_samples":4000000000}}"#),
            "degenerate_config",
            Some(11),
            "n_samples",
        ),
        (
            format!(r#"{{"id":12,"values":[{}]}}"#, values(N - 1)),
            "shape_mismatch",
            Some(12),
            "node",
        ),
    ];
    let mut log = String::from("\n");
    for (line, ..) in &cases {
        log.push_str(line);
        log.push('\n');
    }
    log.push_str(&format!("{{\"id\":13,\"values\":[{rows}]}}\n"));
    let (out, summary) = serve_requests(trained_setup(), 1, &log);
    let answers: Vec<&str> = out.lines().collect();
    assert_eq!(answers.len(), cases.len() + 1, "one answer per non-blank line:\n{out}");
    for (i, ((_, kind, id, named), answer)) in cases.iter().zip(&answers).enumerate() {
        let line = i as u64 + 2;
        assert_eq!(shape(answer), (false, Some(kind.to_string()), *id, Some(line)), "{answer}");
        let detail = json::parse(answer).unwrap();
        let detail = detail.get("error").and_then(|e| e.get("detail")).and_then(Json::as_str);
        assert!(detail.unwrap().contains(named), "line {line}: detail must name {named}: {answer}");
    }
    // The loop goes on past every failure.
    assert_eq!(shape(answers[cases.len()]), (true, None, Some(13), None));
    assert_eq!(summary, Summary { ok: 1, errors: cases.len() as u64, imputes: 0, skips: 0 });
}

#[test]
fn valid_request_answers_do_not_depend_on_workers() {
    let rows = values(N);
    let log: String = [
        format!(r#"{{"id":1,"values":[{rows}]}}"#),
        format!(r#"{{"id":2,"values":[{rows}],"n_samples":3,"sampler":"pndm:3"}}"#),
        format!(r#"{{"id":3,"values":[{rows}],"ddim_steps":4,"tier":"best_effort"}}"#),
        format!(r#"{{"id":4,"values":[{rows}],"sampler":"refine:3","tier":"interactive"}}"#),
    ]
    .map(|l| l + "\n")
    .concat();
    // Training is seeded, so both services serve the same model.
    let (one, summary) = serve_requests(trained_setup(), 1, &log);
    let (two, _) = serve_requests(trained_setup(), 2, &log);
    assert_eq!(summary.ok, 4, "{one}");
    assert_eq!(one, two, "worker count changed answer bytes");
}

/// A reader that yields one line, then waits until the writer has answered
/// it (or `TIMEOUT` passes), then reports EOF. A front end that answers only
/// at EOF therefore fails the test after `TIMEOUT` instead of hanging.
struct OneLineThenWait {
    line: Vec<u8>,
    answered: mpsc::Receiver<()>,
    timed_out: Arc<AtomicBool>,
}

const TIMEOUT: Duration = Duration::from_secs(30);

impl Read for OneLineThenWait {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if !self.line.is_empty() {
            let n = self.line.len().min(buf.len());
            buf[..n].copy_from_slice(&self.line[..n]);
            self.line.drain(..n);
            return Ok(n);
        }
        if self.answered.recv_timeout(TIMEOUT).is_err() {
            self.timed_out.store(true, Ordering::SeqCst);
        }
        Ok(0)
    }
}

/// A writer that reports every flush of a complete line.
struct Signalling {
    out: Arc<Mutex<Vec<u8>>>,
    answered: mpsc::Sender<()>,
}

impl Write for Signalling {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.out.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.out.lock().unwrap().ends_with(b"\n") {
            let _ = self.answered.send(());
        }
        Ok(())
    }
}

/// Feed `line` to `engine` with the input held open; the answer, and whether
/// it came while the input was still open.
fn answer_while_open(engine: Engine<'_>, line: String) -> (String, bool) {
    let (tx, rx) = mpsc::channel();
    let timed_out = Arc::new(AtomicBool::new(false));
    let out = Arc::new(Mutex::new(Vec::new()));
    let input = OneLineThenWait {
        line: (line + "\n").into_bytes(),
        answered: rx,
        timed_out: Arc::clone(&timed_out),
    };
    let output = Signalling { out: Arc::clone(&out), answered: tx };
    serve_lines(engine, BufReader::new(input), output).unwrap();
    let answer = String::from_utf8(out.lock().unwrap().clone()).unwrap();
    (answer, !timed_out.load(Ordering::SeqCst))
}

#[test]
fn request_is_answered_before_input_closes() {
    let service = ImputeService::start(trained_setup(), ServeConfig::default()).unwrap();
    let defaults = ImputeOptions { n_samples: 2, sampler: Sampler::Ddim { steps: 2, eta: 0.0 } };
    let engine = Engine::Requests { service: &service, defaults };
    let (answer, in_time) =
        answer_while_open(engine, format!(r#"{{"id":1,"values":[{}]}}"#, values(N)));
    assert!(in_time, "no answer within {TIMEOUT:?} while the input was open");
    assert_eq!(shape(answer.trim_end()), (true, None, Some(1), None));
}

#[test]
fn tick_is_answered_before_input_closes() {
    let session = StreamConfig { n_samples: 2, ..Default::default() };
    let engine = Engine::Stream { trained: Arc::new(trained_setup()), session, workers: 2 };
    let cells = vec!["1.5"; N - 1].join(",");
    let (answer, in_time) =
        answer_while_open(engine, format!(r#"{{"id":1,"tick":[null,{cells}]}}"#));
    assert!(in_time, "no answer within {TIMEOUT:?} while the input was open");
    assert_eq!(shape(answer.trim_end()), (true, None, Some(1), None));
    assert!(answer.contains("\"imputed\":true"), "{answer}");
}
