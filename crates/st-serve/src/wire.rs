//! The JSONL front end of `pristi serve` and `pristi serve --stream`: one
//! line loop, one parser, one set of renderers and one writer thread for
//! both modes.
//!
//! Every input line is a JSON object with a numeric `id`; blank lines are
//! skipped. A request ([`Engine::Requests`]) is one window, `null` = a cell
//! to impute, with optional `n_samples`, `sampler` (the [`Sampler`] spec;
//! `"ddim_steps": K` is an alias for `"ddim:K"`) and `tier` (`interactive`
//! or `best_effort`, see [`AdmissionTier`]). A tick ([`Engine::Stream`])
//! feeds the [`StreamSession`] named by `session` (default 0):
//!
//! ```text
//! request:  {"id":1,"values":[[1.0,null,...],...N rows of L cells...],"n_samples":8}
//! answer:   {"id":1,"ok":true,"median":[[...]],"q05":[[...]],"q95":[[...]]}
//! tick:     {"id":2,"session":0,"tick":[21.0,null,17.5]}  or  {"id":3,"reimpute":true}
//! answer:   {"id":2,"ok":true,"session":0,"step":7,"watermark":4,"imputed":true,
//!            "revisions":[{"node":1,"step":6,"q05":12.1,"q50":14.9,"q95":17.0},...]}
//! failure:  {"id":4,"ok":false,"error":{"kind":"shape_mismatch","detail":"...","line":5}}
//! ```
//!
//! Numbers that are not finite are written as `null`. A failure's `kind` is
//! `bad_json` (not JSON), `bad_request` (a field missing, or present but
//! malformed; `detail` names it) or the engine's [`PristiError::kind`]; its
//! `id` is `null` when the line's id could not be read, and `line` is the
//! 1-based input line. The loop always goes on past a failure.
//!
//! One writer thread writes and flushes each answer as soon as it is next in
//! input order, so a client never waits for EOF and the bytes do not depend
//! on the worker count. Request lines go through [`ImputeService::submit`]
//! one at a time — the line loop waits for each answer, which bounds memory
//! to one request's ensemble. Ticks go to `workers` shard threads by
//! `session % workers`; a shard owns its sessions, runs their ticks in
//! arrival order and contains a panic to the session that raised it.

use crate::service::{panic_message, AdmissionTier, ImputeRequest, ImputeService};
use crate::stream::{StreamConfig, StreamSession, Tick, TickOutput};
use pristi_core::train::TrainedModel;
use pristi_core::{ImputationResult, ImputeOptions, PristiError, Sampler};
use st_data::dataset::Window;
use st_obs::json::{self, Json};
use st_tensor::NdArray;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::sync::{mpsc, Arc};

/// What answers the lines of one [`serve_lines`] drive.
pub enum Engine<'a> {
    /// Each line is a request, submitted to `service` one at a time.
    Requests {
        /// The service every request goes through.
        service: &'a ImputeService,
        /// Ensemble size and solver of requests that name none.
        defaults: ImputeOptions,
    },
    /// Each line is a tick, run by shard `session % workers`.
    Stream {
        /// The model every session imputes with.
        trained: Arc<TrainedModel>,
        /// Parameters of every session.
        session: StreamConfig,
        /// Shard threads (at least one runs).
        workers: usize,
    },
}

/// Totals of one [`serve_lines`] drive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    /// Lines answered `ok:true`.
    pub ok: u64,
    /// Lines answered with a typed error.
    pub errors: u64,
    /// Ticks that ran a reverse pass (stream mode).
    pub imputes: u64,
    /// Ticks that skipped the reverse pass for want of open gaps.
    pub skips: u64,
}

/// Why a line never reached the engine.
enum LineError {
    /// Not JSON: `bad_json`.
    BadJson(String),
    /// JSON, but a field is missing or malformed: `bad_request`, with the
    /// line's id when it could be read.
    BadRequest { id: Option<u64>, detail: String },
}

impl LineError {
    fn render(&self, line_no: u64) -> String {
        match self {
            LineError::BadJson(e) => {
                error_line(None, "bad_json", &format!("bad JSON: {e}"), line_no)
            }
            LineError::BadRequest { id, detail } => error_line(*id, "bad_request", detail, line_no),
        }
    }
}

/// How an answer counts in the [`Summary`].
enum Outcome {
    Failed,
    Answered,
    Imputed,
    Skipped,
}

/// One answer on its way to the writer, keyed by its input position.
struct Answer {
    seq: u64,
    outcome: Outcome,
    text: String,
}

/// One parsed tick on its way to its shard.
struct TickItem {
    seq: u64,
    line_no: u64,
    id: u64,
    session: u64,
    tick: Tick,
}

/// Answer every non-blank line of `input` with one line on `output`, in
/// input order.
///
/// `pristi serve` drives this over stdin/stdout; the loadtest harness and
/// the test suites drive it in memory. Only I/O failures are `Err`: a
/// malformed line, or a request or tick that fails, is answered with a
/// typed error line and the loop goes on (see the [module docs](self)).
pub fn serve_lines<R: BufRead, W: Write + Send>(
    engine: Engine<'_>,
    input: R,
    output: W,
) -> std::io::Result<Summary> {
    std::thread::scope(|scope| {
        let (answers, answers_rx) = mpsc::channel::<Answer>();
        let writer = scope.spawn(move || write_in_order(answers_rx, output));
        let shards: Vec<mpsc::Sender<TickItem>> = match &engine {
            Engine::Requests { .. } => Vec::new(),
            Engine::Stream { trained, session, workers } => (0..(*workers).max(1))
                .map(|widx| {
                    let (tx, rx) = mpsc::channel();
                    let (trained, cfg, answers) = (Arc::clone(trained), *session, answers.clone());
                    scope.spawn(move || shard_loop(widx, &trained, cfg, rx, answers));
                    tx
                })
                .collect(),
        };
        let (mut seq, mut line_no) = (0u64, 0u64);
        for line in input.lines() {
            let line = line?;
            line_no += 1;
            if line.trim().is_empty() {
                continue;
            }
            // A failed send means the writer stopped on an I/O error (a shard
            // stops once it cannot reach the writer); the join returns it.
            let sent = match &engine {
                Engine::Requests { service, defaults } => {
                    answers.send(answer_request(service, defaults, &line, seq, line_no)).is_ok()
                }
                Engine::Stream { .. } => match parse_tick(&line) {
                    Ok((id, session, tick)) => {
                        let item = TickItem { seq, line_no, id, session, tick };
                        shards[(session % shards.len() as u64) as usize].send(item).is_ok()
                    }
                    Err(e) => {
                        st_obs::counter_add("stream.errors", 1.0);
                        let text = e.render(line_no);
                        answers.send(Answer { seq, outcome: Outcome::Failed, text }).is_ok()
                    }
                },
            };
            if !sent {
                break;
            }
            seq += 1;
        }
        drop((shards, answers));
        writer.join().expect("writer thread panicked")
    })
}

/// Write answers as soon as each is next in input order, flushing every
/// line so an interactive client never waits on a buffered answer.
fn write_in_order<W: Write>(
    answers: mpsc::Receiver<Answer>,
    mut output: W,
) -> std::io::Result<Summary> {
    let mut summary = Summary::default();
    let mut pending = BTreeMap::new();
    let mut next = 0u64;
    for answer in answers {
        pending.insert(answer.seq, answer);
        while let Some(Answer { outcome, text, .. }) = pending.remove(&next) {
            let count = match outcome {
                Outcome::Failed => &mut summary.errors,
                Outcome::Answered => &mut summary.ok,
                Outcome::Imputed => &mut summary.imputes,
                Outcome::Skipped => &mut summary.skips,
            };
            *count += 1;
            writeln!(output, "{text}")?;
            output.flush()?;
            next += 1;
        }
    }
    assert!(pending.is_empty(), "reorder buffer drained out of order");
    // Imputed and skipped ticks were answered `ok:true` too.
    summary.ok += summary.imputes + summary.skips;
    Ok(summary)
}

/// Parse one request line, submit it, and render the answer.
fn answer_request(
    service: &ImputeService,
    defaults: &ImputeOptions,
    line: &str,
    seq: u64,
    line_no: u64,
) -> Answer {
    let (outcome, text) = match parse_request(line, defaults) {
        Err(e) => (Outcome::Failed, e.render(line_no)),
        Ok(req) => {
            let id = req.id;
            match service.submit(req) {
                Ok(res) => (Outcome::Answered, request_ok_line(id, &res)),
                Err(e) => {
                    (Outcome::Failed, error_line(Some(id), e.kind(), &e.to_string(), line_no))
                }
            }
        }
    };
    Answer { seq, outcome, text }
}

/// One shard: owns every session with `session % workers == widx` and runs
/// their ticks in arrival order.
fn shard_loop(
    widx: usize,
    trained: &Arc<TrainedModel>,
    cfg: StreamConfig,
    ticks: mpsc::Receiver<TickItem>,
    answers: mpsc::Sender<Answer>,
) {
    let mut sessions: HashMap<u64, StreamSession> = HashMap::new();
    for item in ticks {
        let t0 = std::time::Instant::now();
        let _trace = st_obs::trace_scope(st_obs::next_trace_id());
        let _span = st_obs::span!(
            "stream_tick",
            worker = widx as u64,
            session = item.session,
            seq = item.seq,
        );
        st_obs::counter_add("stream.ticks", 1.0);
        let (outcome, text) = match run_tick(trained, cfg, &mut sessions, &item) {
            Ok(out) => {
                st_obs::counter_add(
                    if out.imputed { "stream.imputes" } else { "stream.skips" },
                    1.0,
                );
                st_obs::hist_record("stream.revisions", out.revisions.len() as f64);
                let outcome = if out.imputed { Outcome::Imputed } else { Outcome::Skipped };
                (outcome, tick_ok_line(item.id, item.session, &out))
            }
            Err(e) => {
                st_obs::counter_add("stream.errors", 1.0);
                (Outcome::Failed, error_line(Some(item.id), e.kind(), &e.to_string(), item.line_no))
            }
        };
        st_obs::hist_record("stream.tick_ms", t0.elapsed().as_secs_f64() * 1e3);
        st_obs::gauge_set("stream.sessions", sessions.len() as f64);
        if answers.send(Answer { seq: item.seq, outcome, text }).is_err() {
            return; // the writer failed on I/O
        }
    }
}

/// Run one tick on its session, opening the session on first use. A panic
/// inside the model drops the session and answers `worker_panicked`.
fn run_tick(
    trained: &Arc<TrainedModel>,
    cfg: StreamConfig,
    sessions: &mut HashMap<u64, StreamSession>,
    item: &TickItem,
) -> pristi_core::Result<TickOutput> {
    let session = match sessions.entry(item.session) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(e) => {
            let session = StreamSession::new(Arc::clone(trained), cfg, item.session)?;
            st_obs::counter_add("stream.sessions_opened", 1.0);
            e.insert(session)
        }
    };
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.tick(&item.tick)))
        .unwrap_or_else(|payload| {
            sessions.remove(&item.session);
            Err(PristiError::WorkerPanicked(panic_message(&*payload)))
        })
}

/// A JSON line with a numeric `id`, read through typed accessors: a field
/// that is present but malformed is a `bad_request` naming it.
struct Fields {
    obj: Json,
    id: u64,
}

impl Fields {
    fn parse(line: &str, what: &str) -> Result<Self, LineError> {
        let obj = json::parse(line).map_err(LineError::BadJson)?;
        let id = obj.get("id").and_then(Json::as_u64).ok_or_else(|| LineError::BadRequest {
            id: None,
            detail: format!("{what} needs a numeric \"id\""),
        })?;
        Ok(Self { obj, id })
    }

    fn fail(&self, detail: impl Into<String>) -> LineError {
        LineError::BadRequest { id: Some(self.id), detail: detail.into() }
    }

    fn uint(&self, key: &str) -> Result<Option<u64>, LineError> {
        self.obj
            .get(key)
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| self.fail(format!("\"{key}\" must be a non-negative integer")))
            })
            .transpose()
    }

    /// One row of cells, `null` = missing.
    fn cells(&self, v: &Json, what: &str) -> Result<Vec<Option<f32>>, LineError> {
        let cells =
            v.as_arr().ok_or_else(|| self.fail(format!("{what} must be an array of cells")))?;
        cells
            .iter()
            .enumerate()
            .map(|(i, cell)| match cell {
                Json::Null => Ok(None),
                other => other.as_f64().map(|v| Some(v as f32)).ok_or_else(|| {
                    self.fail(format!("{what} cell [{i}] must be a number or null"))
                }),
            })
            .collect()
    }

    /// The `sampler` spec, or its `ddim_steps` alias.
    fn sampler(&self) -> Result<Option<Sampler>, LineError> {
        match (self.obj.get("sampler"), self.uint("ddim_steps")?) {
            (Some(_), Some(_)) => {
                Err(self.fail("\"sampler\" and \"ddim_steps\" are mutually exclusive"))
            }
            (Some(spec), None) => {
                let spec =
                    spec.as_str().ok_or_else(|| self.fail("\"sampler\" must be a spec string"))?;
                spec.parse().map(Some).map_err(|e| self.fail(format!("\"sampler\": {e}")))
            }
            (None, steps) => Ok(steps.map(|k| Sampler::Ddim { steps: k as usize, eta: 0.0 })),
        }
    }

    fn tier(&self) -> Result<AdmissionTier, LineError> {
        match self.obj.get("tier").map(Json::as_str) {
            None | Some(Some("interactive")) => Ok(AdmissionTier::Interactive),
            Some(Some("best_effort")) => Ok(AdmissionTier::BestEffort),
            Some(_) => Err(self.fail("\"tier\" must be \"interactive\" or \"best_effort\"")),
        }
    }
}

/// Parse one request line. Shapes are left to the service's validation;
/// `defaults` fill in an absent `n_samples` or `sampler`.
fn parse_request(line: &str, defaults: &ImputeOptions) -> Result<ImputeRequest, LineError> {
    let f = Fields::parse(line, "request")?;
    let rows = f
        .obj
        .get("values")
        .and_then(Json::as_arr)
        .filter(|rows| !rows.is_empty())
        .ok_or_else(|| f.fail("request needs a \"values\" array of sensor rows"))?;
    let rows = rows
        .iter()
        .enumerate()
        .map(|(i, row)| f.cells(row, &format!("\"values\" row {i}")))
        .collect::<Result<Vec<_>, _>>()?;
    let (n, l) = (rows.len(), rows[0].len());
    let mut values = NdArray::zeros(&[n, l]);
    let mut observed = NdArray::zeros(&[n, l]);
    for (i, row) in rows.iter().enumerate() {
        if row.len() != l {
            return Err(f.fail(format!(
                "ragged \"values\": row 0 has {l} cells, row {i} has {}",
                row.len()
            )));
        }
        for (li, cell) in row.iter().enumerate() {
            if let Some(v) = *cell {
                values.data_mut()[i * l + li] = v;
                observed.data_mut()[i * l + li] = 1.0;
            }
        }
    }
    Ok(ImputeRequest {
        id: f.id,
        window: Window { values, observed, eval: NdArray::zeros(&[n, l]), t_start: 0 },
        n_samples: f.uint("n_samples")?.map_or(defaults.n_samples, |v| v as usize),
        sampler: f.sampler()?.unwrap_or(defaults.sampler),
        tier: f.tier()?,
        deadline: None,
    })
}

/// Parse one tick line into `(id, session, tick)`.
fn parse_tick(line: &str) -> Result<(u64, u64, Tick), LineError> {
    let f = Fields::parse(line, "tick")?;
    let session = f.uint("session")?.unwrap_or(0);
    let reimpute = match f.obj.get("reimpute") {
        None | Some(Json::Bool(false)) => false,
        Some(Json::Bool(true)) => true,
        Some(_) => return Err(f.fail("\"reimpute\" must be a boolean")),
    };
    let tick = match (f.obj.get("tick"), reimpute) {
        (Some(_), true) => return Err(f.fail("\"tick\" and \"reimpute\" are mutually exclusive")),
        (None, true) => Tick::Reimpute,
        (None, false) => {
            return Err(f.fail("tick needs a \"tick\" cell array or \"reimpute\":true"))
        }
        (Some(cells), false) => Tick::Data(f.cells(cells, "\"tick\"")?),
    };
    Ok((f.id, session, tick))
}

/// Append a finite number in its shortest round-trip form, anything else as
/// `null`.
fn push_num(out: &mut String, v: f32) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A request's `ok:true` answer: median and 5 %/95 % quantile grids.
fn request_ok_line(id: u64, res: &ImputationResult) -> String {
    let mut out = format!("{{\"id\":{id},\"ok\":true");
    for (key, grid) in
        [("median", res.median()), ("q05", res.quantile(0.05)), ("q95", res.quantile(0.95))]
    {
        let _ = write!(out, ",\"{key}\":[");
        for (i, row) in grid.data().chunks(grid.shape()[1]).enumerate() {
            out.push_str(if i == 0 { "[" } else { ",[" });
            for (li, &v) in row.iter().enumerate() {
                if li > 0 {
                    out.push(',');
                }
                push_num(&mut out, v);
            }
            out.push(']');
        }
        out.push(']');
    }
    out.push('}');
    out
}

/// A tick's `ok:true` answer.
fn tick_ok_line(id: u64, session: u64, out: &TickOutput) -> String {
    let mut s = format!(
        "{{\"id\":{id},\"ok\":true,\"session\":{session},\"step\":{},\"watermark\":{},\
         \"imputed\":{},\"revisions\":[",
        out.step, out.watermark, out.imputed
    );
    for (i, r) in out.revisions.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"node\":{},\"step\":{}", r.node, r.step);
        for (key, v) in [("q05", r.q05), ("q50", r.q50), ("q95", r.q95)] {
            let _ = write!(s, ",\"{key}\":");
            push_num(&mut s, v);
        }
        s.push('}');
    }
    s.push_str("]}");
    s
}

/// The typed error answer `{"id":..,"ok":false,"error":{kind,detail,line}}`.
fn error_line(id: Option<u64>, kind: &str, detail: &str, line_no: u64) -> String {
    let id = id.map_or_else(|| "null".to_string(), |v| v.to_string());
    format!(
        "{{\"id\":{id},\"ok\":false,\"error\":{{\"kind\":{},\"detail\":{},\"line\":{line_no}}}}}",
        json::escape(kind),
        json::escape(detail)
    )
}
