//! Metric catalogue and the one-line JSON result.
//!
//! Every metric is declared here with its unit; every workload prints all of
//! them, and `BENCHMARK.json` lists the same names and units (the self-tests
//! check that the two agree).

use std::collections::BTreeMap;

/// The three workloads.
pub const WORKLOADS: [&str; 3] = ["train_eval", "serve", "stream"];

/// A metric: name and unit.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// End-to-end metrics, printed by every workload with `--trace 0`. README.md
/// says what each one measures on each workload.
pub const END_TO_END: &[MetricSpec] = &[
    m("setup_s", "s"),
    m("peak_rss_mb", "MiB"),
    m("train_windows_per_s", "1/s"),
    m("train_loss", "mse"),
    m("capacity_rps", "1/s"),
    m("lo.p50_ms", "ms"),
    m("heldout_crps", "ratio"),
    m("heldout_mae", "data_units"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A layer
/// the workload never enters reports 0.
pub const PER_LAYER: &[MetricSpec] = &[
    m("st-data.batch_prep_ms", "ms"),
    m("st-data.slide_us", "us"),
    m("st-tensor.backward_ms", "ms"),
    m("st-tensor.optim_ms", "ms"),
    m("st-tensor.tape_nodes", "count"),
    m("st-tensor.pool_hit_ratio.train", "ratio"),
    m("st-tensor.pool_misses.train", "count"),
    m("st-tensor.pool_hit_ratio.impute", "ratio"),
    m("st-tensor.pool_misses.impute", "count"),
    m("st-par.speedup", "ratio"),
    m("st-diffusion.step_ms", "ms"),
    m("st-diffusion.nfe", "count"),
    m("pristi-core.train_forward_ms", "ms"),
    m("pristi-core.cond_prep_ms", "ms"),
    m("pristi-core.prior_build_ms", "ms"),
    m("pristi-core.prior_cache_mb", "MiB"),
    m("pristi-core.eps_eval_ms", "ms"),
    m("pristi-core.merge_ms", "ms"),
    m("pristi-core.quantile_ms", "ms"),
    m("pristi-core.impute_ms", "ms"),
    m("st-serve.submit_ms", "ms"),
    m("st-serve.service_overhead_ms", "ms"),
    m("st-serve.tick_impute_ms", "ms"),
    m("st-serve.tick_skip_ms", "ms"),
    m("st-serve.impute_share", "ratio"),
    m("st-serve.failed", "count"),
    m("pristi.frontend_ms", "ms"),
    m("pristi.wait_ms", "ms"),
    m("trace.coverage", "ratio"),
    m("trace.traced_total_s", "s"),
    m("trace.untraced_total_s", "s"),
];

/// The metrics every workload prints in the given mode.
pub fn expected(trace: bool) -> &'static [MetricSpec] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The result of one run: operations, output-check verdict and metrics.
#[derive(Debug)]
pub struct Report {
    workload: &'static str,
    trace: bool,
    /// Operations attempted (train steps and windows, requests, ticks).
    pub attempted: u64,
    /// Operations that failed or failed an output check.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    problems: Vec<String>,
}

impl Report {
    /// An empty report for one workload and mode.
    pub fn new(workload: &'static str, trace: bool) -> Self {
        Self {
            workload,
            trace,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            problems: Vec::new(),
        }
    }

    /// Set a metric; the name must be one of this mode's metrics.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            expected(self.trace).iter().any(|s| s.name == name),
            "{name} is not a {} metric of {}",
            if self.trace {
                "per-layer"
            } else {
                "end-to-end"
            },
            self.workload
        );
        self.metrics.insert(name, value);
    }

    /// Record the verdict of an output check; a failed one makes the run
    /// incorrect and is listed on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Problems found so far.
    pub fn problems(&self) -> &[String] {
        &self.problems
    }

    /// The final JSON line. A missing or non-finite metric is itself a problem.
    pub fn render(&mut self) -> String {
        let mut parts = Vec::new();
        for spec in expected(self.trace) {
            let v = self.metrics.get(spec.name).copied().unwrap_or(f64::NAN);
            if !v.is_finite() {
                self.problems
                    .push(format!("metric {} is missing or not finite", spec.name));
            }
            let v = if v.is_finite() { v } else { 0.0 };
            parts.push(format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                spec.name,
                fmt_num(v),
                spec.unit
            ));
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            parts.join(",")
        )
    }
}

/// A finite number in JSON with every digit Rust keeps (shortest round trip).
pub fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}
