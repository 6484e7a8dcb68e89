//! What every workload shares: the run configuration, the tally a
//! closed-loop window fills, reply checks, and the result record with
//! its JSON forms.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use asicgap::{ConvergenceTrace, ScenarioOutcome};

use crate::json::Json;
use crate::spec::{unit_of, Workload, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::{layer_table, Span};

/// One run's parameters, as the driver passes them.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// `T`: the ceiling on harness threads + connections, and the
/// `ASICGAP_THREADS` of the in-process workloads. Recorded in every
/// result because throughput depends on it.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// Set-up runs this many times per run and reports its median, so one
/// slow spawn does not decide `setup_s`.
pub const SETUP_REPS: usize = 3;

/// Runs `setup` [`SETUP_REPS`] times (dropping all but the last product,
/// untimed) and returns the last product with the median wall time.
pub fn setup_median<S>(mut setup: impl FnMut() -> Result<S, String>) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((
        last.expect("SETUP_REPS is positive"),
        stats::median(&stats::sorted(times)),
    ))
}

/// FNV-1a over the first `want` replies of a stream, each terminated by
/// a zero byte so reply boundaries are part of the digest.
#[derive(Debug, Clone)]
pub struct Digest {
    hash: u64,
    seen: usize,
    want: usize,
}

impl Digest {
    pub fn new(want: usize) -> Digest {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            seen: 0,
            want,
        }
    }

    pub fn push(&mut self, reply: &str) {
        if self.seen == self.want {
            return;
        }
        for &b in reply.as_bytes().iter().chain([0u8].iter()) {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x100_0000_01b3);
        }
        self.seen += 1;
    }

    /// The digest once the whole prefix has been seen.
    pub fn finish(&self) -> Option<u64> {
        (self.seen == self.want).then_some(self.hash)
    }
}

/// What one closed-loop client accumulates over a window.
#[derive(Debug, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub latencies_ms: Vec<f64>,
    /// Correctness breaches, first few kept verbatim.
    pub problems: Vec<String>,
    pub digest: Digest,
}

impl Tally {
    pub fn new(digest_replies: usize) -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            latencies_ms: Vec::new(),
            problems: Vec::new(),
            digest: Digest::new(digest_replies),
        }
    }

    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    /// Books one operation: its latency if it succeeded, a failure (and
    /// why) if not.
    pub fn book(&mut self, started: Instant, result: Result<(), String>) {
        self.attempted += 1;
        match result {
            Ok(()) => self
                .latencies_ms
                .push(started.elapsed().as_secs_f64() * 1e3),
            Err(why) => {
                self.failed += 1;
                self.problem(why);
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies_ms.extend(other.latencies_ms);
        for p in other.problems {
            self.problem(p);
        }
    }
}

/// The measured window of a closed loop: operations start until `end`,
/// and the one in flight then completes and counts.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    start: Instant,
    end: Instant,
}

impl Window {
    /// Opens the window of a run. A traced run replays its stream for
    /// half of `--seconds` and spends the rest on the direct probes.
    pub fn open(cfg: &RunConfig) -> Window {
        let seconds = if cfg.trace {
            cfg.seconds / 2.0
        } else {
            cfg.seconds
        };
        let start = Instant::now();
        Window {
            start,
            end: start + Duration::from_secs_f64(seconds),
        }
    }

    pub fn running(&self) -> bool {
        Instant::now() < self.end
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Runs an in-process operation so that a panic inside the program is
/// one failed operation (as it would be one failed request to a daemon),
/// not the end of the run.
pub fn no_panic<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let what = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("(no message)");
        Err(format!("panicked: {what}"))
    })
}

/// Strict check of a `RUN` reply: it parses as a canonical outcome and
/// re-serializes to the same bytes.
pub fn check_outcome_text(text: &str) -> Result<ScenarioOutcome, String> {
    let outcome =
        ScenarioOutcome::parse_canonical(text).map_err(|e| format!("unparseable outcome: {e}"))?;
    if outcome.canonical_text() != text {
        return Err("outcome text is not canonical".to_string());
    }
    Ok(outcome)
}

/// Strict check of a `CLOSE` reply: the `close-outcome/v1` header, then
/// a convergence trace that parses and re-serializes to the same bytes.
pub fn check_closure_text(text: &str) -> Result<ConvergenceTrace, String> {
    let at = text
        .find("trace/v1\n")
        .ok_or("closure text carries no trace")?;
    let (head, trace_text) = text.split_at(at);
    let fields: Vec<&str> = head
        .lines()
        .map(|l| l.split(' ').next().unwrap_or(""))
        .collect();
    if fields != ["close-outcome/v1", "scenario", "target", "open", "closed"] {
        return Err(format!("closure header fields {fields:?}"));
    }
    let trace =
        ConvergenceTrace::parse_canonical(trace_text).ok_or("unparseable convergence trace")?;
    if trace.canonical_text() != trace_text {
        return Err("convergence trace text is not canonical".to_string());
    }
    Ok(trace)
}

/// What a workload hands back: the merged tally plus what only it knows.
pub struct Measured {
    pub tally: Tally,
    pub elapsed_s: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    /// Per-layer values; only a traced run fills it.
    pub layer: BTreeMap<&'static str, f64>,
    /// Every span of a traced run, in recording order.
    pub spans: Vec<Span>,
}

/// One workload's result, in the form that is printed, stored in result
/// sets, and compared by `check`.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub problems: Vec<String>,
    /// Successful operations = latency samples.
    pub samples: usize,
    /// Samples strictly beyond the reported p90.
    pub beyond_p90: usize,
    /// Printed for information; not an end-to-end metric.
    pub p99_ms: f64,
    pub digest: Option<u64>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: BTreeMap<String, f64>,
}

impl WorkloadResult {
    /// Folds a workload's measurements into the reported record, and
    /// returns the spans of a traced run beside it.
    pub fn from_measured(cfg: &RunConfig, m: Measured) -> (WorkloadResult, Vec<Span>) {
        let Measured {
            mut tally,
            elapsed_s,
            setup_s,
            peak_rss_mb,
            mut layer,
            spans,
        } = m;
        let lat = stats::sorted(std::mem::take(&mut tally.latencies_ms));
        let digest = tally.digest.finish();
        if let (Some(got), Some(want)) = (digest, cfg.workload.pinned_digest(cfg.seed)) {
            if got != want {
                tally.problem(format!(
                    "reply digest {got:#018x} differs from the pinned {want:#018x}"
                ));
            }
        }
        if lat.is_empty() {
            tally.problem("no operation completed in the window".to_string());
        }
        let ops_per_s = lat.len() as f64 / elapsed_s.max(f64::MIN_POSITIVE);
        let mut metrics = BTreeMap::new();
        if cfg.trace {
            let (_, coverage) = layer_table(&spans);
            layer.insert("trace.ops_per_s", ops_per_s);
            layer.insert("trace.span_coverage_ratio", coverage);
            layer.insert(
                "trace.spans_per_op",
                spans.len() as f64 / tally.attempted.max(1) as f64,
            );
            for def in PER_LAYER {
                let v = layer.get(def.name).copied().unwrap_or(0.0);
                metrics.insert(def.name.to_string(), if v.is_finite() { v } else { 0.0 });
            }
        } else {
            for (name, v) in [
                ("setup_s", setup_s),
                ("ops_per_s", ops_per_s),
                ("p50_ms", stats::median(&lat)),
                ("p90_ms", stats::percentile(&lat, 0.9)),
                ("peak_rss_mb", peak_rss_mb),
            ] {
                metrics.insert(name.to_string(), v);
            }
            debug_assert_eq!(metrics.len(), END_TO_END.len());
        }
        let result = WorkloadResult {
            workload: cfg.workload.name().to_string(),
            seed: cfg.seed,
            seconds: cfg.seconds,
            threads: threads(),
            traced: cfg.trace,
            attempted: tally.attempted.max(1),
            failed: tally.failed,
            correct: tally.problems.is_empty(),
            problems: tally.problems,
            samples: lat.len(),
            beyond_p90: stats::beyond(&lat, 0.9),
            p99_ms: stats::percentile(&lat, 0.99),
            digest,
            metrics,
        };
        (result, spans)
    }

    /// Failed operations as a share of those attempted.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }

    /// The one-line JSON object the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, &value)| {
                            (
                                name.clone(),
                                Json::obj([
                                    ("value", Json::Num(value)),
                                    ("unit", Json::str(unit_of(name))),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .write()
    }

    /// The table a person reads: every metric by name with its unit, and
    /// the sample counts beside every percentile.
    pub fn print(&self) {
        println!(
            "== {} (seed {}, {} s window, T={}, {}) ==",
            self.workload,
            self.seed,
            self.seconds,
            self.threads,
            if self.traced { "traced" } else { "untraced" }
        );
        if let Some(w) = Workload::parse(&self.workload) {
            println!("  why: {}", w.why());
        }
        for (name, value) in &self.metrics {
            println!("  {name:<34} {value:>16.6} {}", unit_of(name));
        }
        println!(
            "  samples {} (beyond p90: {}), p99_ms {:.4} (information only), fail_ratio {} \
             ({} of {} attempted)",
            self.samples,
            self.beyond_p90,
            self.p99_ms,
            self.fail_ratio(),
            self.failed,
            self.attempted
        );
        match self.digest {
            Some(d) => println!("  reply digest {d:#018x}"),
            None => println!("  reply digest: window too short to cover the digest prefix"),
        }
        for p in &self.problems {
            println!("  PROBLEM: {p}");
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&self.workload)),
            // Seeds and digests are 64-bit; JSON numbers are not.
            ("seed", Json::str(self.seed.to_string())),
            ("seconds", Json::Num(self.seconds)),
            ("threads", Json::Num(self.threads as f64)),
            ("traced", Json::Bool(self.traced)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("correct", Json::Bool(self.correct)),
            (
                "problems",
                Json::Arr(self.problems.iter().map(Json::str).collect()),
            ),
            ("samples", Json::Num(self.samples as f64)),
            ("beyond_p90", Json::Num(self.beyond_p90 as f64)),
            ("p99_ms", Json::Num(self.p99_ms)),
            ("fail_ratio", Json::Num(self.fail_ratio())),
            (
                "digest",
                self.digest
                    .map_or(Json::Null, |d| Json::str(format!("{d:016x}"))),
            ),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::Num(v)))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<WorkloadResult, String> {
        let field = |k: &str| j.get(k).ok_or(format!("result lacks {k:?}"));
        let num = |k: &str| field(k)?.as_f64().ok_or(format!("{k:?} is not a number"));
        let flag = |k: &str| field(k)?.as_bool().ok_or(format!("{k:?} is not a boolean"));
        let text = |k: &str| field(k)?.as_str().ok_or(format!("{k:?} is not a string"));
        Ok(WorkloadResult {
            workload: text("workload")?.to_string(),
            seed: text("seed")?.parse().map_err(|_| "bad seed".to_string())?,
            seconds: num("seconds")?,
            threads: num("threads")? as usize,
            traced: flag("traced")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            correct: flag("correct")?,
            problems: field("problems")?
                .items()
                .iter()
                .filter_map(|p| p.as_str().map(str::to_string))
                .collect(),
            samples: num("samples")? as usize,
            beyond_p90: num("beyond_p90")? as usize,
            p99_ms: num("p99_ms")?,
            digest: match field("digest")? {
                Json::Null => None,
                d => Some(
                    d.as_str()
                        .and_then(|h| u64::from_str_radix(h, 16).ok())
                        .ok_or("bad digest")?,
                ),
            },
            metrics: field("metrics")?
                .members()
                .iter()
                .map(|(k, v)| Ok((k.clone(), v.as_f64().ok_or(format!("metric {k:?}"))?)))
                .collect::<Result<_, String>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    pub fn sample_result(workload: &str, p50: f64) -> WorkloadResult {
        WorkloadResult {
            workload: workload.to_string(),
            seed: 0xFFFF_FFFF_FFFF_FFF1,
            seconds: 15.0,
            threads: 2,
            traced: false,
            attempted: 1000,
            failed: 0,
            correct: true,
            problems: vec!["a \"quoted\" note".to_string()],
            samples: 1000,
            beyond_p90: 100,
            p99_ms: 91.25,
            digest: Some(0xdead_beef_0123_4567),
            metrics: [
                ("setup_s", 1.25),
                ("ops_per_s", 45.123_456_789_012_34),
                ("p50_ms", p50),
                ("p90_ms", 47.5),
                ("peak_rss_mb", 12.0),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        }
    }

    #[test]
    fn result_json_round_trips() {
        let r = sample_result("serve_warm", 44.031_274_591_233_1);
        let text = r.to_json().write_pretty();
        let back = WorkloadResult::from_json(&json::parse(&text).expect("parses")).expect("reads");
        assert_eq!(back, r);
        let mut no_digest = r.clone();
        no_digest.digest = None;
        let back = WorkloadResult::from_json(&no_digest.to_json()).expect("reads");
        assert_eq!(back, no_digest);
        assert!(WorkloadResult::from_json(&Json::obj([("workload", Json::str("x"))])).is_err());
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = sample_result("serve_warm", 44.0).contract_line();
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).expect("one JSON object");
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let p50 = doc
            .get("metrics")
            .and_then(|m| m.get("p50_ms"))
            .expect("p50");
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("ms"));
        assert_eq!(p50.get("value").and_then(Json::as_f64), Some(44.0));
    }

    #[test]
    fn digest_covers_a_fixed_prefix_and_reply_boundaries() {
        let mut a = Digest::new(2);
        a.push("ab");
        assert_eq!(a.finish(), None, "prefix not yet covered");
        a.push("c");
        let done = a.finish().expect("covered");
        a.push("ignored");
        assert_eq!(a.finish(), Some(done));
        let mut b = Digest::new(2);
        b.push("a");
        b.push("bc");
        assert_ne!(b.finish(), Some(done), "boundaries are part of the digest");
    }

    #[test]
    fn a_panicking_operation_is_a_failed_operation() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r: Result<(), String> = no_panic(|| panic!("index {} out of bounds", 307));
        std::panic::set_hook(hook);
        assert_eq!(r, Err("panicked: index 307 out of bounds".to_string()));
        assert_eq!(no_panic(|| Ok(3)), Ok(3));
    }

    #[test]
    fn strict_reply_checks_reject_damage() {
        assert!(check_outcome_text("outcome/v1\nscenario x\n").is_err());
        assert!(check_closure_text("close-outcome/v1\nscenario x\n").is_err());
        assert!(check_closure_text("bogus\ntrace/v1\nend\n").is_err());
    }
}
