//! Result sets and the comparison `check` makes between two of them.
//!
//! A result set is what `all` writes: one or more results per workload.
//! `check` takes each side's median per end-to-end metric x workload,
//! and holds the second side to the bounds in `BENCHMARK.json`: it may
//! not be worse than the first by more than the metric's bound. Failed
//! operations, failed correctness checks and differing reply digests
//! are breaches whatever the timings say.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::run::WorkloadResult;
use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats;

/// Per-layer metrics that are counts of deterministic work: two runs of
/// one program at one seed must agree on them exactly.
pub const EXACT_COUNTS: [&str; 11] = [
    "sta.full_propagations",
    "sta.incremental_updates",
    "sta.pins_touched",
    "route.iterations",
    "route.overflow",
    "route.wire_ratio",
    "equiv.sat_cones",
    "equiv.conflicts",
    "autopilot.moves",
    "autopilot.proofs",
    "autopilot.closed_ratio",
];

/// What `check` needs from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    pub run_seconds: f64,
    /// Regression bound per end-to-end metric, as a share of the first
    /// side's median.
    pub bounds: BTreeMap<String, f64>,
}

impl Manifest {
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = json::parse(text)?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json lacks run_seconds")?;
        let mut bounds = BTreeMap::new();
        for m in doc
            .get("end_to_end")
            .ok_or("BENCHMARK.json lacks end_to_end")?
            .items()
        {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("bound")?;
            bounds.insert(name.to_string(), bound);
        }
        Ok(Manifest {
            run_seconds,
            bounds,
        })
    }

    pub fn load() -> Result<Manifest, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        Manifest::parse(&text)
    }
}

/// A stored result set: free-form provenance plus the results.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub meta: Json,
    pub results: Vec<WorkloadResult>,
}

impl ResultSet {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("meta", self.meta.clone()),
            (
                "results",
                Json::Arr(self.results.iter().map(WorkloadResult::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<ResultSet, String> {
        Ok(ResultSet {
            meta: doc.get("meta").cloned().unwrap_or(Json::Null),
            results: doc
                .get("results")
                .ok_or("result set lacks \"results\"")?
                .items()
                .iter()
                .map(WorkloadResult::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    pub fn read(path: &str) -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        ResultSet::from_json(&json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    }

    fn of(&self, workload: &str, traced: bool) -> Vec<&WorkloadResult> {
        self.results
            .iter()
            .filter(|r| r.workload == workload && r.traced == traced)
            .collect()
    }
}

/// Median and spread (interquartile distance over the median; `None`
/// under two runs) of one metric over a side's runs.
fn summarize(runs: &[&WorkloadResult], metric: &str) -> Option<(f64, Option<f64>)> {
    let values: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect();
    if values.is_empty() {
        return None;
    }
    let spread = (values.len() >= 2).then(|| stats::spread(&values));
    Some((stats::median(&stats::sorted(values)), spread))
}

/// The outcome of a comparison: every line to print, and how many of
/// them are breaches.
#[derive(Debug, Default)]
pub struct Verdict {
    pub lines: Vec<String>,
    pub breaches: usize,
}

impl Verdict {
    fn breach(&mut self, line: String) {
        self.lines.push(format!("BREACH  {line}"));
        self.breaches += 1;
    }
}

/// Holds `second` to the bounds against `first`.
pub fn compare(manifest: &Manifest, first: &ResultSet, second: &ResultSet) -> Verdict {
    let mut v = Verdict::default();
    for w in WORKLOADS {
        let (a, b) = (first.of(w.name(), false), second.of(w.name(), false));
        if a.is_empty() || b.is_empty() {
            v.breach(format!("{}: missing from a result set", w.name()));
            continue;
        }
        for (side, runs) in [("first", &a), ("second", &b)] {
            for r in runs.iter().filter(|r| !r.correct || r.failed > 0) {
                v.breach(format!(
                    "{} ({side}, seed {}): {} of {} operations failed, correct={}{}",
                    w.name(),
                    r.seed,
                    r.failed,
                    r.attempted,
                    r.correct,
                    r.problems
                        .first()
                        .map_or(String::new(), |p| format!(" ({p})"))
                ));
            }
        }
        for def in END_TO_END {
            let bound = manifest.bounds.get(def.name).copied().unwrap_or(0.0);
            let (Some((ma, sa)), Some((mb, sb))) =
                (summarize(&a, def.name), summarize(&b, def.name))
            else {
                v.breach(format!("{} {}: not reported", w.name(), def.name));
                continue;
            };
            let worse = match def.better {
                Better::Lower => (mb - ma) / ma.abs(),
                Better::Higher => (ma - mb) / ma.abs(),
            };
            let spread =
                |s: Option<f64>| s.map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0));
            let line = format!(
                "{:<15} {:<12} {:>12.4} -> {:>12.4} {:<4} worse by {:>+6.1}% (bound {:.0}%), spread {} / {}",
                w.name(),
                def.name,
                ma,
                mb,
                def.unit,
                worse * 100.0,
                bound * 100.0,
                spread(sa),
                spread(sb),
            );
            if worse > bound {
                v.breach(line);
            } else if sa.into_iter().chain(sb).any(|s| s > bound) {
                // Spread wider than the bound: the comparison resolves
                // nothing, and says so rather than "unchanged".
                v.lines.push(format!("unresolved {line}"));
            } else {
                v.lines.push(format!("ok      {line}"));
            }
        }
        // Same seed, same program: same bytes.
        for ra in &a {
            for rb in b.iter().filter(|rb| rb.seed == ra.seed) {
                if let (Some(da), Some(db)) = (ra.digest, rb.digest) {
                    if da != db {
                        v.breach(format!(
                            "{} seed {}: reply digest {da:016x} != {db:016x}",
                            w.name(),
                            ra.seed
                        ));
                    }
                }
            }
        }
        // Exact counts of the traced runs, where both sides carry them.
        for ra in first.of(w.name(), true) {
            for rb in second
                .of(w.name(), true)
                .into_iter()
                .filter(|rb| rb.seed == ra.seed)
            {
                for name in EXACT_COUNTS {
                    if ra.metrics.get(name) != rb.metrics.get(name) {
                        v.breach(format!(
                            "{} seed {}: exact count {name} differs ({:?} vs {:?})",
                            w.name(),
                            ra.seed,
                            ra.metrics.get(name),
                            rb.metrics.get(name)
                        ));
                    }
                }
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PER_LAYER;

    fn manifest() -> Manifest {
        Manifest::parse(
            r#"{"run_seconds": 15, "end_to_end": [
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
                {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
                {"name": "p90_ms", "unit": "ms", "better": "lower", "bound": 0.15},
                {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.10}]}"#,
        )
        .expect("manifest parses")
    }

    fn result(workload: &str, edit: impl Fn(&mut WorkloadResult)) -> WorkloadResult {
        let mut r = WorkloadResult {
            workload: workload.to_string(),
            seed: 11,
            seconds: 15.0,
            threads: 2,
            traced: false,
            attempted: 500,
            failed: 0,
            correct: true,
            problems: Vec::new(),
            samples: 500,
            beyond_p90: 50,
            p99_ms: 60.0,
            digest: Some(7),
            metrics: [
                ("setup_s", 1.0),
                ("ops_per_s", 40.0),
                ("p50_ms", 44.0),
                ("p90_ms", 48.0),
                ("peak_rss_mb", 20.0),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        };
        edit(&mut r);
        r
    }

    fn set(edit: impl Fn(&mut WorkloadResult)) -> ResultSet {
        ResultSet {
            meta: Json::Null,
            results: WORKLOADS.iter().map(|w| result(w.name(), &edit)).collect(),
        }
    }

    #[test]
    fn accepts_an_in_bound_pair() {
        let first = set(|_| {});
        // 9 % slower median, 9 % fewer operations: inside every bound.
        let second = set(|r| {
            r.metrics.insert("p50_ms".to_string(), 44.0 * 1.09);
            r.metrics.insert("ops_per_s".to_string(), 40.0 * 0.91);
        });
        let v = compare(&manifest(), &first, &second);
        assert_eq!(v.breaches, 0, "{:#?}", v.lines);
        assert_eq!(v.lines.len(), WORKLOADS.len() * END_TO_END.len());
        // Getting *better* by any amount is never a breach.
        let faster = set(|r| {
            r.metrics.insert("p50_ms".to_string(), 4.0);
            r.metrics.insert("ops_per_s".to_string(), 400.0);
        });
        assert_eq!(compare(&manifest(), &first, &faster).breaches, 0);
    }

    #[test]
    fn rejects_an_out_of_bound_pair() {
        let first = set(|_| {});
        let slower = set(|r| {
            if r.workload == "serve_warm" {
                r.metrics.insert("p50_ms".to_string(), 44.0 * 1.11);
            }
        });
        let v = compare(&manifest(), &first, &slower);
        assert_eq!(v.breaches, 1, "{:#?}", v.lines);
        assert!(v
            .lines
            .iter()
            .any(|l| l.starts_with("BREACH") && l.contains("serve_warm") && l.contains("p50_ms")));

        let fewer = set(|r| {
            r.metrics.insert("ops_per_s".to_string(), 40.0 * 0.89);
        });
        assert_eq!(
            compare(&manifest(), &first, &fewer).breaches,
            WORKLOADS.len()
        );
    }

    #[test]
    fn failures_digests_and_missing_workloads_are_breaches() {
        let first = set(|_| {});
        let failed = set(|r| {
            if r.workload == "flow_cold" {
                r.failed = 1;
                r.correct = false;
            }
        });
        assert_eq!(compare(&manifest(), &first, &failed).breaches, 1);

        let other_bytes = set(|r| {
            if r.workload == "soc_ingest" {
                r.digest = Some(8);
            }
        });
        assert_eq!(compare(&manifest(), &first, &other_bytes).breaches, 1);
        // A different seed is a different stream: digests are not compared.
        let other_seed = set(|r| {
            r.seed = 12;
            r.digest = Some(8);
        });
        assert_eq!(compare(&manifest(), &first, &other_seed).breaches, 0);

        let mut partial = set(|_| {});
        partial.results.pop();
        assert_eq!(compare(&manifest(), &first, &partial).breaches, 1);
    }

    #[test]
    fn exact_counts_of_traced_runs_must_agree() {
        for count in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.name == count), "{count}");
        }
        let traced = |moves: f64| {
            let mut s = set(|_| {});
            s.results.push(result("flow_cold", |r| {
                r.traced = true;
                r.metrics = [("autopilot.moves".to_string(), moves)]
                    .into_iter()
                    .collect();
            }));
            s
        };
        assert_eq!(
            compare(&manifest(), &traced(31.0), &traced(31.0)).breaches,
            0
        );
        assert_eq!(
            compare(&manifest(), &traced(31.0), &traced(32.0)).breaches,
            1
        );
    }

    #[test]
    fn medians_and_spread_come_from_repeated_runs() {
        let runs = |p50s: &[f64]| ResultSet {
            meta: Json::Null,
            results: WORKLOADS
                .iter()
                .flat_map(|w| {
                    p50s.iter().enumerate().map(|(i, &p)| {
                        result(w.name(), |r| {
                            r.seed = 11 + i as u64;
                            r.metrics.insert("p50_ms".to_string(), p);
                        })
                    })
                })
                .collect(),
        };
        // Median 44 on both sides; the second side's quartiles are far
        // apart, so the metric is unresolved, not "ok".
        let steady = runs(&[43.9, 44.0, 44.1]);
        let noisy = runs(&[30.0, 44.0, 60.0]);
        let v = compare(&manifest(), &steady, &noisy);
        assert_eq!(v.breaches, 0);
        assert_eq!(
            v.lines
                .iter()
                .filter(|l| l.starts_with("unresolved"))
                .count(),
            WORKLOADS.len()
        );
        let set_json = steady.to_json().write_pretty();
        let back = ResultSet::from_json(&json::parse(&set_json).expect("parses")).expect("reads");
        assert_eq!(back, steady);
    }
}
