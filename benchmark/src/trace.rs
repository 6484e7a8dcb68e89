//! Spans recorded by the harness around its calls into each layer.
//!
//! ISSUE 11 measures every layer *from outside*: the program has no
//! spans of its own yet (ROADMAP item 5), so a span here is either a
//! call the harness made into a public function, or a flow stage the
//! program reported through the public `FlowObserver` hook. Spans are
//! kept in memory and written out once, after the measured window.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use asicgap::{FlowObserver, FlowStage, NoObserver};

use crate::json::Json;

/// One recorded interval. `op` is the operation every span of one
/// request shares; `parent` is the span that caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// The in-memory span log of one traced run.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// Opens a span now; [`Tracer::close`] ends it. Children opened in
    /// between name it as their parent.
    pub fn open(&self, op: u64, parent: Option<u32>, name: &'static str) -> u32 {
        let now = self.us(Instant::now());
        let mut spans = self.spans.lock().expect("span log lock");
        let id = spans.len() as u32;
        spans.push(Span {
            id,
            parent,
            op,
            name,
            start_us: now,
            end_us: now,
        });
        id
    }

    pub fn close(&self, id: u32) {
        let now = self.us(Instant::now());
        self.spans.lock().expect("span log lock")[id as usize].end_us = now;
    }

    /// Times `f` as a span.
    pub fn span<T>(
        &self,
        op: u64,
        parent: Option<u32>,
        name: &'static str,
        f: impl FnOnce(u32) -> T,
    ) -> T {
        let id = self.open(op, parent, name);
        let out = f(id);
        self.close(id);
        out
    }

    /// Records a span that just ended and lasted `elapsed` — how a
    /// `FlowObserver::stage_done` callback becomes a span.
    pub fn ended(&self, op: u64, parent: Option<u32>, name: &'static str, elapsed: Duration) {
        let end = Instant::now();
        let start = end.checked_sub(elapsed).unwrap_or(self.t0).max(self.t0);
        let mut spans = self.spans.lock().expect("span log lock");
        let id = spans.len() as u32;
        spans.push(Span {
            id,
            parent,
            op,
            name,
            start_us: self.us(start),
            end_us: self.us(end),
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span log lock")
    }
}

/// Span name and per-operation metric of a flow stage.
pub fn stage_names(stage: FlowStage) -> (&'static str, &'static str) {
    match stage {
        FlowStage::Synth => ("core.stage.synth", "core.stage.synth_ms"),
        FlowStage::Pipeline => ("core.stage.pipeline", "core.stage.pipeline_ms"),
        FlowStage::Sizing => ("core.stage.sizing", "core.stage.sizing_ms"),
        FlowStage::Place => ("core.stage.place", "core.stage.place_ms"),
        FlowStage::Route => ("core.stage.route", "core.stage.route_ms"),
        FlowStage::Sta => ("core.stage.sta", "core.stage.sta_ms"),
        FlowStage::Equiv => ("core.stage.equiv", "core.stage.equiv_ms"),
    }
}

/// A `FlowObserver` that turns stage reports into child spans of the
/// flow call the harness is timing.
struct StageSpans<'a> {
    tracer: &'a Tracer,
    op: u64,
    parent: u32,
}

impl FlowObserver for StageSpans<'_> {
    fn stage_done(&self, stage: FlowStage, elapsed: Duration) {
        self.tracer
            .ended(self.op, Some(self.parent), stage_names(stage).0, elapsed);
    }
}

/// The tracing side of one operation: its root span when the run is
/// traced, nothing when it is not — so a workload writes each call into
/// a layer once, and the untraced run takes the very same path minus
/// the bookkeeping.
#[derive(Clone, Copy)]
pub struct OpTrace<'a>(Option<(&'a Tracer, u64, u32)>);

impl<'a> OpTrace<'a> {
    /// Opens the operation's root span (`name`) if there is a tracer.
    pub fn begin(tracer: Option<&'a Tracer>, op: u64, name: &'static str) -> OpTrace<'a> {
        OpTrace(tracer.map(|t| (t, op, t.open(op, None, name))))
    }

    pub fn end(self) {
        if let Some((t, _, root)) = self.0 {
            t.close(root);
        }
    }

    pub fn is_traced(&self) -> bool {
        self.0.is_some()
    }

    /// A call into a layer: a child span of the operation.
    pub fn call<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.flow(name, |_| f())
    }

    /// A call into a flow that reports its stages: `f` gets the observer
    /// to pass on, and every stage becomes a child span of the call.
    pub fn flow<T>(&self, name: &'static str, f: impl FnOnce(&dyn FlowObserver) -> T) -> T {
        match self.0 {
            None => f(&NoObserver),
            Some((tracer, op, root)) => tracer.span(op, Some(root), name, |parent| {
                f(&StageSpans { tracer, op, parent })
            }),
        }
    }
}

/// One row of the layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    pub count: usize,
    pub total_ms: f64,
    /// `total_ms` minus the part its direct children cover.
    pub self_ms: f64,
}

/// Aggregates spans by name with self-times, and reports how much of
/// the root (operation) spans their direct children cover.
pub fn layer_table(spans: &[Span]) -> (Vec<LayerRow>, f64) {
    let mut child_ms = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            // Clip to the parent: an observer-reported stage can start a
            // hair before the harness opened the enclosing call.
            let covered = s.end_us.min(parent.end_us) - s.start_us.max(parent.start_us);
            child_ms[p as usize] += covered.max(0.0) / 1e3;
        }
    }
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    let (mut root_ms, mut root_covered) = (0.0, 0.0);
    for s in spans {
        let row = rows.entry(s.name).or_insert(LayerRow {
            name: s.name,
            count: 0,
            total_ms: 0.0,
            self_ms: 0.0,
        });
        row.count += 1;
        row.total_ms += s.ms();
        row.self_ms += (s.ms() - child_ms[s.id as usize]).max(0.0);
        if s.parent.is_none() {
            root_ms += s.ms();
            root_covered += child_ms[s.id as usize].min(s.ms());
        }
    }
    let coverage = if root_ms > 0.0 {
        root_covered / root_ms
    } else {
        0.0
    };
    (rows.into_values().collect(), coverage)
}

/// Total milliseconds of every span called `name`.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    // `fold`, not `sum`: an empty `f64` sum is -0.0, which prints as "-0".
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |ms, s| ms + s.ms())
}

/// Median duration, ms, of the spans called `name`; 0 when there are none.
pub fn median_ms(spans: &[Span], name: &str) -> f64 {
    let ms = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect();
    crate::stats::median(&crate::stats::sorted(ms))
}

pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(f64::from(s.id))),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("op", Json::Num(s.op as f64)),
                    ("name", Json::str(s.name)),
                    ("start_us", Json::Num(s.start_us)),
                    ("end_us", Json::Num(s.end_us)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_and_coverage_is_reported() {
        let spans = [
            span(0, None, "op", 0.0, 10_000.0),
            span(1, Some(0), "call", 1_000.0, 9_000.0),
            span(2, Some(1), "stage", 2_000.0, 5_000.0),
            // Starts before its parent: only the overlap counts.
            span(3, Some(1), "stage", 500.0, 2_000.0),
        ];
        let (rows, coverage) = layer_table(&spans);
        let row = |n: &str| rows.iter().find(|r| r.name == n).expect("row").clone();
        assert_eq!(row("op").self_ms, 2.0);
        assert_eq!(row("call").total_ms, 8.0);
        assert_eq!(row("call").self_ms, 4.0);
        assert_eq!(row("stage").count, 2);
        assert_eq!(row("stage").self_ms, 4.5);
        assert!((coverage - 0.8).abs() < 1e-12);
        assert_eq!(total_ms(&spans, "stage"), 4.5);
        assert_eq!(median_ms(&spans, "stage"), 2.25);
        assert_eq!(median_ms(&spans, "absent"), 0.0);
    }

    #[test]
    fn tracer_nests_open_close_and_observer_spans() {
        let t = Tracer::new();
        let op = OpTrace::begin(Some(&t), 7, "op");
        assert!(op.is_traced());
        let out = op.flow("call", |obs| {
            obs.stage_done(FlowStage::Place, Duration::from_micros(10));
            41 + 1
        });
        op.end();
        assert_eq!(out, 42);
        // Untraced, the same calls run and record nothing.
        let none = OpTrace::begin(None, 8, "op");
        assert_eq!(none.call("call", || 7), 7);
        none.end();
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].name, "core.stage.place");
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_us >= s.start_us));
        assert!(spans[0].end_us >= spans[1].end_us);
    }
}
