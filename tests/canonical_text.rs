//! Every canonical text is accepted only if it re-encodes to the same
//! bytes.
//!
//! One seeded mutation property runs over every format read through
//! `asicgap_tech::text`: a mutated text is either refused or parsed into
//! something whose encoding is that text, byte for byte. Named cases
//! below pin each spelling the formats used to accept and re-print
//! differently (`+5`, `007`, `1.50`, upper-case hex, CRLF, a missing
//! final newline, leftover tokens, a repeated or reordered `RUN` field,
//! out-of-order histogram buckets, and in an embedded `netlist/v1` text a
//! leading zero on an index or an escape spelled other than the encoder
//! spells it).

use std::sync::OnceLock;
use std::time::Duration;

use asicgap::cells::{Library, LibrarySpec};
use asicgap::tech::{Rng64, Technology};
use asicgap::{
    close_timing_staged, run_scenario_staged, ArtifactStore, ClosureOutcome, ClosureTarget,
    ConvergenceTrace, DesignScenario, FlowStage, MemStore, PipelineArtifact, PlaceArtifact,
    RouteArtifact, ScenarioOutcome, StageReuse, SynthArtifact, Verdict, VerifyLevel, WireModel,
    WorkloadSpec,
};
use asicgap_serve::{
    CloseRequest, Metrics, MetricsSnapshot, Request, Response, RunRequest, ScenarioPreset,
};

/// Parses a text and writes back what was parsed; `None` when refused.
type Codec = fn(&str) -> Option<String>;

fn lib() -> &'static Library {
    static LIB: OnceLock<Library> = OnceLock::new();
    LIB.get_or_init(|| LibrarySpec::rich().build(&Technology::cmos025_asic()))
}

fn outcome(t: &str) -> Option<String> {
    ScenarioOutcome::parse_canonical(t)
        .ok()
        .map(|o| o.canonical_text())
}

fn closure(t: &str) -> Option<String> {
    ClosureOutcome::parse_canonical(t)
        .ok()
        .map(|o| o.canonical_text())
}

fn trace(t: &str) -> Option<String> {
    ConvergenceTrace::parse_canonical(t).map(|t| t.canonical_text())
}

fn stats(t: &str) -> Option<String> {
    MetricsSnapshot::parse(t).ok().map(|s| s.to_string())
}

fn synth(t: &str) -> Option<String> {
    SynthArtifact::parse(t, lib()).ok().map(|a| a.encode(lib()))
}

fn pipeline(t: &str) -> Option<String> {
    PipelineArtifact::parse(t, lib())
        .ok()
        .map(|a| a.encode(lib()))
}

fn place(t: &str) -> Option<String> {
    PlaceArtifact::parse(t, lib()).ok().map(|a| a.encode(lib()))
}

fn route(t: &str) -> Option<String> {
    RouteArtifact::parse(t, lib()).ok().map(|a| a.encode(lib()))
}

fn request(t: &str) -> Option<String> {
    Request::decode(t).ok().map(|r| r.encode())
}

fn response(t: &str) -> Option<String> {
    Response::decode(t).ok().map(|r| r.encode())
}

fn workload(t: &str) -> Option<String> {
    WorkloadSpec::parse(t).ok().map(|w| w.canonical())
}

fn preset(t: &str) -> Option<String> {
    ScenarioPreset::parse(t).ok().map(|p| p.canonical())
}

fn verdict(t: &str) -> Option<String> {
    Verdict::parse(t).map(|v| v.canonical())
}

fn verify(t: &str) -> Option<String> {
    VerifyLevel::parse(t).map(|v| v.name().to_string())
}

/// An [`ArtifactStore`] that keeps every text a staged run writes.
#[derive(Default)]
struct Recording {
    store: MemStore,
    texts: std::sync::Mutex<Vec<String>>,
}

impl ArtifactStore for Recording {
    fn get(&self, key: &str) -> Option<String> {
        self.store.get(key)
    }

    fn put(&self, key: &str, value: &str) {
        self.texts.lock().expect("texts").push(value.to_string());
        self.store.put(key, value);
    }
}

/// A valid text of every format, each beside the codec that reads it.
fn samples() -> &'static [(Codec, String)] {
    static SAMPLES: OnceLock<Vec<(Codec, String)>> = OnceLock::new();
    SAMPLES.get_or_init(|| {
        let mut samples: Vec<(Codec, String)> = Vec::new();
        // A verified, routed, pipelined run writes every optional record
        // and all four stage artifacts; a plain one writes the `-` forms.
        let routed = DesignScenario::best_practice_asic().with_wire_model(WireModel::Routed);
        for (scenario, verify) in [
            (routed, VerifyLevel::Full),
            (DesignScenario::typical_asic(), VerifyLevel::Off),
        ] {
            let store = Recording::default();
            let (out, _) =
                run_scenario_staged(&scenario, &WorkloadSpec::Alu { width: 4 }, verify, &store)
                    .expect("staged run");
            samples.push((outcome, out.canonical_text()));
            for text in store.texts.into_inner().expect("texts") {
                let codec: Codec = match text.split('\n').next() {
                    Some("stage-synth/v1") => synth,
                    Some("stage-pipeline/v1") => pipeline,
                    Some("stage-route/v2") => route,
                    // The flow stores the place artifact behind its
                    // `registers` line.
                    _ => {
                        let (_, art) = text.split_once('\n').expect("registers line");
                        samples.push((place, art.to_string()));
                        continue;
                    }
                };
                samples.push((codec, text));
            }
        }

        // A closure run that commits proven moves, and one that ends at
        // once.
        let scenario = DesignScenario::typical_asic();
        let spec = WorkloadSpec::Alu { width: 8 };
        let open = asicgap::run_scenario(&scenario, |lib| spec.build(lib)).expect("open loop");
        let fmax = open.min_period.frequency().value();
        for (mhz, verify) in [(fmax * 1.06, VerifyLevel::Full), (1.0, VerifyLevel::Off)] {
            let target = ClosureTarget::at(mhz).with_moves(6);
            let (close, _) =
                close_timing_staged(&scenario, &spec, verify, &target, &MemStore::new())
                    .expect("closure");
            samples.push((trace, close.trace.canonical_text()));
            samples.push((closure, close.canonical_text()));
        }

        let metrics = Metrics::default();
        for us in [0, 3, 3, 90, 1_000, 77_777, u64::MAX] {
            metrics.latency_us.record(us);
        }
        metrics.queue_depth_hist.record(2);
        metrics.record_stage(FlowStage::Place, Duration::from_micros(1_234));
        metrics.record_reuse(&StageReuse {
            synth: Some(true),
            pipeline: None,
            place: Some(false),
            route: Some(false),
        });
        metrics
            .cache_hits
            .fetch_add(3, std::sync::atomic::Ordering::Relaxed);
        metrics
            .cache_misses
            .fetch_add(4, std::sync::atomic::Ordering::Relaxed);
        samples.push((stats, metrics.snapshot(5, 4096).to_string()));
        samples.push((stats, Metrics::default().snapshot(0, 0).to_string()));

        let run = RunRequest {
            preset: ScenarioPreset::Grid(17),
            wire_model: WireModel::Routed,
            verify: VerifyLevel::Sim,
            seed: 18_446_744_073_709_551_615,
            workload: WorkloadSpec::parse("file/edif/00000000deadbeef").expect("file spec"),
            deadline_ms: 250,
        };
        let close = CloseRequest {
            run: RunRequest::small(),
            target_mhz: 412.5,
            max_moves: 64,
        };
        for req in [Request::Run(run), Request::Close(close)] {
            samples.push((request, req.encode()));
        }
        let busy = Response::Busy { retry_after_ms: 40 };
        samples.push((response, busy.encode()));
        for spec in [
            "alu/16",
            "mux/8",
            "xlarge/11",
            "file/yosys-json/0123456789abcdef",
        ] {
            samples.push((workload, spec.to_string()));
        }
        for p in ["typical_asic", "custom", "grid:0", "grid:31"] {
            samples.push((preset, p.to_string()));
        }
        for v in [
            "closed",
            "infeasible 812.5",
            "cancelled 7",
            "budget-exhausted",
        ] {
            samples.push((verdict, v.to_string()));
        }
        samples.push((verify, "full".to_string()));
        samples
    })
}

/// Byte positions of `text` where `at` holds.
fn positions(text: &[u8], at: impl Fn(usize) -> bool) -> Vec<usize> {
    (0..=text.len()).filter(|&i| at(i)).collect()
}

/// One seeded damage to `text`, of the kinds a writer never produces.
fn mutate(text: &str, rng: &mut Rng64) -> String {
    let b = text.as_bytes();
    let digit = |i: usize| b.get(i).is_some_and(u8::is_ascii_digit);
    let number_start = |i: usize| digit(i) && (i == 0 || !digit(i - 1) && b[i - 1] != b'.');
    let float_end = |i: usize| {
        i > 0 && digit(i - 1) && !digit(i) && {
            let start = b[..i]
                .iter()
                .rposition(|c| !c.is_ascii_digit() && *c != b'.');
            b[start.map_or(0, |s| s + 1)..i].contains(&b'.')
        }
    };
    let mut out = b.to_vec();
    let mut insert = |at: Vec<usize>, what: &[u8], rng: &mut Rng64| {
        if !at.is_empty() {
            let i = at[rng.index(at.len())];
            out.splice(i..i, what.iter().copied());
        }
    };
    match rng.index(11) {
        0 => {
            let i = rng.index(b.len());
            const ALPHABET: &[u8] = b"0123456789abcdefEx+-.:=, \n\r";
            out[i] = ALPHABET[rng.index(ALPHABET.len())];
        }
        1 => insert(positions(b, number_start), b"+", rng),
        2 => insert(positions(b, number_start), b"0", rng),
        3 => insert(positions(b, float_end), b"0", rng),
        4 => {
            let at = positions(b, |i| b.get(i).is_some_and(|c| (b'a'..=b'f').contains(c)));
            if !at.is_empty() {
                out[at[rng.index(at.len())]].make_ascii_uppercase();
            }
        }
        5 => insert(positions(b, |i| b.get(i) == Some(&b'\n')), b"\r", rng),
        6 => {
            if out.last() == Some(&b'\n') {
                out.pop();
            }
        }
        7 => insert(positions(b, |i| i == b.len() || b[i] == b'\n'), b" ", rng),
        kind => {
            // Swap, repeat or drop one line, field or bucket.
            let seps: Vec<char> = ['\n', ' ', ',']
                .into_iter()
                .filter(|c| text.contains(*c))
                .collect();
            if seps.is_empty() {
                return format!("{text}{text}");
            }
            let sep = seps[rng.index(seps.len())];
            let mut parts: Vec<&str> = text.split(sep).collect();
            let (i, j) = (rng.index(parts.len()), rng.index(parts.len()));
            match kind {
                8 => parts.swap(i, j),
                9 => parts.insert(j, parts[i]),
                _ => {
                    parts.remove(i);
                }
            }
            return parts.join(&sep.to_string());
        }
    }
    String::from_utf8(out).expect("ASCII edits keep UTF-8")
}

#[test]
fn every_sample_round_trips() {
    for (codec, text) in samples() {
        assert_eq!(codec(text).as_deref(), Some(text.as_str()));
    }
}

#[test]
fn every_mutant_is_refused_or_re_encodes_to_itself() {
    let mut rng = Rng64::new(26);
    let (mut accepted, mut refused) = (0, 0);
    for (codec, text) in samples() {
        for _ in 0..400 {
            let m = mutate(text, &mut rng);
            match codec(&m) {
                None => refused += 1,
                Some(back) => {
                    assert_eq!(back, m, "accepted, but re-encodes differently");
                    accepted += 1;
                }
            }
        }
    }
    assert!(accepted > 0 && refused > accepted, "{accepted} / {refused}");
}

/// Every sample whose text contains `from`, with its first `from`
/// replaced by `to`, must be refused; and there must be at least one.
fn refuses(from: &str, to: &str) {
    let mut seen = 0;
    for (codec, text) in samples() {
        if let Some(at) = text.find(from) {
            let m = format!("{}{to}{}", &text[..at], &text[at + from.len()..]);
            assert_eq!(codec(&m), None, "accepted {m:?}");
            seen += 1;
        }
    }
    assert!(seen > 0, "no sample holds {from:?}");
}

#[test]
fn a_plus_sign_or_leading_zero_is_refused() {
    for (from, to) in [
        ("\nregisters 0\n", "\nregisters +0\n"),
        ("\nregisters ", "\nregisters 0"),
        ("\ngates ", "\ngates +"),
        ("\ngates ", "\ngates 00"),
        ("\nrequests ", "\nrequests +"),
        ("\ncache_hits 3\n", "\ncache_hits 03\n"),
        (" pins=", " pins=+"),
        (" seed=", " seed=0"),
        ("BUSY ", "BUSY +"),
        ("alu/16", "alu/016"),
        ("xlarge/11", "xlarge/+11"),
        ("grid:0", "grid:00"),
        ("cancelled 7", "cancelled 07"),
    ] {
        refuses(from, to);
    }
}

#[test]
fn a_float_in_any_spelling_but_the_shortest_is_refused() {
    for (from, to) in [
        ("\ntarget 1.0\n", "\ntarget 1.00\n"),
        ("\ntarget 1.0\n", "\ntarget 1e0\n"),
        (" target_mhz=412.5", " target_mhz=412.50"),
        (" target_mhz=412.5", " target_mhz=4.125E2"),
        ("infeasible 812.5", "infeasible 812.50"),
    ] {
        refuses(from, to);
    }
    // The `area_um2 1.50` of an outcome: one more zero on the value.
    for (codec, text) in samples() {
        let Some(line) = text.split('\n').find(|l| l.starts_with("area_um2 ")) else {
            continue;
        };
        let m = text.replacen(line, &format!("{line}0"), 1);
        assert_eq!(codec(&m), None, "accepted {line}0");
    }
}

#[test]
fn upper_case_hex_is_refused() {
    refuses("0123456789abcdef", "0123456789ABCDEF");
    refuses("00000000deadbeef", "00000000DEADBEEF");
    let netlist_line = |t: &str| {
        t.split('\n')
            .find(|l| l.starts_with("netlist "))
            .map(str::to_string)
    };
    for (codec, text) in samples() {
        if let Some(line) =
            netlist_line(text).filter(|l| l.contains(|c: char| c.is_ascii_lowercase()))
        {
            let m = text.replacen(
                &line,
                &line.to_ascii_uppercase().replacen("NETLIST", "netlist", 1),
                1,
            );
            assert_eq!(codec(&m), None, "accepted {line:?} in upper case");
        }
    }
}

#[test]
fn the_embedded_netlist_has_one_spelling() {
    let splice = |t: &str, at: usize, cut: usize, with: &str| {
        format!("{}{with}{}", &t[..at], &t[at + cut..])
    };
    let (mut seen, mut accepted) = (0, Vec::new());
    for (codec, text) in samples() {
        let Some(at) = text.find("\nnetlist/v1\ndesign ") else {
            continue;
        };
        let design = at + "\nnetlist/v1\ndesign ".len();
        // `outputs N`, then the first output's `name net` line.
        let outputs = design + text[design..].find("\noutputs ").expect("outputs");
        let line = outputs + 1 + text[outputs + 1..].find('\n').expect("count line") + 1;
        let net = line + text[line..].find(' ').expect("output net") + 1;
        let first = text.as_bytes()[design];
        assert!(first.is_ascii_lowercase(), "{text}");
        for (what, m) in [
            ("a leading zero on an index", splice(text, net, 0, "0")),
            (
                "an escape of a plain byte",
                splice(text, design, 1, &format!("%{first:02x}")),
            ),
            (
                "an escape in upper-case hex",
                splice(text, design, 1, "%0A"),
            ),
        ] {
            if codec(&m).is_some() {
                accepted.push(what);
            }
        }
        // The encoder's own spelling of that name is taken.
        let lower = splice(text, design, 1, "%0a");
        assert_eq!(codec(&lower).as_deref(), Some(lower.as_str()));
        seen += 1;
    }
    assert!(seen >= 4, "{seen}");
    assert_eq!(accepted, Vec::<&str>::new());
}

/// The line formats: the outcome, trace, closure and stats texts.
fn line_records() -> impl Iterator<Item = &'static (Codec, String)> {
    samples().iter().filter(|(_, t)| {
        [
            "outcome/v1\n",
            "trace/v1\n",
            "close-outcome/v1\n",
            "stats/v1\n",
        ]
        .iter()
        .any(|h| t.starts_with(h))
    })
}

#[test]
fn crlf_line_ends_are_refused() {
    for (codec, text) in line_records() {
        assert_eq!(codec(&text.replace('\n', "\r\n")), None, "{text}");
    }
}

#[test]
fn a_missing_final_newline_is_refused() {
    for (codec, text) in line_records() {
        let cut = text.strip_suffix('\n').expect("a final newline");
        assert_eq!(codec(cut), None, "{text}");
    }
}

#[test]
fn a_token_left_over_is_refused() {
    let mut seen = 0;
    for (codec, text) in samples() {
        for (field, extra) in [("\neffort ", " "), ("\nverify cones=", " vars=1")] {
            if let Some(at) = text.find(field) {
                let end = at + text[at + 1..].find('\n').expect("line end") + 1;
                let m = format!("{}{extra}{}", &text[..end], &text[end..]);
                assert_eq!(codec(&m), None, "accepted {extra:?} after {field:?}");
                seen += 1;
            }
        }
    }
    assert!(seen >= 4, "{seen}");
}

#[test]
fn run_and_close_fields_come_once_each_in_encode_order() {
    let body = Request::Run(RunRequest::small()).encode();
    assert_eq!(request(&body).as_deref(), Some(body.as_str()));
    for m in [
        body.replace("seed=1", "seed=1 seed=2"),
        body.replace("seed=1 workload=alu/8", "workload=alu/8 seed=1"),
        body.replace(
            "RUN preset=typical_asic",
            "RUN preset=typical_asic preset=custom",
        ),
    ] {
        assert_eq!(request(&m), None, "accepted {m:?}");
    }
    let body = Request::Close(CloseRequest::small(250.0)).encode();
    assert_eq!(request(&body).as_deref(), Some(body.as_str()));
    for m in [
        body.replace("max_moves=64", "max_moves=64 max_moves=3"),
        body.replace(
            "target_mhz=250.0 max_moves=64",
            "max_moves=64 target_mhz=250.0",
        ),
    ] {
        assert_eq!(request(&m), None, "accepted {m:?}");
    }
}

#[test]
fn histogram_buckets_out_of_order_are_refused() {
    let (_, text) = samples()
        .iter()
        .find(|(_, t)| t.contains("\nlatency_us count 7 "))
        .expect("the stats sample");
    let line = text
        .split('\n')
        .find(|l| l.starts_with("latency_us "))
        .expect("latency line");
    let (head, sparse) = line.rsplit_once(' ').expect("buckets");
    let mut buckets: Vec<&str> = sparse.split(',').collect();
    assert!(buckets.len() >= 3, "{line}");
    buckets.swap(0, 1);
    let swapped = format!("{head} {}", buckets.join(","));
    assert_eq!(stats(&text.replacen(line, &swapped, 1)), None, "{swapped}");
}

#[test]
fn a_closure_outcome_round_trips_on_bytes() {
    let texts: Vec<&String> = samples()
        .iter()
        .filter(|(_, t)| t.starts_with("close-outcome/v1\n"))
        .map(|(_, t)| t)
        .collect();
    assert_eq!(texts.len(), 2);
    for text in texts {
        let parsed = ClosureOutcome::parse_canonical(text).expect("parses");
        assert_eq!(&parsed.canonical_text(), text);
        assert_eq!(
            parsed.trace.canonical_text(),
            text[text.find("trace/v1\n").unwrap()..]
        );
    }
}
