//! Stage-granular cache correctness: storeless, stored-cold, and resumed
//! runs of the one flow body must all produce byte-identical canonical
//! outcome text — the determinism contract extends through the artifact
//! store — and the storeless bytes themselves are pinned as digests.

use asicgap::{
    close_timing_staged, run_scenario_staged, ArtifactStore, ClosureTarget, DesignScenario,
    MemStore, StageReuse, VerifyLevel, WireModel, WorkloadSpec,
};

fn alu8() -> WorkloadSpec {
    WorkloadSpec::Alu { width: 8 }
}

fn storeless(
    scenario: &DesignScenario,
    workload: &WorkloadSpec,
    verify: VerifyLevel,
) -> asicgap::ScenarioOutcome {
    asicgap::run_scenario_verified(scenario, |lib| workload.build(lib), verify).expect("storeless")
}

#[test]
fn storeless_stored_cold_and_resumed_match_byte_for_byte() {
    // Spans the interesting axes: unpipelined/pipelined, HPWL/routed,
    // drive-selected/continuous sizing, every verify tier, domino+binned.
    let cases = [
        (DesignScenario::typical_asic(), VerifyLevel::Off),
        (DesignScenario::best_practice_asic(), VerifyLevel::Full),
        (
            DesignScenario::typical_asic().with_wire_model(WireModel::Routed),
            VerifyLevel::Sim,
        ),
        (DesignScenario::custom(), VerifyLevel::Off),
    ];
    let w = alu8();
    for (scenario, verify) in cases {
        let want = storeless(&scenario, &w, verify);
        let store = MemStore::new();

        let (cold, reuse) = run_scenario_staged(&scenario, &w, verify, &store).expect("cold");
        assert_eq!(cold, want, "stored-cold != storeless for {}", scenario.name);
        assert_eq!(cold.canonical_text(), want.canonical_text());
        assert_eq!(reuse.hits(), 0, "cold run found hits in an empty store");
        assert!(reuse.lookups() >= 3);

        let (warm, reuse) = run_scenario_staged(&scenario, &w, verify, &store).expect("warm");
        assert_eq!(warm.canonical_text(), want.canonical_text());
        assert_eq!(
            reuse.hits(),
            reuse.lookups(),
            "warm run missed a checkpoint for {}",
            scenario.name
        );
    }
}

#[test]
fn wire_model_change_reuses_prefix_and_stays_byte_identical() {
    // The acceptance golden: a request differing only in wire model
    // recomputes only the route stage, and its reply is byte-identical
    // to a cold full run.
    let w = alu8();
    let hpwl = DesignScenario::best_practice_asic();
    let routed = hpwl.clone().with_wire_model(WireModel::Routed);

    let store = MemStore::new();
    run_scenario_staged(&hpwl, &w, VerifyLevel::Off, &store).expect("hpwl cold");

    let (out, reuse) = run_scenario_staged(&routed, &w, VerifyLevel::Off, &store).expect("routed");
    assert_eq!(
        reuse,
        StageReuse {
            synth: Some(true),
            pipeline: Some(true),
            place: Some(true),
            route: Some(false),
        },
        "wire-model change must reuse everything up to the place checkpoint"
    );

    let fresh = MemStore::new();
    let (cold, _) = run_scenario_staged(&routed, &w, VerifyLevel::Off, &fresh).expect("cold");
    assert_eq!(out.canonical_text(), cold.canonical_text());
    assert_eq!(
        out.canonical_text(),
        storeless(&routed, &w, VerifyLevel::Off).canonical_text()
    );
}

#[test]
fn seed_change_reuses_synth_and_pipeline_only() {
    let w = alu8();
    let a = DesignScenario::best_practice_asic();
    let mut b = a.clone();
    b.seed = 7;

    let store = MemStore::new();
    run_scenario_staged(&a, &w, VerifyLevel::Off, &store).expect("seed 1");
    let (_, reuse) = run_scenario_staged(&b, &w, VerifyLevel::Off, &store).expect("seed 7");
    assert_eq!(reuse.synth, Some(true));
    assert_eq!(reuse.pipeline, Some(true));
    assert_eq!(reuse.place, Some(false), "seed feeds the anneal");
    assert_eq!(reuse.route, Some(false));
}

#[test]
fn final_only_knobs_hit_every_checkpoint() {
    // Skew and process access act after the route checkpoint: changing
    // them reuses every artifact yet still changes the outcome.
    let w = alu8();
    let a = DesignScenario::typical_asic();
    let mut b = a.clone();
    b.skew_fraction = 0.05;
    b.access = asicgap::ProcessAccess::CustomBinned;

    let store = MemStore::new();
    let (out_a, _) = run_scenario_staged(&a, &w, VerifyLevel::Off, &store).expect("a");
    let (out_b, reuse) = run_scenario_staged(&b, &w, VerifyLevel::Off, &store).expect("b");
    assert_eq!(reuse.hits(), reuse.lookups(), "final-only knobs must hit");
    assert_ne!(out_a.min_period, out_b.min_period);
    assert_ne!(out_a.shipped, out_b.shipped);
    assert_eq!(out_a.timing_effort, out_b.timing_effort);
}

#[test]
fn close_staged_matches_storeless_and_reuses_run_artifacts() {
    let w = alu8();
    let scenario = DesignScenario::typical_asic();
    let target = ClosureTarget::at(170.0);

    let want = scenario
        .close_timing(|lib| w.build(lib), VerifyLevel::Off, &target)
        .expect("storeless close");

    // Stored-cold close == storeless close, byte for byte.
    let store = MemStore::new();
    let (cold, reuse) =
        close_timing_staged(&scenario, &w, VerifyLevel::Off, &target, &store).expect("cold close");
    assert_eq!(cold.canonical_text(), want.canonical_text());
    assert_eq!(reuse.hits(), 0);
    assert_eq!(
        reuse.route, None,
        "closure never consults the route checkpoint"
    );

    // A prior unverified RUN warms the store for CLOSE: the prep shares
    // the same synth/pipeline/place artifacts.
    let store = MemStore::new();
    run_scenario_staged(&scenario, &w, VerifyLevel::Off, &store).expect("warming run");
    let (warm, reuse) =
        close_timing_staged(&scenario, &w, VerifyLevel::Off, &target, &store).expect("warm close");
    assert_eq!(warm.canonical_text(), want.canonical_text());
    assert_eq!(reuse.synth, Some(true));
    assert_eq!(reuse.place, Some(true));
}

#[test]
fn corrupt_artifacts_degrade_to_misses() {
    // A store that answers every get with garbage: the staged run must
    // recompute everything and still land on the storeless bytes.
    struct Garbage(MemStore);
    impl ArtifactStore for Garbage {
        fn get(&self, key: &str) -> Option<String> {
            self.0
                .get(key)
                .map(|_| "stage-synth/v1\ngarbage\n".to_string())
        }
        fn put(&self, key: &str, value: &str) {
            self.0.put(key, value);
        }
    }
    let w = alu8();
    let scenario = DesignScenario::typical_asic();
    let store = Garbage(MemStore::new());
    run_scenario_staged(&scenario, &w, VerifyLevel::Off, &store).expect("seed the store");
    let (out, reuse) = run_scenario_staged(&scenario, &w, VerifyLevel::Off, &store).expect("rerun");
    assert_eq!(reuse.hits(), 0, "garbage must never parse as a hit");
    assert_eq!(
        out.canonical_text(),
        storeless(&scenario, &w, VerifyLevel::Off).canonical_text()
    );
}

// ---------------------------------------------------------------------------
// The storeless reference: digests recorded once, asserted as literals.
// ---------------------------------------------------------------------------

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use asicgap::{
    content_hash, run_scenario_observed, run_scenario_staged_observed, run_scenarios_verified,
    FlowObserver, FlowStage, GapError,
};

fn matrix_workloads() -> [WorkloadSpec; 4] {
    [
        WorkloadSpec::Alu { width: 8 },
        WorkloadSpec::KoggeStoneAdder { width: 16 },
        WorkloadSpec::ArrayMultiplier { width: 6 },
        WorkloadSpec::MuxTree { inputs: 16 },
    ]
}

fn presets() -> [DesignScenario; 3] {
    [
        DesignScenario::typical_asic(),
        DesignScenario::best_practice_asic(),
        DesignScenario::custom(),
    ]
}

const WIRE_MODELS: [WireModel; 2] = [WireModel::Hpwl, WireModel::Routed];
const VERIFY_LEVELS: [VerifyLevel; 3] = [VerifyLevel::Off, VerifyLevel::Sim, VerifyLevel::Full];

/// One `content_hash` over the concatenated canonical text of the
/// storeless flow on `factor_grid()` + the three presets, per
/// workload × wire model × verify level. Recorded once, from the
/// separate uncheckpointed body the flow used to have (which this file
/// held byte-identical to the checkpointed chain), before it was
/// deleted; any edit to the one flow body that moves a bit of any
/// outcome moves a digest here.
#[test]
fn storeless_outcome_digest_matrix() {
    // [workload][wire model][verify]; Off and Sim agree because the Sim
    // tier only observes.
    const WANT: [[[u64; 3]; 2]; 4] = [
        [
            [0x20f902d8991a0ecf, 0x20f902d8991a0ecf, 0xb1dd234db4d7afd2],
            [0x2f6125c02eb28d99, 0x2f6125c02eb28d99, 0xf9e6d0ad68dc95c6],
        ],
        [
            [0xca4f767f953027e5, 0xca4f767f953027e5, 0x754f8306fe1864f4],
            [0x9869ef8d3f3b9783, 0x9869ef8d3f3b9783, 0x751915e2f99bde32],
        ],
        [
            [0xe450a3967df08c35, 0xe450a3967df08c35, 0xc4504aec45c98090],
            [0x2edc77dd7bd231ef, 0x2edc77dd7bd231ef, 0x2e3061f509ee4a46],
        ],
        [
            [0x9199376e1d38900d, 0x9199376e1d38900d, 0x9e0a93ee25bf5e56],
            [0x6a94b8f15dc824f8, 0x6a94b8f15dc824f8, 0x79072d2dfbe00395],
        ],
    ];
    let mut scenarios = DesignScenario::factor_grid();
    scenarios.extend(presets());
    let mut got = [[[0u64; 3]; 2]; 4];
    for (w, workload) in matrix_workloads().iter().enumerate() {
        for (m, &model) in WIRE_MODELS.iter().enumerate() {
            let wired: Vec<DesignScenario> = scenarios
                .iter()
                .map(|s| s.clone().with_wire_model(model))
                .collect();
            for (v, &verify) in VERIFY_LEVELS.iter().enumerate() {
                let text: String =
                    run_scenarios_verified(&wired, |lib| workload.build(lib), verify)
                        .expect("matrix cell runs")
                        .iter()
                        .map(|o| o.canonical_text())
                        .collect();
                got[w][m][v] = content_hash(&text);
            }
        }
    }
    assert_eq!(got, WANT, "outcome digests moved; got {got:#018x?}");
}

/// The closure counterpart: every preset × wire model × workload closed
/// at 1.1× its own open-loop frequency, trace bytes included.
#[test]
fn storeless_closure_digest_matrix() {
    // [workload][wire model].
    const WANT: [[u64; 2]; 4] = [
        [0xca80bb82b735fab3, 0xd96ec72045490d05],
        [0xc9929dda7f36a282, 0xe6c1edb879f282e0],
        [0xfa877f3df1665a9c, 0xe6734e866039a246],
        [0xc8a499e616439d2a, 0xbbc52c117983b0ad],
    ];
    let mut got = [[0u64; 2]; 4];
    for (w, workload) in matrix_workloads().iter().enumerate() {
        for (m, &model) in WIRE_MODELS.iter().enumerate() {
            let mut text = String::new();
            for preset in presets() {
                let scenario = preset.with_wire_model(model);
                let open = storeless(&scenario, workload, VerifyLevel::Off);
                let target = ClosureTarget::at(open.min_period.frequency().value() * 1.1);
                let closed = scenario
                    .close_timing(|lib| workload.build(lib), VerifyLevel::Off, &target)
                    .expect("closure runs");
                text.push_str(&closed.canonical_text());
            }
            got[w][m] = content_hash(&text);
        }
    }
    assert_eq!(got, WANT, "closure digests moved; got {got:#018x?}");
}

/// Records every observer callback in order — `stage_done` as the
/// stage's label, `poll_cancel` as `?` — and cancels at the
/// `cancel_at`-th poll.
struct Recorder {
    events: Mutex<Vec<&'static str>>,
    polls: AtomicUsize,
    cancel_at: usize,
}

impl Recorder {
    fn cancelling_at(cancel_at: usize) -> Recorder {
        Recorder {
            events: Mutex::new(Vec::new()),
            polls: AtomicUsize::new(0),
            cancel_at,
        }
    }

    fn log(&self) -> String {
        self.events.lock().expect("recorder lock").join(" ")
    }
}

impl FlowObserver for Recorder {
    fn stage_done(&self, stage: FlowStage, _elapsed: Duration) {
        self.events
            .lock()
            .expect("recorder lock")
            .push(stage.label());
    }

    fn poll_cancel(&self) -> bool {
        self.events.lock().expect("recorder lock").push("?");
        self.polls.fetch_add(1, Ordering::SeqCst) == self.cancel_at
    }
}

/// One observed execution: against `store` when there is one (cold or
/// warm is the caller's business), storeless otherwise.
fn observe(
    scenario: &DesignScenario,
    workload: &WorkloadSpec,
    verify: VerifyLevel,
    store: Option<&dyn ArtifactStore>,
    rec: &Recorder,
) -> Result<asicgap::ScenarioOutcome, GapError> {
    match store {
        Some(store) => run_scenario_staged_observed(
            scenario,
            &workload.canonical(),
            |lib| workload.build(lib),
            verify,
            store,
            rec,
        )
        .map(|(out, _)| out),
        None => run_scenario_observed(scenario, |lib| workload.build(lib), verify, rec),
    }
}

/// The callback sequence of one uncancelled run, as recorded from the
/// flow at the commit that still had a separate monolith: stage labels
/// in report order, `?` for each cancellation poll.
fn pinned_sequence(pipelined: bool, routed: bool, verified: bool) -> String {
    let mut s = String::from("synth ?");
    if pipelined {
        s.push_str(" pipeline ?");
        if verified {
            s.push_str(" equiv ?");
        }
    }
    s.push_str(" sta sizing ? place ? ");
    s.push_str(if routed { "route" } else { "place" });
    s.push_str(" ? sizing ? sta");
    if verified {
        s.push_str(" ? equiv");
    }
    s
}

/// The callback sequence of a fully resumed run: the route checkpoint
/// reports its lookup under the stage extraction is billed to, followed
/// by that stage's poll, and nothing upstream of it is looked at. A
/// verified run first fetches the golden side — the deepest of
/// `pipeline` and `synth` — and ends with the final check, which is
/// never checkpointed.
fn pinned_resumed_sequence(pipelined: bool, routed: bool, verified: bool) -> String {
    let mut s = String::new();
    if verified {
        s.push_str(if pipelined { "pipeline ? " } else { "synth ? " });
    }
    s.push_str(if routed { "route ?" } else { "place ?" });
    if verified {
        s.push_str(" ? equiv");
    }
    s
}

/// The exact callback sequence a `FlowObserver` sees, per preset ×
/// wire model × verify level. The benchmark's span coverage and
/// `served`'s stage histograms are built from this stream, so it is
/// pinned; the stored-cold path must emit the same one, and the resumed
/// path its own pinned one.
#[test]
fn observer_sequence_is_pinned_and_store_independent() {
    assert_eq!(
        pinned_sequence(true, true, true),
        "synth ? pipeline ? equiv ? sta sizing ? place ? route ? sizing ? sta ? equiv"
    );
    assert_eq!(
        pinned_sequence(false, false, false),
        "synth ? sta sizing ? place ? place ? sizing ? sta"
    );
    assert_eq!(
        pinned_resumed_sequence(true, true, true),
        "pipeline ? route ? ? equiv"
    );
    assert_eq!(pinned_resumed_sequence(false, false, false), "place ?");
    let w = alu8();
    for preset in presets() {
        for model in WIRE_MODELS {
            let scenario = preset.clone().with_wire_model(model);
            for verify in VERIFY_LEVELS {
                let shape = (
                    scenario.pipeline_stages >= 2,
                    model == WireModel::Routed,
                    verify != VerifyLevel::Off,
                );
                let want = pinned_sequence(shape.0, shape.1, shape.2);
                let what = format!("{} {model:?} {verify:?}", scenario.name);
                let rec = Recorder::cancelling_at(usize::MAX);
                let plain = observe(&scenario, &w, verify, None, &rec).expect("storeless");
                assert_eq!(rec.log(), want, "storeless sequence moved for {what}");
                let store = MemStore::new();
                let rec = Recorder::cancelling_at(usize::MAX);
                let stored = observe(&scenario, &w, verify, Some(&store), &rec).expect("stored");
                assert_eq!(rec.log(), want, "stored-cold sequence moved for {what}");
                assert_eq!(plain.canonical_text(), stored.canonical_text());
                let rec = Recorder::cancelling_at(usize::MAX);
                let resumed = observe(&scenario, &w, verify, Some(&store), &rec).expect("resumed");
                assert_eq!(
                    rec.log(),
                    pinned_resumed_sequence(shape.0, shape.1, shape.2),
                    "resumed sequence moved for {what}"
                );
                assert_eq!(plain.canonical_text(), resumed.canonical_text());
            }
        }
    }
}

/// Cancelling at the k-th poll, for every k the flow offers, stops the
/// run with `Cancelled { after }` naming the stage reported just before
/// that poll, having emitted exactly the first k polls' worth of the
/// full sequence — with and without a store. On the stored path the
/// abandoned run's completed checkpoints must already be in the store:
/// the retry resumes from them and lands on the uncancelled bytes.
#[test]
fn cancellation_at_every_boundary_on_both_paths() {
    let w = alu8();
    let scenario = DesignScenario::best_practice_asic().with_wire_model(WireModel::Routed);
    let verify = VerifyLevel::Full;
    let full = Recorder::cancelling_at(usize::MAX);
    let want = observe(&scenario, &w, verify, None, &full).expect("uncancelled");
    let full = full.log();
    let polls = full.matches('?').count();
    assert_eq!(polls, 8, "boundaries in the verified routed flow: {full}");

    // Checkpoints a retry finds after a cancel at poll k (s/p/l/r =
    // synth/pipeline/place/route hit, - = recomputed).
    const RESUMED: [&str; 8] = [
        "s---", "s---", "sp--", "sp--", "spl-", "spl-", "spl-", "splr",
    ];
    let mut resumed = Vec::new();
    for k in 0..polls {
        // The log up to and including the k-th `?`.
        let end = full
            .match_indices('?')
            .nth(k)
            .map(|(i, _)| i + 1)
            .expect("k < polls");
        let prefix = &full[..end];
        let after = prefix
            .split(' ')
            .rev()
            .find(|e| *e != "?")
            .expect("a stage precedes every poll");
        for stored in [false, true] {
            let rec = Recorder::cancelling_at(k);
            let fresh = MemStore::new();
            let store = stored.then_some(&fresh as &dyn ArtifactStore);
            let err = observe(&scenario, &w, verify, store, &rec).expect_err("cancelled");
            match err {
                GapError::Cancelled { after: got } => assert_eq!(
                    got.label(),
                    after,
                    "poll {k} (stored={stored}) named the wrong stage"
                ),
                other => panic!("poll {k} (stored={stored}): {other:?}"),
            }
            assert_eq!(rec.log(), prefix, "poll {k} (stored={stored})");
        }

        let store = MemStore::new();
        let rec = Recorder::cancelling_at(k);
        run_scenario_staged_observed(
            &scenario,
            &w.canonical(),
            |lib| w.build(lib),
            verify,
            &store,
            &rec,
        )
        .expect_err("cancelled");
        let (retry, reuse) = run_scenario_staged(&scenario, &w, verify, &store).expect("retry");
        assert_eq!(retry.canonical_text(), want.canonical_text(), "poll {k}");
        resumed.push(reuse_code(&reuse));
    }
    assert_eq!(resumed, RESUMED, "resume points moved; got {resumed:#?}");
}

// ---------------------------------------------------------------------------
// What a second request reuses of a first, and what a damaged store costs.
// ---------------------------------------------------------------------------

/// `StageReuse` as four characters: the stage's letter for a hit, `-`
/// for a miss, `.` for a checkpoint that was never consulted.
fn reuse_code(reuse: &StageReuse) -> String {
    reuse
        .entries()
        .iter()
        .zip(["s", "p", "l", "r"])
        .map(|((_, state), tag)| match state {
            Some(true) => tag,
            Some(false) => "-",
            None => ".",
        })
        .collect()
}

/// The stage a store key belongs to (0 = synth … 3 = route), read off
/// the key's header line.
fn key_stage(key: &str) -> usize {
    let label = key
        .lines()
        .next()
        .and_then(|header| header.split(' ').nth(1))
        .expect("stage keys open with `<scheme> <stage>`");
    ["synth", "pipeline", "place", "route"]
        .iter()
        .position(|s| *s == label)
        .expect("a checkpointed stage")
}

/// A warm store seen through damage: per stage, its artifact can be
/// gone, or come back torn in half.
struct Damaged<'s> {
    inner: &'s MemStore,
    evicted: [bool; 4],
    torn: [bool; 4],
}

impl ArtifactStore for Damaged<'_> {
    fn get(&self, key: &str) -> Option<String> {
        let stage = key_stage(key);
        if self.evicted[stage] {
            return None;
        }
        let text = self.inner.get(key)?;
        Some(if self.torn[stage] {
            text[..text.len() / 2].to_string()
        } else {
            text
        })
    }

    fn put(&self, _key: &str, _value: &str) {}
}

/// (change, [unpipelined preset, pipelined preset]) → the second run's
/// reuse code and observer log. `CLOSE` prep reports to no observer.
type ReuseRow = (&'static str, [(&'static str, &'static str); 2]);

/// The second request of each pair, run against the store the first one
/// filled, for the typical (unpipelined) and best-practice (5-stage)
/// presets. Against the content-chained keys this table was first
/// recorded on, a `-` has turned into a letter in three rows (a placed
/// netlist is now found whatever verify level wrote it) and never the
/// reverse, the logs have lost the lookups of stages upstream of the
/// deepest hit, and the `equiv` callbacks — the checks actually run —
/// are where they were.
const REUSE_MATRIX: [ReuseRow; 9] = [
    ("same", [("s.lr", "place ?"), ("splr", "place ?")]),
    (
        "wire flip",
        [
            ("s.l-", "place ? route ? sizing ? sta"),
            ("spl-", "place ? route ? sizing ? sta"),
        ],
    ),
    (
        "seed flip",
        [
            ("s.--", "synth ? sta sizing ? place ? place ? sizing ? sta"),
            (
                "sp--",
                "pipeline ? sta sizing ? place ? place ? sizing ? sta",
            ),
        ],
    ),
    (
        "sizing flip",
        [
            ("s.--", "synth ? sta sizing ? place ? place ? sizing ? sta"),
            (
                "sp--",
                "pipeline ? sta sizing ? place ? place ? sizing ? sta",
            ),
        ],
    ),
    (
        "final-only knobs",
        [("s.lr", "place ?"), ("splr", "place ?")],
    ),
    ("run then close", [("s.l.", ""), ("spl.", "")]),
    // The synth and pipeline keys name the verify level, so the golden
    // side is recomputed with its checks; what was placed and routed is
    // a netlist, found under keys that do not.
    (
        "verify off then sim",
        [
            ("-.lr", "synth ? place ? ? equiv"),
            ("--lr", "synth ? pipeline ? equiv ? place ? ? equiv"),
        ],
    ),
    (
        "verify off then full",
        [
            ("-.lr", "synth ? place ? ? equiv"),
            ("--lr", "synth ? pipeline ? equiv ? place ? ? equiv"),
        ],
    ),
    // An unverified run needs no proof: it resumes from the verified
    // run's route artifact.
    (
        "verify full then off",
        [("s.lr", "place ?"), ("splr", "place ?")],
    ),
];

#[test]
fn second_request_reuse_matrix() {
    let w = alu8();
    let mut got = Vec::new();
    for (change, _) in REUSE_MATRIX {
        let mut row = Vec::new();
        for preset in [
            DesignScenario::typical_asic(),
            DesignScenario::best_practice_asic(),
        ] {
            let mut second = preset.clone();
            let (mut v1, mut v2) = (VerifyLevel::Off, VerifyLevel::Off);
            match change {
                "same" | "run then close" => {}
                "wire flip" => second.wire_model = WireModel::Routed,
                "seed flip" => second.seed = 7,
                "sizing flip" => second.sizing = asicgap::SizingQuality::Continuous,
                "final-only knobs" => {
                    second.skew_fraction = 0.05;
                    second.access = asicgap::ProcessAccess::CustomBinned;
                }
                "verify off then sim" => v2 = VerifyLevel::Sim,
                "verify off then full" => v2 = VerifyLevel::Full,
                "verify full then off" => v1 = VerifyLevel::Full,
                other => panic!("unknown change {other}"),
            }
            let store = MemStore::new();
            run_scenario_staged(&preset, &w, v1, &store).expect("first request");
            let what = format!("{change} / {}", preset.name);
            if change == "run then close" {
                let open = storeless(&second, &w, VerifyLevel::Off);
                let target = ClosureTarget::at(open.min_period.frequency().value() * 1.05);
                let want = second
                    .close_timing(|lib| w.build(lib), VerifyLevel::Off, &target)
                    .expect("storeless close");
                let (closed, reuse) =
                    close_timing_staged(&second, &w, VerifyLevel::Off, &target, &store)
                        .expect("close on the run's store");
                assert_eq!(closed.canonical_text(), want.canonical_text(), "{what}");
                row.push((reuse_code(&reuse), String::new()));
                continue;
            }
            let rec = Recorder::cancelling_at(usize::MAX);
            let (out, reuse) = run_scenario_staged_observed(
                &second,
                &w.canonical(),
                |lib| w.build(lib),
                v2,
                &store,
                &rec,
            )
            .expect("second request");
            assert_eq!(
                out.canonical_text(),
                storeless(&second, &w, v2).canonical_text(),
                "{what}"
            );
            row.push((reuse_code(&reuse), rec.log()));
        }
        got.push((change, row));
    }
    let want: Vec<(&str, Vec<(String, String)>)> = REUSE_MATRIX
        .iter()
        .map(|(change, row)| {
            let row = row.iter().map(|(r, l)| (r.to_string(), l.to_string()));
            (*change, row.collect())
        })
        .collect();
    assert_eq!(got, want, "reuse matrix moved; got {got:#?}");
}

/// Every subset of a warm store's four artifacts evicted: the run
/// resumes from the deepest artifact left — whatever is gone above it,
/// "route present, place gone" included — and lands on the storeless
/// bytes. The reuse codes (index = eviction mask, bit k = stage k gone)
/// are pinned for the pipelined preset.
#[test]
fn every_partial_store_resumes_to_the_storeless_bytes() {
    const WANT: [&str; 16] = [
        "splr", "splr", "splr", "splr", "splr", "splr", "splr", "splr", "spl-", "spl-", "spl-",
        "spl-", "sp--", "sp--", "s---", "----",
    ];
    let w = alu8();
    let mut got = Vec::new();
    for (scenario, verify) in [
        (DesignScenario::best_practice_asic(), VerifyLevel::Off),
        (DesignScenario::typical_asic(), VerifyLevel::Off),
        (
            DesignScenario::best_practice_asic().with_wire_model(WireModel::Routed),
            VerifyLevel::Full,
        ),
    ] {
        let want = storeless(&scenario, &w, verify).canonical_text();
        let warm = MemStore::new();
        run_scenario_staged(&scenario, &w, verify, &warm).expect("warming run");
        for mask in 0..16usize {
            let store = Damaged {
                inner: &warm,
                evicted: [0, 1, 2, 3].map(|k| mask >> k & 1 == 1),
                torn: [false; 4],
            };
            let (out, reuse) =
                run_scenario_staged(&scenario, &w, verify, &store).expect("partial resume");
            assert_eq!(
                out.canonical_text(),
                want,
                "{} {verify:?} mask {mask:04b}",
                scenario.name
            );
            if got.len() < 16 {
                got.push(reuse_code(&reuse));
            }
        }
    }
    assert_eq!(got, WANT, "partial-store reuse moved; got {got:#?}");
}

/// One artifact torn at a time. With the rest of the store intact no
/// other stage is recomputed; with everything downstream gone as well,
/// the run resumes from just above the damage. Bytes never move.
#[test]
fn a_torn_artifact_costs_only_its_own_stage() {
    let w = alu8();
    let scenario = DesignScenario::best_practice_asic();
    let want = storeless(&scenario, &w, VerifyLevel::Off).canonical_text();
    let warm = MemStore::new();
    run_scenario_staged(&scenario, &w, VerifyLevel::Off, &warm).expect("warming run");
    for stage in 0..4 {
        let mut torn = [false; 4];
        torn[stage] = true;
        for downstream_gone in [false, true] {
            let store = Damaged {
                inner: &warm,
                evicted: [0, 1, 2, 3].map(|k| downstream_gone && k > stage),
                torn,
            };
            let (out, reuse) = run_scenario_staged(&scenario, &w, VerifyLevel::Off, &store)
                .expect("run over a torn artifact");
            assert_eq!(out.canonical_text(), want, "stage {stage} torn");
            for (k, (label, state)) in reuse.entries().iter().enumerate() {
                let lost = k == stage || (downstream_gone && k > stage);
                if !lost {
                    assert_eq!(*state, Some(true), "{label} with stage {stage} torn");
                } else if downstream_gone || k == 3 {
                    // Nothing downstream can vouch for it.
                    assert_eq!(*state, Some(false), "{label} with stage {stage} torn");
                }
            }
        }
    }
}
