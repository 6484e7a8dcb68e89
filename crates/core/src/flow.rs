//! End-to-end design-flow scenarios: the same workload through an ASIC
//! methodology and a custom methodology, with every §4–§8 knob explicit.
//!
//! This is where the paper's thesis becomes *measurable*: the gap is not
//! assumed, it falls out of running the tools with different settings.

use asicgap_cells::{CellFunction, Library, LibrarySpec, LogicFamily};
use asicgap_equiv::{EquivEffort, VerifyLevel};
use asicgap_exec::Pool;
use asicgap_netlist::Netlist;
use asicgap_route::RouteSummary;
use asicgap_sta::IncrementalStats;
use asicgap_synth::{PassKind, PassPipeline};
use asicgap_tech::{text, Ff, Mhz, Ps, Technology};

use std::time::Duration;

use crate::error::GapError;
use crate::stage::{run_flow, Checkpoints};

/// The coarse stages of an end-to-end scenario flow, in execution
/// order. [`FlowObserver::stage_done`] reports wall time per stage and
/// [`GapError::Cancelled`] names the last stage that completed before a
/// flow was abandoned; `asicgap-serve` keys its per-stage latency
/// histograms on the same enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowStage {
    /// Library construction and workload generation.
    Synth,
    /// Register insertion (§4 pipelining).
    Pipeline,
    /// Drive selection / TILOS sizing, including the post-layout resize.
    Sizing,
    /// Floorplanning, placement, and HPWL parasitic extraction (§5).
    Place,
    /// Global routing and routed parasitic extraction.
    Route,
    /// Timing-graph construction and the final timing report.
    Sta,
    /// Equivalence checking of the pipeline/sizing boundaries.
    Equiv,
}

impl FlowStage {
    /// Every stage, in execution order.
    pub const ALL: [FlowStage; 7] = [
        FlowStage::Synth,
        FlowStage::Pipeline,
        FlowStage::Sizing,
        FlowStage::Place,
        FlowStage::Route,
        FlowStage::Sta,
        FlowStage::Equiv,
    ];

    /// Stable lowercase label (used by metrics dumps and `STATS`).
    pub fn label(self) -> &'static str {
        match self {
            FlowStage::Synth => "synth",
            FlowStage::Pipeline => "pipeline",
            FlowStage::Sizing => "sizing",
            FlowStage::Place => "place",
            FlowStage::Route => "route",
            FlowStage::Sta => "sta",
            FlowStage::Equiv => "equiv",
        }
    }

    /// Index into [`FlowStage::ALL`] (dense, for histogram arrays).
    pub fn index(self) -> usize {
        match self {
            FlowStage::Synth => 0,
            FlowStage::Pipeline => 1,
            FlowStage::Sizing => 2,
            FlowStage::Place => 3,
            FlowStage::Route => 4,
            FlowStage::Sta => 5,
            FlowStage::Equiv => 6,
        }
    }
}

/// Observation and control hooks threaded through
/// [`run_scenario_observed`]. The observer is strictly passive with
/// respect to the results: it sees wall-clock stage timings (which are
/// *not* part of the determinism contract) and may abort the flow
/// between stages, but cannot perturb any computed number.
pub trait FlowObserver: Sync {
    /// Called each time a flow stage completes, with its wall time. A
    /// stage can report more than once per run (e.g. `Sizing` covers
    /// both the pre- and post-layout resize passes).
    fn stage_done(&self, stage: FlowStage, elapsed: Duration) {
        let _ = (stage, elapsed);
    }

    /// Polled at stage boundaries; returning `true` abandons the flow
    /// with [`GapError::Cancelled`]. This is how `asicgap-serve`
    /// enforces per-request deadlines without threading timeouts into
    /// every engine.
    fn poll_cancel(&self) -> bool {
        false
    }
}

/// The do-nothing observer [`run_scenario_verified`] uses.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoObserver;

impl FlowObserver for NoObserver {}

pub(crate) fn abort_if_cancelled(obs: &dyn FlowObserver, after: FlowStage) -> Result<(), GapError> {
    if obs.poll_cancel() {
        Err(GapError::Cancelled { after })
    } else {
        Ok(())
    }
}

/// A workload nameable by content — the serving layer's counterpart of
/// the closure [`run_scenario`] takes. Every variant maps onto one
/// generator in [`asicgap_netlist::generators`], so a
/// `(DesignScenario, WorkloadSpec, VerifyLevel)` triple fully determines
/// a flow run and can be content-hashed (see [`canonical_key`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WorkloadSpec {
    /// `generators::alu` at the given bit width.
    Alu {
        /// Datapath width in bits.
        width: usize,
    },
    /// `generators::ripple_carry_adder`.
    RippleCarryAdder {
        /// Adder width in bits.
        width: usize,
    },
    /// `generators::carry_lookahead_adder`.
    CarryLookaheadAdder {
        /// Adder width in bits.
        width: usize,
    },
    /// `generators::kogge_stone_adder`.
    KoggeStoneAdder {
        /// Adder width in bits.
        width: usize,
    },
    /// `generators::array_multiplier`.
    ArrayMultiplier {
        /// Operand width in bits.
        width: usize,
    },
    /// `generators::barrel_shifter`.
    BarrelShifter {
        /// Data width in bits.
        width: usize,
    },
    /// `generators::mux_tree`.
    MuxTree {
        /// Number of data inputs.
        inputs: usize,
    },
    /// `generators::parity_tree`.
    ParityTree {
        /// Number of inputs.
        width: usize,
    },
    /// `generators::xlarge` at [`XlargeSpec::soc`] scale (~100k gates,
    /// register-banked) — the scale-smoke workload.
    ///
    /// [`XlargeSpec::soc`]: asicgap_netlist::generators::XlargeSpec::soc
    Xlarge {
        /// Generator seed.
        seed: u64,
    },
    /// A real design read from disk through `asicgap-frontend`
    /// (Yosys JSON or EDIF), identified by **content**: the canonical
    /// key carries the format and the FNV-1a hash of the file text, so
    /// two paths to identical bytes share one cache entry and the key
    /// is invariant under thread count and host.
    File {
        /// Where to read the design from. Deliberately excluded from
        /// the canonical identity; empty when the spec was parsed from
        /// a wire key (a server resolves the hash from its design
        /// store before building).
        path: String,
        /// The interchange format.
        format: asicgap_frontend::DesignFormat,
        /// FNV-1a hash of the file text ([`content_hash`]).
        hash: u64,
    },
}

impl WorkloadSpec {
    /// The canonical `name/width` spelling used on the wire and inside
    /// [`canonical_key`] (e.g. `alu/16`, `ks/8`).
    pub fn canonical(&self) -> String {
        if let WorkloadSpec::Xlarge { seed } = *self {
            return format!("xlarge/{seed}");
        }
        if let WorkloadSpec::File { format, hash, .. } = self {
            // Content identity: format + text hash, never the path.
            return format!("file/{}/{hash:016x}", format.canonical());
        }
        let (name, w) = match *self {
            WorkloadSpec::Alu { width } => ("alu", width),
            WorkloadSpec::RippleCarryAdder { width } => ("rca", width),
            WorkloadSpec::CarryLookaheadAdder { width } => ("cla", width),
            WorkloadSpec::KoggeStoneAdder { width } => ("ks", width),
            WorkloadSpec::ArrayMultiplier { width } => ("mult", width),
            WorkloadSpec::BarrelShifter { width } => ("barrel", width),
            WorkloadSpec::MuxTree { inputs } => ("mux", inputs),
            WorkloadSpec::ParityTree { width } => ("parity", width),
            WorkloadSpec::Xlarge { .. } | WorkloadSpec::File { .. } => {
                unreachable!("returned above")
            }
        };
        format!("{name}/{w}")
    }

    /// Parses the [`WorkloadSpec::canonical`] spelling back.
    ///
    /// # Errors
    ///
    /// [`GapError::Parse`] on an unknown name, a malformed width, or a
    /// width the named generator cannot build (`mux/6`).
    pub fn parse(s: &str) -> Result<WorkloadSpec, GapError> {
        let bad = || GapError::Parse {
            what: format!("workload spec {s:?}"),
        };
        let (name, w) = s.split_once('/').ok_or_else(bad)?;
        if name == "xlarge" {
            // A generator seed, not a datapath width: any u64 is valid.
            let seed = text::num(w).map_err(|_| bad())?;
            return Ok(WorkloadSpec::Xlarge { seed });
        }
        if name == "file" {
            // file/<format>/<hash:016x>; the path is not on the wire —
            // whoever parses this must resolve the content by hash.
            let (fmt, hex) = w.split_once('/').ok_or_else(bad)?;
            let format = asicgap_frontend::DesignFormat::parse(fmt).ok_or_else(bad)?;
            let hash = text::hex(hex).map_err(|_| bad())?;
            return Ok(WorkloadSpec::File {
                path: String::new(),
                format,
                hash,
            });
        }
        let width: usize = text::num(w).map_err(|_| bad())?;
        if width == 0 || width > 64 {
            return Err(bad());
        }
        // A mux tree is 2^k wide; anything else has no netlist.
        if name == "mux" && (width < 2 || !width.is_power_of_two()) {
            return Err(bad());
        }
        Ok(match name {
            "alu" => WorkloadSpec::Alu { width },
            "rca" => WorkloadSpec::RippleCarryAdder { width },
            "cla" => WorkloadSpec::CarryLookaheadAdder { width },
            "ks" => WorkloadSpec::KoggeStoneAdder { width },
            "mult" => WorkloadSpec::ArrayMultiplier { width },
            "barrel" => WorkloadSpec::BarrelShifter { width },
            "mux" => WorkloadSpec::MuxTree { inputs: width },
            "parity" => WorkloadSpec::ParityTree { width },
            _ => return Err(bad()),
        })
    }

    /// Builds the workload netlist against `lib`.
    ///
    /// # Errors
    ///
    /// Propagates the generator's [`asicgap_netlist::NetlistError`].
    pub fn build(&self, lib: &Library) -> Result<Netlist, asicgap_netlist::NetlistError> {
        use asicgap_netlist::generators as g;
        match self {
            WorkloadSpec::Alu { width } => g::alu(lib, *width),
            WorkloadSpec::RippleCarryAdder { width } => g::ripple_carry_adder(lib, *width),
            WorkloadSpec::CarryLookaheadAdder { width } => g::carry_lookahead_adder(lib, *width),
            WorkloadSpec::KoggeStoneAdder { width } => g::kogge_stone_adder(lib, *width),
            WorkloadSpec::ArrayMultiplier { width } => g::array_multiplier(lib, *width),
            WorkloadSpec::BarrelShifter { width } => g::barrel_shifter(lib, *width),
            WorkloadSpec::MuxTree { inputs } => g::mux_tree(lib, *inputs),
            WorkloadSpec::ParityTree { width } => g::parity_tree(lib, *width),
            WorkloadSpec::Xlarge { seed } => g::xlarge(lib, &g::XlargeSpec::soc(*seed)),
            WorkloadSpec::File { path, format, hash } => {
                let invalid = |summary: String| asicgap_netlist::NetlistError::Invalid { summary };
                if path.is_empty() {
                    return Err(invalid(format!(
                        "file workload {} has no resolved path (payload not loaded)",
                        self.canonical()
                    )));
                }
                let text = std::fs::read_to_string(path)
                    .map_err(|e| invalid(format!("cannot read design {path:?}: {e}")))?;
                if content_hash(&text) != *hash {
                    return Err(invalid(format!(
                        "design {path:?} does not match content hash {hash:016x}"
                    )));
                }
                asicgap_frontend::load_design(*format, &text, lib)
                    .map_err(|e| invalid(format!("frontend: {e}")))
            }
        }
    }

    /// Builds a [`WorkloadSpec::File`] from a design file on disk:
    /// infers the format from the extension and content-hashes the
    /// text.
    ///
    /// # Errors
    ///
    /// [`GapError::Parse`] for an unrecognised extension or an
    /// unreadable file.
    pub fn from_file(path: &std::path::Path) -> Result<WorkloadSpec, GapError> {
        let format =
            asicgap_frontend::DesignFormat::from_path(path).ok_or_else(|| GapError::Parse {
                what: format!("design format of {path:?} (expected .json, .edif, or .edf)"),
            })?;
        let text = std::fs::read_to_string(path).map_err(|e| GapError::Parse {
            what: format!("design file {path:?}: {e}"),
        })?;
        Ok(WorkloadSpec::File {
            path: path.display().to_string(),
            format,
            hash: content_hash(&text),
        })
    }
}

/// The canonical identity of one flow run: every semantic knob of the
/// scenario (the display `name` is deliberately excluded — it is a
/// label, not an input), the workload, and the verification level,
/// serialized one field per line. Two runs with equal canonical keys
/// produce bit-identical [`ScenarioOutcome`]s (the PR 2 determinism
/// contract), which is what makes content-addressed result caching
/// sound.
pub fn canonical_key(
    scenario: &DesignScenario,
    workload: &WorkloadSpec,
    verify: VerifyLevel,
) -> String {
    use std::fmt::Write;
    let mut k = String::with_capacity(512);
    writeln!(k, "asicgap-flow/v1").expect("write to String");
    writeln!(k, "workload {}", workload.canonical()).expect("write to String");
    writeln!(k, "verify {}", verify.name()).expect("write to String");
    writeln!(k, "technology {:?}", scenario.technology).expect("write to String");
    writeln!(k, "library {:?}", scenario.library).expect("write to String");
    writeln!(k, "pipeline_stages {}", scenario.pipeline_stages).expect("write to String");
    writeln!(k, "skew_fraction {:?}", scenario.skew_fraction).expect("write to String");
    writeln!(k, "sizing {:?}", scenario.sizing).expect("write to String");
    writeln!(k, "logic_style {:?}", scenario.logic_style).expect("write to String");
    writeln!(k, "floorplan {:?}", scenario.floorplan).expect("write to String");
    writeln!(k, "wire_model {:?}", scenario.wire_model).expect("write to String");
    writeln!(k, "access {:?}", scenario.access).expect("write to String");
    writeln!(k, "seed {}", scenario.seed).expect("write to String");
    writeln!(
        k,
        "rewrite {}",
        PassPipeline::new(scenario.rewrite.clone()).key()
    )
    .expect("write to String");
    k
}

/// 64-bit FNV-1a over `data` — the content hash pairing
/// [`canonical_key`] (the serving layer stores the full key alongside
/// the hash, so a collision degrades to a miss, never a wrong answer).
pub fn content_hash(data: &str) -> u64 {
    asicgap_tech::fnv1a(data.as_bytes())
}

/// How the flow sizes gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizingQuality {
    /// Leave the mapper's smallest cells (a careless flow).
    AsMapped,
    /// Load-driven drive selection (a good ASIC flow, §6.2).
    DriveSelected,
    /// TILOS-style continuous sizing snapped to the (near-continuous
    /// custom) menu — hand sizing (§6).
    Continuous,
}

/// Which logic family the critical path uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogicStyle {
    /// Static CMOS throughout (any ASIC).
    StaticCmos,
    /// Domino on the critical path (§7): modelled by speeding the
    /// combinational portion by the library's measured domino/static
    /// cell-delay ratio.
    DominoCriticalPath,
}

/// Floorplanning discipline (§5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FloorplanQuality {
    /// Careful: the block annealed compactly (custom, or a floorplanned
    /// ASIC).
    Careful,
    /// No floorplanning: logic spread across a large die.
    Spread {
        /// Number of far-apart modules the path wanders through.
        modules: usize,
    },
}

/// How the flow prices wires (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireModel {
    /// Half-perimeter bounding-box estimate per net — the pre-route
    /// model every flow starts from.
    Hpwl,
    /// Congestion-aware global routing (`asicgap-route`): actual routed
    /// tree lengths plus via stacks, extracted onto the same Elmore
    /// arithmetic. Never optimistic — routed length bounds HPWL from
    /// above.
    Routed,
}

/// Process access (§8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessAccess {
    /// Worst-case corner sign-off on a merchant fab: the ASIC quote.
    AsicWorstCase,
    /// Characterised, binned silicon from a captive leading fab.
    CustomBinned,
}

/// A complete methodology description.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignScenario {
    /// Scenario name for reports.
    pub name: String,
    /// Process technology.
    pub technology: Technology,
    /// Library recipe.
    pub library: LibrarySpec,
    /// Pipeline stages (1 = unpipelined).
    pub pipeline_stages: usize,
    /// Clock skew as a fraction of the cycle (§4.1: ASIC ≈ 0.10, custom
    /// ≈ 0.05).
    pub skew_fraction: f64,
    /// Sizing discipline.
    pub sizing: SizingQuality,
    /// Logic family usage.
    pub logic_style: LogicStyle,
    /// Floorplanning discipline.
    pub floorplan: FloorplanQuality,
    /// Wire pricing: HPWL estimate or full global routing.
    pub wire_model: WireModel,
    /// Process access.
    pub access: ProcessAccess,
    /// RNG seed for the stochastic steps (placement, Monte Carlo).
    pub seed: u64,
    /// Depth-recovery passes run on the mapped workload before
    /// pipelining (cut rewriting and chain rebalancing, in order).
    /// Empty means the workload enters the flow as generated. Under
    /// [`VerifyLevel::Full`] every pass boundary is discharged through
    /// the miter checker and its effort merged into
    /// [`ScenarioOutcome::verify_effort`].
    pub rewrite: Vec<PassKind>,
}

impl DesignScenario {
    /// The paper's "average ASIC": unpipelined, 10% skew, decent library
    /// with drive selection, careful-enough floorplan, worst-case quote.
    pub fn typical_asic() -> DesignScenario {
        DesignScenario {
            name: "typical ASIC".to_string(),
            technology: Technology::cmos025_asic(),
            library: LibrarySpec::rich(),
            pipeline_stages: 1,
            skew_fraction: 0.10,
            sizing: SizingQuality::DriveSelected,
            logic_style: LogicStyle::StaticCmos,
            floorplan: FloorplanQuality::Careful,
            wire_model: WireModel::Hpwl,
            access: ProcessAccess::AsicWorstCase,
            seed: 1,
            rewrite: Vec::new(),
        }
    }

    /// This scenario with its wires priced by `model` — the E13 study
    /// runs each grid point under both models and reports the delta.
    pub fn with_wire_model(mut self, model: WireModel) -> DesignScenario {
        self.wire_model = model;
        self
    }

    /// This scenario with the given depth-recovery passes armed (an E14
    /// knob — [`DesignScenario::pass_order_grid`] sweeps the orderings).
    pub fn with_rewrite(mut self, passes: Vec<PassKind>) -> DesignScenario {
        self.rewrite = passes;
        self
    }

    /// A best-practice ASIC (Xtensa-class): pipelined five deep, but
    /// still static CMOS, ASIC skew, worst-case quoting.
    pub fn best_practice_asic() -> DesignScenario {
        DesignScenario {
            name: "best-practice ASIC".to_string(),
            pipeline_stages: 5,
            ..DesignScenario::typical_asic()
        }
    }

    /// A high-speed network ASIC (§2's "up to 200 MHz" class): the
    /// typical flow but with the shallow, regular logic such chips carry
    /// — pair with a CRC or comparator workload.
    pub fn network_asic() -> DesignScenario {
        DesignScenario {
            name: "network ASIC".to_string(),
            ..DesignScenario::typical_asic()
        }
    }

    /// The full ASIC-vs-custom grid: every subset of the five §3 factor
    /// upgrades applied to a common baseline, 2⁵ = 32 scenarios. The
    /// baseline (index 0) is a careless ASIC — unpipelined, ASIC skew,
    /// drive-selected sizing, *unfloorplanned* (spread over a large
    /// die), static CMOS, worst-case quoted. Bit `k` of the index turns
    /// on upgrade `k`:
    ///
    /// | bit | §  | upgrade |
    /// |-----|----|---------|
    /// | 0   | §4 | 5-stage pipeline + custom (5%) skew |
    /// | 1   | §5 | careful floorplanning |
    /// | 2   | §6 | continuous (TILOS) sizing |
    /// | 3   | §7 | domino critical path (custom library) |
    /// | 4   | §8 | binned silicon on the custom process |
    ///
    /// Index 31 is therefore the full custom methodology. The grid is
    /// the workspace's canonical embarrassingly parallel workload: run
    /// it with [`run_scenarios`].
    pub fn factor_grid() -> Vec<DesignScenario> {
        (0u32..32)
            .map(|bits| {
                let mut s = DesignScenario::typical_asic();
                s.floorplan = FloorplanQuality::Spread { modules: 4 };
                let mut tags: Vec<&str> = Vec::new();
                if bits & 1 != 0 {
                    s.pipeline_stages = 5;
                    s.skew_fraction = 0.05;
                    tags.push("pipe");
                }
                if bits & 2 != 0 {
                    s.floorplan = FloorplanQuality::Careful;
                    tags.push("floorplan");
                }
                if bits & 4 != 0 {
                    s.sizing = SizingQuality::Continuous;
                    tags.push("sizing");
                }
                if bits & 8 != 0 {
                    s.logic_style = LogicStyle::DominoCriticalPath;
                    s.library = LibrarySpec::custom();
                    tags.push("domino");
                }
                if bits & 16 != 0 {
                    s.access = ProcessAccess::CustomBinned;
                    s.technology = Technology::cmos025_custom();
                    tags.push("process");
                }
                s.name = if tags.is_empty() {
                    "base ASIC".to_string()
                } else {
                    format!("base+{}", tags.join("+"))
                };
                s
            })
            .collect()
    }

    /// The custom methodology: custom process (shorter Leff), custom
    /// library (near-continuous drives, fast latches, domino family),
    /// deep pipeline, 5% skew, hand sizing, domino critical paths, binned
    /// silicon.
    pub fn custom() -> DesignScenario {
        DesignScenario {
            name: "custom".to_string(),
            technology: Technology::cmos025_custom(),
            library: LibrarySpec::custom(),
            pipeline_stages: 5,
            skew_fraction: 0.05,
            sizing: SizingQuality::Continuous,
            logic_style: LogicStyle::DominoCriticalPath,
            floorplan: FloorplanQuality::Careful,
            wire_model: WireModel::Hpwl,
            access: ProcessAccess::CustomBinned,
            seed: 1,
            rewrite: Vec::new(),
        }
    }

    /// The pass-ordering sweep: the typical ASIC under every interesting
    /// rewrite-pipeline ordering, from `off` through the canonical
    /// [`PassPipeline::depth_recovery`] recipe. Ordering is a genuine
    /// search dimension — rebalance-then-rewrite and the reverse land on
    /// different netlists — so the grid names each point by its pipeline
    /// key and [`canonical_key`] keeps them distinct in the result
    /// cache.
    pub fn pass_order_grid() -> Vec<DesignScenario> {
        let orderings: Vec<Vec<PassKind>> = vec![
            Vec::new(),
            vec![PassKind::Rewrite],
            vec![
                PassKind::RebalanceAnd,
                PassKind::RebalanceOr,
                PassKind::RebalanceXor,
            ],
            PassPipeline::depth_recovery().passes,
            vec![
                PassKind::Rewrite,
                PassKind::RebalanceAnd,
                PassKind::RebalanceOr,
                PassKind::RebalanceXor,
                PassKind::Rewrite,
            ],
        ];
        orderings
            .into_iter()
            .map(|passes| {
                let mut s = DesignScenario::typical_asic();
                s.name = format!("typical ASIC / {}", PassPipeline::new(passes.clone()).key());
                s.rewrite = passes;
                s
            })
            .collect()
    }
}

/// What a scenario run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Minimum clock period at nominal silicon (logic + sequencing +
    /// skew + wires).
    pub min_period: Ps,
    /// Cycle depth in FO4 of the scenario's technology.
    pub fo4_per_cycle: f64,
    /// Clock frequency the vendor actually ships (after §8 access).
    pub shipped: Mhz,
    /// Gate count after all transformations.
    pub gates: usize,
    /// Registers inserted by pipelining.
    pub registers: usize,
    /// Total cell area, µm² — the §9 caveat's other axis.
    pub area_um2: f64,
    /// Switching-power proxy: Σ(cell switched cap × family factor) ×
    /// shipped frequency, arbitrary units. Domino and deep pipelines pay
    /// here (the Alpha's 90 W vs. the PowerPC's 6.3 W).
    pub power_proxy: f64,
    /// Propagation-effort counters of the flow's shared incremental
    /// timer. Part of the determinism contract: a parallel grid run must
    /// reproduce these exactly, not just the timing numbers, or the
    /// engines did different work.
    pub timing_effort: IncrementalStats,
    /// Equivalence-checker effort when the flow ran with
    /// [`VerifyLevel::Full`] (merged across the pipeline and sizing
    /// proofs); `None` otherwise. Like `timing_effort`, these counters
    /// are deterministic across thread counts.
    pub verify_effort: Option<EquivEffort>,
    /// Router numbers when the scenario ran with [`WireModel::Routed`]
    /// (iterations, residual overflow, routed vs. HPWL wirelength);
    /// `None` under the HPWL model.
    pub route: Option<RouteSummary>,
}

/// Runs `scenario` on the workload produced by `workload` (a generator
/// taking the scenario's library).
///
/// # Errors
///
/// Propagates generator/transform failures as [`GapError`].
pub fn run_scenario(
    scenario: &DesignScenario,
    workload: impl FnOnce(&Library) -> Result<Netlist, asicgap_netlist::NetlistError>,
) -> Result<ScenarioOutcome, GapError> {
    run_scenario_verified(scenario, workload, VerifyLevel::Off)
}

/// [`run_scenario`] with equivalence checking armed at `verify`.
///
/// Two transform boundaries are checked:
///
/// - **pipeline** — the registered netlist against the flat workload
///   (registers transparent; structural discharge expected);
/// - **sizing** — the final drive-selected/TILOS-snapped netlist against
///   the netlist as it entered the shared timer (registers cut; sizing
///   only swaps drive strengths, so this too discharges structurally —
///   a SAT cone or counterexample here means a sizing pass rewired
///   logic).
///
/// With [`VerifyLevel::Full`] the merged checker effort lands in
/// [`ScenarioOutcome::verify_effort`]; [`VerifyLevel::Sim`] smoke-tests
/// the same boundaries by simulation.
///
/// # Errors
///
/// As [`run_scenario`], plus [`GapError::Inequivalent`] when a stage
/// fails its check and [`GapError::Equiv`] when the checker errors.
pub fn run_scenario_verified(
    scenario: &DesignScenario,
    workload: impl FnOnce(&Library) -> Result<Netlist, asicgap_netlist::NetlistError>,
    verify: VerifyLevel,
) -> Result<ScenarioOutcome, GapError> {
    run_scenario_observed(scenario, workload, verify, &NoObserver)
}

/// [`run_scenario_verified`] with observation and cancellation hooks:
/// `obs` receives per-stage wall times and is polled for cancellation
/// between stages (see [`FlowObserver`]). The observer cannot change
/// any computed number — with a never-cancelling observer this returns
/// exactly what [`run_scenario_verified`] returns.
///
/// # Errors
///
/// As [`run_scenario_verified`], plus [`GapError::Cancelled`] when
/// `obs.poll_cancel()` reports true at a stage boundary.
pub fn run_scenario_observed(
    scenario: &DesignScenario,
    workload: impl FnOnce(&Library) -> Result<Netlist, asicgap_netlist::NetlistError>,
    verify: VerifyLevel,
    obs: &dyn FlowObserver,
) -> Result<ScenarioOutcome, GapError> {
    run_flow(scenario, workload, verify, obs, Checkpoints::NONE).map(|(outcome, _)| outcome)
}

/// Runs every scenario in `scenarios` on the same `workload`,
/// concurrently on the workspace pool ([`ASICGAP_THREADS`](asicgap_exec)
/// workers), returning outcomes in scenario order.
///
/// Determinism: each scenario run is an independent task — it builds its
/// own library, netlist, and timer, and its stochastic steps are seeded
/// from the scenario itself — and the result vector is reduced in input
/// order. The output (including every [`ScenarioOutcome::timing_effort`]
/// counter) is therefore bit-for-bit identical to running the scenarios
/// in a sequential loop, at any thread count.
///
/// # Errors
///
/// Returns the first failing scenario's [`GapError`] (scenarios are
/// still all run).
pub fn run_scenarios<W>(
    scenarios: &[DesignScenario],
    workload: W,
) -> Result<Vec<ScenarioOutcome>, GapError>
where
    W: Fn(&Library) -> Result<Netlist, asicgap_netlist::NetlistError> + Sync,
{
    run_scenarios_verified(scenarios, workload, VerifyLevel::Off)
}

/// [`run_scenarios`] with equivalence checking armed at `verify` in every
/// scenario run (see [`run_scenario_verified`]).
///
/// # Errors
///
/// As [`run_scenarios`], plus per-stage inequivalence findings.
pub fn run_scenarios_verified<W>(
    scenarios: &[DesignScenario],
    workload: W,
    verify: VerifyLevel,
) -> Result<Vec<ScenarioOutcome>, GapError>
where
    W: Fn(&Library) -> Result<Netlist, asicgap_netlist::NetlistError> + Sync,
{
    Pool::from_env()
        .map(scenarios, |_, s| {
            run_scenario_verified(s, &workload, verify)
        })
        .into_iter()
        .collect()
}

/// Measures the domino-over-static speed ratio from the library itself:
/// AND2 cells at equal input capacitance driving a gain-4 load. Falls
/// back to 1.0 (no gain) when the library has no domino family — an ASIC
/// cannot use what its library does not offer (§7.1).
pub fn domino_speed_ratio(lib: &Library) -> f64 {
    let tech = &lib.tech;
    let statics = lib.drives_for(CellFunction::And(2), LogicFamily::StaticCmos);
    let dominos = lib.drives_for(CellFunction::And(2), LogicFamily::Domino);
    let (Some(&s_id), Some(_)) = (statics.first(), dominos.first()) else {
        return 1.0;
    };
    let s = lib.cell(s_id);
    // Domino variant with the same input capacitance.
    let target_cin = s.input_cap;
    let d_id = dominos
        .iter()
        .min_by(|&&a, &&b| {
            let da = (lib.cell(a).input_cap / target_cin).ln().abs();
            let db = (lib.cell(b).input_cap / target_cin).ln().abs();
            da.partial_cmp(&db).expect("finite")
        })
        .expect("non-empty domino list");
    let d = lib.cell(*d_id);
    let load: Ff = target_cin * 4.0;
    let ratio = s.delay(tech, load) / d.delay(tech, load);
    ratio.max(1.0)
}

/// The per-stage sequencing overhead of this library's flip-flop.
pub(crate) fn sequencing_overhead(lib: &Library) -> Ps {
    lib.smallest(CellFunction::Dff)
        .and_then(|id| lib.cell(id).kind.seq_timing().map(|t| t.cycle_overhead()))
        .unwrap_or(Ps::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asicgap_netlist::generators;

    #[test]
    fn typical_asic_lands_in_paper_frequency_band() {
        // §2: "average 0.25 um ASICs run at between 120 MHz and 150 MHz".
        let out = run_scenario(&DesignScenario::typical_asic(), |lib| {
            generators::alu(lib, 16)
        })
        .expect("scenario runs");
        let f = out.shipped.value();
        assert!(
            (90.0..=200.0).contains(&f),
            "typical ASIC shipped {f:.0} MHz"
        );
        assert_eq!(out.registers, 0);
    }

    #[test]
    fn custom_flow_is_many_times_faster() {
        let asic = run_scenario(&DesignScenario::typical_asic(), |lib| {
            generators::alu(lib, 16)
        })
        .expect("asic");
        let custom = run_scenario(&DesignScenario::custom(), |lib| generators::alu(lib, 16))
            .expect("custom");
        let gap = custom.shipped / asic.shipped;
        assert!(
            gap > 4.0 && gap < 12.0,
            "measured end-to-end gap {gap:.1} (paper: 6-8x)"
        );
        assert!(custom.registers > 0);
        assert!(custom.fo4_per_cycle < asic.fo4_per_cycle);
    }

    #[test]
    fn best_practice_asic_sits_between() {
        let typical = run_scenario(&DesignScenario::typical_asic(), |lib| {
            generators::alu(lib, 16)
        })
        .expect("typical");
        let best = run_scenario(&DesignScenario::best_practice_asic(), |lib| {
            generators::alu(lib, 16)
        })
        .expect("best");
        let custom = run_scenario(&DesignScenario::custom(), |lib| generators::alu(lib, 16))
            .expect("custom");
        assert!(best.shipped > typical.shipped);
        assert!(best.shipped < custom.shipped);
    }

    #[test]
    fn domino_ratio_measured_only_when_available() {
        let tech = Technology::cmos025_custom();
        let custom = LibrarySpec::custom().build(&tech);
        let rich = LibrarySpec::rich().build(&tech);
        let r_custom = domino_speed_ratio(&custom);
        assert!(
            (1.4..=2.1).contains(&r_custom),
            "domino ratio {r_custom:.2} (paper: 1.5-2.0)"
        );
        assert_eq!(domino_speed_ratio(&rich), 1.0);
    }

    #[test]
    fn custom_speed_costs_power_and_area() {
        // The paper's closing caveat: the speed ranking inverts on the
        // power/area axes (Alpha: 750 MHz at 90 W; PowerPC: 1 GHz at
        // 6.3 W; ASICs far lower still).
        let asic = run_scenario(&DesignScenario::typical_asic(), |lib| {
            generators::alu(lib, 16)
        })
        .expect("asic");
        let custom = run_scenario(&DesignScenario::custom(), |lib| generators::alu(lib, 16))
            .expect("custom");
        assert!(custom.power_proxy > 3.0 * asic.power_proxy);
        assert!(custom.area_um2 > asic.area_um2);
        // Even per MHz, the custom machine burns more.
        let per_mhz = |o: &ScenarioOutcome| o.power_proxy / o.shipped.value();
        assert!(per_mhz(&custom) > per_mhz(&asic) * 0.5);
    }

    #[test]
    fn factor_grid_spans_careless_asic_to_custom() {
        let grid = DesignScenario::factor_grid();
        assert_eq!(grid.len(), 32);
        assert_eq!(grid[0].name, "base ASIC");
        assert_eq!(grid[0].pipeline_stages, 1);
        assert!(matches!(
            grid[0].floorplan,
            FloorplanQuality::Spread { modules: 4 }
        ));
        let full = &grid[31];
        assert_eq!(full.pipeline_stages, 5);
        assert_eq!(full.sizing, SizingQuality::Continuous);
        assert_eq!(full.logic_style, LogicStyle::DominoCriticalPath);
        assert_eq!(full.access, ProcessAccess::CustomBinned);
        assert_eq!(full.floorplan, FloorplanQuality::Careful);
    }

    #[test]
    fn grid_corners_order_like_the_paper() {
        // The all-upgrades corner must ship several times faster than
        // the no-upgrades corner; run both through the parallel driver.
        let grid = DesignScenario::factor_grid();
        let corners = [grid[0].clone(), grid[31].clone()];
        let out = run_scenarios(&corners, |lib| generators::alu(lib, 8)).expect("corners run");
        assert_eq!(out.len(), 2);
        let gap = out[1].shipped / out[0].shipped;
        assert!(gap > 4.0, "grid corner gap {gap:.1}");
    }

    #[test]
    fn run_scenarios_propagates_errors() {
        let bad = DesignScenario {
            pipeline_stages: 0,
            ..DesignScenario::typical_asic()
        };
        let scenarios = [DesignScenario::typical_asic(), bad];
        assert!(matches!(
            run_scenarios(&scenarios, |lib| generators::alu(lib, 4)),
            Err(GapError::Scenario { .. })
        ));
    }

    #[test]
    fn verified_scenario_matches_unverified_numbers() {
        // Arming the checker must observe, not perturb: every measured
        // number is identical, and the proof effort lands alongside.
        let scenario = DesignScenario::best_practice_asic();
        let plain = run_scenario(&scenario, |lib| generators::alu(lib, 8)).expect("plain");
        let checked =
            run_scenario_verified(&scenario, |lib| generators::alu(lib, 8), VerifyLevel::Full)
                .expect("verified");
        assert_eq!(plain.min_period, checked.min_period);
        assert_eq!(plain.timing_effort, checked.timing_effort);
        assert_eq!(plain.verify_effort, None);
        let effort = checked.verify_effort.expect("full check records effort");
        // Pipelining and sizing never restructure logic: the entire flow
        // discharges structurally, no SAT.
        assert!(effort.cones > 0);
        assert_eq!(effort.structural, effort.cones);
        assert_eq!(effort.sat_cones, 0);
    }

    #[test]
    fn sim_tier_scenario_passes() {
        let scenario = DesignScenario::typical_asic();
        let out = run_scenario_verified(&scenario, |lib| generators::alu(lib, 8), VerifyLevel::Sim)
            .expect("sim-verified");
        assert_eq!(out.verify_effort, None);
    }

    #[test]
    fn canonical_key_identifies_scenarios_by_content() {
        let w = WorkloadSpec::Alu { width: 16 };
        let a = DesignScenario::typical_asic();
        // The display name is a label, not an input: renaming must not
        // change identity.
        let mut renamed = a.clone();
        renamed.name = "same knobs, new label".to_string();
        assert_eq!(
            canonical_key(&a, &w, VerifyLevel::Off),
            canonical_key(&renamed, &w, VerifyLevel::Off)
        );
        // Every semantic knob must change identity.
        assert_ne!(
            canonical_key(&a, &w, VerifyLevel::Off),
            canonical_key(&a, &w, VerifyLevel::Full)
        );
        assert_ne!(
            canonical_key(&a, &w, VerifyLevel::Off),
            canonical_key(&a, &WorkloadSpec::Alu { width: 8 }, VerifyLevel::Off)
        );
        let mut seeded = a.clone();
        seeded.seed = 2;
        assert_ne!(
            canonical_key(&a, &w, VerifyLevel::Off),
            canonical_key(&seeded, &w, VerifyLevel::Off)
        );
        assert_ne!(
            canonical_key(&a, &w, VerifyLevel::Off),
            canonical_key(
                &a.clone().with_wire_model(WireModel::Routed),
                &w,
                VerifyLevel::Off
            )
        );
        // Hash is a pure function of the key.
        let k = canonical_key(&a, &w, VerifyLevel::Off);
        assert_eq!(content_hash(&k), content_hash(&k));
        assert_ne!(content_hash(&k), content_hash(&format!("{k} ")));
        // The rewrite pipeline is a semantic knob: arming it, and the
        // pass *ordering*, both change identity.
        let recovered = a
            .clone()
            .with_rewrite(PassPipeline::depth_recovery().passes);
        assert_ne!(
            canonical_key(&a, &w, VerifyLevel::Off),
            canonical_key(&recovered, &w, VerifyLevel::Off)
        );
        let reversed = a.clone().with_rewrite(vec![
            PassKind::Rewrite,
            PassKind::RebalanceAnd,
            PassKind::RebalanceOr,
            PassKind::RebalanceXor,
            PassKind::Rewrite,
        ]);
        assert_ne!(
            canonical_key(&recovered, &w, VerifyLevel::Off),
            canonical_key(&reversed, &w, VerifyLevel::Off)
        );
        assert!(canonical_key(&a, &w, VerifyLevel::Off).contains("rewrite off"));
    }

    #[test]
    fn pass_order_grid_sweeps_distinct_orderings() {
        let grid = DesignScenario::pass_order_grid();
        assert_eq!(grid.len(), 5);
        assert!(grid[0].rewrite.is_empty());
        assert_eq!(grid[3].rewrite, PassPipeline::depth_recovery().passes);
        // Every point has a distinct canonical identity.
        let w = WorkloadSpec::Alu { width: 8 };
        let keys: std::collections::HashSet<String> = grid
            .iter()
            .map(|s| canonical_key(s, &w, VerifyLevel::Off))
            .collect();
        assert_eq!(keys.len(), grid.len());
    }

    #[test]
    fn rewrite_scenario_cuts_the_cycle_on_deep_random_logic() {
        // The small xlarge block is where the depth-recovery pipeline
        // has real headroom (random glue logic, long unbalanced cones):
        // the rewritten scenario must ship a markedly shorter cycle.
        // (On shallow, already-optimal workloads the pipeline is a
        // near-no-op and wire effects can dominate — that is exactly the
        // ordering question the pass_order_grid sweep measures.)
        use asicgap_netlist::generators::XlargeSpec;
        let plain = DesignScenario::typical_asic();
        let rewritten = plain
            .clone()
            .with_rewrite(PassPipeline::depth_recovery().passes);
        let xl = |lib: &Library| generators::xlarge(lib, &XlargeSpec::small(7));
        let base = run_scenario(&plain, xl).expect("base");
        let fast = run_scenario(&rewritten, xl).expect("rewritten");
        assert!(
            fast.min_period.value() < 0.8 * base.min_period.value(),
            "rewriting must shorten the cycle >= 20%: {:?} -> {:?}",
            base.min_period,
            fast.min_period
        );
    }

    #[test]
    fn rewrite_scenario_verifies_without_perturbing_numbers() {
        // eq32 has 4-cut headroom; with Full verify armed every pass
        // boundary is discharged through the miter and the measured
        // numbers are bit-identical to the unverified run.
        let rewritten =
            DesignScenario::typical_asic().with_rewrite(PassPipeline::depth_recovery().passes);
        let eq = |lib: &Library| generators::equality_comparator(lib, 32);
        let fast = run_scenario(&rewritten, eq).expect("rewritten");
        let checked = run_scenario_verified(&rewritten, eq, VerifyLevel::Full).expect("verified");
        assert_eq!(checked.min_period, fast.min_period);
        assert_eq!(checked.gates, fast.gates);
        assert_eq!(checked.timing_effort, fast.timing_effort);
        let effort = checked.verify_effort.expect("full check records effort");
        // Rewriting restructures logic, so unlike pipelining/sizing the
        // pass proofs genuinely exercise the miter.
        assert!(effort.cones > 0);
    }

    #[test]
    fn workload_spec_round_trips_and_builds() {
        let specs = [
            WorkloadSpec::Alu { width: 16 },
            WorkloadSpec::RippleCarryAdder { width: 8 },
            WorkloadSpec::CarryLookaheadAdder { width: 8 },
            WorkloadSpec::KoggeStoneAdder { width: 8 },
            WorkloadSpec::ArrayMultiplier { width: 6 },
            WorkloadSpec::BarrelShifter { width: 8 },
            WorkloadSpec::MuxTree { inputs: 8 },
            WorkloadSpec::ParityTree { width: 9 },
            WorkloadSpec::Xlarge { seed: 2026 },
        ];
        let tech = Technology::cmos025_asic();
        let lib = LibrarySpec::rich().build(&tech);
        for spec in specs {
            let round = WorkloadSpec::parse(&spec.canonical()).expect("parses back");
            assert_eq!(round, spec);
            let n = spec.build(&lib).expect("generator builds");
            assert!(n.instance_count() > 0);
        }
        assert!(WorkloadSpec::parse("alu").is_err());
        assert!(WorkloadSpec::parse("alu/0").is_err());
        assert!(WorkloadSpec::parse("alu/999").is_err());
        assert!(WorkloadSpec::parse("frobnicator/8").is_err());
        // A mux tree is 2^k wide; `served` must refuse the rest at the
        // door instead of meeting the generator's error on a worker.
        for bad in ["mux/1", "mux/6", "mux/63"] {
            assert!(WorkloadSpec::parse(bad).is_err(), "{bad}");
        }
        assert!(WorkloadSpec::parse("mux/2").is_ok());
    }

    #[test]
    fn observer_sees_stages_and_never_perturbs() {
        use std::sync::Mutex;
        use std::time::Duration;
        struct Recorder(Mutex<Vec<FlowStage>>);
        impl FlowObserver for Recorder {
            fn stage_done(&self, stage: FlowStage, _elapsed: Duration) {
                self.0.lock().expect("recorder lock").push(stage);
            }
        }
        let scenario = DesignScenario::best_practice_asic();
        let plain = run_scenario(&scenario, |lib| generators::alu(lib, 8)).expect("plain");
        let rec = Recorder(Mutex::new(Vec::new()));
        let observed = run_scenario_observed(
            &scenario,
            |lib| generators::alu(lib, 8),
            VerifyLevel::Off,
            &rec,
        )
        .expect("observed");
        assert_eq!(plain, observed, "observer must not perturb results");
        let stages = rec.0.into_inner().expect("recorder lock");
        for want in [
            FlowStage::Synth,
            FlowStage::Pipeline,
            FlowStage::Sizing,
            FlowStage::Place,
            FlowStage::Sta,
        ] {
            assert!(stages.contains(&want), "stage {want:?} unreported");
        }
        assert!(
            !stages.contains(&FlowStage::Route),
            "HPWL flow must not report a route stage"
        );
        assert!(
            !stages.contains(&FlowStage::Equiv),
            "unverified flow must not report an equiv stage"
        );
    }

    #[test]
    fn cancelled_flow_stops_at_a_stage_boundary() {
        struct CancelImmediately;
        impl FlowObserver for CancelImmediately {
            fn poll_cancel(&self) -> bool {
                true
            }
        }
        let err = run_scenario_observed(
            &DesignScenario::typical_asic(),
            |lib| generators::alu(lib, 8),
            VerifyLevel::Off,
            &CancelImmediately,
        )
        .expect_err("cancelled");
        assert!(matches!(
            err,
            GapError::Cancelled {
                after: FlowStage::Synth
            }
        ));
    }

    #[test]
    fn zero_stage_scenario_rejected() {
        let bad = DesignScenario {
            pipeline_stages: 0,
            ..DesignScenario::typical_asic()
        };
        assert!(matches!(
            run_scenario(&bad, |lib| generators::alu(lib, 4)),
            Err(GapError::Scenario { .. })
        ));
    }
}
