//! Seeded input generation: the request streams of every workload.
//!
//! Everything here is a pure function of the workload seed, and the
//! generator is the harness's own (SplitMix64) so a change to the
//! repository's RNG cannot silently change what is measured. The
//! program under test only ever sees the generated requests.
//!
//! Streams are *stratified*: requests come in shuffled blocks that
//! each hold every (preset x generator x wire model) cell once, and each
//! cell deals its widths without replacement, so two seeds exercise the
//! same mix and differ only in order and scenario seeds. Without that,
//! run-to-run spread is dominated by how many wide routed designs a seed
//! happened to draw.

use asicgap::{VerifyLevel, WireModel, WorkloadSpec};
use asicgap_serve::proto::{RunRequest, ScenarioPreset};

/// The seed `all`, `trace`, `check` and the pinned digests use.
pub const DEFAULT_SEED: u64 = 11;

/// Server-side deadline carried by every `RUN`/`CLOSE`: an overrun
/// comes back as `ERROR cancelled` and counts as a failure.
pub const DEADLINE_MS: u32 = 20_000;

/// SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The generator families of the flow workloads with their width
/// ranges. The ranges stop short of the route cliffs (README, "Excluded
/// on purpose"): one 6-9 s PathFinder blow-up would decide a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Alu,
    Mult,
    Ks,
    Cla,
    Rca,
    Barrel,
    Mux,
    Parity,
}

pub const FAMILIES: [Family; 8] = [
    Family::Alu,
    Family::Mult,
    Family::Ks,
    Family::Cla,
    Family::Rca,
    Family::Barrel,
    Family::Mux,
    Family::Parity,
];

impl Family {
    /// Every width the family is drawn at.
    fn widths(self) -> Vec<usize> {
        match self {
            Family::Alu | Family::Barrel => (8..=32).collect(),
            Family::Mult => (6..=16).collect(),
            Family::Ks | Family::Cla | Family::Rca => (8..=40).collect(),
            // `generators::mux_tree` panics unless the size is 2^k.
            Family::Mux => vec![8, 16, 32, 64],
            Family::Parity => (8..=64).collect(),
        }
    }

    fn spec(self, width: usize) -> WorkloadSpec {
        match self {
            Family::Alu => WorkloadSpec::Alu { width },
            Family::Mult => WorkloadSpec::ArrayMultiplier { width },
            Family::Ks => WorkloadSpec::KoggeStoneAdder { width },
            Family::Cla => WorkloadSpec::CarryLookaheadAdder { width },
            Family::Rca => WorkloadSpec::RippleCarryAdder { width },
            Family::Barrel => WorkloadSpec::BarrelShifter { width },
            Family::Mux => WorkloadSpec::MuxTree { inputs: width },
            Family::Parity => WorkloadSpec::ParityTree { width },
        }
    }
}

/// Widths of one stream cell, dealt like cards: every width of the
/// family's range comes up once, in seeded order, before any repeats.
/// The latency distribution stays continuous (all widths occur), but two
/// seeds deal the same widths to the same cell and differ only in order
/// — an independent draw per request would let one seed's luck with
/// 16-bit routed multipliers move throughput by several percent.
#[derive(Debug, Clone)]
struct Deck {
    family: Family,
    left: Vec<usize>,
}

impl Deck {
    fn new(family: Family) -> Deck {
        Deck {
            family,
            left: Vec::new(),
        }
    }

    fn deal(&mut self, rng: &mut Rng) -> WorkloadSpec {
        if self.left.is_empty() {
            self.left = self.family.widths();
            rng.shuffle(&mut self.left);
        }
        self.family.spec(self.left.pop().expect("just refilled"))
    }
}

const PRESETS: [ScenarioPreset; 3] = [
    ScenarioPreset::TypicalAsic,
    ScenarioPreset::BestPracticeAsic,
    ScenarioPreset::Custom,
];

/// What one `flow_cold` operation does with its request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// The monolithic library path (`run_scenario_verified`).
    Run,
    /// Open-loop run, then `close_timing` at 1.05x the fmax it found.
    Close,
}

#[derive(Debug, Clone, PartialEq)]
pub struct FlowOp {
    pub kind: FlowKind,
    pub req: RunRequest,
}

/// The endless `flow_cold` stream. Shuffled blocks of 48 = 3 presets x
/// 8 families x 2 wire models. Each cell deals its widths from its own
/// [`Deck`], and cells take turns at being a `Close` (6 of every 48
/// operations, HPWL cells only) and a `VerifyLevel::Full` run (one
/// block in 8 per cell, multipliers exempt), so every seed sees the
/// same mix. The scenario seed counts up from a seeded base, so no
/// canonical key ever repeats.
#[derive(Debug, Clone)]
pub struct FlowStream {
    rng: Rng,
    decks: Vec<Deck>,
    blocks: usize,
    block: Vec<FlowOp>,
    next_seed: u64,
}

impl FlowStream {
    pub fn new(seed: u64) -> FlowStream {
        let mut rng = Rng::new(seed ^ 0xF10C_01D0);
        let next_seed = rng.below(1 << 40);
        FlowStream {
            rng,
            decks: (0..48)
                .map(|cell| Deck::new(FAMILIES[cell / 2 % 8]))
                .collect(),
            blocks: 0,
            block: Vec::new(),
            next_seed,
        }
    }

    fn refill(&mut self) {
        self.block.clear();
        for (cell, deck) in self.decks.iter_mut().enumerate() {
            let turn = (cell + self.blocks) % 8;
            let routed = cell % 2 == 1;
            self.next_seed += 1;
            self.block.push(FlowOp {
                // Only HPWL cells close (each one block in 4): a routed
                // `close_timing` can panic (README, "Excluded on purpose").
                kind: if !routed && (cell / 2 + self.blocks) % 4 == 3 {
                    FlowKind::Close
                } else {
                    FlowKind::Run
                },
                req: RunRequest {
                    preset: PRESETS[cell / 16],
                    wire_model: [WireModel::Hpwl, WireModel::Routed][cell % 2],
                    verify: if turn == 3 && deck.family != Family::Mult {
                        VerifyLevel::Full
                    } else {
                        VerifyLevel::Off
                    },
                    seed: self.next_seed,
                    workload: deck.deal(&mut self.rng),
                    deadline_ms: DEADLINE_MS,
                },
            });
        }
        self.blocks += 1;
        self.rng.shuffle(&mut self.block);
    }
}

impl Iterator for FlowStream {
    type Item = FlowOp;

    fn next(&mut self) -> Option<FlowOp> {
        if self.block.is_empty() {
            self.refill();
        }
        self.block.pop()
    }
}

/// The endless `cluster_resume` stream: one unverified HPWL request per
/// round (the round's other four operations derive from it). Shuffled
/// blocks of 24 = 3 presets x 8 families, widths dealt per cell, fresh
/// scenario seed per round.
#[derive(Debug, Clone)]
pub struct RoundStream {
    rng: Rng,
    decks: Vec<Deck>,
    block: Vec<RunRequest>,
    next_seed: u64,
}

impl RoundStream {
    pub fn new(seed: u64) -> RoundStream {
        let mut rng = Rng::new(seed ^ 0xC105_7E50);
        let next_seed = rng.below(1 << 40);
        RoundStream {
            rng,
            decks: (0..24).map(|cell| Deck::new(FAMILIES[cell % 8])).collect(),
            block: Vec::new(),
            next_seed,
        }
    }
}

impl Iterator for RoundStream {
    type Item = RunRequest;

    fn next(&mut self) -> Option<RunRequest> {
        if self.block.is_empty() {
            for (cell, deck) in self.decks.iter_mut().enumerate() {
                self.next_seed += 1;
                self.block.push(RunRequest {
                    preset: PRESETS[cell / 8],
                    wire_model: WireModel::Hpwl,
                    verify: VerifyLevel::Off,
                    seed: self.next_seed,
                    workload: deck.deal(&mut self.rng),
                    deadline_ms: DEADLINE_MS,
                });
            }
            self.rng.shuffle(&mut self.block);
        }
        self.block.pop()
    }
}

/// Keys `serve_warm` prefills and then hits.
pub const WARM_KEYS: usize = 64;

/// The `serve_warm` working set: distinct cheap HPWL requests.
pub fn warm_keys(seed: u64) -> Vec<RunRequest> {
    RoundStream::new(seed ^ 0x5E2F_E000)
        .take(WARM_KEYS)
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmOp {
    /// `RUN` of working-set key `i` — an L1 hit.
    Hit(usize),
    Ping,
    Stats,
}

/// One connection's endless `serve_warm` stream: shuffled blocks of 20
/// holding 18 hits, one `PING` and one `STATS` (90/5/5 exactly).
#[derive(Debug, Clone)]
pub struct WarmStream {
    rng: Rng,
    block: Vec<WarmOp>,
}

impl WarmStream {
    pub fn new(seed: u64, connection: usize) -> WarmStream {
        WarmStream {
            rng: Rng::new(seed ^ 0x3A2D_0000 ^ ((connection as u64 + 1) << 48)),
            block: Vec::new(),
        }
    }
}

impl Iterator for WarmStream {
    type Item = WarmOp;

    fn next(&mut self) -> Option<WarmOp> {
        if self.block.is_empty() {
            self.block = (0..18)
                .map(|_| WarmOp::Hit(self.rng.below(WARM_KEYS as u64) as usize))
                .chain([WarmOp::Ping, WarmOp::Stats])
                .collect();
            self.rng.shuffle(&mut self.block);
        }
        self.block.pop()
    }
}

/// Designs `soc_ingest` exports in set-up and cycles through.
pub const SOC_POOL: usize = 2;

/// Generator seeds of the `soc_ingest` design pool.
pub fn soc_seeds(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0x50C_1263);
    (0..SOC_POOL).map(|_| rng.below(1 << 32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_streams_and_another_seed_differs() {
        let take = |seed| FlowStream::new(seed).take(200).collect::<Vec<_>>();
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));

        let rounds = |seed| RoundStream::new(seed).take(60).collect::<Vec<_>>();
        assert_eq!(rounds(7), rounds(7));
        assert_ne!(rounds(7), rounds(8));

        let warm = |seed, c| WarmStream::new(seed, c).take(100).collect::<Vec<_>>();
        assert_eq!(warm(7, 0), warm(7, 0));
        assert_ne!(warm(7, 0), warm(8, 0));
        assert_ne!(warm(7, 0), warm(7, 1), "connections get their own streams");

        assert_eq!(warm_keys(7), warm_keys(7));
        assert_ne!(warm_keys(7), warm_keys(8));
        assert_eq!(soc_seeds(7), soc_seeds(7));
        assert_ne!(soc_seeds(7), soc_seeds(8));
    }

    #[test]
    fn flow_stream_never_repeats_a_key_and_keeps_its_mix() {
        let ops: Vec<FlowOp> = FlowStream::new(DEFAULT_SEED).take(480).collect();
        let keys: HashSet<String> = ops.iter().map(|o| o.req.canonical_key()).collect();
        assert_eq!(keys.len(), ops.len());
        for block in ops.chunks(48) {
            let routed = block
                .iter()
                .filter(|o| o.req.wire_model == WireModel::Routed)
                .count();
            let closes = block.iter().filter(|o| o.kind == FlowKind::Close).count();
            assert_eq!((routed, closes), (24, 6));
            for o in block {
                let mult = matches!(o.req.workload, WorkloadSpec::ArrayMultiplier { .. });
                assert!(!(mult && o.req.verify == VerifyLevel::Full));
            }
        }
        let full = ops
            .iter()
            .filter(|o| o.req.verify == VerifyLevel::Full)
            .count();
        assert!(full > 40 && full <= 60, "about 1 in 8 is verified: {full}");
    }

    #[test]
    fn every_cell_is_dealt_every_width_before_any_repeats() {
        // 11 multiplier widths: in 11 blocks each of the 6 multiplier
        // cells must have seen 6..=16 exactly once, whatever the seed.
        for seed in [DEFAULT_SEED, 12] {
            let mut seen = std::collections::BTreeMap::new();
            for op in FlowStream::new(seed).take(48 * 11) {
                if let WorkloadSpec::ArrayMultiplier { width } = op.req.workload {
                    seen.entry((
                        op.req.preset.canonical(),
                        op.req.wire_model == WireModel::Routed,
                    ))
                    .or_insert_with(Vec::new)
                    .push(width);
                }
            }
            assert_eq!(seen.len(), 6);
            for widths in seen.values_mut() {
                widths.sort_unstable();
                assert_eq!(*widths, (6..=16).collect::<Vec<_>>());
            }
        }
        // Every HPWL cell closes once in 4 blocks; no routed cell ever does.
        let closes: Vec<FlowOp> = FlowStream::new(DEFAULT_SEED)
            .take(48 * 4)
            .filter(|o| o.kind == FlowKind::Close)
            .collect();
        assert!(closes.iter().all(|o| o.req.wire_model == WireModel::Hpwl));
        let cells: HashSet<(String, String)> = closes
            .iter()
            .map(|o| {
                let family = o.req.workload.canonical();
                let family = family.split('/').next().expect("name/width");
                (o.req.preset.canonical(), family.to_string())
            })
            .collect();
        assert_eq!((closes.len(), cells.len()), (24, 24));
    }

    #[test]
    fn warm_stream_is_ninety_five_five() {
        let ops: Vec<WarmOp> = WarmStream::new(DEFAULT_SEED, 0).take(200).collect();
        let pings = ops.iter().filter(|o| **o == WarmOp::Ping).count();
        let stats = ops.iter().filter(|o| **o == WarmOp::Stats).count();
        assert_eq!((pings, stats), (10, 10));
        let keys: HashSet<String> = warm_keys(DEFAULT_SEED)
            .iter()
            .map(RunRequest::canonical_key)
            .collect();
        assert_eq!(keys.len(), WARM_KEYS);
    }
}
