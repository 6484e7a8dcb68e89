//! The core [`Netlist`] representation: a cache-friendly arena.
//!
//! The storage layout is built for the hot traversals every downstream
//! engine runs (levelize, dirty-cone repropagation, maze-search net
//! iteration, miter strash):
//!
//! - **instances** are fixed-size 32-byte records with the common
//!   ≤[`INLINE_FANIN`]-pin fan-in stored inline; wider cells spill into
//!   one shared overflow arena, so walking fan-in never chases a
//!   per-instance heap `Vec`;
//! - **names** are 4-byte [`Symbol`]s into an append-only interner
//!   ([`crate::intern`]) instead of per-object `String`s;
//! - **sink lists** live in one flat CSR-style pool: each net owns a
//!   `{start, len, cap}` slot into a shared `Vec<Sink>`, maintained
//!   incrementally by the same mutation API the old per-net `Vec`s had
//!   (append preserves order; removal is `swap_remove` within the slot).
//!
//! The mutation API and its observable semantics — sink ordering,
//! [`Netlist::topo_order`]'s tie-breaking, error messages — are
//! unchanged from the pointer-heavy IR, which is what keeps the
//! bitwise-determinism goldens and the miter proofs pinned across the
//! migration.
//!
//! The netlist is also the one owner of its topological order: the
//! first [`Netlist::topo_order`] keeps what it sorts, every later call
//! (the timer's full propagations, the drive sweep, simulation) borrows
//! it, and every mutator that changes fan-in or sinks drops it.
//! [`Netlist::set_instance_cell`] keeps it: a drive swap leaves
//! connectivity alone.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use asicgap_cells::{CellFunction, CellId, Library};
use asicgap_tech::Ff;

use crate::error::NetlistError;
use crate::ids::{InstId, NetId};
use crate::intern::{NameTable, Symbol};

/// Fan-in pins stored inline in an instance record; wider cells spill
/// to the shared overflow arena. Every current library function is ≤4
/// inputs, so in practice the overflow arena stays empty.
pub const INLINE_FANIN: usize = 4;

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetDriver {
    /// Driven by primary input number `n` (index into [`Netlist::inputs`]).
    PrimaryInput(usize),
    /// Driven by the output of an instance.
    Instance(InstId),
}

// Packed driver encoding (one u32 per net): MSB set = primary input,
// all-ones = undriven, otherwise an instance id. Instance ids are
// guarded below 2^31 and input ordinals below 2^31 - 1 at minting time.
pub(crate) const DRIVER_NONE: u32 = u32::MAX;
pub(crate) const DRIVER_PI_BIT: u32 = 1 << 31;

#[inline]
pub(crate) fn pack_driver(d: NetDriver) -> u32 {
    match d {
        NetDriver::PrimaryInput(n) => DRIVER_PI_BIT | n as u32,
        NetDriver::Instance(i) => i.0,
    }
}

#[inline]
fn unpack_driver(raw: u32) -> Option<NetDriver> {
    if raw == DRIVER_NONE {
        None
    } else if raw & DRIVER_PI_BIT != 0 {
        Some(NetDriver::PrimaryInput((raw & !DRIVER_PI_BIT) as usize))
    } else {
        Some(NetDriver::Instance(InstId(raw)))
    }
}

/// A (instance, input-pin) pair fed by a net — 8 bytes, so a net's
/// sink run is a contiguous stripe of the shared pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sink {
    /// The consuming instance.
    pub inst: InstId,
    /// Which input pin of that instance (0-based).
    pub pin: u32,
}

/// Filler written into never-read pool padding (a slot's `len..cap`).
const SINK_PAD: Sink = Sink {
    inst: InstId(u32::MAX),
    pin: u32::MAX,
};

/// One net's run in the shared sink pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SinkSlot {
    pub(crate) start: u32,
    pub(crate) len: u32,
    pub(crate) cap: u32,
}

/// Net flag bits (one byte per net).
pub(crate) const FLAG_OUTPUT: u8 = 1;

/// One cell instance: 32 bytes, fan-in inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InstRecord {
    pub(crate) name: Symbol,
    pub(crate) cell: CellId,
    pub(crate) out: NetId,
    /// Inline fan-in pins. When `nfanin > INLINE_FANIN`, `fanin[0].0`
    /// is instead the start offset into the overflow arena.
    pub(crate) fanin: [NetId; INLINE_FANIN],
    pub(crate) function: CellFunction,
    pub(crate) nfanin: u8,
}

/// A mapped gate-level design: instances of library cells wired by nets.
///
/// Invariants maintained by the mutation API:
/// - every net has at most one driver;
/// - every instance's fan-in arity matches its function;
/// - sink slots are consistent with fan-in lists.
///
/// Use [`crate::NetlistBuilder`] for construction and
/// [`crate::validate`] for a full consistency check.
#[derive(Debug, Clone)]
pub struct Netlist {
    /// Design name.
    pub name: String,
    pub(crate) names: NameTable,
    // Nets, struct-of-arrays: all indexed by NetId.
    pub(crate) net_name: Vec<Symbol>,
    pub(crate) net_driver: Vec<u32>,
    pub(crate) net_flags: Vec<u8>,
    pub(crate) slots: Vec<SinkSlot>,
    // The shared sink pool plus its bookkeeping: `pool_dead` counts
    // abandoned (relocated-away) entries, `peak_pool` the high-water
    // length before any compaction.
    pub(crate) pool: Vec<Sink>,
    pub(crate) pool_dead: usize,
    pub(crate) peak_pool: usize,
    // Instances. `inst_seq` mirrors `function.is_sequential()` as a
    // one-byte column so traversal inner loops (levelize, dirty-cone
    // ripple) never touch the 32-byte records just to skip registers.
    pub(crate) insts: Vec<InstRecord>,
    pub(crate) inst_seq: Vec<u8>,
    pub(crate) fanin_overflow: Vec<NetId>,
    pub(crate) inputs: Vec<(String, NetId)>,
    pub(crate) outputs: Vec<(String, NetId)>,
    /// Filled by [`Netlist::topo_order`], taken by every structural
    /// mutator.
    pub(crate) order: KeptOrder,
}

/// [`Netlist::topo_order`]'s kept result. Derived state: it prints the
/// same filled or not, and no encoding or digest reads it.
#[derive(Clone, Default)]
pub(crate) struct KeptOrder(OnceLock<Vec<InstId>>);

impl fmt::Debug for KeptOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("KeptOrder")
    }
}

/// Read-only view of one net: a copyable `(netlist, id)` handle whose
/// accessors borrow from the netlist, so `netlist.net(id).sinks()`
/// outlives the handle itself.
#[derive(Debug, Clone, Copy)]
pub struct NetRef<'a> {
    nl: &'a Netlist,
    id: NetId,
}

impl<'a> NetRef<'a> {
    /// This net's id.
    pub fn id(self) -> NetId {
        self.id
    }

    /// Net name (unique within the netlist).
    pub fn name(self) -> &'a str {
        self.nl.names.resolve(self.nl.net_name[self.id.index()])
    }

    /// The driver, if connected yet.
    pub fn driver(self) -> Option<NetDriver> {
        unpack_driver(self.nl.net_driver[self.id.index()])
    }

    /// Consuming (instance, pin) pairs, in insertion order (removal is
    /// `swap_remove`, exactly as the per-net `Vec` IR behaved).
    pub fn sinks(self) -> &'a [Sink] {
        self.nl.sinks(self.id)
    }

    /// `true` if the net is listed as a primary output.
    pub fn is_output(self) -> bool {
        self.nl.net_flags[self.id.index()] & FLAG_OUTPUT != 0
    }
}

/// Read-only view of one instance (see [`NetRef`] for the pattern).
#[derive(Debug, Clone, Copy)]
pub struct InstRef<'a> {
    nl: &'a Netlist,
    id: InstId,
}

impl<'a> InstRef<'a> {
    /// This instance's id.
    pub fn id(self) -> InstId {
        self.id
    }

    /// Instance name (unique within the netlist).
    pub fn name(self) -> &'a str {
        self.nl.names.resolve(self.nl.insts[self.id.index()].name)
    }

    /// The library cell implementing this instance.
    pub fn cell(self) -> CellId {
        self.nl.insts[self.id.index()].cell
    }

    /// The cell's function (cached from the library for library-free
    /// graph algorithms; kept in sync by [`Netlist::set_instance_cell`]).
    pub fn function(self) -> CellFunction {
        self.nl.insts[self.id.index()].function
    }

    /// Input nets, in pin order.
    pub fn fanin(self) -> &'a [NetId] {
        self.nl.fanin(self.id)
    }

    /// Output net.
    pub fn out(self) -> NetId {
        self.nl.insts[self.id.index()].out
    }

    /// `true` for flip-flops and latches.
    pub fn is_sequential(self) -> bool {
        self.nl.inst_seq[self.id.index()] != 0
    }
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            names: NameTable::default(),
            net_name: Vec::new(),
            net_driver: Vec::new(),
            net_flags: Vec::new(),
            slots: Vec::new(),
            pool: Vec::new(),
            pool_dead: 0,
            peak_pool: 0,
            insts: Vec::new(),
            inst_seq: Vec::new(),
            fanin_overflow: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            order: KeptOrder::default(),
        }
    }

    /// Switches the name interner to hash-consing mode: repeated
    /// spellings share one interned name from here on. Generator netlists
    /// never repeat a name, so this stays off by default; the frontend
    /// turns it on for imported designs, where output nets are named
    /// after their driving instances and every spelling occurs twice.
    /// The lookup index is transient — [`Netlist::pack`] drops it.
    pub fn enable_name_dedup(&mut self) {
        self.names.enable_dedup();
    }

    /// Heap bytes held by the name interner (string arena + offsets) —
    /// what the frontend bench pins to show hash-consing paying off.
    pub fn name_table_bytes(&self) -> usize {
        self.names.heap_bytes()
    }

    /// Primary inputs as (name, net) pairs, in declaration order.
    pub fn inputs(&self) -> &[(String, NetId)] {
        &self.inputs
    }

    /// Primary outputs as (name, net) pairs, in declaration order.
    pub fn outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// Looks up a net.
    pub fn net(&self, id: NetId) -> NetRef<'_> {
        assert!(id.index() < self.net_name.len(), "{id} out of bounds");
        NetRef { nl: self, id }
    }

    /// Looks up an instance.
    pub fn instance(&self, id: InstId) -> InstRef<'_> {
        assert!(id.index() < self.insts.len(), "{id} out of bounds");
        InstRef { nl: self, id }
    }

    /// Iterates (id, net view).
    pub fn iter_nets(&self) -> impl Iterator<Item = (NetId, NetRef<'_>)> {
        (0..self.net_name.len()).map(move |i| {
            let id = NetId(i as u32);
            (id, NetRef { nl: self, id })
        })
    }

    /// Iterates (id, instance view).
    pub fn iter_instances(&self) -> impl Iterator<Item = (InstId, InstRef<'_>)> {
        (0..self.insts.len()).map(move |i| {
            let id = InstId(i as u32);
            (id, InstRef { nl: self, id })
        })
    }

    /// Number of cell instances.
    pub fn instance_count(&self) -> usize {
        self.insts.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.net_name.len()
    }

    /// Entries in the wide-cell fan-in overflow arena. Zero whenever
    /// every instance's fan-in fits inline (≤ [`INLINE_FANIN`] pins) —
    /// the scale-smoke gate pins this at 0 for the stock libraries.
    pub fn fanin_overflow_len(&self) -> usize {
        self.fanin_overflow.len()
    }

    /// Fan-in of `inst` in pin order — the hot-path accessor (one bounds
    /// check, contiguous memory, no view handle).
    #[inline]
    pub fn fanin(&self, inst: InstId) -> &[NetId] {
        let rec = &self.insts[inst.index()];
        let n = rec.nfanin as usize;
        if n <= INLINE_FANIN {
            &rec.fanin[..n]
        } else {
            let start = rec.fanin[0].0 as usize;
            &self.fanin_overflow[start..start + n]
        }
    }

    /// Sinks of `net` — the hot-path accessor: one contiguous stripe of
    /// the shared pool.
    #[inline]
    pub fn sinks(&self, net: NetId) -> &[Sink] {
        let s = self.slots[net.index()];
        &self.pool[s.start as usize..(s.start + s.len) as usize]
    }

    /// Driver of `net` (hot-path form of [`NetRef::driver`]).
    #[inline]
    pub fn driver(&self, net: NetId) -> Option<NetDriver> {
        unpack_driver(self.net_driver[net.index()])
    }

    /// `true` for flip-flops and latches — hot-path form of
    /// [`InstRef::is_sequential`], reading the dedicated one-byte column.
    #[inline]
    pub fn is_sequential(&self, inst: InstId) -> bool {
        self.inst_seq[inst.index()] != 0
    }

    /// Output net of `inst` (hot-path form of [`InstRef::out`]).
    #[inline]
    pub fn out(&self, inst: InstId) -> NetId {
        self.insts[inst.index()].out
    }

    fn net_name_string(&self, net: NetId) -> String {
        self.names.resolve(self.net_name[net.index()]).to_string()
    }

    /// Adds a fresh, undriven net.
    ///
    /// # Panics
    ///
    /// Panics at the 2³²−1 net boundary (the id space is `u32`).
    pub fn add_net(&mut self, name: impl AsRef<str>) -> NetId {
        let raw = u32::try_from(self.net_name.len()).expect("net count fits in u32");
        assert!(raw < u32::MAX, "netlist holds at most 2^32 - 1 nets");
        let sym = self.names.intern(name.as_ref());
        self.net_name.push(sym);
        self.net_driver.push(DRIVER_NONE);
        self.net_flags.push(0);
        self.slots.push(SinkSlot::default());
        NetId(raw)
    }

    /// Declares `net` to be primary input number `inputs().len()`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MultipleDrivers`] if the net is already
    /// driven.
    pub fn add_input(&mut self, name: impl Into<String>, net: NetId) -> Result<(), NetlistError> {
        if self.net_driver[net.index()] != DRIVER_NONE {
            return Err(NetlistError::MultipleDrivers {
                net: self.net_name_string(net),
            });
        }
        let idx = self.inputs.len();
        assert!(
            (idx as u64) < u64::from(DRIVER_PI_BIT) - 1,
            "primary-input ordinal fits the packed driver encoding"
        );
        self.net_driver[net.index()] = pack_driver(NetDriver::PrimaryInput(idx));
        self.inputs.push((name.into(), net));
        Ok(())
    }

    /// Declares `net` to be a primary output.
    pub fn add_output(&mut self, name: impl Into<String>, net: NetId) {
        self.net_flags[net.index()] |= FLAG_OUTPUT;
        self.outputs.push((name.into(), net));
    }

    /// Adds an instance of `cell` (looked up in `lib`) driving `out`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] if `fanin` does not match the
    /// cell's input count, or [`NetlistError::MultipleDrivers`] if `out`
    /// already has a driver.
    ///
    /// # Panics
    ///
    /// Panics at the 2³¹ instance boundary (instance ids share the
    /// packed driver encoding's value space).
    pub fn add_instance(
        &mut self,
        name: impl AsRef<str>,
        lib: &Library,
        cell: CellId,
        fanin: &[NetId],
        out: NetId,
    ) -> Result<InstId, NetlistError> {
        let libcell = lib.cell(cell);
        if fanin.len() != libcell.function.num_inputs() {
            return Err(NetlistError::ArityMismatch {
                cell: libcell.name.clone(),
                expected: libcell.function.num_inputs(),
                got: fanin.len(),
            });
        }
        if self.net_driver[out.index()] != DRIVER_NONE {
            return Err(NetlistError::MultipleDrivers {
                net: self.net_name_string(out),
            });
        }
        self.order.0.take();
        let raw = u32::try_from(self.insts.len()).expect("instance count fits in u32");
        assert!(
            raw < DRIVER_PI_BIT,
            "netlist holds at most 2^31 instances (packed driver encoding)"
        );
        let id = InstId(raw);
        let sym = self.names.intern(name.as_ref());
        let mut inline = [NetId(u32::MAX); INLINE_FANIN];
        let nfanin = u8::try_from(fanin.len()).expect("cell arity fits in u8");
        if fanin.len() <= INLINE_FANIN {
            inline[..fanin.len()].copy_from_slice(fanin);
        } else {
            let start = u32::try_from(self.fanin_overflow.len()).expect("overflow arena < 2^32");
            self.fanin_overflow.extend_from_slice(fanin);
            inline[0] = NetId(start);
        }
        self.insts.push(InstRecord {
            name: sym,
            cell,
            out,
            fanin: inline,
            function: libcell.function,
            nfanin,
        });
        self.inst_seq
            .push(u8::from(libcell.function.is_sequential()));
        self.net_driver[out.index()] = pack_driver(NetDriver::Instance(id));
        for (pin, &net) in fanin.iter().enumerate() {
            self.push_sink(
                net,
                Sink {
                    inst: id,
                    pin: pin as u32,
                },
            );
        }
        Ok(id)
    }

    /// Re-implements `inst` with a different library cell of the **same
    /// function** (drive-strength change). Used by sizing and drive
    /// selection. Connectivity is untouched, so the kept topological
    /// order stays.
    ///
    /// # Panics
    ///
    /// Panics if the new cell's function differs from the instance's
    /// current function — that would silently change logic behaviour.
    pub fn set_instance_cell(&mut self, lib: &Library, inst: InstId, cell: CellId) {
        let new_fn = lib.cell(cell).function;
        let old_fn = self.insts[inst.index()].function;
        assert_eq!(
            new_fn, old_fn,
            "set_instance_cell may only change drive, not function ({old_fn} -> {new_fn})"
        );
        self.insts[inst.index()].cell = cell;
    }

    /// Moves one sink (`inst`, `pin`) from its current net onto `new_net`.
    /// Used by buffering and pipelining transformations.
    ///
    /// # Panics
    ///
    /// Panics if (`inst`, `pin`) is not currently a sink of the net it
    /// claims to be on (internal inconsistency).
    pub fn redirect_sink(&mut self, inst: InstId, pin: usize, new_net: NetId) {
        self.order.0.take();
        let old_net = self.fanin(inst)[pin];
        self.remove_sink(old_net, inst, pin as u32);
        self.set_fanin_pin(inst, pin, new_net);
        self.push_sink(
            new_net,
            Sink {
                inst,
                pin: pin as u32,
            },
        );
    }

    /// Overwrites one fan-in pin (inline or overflow).
    fn set_fanin_pin(&mut self, inst: InstId, pin: usize, net: NetId) {
        let rec = &mut self.insts[inst.index()];
        let n = rec.nfanin as usize;
        assert!(pin < n, "pin {pin} out of range for {n}-input instance");
        if n <= INLINE_FANIN {
            rec.fanin[pin] = net;
        } else {
            let start = rec.fanin[0].0 as usize;
            self.fanin_overflow[start + pin] = net;
        }
    }

    /// Appends a sink to `net`'s slot, relocating the slot to the end of
    /// the pool (doubling its capacity) when full — amortized O(1), and
    /// order-preserving, so sink sequences match the per-net `Vec` IR
    /// push for push.
    fn push_sink(&mut self, net: NetId, sink: Sink) {
        let mut slot = self.slots[net.index()];
        if slot.len == slot.cap {
            // Compact first when relocations have abandoned more than
            // half the pool (deterministic: a pure function of the
            // mutation sequence).
            if self.pool_dead > self.pool.len() / 2 && self.pool.len() > 4096 {
                self.compact_sinks();
                slot = self.slots[net.index()];
            }
            let new_cap = (slot.cap * 2).max(2);
            let new_start = u32::try_from(self.pool.len()).expect("sink pool fits in u32");
            for k in 0..slot.len {
                let s = self.pool[(slot.start + k) as usize];
                self.pool.push(s);
            }
            for _ in slot.len..new_cap {
                self.pool.push(SINK_PAD);
            }
            self.pool_dead += slot.cap as usize;
            slot = SinkSlot {
                start: new_start,
                len: slot.len,
                cap: new_cap,
            };
        }
        self.pool[(slot.start + slot.len) as usize] = sink;
        slot.len += 1;
        self.slots[net.index()] = slot;
        self.peak_pool = self.peak_pool.max(self.pool.len());
    }

    /// Removes sink (`inst`, `pin`) from `net`'s slot with
    /// `swap_remove` semantics (the last sink takes its place) —
    /// exactly what the per-net `Vec` IR did, which downstream
    /// iteration order depends on.
    fn remove_sink(&mut self, net: NetId, inst: InstId, pin: u32) {
        let slot = self.slots[net.index()];
        let run = &mut self.pool[slot.start as usize..(slot.start + slot.len) as usize];
        let pos = run
            .iter()
            .position(|s| s.inst == inst && s.pin == pin)
            .expect("sink list consistent with fanin list");
        run[pos] = run[slot.len as usize - 1];
        run[slot.len as usize - 1] = SINK_PAD;
        self.slots[net.index()].len -= 1;
    }

    /// Rebuilds the sink pool exact-fit in net order, dropping the holes
    /// that slot relocation leaves behind. Order within each net is
    /// preserved. Called automatically when the pool is mostly dead, and
    /// by [`crate::NetlistBuilder::finish`] for a tight final layout.
    pub fn compact_sinks(&mut self) {
        self.order.0.take();
        let live: usize = self.slots.iter().map(|s| s.len as usize).sum();
        let mut new_pool = Vec::with_capacity(live);
        for slot in &mut self.slots {
            let start = new_pool.len() as u32;
            new_pool.extend_from_slice(
                &self.pool[slot.start as usize..(slot.start + slot.len) as usize],
            );
            *slot = SinkSlot {
                start,
                len: slot.len,
                cap: slot.len,
            };
        }
        self.peak_pool = self.peak_pool.max(self.pool.len());
        self.pool = new_pool;
        self.pool_dead = 0;
    }

    /// Packs every arena to its minimal footprint: compacts the sink
    /// pool and releases excess capacity from all columns and the name
    /// table. [`crate::NetlistBuilder::finish`] calls this so finished
    /// netlists sit at their steady-state size; later mutation simply
    /// regrows from exact fit.
    pub fn pack(&mut self) {
        self.compact_sinks();
        self.names.shrink_to_fit();
        self.net_name.shrink_to_fit();
        self.net_driver.shrink_to_fit();
        self.net_flags.shrink_to_fit();
        self.slots.shrink_to_fit();
        self.pool.shrink_to_fit();
        self.insts.shrink_to_fit();
        self.inst_seq.shrink_to_fit();
        self.fanin_overflow.shrink_to_fit();
        self.inputs.shrink_to_fit();
        self.outputs.shrink_to_fit();
    }

    /// Total capacitive load on `net`: the input capacitance of every sink
    /// pin plus `wire_cap` (from placement back-annotation; pass
    /// [`Ff::ZERO`] pre-layout).
    pub fn net_load(&self, lib: &Library, net: NetId, wire_cap: Ff) -> Ff {
        let mut load = wire_cap;
        for s in self.sinks(net) {
            load += lib.cell(self.insts[s.inst.index()].cell).input_cap;
        }
        load
    }

    /// Topological order of **combinational** instances (sequential
    /// elements are cut: their outputs are treated as sources and their D
    /// pins as endpoints). Sequential instances are not included.
    ///
    /// The first call sorts and keeps the result; later calls borrow it
    /// until a structural mutator drops it (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if combinational logic
    /// forms a cycle (nothing is kept then).
    pub fn topo_order(&self) -> Result<&[InstId], NetlistError> {
        if let Some(order) = self.order.0.get() {
            return Ok(order);
        }
        let order = self.sort()?;
        Ok(self.order.0.get_or_init(|| order))
    }

    /// A fresh topological sort: Kahn's algorithm, popping the ready
    /// stack from its end.
    fn sort(&self) -> Result<Vec<InstId>, NetlistError> {
        // In-degree counts only combinational predecessors.
        let mut indeg = vec![0usize; self.insts.len()];
        for (i, rec) in self.insts.iter().enumerate() {
            if rec.function.is_sequential() {
                continue;
            }
            for &f in self.fanin(InstId(i as u32)) {
                if let Some(NetDriver::Instance(src)) = self.driver(f) {
                    if !self.insts[src.index()].function.is_sequential() {
                        indeg[i] += 1;
                    }
                }
            }
        }
        let mut queue: Vec<InstId> = self
            .insts
            .iter()
            .enumerate()
            .filter(|(i, rec)| !rec.function.is_sequential() && indeg[*i] == 0)
            .map(|(i, _)| InstId(i as u32))
            .collect();
        let mut order = Vec::with_capacity(self.insts.len());
        while let Some(id) = queue.pop() {
            order.push(id);
            let out = self.insts[id.index()].out;
            for s in self.sinks(out) {
                let tgt = &self.insts[s.inst.index()];
                if tgt.function.is_sequential() {
                    continue;
                }
                indeg[s.inst.index()] -= 1;
                if indeg[s.inst.index()] == 0 {
                    queue.push(s.inst);
                }
            }
        }
        let comb_total = self
            .insts
            .iter()
            .filter(|r| !r.function.is_sequential())
            .count();
        if order.len() != comb_total {
            // Find a net on the cycle for the error message.
            let on_cycle = self
                .insts
                .iter()
                .enumerate()
                .find(|(i, rec)| !rec.function.is_sequential() && indeg[*i] > 0)
                .map(|(_, rec)| self.net_name_string(rec.out))
                .unwrap_or_default();
            return Err(NetlistError::CombinationalCycle { net: on_cycle });
        }
        Ok(order)
    }

    /// Builds a name → [`NetId`] map (for tests and I/O helpers).
    pub fn net_names(&self) -> HashMap<String, NetId> {
        self.iter_nets()
            .map(|(id, n)| (n.name().to_string(), id))
            .collect()
    }

    /// Total cell area in µm².
    pub fn total_area_um2(&self, lib: &Library) -> f64 {
        self.insts.iter().map(|i| lib.cell(i.cell).area_um2).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use asicgap_cells::{CellFunction, LibrarySpec};
    use asicgap_tech::{Rng64, Technology};

    fn lib() -> Library {
        LibrarySpec::rich().build(&Technology::cmos025_asic())
    }

    fn nand2(lib: &Library) -> CellId {
        lib.smallest(CellFunction::Nand(2)).expect("nand2 exists")
    }

    #[test]
    fn add_instance_wires_sinks() {
        let lib = lib();
        let mut n = Netlist::new("t");
        let a = n.add_net("a");
        let b = n.add_net("b");
        let y = n.add_net("y");
        n.add_input("a", a).expect("fresh net");
        n.add_input("b", b).expect("fresh net");
        let g = n
            .add_instance("g1", &lib, nand2(&lib), &[a, b], y)
            .expect("valid instance");
        assert_eq!(n.net(y).driver(), Some(NetDriver::Instance(g)));
        assert_eq!(n.net(a).sinks(), &[Sink { inst: g, pin: 0 }]);
        assert_eq!(n.net(a).name(), "a");
        assert_eq!(n.instance(g).name(), "g1");
        assert_eq!(n.instance(g).fanin(), &[a, b]);
    }

    #[test]
    fn double_drive_rejected() {
        let lib = lib();
        let mut n = Netlist::new("t");
        let a = n.add_net("a");
        let b = n.add_net("b");
        let y = n.add_net("y");
        n.add_input("a", a).expect("fresh net");
        n.add_input("b", b).expect("fresh net");
        n.add_instance("g1", &lib, nand2(&lib), &[a, b], y)
            .expect("first driver ok");
        let err = n
            .add_instance("g2", &lib, nand2(&lib), &[a, b], y)
            .unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers { .. }));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let lib = lib();
        let mut n = Netlist::new("t");
        let a = n.add_net("a");
        let y = n.add_net("y");
        let err = n
            .add_instance("g1", &lib, nand2(&lib), &[a], y)
            .unwrap_err();
        assert!(matches!(err, NetlistError::ArityMismatch { .. }));
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let lib = lib();
        let mut n = Netlist::new("chain");
        let a = n.add_net("a");
        n.add_input("a", a).expect("fresh net");
        let inv = lib.smallest(CellFunction::Inv).expect("inv exists");
        let mut prev = a;
        let mut ids = Vec::new();
        for i in 0..5 {
            let out = n.add_net(format!("n{i}"));
            let g = n
                .add_instance(format!("g{i}"), &lib, inv, &[prev], out)
                .expect("chain instance");
            ids.push(g);
            prev = out;
        }
        let order = n.topo_order().expect("acyclic");
        let pos: HashMap<InstId, usize> = order.iter().enumerate().map(|(p, &i)| (i, p)).collect();
        for w in ids.windows(2) {
            assert!(pos[&w[0]] < pos[&w[1]]);
        }
    }

    #[test]
    fn cycle_detected() {
        let lib = lib();
        let mut n = Netlist::new("cycle");
        let x = n.add_net("x");
        let y = n.add_net("y");
        n.add_instance(
            "g1",
            &lib,
            lib.smallest(CellFunction::Inv).expect("inv"),
            &[x],
            y,
        )
        .expect("g1 ok");
        n.add_instance(
            "g2",
            &lib,
            lib.smallest(CellFunction::Inv).expect("inv"),
            &[y],
            x,
        )
        .expect("g2 ok");
        assert!(matches!(
            n.topo_order(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn sequential_cuts_cycles() {
        let lib = lib();
        let mut n = Netlist::new("seq-loop");
        let q = n.add_net("q");
        let d = n.add_net("d");
        let inv = lib.smallest(CellFunction::Inv).expect("inv");
        let dff = lib.smallest(CellFunction::Dff).expect("dff");
        // q = DFF(d); d = !q — a toggle flop. Legal because the FF cuts it.
        n.add_instance("ff", &lib, dff, &[d], q).expect("ff ok");
        n.add_instance("g", &lib, inv, &[q], d).expect("inv ok");
        let order = n.topo_order().expect("flop cuts the loop");
        assert_eq!(order.len(), 1);
    }

    #[test]
    fn redirect_sink_moves_load() {
        let lib = lib();
        let mut n = Netlist::new("t");
        let a = n.add_net("a");
        let b = n.add_net("b");
        let y = n.add_net("y");
        let z = n.add_net("z");
        n.add_input("a", a).expect("fresh net");
        n.add_input("b", b).expect("fresh net");
        let g = n
            .add_instance("g1", &lib, nand2(&lib), &[a, b], y)
            .expect("instance ok");
        n.redirect_sink(g, 1, z);
        assert!(n.net(b).sinks().is_empty());
        assert_eq!(n.net(z).sinks(), &[Sink { inst: g, pin: 1 }]);
        assert_eq!(n.instance(g).fanin()[1], z);
        let _ = y;
    }

    #[test]
    #[should_panic(expected = "may only change drive")]
    fn set_instance_cell_rejects_function_change() {
        let lib = lib();
        let mut n = Netlist::new("t");
        let a = n.add_net("a");
        let b = n.add_net("b");
        let y = n.add_net("y");
        n.add_input("a", a).expect("fresh net");
        n.add_input("b", b).expect("fresh net");
        let g = n
            .add_instance("g1", &lib, nand2(&lib), &[a, b], y)
            .expect("instance ok");
        let nor = lib.smallest(CellFunction::Nor(2)).expect("nor2");
        n.set_instance_cell(&lib, g, nor);
    }

    #[test]
    fn instance_records_stay_compact() {
        // The whole point of the arena: 32-byte instance records and
        // 8-byte sinks. A regression here silently gives back the
        // memory the refactor bought.
        assert_eq!(std::mem::size_of::<InstRecord>(), 32);
        assert_eq!(std::mem::size_of::<Sink>(), 8);
        assert_eq!(std::mem::size_of::<SinkSlot>(), 12);
    }

    #[test]
    fn sink_slots_survive_heavy_fanout_growth() {
        // One net fanning out to many sinks forces repeated slot
        // relocation (and eventually pool compaction); order must stay
        // append order throughout.
        let lib = lib();
        let mut n = Netlist::new("fanout");
        let src = n.add_net("src");
        n.add_input("src", src).expect("fresh net");
        let inv = lib.smallest(CellFunction::Inv).expect("inv");
        let mut gates = Vec::new();
        for i in 0..300 {
            let out = n.add_net(format!("o{i}"));
            gates.push(
                n.add_instance(format!("g{i}"), &lib, inv, &[src], out)
                    .expect("inv ok"),
            );
        }
        let sinks = n.net(src).sinks();
        assert_eq!(sinks.len(), 300);
        for (i, s) in sinks.iter().enumerate() {
            assert_eq!(s.inst, gates[i], "append order preserved");
            assert_eq!(s.pin, 0);
        }
        n.compact_sinks();
        assert_eq!(n.net(src).sinks().len(), 300);
        assert_eq!(n.net(src).sinks()[299].inst, gates[299]);
    }

    #[test]
    fn redirect_matches_vec_swap_remove_semantics() {
        // Three sinks a,b,c on one net; removing a must leave [c,b] —
        // exactly what Vec::swap_remove produced in the old IR.
        let lib = lib();
        let mut n = Netlist::new("t");
        let src = n.add_net("src");
        let alt = n.add_net("alt");
        n.add_input("src", src).expect("fresh net");
        let inv = lib.smallest(CellFunction::Inv).expect("inv");
        let mut gs = Vec::new();
        for i in 0..3 {
            let out = n.add_net(format!("o{i}"));
            gs.push(
                n.add_instance(format!("g{i}"), &lib, inv, &[src], out)
                    .expect("inv ok"),
            );
        }
        n.redirect_sink(gs[0], 0, alt);
        let left: Vec<InstId> = n.net(src).sinks().iter().map(|s| s.inst).collect();
        assert_eq!(left, vec![gs[2], gs[1]]);
    }

    fn order_is_kept(n: &Netlist) -> bool {
        n.order.0.get().is_some()
    }

    /// Asserts `order` lists every combinational instance of `n` once,
    /// each after the combinational drivers of its fan-in.
    fn assert_topological(n: &Netlist, order: &[InstId]) {
        let mut pos = vec![usize::MAX; n.instance_count()];
        for (p, id) in order.iter().enumerate() {
            assert_eq!(pos[id.index()], usize::MAX, "{id} listed twice");
            pos[id.index()] = p;
        }
        for (id, inst) in n.iter_instances() {
            assert_eq!(inst.is_sequential(), pos[id.index()] == usize::MAX);
            if inst.is_sequential() {
                continue;
            }
            for &net in inst.fanin() {
                if let Some(NetDriver::Instance(src)) = n.driver(net) {
                    if !n.is_sequential(src) {
                        assert!(pos[src.index()] < pos[id.index()], "{src} after {id}");
                    }
                }
            }
        }
    }

    #[test]
    fn cell_swaps_keep_the_order() {
        let lib = lib();
        let mut n = generators::array_multiplier(&lib, 6).expect("mult6");
        let fresh = n.sort().expect("acyclic");
        let kept = n.topo_order().expect("acyclic").as_ptr();
        // A burst of drive swaps sorts nothing again: the timer's full
        // propagations and the drive sweep read this same allocation.
        let ids: Vec<InstId> = n.iter_instances().map(|(id, _)| id).collect();
        for id in ids.iter().step_by(3) {
            let cell = n.instance(*id).cell();
            n.set_instance_cell(&lib, *id, lib.closest_drive(cell, 8.0));
        }
        assert_eq!(n.topo_order().expect("acyclic").as_ptr(), kept);
        assert_eq!(n.topo_order().expect("acyclic"), fresh);
        // A copy carries the order with it.
        assert_eq!(n.clone().topo_order().expect("acyclic"), fresh);
    }

    #[test]
    fn structural_edits_drop_the_order_and_the_next_call_resorts() {
        let lib = lib();
        let mut n = generators::parity_tree(&lib, 16).expect("parity");
        n.topo_order().expect("acyclic");
        // Split the heaviest net: one sink moves behind a new buffer.
        let (net, sink) = n
            .iter_nets()
            .max_by_key(|(_, net)| net.sinks().len())
            .map(|(id, net)| (id, net.sinks()[0]))
            .expect("has nets");
        let buffered = n.add_net("buffered");
        let buf = lib.smallest(CellFunction::Buf).expect("buf cell");
        let inst = n
            .add_instance("buf", &lib, buf, &[net], buffered)
            .expect("buffer fits");
        assert!(!order_is_kept(&n), "adding an instance drops the order");
        n.topo_order().expect("acyclic");
        n.redirect_sink(sink.inst, sink.pin as usize, buffered);
        assert!(!order_is_kept(&n), "moving a sink drops the order");
        let order = n.topo_order().expect("acyclic").to_vec();
        assert_eq!(order, n.sort().expect("acyclic"));
        assert!(order.contains(&inst));
        assert_topological(&n, &order);
    }

    /// Random sequences of every mutator, the order queried after each
    /// step: it is always a fresh sort's and topological, a drive swap
    /// keeps the very allocation, a structural edit drops it, and `Debug`
    /// never shows it. Instances read only nets driven by lower ids
    /// (or by registers and inputs), so the netlist stays acyclic.
    #[test]
    fn kept_order_follows_random_mutator_sequences() {
        let lib = lib();
        let cell = |f| lib.smallest(f).expect("rich library cell");
        let comb = [
            cell(CellFunction::Inv),
            cell(CellFunction::Nand(2)),
            cell(CellFunction::Nor(2)),
            cell(CellFunction::Buf),
        ];
        let dff = cell(CellFunction::Dff);
        let mut steps = [0usize; 9];
        for seed in 0..40u64 {
            let mut rng = Rng64::new(seed);
            let mut n = Netlist::new("random");
            let a = n.add_net("a");
            n.add_input("a", a).expect("fresh net");
            for step in 0..120 {
                let debug = format!("{n:?}");
                let kept = n.topo_order().expect("acyclic").as_ptr();
                assert_eq!(format!("{n:?}"), debug, "Debug shows the kept order");
                let nets = n.net_count() as u64;
                // A net an instance with id `limit` may read: undriven, an
                // input, a register's, or driven below `limit`.
                let readable = |n: &Netlist, rng: &mut Rng64, limit: usize| loop {
                    let net = NetId(rng.below(nets) as u32);
                    match n.driver(net) {
                        Some(NetDriver::Instance(src))
                            if src.index() >= limit && !n.is_sequential(src) => {}
                        _ => break net,
                    }
                };
                let insts = n.instance_count();
                let kind = rng.index(9);
                let structural = match kind {
                    0 => {
                        n.add_net(format!("n{step}"));
                        false
                    }
                    1 => {
                        let net = n.add_net(format!("i{step}"));
                        n.add_input(format!("i{step}"), net).expect("fresh net");
                        false
                    }
                    2 => {
                        let net = readable(&n, &mut rng, insts);
                        n.add_output(format!("o{step}"), net);
                        false
                    }
                    3 | 4 => {
                        let (c, is_reg) = if rng.index(5) == 0 {
                            (dff, true)
                        } else {
                            (comb[rng.index(comb.len())], false)
                        };
                        let fanin: Vec<NetId> = (0..lib.cell(c).function.num_inputs())
                            .map(|_| {
                                if is_reg {
                                    NetId(rng.below(nets) as u32)
                                } else {
                                    readable(&n, &mut rng, insts)
                                }
                            })
                            .collect();
                        let out = n.add_net(format!("y{step}"));
                        n.add_instance(format!("g{step}"), &lib, c, &fanin, out)
                            .expect("fresh output net");
                        true
                    }
                    5 if insts > 0 => {
                        let id = InstId(rng.index(insts) as u32);
                        let menu = lib.menu(n.instance(id).cell());
                        n.set_instance_cell(&lib, id, menu[rng.index(menu.len())]);
                        assert_eq!(n.order.0.get().map(|o| o.as_ptr()), Some(kept));
                        false
                    }
                    6 if insts > 0 => {
                        let id = InstId(rng.index(insts) as u32);
                        let pin = rng.index(n.fanin(id).len());
                        let net = if n.is_sequential(id) {
                            NetId(rng.below(nets) as u32)
                        } else {
                            readable(&n, &mut rng, id.index())
                        };
                        n.redirect_sink(id, pin, net);
                        true
                    }
                    7 => {
                        n.compact_sinks();
                        true
                    }
                    8 => {
                        n.pack();
                        true
                    }
                    _ => false,
                };
                steps[kind] += 1;
                if structural {
                    assert!(
                        !order_is_kept(&n),
                        "seed {seed} step {step}: kind {kind} kept it"
                    );
                } else if kind != 5 {
                    assert_eq!(n.order.0.get().map(|o| o.as_ptr()), Some(kept));
                }
                let order = n.topo_order().expect("acyclic").to_vec();
                assert_eq!(order, n.sort().expect("acyclic"), "seed {seed} step {step}");
                assert_topological(&n, &order);
            }
        }
        assert!(
            steps.iter().all(|&k| k > 100),
            "every mutator ran: {steps:?}"
        );
    }
}
