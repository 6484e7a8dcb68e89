//! Append-only string interner backing net and instance names.
//!
//! Names are write-once identifiers: the mutation API never renames a
//! net or an instance, so the interner is a bump arena — one shared
//! `Vec<u8>` of UTF-8 bytes plus an end-offset table — and a name is a
//! 4-byte [`Symbol`] instead of a 24-byte `String` header plus its own
//! heap allocation. Hot traversals carry symbols; the bytes are only
//! touched when a report or an error message needs the spelling.
//!
//! Generator-built netlists mint every name exactly once, so the default
//! mode stores blindly. Imported designs are different: the frontend
//! names cell output nets after their driving instances (the EDA
//! convention), so whole strings repeat and [`NameTable::enable_dedup`]
//! turns on hash-consing — an identical spelling returns the existing
//! [`Symbol`] instead of growing the arena.

use std::fmt;

use asicgap_tech::fnv1a;

/// An interned name: an index into the owning netlist's name table.
///
/// Symbols are only meaningful against the [`Netlist`](crate::Netlist)
/// that minted them; resolve one through that netlist's accessors
/// (e.g. [`InstRef::name`](crate::InstRef::name)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct Symbol(pub(crate) u32);

impl Symbol {
    /// The raw table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// The dedup index: an open-addressing table over the name table's
/// own symbols, one entry per distinct spelling. A slot holds the
/// spelling's folded FNV-1a hash and its symbol plus one (zero marks a
/// free slot), so a probe settles most mismatches without touching the
/// bytes, growth re-seats entries without re-hashing them, and an entry
/// costs eight bytes and no allocation of its own — at SoC scale a
/// `HashMap` of per-hash `Vec`s was most of what lowering an imported
/// design cost.
#[derive(Debug, Clone)]
struct SeenIndex {
    /// `(hash, symbol + 1)`; the length is a power of two and at most
    /// half the slots are taken.
    slots: Vec<(u32, u32)>,
    len: usize,
}

impl SeenIndex {
    fn hash(name: &str) -> u32 {
        let h = fnv1a(name.as_bytes());
        (h ^ (h >> 32)) as u32
    }

    /// Looks `name` up: the symbol that carries it, or the free slot a
    /// new entry for it belongs in.
    fn probe(&self, names: &NameTable, name: &str, hash: u32) -> Result<Symbol, usize> {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let (tag, entry) = self.slots[at];
            if entry == 0 {
                return Err(at);
            }
            let sym = Symbol(entry - 1);
            if tag == hash && names.resolve(sym) == name {
                return Ok(sym);
            }
            at = (at + 1) & mask;
        }
    }

    /// Seats `sym` in the free slot `at` that [`SeenIndex::probe`]
    /// returned for `hash`.
    fn insert(&mut self, at: usize, hash: u32, sym: Symbol) {
        self.slots[at] = (hash, sym.0 + 1);
        self.len += 1;
        if self.len * 2 > self.slots.len() {
            let mask = self.slots.len() * 2 - 1;
            let old = std::mem::replace(&mut self.slots, vec![(0, 0); mask + 1]);
            for (tag, entry) in old.into_iter().filter(|&(_, entry)| entry != 0) {
                let mut at = tag as usize & mask;
                while self.slots[at].1 != 0 {
                    at = (at + 1) & mask;
                }
                self.slots[at] = (tag, entry);
            }
        }
    }
}

/// The arena itself: `bytes` holds every name back to back, `ends[i]`
/// is the exclusive end of symbol `i` (its start is `ends[i-1]`, or 0).
///
/// With dedup enabled, `seen` indexes the spellings stored so far; new
/// strings still append at the end, so the offset encoding is unchanged.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameTable {
    bytes: Vec<u8>,
    ends: Vec<u32>,
    seen: Option<SeenIndex>,
}

impl NameTable {
    /// Interns `name` and returns its symbol. Without dedup this is a
    /// blind append: generator netlists mint unique names by
    /// construction, so a lookup table would cost memory to save
    /// nothing. With [`NameTable::enable_dedup`] on, a repeated spelling
    /// returns the symbol that already carries it.
    pub(crate) fn intern(&mut self, name: &str) -> Symbol {
        let free = match &self.seen {
            Some(seen) => {
                let hash = SeenIndex::hash(name);
                match seen.probe(self, name, hash) {
                    Ok(sym) => return sym,
                    Err(at) => Some((at, hash)),
                }
            }
            None => None,
        };
        // One short of the full `u32` range: the index stores symbols
        // plus one.
        let sym = u32::try_from(self.ends.len())
            .ok()
            .filter(|&sym| sym < u32::MAX)
            .expect("name table holds < 2^32 - 1 names");
        self.bytes.extend_from_slice(name.as_bytes());
        let end = u32::try_from(self.bytes.len()).expect("name table holds < 4 GiB of names");
        self.ends.push(end);
        let sym = Symbol(sym);
        if let (Some((at, hash)), Some(seen)) = (free, &mut self.seen) {
            seen.insert(at, hash, sym);
        }
        sym
    }

    /// Room for `names` more names spelling `bytes` more bytes.
    pub(crate) fn reserve(&mut self, names: usize, bytes: usize) {
        self.ends.reserve(names);
        self.bytes.reserve(bytes);
    }

    /// Switches to hash-consing mode: from now on, interning a spelling
    /// already in the table returns its existing [`Symbol`]. Existing
    /// entries are indexed too (a spelling stored twice under its first
    /// symbol), so enabling late still dedups against everything stored
    /// so far. The index is dropped again by
    /// [`NameTable::shrink_to_fit`] (the end of the build phase).
    pub(crate) fn enable_dedup(&mut self) {
        if self.seen.is_some() {
            return;
        }
        let mut seen = SeenIndex {
            slots: vec![(0, 0); 1024],
            len: 0,
        };
        for i in 0..self.ends.len() {
            let sym = Symbol(u32::try_from(i).expect("indexed while building"));
            let name = self.resolve(sym);
            let hash = SeenIndex::hash(name);
            if let Err(at) = seen.probe(self, name, hash) {
                seen.insert(at, hash, sym);
            }
        }
        self.seen = Some(seen);
    }

    /// The spelling of `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` came from a different table.
    pub(crate) fn resolve(&self, sym: Symbol) -> &str {
        std::str::from_utf8(self.bytes_of(sym)).expect("interned names are valid UTF-8")
    }

    /// The bytes of `sym`'s spelling — [`NameTable::resolve`] for a
    /// caller that copies them on and has no use for the `str` check.
    pub(crate) fn bytes_of(&self, sym: Symbol) -> &[u8] {
        let i = sym.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.bytes[start..self.ends[i] as usize]
    }

    /// Total bytes of every spelling held.
    pub(crate) fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// The arena as stored: every spelling back to back, and where each
    /// ends.
    #[cfg(test)]
    pub(crate) fn raw(&self) -> (&[u8], &[u32]) {
        (&self.bytes, &self.ends)
    }

    /// Releases spare capacity after the build phase settles. Also drops
    /// the dedup index, if any: lookups stop at pack time, so the index
    /// is pure overhead from here on.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.seen = None;
    }

    /// Heap bytes held by the table (string bytes + offset table; the
    /// transient dedup index is excluded — it does not survive
    /// [`NameTable::shrink_to_fit`]).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.bytes.capacity() + self.ends.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_and_resolve_round_trip() {
        let mut t = NameTable::default();
        let a = t.intern("alpha");
        let empty = t.intern("");
        let b = t.intern("b");
        assert_eq!(t.resolve(a), "alpha");
        assert_eq!(t.resolve(empty), "");
        assert_eq!(t.resolve(b), "b");
        assert_eq!(t.ends.len(), 3);
        assert_eq!(a.index(), 0);
        assert_eq!(b.to_string(), "sym#2");
    }

    #[test]
    fn no_dedup_means_distinct_symbols() {
        let mut t = NameTable::default();
        let x1 = t.intern("x");
        let x2 = t.intern("x");
        assert_ne!(x1, x2);
        assert_eq!(t.resolve(x1), t.resolve(x2));
    }

    #[test]
    fn dedup_returns_existing_symbols_and_saves_bytes() {
        let mut t = NameTable::default();
        let a = t.intern("core.alu.u17"); // before enabling: indexed late
        t.enable_dedup();
        let a2 = t.intern("core.alu.u17");
        assert_eq!(a, a2, "late enable still dedups prior entries");
        let b = t.intern("core.alu.u18");
        let b2 = t.intern("core.alu.u18");
        assert_eq!(b, b2);
        assert_ne!(a, b);
        assert_eq!(t.resolve(b), "core.alu.u18");
        assert_eq!(t.ends.len(), 2, "two spellings, two entries");
        // Fresh strings still append normally after hits.
        let c = t.intern("core.alu.u19");
        assert_eq!(t.resolve(c), "core.alu.u19");
        assert_eq!(t.ends.len(), 3);
    }

    #[test]
    fn dedup_survives_index_growth_and_prefers_the_first_copy() {
        let mut t = NameTable::default();
        let first = t.intern("twice");
        let second = t.intern("twice"); // stored before dedup: a true copy
        assert_ne!(first, second);
        t.enable_dedup();
        // Enough distinct names to double the index several times.
        let syms: Vec<Symbol> = (0..5000).map(|i| t.intern(&format!("n{i}"))).collect();
        assert_eq!(t.ends.len(), 5002);
        for (i, &sym) in syms.iter().enumerate() {
            assert_eq!(t.intern(&format!("n{i}")), sym, "n{i} after growth");
        }
        assert_eq!(t.intern("twice"), first);
        assert_eq!(t.ends.len(), 5002, "hits append nothing");
    }

    #[test]
    fn shrink_drops_the_dedup_index() {
        let mut t = NameTable::default();
        t.enable_dedup();
        let x1 = t.intern("x");
        t.shrink_to_fit();
        assert!(t.seen.is_none());
        // Back to append-only semantics after the build phase.
        let x2 = t.intern("x");
        assert_ne!(x1, x2);
    }
}
