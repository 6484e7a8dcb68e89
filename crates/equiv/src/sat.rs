//! A small, deterministic CDCL SAT solver.
//!
//! MiniSat-style architecture: two-watched-literal unit propagation,
//! first-UIP conflict analysis with non-chronological backjumping, VSIDS
//! variable activities, phase saving, and Luby-scheduled restarts. No
//! clause deletion (miter cones are small enough that the learnt database
//! never becomes the bottleneck) and no randomness anywhere — ties break
//! on the lowest variable index, so every solve is bit-for-bit
//! reproducible and the effort counters can be golden-pinned.

/// A SAT literal: `variable << 1 | negated`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct SatLit(u32);

impl SatLit {
    /// A literal over `var`, positive when `negated` is false.
    pub fn new(var: usize, negated: bool) -> SatLit {
        SatLit((var as u32) << 1 | negated as u32)
    }

    /// The variable index.
    pub fn var(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// `true` for a negated literal.
    pub fn is_negated(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complement literal.
    #[must_use]
    pub fn negate(self) -> SatLit {
        SatLit(self.0 ^ 1)
    }

    /// Dense index for watch lists.
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Solver effort counters, accumulated across the solver's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SatStats {
    /// Variables allocated.
    pub vars: usize,
    /// Clauses added (problem clauses, before learning).
    pub clauses: usize,
    /// Conflicts hit.
    pub conflicts: usize,
    /// Branching decisions made.
    pub decisions: usize,
    /// Literals propagated.
    pub propagations: usize,
    /// Restarts performed.
    pub restarts: usize,
}

/// The result of a solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SatOutcome {
    /// Satisfiable; the model assigns every variable.
    Sat(Vec<bool>),
    /// Proven unsatisfiable.
    Unsat,
}

const UNDEF: i8 = 0;

/// The solver. Create, [`Solver::new_var`] as needed,
/// [`Solver::add_clause`], then [`Solver::solve`].
#[derive(Debug, Default)]
pub(crate) struct Solver {
    /// Clause database; learnt clauses are appended after problem clauses.
    clauses: Vec<Vec<SatLit>>,
    /// Watch lists indexed by literal: clauses watching that literal.
    watches: Vec<Vec<u32>>,
    /// Assignment per variable: 0 undef, 1 true, -1 false.
    assign: Vec<i8>,
    /// Decision level per variable.
    level: Vec<u32>,
    /// Antecedent clause per variable (propagations only).
    reason: Vec<Option<u32>>,
    /// Assignment trail.
    trail: Vec<SatLit>,
    /// Trail index where each decision level starts.
    trail_lim: Vec<usize>,
    /// Propagation queue head into the trail.
    qhead: usize,
    /// VSIDS activity per variable.
    activity: Vec<f64>,
    /// Current activity increment.
    var_inc: f64,
    /// Saved phase per variable.
    phase: Vec<bool>,
    /// Set when the problem is unsatisfiable at level 0.
    root_conflict: bool,
    /// Effort counters.
    stats: SatStats,
    /// Scratch marker for conflict analysis.
    seen: Vec<bool>,
}

impl Solver {
    /// An empty solver.
    pub fn new() -> Solver {
        Solver {
            var_inc: 1.0,
            ..Solver::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> usize {
        let v = self.assign.len();
        self.assign.push(UNDEF);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.stats.vars += 1;
        v
    }

    /// Effort counters so far.
    pub fn stats(&self) -> &SatStats {
        &self.stats
    }

    fn value(&self, l: SatLit) -> i8 {
        let a = self.assign[l.var()];
        if l.is_negated() {
            -a
        } else {
            a
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause. Must be called before `solve`; duplicates and
    /// tautologies are simplified away. Returns `false` if the clause
    /// made the problem unsatisfiable at the root level.
    pub fn add_clause(&mut self, lits: &[SatLit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if self.root_conflict {
            return false;
        }
        self.stats.clauses += 1;
        // Sort, dedup, drop root-false literals, detect tautology/true.
        let mut c: Vec<SatLit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        let mut out = Vec::with_capacity(c.len());
        for &l in &c {
            if c.contains(&l.negate()) || self.value(l) == 1 {
                return true; // tautology or already satisfied at root
            }
            if self.value(l) == -1 {
                continue; // root-false literal drops out
            }
            out.push(l);
        }
        match out.len() {
            0 => {
                self.root_conflict = true;
                false
            }
            1 => {
                self.enqueue(out[0], None);
                if self.propagate().is_some() {
                    self.root_conflict = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                self.attach(out);
                true
            }
        }
    }

    fn attach(&mut self, c: Vec<SatLit>) -> u32 {
        let cref = self.clauses.len() as u32;
        self.watches[c[0].idx()].push(cref);
        self.watches[c[1].idx()].push(cref);
        self.clauses.push(c);
        cref
    }

    fn enqueue(&mut self, l: SatLit, from: Option<u32>) {
        debug_assert_eq!(self.value(l), UNDEF);
        self.assign[l.var()] = if l.is_negated() { -1 } else { 1 };
        self.level[l.var()] = self.decision_level();
        self.reason[l.var()] = from;
        self.phase[l.var()] = !l.is_negated();
        self.trail.push(l);
    }

    /// Two-watched-literal unit propagation. Returns the conflicting
    /// clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = p.negate();
            let mut ws = std::mem::take(&mut self.watches[false_lit.idx()]);
            let mut i = 0;
            'clauses: while i < ws.len() {
                let cref = ws[i];
                let ci = cref as usize;
                // Normalise: the false literal sits at position 1.
                if self.clauses[ci][0] == false_lit {
                    self.clauses[ci].swap(0, 1);
                }
                let first = self.clauses[ci][0];
                if self.value(first) == 1 {
                    i += 1;
                    continue;
                }
                // Look for a non-false replacement watch.
                for k in 2..self.clauses[ci].len() {
                    if self.value(self.clauses[ci][k]) != -1 {
                        self.clauses[ci].swap(1, k);
                        let new_watch = self.clauses[ci][1];
                        self.watches[new_watch.idx()].push(cref);
                        ws.swap_remove(i);
                        continue 'clauses;
                    }
                }
                // Clause is unit or conflicting.
                if self.value(first) == -1 {
                    self.watches[false_lit.idx()] = ws;
                    self.qhead = self.trail.len();
                    return Some(cref);
                }
                self.enqueue(first, Some(cref));
                i += 1;
            }
            self.watches[false_lit.idx()] = ws;
        }
        None
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, mut confl: u32) -> (Vec<SatLit>, u32) {
        let mut learnt: Vec<SatLit> = vec![SatLit::new(0, false)]; // slot 0 = UIP
        let mut counter = 0usize;
        let mut idx = self.trail.len();
        let mut resolving: Option<SatLit> = None;
        let mut cleanup: Vec<usize> = Vec::new();
        loop {
            let start = usize::from(resolving.is_some());
            for k in start..self.clauses[confl as usize].len() {
                let q = self.clauses[confl as usize][k];
                let v = q.var();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    cleanup.push(v);
                    self.bump(v);
                    if self.level[v] == self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail back to the next marked literal.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var()] {
                    break;
                }
            }
            let p = self.trail[idx];
            self.seen[p.var()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = p.negate();
                break;
            }
            confl = self.reason[p.var()].expect("non-UIP literals are propagations");
            resolving = Some(p);
        }
        for v in cleanup {
            self.seen[v] = false;
        }
        // Backjump to the second-highest level in the clause.
        let back = if learnt.len() == 1 {
            0
        } else {
            let mut best = 1;
            for k in 2..learnt.len() {
                if self.level[learnt[k].var()] > self.level[learnt[best].var()] {
                    best = k;
                }
            }
            learnt.swap(1, best);
            self.level[learnt[1].var()]
        };
        (learnt, back)
    }

    fn backtrack(&mut self, target: u32) {
        while self.decision_level() > target {
            let lim = self.trail_lim.pop().expect("level > 0 has a limit");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail extends past limit");
                self.assign[l.var()] = UNDEF;
                self.reason[l.var()] = None;
            }
        }
        self.qhead = self.trail.len();
    }

    /// Deterministic VSIDS branch: the unassigned variable with the
    /// highest activity, lowest index winning ties.
    fn pick_branch(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for v in 0..self.assign.len() {
            if self.assign[v] != UNDEF {
                continue;
            }
            match best {
                None => best = Some(v),
                Some(b) if self.activity[v] > self.activity[b] => best = Some(v),
                _ => {}
            }
        }
        best
    }

    /// Solves the current formula.
    pub fn solve(&mut self) -> SatOutcome {
        if self.root_conflict {
            return SatOutcome::Unsat;
        }
        if self.propagate().is_some() {
            self.root_conflict = true;
            return SatOutcome::Unsat;
        }
        let mut restart_round = 0u64;
        let mut conflicts_left = luby(restart_round) * 64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.root_conflict = true;
                    return SatOutcome::Unsat;
                }
                let (learnt, back) = self.analyze(confl);
                self.backtrack(back);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    self.enqueue(asserting, None);
                } else {
                    let cref = self.attach(learnt);
                    self.enqueue(asserting, Some(cref));
                }
                self.var_inc /= 0.95;
                conflicts_left = conflicts_left.saturating_sub(1);
            } else if conflicts_left == 0 && self.decision_level() > 0 {
                self.stats.restarts += 1;
                restart_round += 1;
                conflicts_left = luby(restart_round) * 64;
                self.backtrack(0);
            } else {
                match self.pick_branch() {
                    None => {
                        let model = self.assign.iter().map(|&a| a == 1).collect();
                        return SatOutcome::Sat(model);
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(SatLit::new(v, !self.phase[v]), None);
                    }
                }
            }
        }
    }
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, …
fn luby(i: u64) -> u64 {
    // Find the finite subsequence containing index i, then recurse into
    // it (iteratively): standard MiniSat formulation.
    let mut size = 1u64;
    let mut seq = 0u64;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut i = i;
    while size - 1 != i {
        size = (size - 1) >> 1;
        seq -= 1;
        i %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pos(v: usize) -> SatLit {
        SatLit::new(v, false)
    }
    fn neg(v: usize) -> SatLit {
        SatLit::new(v, true)
    }

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[pos(a)]));
        assert_eq!(s.solve(), SatOutcome::Sat(vec![true]));

        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[pos(a)]);
        assert!(!s.add_clause(&[neg(a)]));
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn xor_chain_is_sat_with_consistent_model() {
        // x0 ^ x1 = 1, x1 ^ x2 = 1, x2 ^ x0 = 0 — satisfiable.
        let mut s = Solver::new();
        let x: Vec<usize> = (0..3).map(|_| s.new_var()).collect();
        let xor1 = |s: &mut Solver, a: usize, b: usize| {
            s.add_clause(&[pos(a), pos(b)]);
            s.add_clause(&[neg(a), neg(b)]);
        };
        let xor0 = |s: &mut Solver, a: usize, b: usize| {
            s.add_clause(&[pos(a), neg(b)]);
            s.add_clause(&[neg(a), pos(b)]);
        };
        xor1(&mut s, x[0], x[1]);
        xor1(&mut s, x[1], x[2]);
        xor0(&mut s, x[2], x[0]);
        match s.solve() {
            SatOutcome::Sat(m) => {
                assert!(m[x[0]] ^ m[x[1]]);
                assert!(m[x[1]] ^ m[x[2]]);
                assert!(!(m[x[2]] ^ m[x[0]]));
            }
            SatOutcome::Unsat => panic!("should be satisfiable"),
        }
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // 3 pigeons, 2 holes: p[i][j] = pigeon i in hole j.
        let mut s = Solver::new();
        let mut p = [[0usize; 2]; 3];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[pos(row[0]), pos(row[1])]);
        }
        for i in 0..3 {
            for k in (i + 1)..3 {
                for (&a, &b) in p[i].iter().zip(&p[k]) {
                    s.add_clause(&[neg(a), neg(b)]);
                }
            }
        }
        assert_eq!(s.solve(), SatOutcome::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    /// Brute-force cross-check on small random 3-SAT instances: the CDCL
    /// verdict must match exhaustive enumeration on every instance.
    #[test]
    fn random_3sat_matches_brute_force() {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..40 {
            let n_vars = 6 + (rng() % 5) as usize; // 6..=10
            let n_clauses = (n_vars as f64 * 4.3) as usize;
            let clauses: Vec<Vec<SatLit>> = (0..n_clauses)
                .map(|_| {
                    (0..3)
                        .map(|_| SatLit::new((rng() % n_vars as u64) as usize, rng() & 1 == 1))
                        .collect()
                })
                .collect();
            // Brute force.
            let brute_sat = (0..1u32 << n_vars).any(|m| {
                clauses.iter().all(|c| {
                    c.iter()
                        .any(|l| ((m >> l.var()) & 1 == 1) != l.is_negated())
                })
            });
            // CDCL.
            let mut s = Solver::new();
            for _ in 0..n_vars {
                s.new_var();
            }
            for c in &clauses {
                s.add_clause(c);
            }
            match s.solve() {
                SatOutcome::Sat(m) => {
                    assert!(brute_sat, "round {round}: solver SAT, brute UNSAT");
                    for c in &clauses {
                        assert!(
                            c.iter().any(|l| m[l.var()] != l.is_negated()),
                            "round {round}: model violates a clause"
                        );
                    }
                }
                SatOutcome::Unsat => {
                    assert!(!brute_sat, "round {round}: solver UNSAT, brute SAT");
                }
            }
        }
    }

    #[test]
    fn solver_is_deterministic() {
        let build = || {
            let mut s = Solver::new();
            let v: Vec<usize> = (0..8).map(|_| s.new_var()).collect();
            for i in 0..7 {
                s.add_clause(&[pos(v[i]), pos(v[i + 1])]);
                s.add_clause(&[neg(v[i]), neg(v[i + 1])]);
            }
            s.add_clause(&[pos(v[0]), neg(v[7])]);
            let out = s.solve();
            (out, *s.stats())
        };
        assert_eq!(build(), build());
    }
}
