//! The validity index: deciding membership in the expanded assignment set
//! `𝒜 = {φ | ∃φ' ∈ 𝒜_valid, φ ≤ φ'}` (line 1 of Algorithm 1), where
//! `𝒜_valid` contains the SPARQL base assignments **and** all their
//! multiplicity combinations (Section 5, Proposition 5.1).
//!
//! A combination assigns a *set* of concrete values to each slot such that
//! every cross-product choice tuple is a valid base assignment. `φ ∈ 𝒜`
//! therefore holds iff each value of each slot can be *covered* by a
//! concrete valid value (a universe value above it in the order) such that
//! the covering tuples are simultaneously valid — which this module decides
//! by recursive search with intersection-filtered tuple sets.

// audit: allow-file(D4, assignment/level indexing is bounded by the vertical-domain sizes fixed at construction)
use crate::assignment::{value_leq, Assignment, Slot};
use oassis_ql::{BaseAssignment, BoundQuery, Multiplicity, Value};
use ontology::Vocabulary;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// Static information about one slot of the assignment DAG.
#[derive(Debug, Clone)]
pub struct SlotInfo {
    /// The SATISFYING variable this slot carries.
    pub var: oassis_ql::VarId,
    /// Its multiplicity.
    pub mult: Multiplicity,
    /// Whether it binds relations (predicate position).
    pub is_rel: bool,
    /// `true` when the WHERE clause does not constrain the variable: it
    /// then ranges over the entire vocabulary (how OASSIS-QL captures
    /// classic frequent itemset mining, Section 4.1).
    pub free: bool,
}

/// Index over the valid base assignments, answering membership in the
/// expanded set `𝒜` ([`admits`](ValidityIndex::admits)) and exact validity
/// ([`is_valid`](ValidityIndex::is_valid)).
///
/// The valid tuples are kept once, sorted and deduplicated, in one flat
/// row-major array; everything else — universes, per-column posting
/// lists, the lazily built cover bitsets, and the discovery-curve tracker
/// in [`crate::vertical`] — indexes into it by tuple position.
#[derive(Debug)]
pub struct ValidityIndex {
    slots: Vec<SlotInfo>,
    /// Indices (into `slots`) of WHERE-constrained slots.
    constrained: Vec<usize>,
    /// Valid tuples over the constrained slots (in `constrained` order),
    /// sorted and deduplicated, `constrained.len()` values per tuple.
    tuples: Vec<Value>,
    /// Number of tuples in `tuples` (kept apart: with no constrained slot
    /// a non-empty base set is one empty tuple).
    num_tuples: usize,
    /// Per slot: distinct concrete valid values (constrained slots) or all
    /// vocabulary values of the right kind (free slots), sorted.
    universes: Vec<Vec<Value>>,
    /// Per slot: universe plus all generalizations, sorted.
    closures: Vec<Vec<Value>>,
    /// Per slot: the minimal (most general) values of the closure.
    minimals: Vec<Vec<Value>>,
    /// Per constrained column: posting lists in CSR form. The tuples
    /// holding the value with key `k` in column `ci` are
    /// `post_tuples[ci][post_start[ci][k]..post_start[ci][k + 1]]`, in
    /// increasing order.
    post_start: Vec<Vec<u32>>,
    post_tuples: Vec<Vec<u32>>,
    /// Words per cover bitset: `num_tuples.div_ceil(64)`.
    stride: usize,
    /// Number of vocabulary elements — rel keys are offset past them.
    num_elems: usize,
    /// Dense value-key space: `num_elems + num_rels` (elems first).
    key_space: usize,
    /// Lazily memoized cover bitsets, flattened: `cover_off[ci][key(v)]`
    /// is the block index (×`stride`) into `cover_words` of the bitset
    /// with bit `t` set iff `v ≤ tuple(t)[ci]` — the fast path of
    /// [`Self::admits`]. `u32::MAX` = not built yet; columns allocate
    /// their key table on first use.
    cover_off: RefCell<Vec<Vec<u32>>>,
    /// Contiguous arena of all memoized cover bitsets, `stride` words
    /// per block.
    cover_words: RefCell<Vec<u64>>,
    /// Lazily built per-column rest-projection grouping (the
    /// single-multiplicity-slot path of [`Self::admits`]): tuples with the
    /// same projection minus column `ci` share a group id.
    mult_groups: RefCell<HashMap<usize, Rc<MultGroups>>>,
    /// Epoch-stamped scratch for the grouped cover masks (reused across
    /// `admits` calls; node expansion calls `admits` in its inner loop).
    group_scratch: RefCell<GroupScratch>,
}

/// Tuple-index → rest-projection group id for one multiplicity column.
#[derive(Debug)]
struct MultGroups {
    group_of: Vec<u32>,
    num: usize,
}

#[derive(Debug, Default)]
struct GroupScratch {
    /// Per group: bitmask of slot values covered by a surviving tuple.
    mask: Vec<u64>,
    /// Per group: epoch of the last `mask` write (stale masks are reset
    /// lazily instead of clearing the whole vector each call).
    stamp: Vec<u32>,
    epoch: u32,
}

impl ValidityIndex {
    /// Builds the index from the WHERE evaluation output.
    pub fn new(q: &BoundQuery, vocab: &Vocabulary, base: &[BaseAssignment]) -> Self {
        let slots: Vec<SlotInfo> = q
            .sat_vars
            .iter()
            .map(|&v| {
                let info = &q.vars[v.index()];
                let free = !info.in_where;
                SlotInfo {
                    var: v,
                    mult: info.mult,
                    is_rel: info.is_rel,
                    free,
                }
            })
            .collect();
        let constrained: Vec<usize> = (0..slots.len()).filter(|&i| !slots[i].free).collect();
        let arity = constrained.len();

        // project every base onto the constrained slots, then sort and
        // deduplicate the rows by index (no per-row allocation)
        let mut rows: Vec<Value> = Vec::with_capacity(base.len() * arity);
        let mut num_rows = 0usize;
        for b in base {
            let start = rows.len();
            rows.extend(constrained.iter().map_while(|&i| b.get(slots[i].var)));
            if rows.len() - start == arity {
                num_rows += 1;
            } else {
                rows.truncate(start);
            }
        }
        let row = |r: u32| &rows[r as usize * arity..(r as usize + 1) * arity];
        let mut order: Vec<u32> = (0..num_rows as u32).collect();
        order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
        order.dedup_by(|a, b| row(*a) == row(*b));
        let num_tuples = order.len();
        let tuples: Vec<Value> = order.iter().flat_map(|&r| row(r).iter().copied()).collect();

        let num_elems = vocab.num_elems();
        let key_space = num_elems + vocab.num_rels();
        let key_value = |k: usize| {
            if k < num_elems {
                Value::Elem(ontology::ElemId(k as u32))
            } else {
                Value::Rel(ontology::RelId((k - num_elems) as u32))
            }
        };
        // per-column postings (counting sort by value key); a column's
        // universe is its keys with a non-empty list, and key order is
        // `Value` order (elems first, each by id)
        let mut universes: Vec<Vec<Value>> = vec![Vec::new(); slots.len()];
        let mut post_start: Vec<Vec<u32>> = Vec::with_capacity(arity);
        let mut post_tuples: Vec<Vec<u32>> = Vec::with_capacity(arity);
        for (ci, &si) in constrained.iter().enumerate() {
            let mut start = vec![0u32; key_space + 1];
            for t in 0..num_tuples {
                start[value_key(num_elems, tuples[t * arity + ci]) + 1] += 1;
            }
            universes[si] = (0..key_space)
                .filter(|&k| start[k + 1] > 0)
                .map(key_value)
                .collect();
            for k in 0..key_space {
                start[k + 1] += start[k];
            }
            let mut fill = start.clone();
            let mut list = vec![0u32; num_tuples];
            for t in 0..num_tuples {
                let k = value_key(num_elems, tuples[t * arity + ci]);
                list[fill[k] as usize] = t as u32;
                fill[k] += 1;
            }
            post_start.push(start);
            post_tuples.push(list);
        }
        for (si, slot) in slots.iter().enumerate() {
            if slot.free {
                universes[si] = if slot.is_rel {
                    vocab.rels().map(Value::Rel).collect()
                } else {
                    vocab.elems().map(Value::Elem).collect()
                };
            }
        }

        let closures: Vec<Vec<Value>> = universes
            .iter()
            .map(|u| generalization_closure(vocab, u))
            .collect();
        let minimals: Vec<Vec<Value>> = closures
            .iter()
            .map(|c| {
                c.iter()
                    .copied()
                    .filter(|&v| !c.iter().any(|&w| w != v && value_leq(vocab, w, v)))
                    .collect()
            })
            .collect();

        ValidityIndex {
            slots,
            constrained,
            tuples,
            num_tuples,
            universes,
            closures,
            minimals,
            post_start,
            post_tuples,
            stride: num_tuples.div_ceil(64),
            num_elems,
            key_space,
            cover_off: RefCell::new(vec![Vec::new(); arity]),
            cover_words: RefCell::new(Vec::new()),
            mult_groups: RefCell::new(HashMap::new()),
            group_scratch: RefCell::new(GroupScratch::default()),
        }
    }

    /// Slot metadata.
    pub fn slots(&self) -> &[SlotInfo] {
        &self.slots
    }

    /// The concrete valid values of a slot.
    pub fn universe(&self, s: Slot) -> &[Value] {
        &self.universes[s.index()]
    }

    /// Universe plus all generalizations — the values DAG nodes may carry.
    pub fn closure(&self, s: Slot) -> &[Value] {
        &self.closures[s.index()]
    }

    /// The most general values of a slot (DAG-root values).
    pub fn minimal_values(&self, s: Slot) -> &[Value] {
        &self.minimals[s.index()]
    }

    /// Number of valid constrained tuples.
    pub fn num_tuples(&self) -> usize {
        self.num_tuples
    }

    /// All valid constrained tuples, sorted, flattened row-major: tuple
    /// `t` is `[t * k, (t + 1) * k)` for `k` constrained slots.
    pub(crate) fn flat_tuples(&self) -> &[Value] {
        &self.tuples
    }

    /// Valid tuple `t` over the constrained slots.
    fn tuple(&self, t: usize) -> &[Value] {
        let k = self.constrained.len();
        &self.tuples[t * k..(t + 1) * k]
    }

    /// The tuples (increasing indices) whose constrained column `ci` holds
    /// exactly `v`.
    pub(crate) fn postings(&self, ci: usize, v: Value) -> &[u32] {
        let key = value_key(self.num_elems, v);
        // PANIC-OK: post_start has one row of key_space + 1 offsets per
        // constrained column, and every value key is below key_space.
        let (lo, hi) = (self.post_start[ci][key], self.post_start[ci][key + 1]);
        // PANIC-OK: CSR offsets are prefix sums bounded by the list length.
        &self.post_tuples[ci][lo as usize..hi as usize]
    }

    /// The posting lists of `v`'s descendants in constrained column `ci`:
    /// together they list every tuple `t` with `v ≤ tuple(t)[ci]`, each
    /// once.
    pub(crate) fn cover_postings<'s>(
        &'s self,
        vocab: &'s Vocabulary,
        ci: usize,
        v: Value,
    ) -> impl Iterator<Item = &'s [u32]> + 's {
        let (elems, rels) = match v {
            Value::Elem(e) => (Some(vocab.elem_descendants(e)), None),
            Value::Rel(r) => (None, Some(vocab.rel_descendants(r))),
        };
        elems
            .into_iter()
            .flatten()
            .map(Value::Elem)
            .chain(rels.into_iter().flatten().map(Value::Rel))
            .map(move |d| self.postings(ci, d))
    }

    /// Word offset into `cover_words` of the memoized cover bitset for
    /// constrained column `ci` and value `v`, building it on first use.
    /// The returned block is `self.stride` words long and immutable once
    /// built — callers re-borrow `cover_words` to read it.
    ///
    /// A tuple is covered iff its column value is a descendant of `v`, so
    /// the bitset is the union of [`Self::cover_postings`].
    fn cover_offset(&self, vocab: &Vocabulary, ci: usize, v: Value) -> usize {
        debug_assert!(self.stride > 0, "admits bails out on an empty tuple set");
        let key = value_key(self.num_elems, v);
        {
            let off = self.cover_off.borrow();
            // PANIC-OK: cover_off has one entry per constrained column.
            if let Some(&o) = off[ci].get(key) {
                if o != u32::MAX {
                    return o as usize * self.stride;
                }
            }
        }
        let mut words = self.cover_words.borrow_mut();
        let block = words.len() / self.stride;
        let base = words.len();
        words.resize(base + self.stride, 0);
        for list in self.cover_postings(vocab, ci, v) {
            for &t in list {
                // PANIC-OK: posting entries are tuple indices, and
                // t/64 < stride by construction.
                words[base + t as usize / 64] |= 1u64 << (t % 64);
            }
        }
        drop(words);
        let mut off = self.cover_off.borrow_mut();
        // PANIC-OK: cover_off has one entry per constrained column.
        let col = &mut off[ci];
        if col.is_empty() {
            col.resize(self.key_space, u32::MAX);
        }
        // PANIC-OK: keys are < key_space, the length col was resized to.
        col[key] = block as u32;
        base
    }

    /// Whether `φ ∈ 𝒜`: φ is ≤ some valid (combination) assignment.
    /// MORE facts are ignored — they are unconstrained by the WHERE clause.
    ///
    /// Fast paths: single-valued slots intersect memoized cover bitsets;
    /// with one multiplicity slot the surviving tuples are grouped by
    /// their rest-projection and each value of the slot must be covered
    /// within one group (the cross-product condition of Proposition 5.1).
    /// The fully general case (≥ 2 multiplicity slots) falls back to a
    /// recursive cover search.
    pub fn admits(&self, vocab: &Vocabulary, a: &Assignment) -> bool {
        if self.constrained.is_empty() {
            return true;
        }
        let n = self.num_tuples;
        if n == 0 {
            return false;
        }
        // intersect single-value cover bitsets; collect multiplicity slots
        let mut acc: Vec<u64> = vec![!0u64; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            *acc.last_mut().expect("non-empty") = (1u64 << (n % 64)) - 1;
        }
        let mut multi: Vec<(usize, &[Value])> = Vec::new();
        for (ci, &si) in self.constrained.iter().enumerate() {
            let values = a.slot(Slot(si as u16));
            match values.len() {
                0 => {} // unconstrained: grouping by rest pins it consistently
                1 => {
                    let off = self.cover_offset(vocab, ci, values[0]);
                    let words = self.cover_words.borrow();
                    // PANIC-OK: cover_offset returns the base of a full
                    // stride-sized block inside cover_words.
                    for (w, &b) in acc.iter_mut().zip(&words[off..off + self.stride]) {
                        *w &= b;
                    }
                }
                _ => multi.push((ci, values)),
            }
        }
        if acc.iter().all(|&w| w == 0) {
            return false;
        }
        match multi.len() {
            0 => true,
            1 => {
                let (ci, values) = multi[0];
                // a rest-projection group must cover every value of the
                // slot; with ≤ 64 values this reduces to OR-ing per-value
                // cover bitsets into per-group masks (the group ids are
                // precomputed once per column)
                if values.len() <= 64 {
                    return self.admits_one_mult(vocab, ci, values, &acc);
                }
                // exact scan fallback for absurdly wide antichains
                let mut groups: HashMap<Vec<Value>, Vec<Value>> = HashMap::new();
                for t in 0..n {
                    if acc[t / 64] & (1u64 << (t % 64)) == 0 {
                        continue;
                    }
                    let tuple = self.tuple(t);
                    let rest: Vec<Value> = tuple
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != ci)
                        .map(|(_, &v)| v)
                        .collect();
                    groups.entry(rest).or_default().push(tuple[ci]);
                }
                groups.values().any(|col| {
                    values
                        .iter()
                        .all(|&v| col.iter().any(|&u| value_leq(vocab, v, u)))
                })
            }
            _ => {
                // general recursion over the surviving tuple subset
                let live: HashSet<Vec<Value>> = (0..n)
                    .filter(|&t| acc[t / 64] & (1u64 << (t % 64)) != 0)
                    .map(|t| self.tuple(t).to_vec())
                    .collect();
                self.admits_rec(vocab, a, 0, live)
            }
        }
    }

    /// The single-multiplicity-slot case of [`Self::admits`], decided via
    /// the precomputed rest-projection group index.
    ///
    /// Semantics (identical to the scan fallback): some group of surviving
    /// tuples — tuples agreeing on every column but `ci` — must cover all
    /// of the slot's `values`. `mask[g]` accumulates, per group `g`, which
    /// values a surviving tuple of `g` covers: bit `vi` is set iff some
    /// tuple `t` in `g` survives (`acc`) and `values[vi] ≤ t[ci]` (the
    /// memoized cover bitset). A full mask is a covering group.
    fn admits_one_mult(
        &self,
        vocab: &Vocabulary,
        ci: usize,
        values: &[Value],
        acc: &[u64],
    ) -> bool {
        debug_assert!((1..=64).contains(&values.len()));
        let groups = self.mult_groups_for(ci);
        let full: u64 = if values.len() == 64 {
            !0
        } else {
            (1u64 << values.len()) - 1
        };
        // prefetch all offsets first: cover_offset may grow the arena, so
        // it must run before the long immutable borrow below
        let offs: Vec<usize> = values
            .iter()
            .map(|&v| self.cover_offset(vocab, ci, v))
            .collect();
        let cover = self.cover_words.borrow();
        let mut scratch = self.group_scratch.borrow_mut();
        let GroupScratch { mask, stamp, epoch } = &mut *scratch;
        if mask.len() < groups.num {
            mask.resize(groups.num, 0);
            stamp.resize(groups.num, 0);
        }
        *epoch = epoch.wrapping_add(1);
        if *epoch == 0 {
            stamp.fill(0);
            *epoch = 1;
        }
        for (vi, &off) in offs.iter().enumerate() {
            // PANIC-OK: cover_offset returns the base of a full
            // stride-sized block inside cover_words.
            let bits = &cover[off..off + self.stride];
            let last = vi + 1 == values.len();
            for (w, (&bv, &av)) in bits.iter().zip(acc.iter()).enumerate() {
                let mut word = bv & av;
                while word != 0 {
                    let t = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let g = groups.group_of[t] as usize;
                    if stamp[g] != *epoch {
                        stamp[g] = *epoch;
                        mask[g] = 0;
                    }
                    mask[g] |= 1u64 << vi;
                    // masks grow monotonically, so fullness can only first
                    // appear while the last value's bits are applied
                    if last && mask[g] == full {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// The rest-projection grouping for multiplicity column `ci`, built on
    /// first use: tuples with equal projections minus `ci` get one id.
    fn mult_groups_for(&self, ci: usize) -> Rc<MultGroups> {
        if let Some(g) = self.mult_groups.borrow().get(&ci) {
            return Rc::clone(g);
        }
        let mut ids: HashMap<Vec<Value>, u32> = HashMap::new();
        let group_of: Vec<u32> = (0..self.num_tuples)
            .map(|t| {
                let tuple = self.tuple(t);
                let rest: Vec<Value> = tuple
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != ci)
                    .map(|(_, &v)| v)
                    .collect();
                let next = ids.len() as u32;
                *ids.entry(rest).or_insert(next)
            })
            .collect();
        let rc = Rc::new(MultGroups {
            group_of,
            num: ids.len(),
        });
        self.mult_groups.borrow_mut().insert(ci, Rc::clone(&rc));
        rc
    }

    fn admits_rec(
        &self,
        vocab: &Vocabulary,
        a: &Assignment,
        ci: usize,
        live: HashSet<Vec<Value>>,
    ) -> bool {
        if live.is_empty() {
            return false;
        }
        let Some(&si) = self.constrained.get(ci) else {
            return true;
        };
        let values = a.slot(Slot(si as u16));
        if values.is_empty() {
            // unconstrained by φ: any single concrete value works; branch
            // over the distinct values present in the live tuples.
            let mut seen: Vec<Value> = live.iter().map(|t| t[0]).collect();
            seen.sort_unstable();
            seen.dedup();
            for u in seen {
                let rest = rests_with(&live, u);
                if self.admits_rec(vocab, a, ci + 1, rest) {
                    return true;
                }
            }
            return false;
        }
        let acc: HashSet<Vec<Value>> = live.iter().map(|t| t[1..].to_vec()).collect();
        self.choose_covers(vocab, a, ci, values, 0, &live, acc)
    }

    #[allow(clippy::too_many_arguments)]
    fn choose_covers(
        &self,
        vocab: &Vocabulary,
        a: &Assignment,
        ci: usize,
        values: &[Value],
        vi: usize,
        live: &HashSet<Vec<Value>>,
        acc: HashSet<Vec<Value>>,
    ) -> bool {
        if acc.is_empty() {
            return false;
        }
        if vi == values.len() {
            return self.admits_rec(vocab, a, ci + 1, acc);
        }
        let v = values[vi];
        let mut covers: Vec<Value> = live
            .iter()
            .map(|t| t[0])
            .filter(|&u| value_leq(vocab, v, u))
            .collect();
        covers.sort_unstable();
        covers.dedup();
        for u in covers {
            let with_u = rests_with(live, u);
            let inter: HashSet<Vec<Value>> = acc
                .iter()
                .filter(|r| with_u.contains(*r))
                .cloned()
                .collect();
            if self.choose_covers(vocab, a, ci, values, vi + 1, live, inter) {
                return true;
            }
        }
        false
    }

    /// Whether `φ ∈ 𝒜_valid`: every slot holds concrete valid values
    /// within its multiplicity bounds and the cross-product of constrained
    /// slots consists of valid base tuples (Proposition 5.1, iterated).
    pub fn is_valid(&self, a: &Assignment) -> bool {
        for (si, slot) in self.slots.iter().enumerate() {
            let n = a.slot(Slot(si as u16)).len();
            if n < slot.mult.min() || slot.mult.max().is_some_and(|m| n > m) {
                return false;
            }
        }
        // cross-product membership over constrained slots
        let mut choice: Vec<Value> = Vec::with_capacity(self.constrained.len());
        self.valid_rec(a, 0, &mut choice)
    }

    fn valid_rec(&self, a: &Assignment, ci: usize, choice: &mut Vec<Value>) -> bool {
        let Some(&si) = self.constrained.get(ci) else {
            return self.contains(choice);
        };
        let values = a.slot(Slot(si as u16));
        if values.is_empty() {
            // multiplicity 0: the meta-facts vanish; validity requires the
            // remaining slots to form valid tuples with *some* value here,
            // i.e. some value of this column — exactly the slot's universe
            // (sorted, so the search order is deterministic)
            for &u in &self.universes[si] {
                choice.push(u);
                let ok = self.valid_rec(a, ci + 1, choice);
                choice.pop();
                if ok {
                    return true;
                }
            }
            return false;
        }
        // every value must participate: all cross tuples must be valid
        self.valid_product(a, ci, values, 0, choice)
    }

    /// Whether `t` is a valid tuple (binary search in the sorted list).
    fn contains(&self, t: &[Value]) -> bool {
        let (mut lo, mut hi) = (0, self.num_tuples);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.tuple(mid).cmp(t) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    fn valid_product(
        &self,
        a: &Assignment,
        ci: usize,
        values: &[Value],
        vi: usize,
        choice: &mut Vec<Value>,
    ) -> bool {
        if vi == values.len() {
            return true;
        }
        choice.push(values[vi]);
        let ok = self.valid_rec(a, ci + 1, choice);
        choice.pop();
        ok && self.valid_product(a, ci, values, vi + 1, choice)
    }
}

/// Dense key of a value: elems first, then rels (so key order is `Value`
/// order).
fn value_key(num_elems: usize, v: Value) -> usize {
    match v {
        Value::Elem(e) => e.index(),
        Value::Rel(r) => num_elems + r.index(),
    }
}

/// Rest-tuples (columns `1..`) of the live tuples whose first column is `u`.
fn rests_with(live: &HashSet<Vec<Value>>, u: Value) -> HashSet<Vec<Value>> {
    live.iter()
        .filter(|t| t[0] == u)
        .map(|t| t[1..].to_vec())
        .collect::<HashSet<Vec<Value>>>()
}

fn generalization_closure(vocab: &Vocabulary, universe: &[Value]) -> Vec<Value> {
    let mut out: HashSet<Value> = universe.iter().copied().collect();
    let mut stack: Vec<Value> = universe.to_vec();
    while let Some(v) = stack.pop() {
        let parents: Vec<Value> = match v {
            Value::Elem(e) => vocab
                .elem_parents(e)
                .iter()
                .map(|&p| Value::Elem(p))
                .collect(),
            Value::Rel(r) => vocab
                .rel_parents(r)
                .iter()
                .map(|&p| Value::Rel(p))
                .collect(),
        };
        for p in parents {
            if out.insert(p) {
                stack.push(p);
            }
        }
    }
    let mut v: Vec<Value> = out.into_iter().collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use oassis_ql::{bind, evaluate_where, parse, MatchMode};
    use ontology::domains::figure1;

    fn setup(src: &str) -> (ontology::Ontology, BoundQuery, ValidityIndex) {
        let ont = figure1::ontology();
        let q = parse(src).unwrap();
        let b = bind(&q, &ont).unwrap();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let idx = ValidityIndex::new(&b, ont.vocab(), &base);
        (ont, b, idx)
    }

    fn elem(ont: &ontology::Ontology, name: &str) -> Value {
        Value::Elem(ont.vocab().elem_id(name).unwrap())
    }

    fn assign(ont: &ontology::Ontology, x: &str, ys: &[&str]) -> Assignment {
        Assignment::new(
            ont.vocab(),
            vec![
                vec![elem(ont, x)],
                ys.iter().map(|y| elem(ont, y)).collect(),
            ],
            vec![],
        )
    }

    #[test]
    fn universes_and_roots_match_figure_3() {
        let (ont, _, idx) = setup(figure1::SIMPLE_QUERY);
        let v = ont.vocab();
        // x-universe: the two child-friendly attractions
        let xs: Vec<&str> = idx
            .universe(Slot(0))
            .iter()
            .map(|&u| v.elem_name(u.as_elem().unwrap()))
            .collect();
        assert_eq!(xs, vec!["Central Park", "Bronx Zoo"]);
        // y-universe: all 13 activity classes
        assert_eq!(idx.universe(Slot(1)).len(), 13);
        // closure adds Park/Zoo/Outdoor/Attraction/Place/Thing for x
        assert_eq!(idx.closure(Slot(0)).len(), 2 + 6);
        // minimal values: Thing (figure-1 has a global root)
        let x_min: Vec<&str> = idx
            .minimal_values(Slot(0))
            .iter()
            .map(|&u| v.elem_name(u.as_elem().unwrap()))
            .collect();
        assert_eq!(x_min, vec!["Thing"]);
        // y's minimal is also Thing (Activity ≤ Thing)
        let y_min: Vec<&str> = idx
            .minimal_values(Slot(1))
            .iter()
            .map(|&u| v.elem_name(u.as_elem().unwrap()))
            .collect();
        assert_eq!(y_min, vec!["Thing"]);
    }

    #[test]
    fn admits_generalizations_of_valid() {
        let (ont, _, idx) = setup(figure1::SIMPLE_QUERY);
        let v = ont.vocab();
        // valid base: (Central Park, Biking)
        assert!(idx.admits(v, &assign(&ont, "Central Park", &["Biking"])));
        // generalizations are admitted
        assert!(idx.admits(v, &assign(&ont, "Park", &["Sport"])));
        assert!(idx.admits(v, &assign(&ont, "Attraction", &["Activity"])));
        assert!(idx.admits(v, &assign(&ont, "Thing", &["Thing"])));
        // Madison Square is not child-friendly ⇒ nothing admits it
        assert!(!idx.admits(v, &assign(&ont, "Madison Square", &["Biking"])));
    }

    #[test]
    fn admits_multiplicity_combinations() {
        let (ont, _, idx) = setup(figure1::SIMPLE_QUERY);
        let v = ont.vocab();
        // {Biking, Ball Game} at Central Park: both bases valid ⇒ admitted
        assert!(idx.admits(v, &assign(&ont, "Central Park", &["Biking", "Ball Game"])));
        // generalized x with a value pair still admitted
        assert!(idx.admits(v, &assign(&ont, "Outdoor", &["Biking", "Feed a Monkey"])));
    }

    #[test]
    fn is_valid_checks_concreteness_and_product() {
        let (ont, _, idx) = setup(figure1::SIMPLE_QUERY);
        // base assignments are valid
        assert!(idx.is_valid(&assign(&ont, "Central Park", &["Biking"])));
        // combination: both (CP, Biking) and (CP, Ball Game) valid bases
        assert!(idx.is_valid(&assign(&ont, "Central Park", &["Biking", "Ball Game"])));
        // class-level x is NOT valid (instances required) though admitted
        let gen = assign(&ont, "Park", &["Biking"]);
        assert!(!idx.is_valid(&gen));
        assert!(idx.admits(ont.vocab(), &gen));
    }

    #[test]
    fn multiplicity_bounds_enforced() {
        let (ont, _, idx) = setup(figure1::SIMPLE_QUERY);
        // $y has +: at least one value; empty y violates min
        let empty_y = Assignment::new(
            ont.vocab(),
            vec![vec![elem(&ont, "Central Park")], vec![]],
            vec![],
        );
        assert!(!idx.is_valid(&empty_y));
        // $x defaults to exactly one: two x values invalid
        let two_x = Assignment::new(
            ont.vocab(),
            vec![
                vec![elem(&ont, "Central Park"), elem(&ont, "Bronx Zoo")],
                vec![elem(&ont, "Biking")],
            ],
            vec![],
        );
        assert!(!idx.is_valid(&two_x));
    }

    #[test]
    fn product_condition_rejects_cross_invalid() {
        // craft a query where the valid set is NOT a product:
        // (CP, Maoz) and (BZ, Pine) valid, but (CP, Pine) not.
        let src = r#"
SELECT FACT-SETS
WHERE
  $x hasLabel "child-friendly".
  $z nearBy $x
SATISFYING
  $z+ eatAt $x
WITH SUPPORT = 0.2
"#;
        let (ont, _, idx) = setup(src);
        let v = ont.vocab();
        // slots ordered by VarId: x then z
        let cp_maoz = Assignment::new(
            v,
            vec![
                vec![elem(&ont, "Central Park")],
                vec![elem(&ont, "Maoz Veg")],
            ],
            vec![],
        );
        assert!(idx.is_valid(&cp_maoz));
        let cp_pine = Assignment::new(
            v,
            vec![vec![elem(&ont, "Central Park")], vec![elem(&ont, "Pine")]],
            vec![],
        );
        assert!(!idx.is_valid(&cp_pine));
        assert!(!idx.admits(v, &cp_pine));
        // combination {Maoz, Pine} for z at CP requires (CP, Pine) valid ⇒ no
        let combo = Assignment::new(
            v,
            vec![
                vec![elem(&ont, "Central Park")],
                vec![elem(&ont, "Maoz Veg"), elem(&ont, "Pine")],
            ],
            vec![],
        );
        assert!(!idx.is_valid(&combo));
        assert!(!idx.admits(v, &combo));
    }

    #[test]
    fn free_slots_admit_everything() {
        let (ont, _, idx) = setup("SELECT FACT-SETS WHERE SATISFYING $a+ $p $b WITH SUPPORT = 0.2");
        let v = ont.vocab();
        assert!(idx.slots().iter().all(|s| s.free));
        let a = Assignment::new(
            v,
            vec![
                vec![elem(&ont, "Biking")],
                vec![Value::Rel(v.rel_id("doAt").unwrap())],
                vec![elem(&ont, "Central Park")],
            ],
            vec![],
        );
        assert!(idx.admits(v, &a));
        assert!(idx.is_valid(&a));
    }

    #[test]
    fn more_facts_do_not_affect_admission() {
        let (ont, _, idx) = setup(figure1::SIMPLE_QUERY);
        let v = ont.vocab();
        let f = v.fact("Rent Bikes", "doAt", "Boathouse").unwrap();
        let a = assign(&ont, "Central Park", &["Biking"]).with_more(v, f);
        assert!(idx.admits(v, &a));
    }

    // ---------- differential checks of the tuple list, postings and tracker ----------

    use crate::dag::{Dag, NodeId};
    use crate::vertical::ValidTracker;
    use ontology::domains::{culinary, self_treatment, travel, DomainScale};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// The WHERE output projected onto the constrained slots, as a set —
    /// the tuple set the index had before it kept one sorted list.
    fn tuple_set(idx: &ValidityIndex, base: &[BaseAssignment]) -> HashSet<Vec<Value>> {
        base.iter()
            .filter_map(|b| {
                idx.constrained
                    .iter()
                    .map(|&si| b.get(idx.slots[si].var))
                    .collect()
            })
            .collect()
    }

    /// The sorted tuple list and universes match the set they replace, and
    /// every cover bitset (one per column and closure value) equals the
    /// `value_leq` scan over all tuples.
    fn check_index(vocab: &Vocabulary, idx: &ValidityIndex, base: &[BaseAssignment]) {
        let set = tuple_set(idx, base);
        let mut sorted: Vec<Vec<Value>> = set.iter().cloned().collect();
        sorted.sort();
        let list: Vec<Vec<Value>> = (0..idx.num_tuples())
            .map(|t| idx.tuple(t).to_vec())
            .collect();
        assert_eq!(list, sorted, "tuple list");
        for (ci, &si) in idx.constrained.iter().enumerate() {
            let mut col: Vec<Value> = set.iter().map(|t| t[ci]).collect();
            col.sort_unstable();
            col.dedup();
            assert_eq!(idx.universes[si], col, "universe of slot {si}");
        }
        if idx.num_tuples() == 0 {
            return;
        }
        for (ci, &si) in idx.constrained.iter().enumerate() {
            for &v in &idx.closures[si] {
                let off = idx.cover_offset(vocab, ci, v);
                let words = idx.cover_words.borrow();
                let bits = &words[off..off + idx.stride];
                for t in 0..idx.stride * 64 {
                    let got = bits[t / 64] & (1u64 << (t % 64)) != 0;
                    let want = t < idx.num_tuples() && value_leq(vocab, v, idx.tuple(t)[ci]);
                    assert_eq!(got, want, "cover bit {t} of {v:?} in column {ci}");
                }
            }
        }
    }

    /// Drives a [`ValidTracker`] through a seeded interleaving of
    /// significant and insignificant witnesses and pruning clicks, and
    /// checks its count after every step against the definition: base
    /// `b` is classified once some significant witness `w` has `b ≤ w`,
    /// some insignificant one has `w ≤ b`, or a pruning click on `e`
    /// covers one of `b`'s values (`e ≤ v`). Bases are enumerated from
    /// the WHERE output, independently of the index. Returns the final
    /// count.
    fn check_tracker(dag: &mut Dag<'_>, base: &[BaseAssignment], seed: u64, steps: usize) -> usize {
        let vocab = dag.vocab();
        let q = dag.query();
        let free = dag.validity().slots().iter().any(|s| s.free);
        let bases: Vec<Assignment> = if free {
            Vec::new()
        } else {
            let set: BTreeSet<Assignment> = base
                .iter()
                .filter_map(|b| {
                    let values: Option<Vec<Vec<Value>>> = q
                        .sat_vars
                        .iter()
                        .map(|&v| b.get(v).map(|x| vec![x]))
                        .collect();
                    Some(Assignment::new(vocab, values?, Vec::new()))
                })
                .collect();
            set.into_iter().collect()
        };
        // materialize a bounded, breadth-first part of the DAG to draw
        // witnesses from
        let mut cursor = 0;
        while cursor < dag.len() && dag.len() < 400 {
            dag.children(NodeId(cursor as u32));
            cursor += 1;
        }
        let pool = if seed.is_multiple_of(2) {
            minipool::Pool::sequential()
        } else {
            minipool::Pool::new(2)
        };
        let mut tracker = ValidTracker::new(dag).with_pool(pool);
        assert_eq!(tracker.len(), bases.len(), "base count");
        let mut classified = vec![false; bases.len()];
        let mut total = 0;
        let elems: Vec<ontology::ElemId> = vocab.elems().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for step in 0..steps {
            let before = total;
            let changed = match rng.gen_range(0..3) {
                2 => {
                    let e = elems[rng.gen_range(0..elems.len())];
                    for (i, b) in bases.iter().enumerate() {
                        let hit = (0..b.num_slots()).any(|si| {
                            b.slot(Slot(si as u16))
                                .iter()
                                .any(|&v| value_leq(vocab, Value::Elem(e), v))
                        });
                        if hit && !classified[i] {
                            classified[i] = true;
                            total += 1;
                        }
                    }
                    tracker.prune(dag, e)
                }
                kind => {
                    if dag.is_empty() {
                        continue;
                    }
                    let sig = kind == 0;
                    let w = NodeId(rng.gen_range(0..dag.len()) as u32);
                    let wa = &dag.node(w).assignment;
                    for (i, b) in bases.iter().enumerate() {
                        let hit = if sig {
                            b.leq(vocab, wa)
                        } else {
                            wa.leq(vocab, b)
                        };
                        if hit && !classified[i] {
                            classified[i] = true;
                            total += 1;
                        }
                    }
                    tracker.witness(dag, w, sig)
                }
            };
            assert_eq!(
                tracker.total_classified, total,
                "classified count after step {step}"
            );
            assert_eq!(changed, total > before, "change flag after step {step}");
        }
        total
    }

    /// Runs both checks on one query; returns the tracker's final count.
    fn check_query(ont: &ontology::Ontology, src: &str, seed: u64) -> usize {
        let q = parse(src).unwrap();
        let b = bind(&q, ont).unwrap();
        let base = evaluate_where(&b, ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        check_index(ont.vocab(), dag.validity(), &base);
        check_tracker(&mut dag, &base, seed, 40)
    }

    #[test]
    fn indexes_match_their_definitions_on_the_paper_domains() {
        let fig = figure1::ontology();
        let free = "SELECT FACT-SETS WHERE SATISFYING $a+ $p $b WITH SUPPORT = 0.2";
        let domains = [
            travel(DomainScale::small()),
            culinary(DomainScale::small()),
            self_treatment(DomainScale::small()),
        ];
        for seed in 0..4 {
            // free slots: no bases, nothing ever classified
            assert_eq!(check_query(&fig, free, seed), 0);
            let mut classified = check_query(&fig, figure1::SIMPLE_QUERY, seed);
            classified += check_query(&fig, figure1::SAMPLE_QUERY, seed);
            for d in &domains {
                classified += check_query(&d.ontology, &d.query, seed);
            }
            assert!(classified > 0, "seed {seed} classified nothing");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn indexes_match_their_definitions_on_synthetic_domains(
            width in 4usize..40,
            depth in 2usize..6,
            mult in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let d = if mult {
                crate::synth::synthetic_domain_mult(width, depth, 0)
            } else {
                crate::synth::synthetic_domain(width, depth, 0)
            };
            check_query(&d.ontology, &d.query, seed);
        }
    }

    /// Brute-force validity (Proposition 5.1 iterated): the slot counts
    /// respect the multiplicities, and over the constrained slots in
    /// order, every value of a non-empty slot — and some value of an
    /// empty one — extends to a tuple of the WHERE output.
    fn brute_valid(idx: &ValidityIndex, set: &HashSet<Vec<Value>>, a: &Assignment) -> bool {
        fn rec(
            idx: &ValidityIndex,
            set: &HashSet<Vec<Value>>,
            a: &Assignment,
            t: &mut Vec<Value>,
        ) -> bool {
            let ci = t.len();
            let Some(&si) = idx.constrained.get(ci) else {
                return set.contains(t.as_slice());
            };
            let values = a.slot(Slot(si as u16));
            let try_value = |v: Value, t: &mut Vec<Value>| {
                t.push(v);
                let ok = rec(idx, set, a, t);
                t.pop();
                ok
            };
            if values.is_empty() {
                let col: BTreeSet<Value> = set.iter().map(|u| u[ci]).collect();
                col.into_iter().any(|v| try_value(v, t))
            } else {
                values.iter().all(|&v| try_value(v, t))
            }
        }
        idx.slots.iter().enumerate().all(|(si, s)| {
            let n = a.slot(Slot(si as u16)).len();
            n >= s.mult.min() && s.mult.max().is_none_or(|m| n <= m)
        }) && rec(idx, set, a, &mut Vec::new())
    }

    #[test]
    fn is_valid_with_an_empty_slot_matches_brute_force() {
        // one product-shaped valid set (every activity at every
        // attraction) and one that is not (each restaurant is near one
        // attraction), so the empty slot's witness value matters
        let nearby = r#"
SELECT FACT-SETS
WHERE
  $x hasLabel "child-friendly".
  $z nearBy $x
SATISFYING
  $z+ eatAt $x
WITH SUPPORT = 0.2
"#;
        let ont = figure1::ontology();
        let v = ont.vocab();
        for (query, var) in [(figure1::SIMPLE_QUERY, "$y"), (nearby, "$z")] {
            for mult in ["?", "*"] {
                let src = query.replace(&format!("{var}+"), &format!("{var}{mult}"));
                let q = parse(&src).unwrap();
                let b = bind(&q, &ont).unwrap();
                let base = evaluate_where(&b, &ont, MatchMode::Exact);
                let idx = ValidityIndex::new(&b, v, &base);
                let set = tuple_set(&idx, &base);
                // slot 0 ($x): every closure value; slot 1: empty, every
                // closure value, and pairs of concrete values
                let uy = idx.universe(Slot(1)).to_vec();
                let mut y_sets: Vec<Vec<Value>> = vec![Vec::new()];
                y_sets.extend(idx.closure(Slot(1)).iter().map(|&y| vec![y]));
                for (i, &p) in uy.iter().enumerate() {
                    y_sets.extend(uy[i + 1..].iter().map(|&r| vec![p, r]));
                }
                let (mut valid, mut checked) = (0, 0);
                for &x in idx.closure(Slot(0)) {
                    for y in &y_sets {
                        let a = Assignment::new(v, vec![vec![x], y.clone()], vec![]);
                        let want = brute_valid(&idx, &set, &a);
                        assert_eq!(idx.is_valid(&a), want, "{var}{mult}: {a:?}");
                        valid += want as usize;
                        checked += 1;
                    }
                }
                assert!(valid > 0 && valid < checked);
                // the empty-slot branch is exercised and not vacuous
                let empty_at =
                    |x: &str| Assignment::new(v, vec![vec![elem(&ont, x)], vec![]], vec![]);
                assert!(idx.is_valid(&empty_at("Central Park")), "{var}{mult}");
                assert!(idx.is_valid(&empty_at("Bronx Zoo")), "{var}{mult}");
                assert!(!idx.is_valid(&empty_at("Madison Square")), "{var}{mult}");
            }
        }
    }
}
