//! Evaluation of the WHERE clause over the ontology, producing the base
//! (multiplicity-1) valid assignments that seed the assignment DAG.
//!
//! Section 5 of the paper evaluates the WHERE clause with an off-the-shelf
//! SPARQL engine (RDFLIB): variables bind to the components of **asserted**
//! triples. That behaviour is [`MatchMode::Exact`]. The formal semantics of
//! Section 3, however, only requires `φ(A_WHERE) ≤ O` — the instantiated
//! fact-set must be *semantically implied* by the ontology (Definition
//! 2.5). [`MatchMode::Semantic`] implements that relaxation: a pattern fact
//! matches an asserted fact whose components are specializations of the
//! pattern's constants.
//!
//! Patterns that share no variable constrain disjoint parts of an
//! assignment, so [`evaluate_where`] splits the clause into connected
//! components (two patterns are connected when they share a variable,
//! relation variables included), solves each component by backtracking on
//! its own, and joins the component row sets by cross product.
//! `$x subClassOf* X. $y subClassOf* Y` thus costs |X| + |Y| matches and
//! one row per product element, not a |X| × |Y| backtracking search.

use crate::bind::{BoundQuery, FactTerm, RelTerm, Value, VarId, WherePattern};
use ontology::{ElemId, Ontology, RelId};
use std::collections::{HashMap, HashSet, VecDeque};

/// How constants in WHERE patterns match ontology facts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchMode {
    /// SPARQL-style: pattern constants must equal fact components
    /// (the paper's implementation, Section 6.1).
    #[default]
    Exact,
    /// Definition 2.5: a pattern constant `c` matches a fact component `c'`
    /// when `c ≤ c'`. Variables still bind to the asserted components.
    Semantic,
}

/// One valid assignment at multiplicity 1: a value for every variable that
/// the WHERE clause constrains (`None` for SATISFYING-only variables,
/// which range over the whole vocabulary — see `oassis-core`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BaseAssignment(pub Vec<Option<Value>>);

impl BaseAssignment {
    /// The value bound to `v`, if any.
    #[inline]
    pub fn get(&self, v: VarId) -> Option<Value> {
        self.0[v.index()]
    }
}

/// Evaluates the WHERE clause, returning the sorted, deduplicated valid
/// base assignments. With an empty WHERE clause the result is a single,
/// all-unbound assignment (the SATISFYING clause then ranges over the
/// whole vocabulary, which is how OASSIS-QL captures classic frequent
/// itemset mining — Section 4.1).
///
/// Each connected component of the pattern set is solved on its own and
/// deduplicated; the result is the cross product of the component row
/// sets (components bind disjoint variables, so each output row merges
/// one row per component). A component without variables contributes one
/// empty row when it matches and empties the result when it does not.
pub fn evaluate_where(q: &BoundQuery, ont: &Ontology, mode: MatchMode) -> Vec<BaseAssignment> {
    let mut ev = Evaluator::new(q, ont, mode);
    let mut product: Option<Vec<BaseAssignment>> = None;
    for comp in components(q) {
        let rows = ev.solve_rows(comp.patterns);
        if rows.is_empty() {
            return Vec::new();
        }
        if comp.vars.is_empty() {
            continue;
        }
        product = Some(match product {
            None => rows,
            Some(acc) => join(&acc, &rows, &comp.vars),
        });
    }
    let mut out = product.unwrap_or_else(|| vec![BaseAssignment(vec![None; q.vars.len()])]);
    // Components are joined in order of their smallest variable, so the
    // product is already sorted whenever each component's variables follow
    // the previous one's (the stress and synthetic queries); the sort then
    // only confirms the run.
    out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    out
}

/// A connected component of the WHERE patterns: pattern indices in
/// ascending order and the variables they mention, ascending.
struct Component {
    patterns: Vec<usize>,
    vars: Vec<VarId>,
}

/// The variables a pattern mentions, relation variables included.
fn pattern_vars(p: &WherePattern) -> impl Iterator<Item = VarId> {
    let elem = |t: &FactTerm| match t {
        FactTerm::Var(v) => Some(*v),
        _ => None,
    };
    let (s, r, o) = match p {
        WherePattern::Label { s, .. } => (elem(s), None, None),
        WherePattern::Triple { s, r, o, .. } => {
            let r = match r {
                RelTerm::Var(v) => Some(*v),
                RelTerm::Const(_) => None,
            };
            (elem(s), r, elem(o))
        }
    };
    [s, r, o].into_iter().flatten()
}

/// Splits the WHERE patterns into connected components with a union-find
/// over pattern indices, ordered by smallest variable (variable-free
/// components first, so a failing constant check ends evaluation early).
fn components(q: &BoundQuery) -> Vec<Component> {
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let n = q.where_patterns.len();
    let mut parent: Vec<usize> = (0..n).collect();
    // The first pattern mentioning each variable; later ones join it.
    let mut first_use: Vec<Option<usize>> = vec![None; q.vars.len()];
    for (pi, p) in q.where_patterns.iter().enumerate() {
        for v in pattern_vars(p) {
            match first_use[v.index()] {
                None => first_use[v.index()] = Some(pi),
                Some(pj) => {
                    let (a, b) = (find(&mut parent, pi), find(&mut parent, pj));
                    parent[a] = b;
                }
            }
        }
    }
    let mut comp_of_root: Vec<Option<usize>> = vec![None; n];
    let mut comps: Vec<Component> = Vec::new();
    for pi in 0..n {
        let root = find(&mut parent, pi);
        let c = *comp_of_root[root].get_or_insert_with(|| {
            comps.push(Component {
                patterns: Vec::new(),
                vars: Vec::new(),
            });
            comps.len() - 1
        });
        comps[c].patterns.push(pi);
    }
    for (v, owner) in first_use.iter().enumerate() {
        if let Some(pi) = *owner {
            if let Some(c) = comp_of_root[find(&mut parent, pi)] {
                comps[c].vars.push(VarId(v as u16));
            }
        }
    }
    comps.sort_by_key(|c| c.vars.first().copied());
    comps
}

/// The cross product of `acc` with one more component's `rows`, which
/// bind only `vars`.
fn join(acc: &[BaseAssignment], rows: &[BaseAssignment], vars: &[VarId]) -> Vec<BaseAssignment> {
    let mut out = Vec::with_capacity(acc.len() * rows.len());
    for a in acc {
        for r in rows {
            let mut merged = a.0.clone();
            for v in vars {
                merged[v.index()] = r.0[v.index()];
            }
            out.push(BaseAssignment(merged));
        }
    }
    out
}

struct Evaluator<'a> {
    q: &'a BoundQuery,
    ont: &'a Ontology,
    mode: MatchMode,
    /// Per-relation star-path adjacency: `(rel, reversed)` → successors.
    star_cache: HashMap<(RelId, bool), HashMap<ElemId, Vec<ElemId>>>,
    /// Complete bindings found by the current [`Evaluator::solve_rows`].
    results: Vec<BaseAssignment>,
}

impl<'a> Evaluator<'a> {
    fn new(q: &'a BoundQuery, ont: &'a Ontology, mode: MatchMode) -> Self {
        Evaluator {
            q,
            ont,
            mode,
            star_cache: HashMap::new(),
            results: Vec::new(),
        }
    }

    /// Every binding that satisfies all of `patterns` (variables outside
    /// them stay `None`), sorted and deduplicated.
    fn solve_rows(&mut self, mut patterns: Vec<usize>) -> Vec<BaseAssignment> {
        let mut bindings: Vec<Option<Value>> = vec![None; self.q.vars.len()];
        self.solve(&mut bindings, &mut patterns);
        let mut rows = std::mem::take(&mut self.results);
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        rows.dedup();
        rows
    }

    fn solve(&mut self, bindings: &mut Vec<Option<Value>>, remaining: &mut Vec<usize>) {
        if remaining.is_empty() {
            self.results.push(BaseAssignment(bindings.clone()));
            return;
        }
        // Pick the most-bound pattern next (fewest unbound variables).
        let q = self.q;
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, &pi)| self.unbound_count(&q.where_patterns[pi], bindings))
            .expect("remaining is non-empty");
        let pi = remaining.swap_remove(pos);
        self.match_pattern(&q.where_patterns[pi], bindings, remaining);
        remaining.push(pi);
    }

    fn unbound_count(&self, p: &WherePattern, bindings: &[Option<Value>]) -> usize {
        let term = |t: &FactTerm| match t {
            FactTerm::Var(v) if bindings[v.index()].is_none() => 1,
            _ => 0,
        };
        match p {
            WherePattern::Label { s, .. } => term(s),
            WherePattern::Triple { s, r, o, .. } => {
                term(s)
                    + term(o)
                    + match r {
                        RelTerm::Var(v) if bindings[v.index()].is_none() => 1,
                        _ => 0,
                    }
            }
        }
    }

    fn match_pattern(
        &mut self,
        p: &WherePattern,
        bindings: &mut Vec<Option<Value>>,
        remaining: &mut Vec<usize>,
    ) {
        match p {
            WherePattern::Label { s, label } => self.match_label(*s, label, bindings, remaining),
            WherePattern::Triple {
                s,
                r,
                o,
                star: false,
            } => self.match_triple(*s, *r, *o, bindings, remaining),
            WherePattern::Triple {
                s,
                r,
                o,
                star: true,
            } => {
                let RelTerm::Const(rel) = *r else {
                    unreachable!("binder rejects star with relation variable")
                };
                self.match_star(*s, rel, *o, bindings, remaining);
            }
        }
    }

    fn match_label(
        &mut self,
        s: FactTerm,
        label: &str,
        bindings: &mut Vec<Option<Value>>,
        remaining: &mut Vec<usize>,
    ) {
        match s {
            FactTerm::Const(e) => {
                if self.ont.has_label(e, label) {
                    self.solve(bindings, remaining);
                }
            }
            FactTerm::Blank => {
                if !self.ont.elems_with_label(label).is_empty() {
                    self.solve(bindings, remaining);
                }
            }
            FactTerm::Var(v) => match bindings[v.index()] {
                Some(Value::Elem(e)) => {
                    if self.ont.has_label(e, label) {
                        self.solve(bindings, remaining);
                    }
                }
                Some(Value::Rel(_)) => {}
                None => {
                    for e in self.ont.elems_with_label(label) {
                        bindings[v.index()] = Some(Value::Elem(e));
                        self.solve(bindings, remaining);
                    }
                    bindings[v.index()] = None;
                }
            },
        }
    }

    /// Whether a pattern element-position `t` accepts fact component `c`
    /// under the current bindings; returns the variable to bind if unbound.
    fn accept_elem(
        &self,
        t: FactTerm,
        c: ElemId,
        bindings: &[Option<Value>],
    ) -> Option<Option<VarId>> {
        match t {
            FactTerm::Blank => Some(None),
            FactTerm::Const(e) => {
                let ok = match self.mode {
                    MatchMode::Exact => e == c,
                    MatchMode::Semantic => self.ont.vocab().elem_leq(e, c),
                };
                ok.then_some(None)
            }
            FactTerm::Var(v) => match bindings[v.index()] {
                None => Some(Some(v)),
                Some(Value::Elem(e)) if e == c => Some(None),
                _ => None,
            },
        }
    }

    fn match_triple(
        &mut self,
        s: FactTerm,
        r: RelTerm,
        o: FactTerm,
        bindings: &mut Vec<Option<Value>>,
        remaining: &mut Vec<usize>,
    ) {
        // Candidate relations.
        let rels: Vec<RelId> = match r {
            RelTerm::Const(rel) => match self.mode {
                MatchMode::Exact => vec![rel],
                MatchMode::Semantic => self.ont.vocab().rel_descendants(rel).collect(),
            },
            RelTerm::Var(v) => match bindings[v.index()] {
                Some(Value::Rel(rel)) => vec![rel],
                Some(Value::Elem(_)) => vec![],
                None => self.ont.vocab().rels().collect(),
            },
        };
        for rel in rels {
            let rel_binds = match r {
                RelTerm::Var(v) if bindings[v.index()].is_none() => Some(v),
                _ => None,
            };
            // Iterate asserted facts with this relation.
            let ont = self.ont;
            for f in ont.facts_with_rel(rel) {
                let Some(sb) = self.accept_elem(s, f.subject, bindings) else {
                    continue;
                };
                let Some(ob_pre) = self.accept_elem(o, f.object, bindings) else {
                    continue;
                };
                // Bind subject first; re-check object if s and o are the
                // same unbound variable.
                if let Some(v) = sb {
                    bindings[v.index()] = Some(Value::Elem(f.subject));
                }
                let ob = if sb.is_some() {
                    self.accept_elem(o, f.object, bindings)
                } else {
                    Some(ob_pre)
                };
                if let Some(ob) = ob {
                    if let Some(v) = ob {
                        bindings[v.index()] = Some(Value::Elem(f.object));
                    }
                    if let Some(v) = rel_binds {
                        bindings[v.index()] = Some(Value::Rel(rel));
                    }
                    self.solve(bindings, remaining);
                    if let Some(v) = rel_binds {
                        bindings[v.index()] = None;
                    }
                    if let Some(v) = ob {
                        bindings[v.index()] = None;
                    }
                }
                if let Some(v) = sb {
                    bindings[v.index()] = None;
                }
            }
        }
    }

    /// Star-path adjacency for `rel`: forward (`s → o` of asserted facts)
    /// or reversed.
    fn star_adj(&mut self, rel: RelId, reversed: bool) -> &HashMap<ElemId, Vec<ElemId>> {
        self.star_cache.entry((rel, reversed)).or_insert_with(|| {
            let mut adj: HashMap<ElemId, Vec<ElemId>> = HashMap::new();
            for f in self.ont.facts_with_rel(rel) {
                let (from, to) = if reversed {
                    (f.object, f.subject)
                } else {
                    (f.subject, f.object)
                };
                adj.entry(from).or_default().push(to);
            }
            adj
        })
    }

    /// All elements reachable from `start` by 0+ `rel` facts (forward or
    /// reversed), including `start` itself.
    fn star_reach(&mut self, rel: RelId, start: ElemId, reversed: bool) -> Vec<ElemId> {
        let adj = self.star_adj(rel, reversed);
        let mut seen: HashSet<ElemId> = HashSet::from([start]);
        let mut queue: VecDeque<ElemId> = VecDeque::from([start]);
        let mut out = vec![start];
        while let Some(e) = queue.pop_front() {
            if let Some(next) = adj.get(&e) {
                for &n in next {
                    if seen.insert(n) {
                        out.push(n);
                        queue.push_back(n);
                    }
                }
            }
        }
        out
    }

    fn match_star(
        &mut self,
        s: FactTerm,
        rel: RelId,
        o: FactTerm,
        bindings: &mut Vec<Option<Value>>,
        remaining: &mut Vec<usize>,
    ) {
        let elem_of = |t: FactTerm, bindings: &[Option<Value>]| -> Option<Option<ElemId>> {
            // Some(Some(e)) = bound to e; Some(None) = unbound var or blank
            match t {
                FactTerm::Const(e) => Some(Some(e)),
                FactTerm::Blank => Some(None),
                FactTerm::Var(v) => match bindings[v.index()] {
                    Some(Value::Elem(e)) => Some(Some(e)),
                    Some(Value::Rel(_)) => None,
                    None => Some(None),
                },
            }
        };
        let Some(sv) = elem_of(s, bindings) else {
            return;
        };
        let Some(ov) = elem_of(o, bindings) else {
            return;
        };
        match (sv, ov) {
            (Some(se), Some(oe)) => {
                if self.star_reach(rel, se, false).contains(&oe) {
                    self.solve(bindings, remaining);
                }
            }
            (Some(se), None) => {
                // enumerate objects reachable forward from se
                for oe in self.star_reach(rel, se, false) {
                    self.bind_star_end(o, oe, bindings, remaining);
                }
            }
            (None, Some(oe)) => {
                // enumerate subjects that reach oe (reverse reachability)
                for se in self.star_reach(rel, oe, true) {
                    self.bind_star_end(s, se, bindings, remaining);
                }
            }
            (None, None) => {
                // both open: every element paired with everything it reaches
                let elems: Vec<ElemId> = self.ont.vocab().elems().collect();
                for se in elems {
                    for oe in self.star_reach(rel, se, false) {
                        // bind s then o (they may be the same variable)
                        match s {
                            FactTerm::Var(v) => {
                                bindings[v.index()] = Some(Value::Elem(se));
                                self.bind_star_end(o, oe, bindings, remaining);
                                bindings[v.index()] = None;
                            }
                            _ => self.bind_star_end(o, oe, bindings, remaining),
                        }
                    }
                }
            }
        }
    }

    fn bind_star_end(
        &mut self,
        t: FactTerm,
        e: ElemId,
        bindings: &mut Vec<Option<Value>>,
        remaining: &mut Vec<usize>,
    ) {
        match t {
            FactTerm::Var(v) => match bindings[v.index()] {
                None => {
                    bindings[v.index()] = Some(Value::Elem(e));
                    self.solve(bindings, remaining);
                    bindings[v.index()] = None;
                }
                Some(Value::Elem(b)) if b == e => self.solve(bindings, remaining),
                _ => {}
            },
            FactTerm::Blank => self.solve(bindings, remaining),
            FactTerm::Const(c) => {
                if c == e {
                    self.solve(bindings, remaining);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::bind;
    use crate::parse;
    use ontology::domains::figure1;

    fn eval(src: &str, mode: MatchMode) -> (BoundQuery, Vec<BaseAssignment>, Ontology) {
        let ont = figure1::ontology();
        let q = parse(src).unwrap();
        let b = bind(&q, &ont).unwrap();
        let res = evaluate_where(&b, &ont, mode);
        (b, res, ont)
    }

    fn values(b: &BoundQuery, res: &[BaseAssignment], ont: &Ontology, var: &str) -> Vec<String> {
        let v = b.var_by_name(var).unwrap();
        let mut names: Vec<String> = res
            .iter()
            .filter_map(|a| a.get(v))
            .filter_map(Value::as_elem)
            .map(|e| ont.vocab().elem_name(e).to_owned())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    #[test]
    fn figure_2_where_evaluation() {
        let (b, res, ont) = eval(figure1::SAMPLE_QUERY, MatchMode::Exact);
        assert!(!res.is_empty());
        // x: child-friendly attractions inside NYC with a nearby restaurant
        assert_eq!(
            values(&b, &res, &ont, "x"),
            vec!["Bronx Zoo", "Central Park"]
        );
        // z is tied to x by nearBy
        let x = b.var_by_name("x").unwrap();
        let z = b.var_by_name("z").unwrap();
        for a in &res {
            let xe = ont.vocab().elem_name(a.get(x).unwrap().as_elem().unwrap());
            let ze = ont.vocab().elem_name(a.get(z).unwrap().as_elem().unwrap());
            match xe {
                "Central Park" => assert_eq!(ze, "Maoz Veg"),
                "Bronx Zoo" => assert_eq!(ze, "Pine"),
                other => panic!("unexpected x = {other}"),
            }
        }
        // y ranges over every subclass-of* Activity
        let ys = values(&b, &res, &ont, "y");
        assert!(ys.contains(&"Activity".to_owned())); // 0-length path
        assert!(ys.contains(&"Biking".to_owned()));
        assert!(ys.contains(&"Baseball".to_owned()));
        assert!(ys.contains(&"Feed a Monkey".to_owned()));
        assert!(!ys.contains(&"Thing".to_owned())); // above Activity
        assert_eq!(ys.len(), 13);
    }

    #[test]
    fn star_path_includes_zero_length() {
        let (b, res, ont) = eval(
            "SELECT FACT-SETS WHERE $w subClassOf* Attraction SATISFYING $w doAt NYC WITH SUPPORT = 0.2",
            MatchMode::Exact,
        );
        let ws = values(&b, &res, &ont, "w");
        assert!(ws.contains(&"Attraction".to_owned()));
        assert!(ws.contains(&"Park".to_owned()));
        assert!(ws.contains(&"Zoo".to_owned()));
        // instances are instanceOf, not subClassOf
        assert!(!ws.contains(&"Central Park".to_owned()));
    }

    #[test]
    fn exact_vs_semantic_relation_matching() {
        // `$a nearBy NYC`: nothing asserted, but `Central Park inside NYC`
        // (and others) imply it semantically because nearBy ≤R inside.
        let src = "SELECT FACT-SETS WHERE $a nearBy NYC SATISFYING $a doAt NYC WITH SUPPORT = 0.2";
        let (_, res_exact, _) = eval(src, MatchMode::Exact);
        assert!(res_exact.is_empty());
        let (b, res_sem, ont) = eval(src, MatchMode::Semantic);
        let names = values(&b, &res_sem, &ont, "a");
        assert_eq!(names, vec!["Bronx Zoo", "Central Park", "Madison Square"]);
    }

    #[test]
    fn semantic_constant_generalization() {
        // `Maoz Veg nearBy $p` asserted for Central Park; with semantic
        // matching, the more general constant Outdoor also matches as
        // subject? No — constants generalize the *pattern*, so the pattern
        // constant must be ≤ the asserted component.
        let src =
            "SELECT FACT-SETS WHERE Restaurant nearBy $p SATISFYING $p doAt NYC WITH SUPPORT = 0.2";
        let (_, res_exact, _) = eval(src, MatchMode::Exact);
        assert!(res_exact.is_empty()); // `Restaurant nearBy …` is not asserted
        let (b, res_sem, ont) = eval(src, MatchMode::Semantic);
        // Restaurant ≤E Maoz Veg / Pine, so the pattern matches their facts.
        let names = values(&b, &res_sem, &ont, "p");
        assert_eq!(names, vec!["Bronx Zoo", "Central Park", "Madison Square"]);
    }

    #[test]
    fn empty_where_yields_single_unbound_assignment() {
        let (b, res, _) = eval(
            "SELECT FACT-SETS WHERE SATISFYING $x+ $p $v WITH SUPPORT = 0.2",
            MatchMode::Exact,
        );
        assert_eq!(res.len(), 1);
        assert!(res[0].0.iter().all(Option::is_none));
        assert_eq!(b.sat_vars.len(), 3);
    }

    #[test]
    fn blank_in_where_is_existential() {
        let (b, res, ont) = eval(
            "SELECT FACT-SETS WHERE $x nearBy [] SATISFYING $x doAt NYC WITH SUPPORT = 0.2",
            MatchMode::Exact,
        );
        let names = values(&b, &res, &ont, "x");
        assert_eq!(names, vec!["Maoz Veg", "Pine"]);
        // blanks do not multiply results: Maoz Veg is nearBy two places but
        // appears once
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn relation_variable_enumerates() {
        let (b, res, ont) = eval(
            "SELECT FACT-SETS WHERE \"Maoz Veg\" $p \"Central Park\" SATISFYING Biking doAt NYC WITH SUPPORT = 0.2",
            MatchMode::Exact,
        );
        let p = b.var_by_name("p").unwrap();
        let rels: Vec<&str> = res
            .iter()
            .filter_map(|a| a.get(p))
            .filter_map(Value::as_rel)
            .map(|r| ont.vocab().rel_name(r))
            .collect();
        assert_eq!(rels, vec!["nearBy"]);
    }

    #[test]
    fn same_variable_twice_in_one_pattern() {
        // `$x nearBy $x` should only match reflexive facts (none here).
        let (_, res, _) = eval(
            "SELECT FACT-SETS WHERE $x nearBy $x SATISFYING $x doAt NYC WITH SUPPORT = 0.2",
            MatchMode::Exact,
        );
        assert!(res.is_empty());
    }

    #[test]
    fn bound_star_endpoints_check() {
        let (_, res, _) = eval(
            "SELECT FACT-SETS WHERE Basketball subClassOf* Activity SATISFYING Basketball doAt NYC WITH SUPPORT = 0.2",
            MatchMode::Exact,
        );
        assert_eq!(res.len(), 1); // vacuous single assignment (no vars in WHERE)
        let (_, res2, _) = eval(
            "SELECT FACT-SETS WHERE Basketball subClassOf* Food SATISFYING Basketball doAt NYC WITH SUPPORT = 0.2",
            MatchMode::Exact,
        );
        assert!(res2.is_empty());
    }

    #[test]
    fn results_are_deterministic_and_sorted() {
        let (_, res1, _) = eval(figure1::SAMPLE_QUERY, MatchMode::Exact);
        let (_, res2, _) = eval(figure1::SAMPLE_QUERY, MatchMode::Exact);
        assert_eq!(res1, res2);
    }

    #[test]
    fn label_filter_on_constant() {
        let (_, res, _) = eval(
            "SELECT FACT-SETS WHERE \"Central Park\" hasLabel \"child-friendly\" SATISFYING Biking doAt \"Central Park\" WITH SUPPORT = 0.2",
            MatchMode::Exact,
        );
        assert_eq!(res.len(), 1);
        let (_, res2, _) = eval(
            "SELECT FACT-SETS WHERE \"Madison Square\" hasLabel \"child-friendly\" SATISFYING Biking doAt \"Central Park\" WITH SUPPORT = 0.2",
            MatchMode::Exact,
        );
        assert!(res2.is_empty());
    }

    /// The whole clause as one backtracking search, deduplicated and
    /// sorted: the differential reference for [`evaluate_where`], which
    /// must agree with it on every clause.
    fn evaluate_where_reference(
        q: &BoundQuery,
        ont: &Ontology,
        mode: MatchMode,
    ) -> Vec<BaseAssignment> {
        Evaluator::new(q, ont, mode).solve_rows((0..q.where_patterns.len()).collect())
    }

    /// Asserts that the factored evaluator equals the reference on `src`
    /// in both match modes, and that its output is strictly sorted.
    fn assert_matches_reference(src: &str, ont: &Ontology) -> Result<(), String> {
        let b = bind(&parse(src).unwrap(), ont).unwrap();
        for mode in [MatchMode::Exact, MatchMode::Semantic] {
            let got = evaluate_where(&b, ont, mode);
            let want = evaluate_where_reference(&b, ont, mode);
            if got != want {
                return Err(format!(
                    "{mode:?}: {} rows, reference {} rows\n{src}",
                    got.len(),
                    want.len()
                ));
            }
            if !got.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!("{mode:?}: output not strictly sorted\n{src}"));
            }
        }
        Ok(())
    }

    #[test]
    fn factored_evaluation_matches_the_reference_on_chosen_clauses() {
        let ont = figure1::ontology();
        let sat = "SATISFYING $x doAt $y WITH SUPPORT = 0.2";
        let clauses = [
            // empty WHERE clause
            "",
            // constant-only patterns, true and false
            "Basketball subClassOf* Activity. $x instanceOf Park",
            "Basketball subClassOf* Food. $x instanceOf Park",
            "\"Central Park\" hasLabel \"child-friendly\". $y subClassOf* Activity",
            "\"Madison Square\" hasLabel \"child-friendly\". $y subClassOf* Activity",
            // blanks
            "$x nearBy []. $y subClassOf* Activity. [] inside NYC",
            // a relation variable shared by two otherwise disjoint patterns
            "$x $p \"Central Park\". [] $p $y. $a subClassOf* Activity",
            // the same variable twice in one pattern
            "$x subClassOf* $x. $y instanceOf $y",
            "$x subClassOf* $x. $y subClassOf* Sport",
            // a component with zero rows
            "$x nearBy $x. $y subClassOf* Activity",
            // three independent components
            "$a subClassOf* Sport. $y instanceOf Zoo. $x inside NYC",
            // components {$z, $a} and {$y}, whose product is not in row
            // order ($z has two nearBy places), so the final sort matters
            "$z instanceOf Restaurant. $y subClassOf* Sport. $z nearBy $a",
        ];
        for w in clauses {
            assert_matches_reference(&format!("SELECT FACT-SETS WHERE {w} {sat}"), &ont).unwrap();
        }
        for src in [figure1::SAMPLE_QUERY, figure1::SIMPLE_QUERY] {
            assert_matches_reference(src, &ont).unwrap();
        }
    }

    /// One generated WHERE pattern: `(kind, subject, relation, object)`,
    /// each term as `(kind, index)`. See [`render_where`].
    type GenPattern = (usize, (usize, usize), usize, (usize, usize));

    /// Renders generated patterns as WHERE-clause text over `ont`: term
    /// kind 0–2 is one of `$x $y $a`, 3–4 a constant element, 5 a
    /// blank;
    /// pattern kind 0 is `hasLabel`, 1–4 a `*` path, 5 a relation
    /// variable `$p`, otherwise a plain triple with a constant relation.
    fn render_where(patterns: &[GenPattern], ont: &Ontology) -> String {
        let v = ont.vocab();
        let elems: Vec<&str> = v.elems().map(|e| v.elem_name(e)).collect();
        let rels: Vec<&str> = v
            .rels()
            .map(|r| v.rel_name(r))
            .filter(|&r| r != crate::bind::HAS_LABEL)
            .collect();
        let term = |(kind, i): (usize, usize)| match kind {
            0..=2 => ["$x", "$y", "$a"][i % 3].to_owned(),
            3 | 4 => format!("\"{}\"", elems[i % elems.len()]),
            _ => "[]".to_owned(),
        };
        let text: Vec<String> = patterns
            .iter()
            .map(|&(kind, s, r, o)| {
                let rel = rels[r % rels.len()];
                match kind {
                    0 => {
                        let label = ["child-friendly", "no-such-label"][r % 2];
                        format!("{} hasLabel \"{label}\"", term(s))
                    }
                    1..=4 => format!("{} {rel}* {}", term(s), term(o)),
                    5 => format!("{} $p {}", term(s), term(o)),
                    _ => format!("{} {rel} {}", term(s), term(o)),
                }
            })
            .collect();
        text.join(". ")
    }

    /// Drops trailing patterns until the reference search is small enough
    /// to run: the product of each pattern's standalone match count bounds
    /// the number of complete bindings the whole-clause search visits.
    fn within_reference_budget(src: &str, ont: &Ontology) -> bool {
        let b = bind(&parse(src).unwrap(), ont).unwrap();
        let mut leaves = 1usize;
        for pi in 0..b.where_patterns.len() {
            let mut ev = Evaluator::new(&b, ont, MatchMode::Semantic);
            let mut bindings = vec![None; b.vars.len()];
            ev.solve(&mut bindings, &mut vec![pi]);
            leaves = leaves.saturating_mul(ev.results.len().max(1));
        }
        leaves <= 200_000
    }

    fn gen_patterns() -> impl proptest::strategy::Strategy<Value = Vec<GenPattern>> {
        let term = || (0usize..6, 0usize..512);
        proptest::collection::vec((0usize..10, term(), 0usize..64, term()), 0..5)
    }

    /// The longest prefix of `patterns` whose clause (followed by `sat`,
    /// which starts at `SATISFYING`) fits the reference budget.
    fn budgeted_query(patterns: &[GenPattern], sat: &str, ont: &Ontology) -> String {
        (0..=patterns.len())
            .rev()
            .map(|n| {
                format!(
                    "SELECT FACT-SETS WHERE {} {sat}",
                    render_where(&patterns[..n], ont)
                )
            })
            .find(|src| within_reference_budget(src, ont))
            .expect("the empty clause fits")
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(96))]

        #[test]
        fn factored_evaluation_matches_the_reference_on_figure_1(patterns in gen_patterns()) {
            let ont = figure1::ontology();
            let src = budgeted_query(&patterns, "SATISFYING $x doAt $y WITH SUPPORT = 0.2", &ont);
            let verdict = assert_matches_reference(&src, &ont);
            proptest::prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }

        #[test]
        fn factored_evaluation_matches_the_reference_on_synthetic_domains(
            patterns in gen_patterns(),
            width in 2usize..8,
            depth in 2usize..5,
            mult in proptest::arbitrary::any::<bool>(),
        ) {
            let d = if mult {
                oassis_core::synth::synthetic_domain_mult(width, depth, 0)
            } else {
                oassis_core::synth::synthetic_domain(width, depth, 0)
            };
            let sat = &d.query[d.query.find("SATISFYING").unwrap()..];
            let src = budgeted_query(&patterns, sat, &d.ontology);
            let verdict = assert_matches_reference(&src, &d.ontology);
            proptest::prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }
    }
}
