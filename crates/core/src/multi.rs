//! The multi-user evaluation engine (Section 4.2) — the paper's
//! `QueueManager`.
//!
//! Each crowd member traverses the assignments in the same top-down order
//! as the single-user algorithm, "but inferences are done based on the
//! globally collected knowledge":
//!
//! 1. the per-member loop can terminate at any point (members leave);
//! 2. answers are recorded per assignment;
//! 3. significance is decided by a black-box [`Aggregator`];
//! 4. a member is only asked about successors of φ if φ is significant
//!    *for them* and not overall insignificant;
//! 5. an assignment joins the output when it becomes an overall MSP.
//!
//! Members start their traversal "from the overall most general
//! assignment (even if it is already classified)" and navigate to a
//! minimal unclassified one — when a general assignment is insignificant
//! for a member, its typically many successors are pruned *for that user*.

use crate::aggregate::{AggVerdict, Aggregator};
use crate::baselines::MspMonitor;
use crate::classify::{Class, Classifier};
use crate::dag::{Dag, NodeId};
use crate::manifest::{Asked, Asker, QuestionStats};
use crate::oplog::{OpLog, OpVerdict};
use crate::vertical::{DiscoveryEvent, MiningConfig, MiningOutcome, ValidTracker};
use crowd::{CrowdSource, MemberId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};

/// Outcome of a multi-user run.
#[derive(Debug)]
pub struct MultiOutcome {
    /// The shared mining outcome (MSPs, questions, events, …).
    pub mining: MiningOutcome,
    /// Answer-mix statistics.
    pub question_stats: QuestionStats,
    /// Questions answered per *recruited* member (when the query carries
    /// an `ASKING` clause, only profile-matching members are recruited, so
    /// this can be shorter than the crowd).
    pub answers_per_member: Vec<usize>,
    /// Materialized nodes still unclassified when the run stopped
    /// (non-zero when the crowd was exhausted before convergence).
    pub undecided: usize,
    /// Rounds in which at least one question was asked. With a batch
    /// width above one, each member answers up to `batch_width` questions
    /// per round, so fewer rounds should reach the same MSP set.
    pub rounds: usize,
}

struct MemberState {
    id: MemberId,
    personal: Classifier,
    answered: HashSet<NodeId>,
    /// Significant nodes whose children this member already enqueued
    /// (guards the lazy descent in `next_target` against re-pushing).
    descended: HashSet<NodeId>,
    active: bool,
    /// High-priority frontier: children of nodes that became *overall*
    /// significant — answering these drives assignments to quorum.
    hot: VecDeque<NodeId>,
    /// Low-priority frontier: the roots plus this member's personal
    /// descent (successors of nodes significant *for them* but not yet
    /// overall) — served only when no quorum work is pending, so that a
    /// single member's idiosyncratic habits don't starve the crowd's
    /// shared progress.
    /// NOTE: the queues may hold duplicates (shared children of several
    /// significant parents, re-descents, and the revisit re-push of a
    /// specialization-question base). Deduplicating at push time is *not*
    /// order-preserving — a re-pushed base could previously be consumed at
    /// a mid-queue duplicate's earlier position — so duplicates are kept
    /// and filtered on pop instead. With the classifier's cached indexed
    /// lookups that pop-side `class()` filter is O(1), so the duplicates
    /// cost a queue slot, not a witness scan.
    cold: VecDeque<NodeId>,
}

/// The globally collected knowledge every member's answers feed.
struct Global<'a, A> {
    aggregator: &'a A,
    threshold: f64,
    answers: HashMap<NodeId, Vec<(MemberId, f64)>>,
    cls: Classifier,
    tracker: ValidTracker,
    events: Vec<DiscoveryEvent>,
    /// Nodes that became globally significant since the last fan-out.
    newly_significant: Vec<NodeId>,
    oplog: OpLog,
    /// Asks the crowd, counts questions and keeps the degradation record.
    /// A give-up only removes *that member's* vote — another member (or a
    /// later inference) can still classify the node.
    ask: Asker,
}

impl<A: Aggregator> Global<'_, A> {
    /// Logs `member`'s support for `node` and classifies the node once the
    /// aggregator decides it.
    fn record_answer(&mut self, dag: &mut Dag<'_>, node: NodeId, member: MemberId, support: f64) {
        let questions = self.ask.questions();
        self.oplog
            .record(questions, member, node, OpVerdict::Support { support });
        let entry = self.answers.entry(node).or_default();
        entry.push((member, support));
        let verdict = self.aggregator.verdict(entry, self.threshold);
        if verdict == AggVerdict::Undecided || self.cls.class(dag, node) != Class::Unknown {
            return;
        }
        let sig = verdict == AggVerdict::Significant;
        if sig {
            self.cls.mark_significant(dag, node);
            self.newly_significant.push(node);
        } else {
            self.cls.mark_insignificant(dag, node);
        }
        if self.tracker.witness(dag, node, sig) {
            self.events.push(DiscoveryEvent {
                question: questions,
                kind: crate::vertical::DiscoveryKind::ValidClassified {
                    total: self.tracker.total_classified,
                },
            });
        }
    }
}

impl MemberState {
    fn queue(&mut self, hot: bool) -> &mut VecDeque<NodeId> {
        if hot {
            &mut self.hot
        } else {
            &mut self.cold
        }
    }
}

/// Runs the multi-user algorithm.
pub fn run_multi<C: CrowdSource, A: Aggregator>(
    dag: &mut Dag<'_>,
    crowd: &mut C,
    aggregator: &A,
    cfg: &MiningConfig,
) -> MultiOutcome {
    let threshold = cfg.threshold.unwrap_or(dag.query().threshold);
    let root = cfg.telemetry.span("mine.multi");
    let tele = root.tele().clone();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut g = Global {
        aggregator,
        threshold,
        answers: HashMap::new(),
        cls: Classifier::new(),
        tracker: ValidTracker::new(dag)
            .with_pool(cfg.pool)
            .with_telemetry(tele.clone()),
        events: Vec::new(),
        newly_significant: Vec::new(),
        oplog: OpLog::new(threshold, true),
        ask: Asker::new(cfg.policy),
    };
    let mut monitor = MspMonitor::new();
    let mut msp_ids: Vec<NodeId> = Vec::new();
    let mut rounds = 0usize;
    // ops already handed to cfg.op_tap (a prefix of oplog.ops())
    let mut tap_flushed = 0usize;
    // member of the most recent answered question: MSPs confirmed by the
    // final monitor sweep are logged under it, keeping every tick's ops
    // single-member (the canonical merge order then matches recording
    // order exactly).
    let mut last_member = MemberId(0);
    let mut global_decisions = 0usize;

    let roots: VecDeque<NodeId> = dag.roots().iter().copied().collect();
    let asking = dag.query().asking.clone();
    let mut members: Vec<MemberState> = crowd
        .members()
        .into_iter()
        .filter(|&id| match &asking {
            // ASKING "label": only profile-matching members are recruited
            Some(label) => crowd.member_has_profile(id, label),
            None => true,
        })
        .map(|id| MemberState {
            id,
            personal: Classifier::new_lazy(),
            answered: HashSet::new(),
            descended: HashSet::new(),
            active: true,
            hot: roots.clone(),
            cold: VecDeque::new(),
        })
        .collect();
    let mut per_member: Vec<usize> = vec![0; members.len()];

    'outer: loop {
        let _round = tele.span("round");
        let tele = _round.tele();
        let mut asked_this_round = 0usize;
        // a round that only gave up still made monotone progress (the
        // member's `answered` set grew), so it is not a fixpoint
        let give_ups = g.ask.give_ups();
        for mi in 0..members.len() {
            if cfg.max_questions.is_some_and(|m| g.ask.questions() >= m) {
                break 'outer;
            }
            // PANIC-OK: `mi` ranges over 0..members.len() by construction.
            if !members[mi].active {
                continue;
            }
            let width = cfg.batch_width.max(1);
            let mut planned: Vec<NodeId> = Vec::with_capacity(width);
            if width == 1 {
                // PANIC-OK: `mi` is in bounds, as above.
                if let Some(t) = next_target(dag, &mut g.cls, &mut members[mi]) {
                    planned.push(t);
                }
            } else {
                // batch planning: collect up to `width` targets forming an
                // antichain under ≤. Comparable assignments can classify
                // each other (an answer about one may decide the other by
                // inference), so a comparable pop is deferred — pushed back
                // to the *front* of the hot queue, in pop order — rather
                // than asked redundantly in the same batch.
                let mut deferred: Vec<NodeId> = Vec::new();
                while planned.len() < width {
                    // PANIC-OK: `mi` is in bounds, as above.
                    let Some(t) = next_target(dag, &mut g.cls, &mut members[mi]) else {
                        break;
                    };
                    if planned.iter().any(|&p| dag.leq(p, t) || dag.leq(t, p)) {
                        deferred.push(t);
                    } else {
                        planned.push(t);
                    }
                }
                if !deferred.is_empty() {
                    tele.count("planner.deferred", deferred.len() as u64);
                    for &d in deferred.iter().rev() {
                        // PANIC-OK: `mi` is in bounds, as above.
                        members[mi].hot.push_front(d);
                    }
                }
                if !planned.is_empty() {
                    tele.count("planner.planned", planned.len() as u64);
                }
                if cfg.debug_checks {
                    for (i, &a) in planned.iter().enumerate() {
                        for &b in planned.iter().skip(i + 1) {
                            assert!(
                                !dag.leq(a, b) && !dag.leq(b, a),
                                "batch planner invariant violated: planned targets \
                                 {a:?} and {b:?} are ≤-comparable"
                            );
                        }
                    }
                }
            }
            for target in planned {
                if cfg.max_questions.is_some_and(|m| g.ask.questions() >= m) {
                    break 'outer;
                }
                // batch efficiency: an answer landing after an earlier answer
                // of the same batch already classified its target is redundant
                // (record_answer will ignore it)
                let redundant = width > 1 && {
                    let view = dag.view();
                    g.cls.class_frozen(&view, target) != Class::Unknown
                };
                // question-type policy: specialization with configured ratio
                let mut options: Vec<NodeId> = Vec::new();
                if cfg.specialization_ratio > 0.0 && rng.gen_bool(cfg.specialization_ratio) {
                    let span = dag.ensure_children(target);
                    for ci in 0..span.1 {
                        // PANIC-OK: `ci` ranges over the span's own length.
                        let c = dag.child_slice(span)[ci as usize];
                        if g.cls.class(dag, c) == Class::Unknown
                        // PANIC-OK: `mi` is in bounds, as above.
                        && !members[mi].answered.contains(&c)
                        // PANIC-OK: `mi` is in bounds, as above.
                        && members[mi].personal.class(dag, c) != Class::Insignificant
                        {
                            options.push(c);
                            if options.len() >= cfg.max_spec_options {
                                break;
                            }
                        }
                    }
                }
                // PANIC-OK: `mi` is in bounds, as above.
                let m = &mut members[mi];
                let mut ask = |options: &[NodeId]| {
                    ask_member(dag, crowd, &mut g, &cfg.pool, m, target, options, tele)
                };
                // a specialization question that got no answer falls back
                // to a concrete one
                let spec_asked = !options.is_empty() && ask(&options);
                let asked = spec_asked || ask(&[]);
                if spec_asked {
                    // the base itself is still unanswered by this member -
                    // revisit it later
                    m.hot.push_back(target);
                }
                if asked {
                    // PANIC-OK: per_member was sized to members.len().
                    per_member[mi] += 1;
                    asked_this_round += 1;
                    // PANIC-OK: `mi` is in bounds, as above.
                    last_member = members[mi].id;
                    if width > 1 {
                        tele.count(
                            if redundant {
                                "planner.redundant_answers"
                            } else {
                                "planner.useful_answers"
                            },
                            1,
                        );
                    }
                    // fan out the children of any node that just became
                    // globally significant to every member's queue (the
                    // QueueManager's frontier maintenance)
                    let had_transition = global_decisions != g.cls.decisions();
                    global_decisions = g.cls.decisions();
                    let newly: Vec<NodeId> = std::mem::take(&mut g.newly_significant);
                    for node in newly {
                        let span = dag.ensure_children(node);
                        // a sticky-Insignificant child would be skipped as a
                        // pure no-op on every member's pop — drop it once here
                        // instead of queueing it per member
                        let fresh: Vec<NodeId> = dag
                            .child_slice(span)
                            .iter()
                            .copied()
                            .filter(|&c| g.cls.cached_queried(c) != Some(Class::Insignificant))
                            .collect();
                        for ms in members.iter_mut() {
                            ms.hot.extend(fresh.iter().copied());
                        }
                    }
                    // MSP entailment can only change when a global
                    // classification changed
                    if had_transition {
                        let known = msp_ids.len();
                        let questions = g.ask.questions();
                        monitor.update(dag, &mut g.cls, questions, &mut g.events, &mut msp_ids);
                        // PANIC-OK: `known` was msp_ids.len() before the update; the
                        // monitor only appends, so the range is in bounds.
                        let confirmed = &msp_ids[known..];
                        g.oplog.record_msps(questions, last_member, dag, confirmed);
                        // TOP k early termination (Section 8 extension)
                        if let Some(k) = dag.query().top_k {
                            if !dag.query().diverse {
                                let valid = msp_ids.iter().filter(|&&m| dag.node(m).valid).count();
                                if valid >= k {
                                    break 'outer;
                                }
                            }
                        }
                    }
                }
                if cfg.debug_checks {
                    let questions = g.ask.questions();
                    let total = g.ask.stats().total();
                    assert!(
                        total == questions,
                        "simulation invariant violated: question stats total {total} != questions {questions}"
                    );
                    if let Some(mx) = cfg.max_questions {
                        assert!(
                        questions <= mx,
                        "simulation invariant violated: {questions} questions exceed the budget of {mx}"
                    );
                    }
                    if let Err(e) =
                        crate::invariants::check_classification_monotonicity(dag, &g.cls)
                    {
                        panic!("simulation invariant violated: {e}");
                    }
                    if let Err(e) = crate::invariants::check_msp_maximality(dag, &g.cls, &msp_ids) {
                        panic!("simulation invariant violated: {e}");
                    }
                }
            }
        }
        if asked_this_round > 0 {
            rounds += 1;
        }
        // round-boundary durability: hand freshly recorded ops to the
        // serving layer's tap — a crash after this point replays the
        // round, a crash before it loses only this round
        if let Some(tap) = &cfg.op_tap {
            let ops = g.oplog.ops();
            if tap_flushed < ops.len() {
                tap.append(dag, &ops[tap_flushed..]); // PANIC-OK: tap_flushed only ever takes values of ops.len(), which never shrinks.
                tap_flushed = ops.len();
            }
        }
        if asked_this_round == 0 && g.ask.give_ups() == give_ups {
            break;
        }
    }

    // The completeness check expands the remaining significant frontier,
    // which may generate children that are classified purely by inference;
    // a final monitor sweep then confirms the last MSPs.
    let complete =
        crate::vertical::find_minimal_unclassified(dag, &mut g.cls, &cfg.pool, &HashSet::new())
            .is_none();
    let questions = g.ask.questions();
    let known = msp_ids.len();
    monitor.update(dag, &mut g.cls, questions, &mut g.events, &mut msp_ids);
    // PANIC-OK: `known` was msp_ids.len() before the update; the monitor
    // only appends, so the range is in bounds.
    let confirmed = &msp_ids[known..];
    g.oplog.record_msps(questions, last_member, dag, confirmed);
    g.oplog.set_complete(complete);
    // final tap flush: the completeness sweep may have confirmed MSPs
    // after the last round boundary
    if let Some(tap) = &cfg.op_tap {
        let ops = g.oplog.ops();
        if tap_flushed < ops.len() {
            tap.append(dag, &ops[tap_flushed..]); // PANIC-OK: tap_flushed only ever takes values of ops.len(), which never shrinks.
        }
    }
    let manifest = g.ask.manifest(dag, &g.cls);
    let undecided = {
        // frozen sweep: no classification changes past this point, so the
        // count shards over the read-only view
        let view = dag.view();
        let ids: Vec<NodeId> = dag.node_ids().collect();
        cfg.pool
            .par_map(&ids, |&i| g.cls.class_frozen(&view, i) == Class::Unknown)
            .into_iter()
            .filter(|&u| u)
            .count()
    };
    let msps: Vec<crate::Assignment> = msp_ids
        .iter()
        .map(|&i| dag.node(i).assignment.clone())
        .collect();
    let valid_msps: Vec<crate::Assignment> = msp_ids
        .iter()
        .filter(|&&i| dag.node(i).valid)
        .map(|&i| dag.node(i).assignment.clone())
        .collect();
    let significant_valid = crate::vertical::significant_valid_assignments(dag, &g.cls, &cfg.pool);
    let total_valid = g.tracker.len();
    let valid_mult_nodes = dag
        .node_ids()
        .filter(|&i| dag.node(i).valid && !dag.node(i).assignment.is_base())
        .count();
    if tele.is_enabled() {
        let (hits, misses) = g.cls.cache_stats();
        tele.count("classifier.cache_hits", hits);
        tele.count("classifier.cache_misses", misses);
        let gs = dag.stats();
        tele.count("dag.nodes_created", gs.nodes_created as u64);
        tele.count("dag.nodes_expanded", gs.nodes_expanded as u64);
        tele.count("dag.admits_calls", gs.admits_calls as u64);
        tele.count(
            "validity.bases_classified",
            g.tracker.total_classified as u64,
        );
        for &n in &per_member {
            tele.observe("engine.answers_per_member", n as u64);
        }
    }
    MultiOutcome {
        mining: MiningOutcome {
            msps,
            valid_msps,
            significant_valid,
            total_valid,
            valid_mult_nodes,
            questions,
            events: g.events,
            gen_stats: dag.stats(),
            nodes_materialized: dag.len(),
            complete,
            manifest,
            ops: g.oplog,
        },
        question_stats: g.ask.stats(),
        answers_per_member: per_member,
        undecided,
        rounds,
    }
}

/// Finds the member's next question by draining their pending frontier:
/// nodes enter the queue when the member starts (the roots), when one of
/// the member's own answers is significant (personal descent), or when
/// any node becomes *overall* significant (fan-out in the main loop).
/// Nodes that are globally classified, personally excluded (rule 4 — the
/// personal classifier inherits insignificance downward), or already
/// answered are skipped on pop.
fn next_target(dag: &mut Dag<'_>, global: &mut Classifier, m: &mut MemberState) -> Option<NodeId> {
    for hot in [true, false] {
        while let Some(id) = m.queue(hot).pop_front() {
            // Most pops hit a node the crowd already classified — read the
            // sticky verdict straight from the cache and only fall back to
            // the full (stamping) lookup on unqueried nodes. Identical
            // values either way; the fast path skips per-call overhead on
            // the millions-of-pops filter.
            let cls = match global.cached_queried(id) {
                Some(c) => c,
                None => global.class(dag, id),
            };
            match cls {
                Class::Insignificant => continue,
                Class::Significant => {
                    // descend lazily: a node can become significant *by
                    // inference* (a spec-question jump decided a deeper
                    // witness first), in which case no fan-out transition
                    // ever fired for it — its children must still be
                    // explored.
                    if m.descended.insert(id) {
                        let span = dag.ensure_children(id);
                        // sticky-Insignificant children are pop-side no-ops
                        let children =
                            dag.child_slice(span).iter().copied().filter(|&c| {
                                global.cached_queried(c) != Some(Class::Insignificant)
                            });
                        m.queue(hot).extend(children);
                    }
                    continue;
                }
                Class::Unknown => {}
            }
            if m.personal.class(dag, id) == Class::Insignificant {
                continue;
            }
            if m.answered.contains(&id) {
                continue;
            }
            return Some(id);
        }
    }
    None
}

/// Asks member `m` about `target` — a specialization question offering
/// `options` when there are any, else a concrete question — and applies
/// the answer. Returns whether the member answered.
#[allow(clippy::too_many_arguments)]
fn ask_member<C: CrowdSource, A: Aggregator>(
    dag: &mut Dag<'_>,
    crowd: &mut C,
    g: &mut Global<'_, A>,
    pool: &minipool::Pool,
    m: &mut MemberState,
    target: NodeId,
    options: &[NodeId],
    tele: &telemetry::Telemetry,
) -> bool {
    let concrete = options.is_empty();
    let asked = if concrete {
        g.ask.concrete(dag, crowd, m.id, target, tele)
    } else {
        g.ask
            .specialization(dag, crowd, m.id, target, options, tele)
    };
    match asked {
        Asked::Support {
            node,
            support,
            more_tip,
        } => {
            m.answered.insert(node);
            if support >= g.threshold {
                m.personal.mark_significant(dag, node);
                if let Some(tip) = more_tip {
                    dag.attach_more_tip(node, tip);
                }
                // personal descent (rule 4): this member may be asked
                // about the successors — low priority, so quorum work on
                // the shared frontier runs first
                let span = dag.ensure_children(node);
                m.cold.extend(
                    dag.child_slice(span)
                        .iter()
                        .copied()
                        .filter(|&c| g.cls.cached_queried(c) != Some(Class::Insignificant)),
                );
            } else {
                m.personal.mark_insignificant(dag, node);
            }
            g.record_answer(dag, node, m.id, support);
        }
        Asked::NoneOfThese => {
            for &o in options {
                m.answered.insert(o);
                m.personal.mark_insignificant(dag, o);
                g.record_answer(dag, o, m.id, 0.0);
            }
        }
        Asked::Pruned(elem) => {
            let questions = g.ask.questions();
            g.oplog
                .record(questions, m.id, NodeId::SENTINEL, OpVerdict::NoAnswer);
            m.personal.prune_elem(dag, elem);
            if concrete {
                m.answered.insert(target);
                // The click answers *every* assignment involving the
                // element (or a specialization) at once for this member —
                // feed those implicit 0-answers to the aggregator for all
                // materialized nodes, so pruned cones reach quorum without
                // further questions (Section 6.2's bulk effect).
                for id in pruned_cone(dag, pool, elem) {
                    if m.answered.insert(id) {
                        g.record_answer(dag, id, m.id, 0.0);
                    }
                }
            }
        }
        Asked::Gone => {
            m.active = false;
            return false;
        }
        Asked::TimedOut => {
            // a concrete target this member gave up on (another member can
            // still answer it); a timed-out specialization question falls
            // back to a concrete probe of the base
            if concrete {
                m.answered.insert(target);
            }
            return false;
        }
    }
    true
}

/// The materialized nodes a pruning click on `elem` answers. A node holds
/// a specialization of `elem` in some slot exactly when `elem`'s bit is
/// set in that slot's ancestor-closure fingerprint, so the per-node test
/// is one bit probe per slot. The probe is a pure read, sharded across
/// the pool and merged back in node-id order.
fn pruned_cone(dag: &Dag<'_>, pool: &minipool::Pool, elem: ontology::ElemId) -> Vec<NodeId> {
    let view = dag.view();
    let vocab = view.vocab();
    let space = view.fp_space();
    let wps = space.words_per_slot();
    let ebit_word = elem.index() / 64;
    let ebit_mask = 1u64 << (elem.index() % 64);
    let ids: Vec<NodeId> = view.node_ids().collect();
    let hits = pool.par_map(&ids, |&id| {
        let words = view.fp_words(id);
        let hit_value = (0..space.num_slots()).any(|si| {
            // PANIC-OK: fingerprint layout fixes words.len() at
            // num_slots * wps with ebit_word < elem_words <= wps.
            words[si * wps + ebit_word] & ebit_mask != 0
        });
        hit_value
            || view
                .node(id)
                .assignment
                .more()
                .iter()
                .any(|f| vocab.elem_leq(elem, f.subject) || vocab.elem_leq(elem, f.object))
    });
    ids.into_iter()
        .zip(hits)
        .filter_map(|(id, hit)| hit.then_some(id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::FixedSampleAggregator;
    use crate::synth::{plant_msps, synthetic_domain, MspDistribution, PlantedOracle};
    use crowd::{AnswerModel, MemberBehavior, PersonalDb, SimulatedCrowd, SimulatedMember};
    use oassis_ql::{bind, evaluate_where, parse, MatchMode};
    use ontology::domains::figure1;

    /// The u_avg member of Example 4.6: D_u1 plus three copies of D_u2
    /// makes every support the exact average of u1 and u2.
    fn u_avg(ont: &ontology::Ontology, seed: u64) -> SimulatedMember {
        let [d1, d2] = figure1::personal_dbs(ont);
        let mut tx = d1;
        for _ in 0..3 {
            tx.extend(d2.iter().cloned());
        }
        SimulatedMember::new(
            PersonalDb::from_transactions(tx),
            MemberBehavior::default(),
            AnswerModel::Exact,
            seed,
        )
    }

    #[test]
    fn two_member_running_example() {
        // Two identical averaged members with a 2-answer quorum: the
        // multi-user engine must converge to the single-user MSPs.
        let ont = figure1::ontology();
        let q = parse(figure1::SIMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let members = vec![u_avg(&ont, 1), u_avg(&ont, 2)];
        let mut crowd = SimulatedCrowd::new(ont.vocab(), members);
        let agg = FixedSampleAggregator { sample_size: 2 };
        let out = run_multi(&mut dag, &mut crowd, &agg, &MiningConfig::default());
        assert!(out.mining.complete, "undecided: {}", out.undecided);
        let rendered: Vec<String> = out
            .mining
            .msps
            .iter()
            .map(|m| m.apply(&b).to_display(ont.vocab()))
            .collect();
        assert!(
            rendered.iter().any(|r| r == "Biking doAt Central Park"),
            "{rendered:?}"
        );
        assert!(rendered.iter().any(|r| r == "Ball Game doAt Central Park"));
        assert!(rendered.iter().any(|r| r == "Feed a Monkey doAt Bronx Zoo"));
        assert!(!rendered.iter().any(|r| r.contains("Basketball")));
        // both members contributed
        assert!(out.answers_per_member.iter().all(|&n| n > 0));
        assert_eq!(out.question_stats.total(), out.mining.questions);
    }

    #[test]
    fn rule_4_keeps_personally_insignificant_regions_unexplored() {
        // With the real u1/u2 and a 2-answer quorum, successors of a node
        // that is insignificant for one member can never reach quorum —
        // the run ends incomplete with undecided nodes, and the member
        // was never asked below their personal cut (rule 4 of §4.2).
        let ont = figure1::ontology();
        let q = parse(figure1::SIMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let [d1, d2] = figure1::personal_dbs(&ont);
        let members = vec![
            SimulatedMember::new(
                PersonalDb::from_transactions(d1),
                MemberBehavior::default(),
                AnswerModel::Exact,
                1,
            ),
            SimulatedMember::new(
                PersonalDb::from_transactions(d2),
                MemberBehavior::default(),
                AnswerModel::Exact,
                2,
            ),
        ];
        let mut crowd = SimulatedCrowd::new(ont.vocab(), members);
        let agg = FixedSampleAggregator { sample_size: 2 };
        let out = run_multi(&mut dag, &mut crowd, &agg, &MiningConfig::default());
        // (CP, Biking) is personally insignificant for u1 (1/3 < 0.4) but
        // globally significant (5/12): its multiplicity successors get at
        // most one answer and stay undecided.
        assert!(!out.mining.complete);
        assert!(out.undecided > 0);
    }

    #[test]
    fn multi_user_agrees_with_single_oracle_user() {
        let d = synthetic_domain(100, 5, 0);
        let q = parse(&d.query).unwrap();
        let b = bind(&q, &d.ontology).unwrap();
        let base = evaluate_where(&b, &d.ontology, MatchMode::Exact);
        let mut full = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        full.materialize_all();
        let planted = plant_msps(&mut full, 6, true, MspDistribution::Uniform, 5);
        let patterns: Vec<_> = planted
            .iter()
            .map(|&id| full.node(id).assignment.apply(&b))
            .collect();

        // 5 identical oracle members, aggregator requires 5 answers
        let mut dag = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        let mut oracle = PlantedOracle::new(d.ontology.vocab(), patterns.clone(), 5, 0);
        let agg = FixedSampleAggregator { sample_size: 5 };
        let out = run_multi(&mut dag, &mut oracle, &agg, &MiningConfig::default());
        assert!(out.mining.complete);
        let got: HashSet<String> = out
            .mining
            .msps
            .iter()
            .map(|m| m.apply(&b).to_display(d.ontology.vocab()))
            .collect();
        let expected: HashSet<String> = planted
            .iter()
            .map(|&id| {
                full.node(id)
                    .assignment
                    .apply(&b)
                    .to_display(d.ontology.vocab())
            })
            .collect();
        assert_eq!(got, expected);
        // every classified node took 5 answers: questions ≈ 5 × unique
        assert!(out.mining.questions >= 5);
    }

    #[test]
    fn members_leaving_leaves_undecided_nodes() {
        let ont = figure1::ontology();
        let q = parse(figure1::SIMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let [d1, d2] = figure1::personal_dbs(&ont);
        let members = vec![
            SimulatedMember::new(
                PersonalDb::from_transactions(d1),
                MemberBehavior {
                    session_limit: Some(2),
                    ..Default::default()
                },
                AnswerModel::Exact,
                1,
            ),
            SimulatedMember::new(
                PersonalDb::from_transactions(d2),
                MemberBehavior {
                    session_limit: Some(2),
                    ..Default::default()
                },
                AnswerModel::Exact,
                2,
            ),
        ];
        let mut crowd = SimulatedCrowd::new(ont.vocab(), members);
        let agg = FixedSampleAggregator { sample_size: 2 };
        let out = run_multi(&mut dag, &mut crowd, &agg, &MiningConfig::default());
        assert!(!out.mining.complete);
        assert!(out.undecided > 0);
        assert!(out.mining.questions <= 4);
    }

    #[test]
    fn disagreeing_members_average_out() {
        // u1's personal support for Feed-a-Monkey@BronxZoo is 3/6 = 0.5;
        // u2's is 0.5 too. For Pasta@Pine: u1 = 2/6, u2 = 1/2 →
        // avg ≈ 0.417 ≥ 0.4. For Biking: avg = 5/12 ≥ 0.4 even though u1
        // alone (1/3) is below the threshold — the aggregate decides.
        let ont = figure1::ontology();
        let src = r#"
SELECT FACT-SETS
WHERE
  $y subClassOf* Activity
SATISFYING
  $y doAt "Central Park"
WITH SUPPORT = 0.4
"#;
        let q = parse(src).unwrap();
        let b = bind(&q, &ont).unwrap();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let [d1, d2] = figure1::personal_dbs(&ont);
        let members = vec![
            SimulatedMember::new(
                PersonalDb::from_transactions(d1),
                MemberBehavior::default(),
                AnswerModel::Exact,
                1,
            ),
            SimulatedMember::new(
                PersonalDb::from_transactions(d2),
                MemberBehavior::default(),
                AnswerModel::Exact,
                2,
            ),
        ];
        let mut crowd = SimulatedCrowd::new(ont.vocab(), members);
        let agg = FixedSampleAggregator { sample_size: 2 };
        let out = run_multi(&mut dag, &mut crowd, &agg, &MiningConfig::default());
        let rendered: Vec<String> = out
            .mining
            .msps
            .iter()
            .map(|m| m.apply(&b).to_display(ont.vocab()))
            .collect();
        // Biking is an MSP despite u1 alone being under the threshold
        assert!(
            rendered.iter().any(|r| r == "Biking doAt Central Park"),
            "{rendered:?}"
        );
    }
}
