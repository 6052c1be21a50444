//! The engines' shared ask step: question construction, the retry loop of
//! the crowd access policy, question counting, and partial-answer
//! manifests.
//!
//! When a question times out ([`Answer::NoResponse`]) the engines retry it
//! under the run's [`CrowdPolicy`] with deterministic exponential backoff;
//! once retries are exhausted they *give up on the question*, leave the
//! pattern [`Unknown`](crate::Class::Unknown), and record it here. A run
//! that hit faults therefore terminates normally with
//! `complete == false` and a manifest listing exactly which patterns went
//! unanswered — it never panics and never silently claims completeness.

use crate::assignment::Assignment;
use crate::classify::{Class, Classifier};
use crate::dag::{Dag, NodeId};
use crowd::{Answer, CrowdPolicy, CrowdSource, MemberId, Question};
use ontology::{ElemId, Fact};
use std::collections::HashSet;

/// Question-type bookkeeping (the answer-mix statistics of Section 6.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuestionStats {
    /// Concrete questions answered with a support value.
    pub concrete: usize,
    /// Specialization questions answered with a chosen option.
    pub specialization: usize,
    /// Specialization questions answered "none of these".
    pub none_of_these: usize,
    /// User-guided pruning clicks.
    pub pruning: usize,
}

impl QuestionStats {
    /// Total answered questions.
    pub fn total(&self) -> usize {
        self.concrete + self.specialization + self.none_of_these + self.pruning
    }
}

/// What a mining run could *not* find out, and how hard it tried.
///
/// Empty (the default) on every fault-free run, so adding it to
/// [`MiningOutcome`](crate::MiningOutcome) changes no existing digest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PartialManifest {
    /// Asks that timed out (including ones later answered on retry).
    pub timeouts: usize,
    /// Re-asks issued by the retry policy.
    pub retries: usize,
    /// Patterns the run gave up on that ended the run still unclassified
    /// (deduplicated, in first-give-up order). Patterns abandoned by one
    /// member but later classified through another member or by inference
    /// are *not* listed — they are answered, just not by the member that
    /// stalled.
    pub unanswered: Vec<Assignment>,
}

impl PartialManifest {
    /// Whether the run experienced no degradation at all.
    pub fn is_empty(&self) -> bool {
        self.timeouts == 0 && self.retries == 0 && self.unanswered.is_empty()
    }
}

/// What one ask produced, before the engine reacts to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Asked {
    /// The member's support for `node`: the concrete target, or the
    /// chosen option of a specialization question (which never carries a
    /// *more* tip).
    Support {
        node: NodeId,
        support: f64,
        more_tip: Option<Fact>,
    },
    /// "None of these" to a specialization question.
    NoneOfThese,
    /// A pruning click on the element.
    Pruned(ElemId),
    /// The member left the session.
    Gone,
    /// The member stalled past the retry budget. Nothing was classified;
    /// for a concrete question the target is recorded as given up.
    TimedOut,
}

/// The crowd-facing half of an engine step, shared by every engine:
/// builds the question from node ids, asks it under the run's
/// [`CrowdPolicy`], counts answered questions, clamps the crowd-supplied
/// specialization choice, and keeps the degradation record that
/// [`Asker::manifest`] turns into the run's [`PartialManifest`].
#[derive(Default)]
pub(crate) struct Asker {
    policy: CrowdPolicy,
    questions: usize,
    stats: QuestionStats,
    timeouts: usize,
    retries: usize,
    /// Nodes given up on, deduplicated, in first-give-up order.
    gave_up: Vec<NodeId>,
    gave_up_set: HashSet<NodeId>,
    /// Give-up events, duplicates included.
    give_ups: usize,
}

impl Asker {
    pub fn new(policy: CrowdPolicy) -> Self {
        Asker {
            policy,
            ..Asker::default()
        }
    }

    /// Answered questions so far.
    pub fn questions(&self) -> usize {
        self.questions
    }

    /// Answered questions by kind.
    pub fn stats(&self) -> QuestionStats {
        self.stats
    }

    /// Nodes a concrete question gave up on.
    pub fn gave_up_set(&self) -> &HashSet<NodeId> {
        &self.gave_up_set
    }

    /// Give-ups so far, counting a node once per give-up.
    pub fn give_ups(&self) -> usize {
        self.give_ups
    }

    /// Asks `member` a concrete question about `node`.
    pub fn concrete<C: CrowdSource>(
        &mut self,
        dag: &Dag<'_>,
        crowd: &mut C,
        member: MemberId,
        node: NodeId,
        tele: &telemetry::Telemetry,
    ) -> Asked {
        let question = Question::Concrete {
            pattern: dag.node(node).assignment.apply(dag.query()),
        };
        match self.ask(crowd, member, &question, tele) {
            Answer::Support { support, more_tip } => {
                self.stats.concrete += 1;
                self.count("questions.concrete", tele);
                Asked::Support {
                    node,
                    support,
                    more_tip,
                }
            }
            Answer::Irrelevant { elem } => {
                self.stats.pruning += 1;
                self.count("questions.pruning", tele);
                Asked::Pruned(elem)
            }
            Answer::Unavailable => Asked::Gone,
            Answer::NoResponse => {
                // retries exhausted: give up, leave the pattern Unknown
                self.give_ups += 1;
                if self.gave_up_set.insert(node) {
                    self.gave_up.push(node);
                }
                Asked::TimedOut
            }
            Answer::Specialized { .. } | Answer::NoneOfThese => {
                unreachable!("specialization answer to a concrete question")
            }
        }
    }

    /// Asks `member` a specialization question at `base` offering
    /// `options`, which must be non-empty. A timeout records no give-up:
    /// the engines fall back to a concrete probe, whose own give-up
    /// guarantees progress.
    pub fn specialization<C: CrowdSource>(
        &mut self,
        dag: &Dag<'_>,
        crowd: &mut C,
        member: MemberId,
        base: NodeId,
        options: &[NodeId],
        tele: &telemetry::Telemetry,
    ) -> Asked {
        let question = Question::Specialization {
            base: dag.node(base).assignment.apply(dag.query()),
            options: options
                .iter()
                .map(|&o| dag.node(o).assignment.apply(dag.query()))
                .collect(),
        };
        match self.ask(crowd, member, &question, tele) {
            Answer::Specialized { choice, support } => {
                self.stats.specialization += 1;
                self.count("questions.specialization", tele);
                Asked::Support {
                    // PANIC-OK: callers pass a non-empty options slice and
                    // the clamp keeps any crowd-supplied choice in bounds.
                    node: options[choice.min(options.len() - 1)],
                    support,
                    more_tip: None,
                }
            }
            Answer::NoneOfThese => {
                self.stats.none_of_these += 1;
                self.count("questions.none_of_these", tele);
                Asked::NoneOfThese
            }
            Answer::Irrelevant { elem } => {
                self.stats.pruning += 1;
                self.count("questions.pruning", tele);
                Asked::Pruned(elem)
            }
            Answer::Unavailable => Asked::Gone,
            Answer::NoResponse => Asked::TimedOut,
            Answer::Support { .. } => unreachable!("support answer to a specialization question"),
        }
    }

    /// The run's manifest. A frozen sweep: a gave-up node that another
    /// member or a later inference classified is answered, not missing.
    pub fn manifest(&self, dag: &Dag<'_>, cls: &Classifier) -> PartialManifest {
        let view = dag.view();
        PartialManifest {
            timeouts: self.timeouts,
            retries: self.retries,
            unanswered: self
                .gave_up
                .iter()
                .copied()
                .filter(|&id| cls.class_frozen(&view, id) == Class::Unknown)
                .map(|id| view.node(id).assignment.clone())
                .collect(),
        }
    }

    /// Counts one answered question: `engine.questions` plus the
    /// per-kind `questions.*` counter, named after its [`QuestionStats`]
    /// field.
    fn count(&mut self, kind: &'static str, tele: &telemetry::Telemetry) {
        self.questions += 1;
        tele.count("engine.questions", 1);
        tele.count(kind, 1);
    }

    /// Asks `question`, retrying timeouts under the policy: each
    /// `NoResponse` counts a timeout; before each retry the backoff is
    /// signalled to the source via [`CrowdSource::advance_clock`] and a
    /// retry is counted. Returns the first non-timeout answer, or
    /// [`Answer::NoResponse`] once the retry budget is spent.
    ///
    /// Every ask is wrapped in a telemetry span named `"question"` whose
    /// detail is the question kind; timeouts and retries additionally emit
    /// `"timeout"` / `"retry"` marks plus `crowd.*` counters, so a recorded
    /// trace can be replayed against the run's [`PartialManifest`].
    fn ask<C: CrowdSource>(
        &mut self,
        crowd: &mut C,
        member: MemberId,
        question: &Question,
        tele: &telemetry::Telemetry,
    ) -> Answer {
        let kind = match question {
            Question::Concrete { .. } => "concrete",
            Question::Specialization { .. } => "specialization",
        };
        let span = tele.span_with("question", kind);
        let tele = span.tele();
        let mut attempt = 0u32;
        loop {
            let answer = crowd.ask(member, question);
            if !matches!(answer, Answer::NoResponse) {
                tele.observe("crowd.attempts_per_question", u64::from(attempt) + 1);
                return answer;
            }
            self.timeouts += 1;
            tele.mark("timeout", kind);
            tele.count("crowd.timeouts", 1);
            if attempt >= self.policy.max_retries {
                tele.count("crowd.gave_up", 1);
                tele.observe("crowd.attempts_per_question", u64::from(attempt) + 1);
                return Answer::NoResponse;
            }
            let backoff = self.policy.backoff(attempt);
            crowd.advance_clock(backoff);
            tele.mark("retry", kind);
            tele.count("crowd.retries", 1);
            tele.count("crowd.backoff_ticks", backoff);
            self.retries += 1;
            attempt += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::FixedSampleAggregator;
    use crate::oplog::OpVerdict;
    use crate::vertical::MiningConfig;
    use oassis_ql::{bind, evaluate_where, parse, MatchMode};
    use ontology::domains::figure1;
    use telemetry::{Telemetry, TelemetrySink};

    /// One member answering from `script`, then with `rest`.
    struct Scripted {
        script: Vec<Answer>,
        rest: fn(&Question) -> Answer,
        asked: Vec<Question>,
    }

    impl Scripted {
        fn new(script: Vec<Answer>, rest: fn(&Question) -> Answer) -> Self {
            let asked = Vec::new();
            Scripted {
                script,
                rest,
                asked,
            }
        }
    }

    impl CrowdSource for Scripted {
        fn members(&self) -> Vec<MemberId> {
            vec![MemberId(0)]
        }

        fn ask(&mut self, _member: MemberId, question: &Question) -> Answer {
            self.asked.push(question.clone());
            if self.script.is_empty() {
                (self.rest)(question)
            } else {
                self.script.remove(0)
            }
        }

        fn questions_asked(&self) -> usize {
            self.asked.len()
        }
    }

    #[test]
    fn every_answer_kind_is_counted_and_degraded_as_documented() {
        let ont = figure1::ontology();
        let b = bind(&parse(figure1::SIMPLE_QUERY).unwrap(), &ont).unwrap();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let root = dag.roots()[0];
        let options = dag.children(root);
        let last = *options.last().unwrap();
        let tip = Some(Fact::new(ElemId(1), ontology::RelId(0), ElemId(2)));
        let said = |support, more_tip| Answer::Support { support, more_tip };
        let chose = |choice| Answer::Specialized {
            choice,
            support: 0.5,
        };
        let at = |node, support, more_tip| Asked::Support {
            node,
            support,
            more_tip,
        };
        let (stall, prune) = (Answer::NoResponse, Answer::Irrelevant { elem: ElemId(3) });
        let [conc, spec, none, pruning] = [
            "questions.concrete",
            "questions.specialization",
            "questions.none_of_these",
            "questions.pruning",
        ]
        .map(Some);
        let clean = (0, 0, 0);
        // (specialization?, script, result, counter moved,
        //  (give-ups, timeouts, retries))
        #[rustfmt::skip]
        let cases = [
            (false, vec![said(0.5, tip)], at(root, 0.5, tip), conc, clean),
            // one timeout, answered on the retry
            (false, vec![stall.clone(), said(0.25, None)], at(root, 0.25, None), conc, (0, 1, 1)),
            (false, vec![prune.clone()], Asked::Pruned(ElemId(3)), pruning, clean),
            (false, vec![Answer::Unavailable], Asked::Gone, None, clean),
            // retries exhausted: the still-unknown target is unanswered
            (false, vec![stall.clone(); 3], Asked::TimedOut, None, (1, 3, 2)),
            (true, vec![chose(0)], at(options[0], 0.5, None), spec, clean),
            // an out-of-range choice from the crowd selects the last option
            (true, vec![chose(usize::MAX)], at(last, 0.5, None), spec, clean),
            (true, vec![Answer::NoneOfThese], Asked::NoneOfThese, none, clean),
            (true, vec![prune], Asked::Pruned(ElemId(3)), pruning, clean),
            (true, vec![Answer::Unavailable], Asked::Gone, None, clean),
            // a stalled specialization question records no give-up
            (true, vec![stall; 3], Asked::TimedOut, None, (0, 3, 2)),
        ];
        for (is_spec, script, want, counter, (give_ups, timeouts, retries)) in cases {
            let sink = TelemetrySink::shared();
            let tele = Telemetry::recording(&sink);
            let crowd = &mut Scripted::new(script, |_| Answer::Unavailable);
            let mut ask = Asker::new(CrowdPolicy::default());
            let got = if is_spec {
                ask.specialization(&dag, crowd, MemberId(0), root, &options, &tele)
            } else {
                ask.concrete(&dag, crowd, MemberId(0), root, &tele)
            };
            let case = format!("{:?}", crowd.asked.last());
            assert_eq!(got, want, "{case}");
            assert!(crowd.script.is_empty(), "{case}: script left over");
            let counted = usize::from(counter.is_some());
            assert_eq!(ask.questions(), counted, "{case}");
            assert_eq!(sink.counter("engine.questions"), counted as u64, "{case}");
            let s = ask.stats();
            let fields = [s.concrete, s.specialization, s.none_of_these, s.pruning];
            for (name, field) in [conc, spec, none, pruning].into_iter().zip(fields) {
                let moved = usize::from(name == counter);
                let value = sink.counter(name.unwrap());
                assert_eq!((field, value), (moved, moved as u64), "{case}: {name:?}");
            }
            let manifest = ask.manifest(&dag, &Classifier::new());
            assert_eq!(ask.give_ups(), give_ups, "{case}");
            assert_eq!(manifest.unanswered.len(), give_ups, "{case}");
            assert_eq!(
                (manifest.timeouts, manifest.retries),
                (timeouts, retries),
                "{case}"
            );
        }
    }

    #[test]
    fn both_engines_log_an_out_of_range_choice_as_the_last_option() {
        let ont = figure1::ontology();
        let b = bind(&parse(figure1::SIMPLE_QUERY).unwrap(), &ont).unwrap();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let cfg = MiningConfig {
            specialization_ratio: 1.0,
            max_questions: Some(4),
            ..MiningConfig::default()
        };
        // every support is 1; every specialization answer is out of range
        let rest = |q: &Question| match q {
            Question::Concrete { .. } => Answer::Support {
                support: 1.0,
                more_tip: None,
            },
            Question::Specialization { .. } => Answer::Specialized {
                choice: usize::MAX,
                support: 1.0,
            },
        };
        for multi in [false, true] {
            let mut dag = Dag::new(&b, ont.vocab(), &base);
            let crowd = &mut Scripted {
                script: Vec::new(),
                rest,
                asked: Vec::new(),
            };
            let ops = if multi {
                let agg = FixedSampleAggregator { sample_size: 1 };
                crate::run_multi(&mut dag, crowd, &agg, &cfg).mining.ops
            } else {
                crate::run_vertical(&mut dag, crowd, MemberId(0), &cfg).ops
            };
            // the first specialization question and its 1-based tick
            let (tick, last) = (crowd.asked.iter().zip(1..))
                .find_map(|(q, tick)| match q {
                    Question::Specialization { options, .. } => Some((tick, options.last())),
                    Question::Concrete { .. } => None,
                })
                .expect("a specialization question was asked");
            let op = ops.ops().iter().find(|op| op.tick == tick).unwrap();
            assert_eq!(op.verdict, OpVerdict::Support { support: 1.0 });
            let chosen = dag.node(op.node).assignment.apply(dag.query());
            assert_eq!(Some(&chosen), last, "multi: {multi}");
        }
    }
}
