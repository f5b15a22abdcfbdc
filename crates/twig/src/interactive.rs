//! Interactive twig-query learning: propose nodes, collect labels, prune uninformative nodes.
//!
//! The paper closes its XML section with *"We also want to develop a practical system able to
//! learn twig queries from interaction with the user."* (§2). This module is that system, built
//! on the same protocol the relational and graph crates use: the learner repeatedly proposes an
//! unlabelled document node, the user (an [`NodeOracle`], simulated from a hidden goal query in
//! the experiments) labels it positive or negative, and after every answer the learner prunes
//! every node whose label has become *uninformative*.
//!
//! Two pruning rules exploit the structure of anchored-twig learning from positive examples,
//! both consequences of [`learn_from_positives`](crate::learn::learn_from_positives) returning
//! the *most specific* anchored twig consistent with the positives:
//!
//! * **Certain positives.** Every anchored twig consistent with the positives selects at least
//!   the candidate's answers, so a node already selected by the candidate has a certain
//!   (positive) label under every remaining hypothesis — asking about it cannot shrink the
//!   version space and it is pruned.
//! * **Determined negatives.** For an unlabelled node `n`, consider the most specific anchored
//!   twig selecting `positives ∪ {n}`. Every hypothesis selecting `n` together with the known
//!   positives is at least as general, so it selects at least that query's answers. If that
//!   query selects an already-labelled *negative*, every hypothesis selecting `n` is
//!   inconsistent with the collected labels — `n`'s label is determined to be negative and it is
//!   pruned without asking (see [`TwigSession::is_determined_negative`]).
//!
//! The determined-negative analysis is memoised per *extended spine*, the positives' spine
//! folded with `n`'s label path. Nodes with the same extended spine share the spine-only
//! pre-filter, and the filter harvest that builds their most specific query tries the same
//! candidate filters for as long as it takes the same keep/drop decisions. So one recorded
//! harvest answers for all of them at one bit test per candidate, and a node whose decisions
//! differ gets a harvest of its own. Learning `//person/name` on the `xmark-small` corpus, the
//! last `propose` call proves 1196 nodes negative; they have four distinct extended spines, so
//! it runs four harvests instead of 1196. The memo lives for one positive epoch. A memoised
//! verdict is brought up to date by testing only the negatives labelled since it was recorded.
//!
//! Remaining nodes are informative: a positive label generalises the candidate, a negative label
//! constrains the final query.
//!
//! All candidate evaluations run through the indexed engine ([`crate::eval_indexed`]): the
//! session shares one immutable [`NodeIndex`] per document — documents and indexes can be
//! handed in as `Arc`s by a concurrent workload driver (see [`TwigSession::with_shared`]) — and
//! keeps one [`EvalCache`] per document so structurally repeated sub-twigs across the many
//! candidate queries of a session are matched once.
//!
//! The session stops when every node is labelled or pruned, and reports the learned query, the
//! number of interactions (the quantity the paper wants to minimise) and the number of labels the
//! pruning saved.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use qbe_bitset::DenseSet;
use qbe_strategy::{
    pick_last_max_by, Candidate, CheapestFirst, PaperOrder, PoolView, Random, SessionConfig,
    Strategy,
};
use qbe_xml::{NodeId, NodeIndex, XmlTree};

use crate::eval;
use crate::eval_indexed::{self, EvalCache};
use crate::example::Annotation;
use crate::learn::{CachedSpine, HarvestTrace};
use crate::query::TwigQuery;

/// The answer source for node-labelling questions.
pub trait NodeOracle {
    /// Label the node `node` of document `doc` (index into the session's document list).
    fn label(&mut self, doc: usize, node: NodeId) -> bool;
}

/// Oracle answering according to a hidden goal query, counting the questions it receives.
///
/// The goal's answer set per document is computed once (lazily) so each question is a set
/// lookup rather than a fresh evaluation.
#[derive(Debug, Clone)]
pub struct GoalNodeOracle<'a> {
    docs: &'a [XmlTree],
    goal: TwigQuery,
    answers: Vec<Option<BTreeSet<NodeId>>>,
    questions: usize,
}

impl<'a> GoalNodeOracle<'a> {
    /// Create an oracle for a hidden goal query over the given documents.
    pub fn new(docs: &'a [XmlTree], goal: TwigQuery) -> GoalNodeOracle<'a> {
        GoalNodeOracle {
            docs,
            goal,
            answers: vec![None; docs.len()],
            questions: 0,
        }
    }

    /// Number of questions answered so far.
    pub fn questions_asked(&self) -> usize {
        self.questions
    }

    /// The hidden goal.
    pub fn goal(&self) -> &TwigQuery {
        &self.goal
    }
}

impl NodeOracle for GoalNodeOracle<'_> {
    fn label(&mut self, doc: usize, node: NodeId) -> bool {
        self.questions += 1;
        self.answers[doc]
            .get_or_insert_with(|| eval::select(&self.goal, &self.docs[doc]))
            .contains(&node)
    }
}

/// The paper-era node-selection policies, now thin presets over the model-agnostic
/// [`qbe_strategy::Strategy`] API (see [`NodeStrategy::strategy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStrategy {
    /// Document order (depth-first, first document first) — the naive baseline
    /// ([`qbe_strategy::PaperOrder`]).
    DocumentOrder,
    /// Uniformly random among the informative nodes ([`qbe_strategy::Random`]).
    ///
    /// Since the strategy API landed this draws from one persistent seeded stream (the
    /// pre-API loop reseeded from `seed + questions asked` and shuffled the pool each round),
    /// so a given seed yields a different — still deterministic — question sequence than
    /// pre-API runs. No count was ever pinned for this preset; path/join `Random` streams are
    /// unchanged.
    Random,
    /// Shallow nodes first: cheap questions whose answers constrain the query's spine early
    /// ([`qbe_strategy::CheapestFirst`] over the depth cost channel).
    ShallowFirst,
    /// Prefer nodes whose label equals the label of an already-known positive node: such nodes
    /// are the most likely to be selected by the goal, and a positive answer generalises the
    /// candidate (the paper's "gather as much information as possible with few interactions").
    LabelAffinity,
}

impl NodeStrategy {
    /// The [`Strategy`] implementing this preset (`seed` feeds [`NodeStrategy::Random`]).
    pub fn strategy(self, seed: u64) -> Box<dyn Strategy> {
        match self {
            NodeStrategy::DocumentOrder => Box::new(PaperOrder),
            NodeStrategy::Random => Box::new(Random::new(seed)),
            NodeStrategy::ShallowFirst => Box::new(CheapestFirst),
            NodeStrategy::LabelAffinity => Box::new(LabelAffinity),
        }
    }
}

/// The session's flagship policy as a [`Strategy`]: highest label affinity first, shallower
/// nodes breaking ties (the exact comparator the paper-era inlined loop used, including its
/// latest-maximum tie resolution, so the regression pins stay byte-identical).
#[derive(Debug, Clone, Copy, Default)]
struct LabelAffinity;

impl Strategy for LabelAffinity {
    fn name(&self) -> &str {
        "label-affinity"
    }

    fn pick(&mut self, pool: &PoolView<'_>) -> Option<usize> {
        pick_last_max_by(pool.candidates, |c| c.informativeness)
    }
}

/// How one document node is currently classified by the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// The user labelled it positive.
    LabelledPositive,
    /// The user labelled it negative.
    LabelledNegative,
    /// Selected by the current candidate, hence certainly positive — pruned.
    CertainPositive,
    /// Proven determined-negative while proposing (see
    /// [`TwigSession::is_determined_negative`]) — pruned.
    DeterminedNegative,
    /// Still informative: asking about it would refine the hypothesis space.
    Informative,
}

/// Outcome of an interactive twig-learning session.
#[derive(Debug, Clone)]
pub struct TwigSessionOutcome {
    /// The learned query (None when no positive node was found at all).
    pub query: Option<TwigQuery>,
    /// Number of questions asked.
    pub interactions: usize,
    /// Number of nodes whose label was inferred (pruned) rather than asked.
    pub pruned: usize,
    /// Total number of nodes across all documents.
    pub total_nodes: usize,
    /// Whether the collected labels remained consistent with some anchored twig.
    pub consistent: bool,
}

impl fmt::Display for TwigSessionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} interactions, {} pruned of {} nodes, query: {}",
            self.interactions,
            self.pruned,
            self.total_nodes,
            self.query
                .as_ref()
                .map(|q| q.to_xpath())
                .unwrap_or_else(|| "(none)".to_string())
        )
    }
}

/// The determined-negative analysis shared by every unlabelled node whose *extended spine*
/// (the positives' spine folded with the node's label path) is the same, for one positive
/// epoch. Such nodes share the spine-only pre-filter query, and their filter harvests try the
/// same candidates for as long as they take the same keep/drop decisions, so one recorded
/// harvest ([`HarvestTrace`]) answers for all of them at one bit test per step. Nodes whose
/// decisions part ways get a harvest of their own, recorded next to the first.
#[derive(Debug)]
struct SpineMemo {
    /// The spine-only query: a superset of every harvested query's answers.
    spine_query: TwigQuery,
    /// Whether `spine_query` selects a labelled negative.
    spine_verdict: NegativeVerdict,
    /// The harvests recorded over this spine, each with its query's verdict.
    harvests: Vec<(HarvestTrace, NegativeVerdict)>,
}

/// Whether a fixed query selects a labelled negative, as of the first `checked` annotations.
/// Labels only grow, so bringing it up to date tests just the negatives labelled since.
#[derive(Debug, Clone, Copy, Default)]
struct NegativeVerdict {
    hit: bool,
    checked: usize,
}

/// The strategy's view of the pool during one [`TwigSession::propose`] call: one
/// [`Candidate`] row per informative node, plus each node's label class. Built once per call
/// and kept exact in place as proven negatives leave the pool.
struct PoolFeatures {
    candidates: Vec<Candidate>,
    label_class: Vec<usize>,
}

impl PoolFeatures {
    /// Drop row `ix`: every remaining row with the same label covers one node less.
    fn remove(&mut self, ix: usize) {
        self.candidates.remove(ix);
        let class = self.label_class.remove(ix);
        for (candidate, _) in self
            .candidates
            .iter_mut()
            .zip(&self.label_class)
            .filter(|(_, k)| **k == class)
        {
            candidate.coverage -= 1.0;
        }
    }
}

/// An in-progress interactive twig-learning session.
///
/// All per-round bookkeeping runs on dense bitsets: one [`DenseSet`] per document for the
/// labelled, determined-negative, certain-positive and still-informative node sets, so each
/// proposal round updates the candidate pool by word-level set difference instead of rescanning
/// every node against `BTreeSet`s.
#[derive(Debug)]
pub struct TwigSession {
    docs: Arc<Vec<XmlTree>>,
    indexes: Arc<Vec<NodeIndex>>,
    /// One memo of sub-twig match sets per document, shared by every candidate evaluation of
    /// this session. Interior mutability keeps the read-only query API (`status`,
    /// `informative_nodes`, …) taking `&self`.
    caches: RefCell<Vec<EvalCache>>,
    annotations: Vec<Annotation>,
    /// The pluggable question-selection policy, consulted once per proposal round.
    strategy: Box<dyn Strategy>,
    /// Question cap, if any: once `asked` reaches it, the session completes.
    budget: Option<usize>,
    asked: usize,
    /// Per-document bitset of labelled nodes.
    labelled_bits: Vec<DenseSet<NodeId>>,
    /// Per-document bitset of nodes proven determined-negative so far (never re-analysed).
    determined_bits: Vec<DenseSet<NodeId>>,
    /// Per-document answer bitset of the current candidate, refreshed per positive-count epoch.
    certain_bits: Vec<DenseSet<NodeId>>,
    /// Per-document pool of still-informative nodes: `all ∖ labelled ∖ determined ∖ certain`,
    /// maintained incrementally (full rebuild only when the candidate — and with it the certain
    /// region — changes, i.e. once per positive answer).
    pool: Vec<DenseSet<NodeId>>,
    /// The current candidate (the most specific anchored twig over the positives), learned
    /// once per positive-count epoch.
    epoch_candidate: Option<TwigQuery>,
    /// The generalised spine of the current positive set, cached so each determined-negative
    /// check folds in exactly one more example instead of refolding every positive.
    epoch_spine: Option<CachedSpine>,
    /// This epoch's determined-negative analyses, one per distinct extended spine (see
    /// [`SpineMemo`]).
    spine_memo: HashMap<CachedSpine, SpineMemo>,
    /// Positive-label count the `epoch_*`, `certain_bits` and `spine_memo` caches were
    /// computed for.
    known_positives: usize,
    /// Set once a generalised candidate swallows an earlier negative.
    inconsistent: bool,
}

impl TwigSession {
    /// Start a session over the given documents, building one [`NodeIndex`] per document.
    pub fn new(docs: Vec<XmlTree>, strategy: NodeStrategy, seed: u64) -> TwigSession {
        let indexes: Vec<NodeIndex> = docs.iter().map(NodeIndex::build).collect();
        TwigSession::with_shared(Arc::new(docs), Arc::new(indexes), strategy, seed)
    }

    /// Start a session over documents and indexes shared with other sessions (the
    /// multi-session workload driver hands every session the same two `Arc`s, so N concurrent
    /// sessions hold one copy of the corpus and its index).
    pub fn with_shared(
        docs: Arc<Vec<XmlTree>>,
        indexes: Arc<Vec<NodeIndex>>,
        strategy: NodeStrategy,
        seed: u64,
    ) -> TwigSession {
        TwigSession::with_config(
            docs,
            indexes,
            SessionConfig::new()
                .seed(seed)
                .strategy(strategy.strategy(seed)),
        )
    }

    /// Start a session from a [`SessionConfig`] (strategy, question budget, seed) — the
    /// primary constructor; the [`NodeStrategy`]-taking ones are presets over it. The default
    /// strategy is [`NodeStrategy::LabelAffinity`], the paper's flagship policy.
    pub fn with_config(
        docs: Arc<Vec<XmlTree>>,
        indexes: Arc<Vec<NodeIndex>>,
        config: SessionConfig,
    ) -> TwigSession {
        assert_eq!(
            docs.len(),
            indexes.len(),
            "one index per document is required"
        );
        let resolved = config.resolve(|seed| NodeStrategy::LabelAffinity.strategy(seed));
        let caches = RefCell::new(vec![EvalCache::new(); docs.len()]);
        let empty: Vec<DenseSet<NodeId>> = docs.iter().map(|d| DenseSet::new(d.size())).collect();
        let pool: Vec<DenseSet<NodeId>> = docs.iter().map(|d| DenseSet::full(d.size())).collect();
        TwigSession {
            docs,
            indexes,
            caches,
            annotations: Vec::new(),
            strategy: resolved.strategy,
            budget: resolved.budget,
            asked: 0,
            labelled_bits: empty.clone(),
            determined_bits: empty.clone(),
            certain_bits: empty,
            pool,
            epoch_candidate: None,
            epoch_spine: None,
            spine_memo: HashMap::new(),
            known_positives: 0,
            inconsistent: false,
        }
    }

    /// The name of the session's question-selection strategy (what per-strategy workload
    /// aggregates group by).
    pub fn strategy_name(&self) -> &str {
        self.strategy.name()
    }

    /// The documents the session ranges over.
    pub fn documents(&self) -> &[XmlTree] {
        &self.docs
    }

    /// The labels collected so far, in the order they were recorded.
    pub fn annotations(&self) -> &[Annotation] {
        &self.annotations
    }

    /// Indexed evaluation of `query` on document `doc`, through the session's per-document
    /// memo.
    fn eval_select(&self, query: &TwigQuery, doc: usize) -> Vec<NodeId> {
        let mut caches = self.caches.borrow_mut();
        eval_indexed::select_vec_with(query, &self.docs[doc], &self.indexes[doc], &mut caches[doc])
    }

    /// Indexed evaluation into a dense answer bitset, through the session's memo.
    fn eval_bits(&self, query: &TwigQuery, doc: usize) -> DenseSet<NodeId> {
        let mut caches = self.caches.borrow_mut();
        eval_indexed::select_bits_with(query, &self.docs[doc], &self.indexes[doc], &mut caches[doc])
    }

    /// Indexed membership test through the session's memo (the result bitset is recycled into
    /// the document's arena).
    fn eval_selects(&self, query: &TwigQuery, doc: usize, node: NodeId) -> bool {
        let mut caches = self.caches.borrow_mut();
        eval_indexed::selects_with(
            query,
            &self.docs[doc],
            &self.indexes[doc],
            &mut caches[doc],
            node,
        )
    }

    fn positives(&self) -> Vec<(usize, NodeId)> {
        self.annotations
            .iter()
            .filter(|a| a.positive)
            .map(|a| (a.doc, a.node))
            .collect()
    }

    /// Run the learner over the session's documents through its prebuilt indexes and
    /// long-lived sub-twig memos — the learner is invoked once per proposed node, so per-call
    /// index rebuilding would dominate the whole session.
    fn learn_shared(&self, examples: &[(usize, NodeId)]) -> Option<TwigQuery> {
        let mut caches = self.caches.borrow_mut();
        crate::learn::learn_from_positives_shared(examples, &self.docs, &self.indexes, &mut caches)
            .ok()
    }

    /// Whether the per-epoch caches (`epoch_candidate`, `certain_bits`, `epoch_spine`,
    /// `spine_memo`) describe the current positives. Labels are only ever appended, so an
    /// unchanged positive count means unchanged positives. [`Self::propose`] refreshes the
    /// caches; a caller recording labels by hand between proposals sees them go stale.
    fn epoch_is_current(&self) -> bool {
        self.annotations.iter().filter(|a| a.positive).count() == self.known_positives
    }

    /// The candidate learned from scratch over the current positives.
    fn learn_candidate(&self) -> Option<TwigQuery> {
        let positives = self.positives();
        if positives.is_empty() {
            return None;
        }
        self.learn_shared(&positives)
    }

    /// The current candidate: the most specific anchored twig consistent with the positives.
    /// Reuses the one [`Self::propose`] learned for this positive epoch when it is current.
    pub fn candidate(&self) -> Option<TwigQuery> {
        if self.epoch_is_current() {
            return self.epoch_candidate.clone();
        }
        self.learn_candidate()
    }

    /// Status of one node under the current candidate and labels.
    pub fn status(&self, doc: usize, node: NodeId) -> NodeStatus {
        for a in &self.annotations {
            if a.doc == doc && a.node == node {
                return if a.positive {
                    NodeStatus::LabelledPositive
                } else {
                    NodeStatus::LabelledNegative
                };
            }
        }
        if self.determined_bits[doc].contains(node) {
            return NodeStatus::DeterminedNegative;
        }
        let certain = if self.epoch_is_current() {
            self.certain_bits[doc].contains(node)
        } else {
            self.learn_candidate()
                .is_some_and(|candidate| self.eval_selects(&candidate, doc, node))
        };
        if certain {
            NodeStatus::CertainPositive
        } else {
            NodeStatus::Informative
        }
    }

    /// All still-informative nodes, as `(document index, node)` pairs.
    ///
    /// Conservative: excludes labelled nodes and certain positives but does *not* run the
    /// per-node determined-negative analysis (see [`Self::is_determined_negative`]), which
    /// [`Self::run`] additionally applies lazily to the nodes the strategy proposes. Callers
    /// driving a session by hand can apply the same check to skip further questions.
    pub fn informative_nodes(&self) -> Vec<(usize, NodeId)> {
        let candidate = self.learn_candidate();
        let labelled: BTreeSet<(usize, NodeId)> =
            self.annotations.iter().map(|a| (a.doc, a.node)).collect();
        let mut out = Vec::new();
        for (doc_ix, doc) in self.docs.iter().enumerate() {
            let certain: Vec<NodeId> = match &candidate {
                Some(q) => self.eval_select(q, doc_ix),
                None => Vec::new(),
            };
            for node in doc.node_ids() {
                if !labelled.contains(&(doc_ix, node)) && certain.binary_search(&node).is_err() {
                    out.push((doc_ix, node));
                }
            }
        }
        out
    }

    /// Record a user-provided label.
    pub fn record(&mut self, doc: usize, node: NodeId, positive: bool) {
        assert!(doc < self.docs.len(), "document index out of range");
        assert!(
            node.index() < self.docs[doc].size(),
            "node id out of range for document"
        );
        self.annotations.push(Annotation {
            doc,
            node,
            positive,
        });
        self.labelled_bits[doc].insert(node);
        self.pool[doc].remove(node);
        self.asked += 1;
    }

    /// Whether `query` classifies every collected label correctly.
    fn classifies_all(&self, query: &TwigQuery) -> bool {
        let mut caches = self.caches.borrow_mut();
        (0..self.docs.len()).all(|doc_ix| {
            if self.annotations.iter().all(|a| a.doc != doc_ix) {
                return true;
            }
            eval_indexed::classifies_with(
                query,
                &self.docs[doc_ix],
                &self.indexes[doc_ix],
                &mut caches[doc_ix],
                self.annotations
                    .iter()
                    .filter(|a| a.doc == doc_ix)
                    .map(|a| (a.node, a.positive)),
            )
        })
    }

    /// Whether the labels collected so far admit a consistent anchored twig (the candidate from
    /// the positives must reject every labelled negative).
    pub fn is_consistent(&self) -> bool {
        if self.epoch_is_current() {
            // `certain_bits` is the epoch candidate's answer set (empty without positives).
            return self
                .annotations
                .iter()
                .all(|a| self.certain_bits[a.doc].contains(a.node) == a.positive);
        }
        match self.learn_candidate() {
            None => true,
            Some(q) => self.classifies_all(&q),
        }
    }

    /// Whether `node`'s label is *determined* to be negative by the labels collected so far:
    /// no query of the learner's hypothesis class consistent with the current labels selects
    /// it, so asking about it cannot shrink the version space.
    ///
    /// Soundness: any hypothesis selecting `node` and all known positives is at least as
    /// general as the most specific anchored twig over `positives ∪ {node}`, hence selects all
    /// of that query's answers; if those answers include a labelled negative, every such
    /// hypothesis is inconsistent. The cheap spine-only query (a superset of the most specific
    /// query's answers) is used as a pre-filter so the full filter-harvesting learner only runs
    /// on nodes that might actually be pruned.
    ///
    /// The version space this argues over is the *practical* class
    /// [`learn_from_positives`](crate::learn::learn_from_positives) searches (spine plus single-label child/descendant filters),
    /// in which it returns the most specific element. Goal queries outside that class (e.g.
    /// with nested multi-step predicates) can in principle have answers pruned here — but the
    /// learner could never converge to such a goal anyway, so the session loses nothing it
    /// could have used.
    ///
    /// The check is skipped (returns `false`) until at least one positive *and* one negative
    /// label exist: with no positives there is nothing to generalise against, and with no
    /// negatives nothing can contradict.
    ///
    /// This is the from-scratch executable specification: every call runs the pre-filter and
    /// a full filter harvest. [`Self::propose`] reaches the same verdicts through a memo of one
    /// recorded harvest per extended spine (see the module docs), and `tests/prop_bitset.rs`
    /// pins the two against each other.
    pub fn is_determined_negative(&self, doc: usize, node: NodeId) -> bool {
        let positives = self.positives();
        if positives.is_empty() {
            return false;
        }
        let negatives: Vec<(usize, NodeId)> = self
            .annotations
            .iter()
            .filter(|a| !a.positive)
            .map(|a| (a.doc, a.node))
            .collect();
        if negatives.is_empty() {
            return false;
        }
        // The fold of the positives' label paths: taken from the per-epoch cache when it is
        // current (the hot path — `propose` refreshes it on every positive), refolded from
        // scratch otherwise (callers driving the session by hand between answers).
        let base_spine = match &self.epoch_spine {
            Some(spine) if positives.len() == self.known_positives => spine.clone(),
            _ => {
                let example_refs: Vec<(&XmlTree, NodeId)> =
                    positives.iter().map(|&(d, n)| (&self.docs[d], n)).collect();
                crate::learn::generalised_spine(&example_refs)
                    .expect("learning from a non-empty example set cannot fail")
            }
        };
        // One more fold step gives the spine over `positives ∪ {node}`.
        let extended_spine = base_spine.extended(&self.docs[doc], node);
        let spine_only = extended_spine.path_query();
        if !self.selects_any(&spine_only, &negatives) {
            // Even the loosest consistent generalisation misses every negative: informative.
            return false;
        }
        let mut extended = positives;
        extended.push((doc, node));
        let most_specific = {
            let mut caches = self.caches.borrow_mut();
            crate::learn::learn_from_positives_shared_with_spine(
                &extended_spine,
                &extended,
                &self.docs,
                &self.indexes,
                &mut caches,
            )
            .expect("learning from a non-empty example set cannot fail")
        };
        self.selects_any(&most_specific, &negatives)
    }

    /// Whether `query` selects any of the given `(doc, node)` pairs — one indexed evaluation
    /// per *distinct document* (not per pair), then a bit test per pair. The result bitsets go
    /// back to their documents' arenas afterwards.
    fn selects_any(&self, query: &TwigQuery, pairs: &[(usize, NodeId)]) -> bool {
        let mut evaluated: Vec<Option<DenseSet<NodeId>>> = vec![None; self.docs.len()];
        let hit = pairs.iter().any(|&(d, m)| {
            evaluated[d]
                .get_or_insert_with(|| self.eval_bits(query, d))
                .contains(m)
        });
        let mut caches = self.caches.borrow_mut();
        for (doc_ix, bits) in evaluated.into_iter().enumerate() {
            if let Some(bits) = bits {
                caches[doc_ix].recycle(bits);
            }
        }
        hit
    }

    /// Affinity bonus separating "label matches a known positive" from every depth value in
    /// the informativeness channel (document depths are far below it).
    const AFFINITY_BONUS: f64 = 1e9;

    /// [`Self::is_determined_negative`] through the epoch's per-spine memo (see
    /// [`SpineMemo`]): the same verdict, but the pre-filter and the filter harvest run once per
    /// distinct extended spine (and decision sequence) instead of once per node. Requires the
    /// epoch caches to be current, as they are inside [`Self::propose`].
    fn proves_determined_negative(&mut self, doc: usize, node: NodeId) -> bool {
        let Some(base) = &self.epoch_spine else {
            return false;
        };
        let spine = base.extended(&self.docs[doc], node);
        let mut memo = std::mem::take(&mut self.spine_memo);
        let entry = memo.entry(spine.clone()).or_insert_with(|| SpineMemo {
            spine_query: spine.path_query(),
            spine_verdict: NegativeVerdict::default(),
            harvests: Vec::new(),
        });
        let determined = self.memo_verdict(&spine, entry, doc, node);
        self.spine_memo = memo;
        determined
    }

    /// The determined-negative verdict for `(doc, node)` from the memo entry of its extended
    /// `spine`, recording a harvest when none of the entry's harvests replays for the node.
    fn memo_verdict(
        &self,
        spine: &CachedSpine,
        entry: &mut SpineMemo,
        doc: usize,
        node: NodeId,
    ) -> bool {
        if !self.selects_negative(&entry.spine_query, &mut entry.spine_verdict) {
            // Even the loosest consistent generalisation misses every negative: informative.
            return false;
        }
        let replayed = {
            let mut caches = self.caches.borrow_mut();
            entry.harvests.iter_mut().position(|(trace, _)| {
                trace.replays_for(doc, node, &self.docs, &self.indexes, &mut caches)
            })
        };
        let ix = replayed.unwrap_or_else(|| {
            let trace = {
                let mut caches = self.caches.borrow_mut();
                HarvestTrace::record(
                    spine,
                    &self.positives(),
                    (doc, node),
                    &self.docs,
                    &self.indexes,
                    &mut caches,
                )
            };
            entry.harvests.push((trace, NegativeVerdict::default()));
            entry.harvests.len() - 1
        });
        let (trace, verdict) = &mut entry.harvests[ix];
        self.selects_negative(trace.query(), verdict)
    }

    /// Bring `verdict` — whether `query` selects a labelled negative — up to date, testing
    /// only the negatives labelled since its last check.
    fn selects_negative(&self, query: &TwigQuery, verdict: &mut NegativeVerdict) -> bool {
        if !verdict.hit {
            let fresh: Vec<(usize, NodeId)> = self.annotations[verdict.checked..]
                .iter()
                .filter(|a| !a.positive)
                .map(|a| (a.doc, a.node))
                .collect();
            verdict.hit = self.selects_any(query, &fresh);
        }
        verdict.checked = self.annotations.len();
        verdict.hit
    }

    /// One [`Candidate`] feature row per informative node, aligned with `informative` (which
    /// is in document order — the model's paper order):
    ///
    /// * `informativeness` — the label-affinity score (matching a positive label dominates;
    ///   shallower nodes rank higher within each class), exactly the paper-era comparator;
    /// * `cost` — node depth (shallow nodes are cheap for the user to inspect);
    /// * `coverage` — how many informative nodes share the candidate's label: a proxy for the
    ///   matches one answer determines, since same-labelled nodes under the same spine become
    ///   certain positives (or determined negatives) together once this one is labelled.
    fn candidate_features(&self, informative: &[(usize, NodeId)]) -> PoolFeatures {
        let positive_labels: BTreeSet<&str> = self
            .annotations
            .iter()
            .filter(|a| a.positive)
            .map(|a| self.docs[a.doc].label(a.node))
            .collect();
        // Per label: its class id and how many informative nodes carry it.
        let mut label_counts: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
        let label_class: Vec<usize> = informative
            .iter()
            .map(|&(doc, node)| {
                let classes = label_counts.len();
                let entry = label_counts
                    .entry(self.docs[doc].label(node))
                    .or_insert((classes, 0));
                entry.1 += 1;
                entry.0
            })
            .collect();
        let candidates = informative
            .iter()
            .map(|&(doc, node)| {
                let label = self.docs[doc].label(node);
                let depth = self.indexes[doc].depth(node) as f64;
                let bonus = if positive_labels.contains(label) {
                    Self::AFFINITY_BONUS
                } else {
                    0.0
                };
                Candidate {
                    informativeness: bonus - depth,
                    cost: depth,
                    coverage: label_counts[label].1 as f64,
                    specificity: 0.0,
                    prior: 0.0,
                }
            })
            .collect();
        PoolFeatures {
            candidates,
            label_class,
        }
    }

    /// Propose the next node to ask the user about, or `None` when the session is over (every
    /// node is labelled or pruned, or the labels became inconsistent).
    ///
    /// Each call takes the still-informative pool and returns the strategy's preferred node.
    /// The candidate — and with it the certain-positive set — only changes when a new positive
    /// arrives, so it is cached per positive-count epoch. Determined-negative checks run
    /// lazily, only on nodes the strategy actually proposes; a proven node leaves the pool and
    /// the strategy picks again. The feature rows are built once per call and updated in place
    /// as nodes leave, and the checks go through the epoch's per-spine memo (see the module
    /// docs), so the call that proves every remaining node negative costs one harvest per
    /// distinct extended spine, not one per node. Callers alternate `propose` and [`Self::record`]:
    /// drivers serving one question at a time (the `qbe-core` session adapters, the
    /// `qbe-server` wire protocol) call them round by round, [`Self::run`] loops to completion.
    pub fn propose(&mut self) -> Option<(usize, NodeId)> {
        if self.inconsistent {
            return None;
        }
        if self.budget.is_some_and(|cap| self.asked >= cap) {
            return None;
        }
        let positives_now = self.annotations.iter().filter(|a| a.positive).count();
        if positives_now != self.known_positives {
            self.known_positives = positives_now;
            // Refresh the per-epoch caches: the candidate and its answer region, the
            // generalised spine its determined-negative checks extend, and their memo.
            let candidate = self.learn_candidate();
            for doc_ix in 0..self.docs.len() {
                match &candidate {
                    Some(q) => {
                        let bits = self.eval_bits(q, doc_ix);
                        self.certain_bits[doc_ix] = bits;
                    }
                    None => self.certain_bits[doc_ix].clear(),
                }
            }
            self.epoch_candidate = candidate;
            let example_refs: Vec<(&XmlTree, NodeId)> = self
                .annotations
                .iter()
                .filter(|a| a.positive)
                .map(|a| (&self.docs[a.doc], a.node))
                .collect();
            self.epoch_spine = crate::learn::generalised_spine(&example_refs).ok();
            self.spine_memo.clear();
            // A generalised candidate may have swallowed an earlier negative: the labels no
            // longer admit a consistent anchored twig, matching `is_consistent`.
            if self
                .annotations
                .iter()
                .any(|a| !a.positive && self.certain_bits[a.doc].contains(a.node))
            {
                self.inconsistent = true;
                return None;
            }
            // The certain region moved, so the pool is rebuilt by set difference:
            // `all ∖ labelled ∖ determined ∖ certain`, a few words per document.
            for (doc_ix, doc) in self.docs.iter().enumerate() {
                let pool = &mut self.pool[doc_ix];
                *pool = DenseSet::full(doc.size());
                pool.and_not_with(&self.labelled_bits[doc_ix]);
                pool.and_not_with(&self.determined_bits[doc_ix]);
                pool.and_not_with(&self.certain_bits[doc_ix]);
            }
        }

        let mut informative: Vec<(usize, NodeId)> = Vec::new();
        for (doc_ix, pool) in self.pool.iter().enumerate() {
            informative.extend(pool.iter().map(|node| (doc_ix, node)));
        }
        let mut features = self.candidate_features(&informative);

        // Consult the pluggable strategy once per round; a pick proven determined-negative is
        // pruned from the pool and the strategy picks again.
        loop {
            let view = PoolView {
                asked: self.asked,
                candidates: &features.candidates,
            };
            let pick_ix = self.strategy.pick(&view)?;
            // An out-of-range pick (a strategy bug, or a deliberate early stop) ends the
            // session rather than panicking the service.
            let pick = *informative.get(pick_ix)?;
            if !self.proves_determined_negative(pick.0, pick.1) {
                return Some(pick);
            }
            self.determined_bits[pick.0].insert(pick.1);
            self.pool[pick.0].remove(pick.1);
            informative.remove(pick_ix);
            features.remove(pick_ix);
        }
    }

    /// The session's *incremental* candidate pool: the nodes [`Self::propose`] currently offers
    /// its strategy, i.e. [`Self::informative_nodes`] minus the determined negatives proven so
    /// far (the incremental path discovers those lazily, only on proposed nodes). Exposed so
    /// the differential suites can pin the incremental pool against the from-scratch
    /// specification round by round.
    pub fn informative_pool(&self) -> Vec<(usize, NodeId)> {
        let mut out = Vec::new();
        for (doc_ix, pool) in self.pool.iter().enumerate() {
            out.extend(pool.iter().map(|node| (doc_ix, node)));
        }
        out
    }

    /// The nodes proven determined-negative so far (lazily, on proposal), as
    /// `(document, node)` pairs — the exact difference between [`Self::informative_nodes`] and
    /// [`Self::informative_pool`].
    pub fn determined_negative_nodes(&self) -> Vec<(usize, NodeId)> {
        let mut out = Vec::new();
        for (doc_ix, bits) in self.determined_bits.iter().enumerate() {
            out.extend(bits.iter().map(|node| (doc_ix, node)));
        }
        out
    }

    /// Total node count across the session's documents (the denominator of the pruning ratio).
    pub fn total_nodes(&self) -> usize {
        self.docs.iter().map(XmlTree::size).sum()
    }

    /// Answer-set size of the current candidate over the whole corpus (0 when no positive has
    /// been labelled yet): the size of the epoch's certain-positive region when it is current,
    /// an indexed evaluation of a relearned candidate otherwise.
    pub fn candidate_answer_count(&self) -> usize {
        if self.epoch_is_current() {
            return self.certain_bits.iter().map(DenseSet::len).sum();
        }
        match self.learn_candidate() {
            None => 0,
            Some(q) => (0..self.docs.len())
                .map(|doc_ix| self.eval_select(&q, doc_ix).len())
                .sum(),
        }
    }

    /// Whether the collected labels still admit a consistent anchored twig — the `consistent`
    /// field of [`Self::outcome`] without materialising the whole outcome. While the epoch
    /// caches are current this is one bit test per label.
    pub fn consistent(&self) -> bool {
        !self.inconsistent && self.is_consistent()
    }

    /// The session's result so far. Final once [`Self::propose`] has returned `None`.
    pub fn outcome(&self) -> TwigSessionOutcome {
        let total_nodes = self.total_nodes();
        let interactions = self.asked;
        TwigSessionOutcome {
            query: self.candidate(),
            interactions,
            pruned: total_nodes - interactions,
            total_nodes,
            consistent: self.consistent(),
        }
    }

    /// Run the session to completion against an oracle: alternate [`Self::propose`] and
    /// [`Self::record`] until no informative node remains.
    pub fn run(mut self, oracle: &mut dyn NodeOracle) -> TwigSessionOutcome {
        while let Some((doc, node)) = self.propose() {
            let label = oracle.label(doc, node);
            self.record(doc, node, label);
        }
        self.outcome()
    }
}

/// Convenience wrapper: learn a hidden goal query interactively over the given documents.
pub fn interactive_twig_learn(
    docs: &[XmlTree],
    goal: &TwigQuery,
    strategy: NodeStrategy,
    seed: u64,
) -> TwigSessionOutcome {
    let mut oracle = GoalNodeOracle::new(docs, goal.clone());
    let session = TwigSession::new(docs.to_vec(), strategy, seed);
    session.run(&mut oracle)
}

/// [`interactive_twig_learn`] with a full [`SessionConfig`] (pluggable strategy, question
/// budget) instead of a [`NodeStrategy`] preset.
pub fn interactive_twig_learn_config(
    docs: &[XmlTree],
    goal: &TwigQuery,
    config: SessionConfig,
) -> TwigSessionOutcome {
    let mut oracle = GoalNodeOracle::new(docs, goal.clone());
    let owned = docs.to_vec();
    let indexes: Vec<NodeIndex> = owned.iter().map(NodeIndex::build).collect();
    let session = TwigSession::with_config(Arc::new(owned), Arc::new(indexes), config);
    session.run(&mut oracle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::equivalent_on;
    use crate::xpath::parse_xpath;
    use qbe_xml::parse_xml;

    fn auction_doc() -> XmlTree {
        parse_xml(
            "<site><regions><europe><item><name>i1</name><payment>cash</payment></item>\
             <item><name>i2</name></item></europe><asia><item><name>i3</name>\
             <payment>card</payment></item></asia></regions>\
             <people><person><name>p1</name></person></people></site>",
        )
        .unwrap()
    }

    fn goal() -> TwigQuery {
        parse_xpath("//item/name").unwrap()
    }

    #[test]
    fn session_learns_goal_equivalent_query() {
        let docs = vec![auction_doc()];
        let outcome = interactive_twig_learn(&docs, &goal(), NodeStrategy::LabelAffinity, 7);
        assert!(outcome.consistent);
        let learned = outcome.query.expect("a query must be learned");
        assert!(
            equivalent_on(&learned, &goal(), &docs),
            "learned {}",
            learned.to_xpath()
        );
    }

    #[test]
    fn every_strategy_terminates_and_stays_consistent() {
        let docs = vec![auction_doc()];
        for strategy in [
            NodeStrategy::DocumentOrder,
            NodeStrategy::Random,
            NodeStrategy::ShallowFirst,
            NodeStrategy::LabelAffinity,
        ] {
            let outcome = interactive_twig_learn(&docs, &goal(), strategy, 3);
            assert!(outcome.consistent, "{strategy:?}");
            assert!(outcome.interactions <= outcome.total_nodes, "{strategy:?}");
            assert!(outcome.query.is_some(), "{strategy:?}");
        }
    }

    #[test]
    fn pruning_saves_interactions() {
        let docs = vec![auction_doc()];
        let outcome = interactive_twig_learn(&docs, &goal(), NodeStrategy::LabelAffinity, 11);
        assert!(
            outcome.pruned > 0,
            "at least the certainly-positive nodes must be pruned: {outcome}"
        );
        assert!(outcome.interactions < outcome.total_nodes);
    }

    #[test]
    fn interactions_never_exceed_total_nodes() {
        let docs = vec![auction_doc(), auction_doc()];
        let outcome = interactive_twig_learn(&docs, &goal(), NodeStrategy::DocumentOrder, 0);
        assert!(outcome.interactions <= outcome.total_nodes);
        assert_eq!(
            outcome.total_nodes,
            docs.iter().map(XmlTree::size).sum::<usize>()
        );
    }

    #[test]
    fn status_reflects_labels_and_candidate() {
        let docs = vec![auction_doc()];
        let mut session = TwigSession::new(docs.clone(), NodeStrategy::DocumentOrder, 0);
        let selected: Vec<NodeId> = eval::select(&goal(), &docs[0]).into_iter().collect();
        let first = selected[0];
        assert_eq!(session.status(0, first), NodeStatus::Informative);
        session.record(0, first, true);
        assert_eq!(session.status(0, first), NodeStatus::LabelledPositive);
        // After one positive the candidate is the most specific description of that node: the
        // node itself is labelled, other selected nodes may or may not be certain yet, but a
        // clearly unrelated node (the root) must stay informative or be labelled.
        assert_ne!(
            session.status(0, XmlTree::ROOT),
            NodeStatus::CertainPositive
        );
    }

    #[test]
    fn status_reports_proven_negatives() {
        let docs = vec![auction_doc()];
        let mut session = TwigSession::new(docs.clone(), NodeStrategy::LabelAffinity, 0);
        let goal_answers = eval::select(&goal(), &docs[0]);
        while let Some((doc, node)) = session.propose() {
            session.record(doc, node, goal_answers.contains(&node));
        }
        let proven = session.determined_negative_nodes();
        assert!(!proven.is_empty(), "the session proves some node negative");
        for (doc, node) in proven {
            assert!(session.is_determined_negative(doc, node));
            assert_eq!(session.status(doc, node), NodeStatus::DeterminedNegative);
        }
    }

    #[test]
    fn pool_features_stay_exact_as_nodes_leave() {
        let docs = vec![auction_doc()];
        let mut session = TwigSession::new(docs.clone(), NodeStrategy::LabelAffinity, 0);
        session.record(0, docs[0].nodes_with_label("name")[0], true);
        let mut informative: Vec<(usize, NodeId)> =
            docs[0].node_ids().skip(1).map(|n| (0, n)).collect();
        let mut features = session.candidate_features(&informative);
        for ix in [3, 0, 7, 1, 4] {
            informative.remove(ix);
            features.remove(ix);
            assert_eq!(
                features.candidates,
                session.candidate_features(&informative).candidates
            );
        }
    }

    #[test]
    fn empty_goal_answer_set_yields_no_query() {
        let docs = vec![auction_doc()];
        let goal = parse_xpath("//nonexistent").unwrap();
        let outcome = interactive_twig_learn(&docs, &goal, NodeStrategy::DocumentOrder, 0);
        assert!(outcome.query.is_none());
        assert!(outcome.consistent);
        assert_eq!(
            outcome.interactions, outcome.total_nodes,
            "nothing can be pruned"
        );
    }

    #[test]
    fn oracle_counts_questions() {
        let docs = vec![auction_doc()];
        let mut oracle = GoalNodeOracle::new(&docs, goal());
        let session = TwigSession::new(docs.clone(), NodeStrategy::ShallowFirst, 5);
        let outcome = session.run(&mut oracle);
        assert_eq!(oracle.questions_asked(), outcome.interactions);
    }

    #[test]
    fn interactive_beats_exhaustive_labelling_on_larger_corpora() {
        let docs = vec![auction_doc(), auction_doc(), auction_doc()];
        let outcome = interactive_twig_learn(&docs, &goal(), NodeStrategy::LabelAffinity, 1);
        let exhaustive: usize = docs.iter().map(XmlTree::size).sum();
        assert!(
            outcome.interactions < exhaustive,
            "interactive ({}) must ask fewer questions than labelling every node ({})",
            outcome.interactions,
            exhaustive
        );
    }

    #[test]
    fn shared_documents_and_indexes_are_not_recopied() {
        let docs = Arc::new(vec![auction_doc()]);
        let indexes = Arc::new(docs.iter().map(NodeIndex::build).collect::<Vec<_>>());
        let s1 = TwigSession::with_shared(
            docs.clone(),
            indexes.clone(),
            NodeStrategy::LabelAffinity,
            1,
        );
        let s2 = TwigSession::with_shared(
            docs.clone(),
            indexes.clone(),
            NodeStrategy::DocumentOrder,
            2,
        );
        // Three owners: the two sessions and the local handle.
        assert_eq!(Arc::strong_count(&docs), 3);
        let mut oracle = GoalNodeOracle::new(&docs, goal());
        let o1 = s1.run(&mut oracle);
        let o2 = s2.run(&mut oracle);
        assert!(o1.consistent && o2.consistent);
        assert!(o1.query.is_some() && o2.query.is_some());
    }
}
