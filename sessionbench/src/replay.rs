//! In-process replay of a session through the public constructors the server's learner
//! factory uses, with the same seed and a goal oracle embedded. Its question count, query
//! text and answer-set size are what the server must have replied; with a tracer, spans
//! around each call into the learner and the layers below it give the per-layer metrics.

use std::hint::black_box;
use std::time::Instant;

use qbe_core::algebra::{EvalCache, QueryStore};
use qbe_core::graph::{enumerate_candidates, evaluate_candidates, GraphIndex};
use qbe_core::twig::eval_indexed::{select_bits_with, EvalCache as TwigEvalCache};
use qbe_core::xml::NodeId;
use qbe_core::{
    DenseSet, GraphQueryInteractive, InteractiveLearner, JoinInteractive, SessionConfig,
    TwigInteractive,
};
use qbe_server::{Corpus, Model};

use crate::session::Goals;
use crate::trace::Tracer;
use crate::workload::SessionSpec;

/// What the in-process learner concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replayed {
    /// Questions asked.
    pub questions: usize,
    /// The learned query text.
    pub hypothesis: Option<String>,
    /// Answer-set size of the learned query.
    pub answer_set: usize,
}

enum Learner {
    Twig(TwigInteractive),
    Graph(GraphQueryInteractive),
    Join(JoinInteractive),
}

impl Learner {
    fn as_dyn(&mut self) -> &mut dyn InteractiveLearner {
        match self {
            Learner::Twig(l) => l,
            Learner::Graph(l) => l,
            Learner::Join(l) => l,
        }
    }
}

/// Spans of one replayed session, when tracing.
struct Spans<'t> {
    tracer: Option<&'t mut Tracer>,
    trace: usize,
}

impl Spans<'_> {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match self.tracer.as_deref_mut() {
            Some(t) => t.time(self.trace, name, f),
            None => f(),
        }
    }
}

/// Replay `spec` on `corpus`. With a tracer, spans named after the layer boundary
/// (`learner.open`, `learner.propose`, `learner.done`, …) are recorded under trace `trace`.
pub fn replay(
    corpus: &Corpus,
    goals: &Goals<'_>,
    spec: &SessionSpec,
    tracer: Option<&mut Tracer>,
    trace: usize,
) -> Replayed {
    let mut spans = Spans { tracer, trace };
    let config = SessionConfig::new().seed(spec.seed);
    let mut learner = match spec.model {
        Model::Twig => {
            let l = spans.time("learner.open", || {
                TwigInteractive::with_config(corpus.docs.clone(), corpus.indexes.clone(), config)
            });
            Learner::Twig(l.with_goal(goals.twig_query.clone()))
        }
        Model::Graph => {
            let class = spec.class.expect("graph sessions name a class");
            if spans.tracer.is_some() {
                probe_graph_open(corpus, spec, &mut spans);
            }
            let l = spans.time("learner.open", || {
                GraphQueryInteractive::with_config(corpus.typed_graph.clone(), class, config)
            });
            Learner::Graph(l.with_goal(goals.graph_goal(class).clone()))
        }
        Model::Join => {
            let l = spans.time("learner.open", || {
                JoinInteractive::with_config(corpus.left.clone(), corpus.right.clone(), config)
            });
            Learner::Join(l.with_goal(corpus.demo_join_goal.clone()))
        }
        Model::Path => unreachable!("path sessions are not part of any workload"),
    };

    let l = learner.as_dyn();
    loop {
        let start = Instant::now();
        let question = l.propose();
        let end = Instant::now();
        if let Some(t) = spans.tracer.as_deref_mut() {
            let name = if question.is_some() {
                "learner.propose"
            } else {
                "learner.done"
            };
            t.record(trace, name, start, end);
        }
        if question.is_none() {
            break;
        }
        let positive = l
            .oracle_answer()
            .expect("the replay embeds a goal and a question is pending");
        spans
            .time("learner.answer", || l.answer(positive))
            .expect("a question is pending");
    }
    let hypothesis = spans.time("learner.hypothesis", || l.hypothesis());
    let answer_set = spans.time("learner.answer_set", || l.answer_set_size());
    let questions = l.questions();

    if let (Learner::Twig(twig), true) = (&learner, spans.tracer.is_some()) {
        if let Some(query) = twig.session().candidate() {
            for (doc, index) in corpus.docs.iter().zip(corpus.indexes.iter()) {
                let mut cache = TwigEvalCache::new();
                let selected = spans.time("twig.select", || {
                    select_bits_with(&query, doc, index, &mut cache)
                });
                black_box(selected);
            }
        }
    }
    Replayed {
        questions,
        hypothesis,
        answer_set,
    }
}

/// Time, as separate calls, the three stages a graph session's constructor runs: the index
/// build, candidate enumeration and shared-cache candidate evaluation. The constructor's
/// time minus theirs is the rest of session open (dedupe and the question universe).
fn probe_graph_open(corpus: &Corpus, spec: &SessionSpec, spans: &mut Spans<'_>) {
    let class = spec.class.expect("graph sessions name a class");
    let graph = &*corpus.typed_graph;
    let index = spans.time("graph.index_build", || GraphIndex::build(graph));
    let alphabet = graph.edge_alphabet();
    let mut store = QueryStore::new();
    let pool = spans.time("graph.enumerate", || {
        enumerate_candidates(&mut store, class, &alphabet)
    });
    let mut cache = EvalCache::new();
    let answers = spans.time("algebra.eval_candidates", || {
        evaluate_candidates(&store, &index, &mut cache, &pool)
    });
    black_box(answers);
    if let Some(t) = spans.tracer.as_deref_mut() {
        t.count("algebra.cache_hits", cache.hits() as u64);
        t.count("algebra.cache_misses", cache.misses() as u64);
    }
}

/// Nanoseconds per `DenseSet` and + len over every pair of label postings of the corpus's
/// documents: the median of five batches of at least 10 ms each.
pub fn probe_bitset_and_count(corpus: &Corpus) -> f64 {
    let documents: Vec<(usize, Vec<&DenseSet<NodeId>>)> = corpus
        .indexes
        .iter()
        .map(|index| {
            let mut postings: Vec<_> = index.posting_entries().collect();
            postings.sort_by_key(|(label, _)| *label);
            let sets = postings.into_iter().map(|(_, bits)| bits).collect();
            (index.node_count(), sets)
        })
        .collect();
    let mut batches = Vec::new();
    for _ in 0..5 {
        let (mut ops, mut members) = (0u64, 0usize);
        let start = Instant::now();
        while start.elapsed().as_millis() < 10 {
            for (universe, postings) in &documents {
                let mut scratch = DenseSet::new(*universe);
                for (i, a) in postings.iter().enumerate() {
                    for b in &postings[i + 1..] {
                        scratch.copy_from(a);
                        scratch.and_with(b);
                        members += black_box(scratch.len());
                        ops += 1;
                    }
                }
            }
        }
        black_box(members);
        batches.push(start.elapsed().as_nanos() as f64 / ops as f64);
    }
    crate::stats::median(&batches)
}
