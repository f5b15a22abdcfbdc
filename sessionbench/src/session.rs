//! The closed-loop client: drives one whole learning session over loopback TCP, answering as
//! a simulated user with a hidden goal, and times the phases a user waits through.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::time::Instant;

use qbe_core::graph::{GNodeId, QueryClass};
use qbe_core::twig::interactive::{GoalNodeOracle, NodeOracle};
use qbe_core::twig::{parse_xpath, TwigQuery};
use qbe_core::xml::NodeId;
use qbe_server::protocol::field_value;
use qbe_server::{demo_graph_goal_pairs, AskReply, Client, Corpus, Model};

use crate::trace::Tracer;
use crate::workload::{SessionSpec, TWIG_GOAL};

/// The simulated user's hidden goals, evaluated on the client's own copy of the corpus.
pub struct Goals<'c> {
    corpus: &'c Corpus,
    twig: GoalNodeOracle<'c>,
    /// The twig goal query.
    pub twig_query: TwigQuery,
    graph: BTreeMap<&'static str, BTreeSet<(GNodeId, GNodeId)>>,
}

impl<'c> Goals<'c> {
    /// Build every goal over `corpus`.
    pub fn new(corpus: &'c Corpus) -> Goals<'c> {
        let twig_query = parse_xpath(TWIG_GOAL).expect("the twig goal is valid XPath");
        let graph = [QueryClass::Rpq, QueryClass::TwoRpq, QueryClass::Crpq]
            .into_iter()
            .map(|class| (class.wire_name(), demo_graph_goal_pairs(corpus, class)))
            .collect();
        Goals {
            corpus,
            twig: GoalNodeOracle::new(&corpus.docs, twig_query.clone()),
            twig_query,
            graph,
        }
    }

    /// The goal answer set of a graph query class.
    pub fn graph_goal(&self, class: QueryClass) -> &BTreeSet<(GNodeId, GNodeId)> {
        &self.graph[class.wire_name()]
    }

    /// The true label of a question served by `ASK`.
    fn label(&mut self, spec: &SessionSpec, fields: &[(String, String)]) -> Result<bool, String> {
        let number = |key: &str| {
            field_value(fields, key)
                .and_then(|v| v.parse::<usize>().ok())
                .ok_or_else(|| format!("question lacks a numeric {key}: {fields:?}"))
        };
        match spec.model {
            Model::Twig => {
                let (doc, node) = (number("doc")?, number("node")?);
                if doc >= self.corpus.docs.len() || node >= self.corpus.docs[doc].size() {
                    return Err(format!("question names no node: {fields:?}"));
                }
                Ok(self.twig.label(doc, NodeId::from_index(node)))
            }
            Model::Graph => {
                let class = spec.class.expect("graph sessions name a class");
                let pair = (
                    GNodeId(number("source_id")? as u32),
                    GNodeId(number("target_id")? as u32),
                );
                Ok(self.graph_goal(class).contains(&pair))
            }
            Model::Join => {
                let (left, right) = (self.corpus.left.tuples(), self.corpus.right.tuples());
                let (l, r) = (number("left")?, number("right")?);
                match (left.get(l), right.get(r)) {
                    (Some(l), Some(r)) => Ok(self.corpus.demo_join_goal.satisfied_by(l, r)),
                    _ => Err(format!("question names no tuple pair: {fields:?}")),
                }
            }
            Model::Path => Err("path sessions are not part of any workload".to_string()),
        }
    }
}

/// What one session over TCP returned and how long its phases took.
#[derive(Debug, Clone)]
pub struct SessionRun {
    /// Session id the server assigned.
    pub id: u64,
    /// `+DONE questions=`.
    pub questions: usize,
    /// `QUERY` text.
    pub hypothesis: String,
    /// `EVAL` size.
    pub answer_set: usize,
    /// The labels sent, in order.
    pub answers: Vec<bool>,
    /// Connect to the `QUIT` reply.
    pub session_ms: f64,
    /// Connect + `CORPUS` + `START` + first `+ASK`.
    pub first_question_ms: f64,
    /// `ANSWER` sent to the next `+ASK`, for every round but the last.
    pub turn_ms: Vec<f64>,
    /// Last `ANSWER` sent to the `QUIT` reply, through `+DONE`, `QUERY` and `EVAL`.
    pub finish_ms: f64,
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Client-side spans of one session, when tracing.
struct ClientSpans<'t> {
    tracer: Option<&'t mut Tracer>,
    trace: usize,
}

impl ClientSpans<'_> {
    fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if let Some(tracer) = self.tracer.as_deref_mut() {
            tracer.record(self.trace, name, start, end);
        }
    }
}

/// Drive one session of `spec` on `corpus` to completion. With a tracer, every round trip
/// is recorded as a `client.<verb>` span of trace `trace`.
pub fn run_session(
    addr: SocketAddr,
    corpus: &str,
    spec: &SessionSpec,
    goals: &mut Goals<'_>,
    tracer: Option<&mut Tracer>,
    trace: usize,
) -> Result<SessionRun, String> {
    let mut spans = ClientSpans { tracer, trace };
    let err = |what: &str, e: qbe_server::ClientError| format!("{what}: {e}");

    let connect = Instant::now();
    let mut client = Client::connect(addr).map_err(|e| err("connect", e))?;
    client.corpus(corpus).map_err(|e| err("CORPUS", e))?;
    let params = spec.params();
    let params: Vec<(&str, &str)> = params.iter().map(|(k, v)| (*k, v.as_str())).collect();
    let t = Instant::now();
    let id = client
        .start(spec.model, &params)
        .map_err(|e| err("START", e))?;
    spans.record("client.start", t, Instant::now());

    let mut answers = Vec::new();
    let mut turn_ms = Vec::new();
    let mut first_question_ms = None;
    let mut last_answer: Option<Instant> = None;
    let (questions, finish_start) = loop {
        let asked = Instant::now();
        let reply = client.ask().map_err(|e| err("ASK", e))?;
        let replied = Instant::now();
        match reply {
            AskReply::Question(fields) => {
                spans.record("client.ask", asked, replied);
                match last_answer {
                    None => first_question_ms = Some(ms(connect, replied)),
                    Some(sent) => turn_ms.push(ms(sent, replied)),
                }
                let positive = goals.label(spec, &fields)?;
                let sent = Instant::now();
                client.answer(positive).map_err(|e| err("ANSWER", e))?;
                spans.record("client.answer", sent, Instant::now());
                last_answer = Some(sent);
                answers.push(positive);
            }
            AskReply::Done {
                questions,
                consistent,
            } => {
                spans.record("client.done", asked, replied);
                if !consistent {
                    return Err(format!("session {id} ended with inconsistent labels"));
                }
                break (questions, last_answer.unwrap_or(asked));
            }
        }
    };
    let t = Instant::now();
    let hypothesis = client.query().map_err(|e| err("QUERY", e))?;
    let t_eval = Instant::now();
    spans.record("client.query", t, t_eval);
    let answer_set = client.eval().map_err(|e| err("EVAL", e))?;
    let t_quit = Instant::now();
    spans.record("client.eval", t_eval, t_quit);
    client.quit().map_err(|e| err("QUIT", e))?;
    let end = Instant::now();
    spans.record("client.quit", t_quit, end);
    Ok(SessionRun {
        id,
        questions,
        hypothesis,
        answer_set,
        answers,
        session_ms: ms(connect, end),
        first_question_ms: first_question_ms.unwrap_or_else(|| ms(connect, finish_start)),
        turn_ms,
        finish_ms: ms(finish_start, end),
    })
}
