//! Learning twig queries from positive examples.
//!
//! This is the workspace's re-implementation of the Staworko–Wieczorek style learner the paper
//! evaluates: from a set of positive examples (documents with one annotated node each) it
//! computes the **most specific anchored twig query** of its hypothesis space that selects every
//! annotated node. The hypothesis space is the practical one used in the paper's experiments:
//!
//! * a **spine** obtained by generalising the root-to-node label paths of all examples
//!   (label mismatches become wildcards/`//` edges via a longest-common-subsequence alignment);
//! * **filters** attached to spine nodes, drawn from the child and grandchild labels observed in
//!   the first example and kept only when compatible with *every* example.
//!
//! Keeping every compatible filter is precisely what produces the *overspecialised* queries the
//! paper describes ("the queries contain many conditions that follow from the schema of the
//! documents"); the schema-aware pruning of [`crate::schema_aware`] removes them again.

use crate::eval_indexed::{self, EvalCache};
use crate::query::{Axis, NodeTest, QNodeId, TwigQuery};
use qbe_bitset::DenseSet;
use qbe_xml::{NodeId, NodeIndex, XmlTree};
use std::collections::BTreeSet;
use std::fmt;

/// Error raised by the learners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TwigLearnError {
    /// The positive example set is empty.
    NoExamples,
}

impl fmt::Display for TwigLearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TwigLearnError::NoExamples => write!(f, "cannot learn a twig query from zero examples"),
        }
    }
}

impl std::error::Error for TwigLearnError {}

/// One step of the generalised spine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SpineStep {
    axis: Axis,
    test: NodeTest,
    /// Index of the corresponding ancestor in the *first* example's root-to-node path; used to
    /// harvest candidate filters. Lost (None) when the step was generalised to a wildcard that
    /// no longer corresponds to a first-example ancestor.
    first_example_index: Option<usize>,
}

/// Learn the most specific **path query** (no filters) selecting every positive example.
pub fn learn_path_from_positives(
    examples: &[(&XmlTree, NodeId)],
) -> Result<TwigQuery, TwigLearnError> {
    let spine = generalise_spines(examples)?;
    Ok(spine_to_query(&spine))
}

/// The generalised spine of a positive-example set, cached across proposals by the interactive
/// session: spine generalisation folds the examples left to right, so the fold over the known
/// positives can be reused and extended by one more example per candidate node — byte-identical
/// to refolding from scratch, without the O(|positives|) rework per proposal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CachedSpine {
    steps: Vec<SpineStep>,
}

/// Fold the examples' label paths into a [`CachedSpine`].
pub(crate) fn generalised_spine(
    examples: &[(&XmlTree, NodeId)],
) -> Result<CachedSpine, TwigLearnError> {
    Ok(CachedSpine {
        steps: generalise_spines(examples)?,
    })
}

impl CachedSpine {
    /// The spine generalised with one more example — exactly one more fold step.
    pub(crate) fn extended(&self, doc: &XmlTree, node: NodeId) -> CachedSpine {
        CachedSpine {
            steps: generalise_with_path(&self.steps, &label_path(doc, node)),
        }
    }

    /// The pure path query of this spine (what [`learn_path_from_positives`] would return for
    /// the folded example sequence).
    pub(crate) fn path_query(&self) -> TwigQuery {
        spine_to_query(&self.steps)
    }
}

/// [`learn_from_positives_shared`] over a precomputed spine (see [`CachedSpine`]): runs only
/// the filter-harvesting phase. The spine must be the fold of `examples`' label paths in order.
pub(crate) fn learn_from_positives_shared_with_spine(
    spine: &CachedSpine,
    examples: &[(usize, NodeId)],
    docs: &[XmlTree],
    indexes: &[NodeIndex],
    caches: &mut [EvalCache],
) -> Result<TwigQuery, TwigLearnError> {
    let refs: Vec<(&XmlTree, NodeId)> = examples
        .iter()
        .map(|&(slot, node)| (&docs[slot], node))
        .collect();
    let targets = targets_by_slot(examples, docs.len());
    harvest_filters(&refs, spine.steps.clone(), &mut |q| {
        selects_targets(q, &targets, docs, indexes, caches)
    })
}

/// One recorded run of the filter-harvesting phase over a fixed spine, for the known positives
/// plus one extra example. Harvesting is deterministic given its keep/drop decisions: the
/// candidate filters come from the first positive and the spine, and each candidate query is
/// the query built so far plus one filter. A candidate that misses a positive is dropped
/// whatever the extra example is, so the trace records only the candidates that select every
/// positive, each with whether it also selected the extra example (the harvest's decision).
///
/// Another extra example folding to the same spine replays the trace with one bit test per
/// recorded step. If every decision comes out the same, the harvest over `positives ∪ {it}`
/// builds exactly the recorded [`HarvestTrace::query`]; the first differing decision means
/// the two runs part ways and the replay fails.
///
/// A step keeps only the filter its candidate adds: a replay rebuilds the candidate from the
/// spine and the kept filters before it when it meets a document the step has no answers for
/// yet. A session holds a trace per extended spine, and a trace has a step per harvested
/// filter, so a whole query per step would cost a query's size times the filter count.
#[derive(Debug)]
pub(crate) struct HarvestTrace {
    /// The spine-only query every candidate extends.
    spine_query: TwigQuery,
    steps: Vec<HarvestStep>,
    query: TwigQuery,
}

/// One candidate of a [`HarvestTrace`] that selected every positive: the query built before it
/// plus one filter.
#[derive(Debug)]
struct HarvestStep {
    /// The filter: the spine node it hangs under, its axis and its test.
    filter: (QNodeId, Axis, NodeTest),
    /// The candidate's answers per document, evaluated on first use.
    answers: Vec<Option<DenseSet<NodeId>>>,
    /// Whether the harvest kept the filter, i.e. the candidate selected the extra example.
    kept: bool,
}

impl HarvestTrace {
    /// Harvest filters over `spine` for `positives ∪ {extra}`, recording every decision. The
    /// spine must be the fold of the positives' label paths, in order, then `extra`'s.
    pub(crate) fn record(
        spine: &CachedSpine,
        positives: &[(usize, NodeId)],
        extra: (usize, NodeId),
        docs: &[XmlTree],
        indexes: &[NodeIndex],
        caches: &mut [EvalCache],
    ) -> HarvestTrace {
        let refs: Vec<(&XmlTree, NodeId)> = positives
            .iter()
            .chain(std::iter::once(&extra))
            .map(|&(slot, node)| (&docs[slot], node))
            .collect();
        let targets = targets_by_slot(positives, docs.len());
        let (extra_slot, extra_node) = extra;
        let mut steps = Vec::new();
        let query = harvest_filters(&refs, spine.steps.clone(), &mut |q| {
            if !selects_targets(q, &targets, docs, indexes, caches) {
                return false;
            }
            let bits = eval_indexed::select_bits_with(
                q,
                &docs[extra_slot],
                &indexes[extra_slot],
                &mut caches[extra_slot],
            );
            let kept = bits.contains(extra_node);
            let mut answers = vec![None; docs.len()];
            answers[extra_slot] = Some(bits);
            let filter = q
                .node_ids()
                .last()
                .expect("a candidate has the filter it tries as its last node");
            steps.push(HarvestStep {
                filter: (
                    q.parent(filter).expect("a filter hangs under a spine node"),
                    q.axis(filter),
                    q.test(filter).clone(),
                ),
                answers,
                kept,
            });
            kept
        })
        .expect("the positives and the extra example are a non-empty example set");
        HarvestTrace {
            spine_query: spine.path_query(),
            steps,
            query,
        }
    }

    /// Whether the harvest for the positives plus `(slot, node)` instead of the recorded extra
    /// example takes every recorded decision, so builds [`Self::query`]. Stops at the first
    /// differing decision.
    pub(crate) fn replays_for(
        &mut self,
        slot: usize,
        node: NodeId,
        docs: &[XmlTree],
        indexes: &[NodeIndex],
        caches: &mut [EvalCache],
    ) -> bool {
        // The query the harvest built before the current step, materialised the first time a
        // candidate needs evaluating on `slot`.
        let mut built: Option<TwigQuery> = None;
        for ix in 0..self.steps.len() {
            if self.steps[ix].answers[slot].is_none() {
                let before = built.get_or_insert_with(|| self.query_before(ix));
                let mut candidate = before.clone();
                add_filter(&mut candidate, &self.steps[ix].filter);
                let answers = eval_indexed::select_bits_with(
                    &candidate,
                    &docs[slot],
                    &indexes[slot],
                    &mut caches[slot],
                );
                self.steps[ix].answers[slot] = Some(answers);
            }
            let step = &self.steps[ix];
            let selected = step.answers[slot]
                .as_ref()
                .is_some_and(|answers| answers.contains(node));
            if selected != step.kept {
                return false;
            }
            if let (true, Some(query)) = (step.kept, built.as_mut()) {
                add_filter(query, &step.filter);
            }
        }
        true
    }

    /// The query the harvest had built when it tried step `ix`: the spine plus every filter
    /// kept before it.
    fn query_before(&self, ix: usize) -> TwigQuery {
        let mut query = self.spine_query.clone();
        for step in self.steps[..ix].iter().filter(|step| step.kept) {
            add_filter(&mut query, &step.filter);
        }
        query
    }

    /// The query the recorded harvest built.
    pub(crate) fn query(&self) -> &TwigQuery {
        &self.query
    }
}

fn add_filter(query: &mut TwigQuery, (parent, axis, test): &(QNodeId, Axis, NodeTest)) {
    query.add_node(*parent, *axis, test.clone());
}

/// The examples' nodes per document slot, sorted and deduplicated.
fn targets_by_slot(examples: &[(usize, NodeId)], slots: usize) -> Vec<Vec<NodeId>> {
    let mut by_slot: Vec<Vec<NodeId>> = vec![Vec::new(); slots];
    for &(slot, node) in examples {
        by_slot[slot].push(node);
    }
    for targets in &mut by_slot {
        targets.sort_unstable();
        targets.dedup();
    }
    by_slot
}

/// Whether `query` selects every target of every slot: one indexed evaluation per slot that
/// has targets, stopping at the first miss.
fn selects_targets(
    query: &TwigQuery,
    targets: &[Vec<NodeId>],
    docs: &[XmlTree],
    indexes: &[NodeIndex],
    caches: &mut [EvalCache],
) -> bool {
    targets.iter().enumerate().all(|(slot, targets)| {
        targets.is_empty() || {
            let selected = eval_indexed::select_bits_with(
                query,
                &docs[slot],
                &indexes[slot],
                &mut caches[slot],
            );
            targets.iter().all(|n| selected.contains(*n))
        }
    })
}

/// Learn the most specific **twig query** (spine + filters) selecting every positive example.
///
/// Filter harvesting evaluates dozens of near-identical candidate queries against the same
/// documents, so each distinct document is indexed once for the duration of the call. Callers
/// that invoke the learner repeatedly over the *same* documents (the interactive session does,
/// once per proposed node) should use [`learn_from_positives_shared`] with prebuilt indexes
/// and long-lived memos instead.
pub fn learn_from_positives(examples: &[(&XmlTree, NodeId)]) -> Result<TwigQuery, TwigLearnError> {
    let mut indexed = IndexedExamples::new(examples);
    learn_with_evaluator(examples, &mut |q| indexed.selects_all(q))
}

/// [`learn_from_positives`] over caller-owned per-document state: `examples` name documents by
/// slot into the parallel `docs`/`indexes`/`caches` slices, so nothing is indexed per call and
/// the sub-twig memos accumulate across the caller's whole lifetime.
pub fn learn_from_positives_shared(
    examples: &[(usize, NodeId)],
    docs: &[XmlTree],
    indexes: &[NodeIndex],
    caches: &mut [EvalCache],
) -> Result<TwigQuery, TwigLearnError> {
    assert_eq!(docs.len(), indexes.len());
    assert_eq!(docs.len(), caches.len());
    let refs: Vec<(&XmlTree, NodeId)> = examples
        .iter()
        .map(|&(slot, node)| (&docs[slot], node))
        .collect();
    let targets = targets_by_slot(examples, docs.len());
    learn_with_evaluator(&refs, &mut |q| {
        selects_targets(q, &targets, docs, indexes, caches)
    })
}

/// Shared body of the twig learners: generalise the spine, then harvest filters, testing each
/// candidate with `selects_all_positives`.
fn learn_with_evaluator(
    examples: &[(&XmlTree, NodeId)],
    selects_all_positives: &mut dyn FnMut(&TwigQuery) -> bool,
) -> Result<TwigQuery, TwigLearnError> {
    let spine = generalise_spines(examples)?;
    harvest_filters(examples, spine, selects_all_positives)
}

/// The filter-harvesting phase over an already generalised spine.
fn harvest_filters(
    examples: &[(&XmlTree, NodeId)],
    spine: Vec<SpineStep>,
    selects_all_positives: &mut dyn FnMut(&TwigQuery) -> bool,
) -> Result<TwigQuery, TwigLearnError> {
    let mut query = spine_to_query(&spine);
    let (first_doc, first_node) = examples[0];
    let first_path = ancestor_path(first_doc, first_node);

    // Candidate filters per spine position, harvested from the first example.
    let spine_ids = query.spine();
    for (pos, step) in spine.iter().enumerate() {
        let Some(first_ix) = step.first_example_index else {
            continue;
        };
        let anchor_node = first_path[first_ix];
        let spine_query_node = spine_ids[pos];
        // The child of `anchor_node` that continues the path towards the annotated node (if
        // any): filters duplicating its label are redundant with the spine itself.
        let path_child_label = first_path
            .get(first_ix + 1)
            .map(|n| first_doc.label(*n).to_string());

        let mut child_labels: Vec<String> = first_doc
            .children(anchor_node)
            .iter()
            .map(|c| first_doc.label(*c).to_string())
            .collect();
        child_labels.sort();
        child_labels.dedup();

        let mut grandchild_labels: BTreeSet<String> = BTreeSet::new();
        for &c in first_doc.children(anchor_node) {
            for &g in first_doc.children(c) {
                grandchild_labels.insert(first_doc.label(g).to_string());
            }
        }

        // Child-axis candidates first (more specific), then descendant-axis candidates for
        // labels only seen deeper.
        for label in &child_labels {
            if Some(label) == path_child_label.as_ref() {
                continue;
            }
            try_add_filter(
                &mut query,
                spine_query_node,
                Axis::Child,
                label,
                selects_all_positives,
            );
        }
        for label in grandchild_labels {
            if child_labels.contains(&label) || Some(&label) == path_child_label.as_ref() {
                continue;
            }
            try_add_filter(
                &mut query,
                spine_query_node,
                Axis::Descendant,
                &label,
                selects_all_positives,
            );
        }
    }
    Ok(query)
}

/// The positive examples regrouped per distinct document, each with its [`NodeIndex`] and
/// sub-twig memo, so every candidate query of the filter-harvesting loop is evaluated once per
/// document (not once per example) through the indexed engine.
struct IndexedExamples<'a> {
    docs: Vec<&'a XmlTree>,
    indexes: Vec<NodeIndex>,
    caches: Vec<EvalCache>,
    /// Annotated nodes per distinct document, sorted.
    targets: Vec<Vec<NodeId>>,
}

impl<'a> IndexedExamples<'a> {
    fn new(examples: &[(&'a XmlTree, NodeId)]) -> IndexedExamples<'a> {
        let mut docs: Vec<&XmlTree> = Vec::new();
        let mut targets: Vec<Vec<NodeId>> = Vec::new();
        for &(doc, node) in examples {
            // Examples overwhelmingly share a handful of documents; pointer identity dedupes
            // them without hashing tree contents.
            let slot = match docs.iter().position(|d| std::ptr::eq(*d, doc)) {
                Some(slot) => slot,
                None => {
                    docs.push(doc);
                    targets.push(Vec::new());
                    docs.len() - 1
                }
            };
            targets[slot].push(node);
        }
        for t in &mut targets {
            t.sort_unstable();
            t.dedup();
        }
        let indexes = docs.iter().map(|d| NodeIndex::build(d)).collect();
        let caches = vec![EvalCache::new(); docs.len()];
        IndexedExamples {
            docs,
            indexes,
            caches,
            targets,
        }
    }

    /// Whether `query` selects every annotated node of every document.
    fn selects_all(&mut self, query: &TwigQuery) -> bool {
        for slot in 0..self.docs.len() {
            let selected = eval_indexed::select_bits_with(
                query,
                self.docs[slot],
                &self.indexes[slot],
                &mut self.caches[slot],
            );
            if !self.targets[slot].iter().all(|n| selected.contains(*n)) {
                return false;
            }
        }
        true
    }
}

/// Tentatively add the filter `[axis label]` under `node`; keep it only if the query still
/// selects every positive example.
fn try_add_filter(
    query: &mut TwigQuery,
    node: QNodeId,
    axis: Axis,
    label: &str,
    selects_all_positives: &mut dyn FnMut(&TwigQuery) -> bool,
) {
    let mut candidate = query.clone();
    candidate.add_node(node, axis, NodeTest::label(label));
    if selects_all_positives(&candidate) {
        *query = candidate;
    }
}

fn ancestor_path(doc: &XmlTree, node: NodeId) -> Vec<NodeId> {
    let mut path = doc.ancestors(node);
    path.reverse();
    path.push(node);
    path
}

fn label_path(doc: &XmlTree, node: NodeId) -> Vec<String> {
    doc.label_path(node)
}

fn generalise_spines(examples: &[(&XmlTree, NodeId)]) -> Result<Vec<SpineStep>, TwigLearnError> {
    let (first_doc, first_node) = *examples.first().ok_or(TwigLearnError::NoExamples)?;
    let first = label_path(first_doc, first_node);
    let mut spine: Vec<SpineStep> = first
        .iter()
        .enumerate()
        .map(|(i, label)| SpineStep {
            axis: Axis::Child,
            test: NodeTest::label(label),
            first_example_index: Some(i),
        })
        .collect();
    for (doc, node) in &examples[1..] {
        let path = label_path(doc, *node);
        spine = generalise_with_path(&spine, &path);
    }
    Ok(spine)
}

/// Generalise the current spine against one more root-to-node label path.
fn generalise_with_path(spine: &[SpineStep], path: &[String]) -> Vec<SpineStep> {
    // Work on the prefixes (everything except the selected step), then handle the selected step
    // separately so that it is always the last spine step.
    let spine_prefix = &spine[..spine.len() - 1];
    let path_prefix = &path[..path.len() - 1];
    let alignment = lcs_alignment(spine_prefix, path_prefix);

    let mut out: Vec<SpineStep> = Vec::with_capacity(alignment.len() + 1);
    let mut prev_spine_ix: Option<usize> = None;
    let mut prev_path_ix: Option<usize> = None;
    for &(si, pi) in &alignment {
        let step = &spine_prefix[si];
        // The step is kept; its axis stays `Child` only if it was `Child` and both sequences are
        // adjacent to the previously kept step (or it is the first kept step at position 0 in
        // both, preserving the absolute root).
        let adjacent = match (prev_spine_ix, prev_path_ix) {
            (None, None) => si == 0 && pi == 0,
            (Some(ps), Some(pp)) => si == ps + 1 && pi == pp + 1,
            _ => false,
        };
        let axis = if step.axis == Axis::Child && adjacent {
            Axis::Child
        } else {
            Axis::Descendant
        };
        out.push(SpineStep {
            axis,
            test: step.test.clone(),
            first_example_index: step.first_example_index,
        });
        prev_spine_ix = Some(si);
        prev_path_ix = Some(pi);
    }

    // Selected step.
    let spine_last = &spine[spine.len() - 1];
    let path_last = &path[path.len() - 1];
    let selected_test = if spine_last.test.matches(path_last) {
        spine_last.test.clone()
    } else {
        NodeTest::Wildcard
    };
    let selected_adjacent = match (prev_spine_ix, prev_path_ix) {
        // Both the spine and the new path reach the selected step directly from the last kept
        // prefix step.
        (Some(ps), Some(pp)) => ps == spine_prefix.len() - 1 && pp == path_prefix.len() - 1,
        (None, None) => spine_prefix.is_empty() && path_prefix.is_empty(),
        _ => false,
    };
    let selected_axis = if spine_last.axis == Axis::Child && selected_adjacent {
        Axis::Child
    } else {
        Axis::Descendant
    };
    let first_example_index = if selected_test == spine_last.test {
        spine_last.first_example_index
    } else {
        None
    };
    out.push(SpineStep {
        axis: selected_axis,
        test: selected_test,
        first_example_index,
    });
    out
}

/// Longest common subsequence between the spine's node tests and a label path; returns the kept
/// `(spine index, path index)` pairs in order. Wildcard spine steps match any label.
fn lcs_alignment(spine: &[SpineStep], path: &[String]) -> Vec<(usize, usize)> {
    let n = spine.len();
    let m = path.len();
    let mut table = vec![vec![0usize; m + 1]; n + 1];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            table[i][j] = if spine[i].test.matches(&path[j]) {
                table[i + 1][j + 1] + 1
            } else {
                table[i + 1][j].max(table[i][j + 1])
            };
        }
    }
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < n && j < m {
        if spine[i].test.matches(&path[j]) && table[i][j] == table[i + 1][j + 1] + 1 {
            out.push((i, j));
            i += 1;
            j += 1;
        } else if table[i + 1][j] >= table[i][j + 1] {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

fn spine_to_query(spine: &[SpineStep]) -> TwigQuery {
    let mut query = TwigQuery::new(spine[0].axis, spine[0].test.clone());
    let mut cur = QNodeId::ROOT;
    for step in &spine[1..] {
        cur = query.add_node(cur, step.axis, step.test.clone());
    }
    query.set_selected(cur);
    query
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::equivalent_on;
    use crate::eval;
    use crate::xpath::parse_xpath;
    use qbe_xml::TreeBuilder;

    fn site_doc() -> XmlTree {
        TreeBuilder::new("site")
            .open("people")
            .open("person")
            .leaf("name")
            .leaf("emailaddress")
            .open("profile")
            .leaf("age")
            .close()
            .close()
            .open("person")
            .leaf("name")
            .leaf("emailaddress")
            .close()
            .close()
            .open("regions")
            .open("europe")
            .open("item")
            .leaf("name")
            .close()
            .close()
            .close()
            .build()
    }

    #[test]
    fn no_examples_is_an_error() {
        assert_eq!(
            learn_from_positives(&[]).unwrap_err(),
            TwigLearnError::NoExamples
        );
    }

    #[test]
    fn single_example_yields_exact_path_with_filters() {
        let doc = site_doc();
        let email = doc.nodes_with_label("emailaddress")[0];
        let q = learn_from_positives(&[(&doc, email)]).unwrap();
        // The spine is the exact label path, with sibling filters harvested from the example.
        let spine_labels: Vec<String> = q.spine().iter().map(|n| q.test(*n).to_string()).collect();
        assert_eq!(
            spine_labels,
            vec!["site", "people", "person", "emailaddress"]
        );
        assert!(eval::selects(&q, &doc, email));
        assert!(
            q.to_xpath().contains("[name]"),
            "sibling filter expected, got {q}"
        );
    }

    #[test]
    fn learned_query_selects_every_positive() {
        let doc = site_doc();
        let emails = doc.nodes_with_label("emailaddress");
        let examples: Vec<(&XmlTree, NodeId)> = emails.iter().map(|&e| (&doc, e)).collect();
        let q = learn_from_positives(&examples).unwrap();
        for &e in &emails {
            assert!(eval::selects(&q, &doc, e));
        }
    }

    #[test]
    fn generalisation_drops_filters_not_shared_by_all_examples() {
        let doc = site_doc();
        let emails = doc.nodes_with_label("emailaddress");
        // Only the first person has a profile; learning from both emails must not keep a
        // [profile] filter on the `person` spine step (an ancestor-level `.//profile` filter may
        // survive because *some* person of every example document has a profile).
        let examples: Vec<(&XmlTree, NodeId)> = emails.iter().map(|&e| (&doc, e)).collect();
        let q = learn_from_positives(&examples).unwrap();
        let person_step = q
            .spine()
            .into_iter()
            .find(|n| q.test(*n) == &NodeTest::label("person"))
            .unwrap();
        let person_filters: Vec<String> = q
            .children(person_step)
            .iter()
            .filter(|c| q.test(**c) != &NodeTest::label("emailaddress"))
            .map(|c| q.test(*c).to_string())
            .collect();
        assert!(
            !person_filters.contains(&"profile".to_string()),
            "overspecific filter kept: {q}"
        );
        assert!(
            person_filters.contains(&"name".to_string()),
            "shared filter dropped: {q}"
        );
    }

    #[test]
    fn paths_of_different_depth_generalise_to_descendant_edges() {
        // name appears at depth 3 under person and depth 4 under item -> // edge somewhere.
        let doc = site_doc();
        let person_name = doc.nodes_with_label("name")[0];
        let item_name = *doc.nodes_with_label("name").last().unwrap();
        let q = learn_path_from_positives(&[(&doc, person_name), (&doc, item_name)]).unwrap();
        assert!(eval::selects(&q, &doc, person_name));
        assert!(eval::selects(&q, &doc, item_name));
        assert!(q.descendant_edge_count() >= 1);
        assert_eq!(q.test(q.selected()), &NodeTest::label("name"));
    }

    #[test]
    fn mismatched_selected_labels_generalise_to_wildcard() {
        let doc = site_doc();
        let name = doc.nodes_with_label("name")[0];
        let email = doc.nodes_with_label("emailaddress")[0];
        let q = learn_path_from_positives(&[(&doc, name), (&doc, email)]).unwrap();
        assert_eq!(q.test(q.selected()), &NodeTest::Wildcard);
        assert!(eval::selects(&q, &doc, name));
        assert!(eval::selects(&q, &doc, email));
    }

    #[test]
    fn two_examples_recover_a_simple_goal_query() {
        // The paper: "the algorithms are able to learn a query equivalent to the goal query from
        // a small number of examples (generally two)".
        let doc = site_doc();
        let goal = parse_xpath("/site/people/person/emailaddress").unwrap();
        let selected: Vec<NodeId> = eval::select(&goal, &doc).into_iter().collect();
        let examples: Vec<(&XmlTree, NodeId)> = selected.iter().map(|&n| (&doc, n)).collect();
        let learned = learn_from_positives(&examples[..2.min(examples.len())]).unwrap();
        assert!(equivalent_on(&learned, &goal, std::slice::from_ref(&doc)));
    }

    #[test]
    fn learned_query_is_overspecialised_without_schema_knowledge() {
        // Selecting person nodes: every person has a name, so the learner keeps [name] even
        // though (under the real schema) it is implied — the overspecialisation phenomenon.
        let doc = site_doc();
        let persons = doc.nodes_with_label("person");
        let examples: Vec<(&XmlTree, NodeId)> = persons.iter().map(|&p| (&doc, p)).collect();
        let q = learn_from_positives(&examples).unwrap();
        assert!(q.to_xpath().contains("[name]"));
        assert!(
            q.size() > 3,
            "expected filters beyond the bare spine, got {q}"
        );
    }

    /// Record a harvest for the first node of every extended spine over `positives`, replay
    /// it for every later node of that spine in any document, and check the replay against the
    /// from-scratch harvest. Returns per document how many replays succeeded and failed.
    fn replay_against_scratch(
        docs: &[XmlTree],
        positives: &[(usize, NodeId)],
    ) -> (Vec<usize>, Vec<usize>) {
        let indexes: Vec<NodeIndex> = docs.iter().map(NodeIndex::build).collect();
        let mut caches = vec![EvalCache::new(); docs.len()];
        let refs: Vec<(&XmlTree, NodeId)> = positives.iter().map(|&(d, n)| (&docs[d], n)).collect();
        let base = generalised_spine(&refs).unwrap();
        let mut traces: Vec<(CachedSpine, HarvestTrace)> = Vec::new();
        let (mut replayed, mut diverged) = (vec![0; docs.len()], vec![0; docs.len()]);
        let nodes = (0..docs.len()).flat_map(|d| docs[d].node_ids().map(move |n| (d, n)));
        for (doc, node) in nodes {
            let spine = base.extended(&docs[doc], node);
            let mut examples = positives.to_vec();
            examples.push((doc, node));
            let scratch = learn_from_positives_shared_with_spine(
                &spine,
                &examples,
                docs,
                &indexes,
                &mut caches,
            )
            .unwrap();
            match traces.iter_mut().find(|(s, _)| *s == spine) {
                Some((_, trace)) => {
                    let replays = trace.replays_for(doc, node, docs, &indexes, &mut caches);
                    assert_eq!(replays, *trace.query() == scratch, "node {doc}/{node:?}");
                    if replays {
                        replayed[doc] += 1;
                    } else {
                        diverged[doc] += 1;
                    }
                }
                None => {
                    let trace = HarvestTrace::record(
                        &spine,
                        positives,
                        (doc, node),
                        docs,
                        &indexes,
                        &mut caches,
                    );
                    assert_eq!(*trace.query(), scratch, "node {doc}/{node:?}");
                    traces.push((spine, trace));
                }
            }
        }
        (replayed, diverged)
    }

    /// A recorded harvest replays for another node of the same extended spine exactly when
    /// the from-scratch harvest for that node builds the recorded query: the candidate filters
    /// are tried once each in a fixed order, so one differing decision leaves a filter in one
    /// query and not in the other. The positives sit in the first of two documents, so replays
    /// for nodes of the second rebuild candidates the recording never evaluated there.
    #[test]
    fn harvest_trace_replays_exactly_when_the_harvests_agree() {
        let xmark: Vec<XmlTree> = [3, 4]
            .map(|seed| qbe_xml::xmark::generate(&qbe_xml::xmark::XmarkConfig::new(0.01, seed)))
            .into();
        let name_under = |parent: &str| {
            xmark[0]
                .nodes_with_label("name")
                .into_iter()
                .find(|&n| xmark[0].label_path(n).iter().rev().nth(1).unwrap() == parent)
                .unwrap()
        };
        let (person_name, item_name) = (name_under("person"), name_under("item"));
        let (mut replayed, mut diverged) = ([0; 2], [0; 2]);
        for positives in [
            vec![(0, person_name)],
            vec![(0, person_name), (0, item_name)],
        ] {
            let (r, d) = replay_against_scratch(&xmark, &positives);
            for slot in 0..2 {
                replayed[slot] += r[slot];
                diverged[slot] += d[slot];
            }
        }
        assert!(
            replayed.iter().chain(&diverged).all(|&count| count > 0),
            "per document: {replayed:?} replayed, {diverged:?} diverged"
        );
    }

    /// Filters on a spine step below a `//` edge do not act independently: the positives'
    /// spine is `/r//b//c` with `[x]` and `[y]` harvested on `b`, and one `c` of each other
    /// document has an `x` on one `b` ancestor and a `y` on another. Its replay must test
    /// `b[x][y]`, the candidate the harvest built, not `b[y]` alone. It comes first in the
    /// second document, so its replay builds candidates step by step from the spine; in the
    /// third a `c` parting ways at `[x]` comes first, so its replay starts mid-trace.
    #[test]
    fn harvest_trace_rebuilds_candidates_with_every_kept_filter() {
        let docs = [
            "<r><b><x/><y/><c/></b><z><b><x/><y/><w><c/></w></b></z></r>",
            "<r><z/><b><x/><b><y/><c/></b></b><b><y/><c/></b></r>",
            "<r><z/><b><y/><c/></b><b><x/><b><y/><c/></b></b></r>",
        ]
        .map(|xml| qbe_xml::parse_xml(xml).unwrap());
        let cs = docs[0].nodes_with_label("c");
        let (replayed, diverged) = replay_against_scratch(&docs, &[(0, cs[0]), (0, cs[1])]);
        assert!(
            diverged[1] > 0 && diverged[2] > 0,
            "{replayed:?} replayed, {diverged:?} diverged"
        );
    }

    #[test]
    fn path_learner_produces_pure_paths() {
        let doc = site_doc();
        let ages = doc.nodes_with_label("age");
        let q = learn_path_from_positives(&[(&doc, ages[0])]).unwrap();
        assert!(q.is_path());
        assert_eq!(q.to_xpath(), "/site/people/person/profile/age");
    }

    #[test]
    fn learning_from_examples_across_documents() {
        let doc_a = TreeBuilder::new("site")
            .open("people")
            .open("person")
            .leaf("name")
            .leaf("phone")
            .close()
            .close()
            .build();
        let doc_b = TreeBuilder::new("site")
            .open("people")
            .open("person")
            .leaf("name")
            .leaf("homepage")
            .close()
            .close()
            .build();
        let pa = doc_a.nodes_with_label("person")[0];
        let pb = doc_b.nodes_with_label("person")[0];
        let q = learn_from_positives(&[(&doc_a, pa), (&doc_b, pb)]).unwrap();
        assert!(eval::selects(&q, &doc_a, pa));
        assert!(eval::selects(&q, &doc_b, pb));
        // Only the shared [name] filter survives.
        assert!(q.to_xpath().contains("[name]"));
        assert!(!q.to_xpath().contains("phone"));
        assert!(!q.to_xpath().contains("homepage"));
    }
}
