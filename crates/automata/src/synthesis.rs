//! Effective Theorem 2.2 (within a budget): compiling an FO sentence into
//! a tree automaton by rank-`k` type discovery.
//!
//! The proof of Theorem 2.2 invokes the logic–automata correspondence as
//! a black box. Making it *effective* runs into the non-elementary cost
//! the paper cites (Frick–Grohe \[29]): the number of rank-`k` types of
//! rooted trees — the automaton's states — explodes, and the transition
//! function over all capped children-count vectors explodes again. This
//! module therefore ships a **budgeted compiler**:
//!
//! - the **rank-`k` type** of a rooted tree `(T, r)` is its class under
//!   `≃_k` with the root pinned (decided by the pinned
//!   Ehrenfeucht–Fraïssé game); it is a congruence — determined by the
//!   multiset of the children's types **capped at multiplicity `k`**
//!   (the same absorption argument as Proposition 6.3's pruning);
//! - [`TrainedAutomaton::train`] discovers types *driven by a corpus of
//!   training trees*: every subtree of the corpus is classified bottom-up
//!   (cheap invariants, then EF against small, minimized
//!   representatives), and only the children-count vectors actually
//!   observed become transitions;
//! - unobserved vectors fall into a reject **sink**, so the resulting
//!   [`TreeAutomaton`] is total and deterministic, and:
//!
//!   * **soundness is unconditional** — every accepted tree satisfies
//!     `φ` (its type was certified by a representative that models `φ`);
//!   * **completeness holds on covered inputs** — trees all of whose
//!     children-vectors were observed in training
//!     ([`TrainedAutomaton::covers`]); an uncovered yes-instance is
//!     rejected, never wrongly accepted.
//!
//! The certified pipeline (compile `φ`, then run the Theorem 2.2 scheme)
//! therefore degrades gracefully exactly where the non-elementary bound
//! says it must.

use crate::trees::{CountAtom, Guard, LabeledTree, TreeAutomaton};
use locert_graph::{Graph, GraphBuilder, NodeId, RootedTree};
use locert_logic::ef::duplicator_wins_pinned;
use locert_logic::eval::models;
use locert_logic::Formula;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Error produced by [`TrainedAutomaton::train`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesisError {
    /// The sentence is not closed FO.
    NotAnFoSentence,
    /// More rank-`k` types were discovered than the state budget allows.
    TooManyTypes {
        /// The exceeded budget.
        cap: usize,
    },
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::NotAnFoSentence => {
                write!(f, "synthesis requires a closed FO sentence")
            }
            SynthesisError::TooManyTypes { cap } => {
                write!(f, "more than {cap} rank-k types; lower the rank or budget")
            }
        }
    }
}

impl Error for SynthesisError {}

/// A rooted tree kept as (graph, root) — representatives of types.
#[derive(Debug, Clone)]
struct Rep {
    graph: Graph,
    root: NodeId,
}

impl Rep {
    /// A cheap rank-`k` invariant (implied by `≃_k`): capped root degree
    /// and capped vertex count — both expressible at rank ≤ `k`, so
    /// distinct invariants imply distinct types. Prefilters the EF games.
    fn invariant(&self, k: usize) -> (usize, usize) {
        (
            self.graph.degree(self.root).min(k),
            self.graph.num_nodes().min(k),
        )
    }

    /// Replaces the representative by the smallest equivalent rooted tree
    /// with fewer than `size_cap` vertices, keeping later EF games tiny.
    fn minimized(self, k: usize, size_cap: usize) -> Rep {
        use locert_graph::enumerate::{enumerate_trees, parent_vec_to_rooted};
        for n in 1..size_cap.min(self.graph.num_nodes()) {
            for pv in enumerate_trees(n, n) {
                let rt = parent_vec_to_rooted(&pv);
                let mut b = GraphBuilder::new(rt.num_nodes());
                for v in 0..rt.num_nodes() {
                    if let Some(parent) = rt.parent(NodeId(v)) {
                        b.add_edge(v, parent.0).expect("valid");
                    }
                }
                let cand = Rep {
                    graph: b.build(),
                    root: rt.root(),
                };
                if cand.invariant(k) == self.invariant(k) && cand.same_type(&self, k) {
                    return cand;
                }
            }
        }
        self
    }

    /// Assembles a fresh root with `counts[s]` copies of state `s`'s
    /// representative hanging below it.
    fn assemble(reps: &[Rep], counts: &[usize]) -> Rep {
        let mut b = GraphBuilder::new(1);
        for (s, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                let offset = b.num_nodes();
                for _ in 0..reps[s].graph.num_nodes() {
                    b.add_node();
                }
                for (u, v) in reps[s].graph.edges() {
                    b.add_edge(offset + u.0, offset + v.0).expect("valid copy");
                }
                b.add_edge(0, offset + reps[s].root.0).expect("valid graft");
            }
        }
        Rep {
            graph: b.build(),
            root: NodeId(0),
        }
    }

    /// Whether two representatives have the same rank-`k` type.
    fn same_type(&self, other: &Rep, k: usize) -> bool {
        duplicator_wins_pinned(&self.graph, &other.graph, &[(self.root, other.root)], k)
    }
}

/// A trained, budgeted rank-`k` tree-automaton compiler for one sentence.
pub struct TrainedAutomaton {
    automaton: TreeAutomaton,
    /// Observed capped children-count vectors → state.
    transitions: HashMap<Vec<usize>, usize>,
    /// Number of genuine type states (the sink is state `num_types`).
    num_types: usize,
    k: usize,
}

impl fmt::Debug for TrainedAutomaton {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrainedAutomaton")
            .field("k", &self.k)
            .field("num_types", &self.num_types)
            .field("observed_vectors", &self.transitions.len())
            .finish()
    }
}

impl TrainedAutomaton {
    /// Compiles `phi` (a closed FO sentence) against a training corpus.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::NotAnFoSentence`] on non-FO/open input;
    /// [`SynthesisError::TooManyTypes`] when the discovered type count
    /// exceeds `max_states` (at most 63 — one automaton slot is reserved
    /// for the sink).
    pub fn train(
        phi: &Formula,
        corpus: &[RootedTree],
        max_states: usize,
    ) -> Result<TrainedAutomaton, SynthesisError> {
        let _span = locert_trace::span!("automata.synthesis.train");
        if !locert_logic::depth::is_fo(phi) || !phi.is_sentence() {
            return Err(SynthesisError::NotAnFoSentence);
        }
        let k = locert_logic::depth::quantifier_depth(phi).max(1);
        let cap = k; // multiplicities beyond k are absorbed at rank k.
        let budget = max_states.min(63);
        let mut reps: Vec<Rep> = Vec::new();
        let mut transitions: HashMap<Vec<usize>, usize> = HashMap::new();
        for tree in corpus {
            // Classify every subtree bottom-up.
            let mut state = vec![usize::MAX; tree.num_nodes()];
            for v in tree.postorder() {
                let mut counts = vec![0usize; reps.len()];
                for &c in tree.children(v) {
                    counts[state[c.0]] = (counts[state[c.0]] + 1).min(cap);
                }
                let s = match transitions.get(&counts) {
                    Some(&s) => s,
                    None => {
                        let rep = Rep::assemble(&reps, &counts);
                        let inv = rep.invariant(k);
                        let found = reps
                            .iter()
                            .position(|r| r.invariant(k) == inv && r.same_type(&rep, k));
                        let s = match found {
                            Some(s) => s,
                            None => {
                                if reps.len() >= budget {
                                    return Err(SynthesisError::TooManyTypes { cap: budget });
                                }
                                reps.push(rep.minimized(k, 7));
                                // Pad existing transition keys to the new
                                // state count.
                                let old: Vec<(Vec<usize>, usize)> = transitions.drain().collect();
                                for (mut kk, vv) in old {
                                    kk.resize(reps.len(), 0);
                                    transitions.insert(kk, vv);
                                }
                                reps.len() - 1
                            }
                        };
                        let mut padded = counts.clone();
                        padded.resize(reps.len(), 0);
                        transitions.insert(padded, s);
                        s
                    }
                };
                state[v.0] = s;
            }
        }
        // Normalize all keys to the final width.
        let num_types = reps.len();
        let final_transitions: HashMap<Vec<usize>, usize> = transitions
            .into_iter()
            .map(|(mut kk, vv)| {
                kk.resize(num_types, 0);
                (kk, vv)
            })
            .collect();
        // Build the automaton: states 0..num_types are types, state
        // num_types is the reject sink.
        let sink = num_types;
        let num_states = num_types + 1;
        let mut any_clause = Guard::False;
        let mut guards: Vec<Guard> = vec![Guard::False; num_states];
        for (veck, &s) in &final_transitions {
            let mut clause = Guard::True;
            for (st, &c) in veck.iter().enumerate() {
                let atom = if c == cap {
                    Guard::AtLeast(CountAtom {
                        states: 1u64 << st,
                        count: cap,
                    })
                } else {
                    Guard::exactly(1u64 << st, c)
                };
                clause = Guard::And(Box::new(clause), Box::new(atom));
            }
            // Any child in the sink keeps us in the sink.
            let no_sink = Guard::AtMost(CountAtom {
                states: 1u64 << sink,
                count: 0,
            });
            let full = Guard::And(Box::new(clause), Box::new(no_sink));
            guards[s] = Guard::Or(Box::new(guards[s].clone()), Box::new(full.clone()));
            any_clause = Guard::Or(Box::new(any_clause), Box::new(full));
        }
        guards[sink] = Guard::Not(Box::new(any_clause));
        let accepting: Vec<bool> = (0..num_types)
            .map(|s| models(&reps[s].graph, phi))
            .chain([false]) // the sink rejects.
            .collect();
        let automaton = TreeAutomaton::new(
            num_states,
            1,
            guards.into_iter().map(|g| vec![g]).collect(),
            accepting,
        )
        .expect("well-formed");
        locert_trace::add("automata.synthesis.runs", 1);
        locert_trace::add("automata.synthesis.types", num_types as u64);
        locert_trace::add(
            "automata.synthesis.transitions",
            final_transitions.len() as u64,
        );
        locert_trace::record("automata.synthesis.states", num_states as u64);
        locert_trace::record("automata.synthesis.rank", k as u64);
        Ok(TrainedAutomaton {
            automaton,
            transitions: final_transitions,
            num_types,
            k,
        })
    }

    /// The compiled automaton (deterministic and complete; unobserved
    /// configurations land in a rejecting sink).
    pub fn automaton(&self) -> &TreeAutomaton {
        &self.automaton
    }

    /// Number of discovered rank-`k` types (excluding the sink).
    pub fn num_types(&self) -> usize {
        self.num_types
    }

    /// The quantifier rank the compiler ran at.
    pub fn rank(&self) -> usize {
        self.k
    }

    /// Whether every children-count vector of `tree` was observed during
    /// training — i.e. whether the automaton's verdict on `tree` is
    /// *complete* (accept ⇔ `φ`), not merely sound.
    pub fn covers(&self, tree: &RootedTree) -> bool {
        let mut state = vec![usize::MAX; tree.num_nodes()];
        for v in tree.postorder() {
            let mut counts = vec![0usize; self.num_types];
            for &c in tree.children(v) {
                if state[c.0] == usize::MAX {
                    return false;
                }
                counts[state[c.0]] = (counts[state[c.0]] + 1).min(self.k);
            }
            match self.transitions.get(&counts) {
                Some(&s) => state[v.0] = s,
                None => return false,
            }
        }
        true
    }
}

/// Convenience: trains on all rooted trees with up to `train_size`
/// vertices (exhaustive corpus via the enumeration module).
///
/// # Errors
///
/// See [`TrainedAutomaton::train`].
///
/// # Panics
///
/// Panics if `train_size > 12` (corpus explosion guard).
pub fn fo_tree_automaton(
    phi: &Formula,
    train_size: usize,
    max_states: usize,
) -> Result<TrainedAutomaton, SynthesisError> {
    use locert_graph::enumerate::{enumerate_trees, parent_vec_to_rooted};
    assert!(train_size <= 12, "training corpus would explode");
    let mut corpus = Vec::new();
    for n in 1..=train_size {
        for pv in enumerate_trees(n, n) {
            corpus.push(parent_vec_to_rooted(&pv));
        }
    }
    TrainedAutomaton::train(phi, &corpus, max_states)
}

/// Pairs the compiler with the acceptance check on a tree (sound always,
/// complete when [`TrainedAutomaton::covers`] holds).
pub fn accepts(t: &TrainedAutomaton, tree: &RootedTree) -> bool {
    t.automaton().accepts(&LabeledTree::unlabeled(tree.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use locert_graph::{generators, RootedTree};
    use locert_logic::ast::{self, Var};
    use locert_logic::props;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rooted(g: &Graph) -> RootedTree {
        RootedTree::from_tree(g, NodeId(0)).unwrap()
    }

    /// Soundness everywhere + completeness on covered trees, against the
    /// brute-force evaluator.
    fn check(phi: &Formula, train_size: usize, trials: usize, seed: u64) {
        let compiled = fo_tree_automaton(phi, train_size, 63).expect("trains");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut covered = 0;
        for _ in 0..trials {
            let n = 1 + rand::RngExt::random_range(&mut rng, 0..8usize);
            let g = generators::random_tree(n, &mut rng);
            let t = rooted(&g);
            let verdict = accepts(&compiled, &t);
            let truth = models(&g, phi);
            // Soundness: accept ⇒ φ.
            assert!(!verdict || truth, "unsound accept on {g:?} for {phi}");
            if compiled.covers(&t) {
                covered += 1;
                assert_eq!(verdict, truth, "covered tree misjudged: {g:?} for {phi}");
            }
        }
        assert!(
            covered >= trials * 3 / 4,
            "training coverage too low: {covered}/{trials}"
        );
    }

    #[test]
    fn dominating_vertex_compiled() {
        check(&props::has_dominating_vertex(), 9, 30, 1);
    }

    #[test]
    fn min_degree_compiled() {
        check(&props::min_degree_1(), 9, 30, 2);
    }

    #[test]
    fn at_most_one_vertex_compiled() {
        check(&props::at_most_one_vertex(), 9, 30, 3);
    }

    #[test]
    fn exists_edge_compiled() {
        let (x, y) = (Var(0), Var(1));
        check(&ast::exists_all([x, y], ast::adj(x, y)), 9, 30, 4);
    }

    #[test]
    fn compiled_automaton_is_certifiable() {
        let compiled = fo_tree_automaton(&props::has_dominating_vertex(), 8, 63).unwrap();
        // Runs extract for the Theorem 2.2 certificates.
        let star = rooted(&generators::star(12));
        let t = LabeledTree::unlabeled(star.clone());
        assert!(compiled.covers(&star));
        let a = compiled.automaton();
        assert!(a.accepts(&t));
        let run = a.accepting_run(&t).unwrap();
        assert!(a.is_accepting_run(&t, &run));
    }

    #[test]
    fn uncovered_trees_are_rejected_not_misjudged() {
        // Train on tiny trees only; probe with shapes outside the corpus.
        let compiled = fo_tree_automaton(&props::min_degree_1(), 3, 63).unwrap();
        let big_star = rooted(&generators::star(12));
        let truth = models(&generators::star(12), &props::min_degree_1());
        // Sound either way: any accept implies the property.
        assert!(!accepts(&compiled, &big_star) || truth);
    }

    #[test]
    fn rejects_mso_and_open_formulas() {
        let x = Var(0);
        let s = locert_logic::ast::SetVar(0);
        assert!(matches!(
            TrainedAutomaton::train(&ast::exists_set(s, ast::forall(x, ast::mem(x, s))), &[], 63),
            Err(SynthesisError::NotAnFoSentence)
        ));
        assert!(matches!(
            TrainedAutomaton::train(&ast::adj(Var(0), Var(1)), &[], 63),
            Err(SynthesisError::NotAnFoSentence)
        ));
    }

    #[test]
    fn state_budget_enforced() {
        assert!(matches!(
            fo_tree_automaton(&props::has_dominating_vertex(), 9, 2),
            Err(SynthesisError::TooManyTypes { cap: 2 })
        ));
    }
}
