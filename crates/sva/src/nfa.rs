//! Thompson-style compilation of sequences to NFAs.
//!
//! A sequence's NFA has one start state and one accept state. Transitions
//! either *consume* one clock cycle (labelled with a [`SvaBool`] that must
//! hold during that cycle) or are epsilon moves. Online matching tracks the
//! epsilon-closed set of live states as a bitset: the sequence has
//! *matched* once the accept state is live, and can no longer match once
//! the live set is empty.

use crate::ast::{Seq, SvaBool};

/// A compact set of NFA states.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set sized for `n` states.
    pub fn empty(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Inserts a state. Returns `true` if it was newly inserted.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        let newly = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        newly
    }

    /// Whether the state is present.
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Whether no state is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Iterates over present states.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter_map(move |b| {
                if w & (1 << b) != 0 {
                    Some(wi * 64 + b)
                } else {
                    None
                }
            })
        })
    }
}

/// One NFA state's outgoing transitions.
#[derive(Debug, Clone)]
struct StateNode<A> {
    /// Consuming transitions: `(guard, target)`.
    consuming: Vec<(SvaBool<A>, usize)>,
    /// Epsilon transitions.
    eps: Vec<usize>,
}

/// A compiled sequence NFA.
#[derive(Debug, Clone)]
pub struct Nfa<A> {
    states: Vec<StateNode<A>>,
    start: usize,
    accept: usize,
}

impl<A: Clone> Nfa<A> {
    /// Compiles a sequence.
    pub fn compile(seq: &Seq<A>) -> Self {
        let mut states: Vec<StateNode<A>> = Vec::new();
        let fresh = |states: &mut Vec<StateNode<A>>| {
            states.push(StateNode {
                consuming: Vec::new(),
                eps: Vec::new(),
            });
            states.len() - 1
        };
        let start = fresh(&mut states);
        let accept = build(seq, start, &mut states);
        Nfa {
            states,
            start,
            accept,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// The initial live set: the epsilon closure of the start state.
    pub fn initial(&self) -> BitSet {
        let mut set = BitSet::empty(self.states.len());
        set.insert(self.start);
        self.close(&mut set);
        set
    }

    /// Whether a live set includes the accept state (the sequence has
    /// matched).
    pub fn accepts(&self, set: &BitSet) -> bool {
        set.contains(self.accept)
    }

    /// Advances the live set by one clock cycle under the given atom
    /// valuation.
    pub fn step(&self, set: &BitSet, env: &dyn Fn(&A) -> bool) -> BitSet {
        let mut next = BitSet::empty(self.states.len());
        for s in set.iter() {
            for (guard, target) in &self.states[s].consuming {
                if guard.eval(env) {
                    next.insert(*target);
                }
            }
        }
        self.close(&mut next);
        next
    }

    /// Epsilon-closes a state set in place.
    fn close(&self, set: &mut BitSet) {
        let mut stack: Vec<usize> = set.iter().collect();
        while let Some(s) = stack.pop() {
            for &t in &self.states[s].eps {
                if set.insert(t) {
                    stack.push(t);
                }
            }
        }
    }
}

/// Builds the fragment for `seq` starting at state `from`; returns its
/// accept state.
fn build<A: Clone>(seq: &Seq<A>, from: usize, states: &mut Vec<StateNode<A>>) -> usize {
    let fresh = |states: &mut Vec<StateNode<A>>| {
        states.push(StateNode {
            consuming: Vec::new(),
            eps: Vec::new(),
        });
        states.len() - 1
    };
    match seq {
        Seq::Bool(b) => {
            let acc = fresh(states);
            states[from].consuming.push((b.clone(), acc));
            acc
        }
        Seq::Then(a, b) => {
            let mid = build(a, from, states);
            build(b, mid, states)
        }
        Seq::Or(a, b) => {
            let sa = fresh(states);
            let sb = fresh(states);
            states[from].eps.push(sa);
            states[from].eps.push(sb);
            let aa = build(a, sa, states);
            let ab = build(b, sb, states);
            let acc = fresh(states);
            states[aa].eps.push(acc);
            states[ab].eps.push(acc);
            acc
        }
        Seq::Repeat { body, min, max } => {
            // `min` mandatory copies…
            let mut cur = from;
            for _ in 0..*min {
                cur = build(body, cur, states);
            }
            match max {
                Some(max) => {
                    // …then (max - min) optional copies, each skippable.
                    let acc = fresh(states);
                    states[cur].eps.push(acc);
                    for _ in *min..*max {
                        cur = build(body, cur, states);
                        states[cur].eps.push(acc);
                    }
                    acc
                }
                None => {
                    // …then a loop: after each extra copy, return to the
                    // loop head; the head is accepting via epsilon.
                    let head = fresh(states);
                    states[cur].eps.push(head);
                    let back = build(body, head, states);
                    states[back].eps.push(head);
                    head
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::SvaBool;

    type S = Seq<u32>;

    fn atom(v: u32) -> SvaBool<u32> {
        SvaBool::atom(v)
    }

    /// Runs the NFA over a trace of true-atom sets; returns
    /// (matched_at_cycles, died_at_cycle).
    fn run(seq: &S, trace: &[&[u32]]) -> (Vec<usize>, Option<usize>) {
        let nfa = Nfa::compile(seq);
        let mut set = nfa.initial();
        let mut matches = Vec::new();
        if nfa.accepts(&set) {
            // Empty match before consuming anything is not observable in
            // our use (sequences always consume ≥1 cycle at top level).
        }
        for (i, tru) in trace.iter().enumerate() {
            set = nfa.step(&set, &|a| tru.contains(a));
            if nfa.accepts(&set) {
                matches.push(i);
            }
            if set.is_empty() {
                return (matches, Some(i));
            }
        }
        (matches, None)
    }

    #[test]
    fn single_bool_matches_one_cycle() {
        let s = S::boolean(atom(1));
        let (m, died) = run(&s, &[&[1]]);
        assert_eq!(m, vec![0]);
        assert_eq!(
            died, None,
            "accept state has no outgoing edges but stays live"
        );
        let (m, died) = run(&s, &[&[2]]);
        assert!(m.is_empty());
        assert_eq!(died, Some(0));
    }

    #[test]
    fn then_requires_consecutive_cycles() {
        let s = S::then(S::boolean(atom(1)), S::boolean(atom(2)));
        let (m, _) = run(&s, &[&[1], &[2]]);
        assert_eq!(m, vec![1]);
        let (m, died) = run(&s, &[&[1], &[1]]);
        assert!(m.is_empty());
        assert_eq!(died, Some(1));
    }

    #[test]
    fn delay_exact() {
        // ##2 a : a at cycle 2.
        let s = S::delay_exact(2, S::boolean(atom(1)));
        let (m, _) = run(&s, &[&[], &[], &[1]]);
        assert_eq!(m, vec![2]);
        let (m, died) = run(&s, &[&[], &[], &[]]);
        assert!(m.is_empty());
        assert_eq!(died, Some(2));
    }

    #[test]
    fn unbounded_delay_never_dies() {
        // ##[0:$] a
        let s = S::delay(0, None, S::boolean(atom(1)));
        let (m, died) = run(&s, &[&[], &[], &[], &[]]);
        assert!(m.is_empty());
        assert_eq!(died, None, "unbounded delay keeps the attempt alive");
        let (m, _) = run(&s, &[&[], &[1], &[], &[1]]);
        assert_eq!(m, vec![1, 3], "every delay choice can match");
    }

    #[test]
    fn repeat_bounds() {
        // a[*2:3]
        let s = S::repeat(S::boolean(atom(1)), 2, Some(3));
        let (m, _) = run(&s, &[&[1], &[1], &[1], &[1]]);
        assert_eq!(m, vec![1, 2], "matches after 2 and 3 copies, not 4");
    }

    #[test]
    fn zero_repeat_allows_immediate_continuation() {
        // (~a)[*0:$] ##1 a — the paper's strict-delay idiom: a may occur at
        // the very first cycle.
        let not_a = SvaBool::not(atom(1));
        let s = S::then(S::repeat(S::boolean(not_a), 0, None), S::boolean(atom(1)));
        let (m, _) = run(&s, &[&[1]]);
        assert_eq!(m, vec![0]);
        let (m, _) = run(&s, &[&[], &[], &[1]]);
        assert_eq!(m, vec![2]);
    }

    #[test]
    fn strict_delay_dies_on_excluded_event() {
        // (~(a|b))[*0:$] ##1 a ##1 (~(a|b))[*0:$] ##1 b  — the §4.3 edge
        // encoding. If b occurs before a, the attempt dies.
        let a = || atom(1);
        let b = || atom(2);
        let not_ab = || SvaBool::not(SvaBool::or(a(), b()));
        let s = S::chain(vec![
            S::repeat(S::boolean(not_ab()), 0, None),
            S::boolean(a()),
            S::repeat(S::boolean(not_ab()), 0, None),
            S::boolean(b()),
        ]);
        // b before a: dies at cycle 0 (neither "quiet" nor "a").
        let (m, died) = run(&s, &[&[2], &[1]]);
        assert!(m.is_empty());
        assert_eq!(died, Some(0));
        // a then b with quiet cycles: matches.
        let (m, _) = run(&s, &[&[], &[1], &[], &[2]]);
        assert_eq!(m, vec![3]);
        // a then a again: dies (the delay excludes recurrences of a).
        let (m, died) = run(&s, &[&[1], &[1]]);
        assert!(m.is_empty());
        assert_eq!(died, Some(1));
    }

    /// §3.3 / Figure 6: the *naive* `##[0:$] a ##[1:$] b` encoding does NOT
    /// die when the events occur in the wrong order — the unbounded delays
    /// swallow everything, so the violating trace is not a counterexample.
    #[test]
    fn naive_delay_encoding_misses_reordered_events() {
        let a = || S::boolean(atom(1));
        let b = || S::boolean(atom(2));
        let naive = S::delay(0, None, S::then(a(), S::delay(0, None, b())));
        // Trace: b at cycle 0, a at cycle 1 (reversed order), then quiet.
        let (m, died) = run(&naive, &[&[2], &[1], &[], &[]]);
        assert!(m.is_empty());
        assert_eq!(
            died, None,
            "the naive encoding never fails — it misses the bug"
        );
    }

    #[test]
    fn or_takes_either_branch() {
        let s = S::Or(
            Box::new(S::boolean(atom(1))),
            Box::new(S::then(S::boolean(atom(2)), S::boolean(atom(3)))),
        );
        let (m, _) = run(&s, &[&[2], &[3]]);
        assert_eq!(m, vec![1]);
        let (m, _) = run(&s, &[&[1]]);
        assert_eq!(m, vec![0]);
    }

    #[test]
    fn bitset_operations() {
        let mut s = BitSet::empty(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        let items: Vec<usize> = s.iter().collect();
        assert_eq!(items, vec![0, 129]);
    }
}
