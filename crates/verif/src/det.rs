//! Monitors determinised on the fly.
//!
//! Both the property walks (assertion monitors over the atom ranks of a
//! property shape, shared by a graph's walks of that shape) and the state
//! graph's row build (assumption monitors over [`RtlAtom`]s)
//! step an SVA [`Monitor`] from many product states. [`DetMonitor`]
//! interns every monitor state it reaches to a dense `u32` id and memoises
//! each transition `(id, valuation of the property's own atoms)`, so the
//! real [`Monitor::step`] runs once per distinct transition rather than
//! once per edge, and product keys hash a `u32` instead of a
//! [`MonitorState`]'s pending-attempt set.
//!
//! [`RtlAtom`]: crate::atom::RtlAtom

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use rtlcheck_sva::{Monitor, MonitorState, Prop};

/// A hash map keyed on ids the program assigns itself (graph nodes,
/// interned monitor states and tuples, at most paired with a property's
/// packed atom valuation): [`IdHasher`] instead of std's SipHash, which
/// the walk would otherwise pay on every transition. Keys a client can
/// choose — design states simulated from a submitted litmus test — stay
/// on SipHash.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A multiply-rotate hasher: one wrapping add and multiply per word, and
/// a rotate at the end that moves the product's best-mixed high bits to
/// the low bits the table indexes on. Not collision-resistant; see
/// [`IdMap`].
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl IdHasher {
    /// An odd constant with well-spread bits.
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(Self::K);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Successor id of a transition that fails the monitor. Failure is
/// absorbing, so this id never labels a product node.
pub(crate) const FAILED: u32 = u32::MAX - 1;

/// A monitor determinised lazily: interned states plus a transition memo.
///
/// Memoising is sound because a monitor's successor is a function of its
/// state and its atoms' values alone. A memo hit replays the step's
/// metrics ([`Monitor::record_memoised_step`]), so `monitor.*` counters
/// match an unmemoised run.
pub(crate) struct DetMonitor<A> {
    pub(crate) monitor: Monitor<A>,
    /// Interned states by id, each allocated once and shared with `ids`:
    /// a graph keeps a shape's monitor across that shape's walks.
    states: Vec<Rc<MonitorState>>,
    ids: HashMap<Rc<MonitorState>, u32>,
    /// The property's distinct atoms, ascending: bit `j` of a memo key is
    /// the value of `atoms[j]`.
    atoms: Vec<A>,
    /// `(state id, packed atom valuation)` → `(successor id or FAILED,
    /// whether the step's antecedent filtered the attempt)`. `None` past
    /// 64 atoms, whose valuations do not pack into a `u64`: such a monitor
    /// steps on every call (its states are still interned).
    memo: Option<IdMap<(u32, u64), (u32, bool)>>,
    /// Real [`Monitor::step`] calls.
    pub(crate) steps: u64,
    pub(crate) memo_hits: u64,
}

impl<A: Clone + Ord> DetMonitor<A> {
    /// Id of the initial (pre-first-cycle) monitor state.
    pub(crate) const INITIAL: u32 = 0;

    pub(crate) fn new(prop: &Prop<A>) -> Self {
        let mut atoms = Vec::new();
        prop.for_each_atom(&mut |a| atoms.push(a.clone()));
        atoms.sort_unstable();
        atoms.dedup();
        let memo = (atoms.len() <= 64).then(IdMap::default);
        let monitor = Monitor::new(prop);
        let initial = monitor.state().clone();
        let mut det = DetMonitor {
            monitor,
            states: Vec::new(),
            ids: HashMap::new(),
            atoms,
            memo,
            steps: 0,
            memo_hits: 0,
        };
        det.intern(initial);
        det
    }

    /// The id of `state`, interning it on first sight.
    ///
    /// # Panics
    ///
    /// Panics if the monitor reaches more states than `u32` ids can name.
    pub(crate) fn intern(&mut self, state: MonitorState) -> u32 {
        if let Some(&id) = self.ids.get(&state) {
            return id;
        }
        let id = u32::try_from(self.states.len())
            .ok()
            .filter(|&id| id < FAILED)
            .expect("monitor states fit in u32 ids");
        let state = Rc::new(state);
        self.states.push(Rc::clone(&state));
        self.ids.insert(state, id);
        id
    }

    /// The state interned as `id`.
    pub(crate) fn state(&self, id: u32) -> &MonitorState {
        &self.states[id as usize]
    }

    /// The successor of interned state `id` on a cycle where atom `a`
    /// holds iff `holds(a)`, or [`FAILED`].
    pub(crate) fn step(&mut self, id: u32, holds: impl Fn(&A) -> bool) -> u32 {
        let key = self.memo.as_ref().map(|_| {
            let packed = self
                .atoms
                .iter()
                .enumerate()
                .fold(0u64, |acc, (j, a)| acc | (u64::from(holds(a)) << j));
            (id, packed)
        });
        if let Some(&(next, filtered)) = key.and_then(|k| self.memo.as_ref()?.get(&k)) {
            self.memo_hits += 1;
            self.monitor.record_memoised_step(filtered);
            return next;
        }
        self.steps += 1;
        let filter_hits = self.monitor.metrics().first_filter_hits;
        self.monitor
            .set_state(MonitorState::clone(&self.states[id as usize]));
        self.monitor.step(&holds);
        let filtered = self.monitor.metrics().first_filter_hits != filter_hits;
        let next = if self.monitor.failed() {
            FAILED
        } else {
            self.intern(self.monitor.state().clone())
        };
        if let (Some(memo), Some(key)) = (&mut self.memo, key) {
            memo.insert(key, (next, filtered));
        }
        next
    }
}
