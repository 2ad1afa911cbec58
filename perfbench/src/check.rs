//! Correctness checks. Each mismatch counts as one failed operation in the
//! run's result; checks run outside the timed phase.

use std::collections::HashMap;

use topo_core::{ClassId, InstanceId, InvariantStore, StoreStats, TopologicalQuery};

/// A key the benchmark asked about: an instance (or instance state) and a
/// query.
pub type Key = (usize, TopologicalQuery);

/// Failure tally with the first few explanations.
#[derive(Debug, Default)]
pub struct Checker {
    pub checked: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checker {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 10 {
                self.notes.push(what());
            }
        }
    }

    /// Every observed answer must equal `truth` for its key.
    pub fn answers(&mut self, observed: &Answers, mut truth: impl FnMut(&Key) -> bool) {
        for (key, &answer) in &observed.first {
            let want = truth(key);
            self.expect(answer == want, || format!("{key:?}: answered {answer}, expected {want}"));
        }
        for key in &observed.conflicts {
            self.expect(false, || format!("{key:?}: answered both true and false"));
        }
    }

    /// A recovered store must place every instance in the class the live
    /// store had it in.
    pub fn recovered_classes(&mut self, live: &[Option<ClassId>], recovered: &InvariantStore) {
        for (id, &class) in live.iter().enumerate() {
            let got = recovered.class_of(id);
            self.expect(got == class, || {
                format!("instance {id}: live class {class:?}, recovered {got:?}")
            });
        }
    }

    /// Store counters that mark degraded or lost work count as failures.
    pub fn store_counters(&mut self, stats: &StoreStats) {
        for (name, n) in [
            ("wal_errors", stats.wal_errors),
            ("rejected", stats.rejected),
            ("fallback_evals", stats.fallback_evals),
        ] {
            self.checked += 1;
            self.failed += n;
            if n > 0 && self.notes.len() < 10 {
                self.notes.push(format!("store counted {n} {name}"));
            }
        }
    }
}

/// Distinct answers observed per key, with keys that were answered both ways.
#[derive(Debug, Default)]
pub struct Answers {
    pub first: HashMap<Key, bool>,
    pub conflicts: Vec<Key>,
}

impl Answers {
    pub fn with_capacity(keys: usize) -> Answers {
        Answers { first: HashMap::with_capacity(keys), conflicts: Vec::new() }
    }

    pub fn record(&mut self, key: Key, answer: bool) {
        match self.first.get(&key) {
            None => {
                self.first.insert(key, answer);
            }
            Some(&seen) if seen != answer && !self.conflicts.contains(&key) => {
                self.conflicts.push(key)
            }
            Some(_) => {}
        }
    }
}

/// The class of every id below `count` in a live store.
pub fn classes_of(store: &InvariantStore, count: InstanceId) -> Vec<Option<ClassId>> {
    (0..count).map(|id| store.class_of(id)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use topo_core::{top, MemoryBackend, Region, SpatialInstance, StoreConfig};

    fn two_maps() -> Vec<SpatialInstance> {
        vec![
            SpatialInstance::from_regions([
                ("a", Region::rectangle(0, 0, 10, 10)),
                ("b", Region::rectangle(2, 2, 4, 4)),
            ]),
            SpatialInstance::from_regions([
                ("a", Region::rectangle(0, 0, 10, 10)),
                ("b", Region::rectangle(20, 20, 24, 24)),
            ]),
        ]
    }

    #[test]
    fn a_wrong_answer_is_a_failure() {
        let maps = two_maps();
        let q = TopologicalQuery::Intersects(0, 1);
        let truth = |key: &Key| topo_core::evaluate_on_invariant(&key.1, &top(&maps[key.0]));
        let mut right = Answers::default();
        right.record((0, q), true);
        right.record((1, q), false);
        let mut checker = Checker::default();
        checker.answers(&right, truth);
        assert_eq!((checker.checked, checker.failed), (2, 0));

        let mut wrong = Answers::default();
        wrong.record((0, q), true);
        wrong.record((1, q), true);
        let mut checker = Checker::default();
        checker.answers(&wrong, truth);
        assert_eq!(checker.failed, 1);
        assert!(checker.notes[0].contains("expected false"));
    }

    #[test]
    fn an_answer_given_both_ways_is_a_failure() {
        let mut answers = Answers::default();
        let key = (0, TopologicalQuery::IsConnected(0));
        answers.record(key, true);
        answers.record(key, false);
        let mut checker = Checker::default();
        checker.answers(&answers, |_| true);
        assert_eq!(checker.failed, 1);
    }

    #[test]
    fn a_mismatched_recovered_class_is_a_failure() {
        let backend = MemoryBackend::new();
        let store = InvariantStore::open(StoreConfig::default(), backend.clone()).unwrap();
        for map in two_maps() {
            store.ingest(&map);
        }
        let live = classes_of(&store, 2);
        drop(store);
        let recovered = InvariantStore::open(StoreConfig::default(), backend).unwrap();
        let mut checker = Checker::default();
        checker.recovered_classes(&live, &recovered);
        assert_eq!(checker.failed, 0);

        let swapped = vec![live[1], live[0]];
        let mut checker = Checker::default();
        checker.recovered_classes(&swapped, &recovered);
        assert_eq!(checker.failed, 2);
    }

    #[test]
    fn degraded_store_counters_are_failures() {
        let store = InvariantStore::new(StoreConfig { max_classes: 1, ..StoreConfig::default() });
        let maps = two_maps();
        store.ingest_invariant(Arc::new(top(&maps[0])));
        assert!(store.try_ingest(&maps[1]).is_rejected());
        let mut checker = Checker::default();
        checker.store_counters(&store.stats());
        assert_eq!(checker.failed, 1);
    }
}
