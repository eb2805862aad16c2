//! [`ProbeMap`]: a hash map that can be probed and never iterated.
//!
//! A hash container's iteration order is per-process random, so a run that
//! iterates one is not byte-identical per seed. `clippy.toml` bans the
//! iteration methods by name, but it cannot name a trait method, so
//! `map.into_iter()` outside a `for` loop gets past it. A map whose keys are
//! only ever looked up is a `ProbeMap`: it offers no iteration at all, and
//! its `Debug` prints its length, not its entries.

use std::borrow::Borrow;
use std::collections::hash_map::{Entry, HashMap, RandomState};
use std::hash::{BuildHasher, Hash};

/// A hash map with lookups and insertions but no iteration API.
#[derive(Clone)]
pub struct ProbeMap<K, V, S = RandomState>(HashMap<K, V, S>);

impl<K, V, S: Default> Default for ProbeMap<K, V, S> {
    fn default() -> Self {
        ProbeMap(HashMap::default())
    }
}

impl<K, V, S> std::fmt::Debug for ProbeMap<K, V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeMap")
            .field("len", &self.0.len())
            .finish()
    }
}

impl<K: Eq + Hash, V, S: BuildHasher> ProbeMap<K, V, S> {
    /// The value stored under `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.0.get(key)
    }

    /// The slot for `key`, occupied or vacant.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        self.0.entry(key)
    }

    /// Store `value` under `key`, returning what was there.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.0.insert(key, value)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Remove every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_insert_and_clear() {
        let mut map: ProbeMap<Box<str>, u32> = ProbeMap::default();
        assert!(map.is_empty());
        assert_eq!(map.insert("a".into(), 1), None);
        *map.entry("b".into()).or_insert(0) += 2;
        assert_eq!(map.get("a"), Some(&1));
        assert_eq!(map.get("b"), Some(&2));
        assert_eq!(map.get("c"), None);
        assert_eq!(map.insert("a".into(), 3), Some(1));
        assert_eq!(map.len(), 2);
        assert_eq!(format!("{map:?}"), "ProbeMap { len: 2 }");
        map.clear();
        assert_eq!(map.len(), 0);
        assert_eq!(map.get("a"), None);
    }
}
