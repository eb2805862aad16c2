//! Results as rows of `Value`s — how `ResultSet` stored them before it
//! became one typed column per output column — with the coverage
//! operations and the fingerprint as they were defined over those rows.
//! The columnar `ResultSet` is checked against these.

use simba_store::Value;
use std::collections::HashMap;

/// Named columns and row-major values.
#[derive(Debug, Clone)]
pub struct Rows {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

impl Rows {
    fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }

    fn project(&self, names: &[&str]) -> Option<Rows> {
        let idx: Vec<usize> = names
            .iter()
            .map(|n| self.column_index(n))
            .collect::<Option<_>>()?;
        let rows = self
            .rows
            .iter()
            .map(|r| idx.iter().map(|&i| r[i].clone()).collect())
            .collect();
        Some(Rows {
            columns: names.iter().map(|s| s.to_string()).collect(),
            rows,
        })
    }

    fn row_bag(&self) -> HashMap<&[Value], usize> {
        let mut bag: HashMap<&[Value], usize> = HashMap::with_capacity(self.rows.len());
        for r in &self.rows {
            *bag.entry(r.as_slice()).or_insert(0) += 1;
        }
        bag
    }

    pub fn multiset_eq(&self, other: &Rows) -> bool {
        if self.columns.len() != other.columns.len()
            || !self
                .columns
                .iter()
                .zip(&other.columns)
                .all(|(a, b)| a.eq_ignore_ascii_case(b))
        {
            return false;
        }
        if self.rows.len() != other.rows.len() {
            return false;
        }
        self.row_bag() == other.row_bag()
    }

    pub fn subsumes(&self, goal: &Rows) -> bool {
        self.covered_rows(goal) == goal.rows.len()
    }

    pub fn covered_rows(&self, goal: &Rows) -> usize {
        let names: Vec<&str> = goal.columns.iter().map(String::as_str).collect();
        let Some(projected) = self.project(&names) else {
            return 0;
        };
        let mut have: HashMap<Vec<Value>, usize> = HashMap::with_capacity(projected.rows.len());
        for r in projected.rows {
            *have.entry(r).or_insert(0) += 1;
        }
        let mut covered = 0usize;
        for r in &goal.rows {
            if let Some(count) = have.get_mut(r.as_slice()) {
                if *count > 0 {
                    *count -= 1;
                    covered += 1;
                }
            }
        }
        covered
    }

    pub fn sorted_rows(&self) -> Vec<Vec<Value>> {
        let mut rows = self.rows.clone();
        rows.sort();
        rows
    }

    /// Equality as a derived `PartialEq` over the two fields read it.
    pub fn eq(&self, other: &Rows) -> bool {
        self.columns == other.columns && self.rows == other.rows
    }

    /// The fingerprint as it was written: clone and sort the rows, then
    /// hash each row's `Debug` form, formatted into a fresh `String`.
    pub fn fingerprint(&self) -> u64 {
        let mut h = simba_store::mix::Fnv1a::new();
        for row in self.sorted_rows() {
            h.write(format!("{row:?}").as_bytes());
            h.write(&[0xFF]);
        }
        h.finish()
    }
}
