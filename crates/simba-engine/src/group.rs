//! The one boxed GROUP BY. Every engine but the `sqlite-like` oracle (an
//! ordered map, emitting in key order) aggregates what its typed paths cannot
//! through a [`GroupTable`]: a key encoder, one accumulator row per group id,
//! each key stored once, and a fixed emission order, so a `LIMIT` without a
//! total `ORDER BY` cuts the same groups on every engine, thread count and
//! delta tier:
//!
//! - **dense index** (the only key is a bare dictionary-encoded column):
//!   code order, the NULL slot last — the typed code-indexed states' order;
//! - **hash index** (anything else): first appearance in scan order;
//! - `GroupTable::merge` appends the other table's unseen keys in its
//!   order, so range partials merged in range order emit what one
//!   sequential scan would.

use crate::agg::{Accumulator, AggSpec};
use crate::batch::dict_group_key_col;
use crate::eval::{eval, CExpr, TableRow};
use crate::exec::{emit_finalized_groups, new_group};
use simba_store::{Table, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// How a row finds its group id.
#[derive(Debug, Clone)]
enum KeyIndex {
    /// Slot = the key column's dictionary code, the last slot NULL; each
    /// slot holds its group id once a row has reached it.
    Dense { col: usize, slots: Vec<Option<u32>> },
    /// Key tuple → group id, probed from `scratch` so a row that joins an
    /// existing group allocates nothing. Probed, never iterated.
    Hash {
        keys: Vec<CExpr>,
        ids: HashMap<Arc<[Value]>, u32>,
        scratch: Vec<Value>,
    },
}

/// A group's key (shared with the hash index) and accumulators.
type Group = (Arc<[Value]>, Vec<Accumulator>);

/// Append a group and return its id.
fn push(groups: &mut Vec<Group>, key: Arc<[Value]>, accs: Vec<Accumulator>) -> u32 {
    groups.push((key, accs));
    (groups.len() - 1) as u32
}

/// A group's key beside its finalized aggregates.
fn finalized((key, accs): &Group) -> (&Arc<[Value]>, Vec<Value>) {
    (key, accs.iter().map(Accumulator::finalize).collect())
}

/// Grouped aggregation state over boxed [`Value`]s: key encoder, one
/// accumulator row per group id, fixed emission order (see the module docs).
#[derive(Debug, Clone)]
pub struct GroupTable {
    index: KeyIndex,
    /// The aggregates every group carries, one accumulator each.
    pub(crate) aggs: Vec<AggSpec>,
    /// Indexed by group id; ids are handed out in insertion order.
    groups: Vec<Group>,
}

impl GroupTable {
    /// An empty table for GROUP BY `keys` computing `aggs` over `table`; a
    /// global aggregate starts with its one group, emitted even over no rows.
    pub(crate) fn new(keys: &[CExpr], aggs: &[AggSpec], table: &Table) -> GroupTable {
        let mut index = match dict_group_key_col(keys, table) {
            Some(col) => KeyIndex::Dense {
                col,
                slots: vec![None; table.column(col).dictionary().map_or(0, <[_]>::len) + 1],
            },
            None => KeyIndex::Hash {
                keys: keys.to_vec(),
                ids: HashMap::new(),
                scratch: Vec::with_capacity(keys.len()),
            },
        };
        let mut groups = Vec::new();
        if let (true, KeyIndex::Hash { ids, .. }) = (keys.is_empty(), &mut index) {
            let key: Arc<[Value]> = Arc::from([]);
            ids.insert(key.clone(), push(&mut groups, key, new_group(aggs)));
        }
        GroupTable {
            index,
            aggs: aggs.to_vec(),
            groups,
        }
    }

    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.groups.len()
    }

    /// Feed the selected `rows` of `table`, in order.
    pub(crate) fn update(&mut self, table: &Table, rows: &[u32]) {
        for &row in rows {
            let ctx = TableRow {
                table,
                row: row as usize,
            };
            let id = match &mut self.index {
                KeyIndex::Dense { col, slots } => {
                    let column = table.column(*col);
                    let slot = column.code(ctx.row).map_or(slots.len() - 1, |c| c as usize);
                    *slots[slot].get_or_insert_with(|| {
                        let key = Arc::from([column.value(ctx.row)]);
                        push(&mut self.groups, key, new_group(&self.aggs))
                    })
                }
                KeyIndex::Hash { keys, ids, scratch } => {
                    scratch.clear();
                    scratch.extend(keys.iter().map(|k| eval(k, &ctx)));
                    match ids.get(scratch.as_slice()) {
                        Some(&id) => id,
                        None => {
                            let key: Arc<[Value]> = Arc::from(scratch.as_slice());
                            let id = push(&mut self.groups, key.clone(), new_group(&self.aggs));
                            ids.insert(key, id);
                            id
                        }
                    }
                }
            };
            let accs = &mut self.groups[id as usize].1;
            for (acc, spec) in accs.iter_mut().zip(&self.aggs) {
                match &spec.arg {
                    None => acc.update_star(),
                    Some(arg) => acc.update_value(eval(arg, &ctx)),
                }
            }
        }
    }

    /// Fold in `other`, built by the same query over a *later* scan range:
    /// shared keys merge their accumulators (keep-first min/max ties hold),
    /// unseen keys are appended in `other`'s order.
    pub(crate) fn merge(&mut self, mut other: GroupTable) {
        let mut fold = |mine: Option<u32>, (key, accs): Group| match mine {
            Some(id) => {
                let mine = &mut self.groups[id as usize].1;
                for (m, t) in mine.iter_mut().zip(&accs) {
                    m.merge(t);
                }
                id
            }
            None => push(&mut self.groups, key, accs),
        };
        match (&mut self.index, other.index) {
            (KeyIndex::Dense { slots, .. }, KeyIndex::Dense { slots: theirs, .. }) => {
                for (slot, their) in theirs.into_iter().enumerate() {
                    if let Some(their) = their {
                        let group = std::mem::take(&mut other.groups[their as usize]);
                        slots[slot] = Some(fold(slots[slot], group));
                    }
                }
            }
            (KeyIndex::Hash { ids, .. }, KeyIndex::Hash { .. }) => {
                for group in other.groups {
                    let key = group.0.clone();
                    let id = fold(ids.get(&key).copied(), group);
                    ids.insert(key, id);
                }
            }
            _ => unreachable!("one query's group tables share one key encoder"),
        }
    }

    /// Output rows, in emission order: each group's `[keys…, aggregates…]`
    /// filtered by `having` and projected through `projections`.
    pub(crate) fn emit(&self, projections: &[CExpr], having: Option<&CExpr>) -> Vec<Vec<Value>> {
        match &self.index {
            KeyIndex::Dense { slots, .. } => {
                let groups = slots.iter().flatten().map(|&id| &self.groups[id as usize]);
                emit_finalized_groups(projections, having, groups.map(finalized))
            }
            KeyIndex::Hash { .. } => {
                emit_finalized_groups(projections, having, self.groups.iter().map(finalized))
            }
        }
    }

    /// [`emit`](Self::emit) for a table nobody keeps: each hash-indexed group
    /// is freed once its row is out, so table and rows never peak together.
    pub(crate) fn into_rows(
        self,
        projections: &[CExpr],
        having: Option<&CExpr>,
    ) -> Vec<Vec<Value>> {
        let KeyIndex::Hash { .. } = self.index else {
            return self.emit(projections, having);
        };
        drop(self.index);
        let finalize = |(key, accs): Group| (key, accs.iter().map(Accumulator::finalize).collect());
        emit_finalized_groups(projections, having, self.groups.into_iter().map(finalize))
    }
}
