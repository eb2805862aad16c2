//! The interaction graph: the paper's joint representation of dashboard
//! state (§3.0.2).
//!
//! Nodes are visualizations and interaction widgets; a directed edge runs
//! from a source component to every component it updates. The **Interaction
//! Layer** is the graph plus per-node interaction state
//! ([`DashboardState`]); the **Data Layer** ([`data_layer`]) renders each
//! visualization node's state as a SQL query.

pub mod data_layer;

use crate::error::CoreError;
use crate::spec::{validate::validate, DashboardSpec};
use std::collections::{BTreeSet, HashMap};

/// Index of a node in the interaction graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Index into `spec.visualizations`.
    Visualization(usize),
    /// Index into `spec.widgets`.
    Widget(usize),
}

/// The interaction layer graph built from a dashboard specification.
#[derive(Debug, Clone)]
pub struct InteractionGraph {
    pub spec: DashboardSpec,
    kinds: Vec<NodeKind>,
    ids: Vec<String>,
    out_edges: Vec<Vec<usize>>,
    in_edges: Vec<Vec<usize>>,
    by_id: HashMap<String, usize>,
}

impl InteractionGraph {
    /// Build (and validate) the graph from a specification.
    pub fn from_spec(spec: DashboardSpec) -> Result<Self, CoreError> {
        validate(&spec)?;
        let n = spec.visualizations.len() + spec.widgets.len();
        let mut kinds = Vec::with_capacity(n);
        let mut ids = Vec::with_capacity(n);
        let mut by_id = HashMap::with_capacity(n);
        for (i, v) in spec.visualizations.iter().enumerate() {
            by_id.insert(v.id.to_ascii_lowercase(), kinds.len());
            kinds.push(NodeKind::Visualization(i));
            ids.push(v.id.clone());
        }
        for (i, w) in spec.widgets.iter().enumerate() {
            by_id.insert(w.id.to_ascii_lowercase(), kinds.len());
            kinds.push(NodeKind::Widget(i));
            ids.push(w.id.clone());
        }
        let mut out_edges = vec![Vec::new(); n];
        let mut in_edges = vec![Vec::new(); n];
        for l in &spec.links {
            let s = by_id[&l.source.to_ascii_lowercase()];
            let t = by_id[&l.target.to_ascii_lowercase()];
            if !out_edges[s].contains(&t) {
                out_edges[s].push(t);
                in_edges[t].push(s);
            }
        }
        Ok(Self {
            spec,
            kinds,
            ids,
            out_edges,
            in_edges,
            by_id,
        })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Kind of a node.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.kinds[node.0]
    }

    /// String id of a node.
    pub fn id(&self, node: NodeId) -> &str {
        &self.ids[node.0]
    }

    /// Look up a node by its string id (case-insensitive).
    pub fn node(&self, id: &str) -> Option<NodeId> {
        self.by_id
            .get(&id.to_ascii_lowercase())
            .copied()
            .map(NodeId)
    }

    /// All visualization nodes.
    pub fn visualization_nodes(&self) -> Vec<NodeId> {
        (0..self.kinds.len())
            .filter(|&i| matches!(self.kinds[i], NodeKind::Visualization(_)))
            .map(NodeId)
            .collect()
    }

    /// All widget nodes.
    pub fn widget_nodes(&self) -> Vec<NodeId> {
        (0..self.kinds.len())
            .filter(|&i| matches!(self.kinds[i], NodeKind::Widget(_)))
            .map(NodeId)
            .collect()
    }

    /// Nodes reachable from `node` by following outbound edges (excluding
    /// the node itself) — the components an interaction must refresh
    /// (§3.0.3's recursive filter propagation).
    pub fn descendants(&self, node: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.kinds.len()];
        let mut stack = self.out_edges[node.0].clone();
        let mut out = Vec::new();
        while let Some(i) = stack.pop() {
            if seen[i] {
                continue;
            }
            seen[i] = true;
            out.push(NodeId(i));
            stack.extend(&self.out_edges[i]);
        }
        out.sort();
        out
    }

    /// Nodes with a directed path *to* `node` — the components whose state
    /// filters this node's query.
    pub fn ancestors(&self, node: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.kinds.len()];
        let mut stack = self.in_edges[node.0].clone();
        let mut out = Vec::new();
        while let Some(i) = stack.pop() {
            if seen[i] {
                continue;
            }
            seen[i] = true;
            out.push(NodeId(i));
            stack.extend(&self.in_edges[i]);
        }
        out.sort();
        out
    }

    /// Total edge count.
    pub fn edge_count(&self) -> usize {
        self.out_edges.iter().map(Vec::len).sum()
    }

    /// The fresh (no interactions yet) dashboard state.
    pub fn initial_state(&self) -> DashboardState {
        let states = self
            .kinds
            .iter()
            .map(|k| match k {
                NodeKind::Visualization(_) => NodeState::VisSelection(BTreeSet::new()),
                NodeKind::Widget(i) => {
                    NodeState::Widget(WidgetState::empty(&self.spec.widgets[*i].control))
                }
            })
            .collect();
        DashboardState { states }
    }
}

/// Interaction state of one widget.
#[derive(Debug, Clone, PartialEq)]
pub enum WidgetState {
    /// Checkbox: set of checked categories (empty = no filter).
    Checkbox { selected: BTreeSet<String> },
    /// Radio/dropdown: at most one selected category.
    Single { selected: Option<String> },
    /// Range slider / date range: active bounds (inclusive), or none.
    Range { bounds: Option<(f64, f64)> },
}

impl WidgetState {
    /// The empty (unfiltered) state for a control.
    pub fn empty(control: &crate::spec::ControlSpec) -> WidgetState {
        use crate::spec::ControlSpec::*;
        match control {
            Checkbox { .. } => WidgetState::Checkbox {
                selected: BTreeSet::new(),
            },
            Radio { .. } | Dropdown { .. } => WidgetState::Single { selected: None },
            RangeSlider { .. } | DateRange { .. } => WidgetState::Range { bounds: None },
        }
    }

    /// Does the widget currently impose a filter?
    pub fn is_active(&self) -> bool {
        match self {
            WidgetState::Checkbox { selected } => !selected.is_empty(),
            WidgetState::Single { selected } => selected.is_some(),
            WidgetState::Range { bounds } => bounds.is_some(),
        }
    }
}

impl std::hash::Hash for WidgetState {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            WidgetState::Checkbox { selected } => {
                0u8.hash(state);
                for s in selected {
                    s.hash(state);
                }
            }
            WidgetState::Single { selected } => {
                1u8.hash(state);
                selected.hash(state);
            }
            WidgetState::Range { bounds } => {
                2u8.hash(state);
                if let Some((lo, hi)) = bounds {
                    lo.to_bits().hash(state);
                    hi.to_bits().hash(state);
                }
            }
        }
    }
}

impl Eq for WidgetState {}

/// Interaction state of one node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeState {
    Widget(WidgetState),
    /// Mark selection on a visualization's primary dimension.
    VisSelection(BTreeSet<String>),
}

impl NodeState {
    /// Append this state's exact key to `out`: a tag, then each string
    /// length-prefixed, each range bound by its bits. The encoding is
    /// self-delimiting, so two states write the same bytes exactly when
    /// they are the same state — `0.0` and `-0.0` bounds included, which
    /// `==` would equate and print differently.
    pub(crate) fn write_key(&self, out: &mut Vec<u8>) {
        fn len(out: &mut Vec<u8>, n: usize) {
            let n =
                u32::try_from(n).expect("a state's strings are category labels, far under 4 GiB");
            out.extend_from_slice(&n.to_le_bytes());
        }
        fn strs<'s>(out: &mut Vec<u8>, tag: u8, set: impl ExactSizeIterator<Item = &'s String>) {
            out.push(tag);
            len(out, set.len());
            for s in set {
                len(out, s.len());
                out.extend_from_slice(s.as_bytes());
            }
        }
        match self {
            NodeState::Widget(WidgetState::Checkbox { selected }) => strs(out, 0, selected.iter()),
            NodeState::Widget(WidgetState::Single { selected }) => {
                strs(out, 1, selected.iter());
            }
            NodeState::Widget(WidgetState::Range { bounds: None }) => out.push(2),
            NodeState::Widget(WidgetState::Range {
                bounds: Some((lo, hi)),
            }) => {
                out.push(3);
                out.extend_from_slice(&lo.to_bits().to_le_bytes());
                out.extend_from_slice(&hi.to_bits().to_le_bytes());
            }
            NodeState::VisSelection(selected) => strs(out, 4, selected.iter()),
        }
    }
}

/// The complete interaction-layer state: one entry per graph node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DashboardState {
    states: Vec<NodeState>,
}

impl DashboardState {
    /// State of one node.
    pub fn node(&self, node: NodeId) -> &NodeState {
        &self.states[node.0]
    }

    /// Mutable state of one node.
    pub fn node_mut(&mut self, node: NodeId) -> &mut NodeState {
        &mut self.states[node.0]
    }

    /// Number of active (filtering) components.
    pub fn active_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| match s {
                NodeState::Widget(w) => w.is_active(),
                NodeState::VisSelection(sel) => !sel.is_empty(),
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::builtin::{all_builtin, builtin};
    use simba_data::DashboardDataset;

    fn cs_graph() -> InteractionGraph {
        InteractionGraph::from_spec(builtin(DashboardDataset::CustomerService)).unwrap()
    }

    #[test]
    fn builds_all_builtin_graphs() {
        for spec in all_builtin() {
            let name = spec.name.clone();
            let g = InteractionGraph::from_spec(spec).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(g.node_count() > 0);
            assert!(g.edge_count() > 0);
        }
    }

    #[test]
    fn checkbox_reaches_all_five_visualizations() {
        let g = cs_graph();
        let checkbox = g.node("queue_checkbox").unwrap();
        let desc = g.descendants(checkbox);
        let vis_count = desc
            .iter()
            .filter(|n| matches!(g.kind(**n), NodeKind::Visualization(_)))
            .count();
        assert_eq!(
            vis_count, 5,
            "Figure 2A: checkbox updates all five visualizations"
        );
    }

    #[test]
    fn ancestors_include_transitive_sources() {
        let g = cs_graph();
        // total_calls_by_hour <- calls_per_rep <- {queue_checkbox, ...}
        let total = g.node("total_calls_by_hour").unwrap();
        let anc = g.ancestors(total);
        assert!(anc.contains(&g.node("calls_per_rep").unwrap()));
        assert!(anc.contains(&g.node("queue_checkbox").unwrap()));
    }

    #[test]
    fn node_lookup_case_insensitive() {
        let g = cs_graph();
        assert_eq!(g.node("QUEUE_CHECKBOX"), g.node("queue_checkbox"));
        assert!(g.node("nope").is_none());
    }

    #[test]
    fn initial_state_has_no_active_filters() {
        let g = cs_graph();
        let s = g.initial_state();
        assert_eq!(s.active_count(), 0);
    }

    #[test]
    fn state_hash_distinguishes_checkbox_selections() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let g = cs_graph();
        let checkbox = g.node("queue_checkbox").unwrap();
        let mut s1 = g.initial_state();
        let s0 = s1.clone();
        if let NodeState::Widget(WidgetState::Checkbox { selected }) = s1.node_mut(checkbox) {
            selected.insert("A".into());
        }
        let h = |s: &DashboardState| {
            let mut hasher = DefaultHasher::new();
            s.hash(&mut hasher);
            hasher.finish()
        };
        assert_ne!(h(&s0), h(&s1));
        assert_ne!(s0, s1);
    }

    #[test]
    fn descendants_are_deduplicated_and_sorted() {
        let g = cs_graph();
        let checkbox = g.node("queue_checkbox").unwrap();
        let desc = g.descendants(checkbox);
        let mut sorted = desc.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(desc, sorted);
    }
}
