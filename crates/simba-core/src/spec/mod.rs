//! The dashboard specification language (§3.0.1 of the paper).
//!
//! A dashboard is specified in JSON with three components, merging ideas
//! from IDEBench, Polaris/Tableau, and Vega-Lite:
//!
//! * the **Database Specification** ([`DatabaseSpec`]) — the dataset's
//!   fields and their analytic roles (inherited from IDEBench);
//! * the **Interface Specification** — visualizations ([`VisualizationSpec`])
//!   and interaction widgets ([`WidgetSpec`]);
//! * the **Interaction Specification** — directed [`LinkSpec`] edges saying
//!   which component updates which (e.g. a slider refining a bar chart).

pub mod builtin;
pub mod validate;

use serde::{Deserialize, Serialize};
use simba_store::ColumnRole;

/// A complete dashboard specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DashboardSpec {
    /// Machine name (also used as the spec id).
    pub name: String,
    /// Human-readable dashboard title.
    pub title: String,
    /// Sarikaya et al. dashboard type (decision making, awareness, ...).
    #[serde(default)]
    pub dashboard_type: DashboardType,
    pub database: DatabaseSpec,
    pub visualizations: Vec<VisualizationSpec>,
    #[serde(default)]
    pub widgets: Vec<WidgetSpec>,
    #[serde(default)]
    pub links: Vec<LinkSpec>,
}

/// Dashboard categories from Sarikaya et al. (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(rename_all = "snake_case")]
pub enum DashboardType {
    #[default]
    StrategicDecisionMaking,
    OperationalDecisionMaking,
    QuantifiedSelf,
    Learning,
}

/// The Database Specification: table name plus field roles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatabaseSpec {
    pub table: String,
    pub fields: Vec<FieldSpec>,
}

impl DatabaseSpec {
    /// Field lookup by case-insensitive name.
    pub fn field(&self, name: &str) -> Option<&FieldSpec> {
        self.fields
            .iter()
            .find(|f| f.name.eq_ignore_ascii_case(name))
    }
}

/// One dataset field and its analytic role.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FieldSpec {
    pub name: String,
    pub role: FieldRole,
}

impl FieldSpec {
    pub fn categorical(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            role: FieldRole::Categorical,
        }
    }

    pub fn quantitative(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            role: FieldRole::Quantitative,
        }
    }

    pub fn temporal(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            role: FieldRole::Temporal,
        }
    }
}

/// Analytic role of a field (mirrors [`ColumnRole`] with serde support).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FieldRole {
    Categorical,
    Quantitative,
    Temporal,
}

impl From<ColumnRole> for FieldRole {
    fn from(r: ColumnRole) -> Self {
        match r {
            ColumnRole::Categorical => FieldRole::Categorical,
            ColumnRole::Quantitative => FieldRole::Quantitative,
            ColumnRole::Temporal => FieldRole::Temporal,
        }
    }
}

/// Mark types for visualizations (Vega-Lite-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum MarkType {
    Bar,
    Line,
    Area,
    Pie,
    Scatter,
    Map,
    /// A single summary number (e.g. the "Lost Calls" stat in Figure 2).
    Stat,
    Table,
}

/// Transform applied to a channel's field before encoding.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FieldTransform {
    Hour,
    Day,
    Month,
    Year,
    DayOfWeek,
    Bin { width: i64 },
}

/// One encoding channel: a field plus an optional transform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelSpec {
    pub field: String,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub transform: Option<FieldTransform>,
}

impl ChannelSpec {
    pub fn field(name: impl Into<String>) -> Self {
        Self {
            field: name.into(),
            transform: None,
        }
    }

    pub fn transformed(name: impl Into<String>, t: FieldTransform) -> Self {
        Self {
            field: name.into(),
            transform: Some(t),
        }
    }
}

/// Aggregate applied to the measure channel. `field: None` means `COUNT(*)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateChannel {
    pub func: AggOp,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub field: Option<String>,
}

/// Aggregation operators available to visualizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum AggOp {
    Count,
    CountDistinct,
    Sum,
    Avg,
    Min,
    Max,
}

/// One visualization in the dashboard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VisualizationSpec {
    /// Unique node id within the dashboard.
    pub id: String,
    pub title: String,
    pub mark: MarkType,
    /// Dimension channels (group-by axes): x, then optional color/detail.
    #[serde(default)]
    pub dimensions: Vec<ChannelSpec>,
    /// Measure channels (aggregates). Empty + raw `fields` = raw plot.
    #[serde(default)]
    pub measures: Vec<AggregateChannel>,
    /// Raw (unaggregated) fields, for scatter/table marks.
    #[serde(default)]
    pub raw_fields: Vec<String>,
    /// Whether users can click marks to select/highlight a dimension value
    /// (the "embedded interaction widgets" of §4.1.1).
    #[serde(default)]
    pub selectable: bool,
}

/// Interaction widget controls. Checkboxes and radio buttons produce the
/// same categorical filters, sliders and brushes the same range filters
/// (§2.1's "overlapping semantics" observation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ControlSpec {
    /// Multi-select over the field's categories.
    Checkbox { field: String },
    /// Single-select (exactly one category, or none).
    Radio { field: String },
    /// Single-select dropdown menu.
    Dropdown { field: String },
    /// Numeric range slider.
    RangeSlider { field: String },
    /// Temporal range picker.
    DateRange { field: String },
}

impl ControlSpec {
    /// The filtered field.
    pub fn field(&self) -> &str {
        match self {
            ControlSpec::Checkbox { field }
            | ControlSpec::Radio { field }
            | ControlSpec::Dropdown { field }
            | ControlSpec::RangeSlider { field }
            | ControlSpec::DateRange { field } => field,
        }
    }

    /// Short kind name for reports.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ControlSpec::Checkbox { .. } => "checkbox",
            ControlSpec::Radio { .. } => "radio",
            ControlSpec::Dropdown { .. } => "dropdown",
            ControlSpec::RangeSlider { .. } => "range_slider",
            ControlSpec::DateRange { .. } => "date_range",
        }
    }
}

/// One interaction widget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WidgetSpec {
    pub id: String,
    pub title: String,
    pub control: ControlSpec,
}

/// A directed interaction edge: interacting with `source` updates `target`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    pub source: String,
    pub target: String,
}

impl DashboardSpec {
    /// Serialize the spec to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serializes")
    }

    /// Parse a spec from JSON.
    pub fn from_json(json: &str) -> Result<DashboardSpec, crate::error::CoreError> {
        serde_json::from_str(json).map_err(|e| crate::error::CoreError::InvalidSpec(e.to_string()))
    }

    /// Distinct fields used anywhere in the interface (visualization
    /// channels, raw fields, and widget controls).
    pub fn used_fields(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for v in &self.visualizations {
            for d in &v.dimensions {
                out.push(&d.field);
            }
            for m in &v.measures {
                if let Some(f) = &m.field {
                    out.push(f);
                }
            }
            for f in &v.raw_fields {
                out.push(f);
            }
        }
        for w in &self.widgets {
            out.push(w.control.field());
        }
        let mut seen = std::collections::HashSet::new();
        out.retain(|f| seen.insert(f.to_ascii_lowercase()));
        out
    }

    /// Distinct *quantitative* fields used in visualization measures or raw
    /// fields — what correlation-style workflows need (§6.2.3 explains
    /// MyRide is incompatible because it exposes too few).
    pub fn used_quantitative_fields(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for v in &self.visualizations {
            for m in &v.measures {
                if let Some(f) = &m.field {
                    if self
                        .database
                        .field(f)
                        .is_some_and(|fs| fs.role == FieldRole::Quantitative)
                    {
                        out.push(f);
                    }
                }
            }
            for f in &v.raw_fields {
                if self
                    .database
                    .field(f)
                    .is_some_and(|fs| fs.role == FieldRole::Quantitative)
                {
                    out.push(f);
                }
            }
        }
        let mut seen = std::collections::HashSet::new();
        out.retain(|f| seen.insert(f.to_ascii_lowercase()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> DashboardSpec {
        DashboardSpec {
            name: "tiny".into(),
            title: "Tiny".into(),
            dashboard_type: DashboardType::OperationalDecisionMaking,
            database: DatabaseSpec {
                table: "t".into(),
                fields: vec![
                    FieldSpec::categorical("q"),
                    FieldSpec::quantitative("n"),
                    FieldSpec::temporal("ts"),
                ],
            },
            visualizations: vec![VisualizationSpec {
                id: "v1".into(),
                title: "Counts".into(),
                mark: MarkType::Bar,
                dimensions: vec![ChannelSpec::field("q")],
                measures: vec![AggregateChannel {
                    func: AggOp::Count,
                    field: None,
                }],
                raw_fields: vec![],
                selectable: true,
            }],
            widgets: vec![WidgetSpec {
                id: "w1".into(),
                title: "Queue".into(),
                control: ControlSpec::Checkbox { field: "q".into() },
            }],
            links: vec![LinkSpec {
                source: "w1".into(),
                target: "v1".into(),
            }],
        }
    }

    #[test]
    fn json_round_trip() {
        let spec = tiny_spec();
        let json = spec.to_json();
        let parsed = DashboardSpec::from_json(&json).unwrap();
        assert_eq!(spec, parsed);
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(DashboardSpec::from_json("{not json").is_err());
        assert!(DashboardSpec::from_json("{}").is_err());
    }

    #[test]
    fn used_fields_deduplicates_across_components() {
        let spec = tiny_spec();
        assert_eq!(spec.used_fields(), vec!["q"]);
    }

    #[test]
    fn field_lookup_case_insensitive() {
        let spec = tiny_spec();
        assert!(spec.database.field("Q").is_some());
        assert!(spec.database.field("missing").is_none());
    }

    #[test]
    fn control_kind_names() {
        assert_eq!(
            ControlSpec::Checkbox { field: "x".into() }.kind_name(),
            "checkbox"
        );
        assert_eq!(
            ControlSpec::RangeSlider { field: "x".into() }.kind_name(),
            "range_slider"
        );
    }

    #[test]
    fn used_quantitative_fields_respects_roles() {
        let mut spec = tiny_spec();
        spec.visualizations[0].measures = vec![AggregateChannel {
            func: AggOp::Sum,
            field: Some("n".into()),
        }];
        assert_eq!(spec.used_quantitative_fields(), vec!["n"]);
    }
}
