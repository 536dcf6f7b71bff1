//! Structured telemetry values: a dependency-free `Value`/`Record` tree
//! with correct JSON and CSV writers.
//!
//! Every machine-readable artifact the workspace produces — run reports,
//! figure tables, load sweeps, hostbench results, memory traces,
//! time-series samples — serializes through this one layer, so external
//! tools parse exactly one JSON shape and one CSV dialect.
//!
//! # JSON policy
//!
//! * Strings are escaped per RFC 8259 (`"`, `\`, and all control
//!   characters below U+0020 as `\u00XX`; `\n`, `\r`, `\t` use the short
//!   forms).
//! * Non-finite floats (`NaN`, `±Inf`) have no JSON representation and are
//!   written as `null`. Producers that care should avoid emitting them;
//!   consumers must treat `null` as "not a number".
//! * Numbers use Rust's shortest round-trip formatting, so equal inputs
//!   always produce byte-equal documents (the golden tests rely on this).
//!
//! # CSV dialect
//!
//! One dialect for every artifact: optional `# key: value` manifest
//! comment lines, then a header row, then data rows. Fields containing a
//! comma, quote, CR/LF, or leading `#` are quoted with `""`-doubling.

use std::fmt::Write as _;

/// A structured telemetry value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// An unsigned integer (counters, cycles).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float. Non-finite values serialize as JSON `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An ordered list.
    Array(Vec<Value>),
    /// A nested record.
    Record(Record),
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::Array(v)
    }
}
impl From<Record> for Value {
    fn from(v: Record) -> Self {
        Value::Record(v)
    }
}

impl Value {
    /// The value as a bare CSV cell (no JSON quoting; strings verbatim).
    /// Arrays and records are rendered as compact JSON so they survive a
    /// single cell.
    pub fn to_cell(&self) -> String {
        match self {
            Value::Bool(b) => b.to_string(),
            Value::U64(v) => v.to_string(),
            Value::I64(v) => v.to_string(),
            Value::F64(v) => float_repr(*v),
            Value::Str(s) => s.clone(),
            Value::Array(_) | Value::Record(_) => {
                let mut out = String::new();
                self.write_json_compact(&mut out);
                out
            }
        }
    }

    /// Pretty JSON (2-space indent) with a trailing newline.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_json(&self, out: &mut String, depth: usize) {
        match self {
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => out.push_str(&float_repr(*v)),
            Value::Str(s) => write_json_string(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write_json(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Value::Record(rec) => {
                if rec.fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in rec.fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_json_string(out, key);
                    out.push_str(": ");
                    value.write_json(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }

    fn write_json_compact(&self, out: &mut String) {
        match self {
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json_compact(out);
                }
                out.push(']');
            }
            Value::Record(rec) => {
                out.push('{');
                for (i, (key, value)) in rec.fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, key);
                    out.push(':');
                    value.write_json_compact(out);
                }
                out.push('}');
            }
            Value::Str(s) => write_json_string(out, s),
            other => other.write_json(out, 0),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// JSON representation of a float: shortest round-trip, `null` when
/// non-finite (NaN and infinities have no JSON encoding).
fn float_repr(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// An ordered record of named [`Value`]s.
///
/// Field order is insertion order and is preserved in the JSON output, so
/// documents built the same way are byte-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    fields: Vec<(String, Value)>,
}

impl Record {
    /// An empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a field (builder style).
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.push(key, value);
        self
    }

    /// Appends a field.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        self.fields.push((key.into(), value.into()));
    }

    /// The first field named `key`, if any.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The fields in insertion order.
    pub fn fields(&self) -> &[(String, Value)] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Pretty JSON (2-space indent) with a trailing newline.
    pub fn to_json_pretty(&self) -> String {
        Value::Record(self.clone()).to_json_pretty()
    }
}

/// Escapes one CSV field: quote-and-double when the field contains a
/// comma, quote, newline, or starts with the comment marker `#`.
pub fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) || field.starts_with('#') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// A CSV artifact in the workspace's one dialect: `# key: value` manifest
/// comment lines, a header row, and data rows.
#[derive(Debug, Clone, Default)]
pub struct CsvTable {
    comments: Vec<(String, String)>,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            comments: Vec::new(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one `# key: value` manifest comment line (builder style).
    pub fn comment(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.comments.push((key.into(), value.into()));
        self
    }

    /// Appends the manifest comments from a flat key/value list.
    pub fn comments(mut self, pairs: &[(String, String)]) -> Self {
        self.comments
            .extend(pairs.iter().map(|(k, v)| (k.clone(), v.clone())));
        self
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Appends a data row of [`Value`]s.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn value_row(&mut self, cells: Vec<Value>) {
        self.row(cells.iter().map(Value::to_cell).collect());
    }

    /// Renders the table in the shared dialect.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.comments {
            // Comment values stay on one line: escape embedded newlines.
            let flat = value.replace(['\n', '\r'], " ");
            let _ = writeln!(out, "# {key}: {flat}");
        }
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| csv_escape(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter()
                    .map(|c| csv_escape(c))
                    .collect::<Vec<_>>()
                    .join(",")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_strings() {
        let v = Value::Str("a\"b\\c\nd\te\r\u{1}f".into());
        assert_eq!(v.to_json_pretty(), "\"a\\\"b\\\\c\\nd\\te\\r\\u0001f\"\n");
    }

    #[test]
    fn json_non_finite_floats_become_null() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Value::F64(bad).to_json_pretty(), "null\n");
        }
        assert_eq!(Value::F64(1.5).to_json_pretty(), "1.5\n");
        assert_eq!(Value::F64(-0.25).to_json_pretty(), "-0.25\n");
    }

    #[test]
    fn json_empty_containers() {
        assert_eq!(Value::Array(vec![]).to_json_pretty(), "[]\n");
        assert_eq!(Record::new().to_json_pretty(), "{}\n");
    }

    #[test]
    fn json_record_preserves_insertion_order() {
        let rec = Record::new().with("z", 1u64).with("a", 2u64);
        assert_eq!(rec.to_json_pretty(), "{\n  \"z\": 1,\n  \"a\": 2\n}\n");
    }

    #[test]
    fn json_nested_structure() {
        let rec = Record::new()
            .with("name", "x,\"y\"")
            .with("vals", vec![Value::U64(1), Value::F64(0.5)])
            .with("inner", Record::new().with("ok", true));
        let json = rec.to_json_pretty();
        assert!(json.contains("\"x,\\\"y\\\"\""));
        assert!(json.contains("\"vals\": [\n    1,\n    0.5\n  ]"));
        assert!(json.contains("\"inner\": {\n    \"ok\": true\n  }"));
    }

    #[test]
    fn record_get_and_len() {
        let rec = Record::new().with("k", 7u64);
        assert_eq!(rec.get("k"), Some(&Value::U64(7)));
        assert_eq!(rec.get("missing"), None);
        assert_eq!(rec.len(), 1);
        assert!(!rec.is_empty());
    }

    #[test]
    fn csv_escaping_rules() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_escape("line\nbreak"), "\"line\nbreak\"");
        assert_eq!(csv_escape("#not-a-comment"), "\"#not-a-comment\"");
    }

    #[test]
    fn csv_table_dialect() {
        let mut t = CsvTable::new(&["a", "b,c"]).comment("artifact", "demo");
        t.row(vec!["1".into(), "x,y".into()]);
        t.value_row(vec![Value::F64(2.5), Value::Str("z".into())]);
        assert_eq!(
            t.to_csv(),
            "# artifact: demo\na,\"b,c\"\n1,\"x,y\"\n2.5,z\n"
        );
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn csv_table_rejects_ragged_rows() {
        let mut t = CsvTable::new(&["only"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn cell_rendering_covers_all_variants() {
        assert_eq!(Value::Bool(true).to_cell(), "true");
        assert_eq!(Value::I64(-3).to_cell(), "-3");
        assert_eq!(Value::U64(9).to_cell(), "9");
        assert_eq!(Value::Str("s".into()).to_cell(), "s");
        assert_eq!(
            Value::Array(vec![Value::U64(1), Value::U64(2)]).to_cell(),
            "[1,2]"
        );
        assert_eq!(
            Value::Record(Record::new().with("k", 1u64)).to_cell(),
            "{\"k\":1}"
        );
    }
}
