//! Raw-data collection and CSV export.
//!
//! LibSciBench's "low-overhead data collection mechanism produces datasets
//! that can be read directly with established statistical tools such as
//! GNU R". [`DataSet`] is that mechanism: a named column store of f64
//! measurements plus string metadata, serialized to plain CSV that R,
//! pandas or gnuplot ingest directly.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A column-oriented measurement dataset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataSet {
    columns: Vec<String>,
    rows: Vec<Vec<f64>>,
    metadata: BTreeMap<String, String>,
}

impl DataSet {
    /// Creates an empty dataset with the given column names.
    ///
    /// # Panics
    /// Panics on an empty or duplicated column list.
    pub fn new(columns: &[&str]) -> Self {
        assert!(!columns.is_empty(), "a dataset needs at least one column");
        let mut seen = std::collections::BTreeSet::new();
        for c in columns {
            assert!(seen.insert(*c), "duplicate column {c}");
        }
        Self {
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            metadata: BTreeMap::new(),
        }
    }

    /// Attaches a metadata key (emitted as `# key: value` CSV comments —
    /// the place for Rule 9 environment descriptions).
    pub fn with_metadata(mut self, key: &str, value: &str) -> Self {
        self.metadata.insert(key.to_owned(), value.to_owned());
        self
    }

    /// Appends a row; length must match the column count.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(row.to_vec());
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Extracts one column by name.
    pub fn column(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.columns.iter().position(|c| c == name)?;
        Some(self.rows.iter().map(|r| r[idx]).collect())
    }

    /// Serializes to CSV with `# key: value` metadata header comments.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.metadata {
            let _ = writeln!(out, "# {k}: {v}");
        }
        let _ = writeln!(out, "{}", self.columns.join(","));
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
            let _ = writeln!(out, "{}", cells.join(","));
        }
        out
    }

    /// Parses a CSV produced by [`DataSet::to_csv`].
    ///
    /// Returns `None` on malformed input (wrong arity, non-numeric cell).
    pub fn from_csv(text: &str) -> Option<Self> {
        let mut metadata = BTreeMap::new();
        let mut lines = text.lines().peekable();
        while let Some(line) = lines.peek() {
            if let Some(rest) = line.strip_prefix('#') {
                if let Some((k, v)) = rest.split_once(':') {
                    metadata.insert(k.trim().to_owned(), v.trim().to_owned());
                }
                lines.next();
            } else {
                break;
            }
        }
        let header = lines.next()?;
        let columns: Vec<String> = header.split(',').map(|s| s.trim().to_owned()).collect();
        if columns.is_empty() || columns.iter().any(String::is_empty) {
            return None;
        }
        let mut rows = Vec::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let cells: Vec<&str> = line.split(',').collect();
            if cells.len() != columns.len() {
                return None;
            }
            let row: Option<Vec<f64>> = cells.iter().map(|c| c.trim().parse().ok()).collect();
            rows.push(row?);
        }
        Some(Self {
            columns,
            rows,
            metadata,
        })
    }

    /// Metadata accessor.
    pub fn metadata(&self, key: &str) -> Option<&str> {
        self.metadata.get(key).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_extract_columns() {
        let mut d = DataSet::new(&["p", "time_us"]);
        d.push_row(&[2.0, 5.1]);
        d.push_row(&[4.0, 7.3]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.column("p").unwrap(), vec![2.0, 4.0]);
        assert_eq!(d.column("time_us").unwrap(), vec![5.1, 7.3]);
        assert!(d.column("nope").is_none());
    }

    #[test]
    fn csv_round_trip_with_metadata() {
        let mut d = DataSet::new(&["x", "y"]).with_metadata("system", "Piz Dora");
        d.push_row(&[1.0, 2.5]);
        d.push_row(&[2.0, -3.125]);
        let csv = d.to_csv();
        assert!(csv.starts_with("# system: Piz Dora\n"));
        let back = DataSet::from_csv(&csv).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.metadata("system"), Some("Piz Dora"));
    }

    #[test]
    fn from_csv_rejects_malformed() {
        assert!(DataSet::from_csv("").is_none());
        assert!(DataSet::from_csv("a,b\n1,2,3\n").is_none());
        assert!(DataSet::from_csv("a,b\n1,two\n").is_none());
    }

    #[test]
    fn empty_dataset() {
        let d = DataSet::new(&["only"]);
        assert!(d.is_empty());
        let csv = d.to_csv();
        assert_eq!(csv, "only\n");
        assert_eq!(DataSet::from_csv(&csv).unwrap(), d);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn wrong_arity_panics() {
        DataSet::new(&["a", "b"]).push_row(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_panic() {
        DataSet::new(&["a", "a"]);
    }
}
