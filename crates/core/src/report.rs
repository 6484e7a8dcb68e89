//! Plain-text tables for the experiment reports.

use std::fmt;

/// A simple fixed-width ASCII table.
///
/// # Example
///
/// ```
/// use asicgap::report::Table;
///
/// let mut t = Table::new(&["design", "MHz"]);
/// t.row_owned(vec!["Alpha 21264A".into(), "750".into()]);
/// t.row_owned(vec!["typical ASIC".into(), "135".into()]);
/// let s = t.to_string();
/// assert!(s.contains("Alpha 21264A"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of already-owned strings.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.len());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        let line = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            write!(f, "+")?;
            for width in &w {
                write!(f, "{}+", "-".repeat(width + 2))?;
            }
            writeln!(f)
        };
        line(f)?;
        write!(f, "|")?;
        for (h, width) in self.headers.iter().zip(&w) {
            write!(f, " {h:<width$} |")?;
        }
        writeln!(f)?;
        line(f)?;
        for row in &self.rows {
            write!(f, "|")?;
            for (cell, width) in row.iter().zip(&w) {
                write!(f, " {cell:<width$} |")?;
            }
            writeln!(f)?;
        }
        line(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["a", "long header"]);
        t.row_owned(vec!["wide cell content".into(), "x".into()]);
        let s = t.to_string();
        assert!(s.contains("| wide cell content | x           |"));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row_owned(vec!["only one".into()]);
    }
}
