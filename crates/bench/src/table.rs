//! Plain-text table rendering for the experiment harnesses.
//!
//! Every experiment prints its results through this module so that
//! EXPERIMENTS.md rows can be regenerated by running `exp_all --only
//! <name>` and copying the output.

/// A simple column-aligned table.
#[derive(Clone, Debug)]
pub(crate) struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub(crate) fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; missing cells render empty, extra cells are kept.
    pub(crate) fn row(&mut self, cells: Vec<String>) -> &mut Table {
        self.rows.push(cells);
        self
    }

    /// Renders the table.
    pub(crate) fn render(&self) -> String {
        let ncols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; ncols];
        fn cell(row: &[String], c: usize) -> &str {
            row.get(c).map(String::as_str).unwrap_or("")
        }
        for (c, w) in widths.iter_mut().enumerate() {
            *w = std::iter::once(cell(&self.headers, c).len())
                .chain(self.rows.iter().map(|r| cell(r, c).len()))
                .max()
                .unwrap_or(0);
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |row: &[String]| -> String {
            let cells: Vec<String> = (0..ncols)
                .map(|c| format!("{:>width$}", cell(row, c), width = widths[c]))
                .collect();
            cells.join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }
}

/// Formats a cycle count with its nanosecond equivalent.
pub(crate) fn cyc_ns(cycles: u64, clock_ghz: f64) -> String {
    format!("{} ({:.1} ns)", cycles, cycles as f64 / clock_ghz)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        // Header and rows share the same width.
        assert_eq!(lines[1].len(), lines[3].len());
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn tolerates_ragged_rows() {
        let mut t = Table::new("r", &["a"]);
        t.row(vec!["1".into(), "extra".into()]);
        t.row(vec![]);
        let s = t.render();
        assert!(s.contains("extra"));
    }

    #[test]
    fn formatters() {
        assert_eq!(cyc_ns(300, 3.0), "300 (100.0 ns)");
    }
}
