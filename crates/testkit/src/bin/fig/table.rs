//! Plain-text table output shared by every figure.

/// A simple fixed-width text table.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new(header: &[&str]) -> TextTable {
        TextTable {
            header: header.iter().map(|&s| String::from(s)).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "ragged table row");
        self.rows.push(cells);
    }

    /// Render with per-column widths; first column left-aligned, the
    /// rest right-aligned.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut w = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            w[i] = h.len();
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], w: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    out.push_str(&format!("{:<width$}", c, width = w[i]));
                } else {
                    out.push_str(&format!("  {:>width$}", c, width = w[i]));
                }
            }
            out.push('\n');
        };
        line(&self.header, &w, &mut out);
        let total: usize = w.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            line(r, &w, &mut out);
        }
        out
    }
}

/// Format seconds as milliseconds with 3 significant decimals.
pub fn fmt_ms(secs: f64) -> String {
    format!("{:.3}", secs * 1e3)
}

/// Format a ratio (e.g. FCT normalized to Hermes).
pub fn fmt_ratio(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(&["scheme", "load", "avg FCT (ms)"]);
        t.row(vec!["hermes".into(), "0.5".into(), "1.234".into()]);
        t.row(vec!["ecmp".into(), "0.5".into(), "12.345".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("scheme"));
        assert!(lines[2].starts_with("hermes"));
        // Right alignment: the numeric column ends at the same offset.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_ms(0.001234), "1.234");
        assert_eq!(fmt_ratio(1.5), "1.50");
    }
}
