//! Plain-text table rendering and CSV output for the experiment drivers.

use std::fmt::Write as _;
use std::path::Path;

/// A simple column-aligned text table that can also serialize to CSV.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the column-aligned text form.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut width = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{c:>w$}", w = width[i]);
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = width.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Serializes to CSV.
    pub fn to_csv(&self) -> String {
        let escape = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            let joined: Vec<String> = cells.iter().map(|c| escape(c)).collect();
            out.push_str(&joined.join(","));
            out.push('\n');
        };
        line(&self.header, &mut out);
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Writes the CSV form to `dir/<name>.csv`, creating `dir` if needed.
    pub fn write_csv(&self, dir: &Path, name: &str) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// Formats a duration in seconds with an auto-selected unit.
pub fn fmt_secs(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.3} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

/// Formats a float with the given precision.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Formats a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Geometric mean of a non-empty slice of positive values.
pub fn geomean(vals: &[f64]) -> f64 {
    assert!(!vals.is_empty());
    let s: f64 = vals.iter().map(|v| v.max(1e-300).ln()).sum();
    (s / vals.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1.5".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1.5"));
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x,y".into(), "q\"q".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"q\"\"q\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(pct(0.5), "50.0%");
    }

    #[test]
    fn fmt_secs_spans_units() {
        assert!(fmt_secs(5e-9).ends_with("ns"));
        assert!(fmt_secs(5e-6).ends_with("µs"));
        assert!(fmt_secs(5e-3).ends_with("ms"));
        assert!(fmt_secs(5.0).ends_with('s'));
    }
}

/// Parses a simple CSV produced by [`Table::to_csv`] back into header +
/// rows. Handles the quoted-field escaping `to_csv` emits.
pub fn parse_csv(text: &str) -> Option<(Vec<String>, Vec<Vec<String>>)> {
    let mut lines = text.lines();
    let header = split_csv_line(lines.next()?);
    let rows: Vec<Vec<String>> = lines
        .filter(|l| !l.trim().is_empty())
        .map(split_csv_line)
        .collect();
    if rows.iter().any(|r| r.len() != header.len()) {
        return None;
    }
    Some((header, rows))
}

fn split_csv_line(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    quoted = false;
                }
            }
            '"' => quoted = true,
            ',' if !quoted => out.push(std::mem::take(&mut cur)),
            other => cur.push(other),
        }
    }
    out.push(cur);
    out
}

/// Parses a numeric cell that may carry a `%` suffix (percentages come
/// back as fractions).
pub fn parse_cell_number(cell: &str) -> Option<f64> {
    let t = cell.trim();
    if let Some(stripped) = t.strip_suffix('%') {
        stripped.trim().parse::<f64>().ok().map(|v| v / 100.0)
    } else {
        t.parse::<f64>().ok()
    }
}

#[cfg(test)]
mod csv_tests {
    use super::*;

    #[test]
    fn csv_round_trip() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x,y".into(), "1.5".into()]);
        t.row(vec!["plain".into(), "2".into()]);
        let (hdr, rows) = parse_csv(&t.to_csv()).unwrap();
        assert_eq!(hdr, vec!["a", "b"]);
        assert_eq!(rows[0], vec!["x,y", "1.5"]);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn cell_numbers() {
        assert_eq!(parse_cell_number("12.5%"), Some(0.125));
        assert_eq!(parse_cell_number(" 3.0 "), Some(3.0));
        assert_eq!(parse_cell_number("n/a"), None);
    }

    #[test]
    fn ragged_csv_rejected() {
        assert!(parse_csv("a,b\n1\n").is_none());
    }
}
