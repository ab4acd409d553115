//! Result tables: fixed-width text and CSV.

use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: String,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            title: title.into(),
        }
    }

    /// Appends one row; must match the header arity.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row arity must match headers"
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` iff the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders a fixed-width text table (first column left-aligned, the
    /// rest right-aligned), suitable for stdout and EXPERIMENTS.md blocks.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, (c, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                if i == 0 {
                    let _ = write!(line, "{c:<w$}");
                } else {
                    let _ = write!(line, "{c:>w$}");
                }
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders the table as CSV (RFC-4180-ish: cells containing commas or
    /// quotes are quoted).
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        let esc = |c: &str| -> String {
            if c.contains(',') || c.contains('"') || c.contains('\n') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let _ = writeln!(
            s,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                s,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        s
    }
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(num: usize, den: usize) -> String {
    if den == 0 {
        return "n/a".to_string();
    }
    format!("{:.1}%", 100.0 * num as f64 / den as f64)
}

/// Formats a float with the given precision.
pub fn f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// 95% Wilson score interval for a binomial proportion — the honest error
/// bar for acceptance ratios (well-behaved even at 0% and 100%).
pub fn wilson95(successes: usize, trials: usize) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z = 1.959_963_985; // Φ⁻¹(0.975)
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * ((p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt());
    ((center - half).max(0.0), (center + half).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_text() {
        let mut t = Table::new("demo", &["alg", "accept"]);
        t.push_row(vec!["RM-TS".into(), "97.0%".into()]);
        t.push_row(vec!["P-RM-FFD/RTA".into(), "41.5%".into()]);
        let s = t.to_text();
        assert!(s.contains("## demo"));
        assert!(s.contains("RM-TS"));
        let lines: Vec<&str> = s.lines().collect();
        // Header, rule, two rows, plus title.
        assert_eq!(lines.len(), 5);
        // Right-aligned numeric column: both rows end with the value.
        assert!(lines[3].ends_with("97.0%"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["has,comma".into(), "has\"quote".into()]);
        assert_eq!(t.to_csv(), "a,b\n\"has,comma\",\"has\"\"quote\"\n");
    }

    #[test]
    fn wilson_interval_sanity() {
        let (lo, hi) = wilson95(95, 100);
        assert!(lo < 0.95 && 0.95 < hi);
        assert!(hi - lo < 0.12);
        // Degenerate proportions stay inside [0, 1] and are not point masses.
        let (lo0, hi0) = wilson95(0, 50);
        assert_eq!(lo0, 0.0);
        assert!(hi0 > 0.0 && hi0 < 0.12);
        let (lo1, hi1) = wilson95(50, 50);
        assert_eq!(hi1, 1.0);
        assert!(lo1 > 0.88);
        assert_eq!(wilson95(0, 0), (0.0, 1.0));
    }

    #[test]
    fn pct_and_f_helpers() {
        assert_eq!(pct(97, 100), "97.0%");
        assert_eq!(pct(1, 3), "33.3%");
        assert_eq!(pct(0, 0), "n/a");
        assert_eq!(f(0.81831, 3), "0.818");
    }
}
