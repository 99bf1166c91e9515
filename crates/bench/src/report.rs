//! Report formatting: plain-text tables and figure series for the
//! paper experiments, and the one JSON layout every bench writes.

/// A left-aligned plain-text table.
///
/// # Examples
///
/// ```
/// use clre_bench::report::Table;
///
/// let mut t = Table::new(vec!["a".into(), "b".into()]);
/// t.row(vec!["1".into(), "2".into()]);
/// let s = t.to_string();
/// assert!(s.contains("a"));
/// assert!(s.contains("1"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, row: Vec<String>) -> &mut Self {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let write_row = |f: &mut std::fmt::Formatter<'_>, row: &[String]| -> std::fmt::Result {
            for (c, cell) in row.iter().enumerate() {
                if c > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<width$}", width = widths[c])?;
            }
            writeln!(f)
        };
        write_row(f, &self.header)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a named objective-space series (one Pareto front) as CSV-ish
/// lines: `name,x,y` — the format the plotting scripts and EXPERIMENTS.md
/// use for every figure.
pub fn series(name: &str, points: &[Vec<f64>]) -> String {
    let mut sorted: Vec<&Vec<f64>> = points.iter().collect();
    sorted.sort_by(|a, b| a[0].partial_cmp(&b[0]).unwrap_or(std::cmp::Ordering::Equal));
    let mut out = String::new();
    for p in sorted {
        out.push_str(name);
        for v in p {
            out.push_str(&format!(",{v:.6e}"));
        }
        out.push('\n');
    }
    out
}

/// Formats a hypervolume percentage for tables: integers like the paper,
/// `inf` for division by zero.
pub fn pct(p: f64) -> String {
    if p.is_infinite() {
        "inf".to_owned()
    } else {
        format!("{p:.0}")
    }
}

/// A flat JSON object on one line, `{"key": value, ...}`: a report cell,
/// or a nested summary such as a chaos scenario's counters.
#[derive(Debug, Clone, Default)]
pub struct JsonObject(Vec<String>);

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `"key": value` with the value written as is (a number,
    /// `true`/`false`, `null` or a nested [`JsonObject`]).
    #[must_use]
    pub fn field(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.0.push(format!("\"{key}\": {value}"));
        self
    }

    /// Appends `"key": "value"`.
    #[must_use]
    pub fn text(self, key: &str, value: impl std::fmt::Display) -> Self {
        self.field(key, format_args!("\"{value}\""))
    }
}

impl std::fmt::Display for JsonObject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{{}}}", self.0.join(", "))
    }
}

/// A bench report in the layout `experiments perfgate` reads: the
/// `"bench"` name first, then one top-level field per line in the order
/// given, with each cell of a cell array on its own line.
///
/// # Examples
///
/// ```
/// use clre_bench::report::{BenchReport, JsonObject};
///
/// let json = BenchReport::new("demo")
///     .field("reps", 3)
///     .cells("cells", [JsonObject::new().text("plan", "fcCLR").field("us", 40)])
///     .field("ok", true)
///     .render();
/// assert_eq!(
///     json,
///     "{\n  \"bench\": \"demo\",\n  \"reps\": 3,\n  \"cells\": [\n    \
///      {\"plan\": \"fcCLR\", \"us\": 40}\n  ],\n  \"ok\": true\n}\n"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct BenchReport(JsonObject);

impl BenchReport {
    /// A report whose `"bench"` header names it.
    pub fn new(bench: &str) -> Self {
        BenchReport(JsonObject::new().text("bench", bench))
    }

    /// Appends a top-level `"key": value` (written as is).
    #[must_use]
    pub fn field(self, key: &str, value: impl std::fmt::Display) -> Self {
        BenchReport(self.0.field(key, value))
    }

    /// Appends a top-level array of cells, one per line.
    #[must_use]
    pub fn cells(self, key: &str, cells: impl IntoIterator<Item = JsonObject>) -> Self {
        let lines: Vec<String> = cells.into_iter().map(|c| format!("    {c}")).collect();
        self.field(key, format_args!("[\n{}\n  ]", lines.join(",\n")))
    }

    /// The report text.
    pub fn render(&self) -> String {
        format!("{{\n  {}\n}}\n", self.0 .0.join(",\n  "))
    }

    /// Writes the report to `path` and returns its text. A write failure
    /// is appended to the returned text rather than aborting the bench.
    pub fn write(&self, path: &str) -> String {
        let json = self.render();
        match std::fs::write(path, &json) {
            Ok(()) => json,
            Err(e) => format!("{json}# write failed: {e}\n"),
        }
    }
}

/// The cells of a report [`BenchReport`] wrote: each cell's fields as
/// `(key, value)` pairs, string values without their quotes.
pub(crate) type Cells<'a> = Vec<Vec<(&'a str, &'a str)>>;

/// Reads back a report's `"bench"` name and its cells. Cell lines are
/// the ones [`BenchReport::cells`] indents by four spaces.
///
/// # Errors
///
/// A missing `"bench"` header or a cell line that is not a flat
/// one-line object.
pub(crate) fn parse_report(text: &str) -> Result<(&str, Cells<'_>), String> {
    let bench = text
        .lines()
        .find_map(|l| l.strip_prefix("  \"bench\": \"")?.split('"').next())
        .ok_or("no \"bench\" header")?;
    let cells = text
        .lines()
        .filter(|l| l.starts_with("    {"))
        .map(|l| parse_object(l).ok_or_else(|| format!("malformed cell: {}", l.trim())))
        .collect::<Result<_, _>>()?;
    Ok((bench, cells))
}

/// Splits one `{"key": value, ...}` line into its fields.
fn parse_object(line: &str) -> Option<Vec<(&str, &str)>> {
    let mut rest = line
        .trim()
        .trim_end_matches(',')
        .strip_prefix('{')?
        .strip_suffix('}')?;
    let mut fields = Vec::new();
    while !rest.is_empty() {
        let (key, after) = rest.strip_prefix('"')?.split_once("\": ")?;
        let (value, after) = match after.strip_prefix('"') {
            Some(quoted) => quoted.split_once('"')?,
            None => after.split_at(after.find(',').unwrap_or(after.len())),
        };
        fields.push((key, value));
        rest = match after.strip_prefix(", ") {
            Some(next) => next,
            None if after.is_empty() => after,
            None => return None,
        };
    }
    Some(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(vec!["col".into(), "x".into()]);
        t.row(vec!["longvalue".into(), "1".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("---"));
        assert!(!t.is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_row_panics() {
        Table::new(vec!["a".into()]).row(vec![]);
    }

    #[test]
    fn series_sorts_by_first_axis() {
        let s = series("m", &[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("m,1.0"));
        assert!(lines[1].starts_with("m,2.0"));
    }

    #[test]
    fn parse_report_reads_back_what_bench_report_writes() {
        let json = BenchReport::new("islands")
            .field("workers", 2)
            .cells(
                "cells",
                [
                    JsonObject::new()
                        .text("plan", "fcCLR")
                        .field("islands", 1)
                        .field("subprocess_digest", "null"),
                    JsonObject::new().text("plan", "a, b").field("islands", 4),
                ],
            )
            .field("nested", JsonObject::new().field("x", 1))
            .render();
        let (bench, cells) = parse_report(&json).unwrap();
        assert_eq!(bench, "islands");
        assert_eq!(
            cells,
            vec![
                vec![
                    ("plan", "fcCLR"),
                    ("islands", "1"),
                    ("subprocess_digest", "null")
                ],
                vec![("plan", "a, b"), ("islands", "4")],
            ]
        );
        assert!(parse_report("{}").unwrap_err().contains("bench"));
        let torn = json.replace("\"islands\": 4", "\"islands\" 4");
        assert!(parse_report(&torn).unwrap_err().contains("malformed cell"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(231.4), "231");
        assert_eq!(pct(f64::INFINITY), "inf");
    }
}
