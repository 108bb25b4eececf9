//! Fixed-width text table rendering for the experiment drivers.

/// Render a table with a header row, column-aligned.
pub(crate) fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let parts: Vec<String> =
            cells.iter().zip(widths).map(|(c, w)| format!("{c:<w$}", w = w)).collect();
        format!("| {} |", parts.join(" | "))
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&format!("|-{}-|", sep.join("-|-")));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Format seconds compactly.
pub(crate) fn fmt_s(v: f64) -> String {
    format!("{v:.1}")
}

/// Format joules compactly.
pub(crate) fn fmt_j(v: f64) -> String {
    format!("{v:.0}")
}

/// Format a fraction as a percentage.
pub(crate) fn fmt_pct(v: f64) -> String {
    format!("{:.0} %", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let t = render_table(
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["longer-name".into(), "22".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width.
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w), "{t}");
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("longer-name"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_s(12.34), "12.3");
        assert_eq!(fmt_j(856.4), "856");
        assert_eq!(fmt_pct(0.83), "83 %");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        render_table(&["a", "b"], &[vec!["1".into()]]);
    }
}
