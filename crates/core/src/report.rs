//! Plain-text rendering for experiment results: aligned tables, ASCII
//! histograms, and CSV — everything the `fig*` harness binaries print.

use std::fmt::Write as _;

/// Renders an aligned text table.
///
/// ```
/// let t = mee_attack::report::table(
///     &["k", "p"],
///     &[vec!["2".into(), "0.00".into()], vec!["64".into(), "1.00".into()]],
/// );
/// assert!(t.contains("k"));
/// assert!(t.lines().count() >= 4);
/// ```
///
/// # Panics
///
/// Panics if a row's length differs from the header's.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row width mismatch");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let rule = |out: &mut String| {
        for w in &widths {
            let _ = write!(out, "+-{}-", "-".repeat(*w));
        }
        out.push_str("+\n");
    };
    rule(&mut out);
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(out, "| {h:w$} ");
    }
    out.push_str("|\n");
    rule(&mut out);
    for row in rows {
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(out, "| {cell:w$} ");
        }
        out.push_str("|\n");
    }
    rule(&mut out);
    out
}

/// Renders values as CSV with a header line.
///
/// # Panics
///
/// Panics if a row's length differs from the header's.
pub fn csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = headers.join(",");
    out.push('\n');
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row width mismatch");
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Renders a horizontal ASCII bar chart: one line per `(label, value)` with
/// bars scaled to `width` characters.
pub fn bar_chart(entries: &[(String, f64)], width: usize) -> String {
    let max = entries.iter().map(|(_, v)| *v).fold(0.0_f64, f64::max);
    let label_w = entries.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, value) in entries {
        let bar_len = if max > 0.0 {
            ((value / max) * width as f64).round() as usize
        } else {
            0
        };
        let _ = writeln!(out, "{label:label_w$} | {} {value:.3}", "#".repeat(bar_len));
    }
    out
}

/// Buckets samples into a latency histogram (fixed-width bins) rendered as
/// an ASCII chart — the Figure-5 visual.
pub fn latency_histogram(samples: &[u64], bin_width: u64, max_rows: usize) -> String {
    if samples.is_empty() || bin_width == 0 {
        return String::from("(no samples)\n");
    }
    let lo = samples.iter().min().copied().unwrap_or(0) / bin_width * bin_width;
    let hi = samples.iter().max().copied().unwrap_or(0);
    let bins = ((hi - lo) / bin_width + 1).min(max_rows as u64) as usize;
    let mut counts = vec![0usize; bins];
    for &s in samples {
        let idx = (((s - lo) / bin_width) as usize).min(bins - 1);
        counts[idx] += 1;
    }
    let entries: Vec<(String, f64)> = counts
        .iter()
        .enumerate()
        .map(|(i, &c)| (format!("{:>6}", lo + i as u64 * bin_width), c as f64))
        .collect();
    bar_chart(&entries, 50)
}

/// Formats a probability as a percentage with one decimal.
pub fn pct(p: f64) -> String {
    format!("{:.1}%", p * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 6);
        // All lines equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(t.contains("long-name"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let _ = table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn csv_shape() {
        let c = csv(&["x", "y"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(c, "x,y\n1,2\n");
    }

    #[test]
    fn bar_chart_scales_to_max() {
        let chart = bar_chart(&[("a".into(), 1.0), ("b".into(), 2.0)], 10);
        let lines: Vec<&str> = chart.lines().collect();
        assert!(lines[1].matches('#').count() == 10);
        assert!(lines[0].matches('#').count() == 5);
    }

    #[test]
    fn histogram_handles_degenerate_input() {
        assert!(latency_histogram(&[], 10, 40).contains("no samples"));
        let h = latency_histogram(&[480, 485, 750], 50, 40);
        assert!(h.contains("450") || h.contains("480"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.017), "1.7%");
    }
}
