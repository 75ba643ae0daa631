//! The `antc` CLI and the `antd` daemon.
//!
//! The paper's figures and tables have one harness, `antc repro`
//! ([`repro::run`]): each report prints its table and checks the paper's
//! claims about it (see DESIGN.md §4 for the index). Runtime timings have
//! one harness, `antc bench` ([`antc::run_bench`]), which writes
//! `BENCH_runtime.json`.

pub mod alloc;
pub mod antc;
pub mod antd;
pub mod http;
pub mod json;
pub mod promcheck;
pub mod repro;

/// Renders an aligned text table: a header row plus data rows.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let s = render_table(
            &["name", "value"],
            &[
                vec!["a".to_string(), "1.00".to_string()],
                vec!["longer".to_string(), "2".to_string()],
            ],
        );
        assert!(s.contains("name"));
        assert!(s.contains("longer"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[2].len(), lines[3].len());
    }
}
