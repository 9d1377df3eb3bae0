//! Minimal fixed-width table rendering for harness output.

/// Prints rows as a fixed-width text table with a header line.
pub fn print(headers: &[&str], rows: &[Vec<String>]) {
    println!("{}", render(headers, rows));
}

fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        if row.len() > widths.len() {
            widths.resize(row.len(), 0);
        }
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |cells: &[String], widths: &[usize], out: &mut String| {
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    line(&header_cells, &widths, &mut out);
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&rule, &widths, &mut out);
    for row in rows {
        line(row, &widths, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let s = render(
            &["proto", "n"],
            &[
                vec!["BSR".into(), "5".into()],
                vec!["RB-baseline".into(), "4".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("proto"));
        assert!(lines[1].starts_with("-----"));
        assert!(lines[3].starts_with("RB-baseline"));
    }
}
