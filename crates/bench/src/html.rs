//! Self-contained HTML report assembly: combines the CSVs and SVGs the
//! figure-table entries write under `results/` into a single page
//! (`results/index.html`), so a whole reproduction run can be reviewed
//! in a browser.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Render one CSV (first line = header) as an HTML table.
///
/// Returns `None` when the text has no data rows.
pub fn csv_to_table(csv: &str) -> Option<String> {
    let mut lines = csv.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next()?;
    let mut out = String::from("<table>\n<tr>");
    for cell in header.split(',') {
        let _ = write!(out, "<th>{}</th>", escape(cell));
    }
    out.push_str("</tr>\n");
    let mut rows = 0;
    for line in lines {
        out.push_str("<tr>");
        for cell in line.split(',') {
            let _ = write!(out, "<td>{}</td>", escape(cell));
        }
        out.push_str("</tr>\n");
        rows += 1;
    }
    out.push_str("</table>\n");
    (rows > 0).then_some(out)
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .trim_matches('"')
        .to_string()
}

/// Build the report page from every `.csv` and `.svg` in `dir`
/// (sorted by name), returning the HTML. The CSVs named in `linked`
/// time the machine that made them; the page links them instead of
/// inlining their rows, so it is the same on every machine.
///
/// # Errors
///
/// Propagates directory-read failures; unreadable individual files are
/// skipped with a note in the page.
pub fn build_report(dir: &Path, linked: &[String]) -> std::io::Result<String> {
    let mut names: Vec<String> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".csv") || n.ends_with(".svg"))
        .collect();
    names.sort();

    let mut html = String::from(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
         <title>SecureLoop reproduction results</title>\n<style>\
         body{font-family:sans-serif;max-width:1000px;margin:2em auto;}\
         table{border-collapse:collapse;margin:1em 0;}\
         th,td{border:1px solid #999;padding:2px 8px;font-size:13px;}\
         th{background:#eee;}h2{margin-top:2em;border-bottom:1px solid #ccc;}\
         </style></head><body>\n<h1>SecureLoop reproduction results</h1>\n\
         <p>Generated from the CSV/SVG artifacts under <code>results/</code>. \
         See <code>EXPERIMENTS.md</code> for paper-vs-measured notes.</p>\n",
    );
    for name in &names {
        let _ = writeln!(html, "<h2 id=\"{0}\">{0}</h2>", escape(name));
        let path = dir.join(name);
        if linked.contains(name) {
            let _ = writeln!(
                html,
                "<p><a href=\"{0}\">{0}</a>: timings of the machine that ran it, not inlined.</p>",
                escape(name)
            );
        } else if name.ends_with(".svg") {
            match fs::read_to_string(&path) {
                Ok(svg) => html.push_str(&svg),
                Err(e) => {
                    let _ = writeln!(html, "<p>unreadable: {}</p>", escape(&e.to_string()));
                }
            }
        } else {
            match fs::read_to_string(&path) {
                Ok(csv) => match csv_to_table(&csv) {
                    Some(table) => html.push_str(&table),
                    None => html.push_str("<p>(empty)</p>\n"),
                },
                Err(e) => {
                    let _ = writeln!(html, "<p>unreadable: {}</p>", escape(&e.to_string()));
                }
            }
        }
    }
    html.push_str("</body></html>\n");
    Ok(html)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_renders_header_and_rows() {
        let t = csv_to_table("a,b\n1,2\n3,4\n").unwrap();
        assert_eq!(t.matches("<tr>").count(), 3);
        assert!(t.contains("<th>a</th>"));
        assert!(t.contains("<td>4</td>"));
    }

    #[test]
    fn empty_csv_is_none() {
        assert!(csv_to_table("only,a,header\n").is_none());
        assert!(csv_to_table("").is_none());
    }

    #[test]
    fn cells_are_escaped() {
        let t = csv_to_table("h\n<svg>&x\n").unwrap();
        assert!(t.contains("&lt;svg&gt;&amp;x"));
    }

    #[test]
    fn build_report_over_temp_dir() {
        let dir = std::env::temp_dir().join(format!("slrep_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("b_table.csv"), "x,y\n1,2\n").unwrap();
        fs::write(dir.join("a_plot.svg"), "<svg xmlns=\"x\"></svg>").unwrap();
        fs::write(dir.join("c_timings.csv"), "case,us\nx,3\n").unwrap();
        let html = build_report(&dir, &["c_timings.csv".to_string()]).unwrap();
        // Sorted: svg section before csv section.
        let svg_pos = html.find("a_plot.svg").unwrap();
        let csv_pos = html.find("b_table.csv").unwrap();
        assert!(svg_pos < csv_pos);
        assert!(html.contains("<svg"));
        assert!(html.contains("<td>2</td>"));
        // Machine-dependent rows are linked, not inlined.
        assert!(html.contains("<a href=\"c_timings.csv\">"));
        assert!(!html.contains("<td>3</td>"));
        fs::remove_dir_all(&dir).unwrap();
    }
}
