//! Report rendering and result-file helpers for the `reproduce` binary.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Render a generic markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", headers.join(" | ")));
    out.push_str(&format!("|{}\n", "---|".repeat(headers.len())));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

/// Render a CSV document.
pub fn csv_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&headers.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// The directory experiment outputs are written to (`results/` under the
/// workspace root, overridable with the `NETSCHED_RESULTS_DIR` environment
/// variable).
pub(crate) fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("NETSCHED_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    // Walk up from the crate manifest to the workspace root.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let workspace = manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest);
    workspace.join("results")
}

/// Write `content` to `results/<name>`, creating the directory if needed,
/// and return the written path. The error names the path that failed.
pub fn write_result_file(name: &str, content: &str) -> io::Result<PathBuf> {
    let dir = results_dir();
    let path = dir.join(name);
    fs::create_dir_all(&dir)
        .and_then(|()| fs::write(&path, content))
        .map_err(|err| io::Error::new(err.kind(), format!("{}: {err}", path.display())))?;
    Ok(path)
}

/// Persist `content` as `results/<file_name>` and echo it to stdout under
/// the written path.
pub fn emit(file_name: &str, content: &str) -> io::Result<()> {
    let path = write_result_file(file_name, content)?;
    println!("\n== {} ==\n\n{content}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_shape() {
        let md = markdown_table(
            &["Method", "Top-1"],
            &[
                vec!["RF".into(), "0.7".into()],
                vec!["LR".into(), "0.5".into()],
            ],
        );
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "| Method | Top-1 |");
        assert_eq!(lines[1], "|---|---|");
        assert!(lines[2].contains("RF"));
    }

    #[test]
    fn csv_table_shape() {
        let csv = csv_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(csv, "a,b\n1,2\n");
    }

    #[test]
    fn results_dir_env_override_and_write() {
        let tmp =
            std::env::temp_dir().join(format!("netsched-results-test-{}", std::process::id()));
        std::env::set_var("NETSCHED_RESULTS_DIR", &tmp);
        assert_eq!(results_dir(), tmp);
        let path = write_result_file("unit_test.md", "hello").expect("writable temp dir");
        assert!(path.exists());
        let content = fs::read_to_string(&path).unwrap();
        assert_eq!(content, "hello");
        // A results "directory" that is a regular file fails the write, and
        // the error names the file that could not be written.
        let blocker = tmp.join("unit_test.md");
        std::env::set_var("NETSCHED_RESULTS_DIR", &blocker);
        let err = write_result_file("nested.md", "hello").unwrap_err();
        assert!(err.to_string().contains("nested.md"), "{err}");
        assert!(emit("nested.md", "hello").is_err());
        std::env::remove_var("NETSCHED_RESULTS_DIR");
        let _ = fs::remove_dir_all(&tmp);
        // Without the override the directory ends with `results`.
        assert!(results_dir().ends_with("results"));
    }
}
