//! `lint.toml` loading.
//!
//! The offline build environment has no `toml` crate, so the analyzer ships
//! a deliberately small TOML subset parser covering exactly what its config
//! needs: comments, `[table]` headers, `[[array-of-tables]]` headers, string
//! values, booleans, and (possibly multi-line) arrays of strings. Anything
//! outside that subset is a hard error — config typos should fail loudly,
//! not silently relax an invariant.

/// One reachability stop: a fn (as a `path::fn_name` or bare-name spec)
/// whose subtree is excluded from a closure, with a mandatory reason
/// documenting why the branch is cold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StopEntry {
    pub function: String,
    pub reason: String,
    /// Line of the entry's `[[...]]` header in lint.toml, so stale-entry
    /// findings point at the entry itself.
    pub line: u32,
}

/// Typed analyzer configuration.
#[derive(Debug, Default)]
pub struct Config {
    /// Workspace-relative directories (or files) to scan.
    pub include: Vec<String>,
    /// Workspace-relative path prefixes to skip.
    pub exclude: Vec<String>,
    /// Roots the hot-path closure is derived from (`path::fn_name` specs).
    /// Every fn in the closure must be free of allocating tokens.
    pub hot_path_roots: Vec<String>,
    /// Cold branches excluded from the derived hot-path closure.
    pub hot_path_stops: Vec<StopEntry>,
}

impl Config {
    /// The `[[hot_path.stop]]` fn specs: the cut the derived closure is
    /// computed with.
    pub fn hot_path_stop_specs(&self) -> Vec<String> {
        self.hot_path_stops
            .iter()
            .map(|s| s.function.clone())
            .collect()
    }

    /// Parse a `lint.toml` document.
    pub fn parse(text: &str) -> Result<Config, String> {
        let doc = parse_toml(text)?;
        let mut config = Config::default();
        for (name, table) in &doc.tables {
            match name.as_str() {
                "paths" => {
                    config.include = table.get_list("include")?;
                    config.exclude = table.get_list("exclude")?;
                }
                "hot_path" => config.hot_path_roots = table.get_list("roots")?,
                "hot_path.stop" => config.hot_path_stops.push(table.to_stop_entry(name)?),
                other => return Err(format!("lint.toml: unknown table [{other}]")),
            }
        }
        if config.include.is_empty() {
            return Err("lint.toml: [paths] include must list at least one directory".into());
        }
        Ok(config)
    }
}

/// An order-preserving parsed document: repeated names come from `[[...]]`
/// array-of-tables headers.
struct Doc {
    tables: Vec<(String, Table)>,
}

struct Table {
    entries: Vec<(String, Value)>,
    /// 1-based line of the table's header.
    line: u32,
}

enum Value {
    Str(String),
    List(Vec<String>),
}

impl Table {
    fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A list-valued key; absent keys yield an empty list.
    fn get_list(&self, key: &str) -> Result<Vec<String>, String> {
        match self.get(key) {
            None => Ok(Vec::new()),
            Some(Value::List(items)) => Ok(items.clone()),
            Some(Value::Str(_)) => Err(format!("lint.toml: key `{key}` must be an array")),
        }
    }

    fn get_str(&self, table: &str, key: &str) -> Result<String, String> {
        match self.get(key) {
            Some(Value::Str(s)) if !s.is_empty() => Ok(s.clone()),
            Some(Value::Str(_)) => Err(format!(
                "lint.toml: [[{table}]] key `{key}` must not be empty"
            )),
            Some(Value::List(_)) => Err(format!(
                "lint.toml: [[{table}]] key `{key}` must be a string"
            )),
            None => Err(format!(
                "lint.toml: [[{table}]] entry is missing key `{key}`"
            )),
        }
    }

    fn to_stop_entry(&self, table: &str) -> Result<StopEntry, String> {
        Ok(StopEntry {
            function: self.get_str(table, "function")?,
            reason: self.get_str(table, "reason")?,
            line: self.line,
        })
    }
}

fn parse_toml(text: &str) -> Result<Doc, String> {
    let mut doc = Doc { tables: Vec::new() };
    let mut lines = text.lines().enumerate().peekable();
    while let Some((lineno, raw)) = lines.next() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            doc.tables.push((
                header.trim().to_string(),
                Table {
                    entries: Vec::new(),
                    line: lineno as u32 + 1,
                },
            ));
        } else if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            doc.tables.push((
                header.trim().to_string(),
                Table {
                    entries: Vec::new(),
                    line: lineno as u32 + 1,
                },
            ));
        } else if let Some(eq) = line.find('=') {
            let key = line[..eq].trim().to_string();
            let mut value = line[eq + 1..].trim().to_string();
            // A multi-line array: keep appending lines until the `]` closes.
            while value.starts_with('[') && !closes_array(&value) {
                match lines.next() {
                    Some((_, next)) => {
                        value.push(' ');
                        value.push_str(strip_comment(next).trim());
                    }
                    None => {
                        return Err(format!(
                            "lint.toml:{}: unterminated array for key `{key}`",
                            lineno + 1
                        ))
                    }
                }
            }
            let parsed =
                parse_value(&value).map_err(|e| format!("lint.toml:{}: {e}", lineno + 1))?;
            match doc.tables.last_mut() {
                Some((_, table)) => table.entries.push((key, parsed)),
                None => {
                    return Err(format!(
                        "lint.toml:{}: key `{key}` appears before any [table] header",
                        lineno + 1
                    ))
                }
            }
        } else {
            return Err(format!(
                "lint.toml:{}: cannot parse line `{line}`",
                lineno + 1
            ));
        }
    }
    Ok(doc)
}

/// Drop a `#` comment, respecting `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Does this (comment-stripped, accumulated) array literal close its `[`?
fn closes_array(value: &str) -> bool {
    let mut in_str = false;
    let mut escaped = false;
    for c in value.chars() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            ']' if !in_str => return true,
            _ => {}
        }
    }
    false
}

fn parse_value(value: &str) -> Result<Value, String> {
    if let Some(body) = value.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| "array value does not end with `]`".to_string())?;
        let mut items = Vec::new();
        for part in split_array_items(body) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part)? {
                Value::Str(s) => items.push(s),
                Value::List(_) => return Err("nested arrays are not supported".into()),
            }
        }
        return Ok(Value::List(items));
    }
    if let Some(body) = value.strip_prefix('"') {
        let body = body
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string `{value}`"))?;
        return Ok(Value::Str(unescape(body)));
    }
    Err(format!(
        "unsupported value `{value}` (only strings and string arrays)"
    ))
}

/// Split an array body on commas that sit outside quoted strings.
fn split_array_items(body: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            ',' if !in_str => {
                items.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    items.push(&body[start..]);
    items
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => out.push(other),
                None => {}
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config_shape() {
        let text = r#"
# analyzer config
[paths]
include = ["crates", "src"]
exclude = [
    "crates/analysis/fixtures", # fixtures carry deliberate violations
    "vendor",
]
"#;
        let config = Config::parse(text).unwrap();
        assert_eq!(config.include, vec!["crates", "src"]);
        assert_eq!(config.exclude, vec!["crates/analysis/fixtures", "vendor"]);
    }

    #[test]
    fn parses_graph_tables() {
        let text = r#"
[paths]
include = ["crates"]

[hot_path]
roots = ["crates/core/src/service.rs::schedule_batch_into"]

[[hot_path.stop]]
function = "crates/core/src/context.rs::rebuild"
reason = "cold: only runs on topology changes"
"#;
        let config = Config::parse(text).unwrap();
        assert_eq!(
            config.hot_path_roots,
            vec!["crates/core/src/service.rs::schedule_batch_into"]
        );
        assert_eq!(config.hot_path_stops.len(), 1);
        let stop = &config.hot_path_stops[0];
        assert_eq!(stop.function, "crates/core/src/context.rs::rebuild");
        assert_eq!(stop.reason, "cold: only runs on topology changes");
        assert!(stop.line > 0, "stop entries record their header line");
    }

    #[test]
    fn rejects_unknown_tables_and_missing_keys() {
        assert!(Config::parse("[nonsense]\n").is_err());
        assert!(Config::parse("[paths]\ninclude = [\"x\"]\n[read_path]\n").is_err());
        let missing_reason = "[paths]\ninclude = [\"x\"]\n[[hot_path.stop]]\nfunction = \"f\"\n";
        let err = Config::parse(missing_reason).unwrap_err();
        assert!(err.contains("reason"), "{err}");
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let text = "[paths]\ninclude = [\"dir#1\"] # trailing\n";
        let config = Config::parse(text).unwrap();
        assert_eq!(config.include, vec!["dir#1"]);
    }

    #[test]
    fn requires_include() {
        let err = Config::parse("[paths]\nexclude = []\n").unwrap_err();
        assert!(err.contains("include"), "{err}");
    }
}
