//! A minimal `Cargo.toml` reader: just enough TOML to recover the package
//! name and the dependency names (with their line numbers) that the crate
//! layering check needs, and the lint levels the `hygiene` check reads.
//! Not a general TOML parser.

use std::path::PathBuf;

/// One dependency entry in a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependency {
    /// The dependency name (the key of the entry).
    pub name: String,
    /// 1-based line of the entry (or of the `[dependencies.<name>]`
    /// header).
    pub line: usize,
    /// Whether the entry sits in `[dev-dependencies]`.
    pub dev: bool,
}

/// The subset of a `Cargo.toml` the layering and hygiene checks consume.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// Path as reported in diagnostics.
    pub path: PathBuf,
    /// `package.name`, if present.
    pub name: Option<String>,
    /// All `[dependencies]` / `[dev-dependencies]` entries.
    pub deps: Vec<Dependency>,
    /// Whether the manifest declares `[lints] workspace = true`.
    pub inherits_workspace_lints: bool,
    /// Lines that set the rustc lint `deprecated`, or the `warnings` group,
    /// to `allow` in `[lints.rust]` or `[workspace.lints.rust]`, either as
    /// an entry or as a `[lints.rust.<lint>]` table's `level`.
    pub allows_deprecated: Vec<usize>,
}

/// Parses the manifest subset from `content`.
#[must_use]
pub fn parse(path: PathBuf, content: &str) -> Manifest {
    #[derive(PartialEq, Clone, Copy)]
    enum Section {
        Package,
        Deps,
        DevDeps,
        Lints,
        RustLints,
        /// A `[lints.rust.<lint>]` table: whether the lint silences
        /// `deprecated`.
        RustLint(bool),
        Other,
    }
    let mut m = Manifest {
        path,
        ..Manifest::default()
    };
    let mut section = Section::Other;
    for (idx, raw) in content.lines().enumerate() {
        let line = strip_toml_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = match line.trim_matches(['[', ']']) {
                "package" => Section::Package,
                "dependencies" | "target.'cfg(test)'.dependencies" => Section::Deps,
                "dev-dependencies" => Section::DevDeps,
                "lints" => Section::Lints,
                "lints.rust" | "workspace.lints.rust" => Section::RustLints,
                other => {
                    // Table-form entries: `[dependencies.foo]`.
                    if let Some(dep) = other.strip_prefix("dependencies.") {
                        m.deps.push(Dependency {
                            name: dep.trim().to_owned(),
                            line: idx + 1,
                            dev: false,
                        });
                    } else if let Some(dep) = other.strip_prefix("dev-dependencies.") {
                        m.deps.push(Dependency {
                            name: dep.trim().to_owned(),
                            line: idx + 1,
                            dev: true,
                        });
                    }
                    let lint = other.strip_prefix("workspace.").unwrap_or(other);
                    lint.strip_prefix("lints.rust.")
                        .map_or(Section::Other, |l| {
                            Section::RustLint(silences_deprecated(l))
                        })
                }
            };
            continue;
        }
        let Some(eq) = line.find('=') else { continue };
        let key = line[..eq].trim();
        let value = line[eq + 1..].trim();
        match section {
            Section::Package if key == "name" => {
                m.name = Some(value.trim_matches('"').to_owned());
            }
            Section::Deps | Section::DevDeps => {
                // `foo = "1"`, `foo = { path = ".." }`, `foo.workspace = true`
                let name = key.split('.').next().unwrap_or(key).trim();
                m.deps.push(Dependency {
                    name: name.to_owned(),
                    line: idx + 1,
                    dev: section == Section::DevDeps,
                });
            }
            Section::Lints if key == "workspace" && value == "true" => {
                m.inherits_workspace_lints = true;
            }
            // `lint = "allow"` or `lint = { level = "allow", .. }` …
            Section::RustLints if silences_deprecated(key) && value.contains("\"allow\"") => {
                m.allows_deprecated.push(idx + 1);
            }
            // … or `level = "allow"` in the lint's own table.
            Section::RustLint(true) if key == "level" && value.contains("\"allow\"") => {
                m.allows_deprecated.push(idx + 1);
            }
            _ => {}
        }
    }
    m
}

/// Whether `lint` is `deprecated` or the `warnings` group that holds it.
#[must_use]
pub fn silences_deprecated(lint: &str) -> bool {
    matches!(lint.trim(), "deprecated" | "warnings")
}

/// Removes a `#` comment that is not inside a quoted string.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, ch) in line.char_indices() {
        match ch {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_name_and_deps() {
        let m = parse(
            PathBuf::from("Cargo.toml"),
            "[package]\n\
             name = \"smartflux-wms\"\n\
             [dependencies]\n\
             smartflux-datastore.workspace = true\n\
             parking_lot = { path = \"../x\" } # comment\n\
             [dev-dependencies]\n\
             proptest.workspace = true\n\
             [lints]\n\
             workspace = true\n",
        );
        assert_eq!(m.name.as_deref(), Some("smartflux-wms"));
        assert!(m.inherits_workspace_lints);
        let names: Vec<(&str, bool)> = m.deps.iter().map(|d| (d.name.as_str(), d.dev)).collect();
        assert_eq!(
            names,
            vec![
                ("smartflux-datastore", false),
                ("parking_lot", false),
                ("proptest", true)
            ]
        );
        assert_eq!(m.deps[0].line, 4);
    }

    #[test]
    fn table_form_dependency() {
        let m = parse(
            PathBuf::from("Cargo.toml"),
            "[package]\nname = \"x\"\n[dependencies.smartflux]\npath = \"../core\"\n",
        );
        assert_eq!(m.deps.len(), 1);
        assert_eq!(m.deps[0].name, "smartflux");
        assert_eq!(m.deps[0].line, 3);
    }

    #[test]
    fn hash_inside_string_is_not_comment() {
        let m = parse(PathBuf::from("Cargo.toml"), "[package]\nname = \"a#b\"\n");
        assert_eq!(m.name.as_deref(), Some("a#b"));
    }
}
