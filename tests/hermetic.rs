//! Hermeticity guard: the dependency graph must be workspace-only.
//!
//! The whole point of the offline build story (DESIGN.md §"Third-party
//! crates") is that `cargo build --offline` works against an *empty*
//! registry cache. Cargo resolves every manifest entry — including
//! optional and feature-gated ones — into Cargo.lock, so even an unused
//! third-party listing breaks offline resolution. This test therefore
//! rejects ANY non-`safereg-` dependency in any manifest, not just
//! non-gated ones — and any `[features]` table or `[[bench]]` target, which
//! only ever existed to gate code on crates the build cannot have (the
//! DetRng suites are the property tests, `benchmark/` is the benchmark).
//!
//! The parser is deliberately minimal (std only): it tracks `[section]`
//! headers and reads the key of each `name = ...` line inside dependency
//! sections. That covers the subset of TOML these manifests use; exotic
//! syntax (inline dotted keys for deps, multi-line inline tables) would
//! need parser updates, which is fine — a failure here should prompt a
//! human look either way.

use std::fs;
use std::path::{Path, PathBuf};

/// Returns true for section headers that declare dependencies:
/// `[dependencies]`, `[dev-dependencies]`, `[build-dependencies]`,
/// `[workspace.dependencies]` and `[target.'cfg(..)'.dependencies]`.
fn is_dependency_section(header: &str) -> bool {
    header == "workspace.dependencies"
        || header
            .rsplit('.')
            .next()
            .map(|last| {
                last == "dependencies" || last == "dev-dependencies" || last == "build-dependencies"
            })
            .unwrap_or(false)
        || header == "dependencies"
        || header == "dev-dependencies"
        || header == "build-dependencies"
}

/// The `[section]` / `[[section]]` headers of a manifest, brackets
/// stripped.
fn section_headers(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .filter_map(|raw| raw.trim().strip_prefix('[')?.strip_suffix(']'))
        .map(|header| header.trim_matches(['[', ']', ' ']).to_string())
        .collect()
}

/// Extracts `(section, dependency-name)` pairs from a manifest.
fn dependency_names(manifest: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut section = String::new();
    let mut in_deps = false;
    for raw in manifest.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            if let Some(header) = rest.strip_suffix(']') {
                section = header.trim().to_string();
                in_deps = is_dependency_section(&section);
            }
            continue;
        }
        if !in_deps {
            continue;
        }
        if let Some(eq) = line.find('=') {
            let key = line[..eq].trim().trim_matches('"').to_string();
            if !key.is_empty() {
                out.push((section.clone(), key));
            }
        }
    }
    out
}

fn workspace_manifests() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    let crates = root.join("crates");
    let entries = fs::read_dir(&crates).expect("crates/ directory exists");
    for entry in entries {
        let path = entry
            .expect("readable crates/ entry")
            .path()
            .join("Cargo.toml");
        if path.is_file() {
            manifests.push(path);
        }
    }
    manifests.sort();
    assert!(
        manifests.len() >= 12,
        "expected the root + 11 crate manifests, found {}: {manifests:?}",
        manifests.len()
    );
    manifests
}

#[test]
fn every_dependency_is_a_workspace_crate() {
    let mut offenders = Vec::new();
    for path in workspace_manifests() {
        let manifest =
            fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        for (section, name) in dependency_names(&manifest) {
            if !name.starts_with("safereg-") {
                offenders.push(format!("{}: [{section}] {name}", path.display()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "third-party dependencies break the offline build (empty registry \
         cache); found:\n  {}",
        offenders.join("\n  ")
    );
}

#[test]
fn no_manifest_declares_features_or_bench_targets() {
    for path in workspace_manifests() {
        let manifest =
            fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let gated: Vec<String> = section_headers(&manifest)
            .into_iter()
            .filter(|h| h == "features" || h == "bench")
            .collect();
        assert!(
            gated.is_empty(),
            "{} declares {gated:?}: feature gates and bench stubs were deleted on purpose",
            path.display()
        );
    }
}

#[test]
fn parser_sees_through_the_expected_toml_shapes() {
    let sample = r#"
[package]
name = "demo"

[dependencies]
safereg-common = { workspace = true }
serde = { version = "1", features = ["derive"] }

[dev-dependencies]
proptest = "1"

[features]
gated = []

[[bench]]
name = "stub"

[target.'cfg(unix)'.build-dependencies]
cc = "1"
"#;
    assert_eq!(
        section_headers(sample),
        [
            "package",
            "dependencies",
            "dev-dependencies",
            "features",
            "bench",
            "target.'cfg(unix)'.build-dependencies"
        ]
    );
    let deps = dependency_names(sample);
    assert_eq!(
        deps,
        vec![
            ("dependencies".to_string(), "safereg-common".to_string()),
            ("dependencies".to_string(), "serde".to_string()),
            ("dev-dependencies".to_string(), "proptest".to_string()),
            (
                "target.'cfg(unix)'.build-dependencies".to_string(),
                "cc".to_string()
            ),
        ]
    );
}
