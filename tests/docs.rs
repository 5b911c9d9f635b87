//! The docs name only benchmark metrics that exist.
//!
//! Every inline-code span in README.md and DESIGN.md shaped like
//! `family.metric`, whose `family` is a family of the per-layer metrics
//! in `BENCHMARK.json` (`ckks`, `sched`, …), or shaped like
//! `metric@workload` (written in prose as two spans joined by `@`),
//! must match a metric the benchmark declares (`end_to_end` or
//! `per_layer`), and a `@workload` suffix must name one of its
//! workloads. `*` matches any run of characters and `{a,b}` is an
//! alternation, every branch of which must match. Renaming a metric
//! fails here until the prose that cites it is fixed.
//!
//! The docs also name only Rust items that exist: every segment of every
//! inline-code path shaped like `a::b[::c]` must be declared in the
//! repo's Rust sources — as a crate, module, file, item, `use … as` name,
//! struct field or enum variant. Paths rooted at `std`, `core` or a primitive type are
//! not checked.

use std::collections::BTreeSet;
use std::path::Path;

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The benchmark's declared names: `(metrics, workloads)`. Each entry
/// of `BENCHMARK.json`'s `workloads`, `end_to_end` and `per_layer` lists
/// sits on a line of its own as `{"name": "…", …}`.
fn benchmark_names() -> (Vec<String>, Vec<String>) {
    let (mut metrics, mut workloads) = (Vec::new(), Vec::new());
    let mut list = None;
    for line in read("BENCHMARK.json").lines() {
        let line = line.trim();
        if let Some((key, _)) = line.strip_prefix('"').and_then(|l| l.split_once("\": [")) {
            list = Some(key.to_string());
        }
        let Some(name) = line
            .strip_prefix("{\"name\": \"")
            .and_then(|l| l.split_once('"'))
            .map(|(name, _)| name.to_string())
        else {
            continue;
        };
        match list.as_deref() {
            Some("workloads") => workloads.push(name),
            Some("end_to_end" | "per_layer") => metrics.push(name),
            _ => {}
        }
    }
    (metrics, workloads)
}

/// Inline-code spans of a markdown file, fenced blocks skipped.
fn code_spans(markdown: &str) -> Vec<String> {
    let mut in_fence = false;
    let prose: Vec<&str> = markdown
        .lines()
        .filter(|l| {
            let fence = l.trim_start().starts_with("```");
            in_fence ^= fence;
            !fence && !in_fence
        })
        .collect();
    let joined = prose.join("\n");
    joined
        .split('`')
        .skip(1)
        .step_by(2)
        .map(String::from)
        .collect()
}

/// Expands every `{a,b,…}` group into one pattern per branch.
fn alternatives(pattern: &str) -> Vec<String> {
    let Some(open) = pattern.find('{') else {
        return vec![pattern.to_string()];
    };
    let close = open + pattern[open..].find('}').expect("unclosed `{`");
    let (head, tail) = (&pattern[..open], &pattern[close + 1..]);
    pattern[open + 1..close]
        .split(',')
        .flat_map(|branch| alternatives(&format!("{head}{branch}{tail}")))
        .collect()
}

/// Whole-string glob match where `*` matches any run of characters.
fn glob(pattern: &str, text: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == text,
        Some((lit, rest)) => {
            let Some(text) = text.strip_prefix(lit) else {
                return false;
            };
            (0..=text.len())
                .filter(|&i| text.is_char_boundary(i))
                .any(|i| glob(rest, &text[i..]))
        }
    }
}

#[test]
fn pattern_semantics() {
    assert_eq!(alternatives("a.{1,2}_{x,y}").len(), 4);
    assert!(glob("ckks.*_ms", "ckks.hoisted_rot8_ms"));
    assert!(glob("tpu.modeled_*", "tpu.modeled_he_mult_us"));
    assert!(!glob("ckks.*_ms", "ckks.max_abs_err"));
    assert!(!glob("sched.cost_graph", "sched.cost_graph_ms"));
}

#[test]
fn bench_keys_named_in_docs_exist() {
    let (metrics, workloads) = benchmark_names();
    assert!(
        metrics.len() >= 80 && workloads.len() == 4,
        "BENCHMARK.json unread"
    );
    let families: BTreeSet<&str> = metrics
        .iter()
        .filter_map(|m| m.split_once('.'))
        .map(|(f, _)| f)
        .collect();
    let mut checked = 0;
    let mut stale = Vec::new();
    for doc in ["README.md", "DESIGN.md"] {
        for span in code_spans(&read(doc).replace("`@`", "@")) {
            if span.contains(char::is_whitespace) {
                continue;
            }
            let (metric, workload) = match span.split_once('@') {
                Some((m, w)) => (m, Some(w)),
                None => (span.as_str(), None),
            };
            let family = metric.split_once('.').map(|(f, _)| f);
            if workload.is_none() && !family.is_some_and(|f| families.contains(f)) {
                continue;
            }
            checked += 1;
            if let Some(w) = workload.filter(|w| !workloads.iter().any(|x| x == w)) {
                stale.push(format!("{doc}: `{span}` (no workload {w})"));
            }
            for alt in alternatives(metric) {
                if !metrics.iter().any(|m| glob(&alt, m)) {
                    stale.push(format!("{doc}: `{span}` ({alt})"));
                }
            }
        }
    }
    // A parser that finds nothing would pass vacuously.
    assert!(checked >= 10, "only {checked} benchmark mentions found");
    assert!(
        stale.is_empty(),
        "docs name benchmark metrics BENCHMARK.json does not declare:\n{}",
        stale.join("\n")
    );
}

/// Roots whose paths the docs test does not resolve.
const EXTERNAL_ROOTS: &[&str] = &[
    "std", "core", "alloc", "f32", "f64", "u32", "u64", "usize", "Duration",
];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Every name the repo's Rust declares: crates, modules (inline, file or
/// directory), items, `use` renames, struct fields and enum variants.
fn declared_names() -> BTreeSet<String> {
    // `as` for a `use … as name` rename (a cast only adds a primitive).
    const ITEM_KEYWORDS: &[&str] = &[
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union", "as",
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut names = BTreeSet::from(["cross".to_string()]);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let krate = krate.unwrap().file_name();
        names.insert(format!("cross_{}", krate.to_string_lossy()));
    }
    for vendored in std::fs::read_dir(root.join("vendor")).unwrap() {
        names.insert(vendored.unwrap().file_name().to_string_lossy().into_owned());
    }
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "vendor"] {
        rust_files(&root.join(dir), &mut files);
    }
    for file in files {
        for module in [file.file_stem(), file.parent().and_then(Path::file_name)] {
            names.extend(module.map(|m| m.to_string_lossy().into_owned()));
        }
        for line in std::fs::read_to_string(&file).unwrap().lines() {
            let words: Vec<&str> = line
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .filter(|w| !w.is_empty())
                .collect();
            for pair in words.windows(2) {
                if ITEM_KEYWORDS.contains(&pair[0]) {
                    names.insert(pair[1].to_string());
                }
            }
            // A field (`name: T`) or a variant (`Name`, `Name(..)`, `Name { .. }`).
            let mut decl = line.trim_start();
            if let Some(rest) = decl.strip_prefix("pub") {
                decl = match rest.strip_prefix('(') {
                    Some(scoped) => scoped.split_once(')').map_or("", |(_, r)| r),
                    None => rest,
                }
                .trim_start();
            }
            let end = decl
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(decl.len());
            let (name, rest) = decl.split_at(end);
            let rest = rest.trim_start();
            let field = rest.starts_with(':') && !rest.starts_with("::");
            let variant = name.starts_with(|c: char| c.is_ascii_uppercase())
                && (rest.is_empty() || rest.starts_with([',', '(', '{', '=']));
            if is_ident(name) && (field || variant) {
                names.insert(name.to_string());
            }
        }
    }
    names
}

/// The segments of a path mention, or `None` if the span is not a path.
/// A call's arguments and anything after them are dropped, and a
/// `dir/file.rs` segment names module `file`.
fn path_segments(path: &str) -> Option<Vec<String>> {
    let path = path.split('(').next().unwrap();
    let mut segments = Vec::new();
    for segment in path.split("::").map(str::trim) {
        let segment = match segment.strip_suffix(".rs") {
            Some(file) => file.rsplit('/').next().unwrap(),
            None => segment,
        };
        match segment {
            "" => {}
            s if is_ident(s) => segments.push(s.to_string()),
            _ => return None,
        }
    }
    Some(segments)
}

#[test]
fn path_semantics() {
    let segs = |p: &str| path_segments(p).map(|s| s.join(" "));
    assert_eq!(segs("par::workers_for(work)").unwrap(), "par workers_for");
    assert_eq!(segs("Topology::hosts() > 1").unwrap(), "Topology hosts");
    assert_eq!(segs("tests/ks_fast.rs::case").unwrap(), "ks_fast case");
    assert_eq!(segs("costs::").unwrap(), "costs");
    assert_eq!(segs("::Reject").unwrap(), "Reject");
    assert_eq!(segs("a = b::c"), None);
    assert_eq!(alternatives("E::{add, sub}_batch")[1], "E:: sub_batch");
}

#[test]
fn rust_paths_named_in_docs_exist() {
    let names = declared_names();
    let mut checked = BTreeSet::new();
    let mut stale = Vec::new();
    for doc in ["README.md", "DESIGN.md"] {
        for span in code_spans(&read(doc)) {
            if !span.contains("::") {
                continue;
            }
            for alt in alternatives(&span) {
                let Some(segments) = path_segments(&alt) else {
                    continue;
                };
                if segments.is_empty() || EXTERNAL_ROOTS.contains(&segments[0].as_str()) {
                    continue;
                }
                checked.insert(span.clone());
                let missing: Vec<&String> =
                    segments.iter().filter(|s| !names.contains(*s)).collect();
                if !missing.is_empty() {
                    stale.push(format!("{doc}: `{span}` ({alt}): no {missing:?}"));
                }
            }
        }
    }
    // A parser that finds nothing would pass vacuously.
    assert!(
        checked.len() >= 80,
        "only {} path mentions found",
        checked.len()
    );
    assert!(
        stale.is_empty(),
        "docs name Rust items the sources do not declare:\n{}",
        stale.join("\n")
    );
}
