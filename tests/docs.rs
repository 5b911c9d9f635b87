//! The docs name only bench keys that exist.
//!
//! Every inline-code span in README.md and DESIGN.md shaped like
//! `family/key`, whose `family` is a family of `BENCH_results.json`, must
//! match a recorded key. A mention matches a key whole or as a prefix
//! ending at a `/` (`ntt_engines/host` names `ntt_engines/host/12`); `*`
//! matches any run of characters and `{a,b}` is an alternation, every
//! branch of which must match. Deleting or renaming a bench fails here
//! until the prose that cites it is fixed.

use std::collections::BTreeSet;
use std::path::Path;

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The keys of the flat `{"key": value, …}` map the bench stub writes.
fn bench_keys() -> Vec<String> {
    read("BENCH_results.json")
        .lines()
        .filter_map(|l| l.trim().strip_prefix('"')?.split_once('"'))
        .map(|(key, _)| key.to_string())
        .collect()
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

/// `pattern` matches `key` whole or one of its `/`-bounded prefixes.
fn matches(pattern: &str, key: &str) -> bool {
    let pattern = pattern.trim_end_matches('/');
    glob(pattern, key)
        || key
            .match_indices('/')
            .any(|(i, _)| glob(pattern, &key[..i]))
}

#[test]
fn pattern_semantics() {
    assert_eq!(alternatives("a/{1,2}/{x,y}").len(), 4);
    assert!(matches("ntt_engines/host", "ntt_engines/host/12"));
    assert!(matches("sgn/", "sgn/naive/mlp8"));
    assert!(matches("ks_path/fast/*", "ks_path/fast/3"));
    assert!(matches(
        "batched_ntt/*_fused/*",
        "batched_ntt/mat3_fused/4096x8"
    ));
    assert!(!matches("ntt_engines/hos", "ntt_engines/host/12"));
    assert!(!matches(
        "batched_ntt/*_fused/*",
        "batched_ntt/mat3_sequential/4096x8"
    ));
}

#[test]
fn bench_keys_named_in_docs_exist() {
    let keys = bench_keys();
    let families: BTreeSet<&str> = keys.iter().filter_map(|k| k.split('/').next()).collect();
    let mut checked = 0;
    let mut stale = Vec::new();
    for doc in ["README.md", "DESIGN.md"] {
        for span in code_spans(&read(doc)) {
            let Some((family, _)) = span.split_once('/') else {
                continue;
            };
            if span.contains(char::is_whitespace) || !families.contains(family) {
                continue;
            }
            checked += 1;
            for alt in alternatives(&span) {
                if !keys.iter().any(|k| matches(&alt, k)) {
                    stale.push(format!("{doc}: `{span}` ({alt})"));
                }
            }
        }
    }
    // A parser that finds nothing would pass vacuously.
    assert!(checked >= 10, "only {checked} bench mentions found");
    assert!(
        stale.is_empty(),
        "docs name bench keys BENCH_results.json does not have:\n{}",
        stale.join("\n")
    );
}
