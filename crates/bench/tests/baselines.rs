//! Every committed `BENCH_*.json` must parse under the gate schema, so
//! `cargo test` catches schema drift before a bench's `--check` run does.

use geodns_bench::{gate, repo_root};

#[test]
fn every_committed_baseline_parses_under_the_gate_schema() {
    let mut baselines: Vec<_> = std::fs::read_dir(repo_root())
        .expect("read the repository root")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    baselines.sort();
    assert!(baselines.len() >= 5, "expected the gated benches' baselines, found {baselines:?}");
    for path in baselines {
        let text = std::fs::read_to_string(&path).expect("read baseline");
        let gates = gate::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(!gates.is_empty(), "{} gates nothing", path.display());
        for g in &gates {
            assert!(g.value.is_finite(), "{}: {} is not finite", path.display(), g.metric);
            assert!(!g.note.is_empty(), "{}: {} has no note", path.display(), g.metric);
        }
    }
}
