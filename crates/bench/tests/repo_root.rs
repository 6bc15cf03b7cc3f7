//! `repo_root()` follows the `CARGO_MANIFEST_DIR` cargo sets at run time,
//! not the one the library was compiled in: a copied checkout that reuses
//! a compiled `geodns-bench` must read baselines from, and write artifacts
//! into, its own tree. Its own test binary, because it sets a process-wide
//! environment variable.

#[test]
fn artifacts_follow_the_runtime_manifest_dir() {
    let copy = std::env::temp_dir().join(format!("geodns-bench-copy-{}", std::process::id()));
    let manifest = copy.join("crates/bench");
    std::fs::create_dir_all(&manifest).expect("create the copy's manifest dir");
    std::env::set_var("CARGO_MANIFEST_DIR", &manifest);

    assert_eq!(geodns_bench::repo_root(), manifest.join("../.."));
    assert_eq!(geodns_bench::output_dir(), manifest.join("../../target/paper"));
    assert!(copy.join("target/paper").is_dir(), "artifacts must land in the copy");

    std::fs::remove_dir_all(&copy).expect("remove the copy");
}
