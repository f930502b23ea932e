//! Fixture-driven self-tests: every rule catches its seeded violation
//! and passes its clean twin, and the workspace itself lints clean.
//!
//! The fixtures live under `fixtures/` (excluded from the workspace
//! scan) so the seeded violations exist to be caught *here*, not by
//! `slide-lint --check`.

use slide_lint::{check_wire_contract, lint_file, lint_workspace, Diagnostic};

const UNSAFE_BAD: &str = include_str!("../fixtures/unsafe_bad.rs");
const UNSAFE_CLEAN: &str = include_str!("../fixtures/unsafe_clean.rs");
const HOGWILD_BAD: &str = include_str!("../fixtures/hogwild_bad.rs");
const HOGWILD_CLEAN: &str = include_str!("../fixtures/hogwild_clean.rs");
const WEIGHTS_BAD: &str = include_str!("../fixtures/weights_bad.rs");
const WEIGHTS_CLEAN: &str = include_str!("../fixtures/weights_clean.rs");
const FFI_BAD: &str = include_str!("../fixtures/ffi_bad.rs");
const FFI_CLEAN: &str = include_str!("../fixtures/ffi_clean.rs");
const TRANSPORT_BAD: &str = include_str!("../fixtures/transport_bad.rs");
const TRANSPORT_CLEAN: &str = include_str!("../fixtures/transport_clean.rs");
const ROUTER_BAD: &str = include_str!("../fixtures/router_bad.rs");
const ROUTER_CLEAN: &str = include_str!("../fixtures/router_clean.rs");
const HTTP_READER_BAD: &str = include_str!("../fixtures/http_reader_bad.rs");
const HTTP_READER_CLEAN: &str = include_str!("../fixtures/http_reader_clean.rs");
const PANIC_BAD: &str = include_str!("../fixtures/panic_bad.rs");
const PANIC_CLEAN: &str = include_str!("../fixtures/panic_clean.rs");
const ALLOW_BAD: &str = include_str!("../fixtures/allow_bad.rs");
const ALLOW_CLEAN: &str = include_str!("../fixtures/allow_clean.rs");
const WIRE_ERROR: &str = include_str!("../fixtures/wire/error.rs");
const WIRE_HTTP: &str = include_str!("../fixtures/wire/http.rs");
const WIRE_DOC: &str = include_str!("../fixtures/wire/wire-v1.md");
const WIRE_DOC_DRIFT: &str = include_str!("../fixtures/wire/wire-v1-drift.md");

/// A path the per-file rules treat as ordinary library code.
const NEUTRAL: &str = "crates/core/src/lib.rs";
/// A serve request-path module (no-panic-paths applies).
const REQUEST_PATH: &str = "crates/serve/src/conn.rs";

fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule).collect()
}

#[test]
fn unsafe_bad_is_caught_and_clean_passes() {
    let bad = lint_file(NEUTRAL, UNSAFE_BAD);
    assert_eq!(rules_of(&bad), ["unsafe-needs-safety"], "{bad:?}");
    assert_eq!(bad[0].line, 8, "anchors to the `unsafe` token's line");
    assert_eq!(lint_file(NEUTRAL, UNSAFE_CLEAN), [], "clean twin");
}

#[test]
fn hogwild_bad_is_caught_outside_the_protocol_modules() {
    let bad = lint_file(NEUTRAL, HOGWILD_BAD);
    assert_eq!(
        rules_of(&bad),
        ["hogwild-confinement", "hogwild-confinement"],
        "slice form + accessor: {bad:?}"
    );
    // The identical source is fine inside the two owning modules.
    assert_eq!(lint_file("crates/kernels/src/fused.rs", HOGWILD_BAD), []);
    assert_eq!(lint_file("crates/core/src/hogwild.rs", HOGWILD_BAD), []);
    // A bare AtomicU32 counter is ordinary concurrency, not a row.
    assert_eq!(lint_file(NEUTRAL, HOGWILD_CLEAN), [], "clean twin");
}

#[test]
fn weights_bad_is_caught_outside_the_layer() {
    let bad = lint_file(NEUTRAL, WEIGHTS_BAD);
    assert_eq!(
        rules_of(&bad),
        ["weight-writes-mark"; 3],
        "set + flat add_racy + split-line copy_from: {bad:?}"
    );
    assert_eq!(
        bad.iter().map(|d| d.line).collect::<Vec<_>>(),
        [7, 8, 12],
        "{bad:?}"
    );
    // The layer and the cell type may write cells directly.
    assert_eq!(lint_file("crates/core/src/layer.rs", WEIGHTS_BAD), []);
    assert_eq!(lint_file("crates/core/src/hogwild.rs", WEIGHTS_BAD), []);
    assert_eq!(lint_file(NEUTRAL, WEIGHTS_CLEAN), [], "clean twin");
}

#[test]
fn ffi_bad_is_caught_outside_the_binding_modules() {
    let bad = lint_file(NEUTRAL, FFI_BAD);
    assert_eq!(rules_of(&bad), ["ffi-confinement"], "{bad:?}");
    // Same source is legal in a designated binding module.
    assert_eq!(lint_file("crates/serve/src/net.rs", FFI_BAD), []);
    assert_eq!(lint_file("crates/data/src/source.rs", FFI_BAD), []);
    assert_eq!(lint_file(NEUTRAL, FFI_CLEAN), [], "clean twin");
}

#[test]
fn transport_bad_is_caught_outside_the_transport_module() {
    let bad = lint_file("crates/serve/src/router.rs", TRANSPORT_BAD);
    assert_eq!(
        rules_of(&bad),
        ["one-transport", "one-transport"],
        "import + bind: {bad:?}"
    );
    // Same source is legal in the transport module itself.
    assert_eq!(lint_file("crates/serve/src/http.rs", TRANSPORT_BAD), []);
    // Test modules may bind throwaway listeners.
    assert_eq!(lint_file(NEUTRAL, TRANSPORT_CLEAN), [], "clean twin");
}

#[test]
fn router_bad_is_caught_only_in_the_router() {
    let bad = lint_file("crates/serve/src/router.rs", ROUTER_BAD);
    assert_eq!(
        rules_of(&bad),
        ["one-transport", "one-transport", "one-transport"],
        "import + scoped thread + connect: {bad:?}"
    );
    assert_eq!(
        bad.iter().map(|d| d.line).collect::<Vec<_>>(),
        [4, 7, 10],
        "{bad:?}"
    );
    // The same source is no transport violation outside the router.
    assert_eq!(lint_file(NEUTRAL, ROUTER_BAD), []);
    // `ClientError`, a local named `thread`, and test modules: clean.
    assert_eq!(
        lint_file("crates/serve/src/router.rs", ROUTER_CLEAN),
        [],
        "clean twin"
    );
}

#[test]
fn http_reader_bad_is_caught_in_serve_and_bench_sources() {
    for path in [
        "crates/serve/src/client.rs",
        "crates/bench/src/bin/serve_rpc.rs",
    ] {
        let bad = lint_file(path, HTTP_READER_BAD);
        assert_eq!(
            rules_of(&bad),
            ["one-http-parser", "one-http-parser"],
            "method call + path call: {bad:?}"
        );
        assert_eq!(
            bad.iter().map(|d| d.line).collect::<Vec<_>>(),
            [9, 14],
            "{bad:?}"
        );
        // Comments, strings and test modules: clean.
        assert_eq!(lint_file(path, HTTP_READER_CLEAN), [], "clean twin");
    }
    // Line reading is no HTTP framing outside the two source trees.
    assert_eq!(
        lint_file("crates/data/src/svmlight.rs", HTTP_READER_BAD),
        []
    );
    assert_eq!(lint_file("crates/bench/benches/x.rs", HTTP_READER_BAD), []);
}

#[test]
fn panic_bad_is_caught_only_on_request_paths() {
    let bad = lint_file(REQUEST_PATH, PANIC_BAD);
    assert_eq!(
        rules_of(&bad),
        ["no-panic-paths", "no-panic-paths"],
        "unwrap + unreachable!: {bad:?}"
    );
    // The same panics are legal outside the serve request modules.
    assert_eq!(lint_file(NEUTRAL, PANIC_BAD), []);
    // Typed errors, asserts, allowed invariants, test modules: clean.
    assert_eq!(lint_file(REQUEST_PATH, PANIC_CLEAN), [], "clean twin");
}

#[test]
fn malformed_allows_diagnose_and_do_not_suppress() {
    let bad = lint_file(REQUEST_PATH, ALLOW_BAD);
    let allow_syntax = bad.iter().filter(|d| d.rule == "allow-syntax").count();
    let unsuppressed = bad.iter().filter(|d| d.rule == "no-panic-paths").count();
    assert_eq!(
        allow_syntax, 3,
        "missing reason, unknown rule, unallowable rule: {bad:?}"
    );
    assert_eq!(
        unsuppressed, 3,
        "a malformed allow suppresses nothing: {bad:?}"
    );
    assert_eq!(lint_file(REQUEST_PATH, ALLOW_CLEAN), [], "clean twin");
}

#[test]
fn wire_trio_in_sync_passes() {
    let d = check_wire_contract(
        "error.rs",
        WIRE_ERROR,
        "http.rs",
        WIRE_HTTP,
        "wire-v1.md",
        WIRE_DOC,
    );
    assert_eq!(d, [], "in-sync trio");
}

#[test]
fn wire_drift_is_caught_in_both_directions() {
    let d = check_wire_contract(
        "error.rs",
        WIRE_ERROR,
        "http.rs",
        WIRE_HTTP,
        "wire-v1.md",
        WIRE_DOC_DRIFT,
    );
    assert!(d.iter().all(|x| x.rule == "wire-doc-sync"), "{d:?}");
    // (503, overloaded) served but undocumented.
    assert!(
        d.iter()
            .any(|x| x.file == "error.rs" && x.message.contains("503")),
        "{d:?}"
    );
    // (500, overloaded) documented but never produced.
    assert!(
        d.iter()
            .any(|x| x.file == "wire-v1.md" && x.message.contains("500")),
        "{d:?}"
    );
    // GET /healthz routed but its doc section is gone.
    assert!(
        d.iter()
            .any(|x| x.file == "http.rs" && x.message.contains("/healthz")),
        "{d:?}"
    );
    assert_eq!(d.len(), 3, "{d:?}");
}

/// The acceptance gate: the workspace this crate ships in lints clean.
/// Reverting a SAFETY comment, re-introducing an unwrap on a request
/// path, or editing one row of docs/wire-v1.md fails this test (and
/// `slide-lint --check` in CI).
#[test]
fn workspace_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let diags = lint_workspace(&root).expect("walk workspace");
    assert!(
        diags.is_empty(),
        "workspace has lint violations:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
