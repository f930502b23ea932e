//! The per-file rule passes and the `lint:allow` escape hatch.
//!
//! Each rule has a stable ID (the string CI output and allow comments
//! use), a one-line summary, and a token-level check. File paths are
//! matched by workspace-relative suffix with `/` separators, so the
//! linter behaves identically whatever directory it is invoked from.
//!
//! # The escape hatch
//!
//! ```text
//! // lint:allow(rule-id): why this site is exempt
//! ```
//!
//! An allow comment suppresses that rule on its own line (trailing
//! form) or on the next line carrying code (standalone form). The
//! reason is mandatory and the rule ID must exist — a malformed allow
//! is itself a diagnostic (`allow-syntax`), so a typo can never
//! silently disable a rule. A directive is a plain `//` comment whose
//! text *starts with* `lint:allow`; doc comments (`///`, `//!`) and
//! prose mentions are documentation, never directives. The cross-file
//! `wire-doc-sync` rule cannot be allowed inline: contract drift has
//! no per-site justification.

use crate::lexer::{lex, Token, TokenKind};

/// One finding: a rule violated at a file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule ID (e.g. `unsafe-needs-safety`).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Rule IDs and what they enforce, in reporting order. The table is
/// the normative list: `--list-rules` prints it, allow comments are
/// validated against it, and ARCHITECTURE.md mirrors it.
pub const RULES: &[(&str, &str)] = &[
    (
        "unsafe-needs-safety",
        "every `unsafe` block/fn/impl carries an adjacent `// SAFETY:` comment \
         (or a `# Safety` doc section for `unsafe fn`)",
    ),
    (
        "hogwild-confinement",
        "`&[AtomicU32]` weight-row access (`as_atomics`/`atomic_slice`/the slice \
         type itself) only inside crates/core/src/hogwild.rs and \
         crates/kernels/src/fused.rs — the two modules that define the bit-level \
         HOGWILD slice protocol",
    ),
    (
        "weight-writes-mark",
        "no cell write (`set`/`copy_from`/`add_racy`/`add_cas`) on a chain rooted \
         at `.weights()` outside crates/core/src/layer.rs and \
         crates/core/src/hogwild.rs: `Layer`'s own writers flag the unit for the \
         next table build, a raw cell write would leave its row's buckets stale",
    ),
    (
        "ffi-confinement",
        "`extern \"C\"` declarations only in crates/serve/src/net.rs and \
         crates/data/src/source.rs, the designated OS-binding modules",
    ),
    (
        "one-transport",
        "`TcpListener` outside `#[cfg(test)]` only in crates/serve/src/http.rs, \
         the one event-loop transport every server (single box or router) runs on; \
         outside tests crates/serve/src/router.rs names neither the blocking `Client` \
         nor a `thread::` path, since its fan-out runs on that transport's event loop",
    ),
    (
        "no-panic-paths",
        "no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` \
         in serve request-handling modules (batch/http/conn/engine/wire/router), \
         where a panic costs a whole drain or event loop, or in the snapshot \
         decoder, which runs on the reload watcher and at shard start-up",
    ),
    (
        "wire-doc-sync",
        "the ServeError status/code table and the endpoint list in \
         docs/wire-v1.md match crates/serve/src/error.rs and http.rs exactly",
    ),
    (
        "allow-syntax",
        "every `lint:allow` names a real rule and gives a nonempty reason",
    ),
];

/// Files where the HOGWILD atomic row surface may be named.
const HOGWILD_FILES: &[&str] = &["crates/core/src/hogwild.rs", "crates/kernels/src/fused.rs"];

/// Files where weight cells may be written through `.weights()`: the
/// layer, whose writers flag each written unit for the next table
/// build, and the cell type itself.
const WEIGHT_WRITE_FILES: &[&str] = &["crates/core/src/layer.rs", "crates/core/src/hogwild.rs"];

/// The HOGWILD cell methods that store.
const CELL_WRITES: &[&str] = &["set", "copy_from", "add_racy", "add_cas"];

/// Files where `extern "C"` declarations may appear.
const FFI_FILES: &[&str] = &["crates/serve/src/net.rs", "crates/data/src/source.rs"];

/// Files where a `TcpListener` may be bound outside tests.
const TRANSPORT_FILES: &[&str] = &["crates/serve/src/http.rs"];

/// Files whose network I/O runs on the transport's event loop: outside
/// tests they may not name the blocking `Client` or a thread API.
const EVENT_LOOP_FILES: &[&str] = &["crates/serve/src/router.rs"];

/// Modules where panicking is an outage: the serve request path (a
/// whole drain) and the snapshot decoder (the reload watcher thread and
/// shard start-up).
const PANIC_FREE_FILES: &[&str] = &[
    "crates/serve/src/batch.rs",
    "crates/serve/src/http.rs",
    "crates/serve/src/conn.rs",
    "crates/serve/src/engine.rs",
    "crates/serve/src/wire.rs",
    "crates/serve/src/router.rs",
    "crates/core/src/snapshot.rs",
];

/// Identifiers whose call panics on the unhappy path.
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// Macros that unconditionally panic when reached.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn known_rule(id: &str) -> bool {
    RULES.iter().any(|(r, _)| *r == id)
}

fn path_is(path: &str, candidates: &[&str]) -> bool {
    candidates
        .iter()
        .any(|c| path == *c || path.ends_with(&format!("/{c}")))
}

/// Pre-computed per-line facts the rules share.
struct FileMap {
    /// Lines (1-based, dense) that contain at least one non-comment token.
    has_code: Vec<bool>,
    /// Concatenated comment text per line; a block comment contributes
    /// its full text to every line it spans.
    comments: Vec<String>,
    /// Lines whose first code token is `#` (attribute lines).
    attr_start: Vec<bool>,
    /// First line of the file's `#[cfg(test)]` region, if any. Test
    /// modules sit at the bottom of every file in this workspace, so
    /// everything from here down is exempt from `no-panic-paths` and
    /// `one-transport`.
    cfg_test_line: Option<usize>,
}

impl FileMap {
    fn build(src: &str, tokens: &[Token]) -> Self {
        let nlines = src.lines().count() + 2;
        let mut has_code = vec![false; nlines + 1];
        let mut comments = vec![String::new(); nlines + 1];
        let mut attr_start = vec![false; nlines + 1];
        let mut first_code_token_on_line: Vec<Option<usize>> = vec![None; nlines + 1];

        for (i, t) in tokens.iter().enumerate() {
            if t.line >= nlines {
                continue;
            }
            let span = t.line..=t.end_line.min(nlines);
            match &t.kind {
                TokenKind::Comment(text) => {
                    for c in &mut comments[span] {
                        c.push_str(text);
                        c.push('\n');
                    }
                }
                _ => {
                    has_code[span].fill(true);
                    if first_code_token_on_line[t.line].is_none() {
                        first_code_token_on_line[t.line] = Some(i);
                    }
                }
            }
        }
        for l in 1..=nlines {
            if let Some(i) = first_code_token_on_line[l] {
                attr_start[l] = tokens[i].kind == TokenKind::Punct('#');
            }
        }

        // First `#[cfg(test)]` or `#[cfg(all(test, …))]` attribute.
        let cfg_test_line = tokens
            .windows(7)
            .find(|w| {
                w[0].kind == TokenKind::Punct('#')
                    && w[1].kind == TokenKind::Punct('[')
                    && w[2].ident() == Some("cfg")
                    && w[3].kind == TokenKind::Punct('(')
                    && match w[4].ident() {
                        Some("test") => w[5].kind == TokenKind::Punct(')'),
                        Some("all") => {
                            w[5].kind == TokenKind::Punct('(') && w[6].ident() == Some("test")
                        }
                        _ => false,
                    }
            })
            .map(|w| w[0].line);

        Self {
            has_code,
            comments,
            attr_start,
            cfg_test_line,
        }
    }

    fn comment_at(&self, line: usize) -> &str {
        self.comments.get(line).map(String::as_str).unwrap_or("")
    }

    fn in_test_region(&self, line: usize) -> bool {
        self.cfg_test_line.is_some_and(|t| line >= t)
    }
}

/// Parsed `lint:allow` comments: (rule, line the allow applies to).
struct Allows {
    entries: Vec<(String, usize)>,
}

impl Allows {
    /// Scans for directive comments — a plain `//` comment whose text
    /// starts with `lint:allow(rule): reason` — attaching each to its
    /// own line (trailing form) or the next code line (standalone
    /// form). Malformed directives become `allow-syntax` diagnostics.
    /// Doc comments never parse as directives, so documentation *about*
    /// the allow syntax (this very file) cannot disable anything.
    fn collect(path: &str, tokens: &[Token], map: &FileMap, diags: &mut Vec<Diagnostic>) -> Allows {
        let mut entries = Vec::new();
        for t in tokens {
            let Some(rest) = t.comment().and_then(directive_text) else {
                continue;
            };
            let Some(rest) = rest.strip_prefix("lint:allow") else {
                continue;
            };
            let mut bad = |message: String| {
                diags.push(Diagnostic {
                    rule: "allow-syntax",
                    file: path.to_string(),
                    line: t.line,
                    message,
                })
            };
            let Some(open) = rest.find('(') else {
                bad("lint:allow missing `(rule-id)`".into());
                continue;
            };
            let Some(close) = rest[open..].find(')') else {
                bad("lint:allow missing closing `)`".into());
                continue;
            };
            let rule = rest[open + 1..open + close].trim().to_string();
            let after = &rest[open + close + 1..];
            if !known_rule(&rule) || rule == "allow-syntax" || rule == "wire-doc-sync" {
                bad(format!(
                    "lint:allow names `{rule}`, which is not an allowable rule"
                ));
                continue;
            }
            let reason_ok = after
                .trim_start()
                .strip_prefix(':')
                .is_some_and(|r| !r.trim().is_empty());
            if !reason_ok {
                bad(format!(
                    "lint:allow({rule}) needs a reason: `// lint:allow({rule}): why`"
                ));
                continue;
            }
            // Trailing form covers its own line; standalone form
            // covers the next line that has code.
            let mut target = t.line;
            if !map.has_code.get(t.line).copied().unwrap_or(false) {
                let mut l = t.end_line + 1;
                while l < map.has_code.len() && !map.has_code[l] {
                    l += 1;
                }
                target = l;
            }
            entries.push((rule, target));
        }
        Allows { entries }
    }

    fn allowed(&self, rule: &str, line: usize) -> bool {
        self.entries.iter().any(|(r, l)| r == rule && *l == line)
    }
}

/// The directive-bearing text of a comment, if it can carry one: a
/// plain `//` or `/* */` comment (not `///`, `//!`, `/**`, `/*!` doc
/// forms), with the delimiters and leading whitespace stripped.
fn directive_text(comment: &str) -> Option<&str> {
    if let Some(rest) = comment.strip_prefix("//") {
        if rest.starts_with('/') || rest.starts_with('!') {
            return None;
        }
        return Some(rest.trim_start());
    }
    if let Some(rest) = comment.strip_prefix("/*") {
        if rest.starts_with('*') || rest.starts_with('!') {
            return None;
        }
        return Some(rest.trim_start());
    }
    None
}

/// Runs every per-file rule over one source file. `path` is the
/// workspace-relative path with `/` separators; rules that only apply
/// to designated files key off it.
pub fn lint_file(path: &str, src: &str) -> Vec<Diagnostic> {
    let tokens = lex(src);
    let map = FileMap::build(src, &tokens);
    let mut diags = Vec::new();
    let allows = Allows::collect(path, &tokens, &map, &mut diags);

    unsafe_needs_safety(path, &tokens, &map, &mut diags);
    hogwild_confinement(path, &tokens, &mut diags);
    weight_writes_mark(path, &tokens, &mut diags);
    ffi_confinement(path, &tokens, &mut diags);
    one_transport(path, &tokens, &map, &mut diags);
    no_panic_paths(path, &tokens, &map, &mut diags);

    diags.retain(|d| d.rule == "allow-syntax" || !allows.allowed(d.rule, d.line));
    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags
}

/// Rule `unsafe-needs-safety`: each `unsafe` token must have a
/// justification comment adjacent — `SAFETY:` in a comment on the same
/// line or in the contiguous run of comment/attribute lines directly
/// above, or a `# Safety` doc section in that run (the convention for
/// `unsafe fn` signatures). A blank line or a line of other code
/// breaks adjacency: a stale comment three screens up justifies
/// nothing.
fn unsafe_needs_safety(path: &str, tokens: &[Token], map: &FileMap, diags: &mut Vec<Diagnostic>) {
    for t in tokens {
        if t.ident() != Some("unsafe") {
            continue;
        }
        let mut justified = has_safety_text(map.comment_at(t.line));
        let mut l = t.line;
        while !justified && l > 1 {
            l -= 1;
            let comment = map.comment_at(l);
            let skippable = !map.has_code.get(l).copied().unwrap_or(false) && !comment.is_empty()
                || map.attr_start.get(l).copied().unwrap_or(false);
            if !skippable {
                break;
            }
            justified = has_safety_text(comment);
        }
        if !justified {
            diags.push(Diagnostic {
                rule: "unsafe-needs-safety",
                file: path.to_string(),
                line: t.line,
                message: "`unsafe` without an adjacent `// SAFETY:` comment \
                          (or `# Safety` doc section) stating the proof obligation"
                    .into(),
            });
        }
    }
}

fn has_safety_text(comment: &str) -> bool {
    comment.contains("SAFETY:") || comment.contains("# Safety")
}

/// Rule `hogwild-confinement`: outside the two protocol-defining
/// modules, naming the atomic weight-row surface — the accessors
/// `as_atomics`/`atomic_slice` or the row type `[AtomicU32]` — is a
/// violation. Call sites elsewhere receive rows opaquely and hand them
/// to the fused kernels; the moment other code spells the type out, it
/// can start issuing its own loads and stores around the documented
/// bit-level slice protocol.
fn hogwild_confinement(path: &str, tokens: &[Token], diags: &mut Vec<Diagnostic>) {
    if path_is(path, HOGWILD_FILES) {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        match t.ident() {
            Some(name @ ("as_atomics" | "atomic_slice")) => diags.push(Diagnostic {
                rule: "hogwild-confinement",
                file: path.to_string(),
                line: t.line,
                message: format!(
                    "`{name}` exposes raw HOGWILD weight cells; only \
                     crates/core/src/hogwild.rs and crates/kernels/src/fused.rs \
                     may touch the atomic row surface"
                ),
            }),
            Some("AtomicU32") => {
                // Only the *slice* form is the weight-row type; a bare
                // AtomicU32 counter is ordinary concurrency.
                let before = i.checked_sub(1).and_then(|j| tokens.get(j));
                let after = tokens.get(i + 1);
                let slice_form = matches!(before.map(|t| &t.kind), Some(TokenKind::Punct('[')))
                    && matches!(after.map(|t| &t.kind), Some(TokenKind::Punct(']')));
                if slice_form {
                    diags.push(Diagnostic {
                        rule: "hogwild-confinement",
                        file: path.to_string(),
                        line: t.line,
                        message: "`[AtomicU32]` is the HOGWILD weight-row type; handle \
                                  rows opaquely and let hogwild.rs/fused.rs own the \
                                  slice protocol"
                            .into(),
                    });
                }
            }
            _ => {}
        }
    }
}

/// Rule `weight-writes-mark`: a method chain hanging off `.weights()`
/// (`layer.weights().set(..)`, `layer.weights().flat().add_racy(..)`)
/// may not end in a cell write outside [`WEIGHT_WRITE_FILES`]. A table
/// build rehashes only the units flagged since the last build, and
/// only `Layer`'s writers (`set_weight`, `set_units`, the update
/// sweeps) set the flag: a raw write would leave its row in stale
/// buckets. Reads along such chains are fine. Token-level, so a
/// `.weights()` bound to a local first is not followed.
fn weight_writes_mark(path: &str, tokens: &[Token], diags: &mut Vec<Diagnostic>) {
    if path_is(path, WEIGHT_WRITE_FILES) {
        return;
    }
    let punct = |i: usize, c: char| tokens.get(i).is_some_and(|t| t.kind == TokenKind::Punct(c));
    for i in 0..tokens.len() {
        if !(punct(i, '.')
            && tokens.get(i + 1).and_then(Token::ident) == Some("weights")
            && punct(i + 2, '(')
            && punct(i + 3, ')'))
        {
            continue;
        }
        // Walk the chain of `.name(args)` calls.
        let mut p = i + 4;
        while punct(p, '.') && punct(p + 2, '(') {
            let Some(name) = tokens[p + 1].ident() else {
                break;
            };
            if CELL_WRITES.contains(&name) {
                diags.push(Diagnostic {
                    rule: "weight-writes-mark",
                    file: path.to_string(),
                    line: tokens[p + 1].line,
                    message: format!(
                        "`.weights()...{name}(..)` writes weight cells without \
                         flagging the unit for the next table build; use \
                         `Layer::set_weight` or `Layer::set_units`"
                    ),
                });
                break;
            }
            // Step past the call's balanced parentheses.
            let mut depth = 0usize;
            p += 2;
            loop {
                match tokens.get(p).map(|t| &t.kind) {
                    Some(TokenKind::Punct('(')) => depth += 1,
                    Some(TokenKind::Punct(')')) => depth -= 1,
                    None => return,
                    _ => {}
                }
                p += 1;
                if depth == 0 {
                    break;
                }
            }
        }
    }
}

/// Rule `ffi-confinement`: `extern "C"` only in the designated
/// OS-binding modules. Everything else must go through their safe
/// wrappers, so the audit surface for raw syscalls stays two files.
fn ffi_confinement(path: &str, tokens: &[Token], diags: &mut Vec<Diagnostic>) {
    if path_is(path, FFI_FILES) {
        return;
    }
    for w in tokens.windows(2) {
        if w[0].ident() == Some("extern") && matches!(&w[1].kind, TokenKind::Str(s) if s == "C") {
            diags.push(Diagnostic {
                rule: "ffi-confinement",
                file: path.to_string(),
                line: w[0].line,
                message: "`extern \"C\"` outside the designated binding modules \
                          (crates/serve/src/net.rs, crates/data/src/source.rs); \
                          add the binding there behind a safe wrapper"
                    .into(),
            });
        }
    }
}

/// Rule `one-transport`: `TcpListener` only in the event-loop transport
/// module. A listener elsewhere is a second HTTP stack, with its own
/// parser, limits and timeouts drifting from the one clients were
/// promised; tests may still bind throwaway listeners. The router's
/// outbound side is held to the same loop: naming the blocking `Client`
/// or a `thread::` path (`std::thread::spawn`, `thread::scope`) there
/// would bring back a thread per fan-out.
fn one_transport(path: &str, tokens: &[Token], map: &FileMap, diags: &mut Vec<Diagnostic>) {
    let transport = path_is(path, TRANSPORT_FILES);
    let on_loop = path_is(path, EVENT_LOOP_FILES);
    let path_sep = |t: Option<&Token>| t.is_some_and(|t| t.kind == TokenKind::PathSep);
    for (i, t) in tokens.iter().enumerate() {
        if map.in_test_region(t.line) {
            continue;
        }
        let message = match t.ident() {
            Some("TcpListener") if !transport => {
                "`TcpListener` outside crates/serve/src/http.rs; serve \
                 through its event-loop transport as another back-end \
                 instead of a second HTTP stack"
            }
            Some("Client") if on_loop => {
                "the blocking `Client` in the router; shard requests go \
                 over the event loop's nonblocking shard links"
            }
            Some("thread")
                if on_loop
                    && (path_sep(tokens.get(i + 1))
                        || path_sep(i.checked_sub(1).and_then(|j| tokens.get(j)))) =>
            {
                "a `thread::` path in the router; fan-outs run on the \
                 transport's event loop, not on threads of their own"
            }
            _ => continue,
        };
        diags.push(Diagnostic {
            rule: "one-transport",
            file: path.to_string(),
            line: t.line,
            message: message.into(),
        });
    }
}

/// Rule `no-panic-paths`: in [`PANIC_FREE_FILES`], panicking
/// constructs are banned outside the trailing `#[cfg(test)]` module.
/// A panic on a request path unwinds a worker drain or an event loop —
/// every other request sharing it pays; one in the snapshot decoder
/// kills the reload watcher. `assert!`/`debug_assert!` are
/// deliberately exempt: they encode programmer-error invariants, not
/// unhappy-path handling, and removing them would hide bugs.
fn no_panic_paths(path: &str, tokens: &[Token], map: &FileMap, diags: &mut Vec<Diagnostic>) {
    if !path_is(path, PANIC_FREE_FILES) {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if map.in_test_region(t.line) {
            continue;
        }
        let next = tokens.get(i + 1).map(|t| &t.kind);
        if PANIC_METHODS.contains(&name) && matches!(next, Some(TokenKind::Punct('('))) {
            // `.unwrap(` / `Option::unwrap(` — a call, not a mere name.
            let prev = i
                .checked_sub(1)
                .and_then(|j| tokens.get(j))
                .map(|t| &t.kind);
            if matches!(prev, Some(TokenKind::Punct('.')) | Some(TokenKind::PathSep)) {
                diags.push(Diagnostic {
                    rule: "no-panic-paths",
                    file: path.to_string(),
                    line: t.line,
                    message: format!(
                        "`{name}()` in a panic-free module; return a typed \
                         error instead (or `lint:allow` with the invariant)"
                    ),
                });
            }
        } else if PANIC_MACROS.contains(&name) && matches!(next, Some(TokenKind::Punct('!'))) {
            diags.push(Diagnostic {
                rule: "no-panic-paths",
                file: path.to_string(),
                line: t.line,
                message: format!(
                    "`{name}!` in a panic-free module; a panic here costs a \
                     whole drain or the reload watcher — return a typed error \
                     (or `lint:allow` with the invariant)"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        let mut v: Vec<_> = lint_file(path, src).into_iter().map(|d| d.rule).collect();
        v.dedup();
        v
    }

    #[test]
    fn safety_comment_forms_accepted() {
        let ok = [
            "// SAFETY: ptr is valid.\nlet x = unsafe { *p };",
            "let x = unsafe { *p }; // SAFETY: ptr is valid.",
            "/// # Safety\n///\n/// Caller must own p.\npub unsafe fn f(p: *const u8) {}",
            // attributes between the doc and the fn are fine
            "/// # Safety\n/// Requires AVX2.\n#[inline]\n#[target_feature(enable = \"avx2\")]\nunsafe fn g() {}",
            // multi-line SAFETY comment run
            "// SAFETY: ids validated above;\n// AVX2 presence checked.\nunsafe { h() }",
        ];
        for src in ok {
            assert_eq!(
                rules_hit("crates/x/src/a.rs", src),
                Vec::<&str>::new(),
                "{src}"
            );
        }
    }

    #[test]
    fn bare_unsafe_flagged() {
        let bad = [
            "let x = unsafe { *p };",
            "pub unsafe fn f() {}",
            "unsafe impl Send for T {}",
            // blank line breaks adjacency
            "// SAFETY: stale.\n\nlet x = unsafe { *p };",
            // intervening code breaks adjacency
            "// SAFETY: for the first one.\nlet a = unsafe { *p };\nlet b = unsafe { *q };",
        ];
        for src in bad {
            assert!(
                rules_hit("crates/x/src/a.rs", src).contains(&"unsafe-needs-safety"),
                "{src}"
            );
        }
    }

    #[test]
    fn unsafe_in_strings_and_comments_ignored() {
        let src = r###"
// this comment says unsafe but is not code
let s = "unsafe { }";
let r = r#"unsafe fn f()"#;
"###;
        assert_eq!(rules_hit("crates/x/src/a.rs", src), Vec::<&str>::new());
    }

    #[test]
    fn hogwild_surface_confined() {
        let src = "fn f(m: &M) { let a = m.flat().as_atomics(); }";
        assert_eq!(
            rules_hit("crates/core/src/layer.rs", src),
            ["hogwild-confinement"]
        );
        // …but the protocol modules themselves may.
        assert_eq!(
            rules_hit("crates/core/src/hogwild.rs", src),
            Vec::<&str>::new()
        );
        assert_eq!(
            rules_hit("crates/kernels/src/fused.rs", src),
            Vec::<&str>::new()
        );
        // naming the slice type elsewhere is the same leak
        let ty = "fn g(row: &[AtomicU32]) {}";
        assert_eq!(
            rules_hit("crates/serve/src/engine.rs", ty),
            ["hogwild-confinement"]
        );
        // a scalar AtomicU32 counter is not a weight row
        let counter = "struct S { level: AtomicU32 }";
        assert_eq!(
            rules_hit("crates/serve/src/lib.rs", counter),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn weight_writes_flagged_along_the_chain() {
        for src in [
            "fn f(l: &Layer) { l.weights().set(1, 2, 0.5); }",
            "fn f(n: &Network) { n.layers()[1].weights().flat().add_racy(g(3), 0.5); }",
            "fn f(l: &Layer) { l\n    .weights()\n    .flat()\n    .copy_from(&v); }",
        ] {
            assert_eq!(
                rules_hit("crates/core/src/network.rs", src),
                ["weight-writes-mark"],
                "{src}"
            );
            assert_eq!(
                rules_hit("crates/core/src/layer.rs", src),
                Vec::<&str>::new()
            );
        }
        for src in [
            "fn f(l: &Layer) -> f32 { l.weights().get(1, 2) }",
            "fn f(l: &Layer) { l.weights().read_row_into(0, &mut r); l.biases().set(0, 1.0); }",
            "fn f(w: &M) { w.weights.set(0, 0, 1.0); weights().set(0, 0, 1.0); }",
        ] {
            assert_eq!(
                rules_hit("crates/core/src/network.rs", src),
                Vec::<&str>::new(),
                "{src}"
            );
        }
    }

    #[test]
    fn ffi_confined() {
        let src = "extern \"C\" { fn close(fd: i32) -> i32; }";
        assert_eq!(
            rules_hit("crates/core/src/layer.rs", src),
            ["ffi-confinement"]
        );
        assert_eq!(
            rules_hit("crates/serve/src/net.rs", src),
            Vec::<&str>::new()
        );
        assert_eq!(
            rules_hit("crates/data/src/source.rs", src),
            Vec::<&str>::new()
        );
        // `extern "C"` fn-pointer types count too — same audit surface.
        let fnptr = "type Cb = extern \"C\" fn(i32);";
        assert_eq!(
            rules_hit("crates/lsh/src/table.rs", fnptr),
            ["ffi-confinement"]
        );
        // mentions in comments and strings do not
        let doc = "//! goes through an `extern \"C\"` binding\nlet s = \"extern \\\"C\\\"\";";
        assert_eq!(
            rules_hit("crates/lsh/src/table.rs", doc),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn panic_paths_flagged_only_in_serve_request_modules() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(
            rules_hit("crates/serve/src/http.rs", src),
            ["no-panic-paths"]
        );
        assert_eq!(
            rules_hit("crates/serve/src/conn.rs", src),
            ["no-panic-paths"]
        );
        // not a request-path module
        assert_eq!(
            rules_hit("crates/serve/src/client.rs", src),
            Vec::<&str>::new()
        );
        assert_eq!(
            rules_hit("crates/core/src/layer.rs", src),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn panic_macros_flagged_and_asserts_exempt() {
        let src = "fn f() { if bad() { panic!(\"no\"); } assert!(ok()); }";
        let d = lint_file("crates/serve/src/wire.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-panic-paths");
        for m in ["unreachable!()", "todo!()", "unimplemented!()"] {
            let src = format!("fn f() {{ {m} }}");
            assert_eq!(
                rules_hit("crates/serve/src/batch.rs", &src),
                ["no-panic-paths"]
            );
        }
    }

    #[test]
    fn test_region_exempt_from_panic_rule() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { x().unwrap(); panic!(\"in tests\"); }\n}";
        assert_eq!(
            rules_hit("crates/serve/src/http.rs", src),
            Vec::<&str>::new()
        );
        // A platform-gated test module is a test region too.
        let gated = "fn f() {}\n#[cfg(all(test, unix))]\nmod tests {\n  use std::net::TcpListener;\n  fn t() { x().unwrap(); }\n}";
        assert_eq!(
            rules_hit("crates/serve/src/http.rs", gated),
            Vec::<&str>::new()
        );
        assert_eq!(
            rules_hit("crates/serve/src/net.rs", gated),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn ident_match_does_not_false_positive() {
        // `unwrap` as a field/name, not a call; `expect` without `(`.
        let src = "struct S { unwrap: u32 }\nfn g(s: S) -> u32 { s.unwrap }";
        assert_eq!(
            rules_hit("crates/serve/src/http.rs", src),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn allow_suppresses_with_reason() {
        let trailing =
            "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lint:allow(no-panic-paths): startup only, before serving begins";
        assert_eq!(
            rules_hit("crates/serve/src/http.rs", trailing),
            Vec::<&str>::new()
        );
        let standalone = "// lint:allow(no-panic-paths): poisoned lock means a worker panicked holding it; abort is intended\nfn f(m: &M) -> u32 { m.lock().unwrap() }";
        assert_eq!(
            rules_hit("crates/serve/src/batch.rs", standalone),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn allow_is_rule_scoped_and_line_scoped() {
        // Allowing one rule does not blanket the line for others…
        let src = "// lint:allow(no-panic-paths): x\nlet a = unsafe { p.unwrap() };";
        assert_eq!(
            rules_hit("crates/serve/src/http.rs", src),
            ["unsafe-needs-safety"]
        );
        // …and an allow does not leak past its target line.
        let src2 = "// lint:allow(no-panic-paths): only the first\na.unwrap();\nb.unwrap();";
        let d = lint_file("crates/serve/src/http.rs", src2);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn doc_comments_and_prose_are_not_directives() {
        // Documentation *about* the escape hatch (including this
        // linter's own sources) must neither allow nor diagnose.
        for src in [
            "//! Suppress with `// lint:allow(<rule>): <reason>`.\nfn f() {}",
            "/// Parsed `lint:allow` comments: (rule, line).\nstruct A;",
            "// see the lint:allow docs for details\nfn f() {}",
            "/** lint:allow(made-up) in a doc block */\nfn f() {}",
        ] {
            assert_eq!(
                rules_hit("crates/x/src/a.rs", src),
                Vec::<&str>::new(),
                "{src}"
            );
        }
        // …and a doc comment cannot suppress a real finding.
        let src = "/// lint:allow(no-panic-paths): not a directive\nfn f() { x.unwrap(); }";
        assert_eq!(
            rules_hit("crates/serve/src/http.rs", src),
            ["no-panic-paths"]
        );
    }

    #[test]
    fn malformed_allows_are_diagnostics() {
        for src in [
            "// lint:allow(no-such-rule): reason\nfn f() {}",
            "// lint:allow(no-panic-paths)\nfn f() { x.unwrap(); }",
            "// lint:allow(no-panic-paths):   \nfn f() { x.unwrap(); }",
            "// lint:allow(wire-doc-sync): drift is never site-justifiable\nfn f() {}",
            "// lint:allow(allow-syntax): cannot allow the allower\nfn f() {}",
        ] {
            assert!(
                rules_hit("crates/serve/src/http.rs", src).contains(&"allow-syntax"),
                "{src}"
            );
        }
    }
}
