//! The seven project-specific rules. Each is a pure function from a
//! [`SourceFile`] to diagnostics; scoping (which crates a rule applies
//! to) lives here too, derived from the workspace-relative path.
//!
//! The rules encode invariants the compiler cannot see — see
//! `docs/ARCHITECTURE.md` § "Invariants & static analysis" for the
//! rationale behind each:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `unsafe-needs-safety` | every `unsafe` carries a `// SAFETY:` contract |
//! | `no-panic-hot-path` | serving hot paths (`server`, `engine`) never panic |
//! | `lock-order` | catalog ≺ plan cache ≺ cursor table |
//! | `wire-encoder-discipline` | protocol bytes originate only in the shared encoder |
//! | `shim-purity` | shims import no anyk code; core stays socket-free |
//! | `no-boxed-dyn-error` | library crates keep typed errors end-to-end |
//! | `timing-discipline` | raw wall clocks live only in `crates/obs` |

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{Tok, Token};
use crate::source::SourceFile;

/// Every rule id, in documentation order. `LINT-ALLOW` comments may
/// only name these.
pub const RULE_IDS: [&str; 7] = [
    "unsafe-needs-safety",
    "no-panic-hot-path",
    "lock-order",
    "wire-encoder-discipline",
    "shim-purity",
    "no-boxed-dyn-error",
    "timing-discipline",
];

/// The library crates whose non-test code must stay deterministic
/// (no clocks, no sockets) and keep typed errors.
const LIBRARY_CRATES: [&str; 7] = [
    "storage",
    "query",
    "join",
    "topk",
    "core",
    "workloads",
    "engine",
];

/// Where a file sits in the workspace, derived from its relative path.
struct Scope<'a> {
    path: &'a str,
    file_name: &'a str,
}

impl<'a> Scope<'a> {
    fn of(file: &'a SourceFile) -> Scope<'a> {
        let path = file.path.as_str();
        let file_name = path.rsplit('/').next().unwrap_or(path);
        Scope { path, file_name }
    }

    /// Inside `crates/<name>/src/`.
    fn in_crate_src(&self, name: &str) -> bool {
        let prefix = format!("crates/{name}/src/");
        self.path.starts_with(&prefix)
    }

    /// Inside any `crates/shims/*/src/`.
    fn in_shims(&self) -> bool {
        self.path.starts_with("crates/shims/")
    }

    /// The root facade (`src/lib.rs` and friends).
    fn in_root_src(&self) -> bool {
        self.path.starts_with("src/")
    }

    /// Non-test code of a deterministic library crate (or the facade).
    fn in_library(&self) -> bool {
        self.in_root_src() || LIBRARY_CRATES.iter().any(|c| self.in_crate_src(c))
    }
}

/// Run every applicable rule over `file`; suppressions are applied by
/// the caller ([`crate::lint_source`]).
pub fn run_all(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    unsafe_needs_safety(file, &mut out);
    no_panic_hot_path(file, &mut out);
    lock_order(file, &mut out);
    wire_encoder_discipline(file, &mut out);
    shim_purity(file, &mut out);
    no_boxed_dyn_error(file, &mut out);
    timing_discipline(file, &mut out);
    out
}

fn diag(
    file: &SourceFile,
    t: &Token,
    severity: Severity,
    rule: &'static str,
    message: String,
) -> Diagnostic {
    Diagnostic {
        file: file.path.clone(),
        line: t.line,
        col: t.col,
        severity,
        rule,
        message,
    }
}

fn ident(t: &Token) -> Option<&str> {
    match &t.kind {
        Tok::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

fn is_punct(t: Option<&Token>, c: char) -> bool {
    matches!(t, Some(t) if t.kind == Tok::Punct(c))
}

// ---------------------------------------------------------------
// Rule 1: unsafe-needs-safety
// ---------------------------------------------------------------

/// Every `unsafe` keyword (block, fn, impl, trait) outside test code
/// must have a contiguous line-comment block directly above containing
/// `SAFETY:`. Applies workspace-wide — today only
/// `crates/shims/polling` has any `unsafe` at all, and this rule keeps
/// it that way by making new `unsafe` expensive to add silently.
fn unsafe_needs_safety(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for t in file.tokens() {
        if ident(t) != Some("unsafe") || file.is_test_line(t.line) {
            continue;
        }
        let above = file.comment_block_ending_at(t.line.saturating_sub(1));
        if !above.contains("SAFETY:") {
            out.push(diag(
                file,
                t,
                Severity::Error,
                "unsafe-needs-safety",
                "`unsafe` without a `// SAFETY:` comment directly above \
                 stating the contract that makes it sound"
                    .to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------
// Rule 2: no-panic-hot-path
// ---------------------------------------------------------------

/// Panic sites a lexical scan can see: `.unwrap(` / `.expect(` method
/// calls and the panicking macros.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Non-test code of `crates/server` and `crates/engine` must not
/// contain `unwrap`/`expect`/`panic!`/`unreachable!` — a poisoned lock
/// or a surprising `None` on the serving path must become a typed
/// error (or poison recovery), never a worker-thread abort.
fn no_panic_hot_path(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let scope = Scope::of(file);
    if !(scope.in_crate_src("server") || scope.in_crate_src("engine")) {
        return;
    }
    let toks = file.tokens();
    for (i, t) in toks.iter().enumerate() {
        let Some(name) = ident(t) else { continue };
        if file.is_test_line(t.line) {
            continue;
        }
        let flagged = if PANIC_MACROS.contains(&name) {
            is_punct(toks.get(i + 1), '!')
        } else if name == "unwrap" || name == "expect" {
            i > 0 && is_punct(toks.get(i - 1), '.') && is_punct(toks.get(i + 1), '(')
        } else {
            false
        };
        if flagged {
            out.push(diag(
                file,
                t,
                Severity::Error,
                "no-panic-hot-path",
                format!(
                    "`{name}` on a serving hot path — return a typed error or \
                     recover (poisoned locks: `unwrap_or_else(PoisonError::into_inner)`)"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------
// Rule 3: lock-order
// ---------------------------------------------------------------

/// The documented canonical order (outermost first). Receiver-name
/// aliases map to one position; acquiring a smaller position while a
/// larger one is held is a potential deadlock.
fn lock_position(name: &str) -> Option<(usize, &'static str)> {
    match name {
        "catalog" => Some((0, "catalog RwLock")),
        "cache" => Some((1, "plan-cache mutex")),
        "cursors" => Some((2, "cursor table")),
        _ => None,
    }
}

#[derive(Debug)]
struct LiveGuard {
    binding: String,
    lock_name: String,
    position: Option<(usize, &'static str)>,
    depth: usize,
    line: u32,
}

/// Heuristic guard-scope tracking over `crates/server` +
/// `crates/engine`: a `let g = <recv>.lock()/.read()/.write()` guard
/// is live until its enclosing block closes; while any guard is live,
/// acquiring a known lock out of the documented order
/// (catalog ≺ cache ≺ cursor table) or re-acquiring
/// the same lock is an error, and any other nested `.lock()` is a
/// warning
/// (the cross-function cases this lexical pass cannot prove safe).
/// `.read()`/`.write()` count only with an empty argument list and a
/// known RwLock receiver, so socket `read(&mut buf)` calls never
/// match.
fn lock_order(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let scope = Scope::of(file);
    if !(scope.in_crate_src("server") || scope.in_crate_src("engine")) {
        return;
    }
    let toks = file.tokens();
    let mut depth = 0usize;
    let mut guards: Vec<LiveGuard> = Vec::new();
    // The current statement's `let` binding, if any.
    let mut stmt_let: Option<String> = None;
    let mut stmt_start = true;

    for (i, t) in toks.iter().enumerate() {
        match &t.kind {
            Tok::Punct('{') => {
                depth += 1;
                stmt_start = true;
                stmt_let = None;
            }
            Tok::Punct('}') => {
                guards.retain(|g| g.depth < depth);
                depth = depth.saturating_sub(1);
                stmt_start = true;
                stmt_let = None;
            }
            Tok::Punct(';') => {
                stmt_start = true;
                stmt_let = None;
            }
            Tok::Ident(name) if stmt_start && name == "let" => {
                // Binding name: first ident after `let` (skipping
                // `mut`); destructuring patterns get a placeholder.
                let mut j = i + 1;
                if toks.get(j).and_then(ident) == Some("mut") {
                    j += 1;
                }
                stmt_let = Some(
                    toks.get(j)
                        .and_then(ident)
                        .unwrap_or("<pattern>")
                        .to_string(),
                );
                stmt_start = false;
            }
            Tok::Ident(method)
                if (method == "lock" || method == "read" || method == "write")
                    && i > 0
                    && is_punct(toks.get(i - 1), '.')
                    && is_punct(toks.get(i + 1), '(')
                    && is_punct(toks.get(i + 2), ')') =>
            {
                if file.is_test_line(t.line) {
                    stmt_start = false;
                    continue;
                }
                // Receiver: the identifier before the `.`.
                let recv = i
                    .checked_sub(2)
                    .and_then(|r| toks.get(r))
                    .and_then(ident)
                    .unwrap_or("?");
                let position = lock_position(recv);
                // `.read()`/`.write()` only count on known RwLocks.
                if method != "lock" && position.is_none() {
                    stmt_start = false;
                    continue;
                }
                for g in &guards {
                    match (position, g.position) {
                        (Some((new_pos, new_label)), Some((held_pos, held_label))) => {
                            if new_pos <= held_pos {
                                out.push(diag(
                                    file,
                                    t,
                                    Severity::Error,
                                    "lock-order",
                                    format!(
                                        "acquiring the {new_label} while guard `{}` holds the \
                                         {held_label} (line {}) violates the documented order \
                                         catalog \u{227a} cache \u{227a} cursor table",
                                        g.binding, g.line
                                    ),
                                ));
                            }
                        }
                        _ => {
                            out.push(diag(
                                file,
                                t,
                                Severity::Warning,
                                "lock-order",
                                format!(
                                    "`.{method}()` on `{recv}` while guard `{}` (of `{}`, \
                                     line {}) is live in the same function — release the \
                                     guard first or document why this cannot deadlock",
                                    g.binding, g.lock_name, g.line
                                ),
                            ));
                        }
                    }
                }
                // Only a `let` whose chain *ends* with the acquisition
                // (modulo unwrap/expect adapters) binds a guard —
                // `let v = m.lock().unwrap().recv();` binds the recv
                // result, and the guard temporary dies with the
                // statement.
                if let Some(binding) = stmt_let.take() {
                    if chain_ends_statement(toks, i + 2) {
                        guards.push(LiveGuard {
                            binding,
                            lock_name: recv.to_string(),
                            position,
                            depth,
                            line: t.line,
                        });
                    }
                }
                stmt_start = false;
            }
            _ => {
                stmt_start = false;
            }
        }
    }
}

/// Result adapters that keep the value a guard when chained after an
/// acquisition (`.lock().unwrap_or_else(PoisonError::into_inner)`).
const GUARD_ADAPTERS: [&str; 4] = ["unwrap", "expect", "unwrap_or_else", "unwrap_or"];

/// With `close` the index of the `)` ending an acquisition call: true
/// when the rest of the statement is only guard adapters and then `;`
/// (or `?;`) — i.e. the `let` really binds the guard.
fn chain_ends_statement(toks: &[Token], close: usize) -> bool {
    let mut j = close;
    loop {
        match toks.get(j + 1).map(|t| &t.kind) {
            Some(Tok::Punct(';')) => return true,
            Some(Tok::Punct('?')) => j += 1,
            Some(Tok::Punct('.')) => {
                let Some(name) = toks.get(j + 2).and_then(ident) else {
                    return false;
                };
                if !GUARD_ADAPTERS.contains(&name) || !is_punct(toks.get(j + 3), '(') {
                    return false;
                }
                // Skip the adapter's balanced argument list.
                let mut depth = 0i32;
                j += 3;
                while let Some(t) = toks.get(j) {
                    match t.kind {
                        Tok::Punct('(') => depth += 1,
                        Tok::Punct(')') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            _ => return false,
        }
    }
}

// ---------------------------------------------------------------
// Rule 4: wire-encoder-discipline
// ---------------------------------------------------------------

/// Files allowed to spell protocol literals: the shared encoders.
const ENCODER_FILES: [&str; 2] = ["wire.rs", "frame.rs"];
/// Files allowed to call socket-write methods: encoders + transports.
const TRANSPORT_FILES: [&str; 4] = ["wire.rs", "frame.rs", "tcp.rs", "event_loop.rs"];

/// True when a string literal's content opens with a protocol keyword
/// (`OK`, `ERR`, `END`, `ROW`, `INFO`) as a full word — exact, or
/// followed by a space or an (unprocessed) `\n` escape.
fn is_protocol_literal(s: &str) -> bool {
    ["OK", "ERR", "END", "ROW", "INFO"].iter().any(|kw| {
        s == *kw
            || s.strip_prefix(kw)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with("\\n"))
    })
}

/// Within `crates/server`, protocol literals may only appear in the
/// shared encoder (`wire.rs` + `frame.rs`), and socket-write calls
/// only in the encoder + transport files — so no code path can ever
/// hand-format reply bytes, which is what keeps `TcpClient` ==
/// `LocalClient` byte-identical *by construction* rather than by test.
fn wire_encoder_discipline(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let scope = Scope::of(file);
    if !scope.in_crate_src("server") {
        return;
    }
    let literals_ok = ENCODER_FILES.contains(&scope.file_name);
    let writes_ok = TRANSPORT_FILES.contains(&scope.file_name);
    let toks = file.tokens();
    for (i, t) in toks.iter().enumerate() {
        if file.is_test_line(t.line) {
            continue;
        }
        if !literals_ok {
            if let Tok::Str(s) = &t.kind {
                if is_protocol_literal(s) {
                    out.push(diag(
                        file,
                        t,
                        Severity::Error,
                        "wire-encoder-discipline",
                        format!(
                            "protocol literal {:?} outside wire.rs/frame.rs — route reply \
                             bytes through the shared encoder (byte-identity contract)",
                            s
                        ),
                    ));
                }
            }
        }
        if !writes_ok {
            if let Some(name) = ident(t) {
                if (name == "write" || name == "write_all" || name == "write_vectored")
                    && i > 0
                    && is_punct(toks.get(i - 1), '.')
                    && is_punct(toks.get(i + 1), '(')
                    && !is_punct(toks.get(i + 2), ')')
                {
                    out.push(diag(
                        file,
                        t,
                        Severity::Error,
                        "wire-encoder-discipline",
                        format!(
                            "`.{name}(...)` outside the transport/encoder files — only \
                             tcp.rs/event_loop.rs may write sockets, with bytes from the \
                             shared encoder"
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------
// Rule 5: shim-purity
// ---------------------------------------------------------------

/// Two directions: `crates/shims/*` must not reference anyk crates
/// (shims mirror *external* APIs; a shim that imports the workspace
/// inverts the dependency arrow), and the deterministic library
/// crates must not touch sockets (`std::net`) — those belong to
/// crates/server, keeping core/engine testable and replayable. (Wall
/// clocks were this rule's concern too until `timing-discipline`
/// tightened the clock invariant workspace-wide.)
fn shim_purity(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let scope = Scope::of(file);
    let toks = file.tokens();
    if scope.in_shims() {
        for t in toks {
            if file.is_test_line(t.line) {
                continue;
            }
            if let Some(name) = ident(t) {
                if name == "anyk" || name.starts_with("anyk_") {
                    out.push(diag(
                        file,
                        t,
                        Severity::Error,
                        "shim-purity",
                        format!(
                            "shim references workspace crate `{name}` — shims mirror \
                             external APIs and must not depend on anyk code"
                        ),
                    ));
                }
            }
        }
        return;
    }
    if !scope.in_library() {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if file.is_test_line(t.line) {
            continue;
        }
        let Some(name) = ident(t) else { continue };
        let path_to = |want: &str| -> bool {
            is_punct(toks.get(i + 1), ':')
                && is_punct(toks.get(i + 2), ':')
                && toks.get(i + 3).and_then(ident) == Some(want)
        };
        if name == "std" && path_to("net") {
            out.push(diag(
                file,
                t,
                Severity::Error,
                "shim-purity",
                "`std::net` in a deterministic library crate — sockets live in \
                 crates/server (transports) only"
                    .to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------
// Rule 6: no-boxed-dyn-error
// ---------------------------------------------------------------

/// Library crates (and the server) keep typed errors end-to-end:
/// `Box<dyn Error>` erases the failure taxonomy PR 1 built
/// (`EngineError`, `ServeError`, ...) and makes the wire's `ERR
/// <kind>` tag a lie. Flags `Box<dyn … Error>` / `… Error + Send>` in
/// non-test code.
fn no_boxed_dyn_error(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let scope = Scope::of(file);
    if !(scope.in_library() || scope.in_crate_src("server")) {
        return;
    }
    let toks = file.tokens();
    for (i, t) in toks.iter().enumerate() {
        if ident(t) != Some("Box") || file.is_test_line(t.line) {
            continue;
        }
        if !is_punct(toks.get(i + 1), '<') || toks.get(i + 2).and_then(ident) != Some("dyn") {
            continue;
        }
        // Scan the angle-bracket span at depth 1 for a path segment
        // `Error` that ends the trait object (followed by `>` or `+`).
        let mut depth = 1i32;
        let mut j = i + 2;
        while depth > 0 {
            j += 1;
            let Some(tj) = toks.get(j) else { break };
            match &tj.kind {
                Tok::Punct('<') => depth += 1,
                Tok::Punct('>') => depth -= 1,
                Tok::Punct(';') | Tok::Punct('{') => break,
                Tok::Ident(s)
                    if s == "Error"
                        && depth == 1
                        && (is_punct(toks.get(j + 1), '>') || is_punct(toks.get(j + 1), '+')) =>
                {
                    out.push(diag(
                        file,
                        t,
                        Severity::Error,
                        "no-boxed-dyn-error",
                        "`Box<dyn Error>` in a library crate — use the crate's typed \
                         error enum so failures stay matchable end-to-end"
                            .to_string(),
                    ));
                    break;
                }
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------
// Rule 7: timing-discipline
// ---------------------------------------------------------------

/// Raw wall clocks — `Instant::now()` / `SystemTime::now()` — are
/// permitted only inside `crates/obs`, the one crate whose job is
/// reading clocks (its `MonotonicClock` is the workspace's sole
/// `Instant::now` site). Everything else — engine, server, even this
/// linter — must go through an injected [`Clock`](anyk_obs::Clock), so
/// tests run on a deterministic clock and timing behavior is
/// replayable.
fn timing_discipline(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let scope = Scope::of(file);
    if scope.in_crate_src("obs") {
        return;
    }
    let toks = file.tokens();
    for (i, t) in toks.iter().enumerate() {
        if file.is_test_line(t.line) {
            continue;
        }
        let Some(name) = ident(t) else { continue };
        if name != "Instant" && name != "SystemTime" {
            continue;
        }
        let calls_now = is_punct(toks.get(i + 1), ':')
            && is_punct(toks.get(i + 2), ':')
            && toks.get(i + 3).and_then(ident) == Some("now");
        if calls_now {
            out.push(diag(
                file,
                t,
                Severity::Error,
                "timing-discipline",
                format!(
                    "`{name}::now()` outside crates/obs — read time through an \
                     injected `anyk_obs::Clock` so timing stays deterministic under \
                     test"
                ),
            ));
        }
    }
}
