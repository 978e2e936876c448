//! `taurus-xtask` — offline, dependency-free workspace lints.
//!
//! `cargo run -p taurus-xtask -- lint` runs seven source-level rules the
//! compiler cannot express, against the workspace this binary lives in:
//!
//! 1. **Panic discipline** — no `unwrap()` / `expect()` / `panic!` /
//!    `unreachable!` / `todo!` in the hot-path crates (executor,
//!    pagestore, sal, server, protocol). A panic on a serving thread
//!    takes the whole node down, so every residual site must carry a
//!    `// lint:allow(panic): <reason>` annotation on its own line or the
//!    line above. Test modules (`#[cfg(test)]`) are exempt.
//! 2. **Append-only wire tables** — the NDP bitcode opcodes, the wire
//!    frame opcodes, the query-request payload tags, and the wire error
//!    codes are published contracts.
//!    Each is parsed out of its source of truth and compared against a
//!    pinned manifest under `crates/xtask/manifests/`; renumbering or
//!    removing an entry fails, and adding one forces a deliberate
//!    manifest update in the same commit. A `N Name retired` line marks
//!    an entry taken out of service: its name may have no decode arm and
//!    no other entry may take `N`.
//! 3. **Metrics-name registry** — the `metrics_struct!` declaration list
//!    (the STATS scrape format) must match `manifests/metrics.txt` in
//!    order, with unique snake_case names.
//! 4. **Config-knob documentation, both ways** — every `TAURUS_*`
//!    environment variable referenced by non-test source must be
//!    documented in `DESIGN.md`, and every `TAURUS_<NAME>` that
//!    `DESIGN.md` documents must still be read by a Rust source, test or
//!    example (as a string literal) or set by `.github/workflows/ci.yml`,
//!    so a removed override cannot stay documented.
//! 5. **One panic-message helper** — a caught panic payload is read by
//!    `taurus_common::panic_message` and nowhere else:
//!    `downcast_ref::<&str>()` appears once, in that helper's file.
//! 6. **One expression engine at run time** — the record VM evaluates
//!    every expression a query runs; the tree-walker in
//!    `crates/expr/src/eval.rs` is the tests' oracle. Outside that file
//!    no non-test workspace source (`crates/*/src`, `src/`, `examples/`)
//!    names `eval_pred` or `eval::eval` (nor imports from `eval::{..}`).
//!    `#[cfg(test)]` items and test targets are exempt.
//! 7. **One byte codec** — the six formats that cross a tier (wire
//!    frames, redo records, replication payloads, the NDP descriptor's
//!    sections, IR bitcode, aggregate partials) are written and read
//!    through `taurus_common::codec`. The non-test code of their files
//!    names no `from_le_bytes`, `to_le_bytes` or `try_into().unwrap()`.
//!
//! `cargo run -p taurus-xtask -- loc` prints the non-test Rust lines
//! (lines outside `#[cfg(test)]` items, as rules 1, 5, 6 and 7 read them) of
//! each crate's `crates/<name>/src` and of `src/`, and their total.
//! `tests/`, `examples/` and `benchmark/` are not counted.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("lint");
    match cmd {
        "lint" => lint(),
        "loc" => loc(),
        other => {
            eprintln!("unknown command {other:?}; usage: taurus-xtask lint | loc");
            ExitCode::FAILURE
        }
    }
}

fn workspace_root() -> PathBuf {
    // crates/xtask/ -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels under the workspace root")
        .to_path_buf()
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let mut violations: Vec<String> = Vec::new();

    panic_discipline(&root, &mut violations);
    append_only_tables(&root, &mut violations);
    metrics_registry(&root, &mut violations);
    knob_docs(&root, &mut violations);
    panic_downcasts(&root, &mut violations);
    one_expression_engine(&root, &mut violations);
    one_byte_codec(&root, &mut violations);

    if violations.is_empty() {
        println!("taurus-xtask lint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("taurus-xtask lint: {} violation(s)", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        ExitCode::FAILURE
    }
}

/// Print [`loc_by_crate`] for the workspace, then the total.
fn loc() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    for dir in ["crates", "src"] {
        rust_files(&root.join(dir), &mut files);
    }
    let sources: Vec<(String, String)> = files
        .iter()
        .filter_map(|f| Some((rel(&root, f), fs::read_to_string(f).ok()?)))
        .collect();
    let counts = loc_by_crate(&sources);
    for (krate, n) in &counts {
        println!("{n:>7}  {krate}");
    }
    println!("{:>7}  total", counts.values().sum::<usize>());
    ExitCode::SUCCESS
}

/// Non-test lines per crate: a file under `crates/<name>/src/` counts
/// toward `crates/<name>`, one under `src/` toward `src`, and any other
/// (a crate's `tests/`, say) is not counted.
fn loc_by_crate(sources: &[(String, String)]) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for (file, text) in sources {
        let krate = match file.split('/').collect::<Vec<_>>()[..] {
            ["crates", name, "src", ..] => format!("crates/{name}"),
            ["src", ..] => "src".to_string(),
            _ => continue,
        };
        *out.entry(krate).or_insert(0) += non_test_lines(text).len();
    }
    out
}

// --- shared helpers ----------------------------------------------------------

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .display()
        .to_string()
}

/// Remove double-quoted string literals from a line (handling `\"`
/// escapes) so text inside messages never matches a code pattern.
fn strip_strings(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        match c {
            '\\' if in_str => {
                chars.next(); // skip the escaped char
            }
            '"' => in_str = !in_str,
            _ if in_str => {}
            _ => out.push(c),
        }
    }
    out
}

// --- rule 1: panic discipline ------------------------------------------------

const HOT_PATH_CRATES: &[&str] = &[
    "crates/executor",
    "crates/pagestore",
    "crates/sal",
    "crates/server",
    "crates/protocol",
];

const PANIC_PATTERNS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

const ALLOW_MARKER: &str = "lint:allow(panic):";

fn panic_discipline(root: &Path, violations: &mut Vec<String>) {
    for krate in HOT_PATH_CRATES {
        let mut files = Vec::new();
        rust_files(&root.join(krate).join("src"), &mut files);
        // Binary entry points (`src/bin/`) abort on startup failure by
        // design — the panic rule protects library serving code.
        files.retain(|f| !f.components().any(|c| c.as_os_str() == "bin"));
        files.sort();
        for file in files {
            let Ok(text) = fs::read_to_string(&file) else {
                violations.push(format!("{}: unreadable", rel(root, &file)));
                continue;
            };
            scan_panics(&text, &rel(root, &file), violations);
        }
    }
}

/// The lines of `text` outside `#[cfg(test)]` items, with their 0-based
/// line numbers. Test items (modules or single functions) are skipped by
/// brace tracking: from the attribute, everything up to the end of the
/// item it covers is test-only code.
fn non_test_lines(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut skip_depth: i32 = 0; // brace depth inside a #[cfg(test)] item
    let mut skipping = false;
    let mut pending_cfg_test = false;
    for (idx, raw) in text.lines().enumerate() {
        let trimmed = raw.trim_start();
        if !skipping && !pending_cfg_test && trimmed.starts_with("#[cfg(test)]") {
            pending_cfg_test = true;
            continue;
        }
        if pending_cfg_test || skipping {
            let code = strip_strings(raw);
            let code = code.split("//").next().unwrap_or("");
            let opens = code.matches('{').count() as i32;
            let closes = code.matches('}').count() as i32;
            if pending_cfg_test {
                if opens > 0 {
                    pending_cfg_test = false;
                    skipping = true;
                    skip_depth = opens - closes;
                    if skip_depth <= 0 {
                        skipping = false;
                    }
                } else if code.contains(';') {
                    // An attribute over a brace-less item (`mod tests;`,
                    // a use): ends at the semicolon.
                    pending_cfg_test = false;
                }
            } else {
                skip_depth += opens - closes;
                if skip_depth <= 0 {
                    skipping = false;
                }
            }
            continue;
        }
        out.push((idx, raw));
    }
    out
}

/// Scan one file's non-test lines for panics.
fn scan_panics(text: &str, file: &str, violations: &mut Vec<String>) {
    let mut prev_allow = false;
    for (idx, raw) in non_test_lines(text) {
        let trimmed = raw.trim_start();
        // Doc and plain comments cannot panic. An allow marker stays in
        // effect through the rest of a contiguous comment block, so the
        // reason may continue onto following `//` lines.
        if trimmed.starts_with("//") {
            if trimmed.contains(ALLOW_MARKER) && has_reason(trimmed) {
                prev_allow = true;
            }
            continue;
        }
        let stripped = strip_strings(raw);
        let (code, comment) = match stripped.find("//") {
            Some(p) => stripped.split_at(p),
            None => (stripped.as_str(), ""),
        };
        let allowed = prev_allow || (comment.contains(ALLOW_MARKER) && has_reason(comment));
        prev_allow = false;
        for pat in PANIC_PATTERNS {
            if code.contains(pat) {
                if allowed {
                    break;
                }
                violations.push(format!(
                    "{file}:{}: `{pat}` in hot-path crate without `// {ALLOW_MARKER} <reason>`",
                    idx + 1
                ));
                break;
            }
        }
    }
}

fn has_reason(comment: &str) -> bool {
    comment
        .split(ALLOW_MARKER)
        .nth(1)
        .is_some_and(|r| !r.trim().is_empty())
}

// --- rule 2: append-only tables ---------------------------------------------

fn append_only_tables(root: &Path, violations: &mut Vec<String>) {
    let src = |file: &str| root.join("crates").join(file);
    let tables = [
        // Wire error codes: `N => Error::Name(` arms of decode_error.
        (
            "errcodes.txt",
            "wire error code",
            parse_code_arms(&src("protocol/src/errcode.rs"), "=> Error::", violations),
        ),
        // Wire frame opcodes: `N => Opcode::Name,` arms of Opcode::from_u8.
        (
            "wire_opcodes.txt",
            "wire opcode",
            parse_code_arms(&src("protocol/src/message.rs"), "=> Opcode::", violations),
        ),
        // Query-request payload tags: `N => QueryRequest::Name` arms of
        // get_query (the Query frame's leading tag byte).
        (
            "query_tags.txt",
            "query request tag",
            parse_code_arms(
                &src("protocol/src/message.rs"),
                "=> QueryRequest::",
                violations,
            ),
        ),
        // NDP bitcode opcodes: `IrInstr::Name ... => { out.push(N);` pairs
        // in encode_instr.
        (
            "ir_opcodes.txt",
            "bitcode opcode",
            parse_ir_opcodes(&src("expr/src/ir.rs"), violations),
        ),
    ];
    for (manifest, what, parsed) in tables {
        let path = root.join("crates/xtask/manifests").join(manifest);
        match fs::read_to_string(&path) {
            Ok(text) => violations.extend(table_violations(manifest, what, &text, &parsed)),
            Err(_) => violations.push(format!("{}: unreadable manifest", path.display())),
        }
    }
}

/// Parse `<integer> <arrow-prefix><Name><non-ident>` arms anywhere in a
/// file, e.g. `4 => Error::Corruption(message),`.
fn parse_code_arms(path: &Path, arrow: &str, violations: &mut Vec<String>) -> Vec<(u32, String)> {
    let Ok(text) = fs::read_to_string(path) else {
        violations.push(format!("{}: unreadable", path.display()));
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in text.lines() {
        let trimmed = line.trim();
        let Some(pos) = trimmed.find(arrow) else {
            continue;
        };
        let Ok(code) = trimmed[..pos].trim().parse::<u32>() else {
            continue; // `_ =>` fallback or a reverse-direction arm
        };
        let name: String = trimmed[pos + arrow.len()..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty() {
            out.push((code, name));
        }
    }
    out
}

/// Parse the (variant, opcode byte) pairs out of `encode_instr`: the
/// variant is the last `IrInstr::Name` match arm seen, the opcode the
/// next integer-literal `out.push(N)`.
fn parse_ir_opcodes(path: &Path, violations: &mut Vec<String>) -> Vec<(u32, String)> {
    let Ok(text) = fs::read_to_string(path) else {
        violations.push(format!("{}: unreadable", path.display()));
        return Vec::new();
    };
    let Some(start) = text.find("fn encode_instr") else {
        violations.push(format!("{}: no encode_instr found", path.display()));
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut pending: Option<String> = None;
    let mut depth = 0i32;
    let mut entered = false;
    for line in text[start..].lines() {
        depth += line.matches('{').count() as i32 - line.matches('}').count() as i32;
        if depth > 0 {
            entered = true;
        } else if entered {
            break; // end of encode_instr
        }
        if let Some(pos) = line.find("IrInstr::") {
            let name: String = line[pos + "IrInstr::".len()..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                pending = Some(name);
            }
        }
        if let Some(pos) = line.find("out.push(") {
            let arg: String = line[pos + "out.push(".len()..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            if let (Ok(code), Some(name)) = (arg.parse::<u32>(), pending.take()) {
                out.push((code, name));
            }
        }
    }
    out
}

/// The violations of one pinned manifest `text` against the source's
/// `parsed` (code, name) arms. A `N Name` line pins a live entry; a
/// `N Name retired` line pins a retired one, whose name must have no
/// decode arm and whose code no other entry may take.
fn table_violations(
    manifest: &str,
    what: &str,
    text: &str,
    parsed: &[(u32, String)],
) -> Vec<String> {
    let mut out = Vec::new();
    let mut pinned: Vec<(u32, String)> = Vec::new();
    let mut retired: Vec<(u32, String)> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match (
            fields.first().and_then(|c| c.parse::<u32>().ok()),
            &fields[1..],
        ) {
            (Some(code), [name]) => pinned.push((code, name.to_string())),
            (Some(code), [name, "retired"]) => retired.push((code, name.to_string())),
            _ => out.push(format!("{manifest}: malformed line {line:?}")),
        }
    }
    if parsed.is_empty() {
        out.push(format!(
            "{manifest}: parsed no {what}s from source — parser broken?"
        ));
        return out;
    }
    for (code, name) in &pinned {
        match parsed.iter().find(|(_, n)| n == name) {
            None => out.push(format!(
                "{manifest}: pinned {what} {code} {name} removed from source (append-only table)"
            )),
            Some((c, _)) if c != code => out.push(format!(
                "{manifest}: {what} {name} renumbered {code} -> {c} (append-only table)"
            )),
            _ => {}
        }
    }
    for (code, name) in &retired {
        if parsed.iter().any(|(_, n)| n == name) {
            out.push(format!(
                "{manifest}: retired {what} {code} {name} has a decode arm again"
            ));
        }
        let mut others = pinned.iter().chain(parsed);
        if let Some((_, other)) = others.find(|(c, n)| c == code && n != name) {
            out.push(format!(
                "{manifest}: {what} {code} is retired ({name}) but reused by {other}"
            ));
        }
    }
    for (code, name) in parsed {
        let known = pinned.iter().chain(&retired).any(|(_, n)| n == name);
        if !known {
            out.push(format!(
                "{manifest}: source {what} {code} {name} not pinned — append it to the manifest"
            ));
        }
    }
    // Appended entries must extend the numbering, never recycle it.
    let mut sorted = parsed.to_vec();
    sorted.sort();
    for w in sorted.windows(2) {
        if w[0].0 == w[1].0 {
            out.push(format!(
                "{what} {} assigned twice: {} and {}",
                w[0].0, w[0].1, w[1].1
            ));
        }
    }
    out
}

// --- rule 3: metrics registry ------------------------------------------------

fn metrics_registry(root: &Path, violations: &mut Vec<String>) {
    let src = root.join("crates/common/src/metrics.rs");
    let Ok(text) = fs::read_to_string(&src) else {
        violations.push(format!("{}: unreadable", src.display()));
        return;
    };
    let Some(start) = text.find("metrics_struct! {") else {
        violations.push("metrics.rs: no metrics_struct! invocation found".into());
        return;
    };
    let mut names: Vec<String> = Vec::new();
    for line in text[start..].lines().skip(1) {
        let line = line.trim();
        if line == "}" {
            break;
        }
        if line.starts_with("//") || line.starts_with('#') || line.is_empty() {
            continue;
        }
        let name = line.trim_end_matches(',');
        if !name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            violations.push(format!(
                "metrics.rs: metric name {name:?} is not snake_case"
            ));
            continue;
        }
        names.push(name.to_string());
    }
    for (i, n) in names.iter().enumerate() {
        if names[..i].contains(n) {
            violations.push(format!("metrics.rs: duplicate metric name {n}"));
        }
    }
    let path = root.join("crates/xtask/manifests/metrics.txt");
    let Ok(manifest) = fs::read_to_string(&path) else {
        violations.push(format!("{}: unreadable manifest", path.display()));
        return;
    };
    let pinned: Vec<&str> = manifest
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    // The scrape format is positional: the pinned list must be a prefix
    // of the declaration order (append-only), and every declared name
    // must be pinned (forcing a deliberate manifest update).
    for (i, pin) in pinned.iter().enumerate() {
        match names.get(i) {
            Some(n) if n == pin => {}
            Some(n) => violations.push(format!(
                "metrics.txt: position {i} pinned {pin} but source declares {n} (append-only, order is the scrape format)"
            )),
            None => violations.push(format!("metrics.txt: pinned metric {pin} removed from source")),
        }
    }
    for n in names.iter().skip(pinned.len()) {
        violations.push(format!(
            "metrics.rs: new metric {n} not pinned — append it to manifests/metrics.txt"
        ));
    }
}

// --- rule 4: knob documentation ---------------------------------------------

fn knob_docs(root: &Path, violations: &mut Vec<String>) {
    let Ok(design) = fs::read_to_string(root.join("DESIGN.md")) else {
        violations.push("DESIGN.md: unreadable".into());
        return;
    };
    let Ok(entries) = fs::read_dir(root.join("crates")) else {
        violations.push("crates/: unreadable".into());
        return;
    };
    // Source files (forward rule) and every Rust file that may read an
    // override (reverse rule). The linter itself is in neither: its
    // fixtures mention the pattern.
    let mut src_files = Vec::new();
    let mut all_files = Vec::new();
    for entry in entries.flatten() {
        let dir = entry.path();
        if dir.file_name().is_some_and(|n| n == "xtask") {
            continue;
        }
        rust_files(&dir.join("src"), &mut src_files);
        rust_files(&dir, &mut all_files);
    }
    rust_files(&root.join("src"), &mut src_files);
    for dir in ["src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut all_files);
    }
    src_files.sort();
    let mut vars: Vec<(String, String)> = Vec::new();
    for file in &src_files {
        let Ok(text) = fs::read_to_string(file) else {
            continue;
        };
        for name in taurus_names(&text, true) {
            if !vars.iter().any(|(v, _)| *v == name) {
                vars.push((name, rel(root, file)));
            }
        }
    }
    for (var, file) in &vars {
        if !design.contains(var.as_str()) {
            violations.push(format!(
                "{var} (referenced in {file}) is not documented in DESIGN.md"
            ));
        }
    }
    let rust: String = all_files
        .iter()
        .filter_map(|f| fs::read_to_string(f).ok())
        .collect();
    let ci = fs::read_to_string(root.join(".github/workflows/ci.yml")).unwrap_or_default();
    violations.extend(stale_knob_docs(&design, &rust, &ci));
}

/// The distinct `TAURUS_<NAME>` tokens in `text`, in first-seen order.
/// With `quoted`, only a token that opens a string literal counts. A
/// token ending in `_` names a family (`TAURUS_FAULT_*`), not a variable.
fn taurus_names(text: &str, quoted: bool) -> Vec<String> {
    const PREFIX: &str = "TAURUS_";
    let pattern = if quoted { "\"TAURUS_" } else { PREFIX };
    let mut names: Vec<String> = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find(pattern) {
        rest = &rest[pos + pattern.len() - PREFIX.len()..];
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
            .collect();
        if name.len() > PREFIX.len() && !name.ends_with('_') && !names.contains(&name) {
            names.push(name);
        }
        rest = &rest[PREFIX.len()..];
    }
    names
}

/// The reverse of the knob rule: overrides `design` documents that no
/// string literal in `rust` reads and `ci` does not set.
fn stale_knob_docs(design: &str, rust: &str, ci: &str) -> Vec<String> {
    let read = taurus_names(rust, true);
    let set = taurus_names(ci, false);
    taurus_names(design, false)
        .into_iter()
        .filter(|name| !read.contains(name) && !set.contains(name))
        .map(|name| {
            format!("`{name}` is documented in DESIGN.md, but no Rust source, test or CI workflow uses it")
        })
        .collect()
}

// --- rule 5: one panic-message helper ---------------------------------------

/// How a panic payload's message is read; only the helper may do it.
const PANIC_DOWNCAST: &str = "downcast_ref::<&str>()";

/// The file of `taurus_common::panic_message`, the helper.
const PANIC_HELPER_FILE: &str = "crates/common/src/error.rs";

fn panic_downcasts(root: &Path, violations: &mut Vec<String>) {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    // The linter itself is exempt: it names the pattern.
    files.retain(|f| !f.starts_with(root.join("crates/xtask")));
    files.sort();
    let sources: Vec<(String, String)> = files
        .iter()
        .filter_map(|f| Some((rel(root, f), fs::read_to_string(f).ok()?)))
        .collect();
    violations.extend(stray_panic_downcasts(&sources));
}

/// Every `(file, text)` line that reads a panic payload outside the
/// helper, and any second copy inside the helper's file.
fn stray_panic_downcasts(sources: &[(String, String)]) -> Vec<String> {
    let mut out = Vec::new();
    for (file, text) in sources {
        let mut allowed = usize::from(file == PANIC_HELPER_FILE);
        for (idx, line) in text.lines().enumerate() {
            if !line.contains(PANIC_DOWNCAST) {
                continue;
            }
            if allowed > 0 {
                allowed -= 1;
                continue;
            }
            out.push(format!(
                "{file}:{}: `{PANIC_DOWNCAST}` outside `taurus_common::panic_message`; call the helper",
                idx + 1
            ));
        }
    }
    out
}

// --- rule 6: one expression engine at run time ------------------------------

/// What names the tree-walking interpreter: its entry points, or an
/// import list from its module.
const TREE_WALKER_CALLS: &[&str] = &["eval_pred", "eval::eval", "eval::{"];

/// The interpreter's own file.
const TREE_WALKER_FILE: &str = "crates/expr/src/eval.rs";

fn one_expression_engine(root: &Path, violations: &mut Vec<String>) {
    let mut files = Vec::new();
    for dir in ["crates", "src", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    // Test targets are exempt, and so is the linter: it names the calls.
    files.retain(|f| {
        let r = f.strip_prefix(root).unwrap_or(f);
        !r.starts_with("crates/xtask")
            && !r
                .components()
                .any(|c| c.as_os_str() == "tests" || c.as_os_str() == "benches")
    });
    files.sort();
    let sources: Vec<(String, String)> = files
        .iter()
        .filter_map(|f| Some((rel(root, f), fs::read_to_string(f).ok()?)))
        .collect();
    violations.extend(tree_walker_calls(&sources));
}

/// Every `(file, text)` non-test code line outside the interpreter's file
/// that names it.
fn tree_walker_calls(sources: &[(String, String)]) -> Vec<String> {
    let mut out = Vec::new();
    for (file, text) in sources {
        if file == TREE_WALKER_FILE {
            continue;
        }
        for (idx, raw) in non_test_lines(text) {
            let stripped = strip_strings(raw);
            let code = stripped.split("//").next().unwrap_or("");
            if let Some(pat) = TREE_WALKER_CALLS.iter().find(|p| code.contains(*p)) {
                out.push(format!(
                    "{file}:{}: `{pat}` outside `{TREE_WALKER_FILE}`: run expressions on the record VM (`CompiledPredicate`); the tree-walker is the tests' oracle",
                    idx + 1
                ));
            }
        }
    }
    out
}

// --- rule 7: one byte codec ---------------------------------------------------

/// The files of the formats that cross a tier.
const CODEC_FORMAT_FILES: &[&str] = &[
    "crates/protocol/src/message.rs",
    "crates/pagestore/src/redo.rs",
    "crates/core/src/replication.rs",
    "crates/expr/src/descriptor.rs",
    "crates/expr/src/ir.rs",
    "crates/expr/src/agg.rs",
];

/// What a hand-rolled codec reads or writes bytes with.
const HAND_ROLLED_CODEC: &[&str] = &["from_le_bytes", "to_le_bytes", "try_into().unwrap()"];

fn one_byte_codec(root: &Path, violations: &mut Vec<String>) {
    let mut sources = Vec::new();
    for file in CODEC_FORMAT_FILES {
        match fs::read_to_string(root.join(file)) {
            Ok(text) => sources.push((file.to_string(), text)),
            Err(_) => violations.push(format!("{file}: unreadable")),
        }
    }
    violations.extend(hand_rolled_codecs(&sources));
}

/// Every `(file, text)` non-test code line that converts bytes by hand.
fn hand_rolled_codecs(sources: &[(String, String)]) -> Vec<String> {
    let mut out = Vec::new();
    for (file, text) in sources {
        for (idx, raw) in non_test_lines(text) {
            let stripped = strip_strings(raw);
            let code = stripped.split("//").next().unwrap_or("");
            if let Some(pat) = HAND_ROLLED_CODEC.iter().find(|p| code.contains(*p)) {
                out.push(format!(
                    "{file}:{}: `{pat}` in a format's codec: write and read through `taurus_common::codec`",
                    idx + 1
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_stripper_removes_literal_content() {
        assert_eq!(strip_strings(r#"let x = "panic!"; y"#), "let x = ; y");
        assert_eq!(strip_strings(r#"f("a\"b.unwrap()"); g"#), "f(); g");
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let text = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn b() { y.unwrap(); }\n}\nfn c() { z.unwrap(); }\n";
        let mut v = Vec::new();
        scan_panics(text, "f.rs", &mut v);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("f.rs:1"));
        assert!(v[1].contains("f.rs:6"));
    }

    #[test]
    fn allow_annotation_needs_a_reason() {
        let mut v = Vec::new();
        scan_panics(
            "let a = b.unwrap(); // lint:allow(panic): checked above\n",
            "f.rs",
            &mut v,
        );
        assert!(v.is_empty(), "{v:?}");
        scan_panics(
            "let a = b.unwrap(); // lint:allow(panic):\n",
            "f.rs",
            &mut v,
        );
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn preceding_line_annotation_counts() {
        let text =
            "// lint:allow(panic): poisoned lock is unrecoverable\nlet g = m.lock().unwrap();\n";
        let mut v = Vec::new();
        scan_panics(text, "f.rs", &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn documented_knobs_must_still_be_read_or_set() {
        let design = "| `TAURUS_KEPT` | 1 |\n| `TAURUS_CI_ONLY` | 2 |\n\
                      | `TAURUS_GONE` | 3 |\nthe `TAURUS_FAULT_*` family, any `TAURUS_*` var";
        // Quoted through `q`, so this file holds no `TAURUS_*` literal.
        let rust = format!(
            "std::env::var({q}TAURUS_KEPT{q}); // TAURUS_GONE read here",
            q = '"'
        );
        let ci = "      TAURUS_CI_ONLY: ${{ matrix.ci_only }}\n";
        let v = stale_knob_docs(design, &rust, ci);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("`TAURUS_GONE`"), "{v:?}");
        let ci = "      TAURUS_GONE: 1\n      TAURUS_CI_ONLY: 2\n";
        assert!(stale_knob_docs(design, &rust, ci).is_empty());
    }

    #[test]
    fn retired_manifest_entries_stay_retired() {
        let manifest = "# header\n1 Named\n2 Builder retired\n3 Lookup\n";
        let check = |manifest: &str, arms: &[(u32, &str)]| {
            let parsed: Vec<(u32, String)> =
                arms.iter().map(|(c, n)| (*c, n.to_string())).collect();
            table_violations("t.txt", "tag", manifest, &parsed)
        };
        assert!(check(manifest, &[(1, "Named"), (3, "Lookup")]).is_empty());
        // The retired name comes back with a decode arm.
        let v = check(manifest, &[(1, "Named"), (2, "Builder"), (3, "Lookup")]);
        assert_eq!(v, ["t.txt: retired tag 2 Builder has a decode arm again"]);
        // A new entry takes the retired number, in source and manifest.
        let reused = format!("{manifest}2 Scan\n");
        let v = check(&reused, &[(1, "Named"), (2, "Scan"), (3, "Lookup")]);
        assert_eq!(v, ["t.txt: tag 2 is retired (Builder) but reused by Scan"]);
    }

    #[test]
    fn panic_payloads_are_read_by_the_helper_only() {
        let helper = format!(
            "pub fn panic_message(p: &(dyn Any + Send)) -> String {{\n    p.{PANIC_DOWNCAST}.map(|s| s.to_string())\n}}\n"
        );
        let copy =
            format!("let msg = panic\n    .{PANIC_DOWNCAST}\n    .map(|s| s.to_string());\n");
        let sources = vec![
            (PANIC_HELPER_FILE.to_string(), helper.clone()),
            ("crates/sal/src/lib.rs".to_string(), copy),
            (
                "crates/executor/src/stream.rs".to_string(),
                "panic_message(&*p)".into(),
            ),
        ];
        let v = stray_panic_downcasts(&sources);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("crates/sal/src/lib.rs:2:"), "{v:?}");
        // A second copy beside the helper is a copy all the same.
        let twice = vec![(PANIC_HELPER_FILE.to_string(), format!("{helper}{helper}"))];
        let v = stray_panic_downcasts(&twice);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("crates/common/src/error.rs:5:"), "{v:?}");
    }

    #[test]
    fn only_tests_run_the_tree_walker() {
        let exec = "use taurus_expr::eval::{eval, eval_pred};\n\
                    fn f() {}\n\
                    /// Same as `eval_pred` would give.\n\
                    fn g(e: &Expr, r: &[Value]) -> bool {\n\
                    \x20   taurus_expr::eval::eval_pred(e, r).is_ok()\n\
                    }\n\
                    #[cfg(test)]\n\
                    mod tests {\n\
                    \x20   fn oracle() { crate::eval::eval(e, r); }\n\
                    }\n";
        let sources = vec![
            ("crates/executor/src/exec.rs".to_string(), exec.to_string()),
            (
                TREE_WALKER_FILE.to_string(),
                "pub fn eval_pred() {}\n".to_string(),
            ),
        ];
        let v = tree_walker_calls(&sources);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].starts_with("crates/executor/src/exec.rs:1:"), "{v:?}");
        assert!(v[1].starts_with("crates/executor/src/exec.rs:5:"), "{v:?}");
    }

    #[test]
    fn loc_counts_non_test_lines_per_crate() {
        let lib = "fn a() {}\n\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n// end\n";
        let sources = [
            ("crates/sql/src/lib.rs", lib),
            ("crates/sql/src/bind/mod.rs", "fn b() {}\n"),
            ("crates/sql/tests/parity.rs", "fn c() {}\n"),
            ("src/lib.rs", "fn d() {}\n#[cfg(test)]\nfn e() {}\n"),
            ("examples/demo.rs", "fn main() {}\n"),
        ]
        .map(|(f, t)| (f.to_string(), t.to_string()));
        let counts = loc_by_crate(&sources);
        let want = [("crates/sql".to_string(), 4), ("src".to_string(), 1)];
        assert_eq!(counts, BTreeMap::from(want));
    }

    #[test]
    fn formats_read_and_write_through_the_codec() {
        let redo = "fn encode(out: &mut Vec<u8>) {\n\
                    \x20   out.extend_from_slice(&lsn.to_le_bytes());\n\
                    \x20   // from_le_bytes in a comment is fine\n\
                    \x20   let n = u32::from_le_bytes(b[..4].try_into().unwrap());\n\
                    }\n\
                    #[cfg(test)]\n\
                    mod tests {\n\
                    \x20   fn t() { let b = 7u32.to_le_bytes(); }\n\
                    }\n";
        let sources = vec![
            ("crates/pagestore/src/redo.rs".to_string(), redo.to_string()),
            (
                "crates/expr/src/ir.rs".to_string(),
                "let v = cur.u32()?; // not u32::from_le_bytes\n".to_string(),
            ),
        ];
        let v = hand_rolled_codecs(&sources);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].starts_with("crates/pagestore/src/redo.rs:2:"), "{v:?}");
        assert!(v[1].starts_with("crates/pagestore/src/redo.rs:4:"), "{v:?}");
    }

    #[test]
    fn the_workspace_is_lint_clean() {
        let root = workspace_root();
        let mut v = Vec::new();
        panic_discipline(&root, &mut v);
        append_only_tables(&root, &mut v);
        metrics_registry(&root, &mut v);
        knob_docs(&root, &mut v);
        panic_downcasts(&root, &mut v);
        one_expression_engine(&root, &mut v);
        one_byte_codec(&root, &mut v);
        assert!(v.is_empty(), "workspace lint violations:\n{}", v.join("\n"));
    }
}
