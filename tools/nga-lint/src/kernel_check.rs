//! R4 `kernel-consistency`: cross-file structural checks tying the
//! kernels crate together.
//!
//! * Every `impl <Trait> for T` of the configured op trait in the kernels
//!   crate must be named by one of the configured dispatch functions (the
//!   tier entry points) and exercised by the equivalence-test suite.
//!   Tuple and reference targets such as `(&A, &A)` count as their first
//!   named type.
//! * The per-format LUT cache arrays must have one slot per `Format8`
//!   variant (and match the `ALL` constant's declared length).
//! * LUT entry counts must equal `(1 << code_bits)²` — the exhaustive
//!   table size implied by the 8-bit format width.

use std::collections::BTreeSet;
use std::path::Path;

use crate::config::RulePolicy;
use crate::lexer::{int_value, lex, Lexed, Tok, TokKind};
use crate::report::Finding;
use crate::rules::KERNEL_CONSISTENCY;

fn is_punct(t: Option<&Tok>, c: u8) -> bool {
    matches!(t, Some(tok) if tok.kind == TokKind::Punct(c))
}

fn is_ident(t: Option<&Tok>, name: &str) -> bool {
    matches!(t, Some(tok) if tok.kind == TokKind::Ident && tok.text == name)
}

fn finding(path: &str, line: usize, message: String) -> Finding {
    Finding {
        rule: KERNEL_CONSISTENCY,
        path: path.to_string(),
        line,
        message,
    }
}

fn read_lexed(root: &Path, rel: &str, out: &mut Vec<Finding>) -> Option<Lexed> {
    match std::fs::read_to_string(root.join(rel)) {
        Ok(src) => Some(lex(&src)),
        Err(e) => {
            out.push(finding(rel, 0, format!("cannot read configured file: {e}")));
            None
        }
    }
}

/// `impl <Trait> for T` occurrences: `(type name, line)`. For a compound
/// target (`(&A, &B)`, `&mut A`, `[A; N]`) the name is its first type
/// identifier.
fn kernel_impls(lexed: &Lexed, trait_name: &str) -> Vec<(String, usize)> {
    let toks = &lexed.toks;
    let mut found = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !is_ident(toks.get(i), "impl") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // Skip generic parameters: `impl<T: …>`.
        if is_punct(toks.get(j), b'<') {
            let mut depth = 0usize;
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Punct(b'<') => depth += 1,
                    TokKind::Punct(b'>') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if is_ident(toks.get(j), trait_name) && is_ident(toks.get(j + 1), "for") {
            let target = toks[j + 2..]
                .iter()
                .take_while(|t| t.kind != TokKind::Punct(b'{'))
                .find(|t| t.kind == TokKind::Ident && !matches!(t.text.as_str(), "mut" | "dyn"));
            if let Some(t) = target {
                found.push((t.text.clone(), t.line));
            }
        }
        i = j + 1;
    }
    found
}

/// The set of identifiers in the signature and body of `fn <name>`.
fn fn_idents(lexed: &Lexed, name: &str) -> Option<BTreeSet<String>> {
    let toks = &lexed.toks;
    let start = toks
        .iter()
        .enumerate()
        .find(|(i, t)| is_ident(Some(t), "fn") && is_ident(toks.get(i + 1), name))
        .map(|(i, _)| i)?;
    let mut depth = 0usize;
    let mut idents = BTreeSet::new();
    for t in &toks[start + 2..] {
        match &t.kind {
            TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b'}') => {
                depth -= 1;
                if depth == 0 {
                    return Some(idents);
                }
            }
            // A bodiless declaration (`fn f(…);`) ends at its semicolon.
            TokKind::Punct(b';') if depth == 0 => return Some(idents),
            TokKind::Ident => {
                idents.insert(t.text.clone());
            }
            _ => {}
        }
    }
    Some(idents)
}

/// Counts the variants of `enum <name> { … }`.
fn enum_variant_count(lexed: &Lexed, name: &str) -> Option<usize> {
    let toks = &lexed.toks;
    let start = toks
        .iter()
        .enumerate()
        .find(|(i, t)| is_ident(Some(t), "enum") && is_ident(toks.get(i + 1), name))
        .map(|(i, _)| i)?;
    let mut depth = 0usize;
    let mut count = 0usize;
    for (k, t) in toks.iter().enumerate().skip(start) {
        match t.kind {
            TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b'}') => {
                if depth == 1 {
                    return Some(count);
                }
                depth -= 1;
            }
            TokKind::Ident if depth == 1 => {
                let prev = toks.get(k.wrapping_sub(1));
                if is_punct(prev, b'{') || is_punct(prev, b',') {
                    count += 1;
                }
            }
            _ => {}
        }
    }
    None
}

/// The declared length of `ALL: [Self; N]`.
fn all_len(lexed: &Lexed) -> Option<(usize, u128)> {
    let toks = &lexed.toks;
    toks.iter().enumerate().find_map(|(i, t)| {
        if is_ident(Some(t), "ALL")
            && is_punct(toks.get(i + 1), b':')
            && is_punct(toks.get(i + 2), b'[')
            && is_ident(toks.get(i + 3), "Self")
            && is_punct(toks.get(i + 4), b';')
        {
            let n = toks.get(i + 5)?;
            Some((n.line, int_value(&n.text)?))
        } else {
            None
        }
    })
}

/// Array-length literals for `[<elem>; N]` where `elem` is an identifier
/// in `elems`: returns `(line, N)` per occurrence.
fn sized_arrays(lexed: &Lexed, elems: &[&str]) -> Vec<(usize, String, u128)> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Punct(b'[') {
            continue;
        }
        let Some(e) = toks.get(i + 1) else { continue };
        if e.kind != TokKind::Ident || !elems.contains(&e.text.as_str()) {
            continue;
        }
        // `[u8; N]` directly, or `[OnceLock<T>; N]` with a generic hop.
        let mut j = i + 2;
        if is_punct(toks.get(j), b'<') {
            let mut depth = 0usize;
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Punct(b'<') => depth += 1,
                    TokKind::Punct(b'>') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if !is_punct(toks.get(j), b';') {
            continue;
        }
        let Some(n) = toks.get(j + 1) else { continue };
        if let Some(v) = int_value(&n.text) {
            out.push((n.line, e.text.clone(), v));
        }
    }
    out
}

/// Runs the whole R4 suite as configured by `[rules.kernel-consistency]`.
pub fn run(root: &Path, policy: &RulePolicy, out: &mut Vec<Finding>) {
    let Some(kernels_src) = policy.string("kernels_src") else {
        return; // rule not configured
    };
    let dispatch_file = policy.string("dispatch_file").unwrap_or_default();
    // One dispatch function, or a list of tier entry points.
    let dispatch_fns: Vec<&str> = match policy.string("dispatch_fn") {
        Some(f) => vec![f],
        None => policy
            .list("dispatch_fn")
            .iter()
            .map(String::as_str)
            .collect(),
    };
    let trait_name = policy.string("kernel_trait").unwrap_or("Kernel");
    let equivalence = policy.string("equivalence_tests").unwrap_or_default();
    let code_bits = policy.int("code_bits").unwrap_or(8) as u32;

    // 1. Collect `impl <Trait> for T` across the kernels crate sources.
    let mut impls: Vec<(String, String, usize)> = Vec::new();
    let mut files: Vec<String> = Vec::new();
    collect_rs_files(root, kernels_src, &mut files);
    files.sort();
    for rel in &files {
        if let Some(lexed) = read_lexed(root, rel, out) {
            for (name, line) in kernel_impls(&lexed, trait_name) {
                impls.push((name, rel.clone(), line));
            }
        }
    }
    if impls.is_empty() {
        out.push(finding(
            kernels_src,
            0,
            format!("no `impl {trait_name} for …` found in the kernels crate"),
        ));
    }

    // 2. Each impl must be named by a dispatch function…
    if dispatch_fns.is_empty() {
        out.push(finding(
            dispatch_file,
            0,
            "no `dispatch_fn` configured".to_string(),
        ));
    }
    if let Some(lexed) = read_lexed(root, dispatch_file, out) {
        let mut named = BTreeSet::new();
        for f in &dispatch_fns {
            match fn_idents(&lexed, f) {
                Some(idents) => named.extend(idents),
                None => out.push(finding(
                    dispatch_file,
                    0,
                    format!("dispatch function `fn {f}` not found"),
                )),
            }
        }
        let registry = dispatch_fns
            .iter()
            .map(|f| format!("`{f}()`"))
            .collect::<Vec<_>>()
            .join(", ");
        for (name, rel, line) in &impls {
            if !named.contains(name) {
                out.push(finding(
                    rel,
                    *line,
                    format!(
                        "`{name}` implements `{trait_name}` but is not registered in \
                         {registry} ({dispatch_file})"
                    ),
                ));
            }
        }
    }

    // 3. …and exercised by the equivalence-test suite.
    if let Some(lexed) = read_lexed(root, equivalence, out) {
        let idents: BTreeSet<&str> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        for (name, rel, line) in &impls {
            if !idents.contains(name.as_str()) {
                out.push(finding(
                    rel,
                    *line,
                    format!(
                        "`{name}` implements `{trait_name}` but never appears in the \
                         equivalence tests ({equivalence})"
                    ),
                ));
            }
        }
    }

    // 4. LUT cache arrays sized to the format enum; table sizes match
    //    the code width.
    let enum_file = policy.string("format_enum_file").unwrap_or_default();
    let enum_name = policy.string("format_enum").unwrap_or("Format8");
    let table_file = policy.string("table_file").unwrap_or_default();
    let mut nvariants = None;
    if let Some(lexed) = read_lexed(root, enum_file, out) {
        nvariants = enum_variant_count(&lexed, enum_name);
        match (nvariants, all_len(&lexed)) {
            (None, _) => out.push(finding(
                enum_file,
                0,
                format!("enum `{enum_name}` not found"),
            )),
            (Some(n), Some((line, len))) if len != n as u128 => out.push(finding(
                enum_file,
                line,
                format!("`{enum_name}::ALL` declares {len} formats but the enum has {n} variants"),
            )),
            _ => {}
        }
    }
    if let Some(lexed) = read_lexed(root, table_file, out) {
        if let Some(n) = nvariants {
            let caches = sized_arrays(&lexed, &["OnceLock"]);
            if caches.is_empty() {
                out.push(finding(
                    table_file,
                    0,
                    "no `[OnceLock<…>; N]` per-format cache arrays found".to_string(),
                ));
            }
            for (line, _, len) in &caches {
                if *len != n as u128 && *len < 16 {
                    // Small OnceLock arrays are the per-format caches; large
                    // ones (e.g. per-approx-multiplier) are exempt.
                    out.push(finding(
                        table_file,
                        *line,
                        format!(
                            "per-format cache array has {len} slots but `{enum_name}` has \
                             {n} variants"
                        ),
                    ));
                }
            }
        }
        let expected = 1u128 << (2 * code_bits);
        let tables = sized_arrays(&lexed, &["u8", "i8", "u16", "i16", "u32", "i32"]);
        if tables.is_empty() {
            out.push(finding(
                table_file,
                0,
                "no fixed-size LUT entry arrays found".to_string(),
            ));
        }
        for (line, elem, len) in tables {
            if len != expected {
                out.push(finding(
                    table_file,
                    line,
                    format!(
                        "LUT `[{elem}; {len}]` disagrees with the exhaustive table size \
                         {expected} implied by {code_bits}-bit codes"
                    ),
                ));
            }
        }
    }
}

fn collect_rs_files(root: &Path, rel_dir: &str, out: &mut Vec<String>) {
    let dir = root.join(rel_dir);
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        let rel = format!("{rel_dir}/{name}");
        if path.is_dir() {
            collect_rs_files(root, &rel, out);
        } else if name.ends_with(".rs") {
            out.push(rel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_impls_and_fn_bodies() {
        let lexed = lex(
            "impl Kernel for ScalarKernel { fn name(&self) -> &str { \"s\" } }\n\
             impl<T: Clone> Kernel for Generic<T> {}\n\
             impl<'a> Kernel for (&'a Table, &'a Table) {}\n\
             impl Kernel for &mut Other {}\n\
             pub fn default_kernel() -> u8 { let _ = ScalarKernel; 0 }\n\
             pub fn tables(t: &Table) { run(t) }\n\
             fn declared(o: Other);\n",
        );
        let impls = kernel_impls(&lexed, "Kernel");
        let names: Vec<&str> = impls.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["ScalarKernel", "Generic", "Table", "Other"]);
        let body = fn_idents(&lexed, "default_kernel").expect("fn found");
        assert!(body.contains("ScalarKernel"));
        assert!(!body.contains("Generic"));
        // Parameter types count as named by the function.
        let sig = fn_idents(&lexed, "tables").expect("fn found");
        assert!(sig.contains("Table") && !sig.contains("ScalarKernel"));
        let decl = fn_idents(&lexed, "declared").expect("fn found");
        assert!(decl.contains("Other") && !decl.contains("Table"));
    }

    #[test]
    fn counts_enum_variants_with_discriminants() {
        let lexed = lex("pub enum Format8 { Posit8 = 0, E4m3 = 1, E5m2 = 2, Fixed8 = 3 }");
        assert_eq!(enum_variant_count(&lexed, "Format8"), Some(4));
    }

    #[test]
    fn reads_all_len_and_sized_arrays() {
        let lexed = lex("pub const ALL: [Self; 4] = [];\n\
             static M: [OnceLock<BinaryTable>; 4] = x;\n\
             struct T { e: Box<[u8; 65536]> }\n");
        assert_eq!(all_len(&lexed).map(|(_, n)| n), Some(4));
        let arrays = sized_arrays(&lexed, &["OnceLock"]);
        assert_eq!(arrays.len(), 1);
        assert_eq!(arrays[0].2, 4);
        let luts = sized_arrays(&lexed, &["u8"]);
        assert_eq!(luts.len(), 1);
        assert_eq!(luts[0].2, 65536);
    }
}
