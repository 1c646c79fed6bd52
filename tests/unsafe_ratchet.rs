//! The `unsafe` ratchet. Every crate under `crates/` and `shims/` either
//! forbids `unsafe_code` in each crate root, so rustc rejects new
//! `unsafe` there, or has a row in [`COUNTS`] pinning how many `unsafe`
//! keywords (blocks, fns, impls) its `src/` holds outside comments,
//! literals and `#[cfg(test)]` items. The pin is exact both ways: new
//! `unsafe` raises its row in the same change (clippy asks for its
//! `// SAFETY:` comment), and removed `unsafe` lowers it.

use std::fs::{read_dir, read_to_string};
use std::path::{Path, PathBuf};

/// Crate directory → audited `unsafe` count.
const COUNTS: [(&str, usize); 3] = [
    // SIMD intrinsics and raw strided views (level3.rs, interleave.rs, crout.rs).
    ("crates/dense", 33),
    // Device memory (UnsafeCell, Send/Sync) and the worker pool's job hand-off.
    ("crates/gpu-sim", 15),
    // The two raw-parts matrix views handed to kernels (kernels.rs).
    ("crates/vbatch-core", 2),
];

/// Identifier and single-punctuation tokens of `src`, without comments
/// and string, char and raw-string literals.
fn tokens(src: &str) -> Vec<&str> {
    let b = src.as_bytes();
    let ident = |c: &u8| c.is_ascii_alphanumeric() || *c == b'_';
    let find = |from: usize, pat: &str| src[from..].find(pat).map_or(b.len(), |k| from + k);
    let (mut out, mut i) = (Vec::new(), 0);
    while i < b.len() {
        let c = b[i];
        if b[i..].starts_with(b"//") {
            i = find(i, "\n");
        } else if b[i..].starts_with(b"/*") {
            i = find(i, "*/") + 2;
        } else if c == b'"' {
            i += 1;
            while i < b.len() && b[i] != b'"' {
                i += if b[i] == b'\\' { 2 } else { 1 };
            }
            i += 1;
        } else if c == b'\'' {
            // A char literal, or the `'` of a lifetime.
            let next = src[i + 1..].chars().next().map_or(0, char::len_utf8);
            i = match (b.get(i + 1), b.get(i + 1 + next)) {
                (Some(b'\\'), _) => find(i + 3, "'") + 1,
                (_, Some(b'\'')) => i + next + 2,
                _ => i + 1,
            };
        } else if ident(&c) {
            let s = i;
            i += b[i..].iter().take_while(|c| ident(c)).count();
            let hashes = b[i..].iter().take_while(|&&h| h == b'#').count();
            if matches!(&src[s..i], "r" | "br") && b.get(i + hashes) == Some(&b'"') {
                let close = format!("\"{}", "#".repeat(hashes));
                i = find(i + hashes + 1, &close) + close.len();
            } else {
                out.push(&src[s..i]);
            }
        } else {
            if c.is_ascii_punctuation() {
                out.push(&src[i..=i]);
            }
            i += src[i..].chars().next().map_or(1, char::len_utf8);
        }
    }
    out
}

const CFG_TEST: [&str; 6] = ["[", "cfg", "(", "test", ")", "]"];

/// `unsafe` keywords in `src`, skipping each `#[cfg(test)]` item up to
/// its closing `}` or top-level `;`.
fn count_unsafe(src: &str) -> usize {
    let (mut toks, mut n) = (tokens(src).into_iter(), 0);
    while let Some(t) = toks.next() {
        n += usize::from(t == "unsafe");
        if t == "#" && toks.as_slice().starts_with(&CFG_TEST) {
            let (mut braces, mut parens) = (0, 0);
            for t in toks.by_ref() {
                match t {
                    "(" | "[" => parens += 1,
                    ")" | "]" => parens -= 1,
                    "{" => braces += 1,
                    "}" if braces == 1 => break,
                    "}" => braces -= 1,
                    ";" if braces == 0 && parens == 0 => break,
                    _ => {}
                }
            }
        }
    }
    n
}

/// Appends every `.rs` file under `dir` (none if it does not exist).
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for e in read_dir(dir).into_iter().flatten() {
        let p = e.unwrap().path();
        if p.is_dir() {
            rs_files(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

fn read(p: &Path) -> String {
    read_to_string(p).unwrap()
}

#[test]
fn every_crate_forbids_unsafe_code_or_pins_its_count() {
    for group in ["crates", "shims"] {
        for entry in read_dir(Path::new("../..").join(group)).unwrap() {
            let dir = entry.unwrap().path();
            let name = format!("{group}/{}", dir.file_name().unwrap().to_string_lossy());
            let (src, mut files) = (dir.join("src"), Vec::new());
            if let Some(&(_, pinned)) = COUNTS.iter().find(|&&(d, _)| d == name) {
                rs_files(&src, &mut files);
                let counted: usize = files.iter().map(|f| count_unsafe(&read(f))).sum();
                assert_eq!(
                    counted, pinned,
                    "{name}: {counted} `unsafe` outside tests; move its pin from {pinned}"
                );
            } else if dir.join("Cargo.toml").is_file() {
                files = vec![src.join("lib.rs"), src.join("main.rs")];
                rs_files(&src.join("bin"), &mut files);
                files.retain(|r| r.is_file());
                assert!(!files.is_empty(), "{name}: no crate root found");
                for r in files {
                    assert!(
                        read(&r).contains("\n#![forbid(unsafe_code)]"),
                        "{}: add `#![forbid(unsafe_code)]`, or pin {name} in COUNTS",
                        r.display()
                    );
                }
            }
        }
    }
}

#[test]
fn the_scanner_skips_comments_literals_and_test_items() {
    let src = r##"// unsafe
        /* unsafe */ const S: &str = "unsafe \" unsafe"; const R: &str = r#"unsafe "unsafe""#;
        const C: char = '"'; const E: char = '\''; fn f<'a>(_: &'a u8) {} unsafe fn counted() {}
        #[cfg(test)] mod tests { fn g() { unsafe {} } } #[cfg(test)] const T: [u8; 1] = [0];
        unsafe impl Send for X {}"##;
    assert_eq!(count_unsafe(src), 2);
}
