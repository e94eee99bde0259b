//! Property tests pinning the JSON layer's wire-hardening contract in both
//! directions:
//!
//! * **serialize → parse**: any tree the workspace can build serializes
//!   without recursion (iterative writers) and, when its depth is within
//!   the parser's [`MAX_DEPTH`], round-trips through [`Json::parse_bytes`]
//!   to an equal tree in both compact and pretty form; deeper trees still
//!   serialize safely and are rejected by the parser with a typed
//!   [`JsonErrorKind::TooDeep`] error.
//! * **untrusted bytes → parse**: random byte soup (including invalid
//!   UTF-8, bare continuation bytes and overlong leads) never panics the
//!   byte parser; it either parses or returns a typed error, and the size
//!   limit always reports [`JsonErrorKind::TooLarge`].
//! * **string writer**: copying the text between escapes in runs gives
//!   the same bytes as escaping one character at a time.

use sentinel_util::{check, no_shrink, prop_assert, prop_assert_eq};
use sentinel_util::{Json, JsonErrorKind, Rng, MAX_DEPTH};

/// A random JSON tree. `depth_budget` bounds nesting; breadth is kept small
/// so case generation stays fast.
fn gen_tree(rng: &mut Rng, depth_budget: usize) -> Json {
    let scalar_only = depth_budget == 0;
    match rng.gen_range(0, if scalar_only { 6 } else { 8 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 if rng.gen_bool(0.25) => Json::U64(*rng.choose(&[0, u64::MAX])),
        2 => Json::U64(rng.next_u64()),
        3 if rng.gen_bool(0.25) => Json::I64(i64::MIN),
        3 => Json::I64(-(rng.gen_range(1, 1 << 40) as i64)),
        4 if rng.gen_bool(0.25) => Json::F64(*rng.choose(EDGE_FLOATS)),
        4 => Json::F64((rng.gen_range(0, 1 << 20) as f64) / 8.0),
        5 => Json::Str(gen_string(rng)),
        6 => {
            let n = rng.gen_usize(0, 4);
            Json::Arr((0..n).map(|_| gen_tree(rng, depth_budget - 1)).collect())
        }
        _ => {
            let n = rng.gen_usize(0, 4);
            Json::Obj((0..n).map(|_| (gen_string(rng), gen_tree(rng, depth_budget - 1))).collect())
        }
    }
}

/// Floats whose text is unusual: signed zero, the smallest subnormal, a
/// fraction with no exact binary form, and very large magnitudes.
const EDGE_FLOATS: &[f64] = &[-0.0, 5e-324, 0.1, 1e300, f64::MAX];

/// Strings mixing ASCII, escapes, controls and multi-byte characters, plus
/// every control byte with DEL in one piece, and long ASCII runs that start
/// or end on a byte the writer escapes.
fn gen_string(rng: &mut Rng) -> String {
    const ALPHABET: &[&str] = &[
        "a", "Z", "0", " ", "\"", "\\", "\n", "\t", "\u{1}", "λ", "€", "😀", "/", "{", "]",
        "\u{7f}",
    ];
    let n = rng.gen_usize(0, 12);
    let mut s = String::new();
    for _ in 0..n {
        match rng.gen_range(0, 4) {
            0 if rng.gen_bool(0.25) => s.extend((0..0x20).chain([0x7F]).map(char::from)),
            0 => s.push(char::from(rng.gen_range(0, 0x20) as u8)),
            1 => {
                let edge = |rng: &mut Rng| match rng.gen_range(0, 4) {
                    0 => '"',
                    1 => '\\',
                    2 => char::from(rng.gen_range(0, 0x20) as u8),
                    _ => 'x',
                };
                s.push(edge(rng));
                s.extend((0..rng.gen_usize(16, 200)).map(|i| char::from(b'a' + (i % 26) as u8)));
                s.push(edge(rng));
            }
            _ => {
                let &word = rng.choose(ALPHABET);
                s.push_str(word);
            }
        }
    }
    s
}

/// The writer's escaping rules applied one character at a time.
fn escape_per_char(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[test]
fn strings_escape_like_a_per_character_escaper() {
    check(
        "the run-copying string writer matches per-character escaping",
        gen_string,
        no_shrink(),
        |s| {
            prop_assert_eq!(Json::Str(s.clone()).to_string(), escape_per_char(s));
            Ok(())
        },
    );
}

#[test]
fn trees_round_trip_through_both_writers_as_bytes() {
    check(
        "compact and pretty serializations of random trees re-parse equal",
        |rng| gen_tree(rng, 6),
        no_shrink(),
        |tree| {
            for text in [tree.to_string(), tree.to_pretty_string()] {
                let back = Json::parse_bytes(text.as_bytes())
                    .map_err(|e| format!("round-trip parse failed: {e} for {text}"))?;
                prop_assert_eq!(&back, tree, "round-trip mismatch for {text}");
            }
            Ok(())
        },
    );
}

#[test]
fn deep_trees_serialize_iteratively_and_parse_rejects_them_typed() {
    check(
        "past-MAX_DEPTH trees serialize safely and fail parsing as TooDeep",
        |rng| {
            // Alternate array and single-member-object nesting, always
            // deeper than the parser's limit.
            let extra = rng.gen_usize(1, 512);
            let wrap_obj = rng.gen_bool(0.5);
            (MAX_DEPTH + extra, wrap_obj)
        },
        no_shrink(),
        |&(depth, wrap_obj)| {
            let mut j = Json::U64(1);
            for level in 0..depth {
                j = if wrap_obj && level % 2 == 0 {
                    Json::obj([("k", j)])
                } else {
                    Json::Arr(vec![j])
                };
            }
            let compact = j.to_string();
            let pretty = j.to_pretty_string();
            prop_assert!(!compact.is_empty() && !pretty.is_empty());
            for text in [compact, pretty] {
                let err = Json::parse_bytes(text.as_bytes())
                    .err()
                    .ok_or_else(|| "parser accepted a past-limit tree".to_owned())?;
                prop_assert_eq!(err.kind, JsonErrorKind::TooDeep);
            }
            // Unwind the tree iteratively so drop glue cannot recurse.
            loop {
                j = match j {
                    Json::Arr(mut items) => match items.pop() {
                        Some(inner) => inner,
                        None => break,
                    },
                    Json::Obj(mut members) => match members.pop() {
                        Some((_, inner)) => inner,
                        None => break,
                    },
                    _ => break,
                };
            }
            Ok(())
        },
    );
}

#[test]
fn random_bytes_never_panic_the_byte_parser() {
    check(
        "parse_bytes on byte soup returns a value or a typed error",
        |rng| {
            let n = rng.gen_usize(0, 64);
            let mut bytes: Vec<u8> = (0..n).map(|_| rng.gen_range(0, 256) as u8).collect();
            // Half the cases look almost like JSON: wrap in a string so the
            // UTF-8 validation paths (lead/continuation handling) are hit.
            if rng.gen_bool(0.5) {
                bytes.insert(0, b'"');
                bytes.push(b'"');
            }
            bytes
        },
        no_shrink(),
        |bytes| {
            match Json::parse_bytes(bytes) {
                Ok(parsed) => {
                    // Anything accepted must be valid UTF-8 and round-trip.
                    let text = std::str::from_utf8(bytes)
                        .map_err(|_| "accepted invalid utf-8".to_owned())?;
                    prop_assert_eq!(
                        &Json::parse(text).map_err(|e| e.to_string())?,
                        &parsed
                    );
                }
                Err(e) => {
                    prop_assert!(e.offset <= bytes.len(), "error offset past input");
                    prop_assert!(
                        e.kind != JsonErrorKind::TooLarge,
                        "unlimited entry point reported TooLarge"
                    );
                }
            }
            // The limited entry point agrees, and undersized limits are a
            // typed TooLarge regardless of content.
            let limited = Json::parse_bytes_limited(bytes, bytes.len());
            prop_assert_eq!(limited.is_ok(), Json::parse_bytes(bytes).is_ok());
            if !bytes.is_empty() {
                let err = Json::parse_bytes_limited(bytes, bytes.len() - 1)
                    .err()
                    .ok_or_else(|| "limit not enforced".to_owned())?;
                prop_assert_eq!(err.kind, JsonErrorKind::TooLarge);
            }
            Ok(())
        },
    );
}
