//! Seeded round-trip fuzzing for the workspace JSON codec: random flat
//! objects must encode → decode → encode byte-identically, and mangled
//! documents must come back as typed errors — never a panic, whatever
//! a malformed peer or a damaged file holds.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use dcfb_errors::json::{parse_object, JsonValue, ObjectWriter};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Characters spanning every escape class the writer knows: plain
/// ASCII, the named escapes, raw control bytes (escaped as `\u00xx`),
/// and 2–4-byte UTF-8 sequences.
const CHAR_POOL: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{0001}', '\u{001f}', '\u{0008}',
    '\u{000C}', 'é', 'ß', '→', '丕', '😀',
];

fn random_string(rng: &mut SmallRng) -> String {
    let len = rng.gen_range(0..24usize);
    (0..len)
        .map(|_| CHAR_POOL[rng.gen_range(0..CHAR_POOL.len())])
        .collect()
}

/// An f64 that survives the writer's `{:.6}` rendering exactly: a
/// dyadic rational with denominator 64 needs exactly six decimal
/// digits, so parse-then-reprint is the identity.
fn random_sixdigit_f64(rng: &mut SmallRng) -> f64 {
    rng.gen_range(0..1u64 << 20) as f64 / 64.0
}

fn random_object_text(rng: &mut SmallRng) -> String {
    let mut w = ObjectWriter::new();
    let fields = rng.gen_range(0..12usize);
    for i in 0..fields {
        let key = format!("k{i}-{}", random_string(rng));
        match rng.gen_range(0..4u32) {
            0 => {
                let s = random_string(rng);
                w.str_field(&key, &s);
            }
            1 => {
                let n: u64 = rng.gen();
                w.u64_field(&key, n);
            }
            2 => {
                w.f64_field(&key, random_sixdigit_f64(rng));
            }
            _ => {
                w.bool_field(&key, rng.gen_bool(0.5));
            }
        }
    }
    w.finish()
}

fn reencode(obj: &[(String, JsonValue)]) -> String {
    let mut w = ObjectWriter::new();
    for (key, value) in obj {
        match value {
            JsonValue::Str(s) => w.str_field(key, s),
            JsonValue::UInt(n) => w.u64_field(key, *n),
            JsonValue::Float(x) => w.f64_field(key, *x),
            JsonValue::Bool(b) => w.bool_field(key, *b),
            other => panic!("the writer never produces {other:?} from these inputs"),
        };
    }
    w.finish()
}

#[test]
fn random_objects_round_trip_byte_identically() {
    let mut rng = SmallRng::seed_from_u64(0x5DC0);
    for round in 0..300 {
        let text = random_object_text(&mut rng);
        let obj = parse_object(&text)
            .unwrap_or_else(|e| panic!("round {round}: rejected own output {text:?}: {e}"));
        let again = reencode(&obj);
        assert_eq!(text, again, "round {round}: re-encode drifted");
        // And a second decode sees the identical structure.
        let obj2 = parse_object(&again).unwrap();
        assert_eq!(obj, obj2, "round {round}: decode unstable");
    }
}

#[test]
fn truncated_documents_error_but_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0x5DC1);
    for _ in 0..100 {
        let text = random_object_text(&mut rng);
        let chars: Vec<char> = text.chars().collect();
        let cut = rng.gen_range(0..chars.len());
        let truncated: String = chars[..cut].iter().collect();
        // Anything short of the full document is malformed; the parser
        // must return a typed error, not panic.
        assert!(
            parse_object(&truncated).is_err(),
            "accepted truncation {truncated:?} of {text:?}"
        );
    }
}

#[test]
fn mutated_documents_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0x5DC2);
    let mut parsed = 0u32;
    for _ in 0..500 {
        let text = random_object_text(&mut rng);
        let mut bytes = text.into_bytes();
        if bytes.is_empty() {
            continue;
        }
        for _ in 0..rng.gen_range(1..4u32) {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = rng.gen::<u8>() & 0x7f; // stay ASCII so UTF-8 survives
        }
        let Ok(mangled) = String::from_utf8(bytes) else {
            continue;
        };
        // Err or Ok are both acceptable (a flip inside a string body
        // can leave the document valid); panicking is not.
        if parse_object(&mangled).is_ok() {
            parsed += 1;
        }
    }
    // Sanity: the mutation actually breaks most documents.
    assert!(parsed < 400, "mutations almost never invalidated anything");
}

#[test]
fn hostile_fixed_inputs_error_cleanly() {
    for bad in [
        "{\"k\": \"\\u12\"}", // truncated \u escape
        "{\"k\": \"\\q\"}",   // unknown escape
        "{\"k\": --1}",
        "{\"k\": 1 2}",
        "{\"k\": \"a\" \"b\"}",
        "{\"k\"; 1}",
        "{\"k\": nulll}",
        "{{}}",
        "null",
    ] {
        assert!(parse_object(bad).is_err(), "accepted {bad:?}");
    }
    // u64::MAX + 1 is a valid number; it parses as a float, which no
    // unsigned-integer reader accepts.
    let obj = parse_object("{\"k\": 18446744073709551616}").unwrap();
    assert!(matches!(obj[0].1, JsonValue::Float(_)));
    assert_eq!(obj[0].1.as_u64(), None);
    // A 1 MiB run of brackets is refused at the depth cap.
    let deep = format!("{{\"workload\":{}}}", "[".repeat(1 << 20));
    assert!(parse_object(&deep).is_err());
}
