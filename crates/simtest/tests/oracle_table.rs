//! The oracle table is the single source of truth: each oracle name is
//! written once in the harness source, and every document that lists the
//! oracles lists each one with the scope it really runs in.

use simtest::ORACLES;

const LIB: &str = include_str!("../src/lib.rs");
const DOCS: [(&str, &str); 3] = [
    ("crates/simtest/src/lib.rs", LIB),
    ("README.md", include_str!("../../../README.md")),
    ("DESIGN.md", include_str!("../../../DESIGN.md")),
];

#[test]
fn each_oracle_name_is_written_once() {
    for o in ORACLES {
        let quoted = format!("\"{}\"", o.name);
        assert_eq!(LIB.matches(&quoted).count(), 1, "{quoted} in lib.rs");
    }
    assert_eq!(LIB.matches("\"determinism\"").count(), 1);
}

#[test]
fn every_document_lists_every_oracle_with_its_scope() {
    for (doc, text) in DOCS {
        for o in ORACLES {
            let scope = format!("{:?}", o.scope()).to_lowercase();
            let row = format!("| `{}` | {scope} |", o.name);
            assert!(
                text.contains(&row),
                "{doc} has no oracle table row starting {row:?}"
            );
        }
        assert!(text.contains("| `determinism` |"), "{doc}: determinism");
    }
}
