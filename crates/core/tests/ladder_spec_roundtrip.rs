//! Parse ↔ render round-trip property for ladder specs.
//!
//! `LadderSpec::spec` documents itself as "accepted back by parse", so
//! that contract gets a seeded property test: generated specs survive a
//! `parse → spec` round trip byte-for-byte, and a second `parse` of the
//! rendered form is a fixpoint. Malformed rungs are rejected with an
//! error naming their character span in the ladder spec.

use rudoop_core::driver::Flavor;
use rudoop_core::supervisor::{LadderSpec, RungSpec};
use rudoop_ir::rng::SplitMix64;

const FLAVORS: [&str; 9] = [
    "insens",
    "cutshortcut",
    "summaries",
    "1call",
    "2callH",
    "1objH",
    "2objH",
    "2typeH",
    "S2objH",
];

/// One random rung spec string (flavor, optional heuristic) in its
/// canonical rendering.
fn gen_rung(rng: &mut SplitMix64) -> String {
    let flavor = FLAVORS[rng.below(FLAVORS.len())];
    // The three context-free rungs never take an introspective prefix:
    // there is nothing for a heuristic to refine.
    let context_free = matches!(flavor, "insens" | "cutshortcut" | "summaries");
    if !context_free && rng.ratio(1, 2) {
        let letter = if rng.ratio(1, 2) { 'A' } else { 'B' };
        format!("intro{letter}:{flavor}")
    } else {
        flavor.to_owned()
    }
}

#[test]
fn seeded_specs_round_trip_through_parse_and_render() {
    let mut rng = SplitMix64::new(0x1adde5);
    for case in 0..500 {
        // Two or more rungs: a lone introspective rung deliberately
        // expands to the canonical ladder, which is not a round trip.
        let n = rng.range(2, 6);
        let spec = (0..n)
            .map(|_| gen_rung(&mut rng))
            .collect::<Vec<_>>()
            .join(",");
        let parsed = LadderSpec::parse(&spec)
            .unwrap_or_else(|e| panic!("case {case}: {spec:?} failed to parse: {e}"));
        assert_eq!(
            parsed.spec(),
            spec,
            "case {case}: round trip changed the spec"
        );
        let again = LadderSpec::parse(&parsed.spec()).expect("rendered spec parses");
        assert_eq!(
            again.spec(),
            spec,
            "case {case}: parse∘spec is not a fixpoint"
        );
    }
}

#[test]
fn single_rungs_round_trip() {
    let mut rng = SplitMix64::new(0x5eed);
    for _ in 0..200 {
        let spec = gen_rung(&mut rng);
        let parsed = RungSpec::parse(&spec).expect("generated rung parses");
        assert_eq!(parsed.spec(), spec);
    }
}

#[test]
fn whitespace_and_canonical_ladders_still_parse() {
    let parsed = LadderSpec::parse(" 2objH , introB:2objH ,insens").expect("parses");
    assert_eq!(parsed.spec(), "2objH,introB:2objH,insens");
    assert_eq!(
        LadderSpec::parse("default").expect("default parses").spec(),
        LadderSpec::default_for(Flavor::OBJ2H).spec()
    );
}

#[test]
fn ladder_errors_carry_absolute_offsets() {
    let err = LadderSpec::parse("2objH, insenz ,1objH").expect_err("typo inside");
    assert!(
        err.starts_with("rung 1 at chars 7..13 of ladder spec:"),
        "unexpected error: {err}"
    );
    assert!(err.contains("unknown flavor \"insenz\""), "{err}");
}

#[test]
fn unknown_rung_flavor_error_lists_valid_names() {
    // A typo'd rung gets the same teaching error as a typo'd
    // `--analysis`: the full flavor grammar, all six named families.
    let err = RungSpec::parse("cutshort").expect_err("typo must not parse");
    assert!(err.contains("unknown flavor \"cutshort\""), "{err}");
    assert!(
        err.contains("valid flavors are insens, cutshortcut, summaries"),
        "{err}"
    );
    // A thread suffix is not part of the rung grammar: it is read as part
    // of the flavor name and rejected like any other typo.
    for rung in ["2objH@t4", "introB:2objH@t4"] {
        let err = RungSpec::parse(rung).expect_err("thread suffix must not parse");
        assert!(err.contains("unknown flavor \"2objH@t4\""), "{err}");
        assert!(
            err.contains("valid flavors are insens, cutshortcut, summaries"),
            "{err}"
        );
    }
}
