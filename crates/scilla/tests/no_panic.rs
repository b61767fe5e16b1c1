//! Robustness: the frontend must never panic — any input, however
//! malformed, yields `Ok` or a diagnostic.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lexer_never_panics(src in "\\PC{0,200}") {
        let _ = scilla::lexer::lex(&src);
    }

    #[test]
    fn parser_never_panics(src in "\\PC{0,200}") {
        let _ = scilla::parser::parse_module(&src);
        let _ = scilla::parser::parse_expr(&src);
    }

    /// Token soup drawn from the language's own vocabulary exercises far
    /// more parser paths than uniform characters.
    #[test]
    fn parser_survives_token_soup(
        toks in prop::collection::vec(
            prop_oneof![
                Just("contract"), Just("transition"), Just("field"), Just("end"),
                Just("match"), Just("with"), Just("let"), Just("in"), Just("fun"),
                Just("builtin"), Just("accept"), Just("send"), Just("throw"),
                Just("delete"), Just("exists"), Just("Emp"), Just("("), Just(")"),
                Just("["), Just("]"), Just("{"), Just("}"), Just(";"), Just(":"),
                Just(":="), Just("<-"), Just("=>"), Just("->"), Just("="),
                Just(","), Just("|"), Just("&"), Just("@"), Just("_"),
                Just("x"), Just("C"), Just("Uint128"), Just("42"), Just("\"s\""),
                Just("0xab"), Just("'A"), Just("_sender"),
            ],
            0..40,
        )
    ) {
        let src = toks.join(" ");
        let _ = scilla::parser::parse_module(&src);
    }

    /// Whatever parses must also survive the type checker without panicking.
    #[test]
    fn typechecker_never_panics_on_parsed_soup(
        toks in prop::collection::vec(
            prop_oneof![
                Just("contract C ()"), Just("field n : Uint128 = Uint128 0"),
                Just("transition T (x : Uint128)"), Just("end"),
                Just("n := x"), Just("y = builtin add x x;"),
                Just("match x with | _ => accept end"),
                Just("accept;"), Just("throw"),
            ],
            0..12,
        )
    ) {
        let src = toks.join("\n");
        if let Ok(module) = scilla::parser::parse_module(&src) {
            let _ = scilla::typechecker::typecheck(module);
        }
    }
}

#[test]
fn wire_decoder_never_panics_on_fuzzed_json() {
    for src in [
        "null", "[]", "{}", "{\"t\":\"Uint128\"}", "{\"t\":\"Map\",\"v\":[[]]}",
        "{\"t\":\"ADT\",\"c\":\"Some\"}", "{\"t\":\"ByStr4\",\"v\":\"zz\"}",
        "{\"t\":\"Int999\",\"v\":\"1\"}", "{\"t\":\"ByStr20\",\"v\":\"aéb\"}",
    ] {
        if let Ok(json) = serde_json::from_str::<serde_json::Value>(src) {
            let _ = scilla::wire::from_json(&json);
        }
    }
}
