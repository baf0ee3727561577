//! Property tests for the one JSON writer: whatever `JsonWriter` renders,
//! `json::parse` reads back as the value that was written.

use proptest::prelude::*;
use soi_obs::json::{parse, Json, JsonWriter};

/// The value `write_f64` promises: the number itself, or `null` when it is
/// not finite.
fn number(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

/// Renders each `(key, text, number)` level as `[{key: text, "n": number,
/// "inner": <previous level>}, number]` through `field_raw` / `elem_raw`,
/// and builds the value the parser must return alongside.
fn nest(levels: &[(String, String, f64)]) -> (String, Json) {
    let mut doc = JsonWriter::array().finish();
    let mut expected = Json::Arr(Vec::new());
    for (key, text, n) in levels {
        let mut obj = JsonWriter::object();
        obj.field_str(key, text);
        obj.field_f64("n", *n);
        obj.field_raw("inner", &doc);
        let mut arr = JsonWriter::array();
        arr.elem_raw(&obj.finish());
        arr.elem_f64(*n);
        doc = arr.finish();
        let fields = vec![
            (key.clone(), Json::Str(text.clone())),
            ("n".to_string(), number(*n)),
            ("inner".to_string(), expected),
        ];
        expected = Json::Arr(vec![Json::Obj(fields), number(*n)]);
    }
    (doc, expected)
}

proptest! {
    #[test]
    fn any_string_field_parses_back_equal(key in ".*", text in ".*") {
        let mut w = JsonWriter::object();
        w.field_str(&key, &text);
        let doc = w.finish();
        let parsed = parse(&doc).map_err(|e| format!("{e}: {doc}")).unwrap();
        prop_assert_eq!(parsed, Json::Obj(vec![(key, Json::Str(text))]));
    }

    #[test]
    fn nested_documents_parse_back_equal(
        levels in proptest::collection::vec((".*", ".*", proptest::num::f64::ANY), 0..8),
    ) {
        let (doc, expected) = nest(&levels);
        let parsed = parse(&doc).map_err(|e| format!("{e}: {doc}")).unwrap();
        prop_assert_eq!(parsed, expected);
    }

    #[test]
    fn numbers_round_trip_and_non_finite_ones_are_null(v in proptest::num::f64::ANY) {
        let mut w = JsonWriter::array();
        w.elem_f64(v);
        let parsed = parse(&w.finish()).unwrap();
        let item = parsed.as_arr().unwrap()[0].clone();
        match item {
            Json::Num(back) => prop_assert!(v.is_finite() && back.to_bits() == v.to_bits()),
            other => prop_assert!(!v.is_finite() && other == Json::Null, "{other:?}"),
        }
    }
}
