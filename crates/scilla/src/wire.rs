//! JSON wire encoding of first-order values.
//!
//! The paper's CoSplit↔Zilliqa integration exchanges contract state and
//! state deltas as JSON over JSON-RPC; the measured dispatch/merge overheads
//! (§5.2.2) are dominated by this serialisation. This module reproduces that
//! boundary: every first-order [`Value`] has a canonical JSON form.

use crate::value::Value;
use serde_json::{json, Value as Json};

/// Encodes a first-order value as JSON.
///
/// Closures have no wire form and encode as `null`; well-typed contract
/// state never contains them ([`Value::is_first_order`]).
pub fn to_json(v: &Value) -> Json {
    match v {
        Value::Int(w, n) => json!({"t": format!("Int{w}"), "v": n.to_string()}),
        Value::Uint(w, n) => json!({"t": format!("Uint{w}"), "v": n.to_string()}),
        Value::Str(s) => json!({"t": "String", "v": s}),
        Value::ByStr(_) | Value::ByStr20(_) => {
            let bs = v.as_bytes().unwrap_or_default();
            let hex: String = bs.iter().map(|b| format!("{b:02x}")).collect();
            json!({"t": format!("ByStr{}", bs.len()), "v": hex})
        }
        Value::BNum(n) => json!({"t": "BNum", "v": n.to_string()}),
        Value::Map(m) => {
            let entries: Vec<Json> =
                m.iter().map(|(k, v)| json!([to_json(k), to_json(v)])).collect();
            json!({"t": "Map", "v": entries})
        }
        Value::Adt { ctor, args } => {
            let args: Vec<Json> = args.iter().map(to_json).collect();
            json!({"t": "ADT", "c": ctor.as_str(), "a": args})
        }
        Value::Msg(m) => {
            let entries: Vec<Json> =
                m.iter().map(|(k, v)| json!([k.as_str(), to_json(v)])).collect();
            json!({"t": "Msg", "v": entries})
        }
        Value::Clo(_) | Value::TClo(_) => Json::Null,
    }
}

/// Decodes unprefixed hex, two digits a byte (either case). `None` for an
/// odd length or any byte that is not a hex digit, a sign included.
/// Decoded from raw bytes: slicing the `str` would panic inside a
/// multi-byte character.
pub fn decode_hex(hex: &str) -> Option<Vec<u8>> {
    let digit = |b: u8| char::from(b).to_digit(16);
    hex.as_bytes()
        .chunks(2)
        .map(|pair| match pair {
            [hi, lo] => Some(((digit(*hi)? << 4) | digit(*lo)?) as u8),
            _ => None,
        })
        .collect()
}

/// Decodes the canonical JSON form back into a value.
///
/// # Errors
///
/// Returns a description of the first malformed node.
pub fn from_json(j: &Json) -> Result<Value, String> {
    let obj = j.as_object().ok_or_else(|| format!("expected object, got {j}"))?;
    let t = obj.get("t").and_then(Json::as_str).ok_or("missing 't' tag")?;
    let get_v = || obj.get("v").ok_or("missing 'v' payload".to_string());
    if let Some(width) = t.strip_prefix("Uint") {
        let w: u32 = width.parse().map_err(|_| format!("bad width {t}"))?;
        let n = get_v()?.as_str().ok_or("uint payload must be a string")?;
        return Ok(Value::Uint(w, n.parse().map_err(|_| format!("bad uint {n}"))?));
    }
    if let Some(width) = t.strip_prefix("Int") {
        let w: u32 = width.parse().map_err(|_| format!("bad width {t}"))?;
        let n = get_v()?.as_str().ok_or("int payload must be a string")?;
        return Ok(Value::Int(w, n.parse().map_err(|_| format!("bad int {n}"))?));
    }
    if t.strip_prefix("ByStr").is_some() {
        let hex = get_v()?.as_str().ok_or("bystr payload must be a string")?;
        return decode_hex(hex).map(|bs| Value::bystr(&bs)).ok_or_else(|| format!("bad hex {hex}"));
    }
    match t {
        "String" => Ok(Value::Str(get_v()?.as_str().ok_or("string payload")?.to_string())),
        "BNum" => {
            let n = get_v()?.as_str().ok_or("bnum payload must be a string")?;
            Ok(Value::BNum(n.parse().map_err(|_| format!("bad bnum {n}"))?))
        }
        "Map" => {
            let entries = get_v()?.as_array().ok_or("map payload must be an array")?;
            let mut m = std::collections::BTreeMap::new();
            for e in entries {
                let pair = e.as_array().filter(|a| a.len() == 2).ok_or("map entry must be a pair")?;
                m.insert(from_json(&pair[0])?, from_json(&pair[1])?);
            }
            Ok(Value::map_from(m))
        }
        "ADT" => {
            let ctor = obj.get("c").and_then(Json::as_str).ok_or("missing constructor")?;
            let args = obj.get("a").and_then(Json::as_array).ok_or("missing args")?;
            let args: Result<Vec<Value>, String> = args.iter().map(from_json).collect();
            Ok(Value::Adt { ctor: crate::intern::intern(ctor), args: args? })
        }
        "Msg" => {
            let entries = get_v()?.as_array().ok_or("msg payload must be an array")?;
            let mut m = std::collections::BTreeMap::new();
            for e in entries {
                let pair = e.as_array().filter(|a| a.len() == 2).ok_or("msg entry must be a pair")?;
                let k = pair[0].as_str().ok_or("msg key must be a string")?;
                m.insert(crate::intern::intern(k), from_json(&pair[1])?);
            }
            Ok(Value::Msg(std::sync::Arc::new(m)))
        }
        other => Err(format!("unknown wire tag '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn roundtrip(v: &Value) {
        let j = to_json(v);
        let back = from_json(&j).unwrap();
        assert_eq!(*v, back, "wire roundtrip of {v}");
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(&Value::Uint(128, u128::MAX));
        roundtrip(&Value::Int(64, -42));
        roundtrip(&Value::Str("héllo \"quoted\"".into()));
        roundtrip(&Value::ByStr(vec![0xde, 0xad, 0x00]));
        roundtrip(&Value::BNum(123456));
    }

    #[test]
    fn structures_roundtrip() {
        let mut m = BTreeMap::new();
        m.insert(Value::address([1; 20]), Value::Uint(128, 100));
        m.insert(Value::address([2; 20]), Value::Uint(128, 200));
        roundtrip(&Value::map_from(m));
        roundtrip(&Value::some(Value::bool(true)));
        roundtrip(&Value::Adt {
            ctor: "Pair".into(),
            args: vec![Value::Str("a".into()), Value::Uint(32, 1)],
        });
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(from_json(&serde_json::json!({"t": "Uint128", "v": "not a number"})).is_err());
        assert!(from_json(&serde_json::json!({"t": "Nope"})).is_err());
        assert!(from_json(&serde_json::json!(42)).is_err());
        assert!(from_json(&serde_json::json!({"t": "ByStr2", "v": "abc"})).is_err());
        assert!(from_json(&serde_json::json!({"t": "ByStr2", "v": "0g"})).is_err());
    }
}
