//! Both wire encodings of every value type, and the two macros that
//! build the [`Request`](crate::api::Request)/[`Response`](crate::api::Response)
//! codecs from one declaration.
//!
//! A [`Field`] knows how one value type is written as JSON (a [`Json`]
//! value under an object key) and as binary (the primitives documented
//! in [`crate::binwire`]). [`wire_enum!`] declares an enum whose
//! variants each carry a binary tag, a JSON `type` name and their
//! fields in wire order, and generates both codecs for it;
//! [`wire_struct!`] does the same for a plain struct nested inside a
//! variant. Adding a request is one table entry in [`crate::api`]: both
//! encodings follow from the field types.
//!
//! Canonicalizations shared by both codecs live here, once:
//!
//! * a non-finite `Option<f64>` is written as absent (JSON `null`,
//!   binary presence byte `0`);
//! * a [`Latency`]-coded `f64` is written non-finite as JSON `null` or
//!   binary `+∞`, and read back from either as `+∞`.

use crate::binwire::{Cur, DecodeError};
use crate::json::Json;
use hft_time::Date;

/// Maximum nesting depth accepted when decoding a binary [`Json`] value
/// (the `metrics` registry payload is 3 levels deep; hostile frames
/// must not be able to recurse the decoder off the stack).
const MAX_JSON_DEPTH: usize = 32;

/// The default coding of a value type.
pub(crate) enum Plain {}

/// The coding of a latency that may be `+∞` ("network down"): the JSON
/// codec writes a non-finite value as `null` and reads `null` (or an
/// absent key) as `+∞`; the binary codec writes and reads any
/// non-finite value as `+∞`, so hostile NaN bits cannot smuggle in a
/// value the JSON codec could never produce.
pub(crate) enum Latency {}

/// Both encodings of one value type. `Coding` selects among codings of
/// the same Rust type (see [`Latency`]).
pub(crate) trait Field<Coding = Plain>: Sized {
    /// The JSON value.
    fn to_json(&self) -> Json;
    /// Decode the value found under `key` (`None` when the key is absent).
    fn from_json(v: Option<&Json>, key: &str) -> Result<Self, String>;
    /// Append the binary form.
    fn put(&self, buf: &mut Vec<u8>);
    /// Read the binary form.
    fn get(cur: &mut Cur<'_>) -> Result<Self, DecodeError>;
    /// Whether `Some(self)` is written as present. A non-finite float has
    /// no JSON number form, so both codecs write it as absent.
    fn present(&self) -> bool {
        true
    }
}

impl Field for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(v: Option<&Json>, key: &str) -> Result<f64, String> {
        v.and_then(Json::as_num)
            .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
    }
    fn put(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn get(cur: &mut Cur<'_>) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(
            cur.take(8)?.try_into().expect("took 8 bytes"),
        ))
    }
    fn present(&self) -> bool {
        self.is_finite()
    }
}

impl Field<Latency> for f64 {
    fn to_json(&self) -> Json {
        Json::num_or_null(*self)
    }
    fn from_json(v: Option<&Json>, key: &str) -> Result<f64, String> {
        match v {
            None | Some(Json::Null) => Ok(f64::INFINITY),
            some => <f64 as Field>::from_json(some, key),
        }
    }
    fn put(&self, buf: &mut Vec<u8>) {
        <f64 as Field>::put(&finite_or_inf(*self), buf);
    }
    fn get(cur: &mut Cur<'_>) -> Result<f64, DecodeError> {
        <f64 as Field>::get(cur).map(finite_or_inf)
    }
}

fn finite_or_inf(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::INFINITY
    }
}

/// Unsigned integers: JSON numbers (exact below 2⁵³), binary LEB128
/// varints (exact over all of `u64`).
impl Field for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
    fn from_json(v: Option<&Json>, key: &str) -> Result<u64, String> {
        v.and_then(Json::as_u64)
            .ok_or_else(|| format!("missing or non-integer field {key:?}"))
    }
    fn put(&self, buf: &mut Vec<u8>) {
        let mut v = *self;
        while v >= 0x80 {
            buf.push((v & 0x7f) as u8 | 0x80);
            v >>= 7;
        }
        buf.push(v as u8);
    }
    fn get(cur: &mut Cur<'_>) -> Result<u64, DecodeError> {
        cur.varint()
    }
}

impl Field for usize {
    fn to_json(&self) -> Json {
        (*self as u64).to_json()
    }
    fn from_json(v: Option<&Json>, key: &str) -> Result<usize, String> {
        usize::try_from(u64::from_json(v, key)?).map_err(|_| format!("field {key:?} out of range"))
    }
    fn put(&self, buf: &mut Vec<u8>) {
        (*self as u64).put(buf);
    }
    fn get(cur: &mut Cur<'_>) -> Result<usize, DecodeError> {
        usize::try_from(cur.varint()?).map_err(|_| DecodeError::BadVarint)
    }
}

impl Field for u32 {
    fn to_json(&self) -> Json {
        u64::from(*self).to_json()
    }
    fn from_json(v: Option<&Json>, key: &str) -> Result<u32, String> {
        u32::try_from(u64::from_json(v, key)?).map_err(|_| format!("field {key:?} out of range"))
    }
    fn put(&self, buf: &mut Vec<u8>) {
        u64::from(*self).put(buf);
    }
    fn get(cur: &mut Cur<'_>) -> Result<u32, DecodeError> {
        u32::try_from(cur.varint()?).map_err(|_| DecodeError::BadVarint)
    }
}

/// Strings: binary is a varint byte length, then UTF-8 bytes.
impl Field for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_json(v: Option<&Json>, key: &str) -> Result<String, String> {
        v.and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing or non-string field {key:?}"))
    }
    fn put(&self, buf: &mut Vec<u8>) {
        self.len().put(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn get(cur: &mut Cur<'_>) -> Result<String, DecodeError> {
        let n = cur.len_prefix()?;
        std::str::from_utf8(cur.take(n)?)
            .map(str::to_string)
            .map_err(|_| DecodeError::BadUtf8)
    }
}

/// Dates: JSON ISO `YYYY-MM-DD`; binary varint year, month byte, day
/// byte, validated on decode.
impl Field for Date {
    fn to_json(&self) -> Json {
        Json::Str(self.to_iso())
    }
    fn from_json(v: Option<&Json>, key: &str) -> Result<Date, String> {
        Date::parse_iso(&String::from_json(v, key)?).map_err(|e| format!("bad {key}: {e}"))
    }
    fn put(&self, buf: &mut Vec<u8>) {
        (self.year() as u64).put(buf);
        buf.push(self.month() as u8);
        buf.push(self.day() as u8);
    }
    fn get(cur: &mut Cur<'_>) -> Result<Date, DecodeError> {
        let y = cur.varint()?;
        let m = cur.u8()?;
        let d = cur.u8()?;
        if y > 9999 {
            return Err(DecodeError::BadDate);
        }
        Date::new(y as i32, m as u32, d as u32).map_err(|_| DecodeError::BadDate)
    }
}

/// 128-bit trace ids: JSON 32-hex strings (plain JSON numbers are not
/// exact past 2⁵³), binary 16 little-endian bytes.
impl Field for u128 {
    fn to_json(&self) -> Json {
        Json::Str(hft_obs::format_trace_id(*self))
    }
    fn from_json(v: Option<&Json>, key: &str) -> Result<u128, String> {
        v.and_then(Json::as_str)
            .and_then(hft_obs::parse_trace_id)
            .ok_or_else(|| format!("missing or bad trace id field {key:?}"))
    }
    fn put(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn get(cur: &mut Cur<'_>) -> Result<u128, DecodeError> {
        Ok(u128::from_le_bytes(
            cur.take(16)?.try_into().expect("took 16 bytes"),
        ))
    }
}

/// Optional values: JSON `null` (or an absent key) for `None`; binary
/// presence byte `0`/`1`, then the value.
impl<T: Field> Field for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(x) if x.present() => x.to_json(),
            _ => Json::Null,
        }
    }
    fn from_json(v: Option<&Json>, key: &str) -> Result<Option<T>, String> {
        match v {
            None | Some(Json::Null) => Ok(None),
            some => T::from_json(some, key).map(Some),
        }
    }
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            Some(x) if x.present() => {
                buf.push(1);
                x.put(buf);
            }
            _ => buf.push(0),
        }
    }
    fn get(cur: &mut Cur<'_>) -> Result<Option<T>, DecodeError> {
        match cur.u8()? {
            0 => Ok(None),
            1 => T::get(cur).map(Some),
            b => Err(DecodeError::BadPresence(b)),
        }
    }
}

/// Sequences: JSON arrays; binary varint element count, then elements.
/// The count is bounded by the bytes present before anything is
/// allocated.
impl<T: Field> Field for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
    fn from_json(v: Option<&Json>, key: &str) -> Result<Vec<T>, String> {
        v.and_then(Json::as_arr)
            .ok_or_else(|| format!("missing or non-array field {key:?}"))?
            .iter()
            .map(|x| T::from_json(Some(x), key))
            .collect()
    }
    fn put(&self, buf: &mut Vec<u8>) {
        self.len().put(buf);
        for x in self {
            x.put(buf);
        }
    }
    fn get(cur: &mut Cur<'_>) -> Result<Vec<T>, DecodeError> {
        let n = cur.len_prefix()?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(cur)?);
        }
        Ok(items)
    }
}

/// Free-form JSON values (the `metrics` registry): carried as-is in
/// JSON; in binary a type byte (`0` null, `1`/`2` false/true, `3`
/// number, `4` string, `5` array, `6` object) then the payload.
impl Field for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
    fn from_json(v: Option<&Json>, key: &str) -> Result<Json, String> {
        v.cloned().ok_or_else(|| format!("missing field {key:?}"))
    }
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            Json::Null => buf.push(0),
            Json::Bool(b) => buf.push(1 + u8::from(*b)),
            Json::Num(x) => {
                buf.push(3);
                <f64 as Field>::put(x, buf);
            }
            Json::Str(s) => {
                buf.push(4);
                s.put(buf);
            }
            Json::Arr(items) => {
                buf.push(5);
                items.put(buf);
            }
            Json::Obj(pairs) => {
                buf.push(6);
                pairs.len().put(buf);
                for (k, item) in pairs {
                    k.put(buf);
                    item.put(buf);
                }
            }
        }
    }
    fn get(cur: &mut Cur<'_>) -> Result<Json, DecodeError> {
        get_json(cur, 0)
    }
}

fn get_json(cur: &mut Cur<'_>, depth: usize) -> Result<Json, DecodeError> {
    if depth >= MAX_JSON_DEPTH {
        return Err(DecodeError::TooDeep);
    }
    match cur.u8()? {
        0 => Ok(Json::Null),
        1 => Ok(Json::Bool(false)),
        2 => Ok(Json::Bool(true)),
        3 => <f64 as Field>::get(cur).map(Json::Num),
        4 => String::get(cur).map(Json::Str),
        5 => {
            let n = cur.len_prefix()?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(get_json(cur, depth + 1)?);
            }
            Ok(Json::Arr(items))
        }
        6 => {
            let n = cur.len_prefix()?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let k = String::get(cur)?;
                pairs.push((k, get_json(cur, depth + 1)?));
            }
            Ok(Json::Obj(pairs))
        }
        t => Err(DecodeError::BadTag("json value", t)),
    }
}

/// The object under `key`, for a struct-valued field.
pub(crate) fn object<'a>(v: Option<&'a Json>, key: &str) -> Result<&'a Json, String> {
    v.filter(|v| matches!(v, Json::Obj(_)))
        .ok_or_else(|| format!("missing or non-object field {key:?}"))
}

/// Decode one field of a JSON object: `$t` under its `$coding`, or
/// `$default` when the key is absent or `null`.
macro_rules! json_field {
    ($obj:ident . $f:ident : $t:ty [$($coding:ident)?]) => {
        <$t as $crate::codec::Field<$($coding)?>>::from_json($obj.get(stringify!($f)), stringify!($f))?
    };
    ($obj:ident . $f:ident : $t:ty [$($coding:ident)?] = $default:expr) => {
        match $obj.get(stringify!($f)) {
            None | Some($crate::json::Json::Null) => $default,
            some => <$t as $crate::codec::Field<$($coding)?>>::from_json(some, stringify!($f))?,
        }
    };
}

/// Declare a wire enum and generate both of its codecs.
///
/// Each variant is `Name = tag, "json_type"`, then its fields in wire
/// order. A field is `name: Type`, optionally `as Coding` (a non-default
/// [`Field`] coding) and `= default` (the value JSON decodes when the
/// key is absent or `null`). The JSON form is an object whose first key
/// is `"type"`, then one key per field, named after it; the binary form
/// is the tag byte, then each field's [`Field::put`] in order.
///
/// Generates the enum, and on it `to_json`, `from_json`, `encode` and
/// `decode` (JSON), `put_body` and `get_body` (binary, after the frame
/// header) and the private `wire_type` (the JSON `type` name).
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $Enum:ident ($what:literal) {
            $(
                $(#[$vmeta:meta])*
                $V:ident = $tag:literal, $json:literal $({
                    $(
                        $(#[$fmeta:meta])*
                        $f:ident : $t:ty $(as $coding:ident)? $(= $default:expr)?
                    ),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $Enum {
            $(
                $(#[$vmeta])*
                $V $({ $( $(#[$fmeta])* $f: $t, )* })?,
            )*
        }

        impl $Enum {
            /// The JSON `type` name of this variant.
            fn wire_type(&self) -> &'static str {
                match self {
                    $( $Enum::$V $({ $($f: _),* })? => $json, )*
                }
            }

            /// The canonical JSON form: `"type"`, then the fields in
            /// declaration order.
            pub fn to_json(&self) -> $crate::json::Json {
                let kind = $crate::json::Json::Str(self.wire_type().to_string());
                $crate::json::Json::Obj(match self {
                    $( $Enum::$V $({ $($f),* })? => vec![
                        ("type".to_string(), kind),
                        $($( (
                            stringify!($f).to_string(),
                            <$t as $crate::codec::Field<$($coding)?>>::to_json($f),
                        ), )*)?
                    ], )*
                })
            }

            /// Decode from a parsed JSON value.
            pub fn from_json(v: &$crate::json::Json) -> Result<$Enum, String> {
                let kind = v
                    .get("type")
                    .and_then($crate::json::Json::as_str)
                    .ok_or("missing or non-string field \"type\"")?;
                Ok(match kind {
                    $( $json => $Enum::$V $({ $(
                        $f: $crate::codec::json_field!(v.$f: $t [$($coding)?] $(= $default)?),
                    )* })?, )*
                    other => return Err(format!("unknown {} type {other:?}", $what)),
                })
            }

            /// Encode to canonical JSON wire bytes.
            pub fn encode(&self) -> Vec<u8> {
                self.to_json().encode().into_bytes()
            }

            /// Decode from JSON wire bytes (UTF-8).
            pub fn decode(bytes: &[u8]) -> Result<$Enum, String> {
                let text = std::str::from_utf8(bytes)
                    .map_err(|e| format!("frame is not UTF-8: {e}"))?;
                let v = $crate::json::parse(text).map_err(|e| e.to_string())?;
                $Enum::from_json(&v)
            }

            /// Append the binary body after the frame header: the tag
            /// byte, then the fields.
            pub(crate) fn put_body(&self, buf: &mut Vec<u8>) {
                match self {
                    $( $Enum::$V $({ $($f),* })? => {
                        buf.push($tag);
                        $($( <$t as $crate::codec::Field<$($coding)?>>::put($f, buf); )*)?
                    } )*
                }
            }

            /// Read a binary body after the frame header.
            pub(crate) fn get_body(
                cur: &mut $crate::binwire::Cur<'_>,
            ) -> Result<$Enum, $crate::binwire::DecodeError> {
                Ok(match cur.u8()? {
                    $( $tag => $Enum::$V $({ $(
                        $f: <$t as $crate::codec::Field<$($coding)?>>::get(cur)?,
                    )* })?, )*
                    t => return Err($crate::binwire::DecodeError::BadTag($what, t)),
                })
            }
        }
    };
}

/// Implement [`Field`] for a struct from its field names in wire order:
/// a JSON object keyed by field name, or the fields back to back in
/// binary. A field may carry `= default`, the value JSON decodes when
/// the key is absent or `null`.
macro_rules! wire_struct {
    ($S:ident { $( $f:ident $(= $default:expr)? ),* $(,)? }) => {
        impl $crate::codec::Field for $S {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![$(
                    (stringify!($f).to_string(), <_ as $crate::codec::Field>::to_json(&self.$f)),
                )*])
            }
            fn from_json(
                v: Option<&$crate::json::Json>,
                key: &str,
            ) -> Result<$S, String> {
                let v = $crate::codec::object(v, key)?;
                Ok($S { $( $f: $crate::codec::json_field!(v.$f: _ [] $(= $default)?), )* })
            }
            fn put(&self, buf: &mut Vec<u8>) {
                $( <_ as $crate::codec::Field>::put(&self.$f, buf); )*
            }
            fn get(
                cur: &mut $crate::binwire::Cur<'_>,
            ) -> Result<$S, $crate::binwire::DecodeError> {
                Ok($S { $( $f: <_ as $crate::codec::Field>::get(cur)?, )* })
            }
        }
    };
}

pub(crate) use {json_field, wire_enum, wire_struct};
