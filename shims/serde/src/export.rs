//! The concrete data model shared by the serde shim and `serde_json`,
//! plus the helpers the derive macro expands against.

use crate::de::Deserializer;
use crate::ser::{Serialize, Serializer};
use std::fmt;

/// Self-describing serialized form. JSON maps onto this losslessly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Negative integers.
    Int(i64),
    /// Non-negative integers.
    UInt(u64),
    /// Floating point numbers.
    Float(f64),
    /// Strings.
    Str(String),
    /// Ordered sequences.
    Seq(Vec<Value>),
    /// Ordered string-keyed maps (field order preserved).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in a [`Value::Map`].
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Human-readable name of the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }
}

/// Error produced when converting to or from a [`Value`].
#[derive(Debug, Clone, PartialEq)]
pub struct ValueError(pub String);

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ValueError {}

impl crate::ser::Error for ValueError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        ValueError(msg.to_string())
    }
}

impl crate::de::Error for ValueError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        ValueError(msg.to_string())
    }
}

/// The canonical [`Serializer`]: serializes into a [`Value`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ValueSerializer;

impl Serializer for ValueSerializer {
    type Ok = Value;
    type Error = ValueError;

    fn serialize_value(self, value: Value) -> Result<Value, ValueError> {
        Ok(value)
    }
}

/// The canonical [`Deserializer`]: deserializes out of a [`Value`].
#[derive(Debug, Clone)]
pub struct ValueDeserializer(pub Value);

impl ValueDeserializer {
    /// Wraps a value for deserialization.
    pub fn new(value: Value) -> Self {
        ValueDeserializer(value)
    }
}

impl<'de> Deserializer<'de> for ValueDeserializer {
    type Error = ValueError;

    fn into_value(self) -> Result<Value, ValueError> {
        Ok(self.0)
    }
}

/// Serializes `value` into the shared data model.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, ValueError> {
    value.serialize(ValueSerializer)
}

/// Deserializes a `T` out of the shared data model.
pub fn from_value<T: crate::de::DeserializeOwned>(value: Value) -> Result<T, ValueError> {
    T::deserialize(ValueDeserializer(value))
}

/// Missing-field error helper used by derived code.
pub fn missing_field(ty: &str, field: &str) -> ValueError {
    ValueError(format!("missing field `{field}` while deserializing {ty}"))
}

/// Unknown-field error helper used by `#[serde(deny_unknown_fields)]`
/// derives.
pub fn unknown_field(ty: &str, field: &str, expected: &[&str]) -> ValueError {
    let expected: Vec<String> = expected.iter().map(|f| format!("`{f}`")).collect();
    ValueError(format!(
        "unknown field `{field}` in {ty}, expected one of {}",
        expected.join(", ")
    ))
}
