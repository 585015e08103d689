//! Message payloads: typed values on their way between agents.
//!
//! Protocols define `serde` types and use [`Payload::encode`] /
//! [`Payload::decode`] at the boundaries. A payload has one of two forms:
//!
//! * the data-model tree ([`serde::Value`]) that `Serialize` builds. The
//!   deterministic simulator carries this form from sender to receiver:
//!   no message there leaves the process, and no simulated figure counts
//!   codec work;
//! * JSON text, which is what crosses an address space. A live node
//!   writes it in the sending handler, exactly as a real platform
//!   marshals a message, and parses it on receipt.
//!
//! Text is written only where a message leaves a process, or when
//! something asks for it: [`Payload::len`], [`Payload::bytes`], `Debug`
//! and `==` write a tree's exact text on first demand and cache it for
//! every clone. The byte length feeds cost models and message-size
//! counts, so it is always the real size.

use std::fmt;
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use serde::de::DeserializeOwned;
use serde::{Serialize, Value};

/// An immutable message payload.
///
/// # Examples
///
/// ```
/// use agentrack_platform::Payload;
/// use serde::{Deserialize, Serialize};
///
/// #[derive(Serialize, Deserialize, PartialEq, Debug)]
/// struct Ping { seq: u32 }
///
/// let p = Payload::encode(&Ping { seq: 7 });
/// assert_eq!(p.decode::<Ping>().unwrap(), Ping { seq: 7 });
/// assert_eq!(p.bytes().as_ref(), br#"{"seq":7}"#);
/// ```
#[derive(Clone)]
pub struct Payload(Form);

/// Which form a runtime's handlers encode their payloads in: the
/// simulator keeps the tree, a live node writes text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PayloadForm {
    Tree,
    Text,
}

#[derive(Clone)]
enum Form {
    Text(Bytes),
    /// Shared, so every clone reads the text one write cached.
    Tree(Arc<Tree>),
}

struct Tree {
    value: Value,
    text: OnceLock<Bytes>,
}

impl Tree {
    fn text(&self) -> &Bytes {
        self.text
            .get_or_init(|| Bytes::from(serde_json::value_to_vec(&self.value)))
    }
}

impl Payload {
    /// Serialises a value into a payload, in tree form: no text is
    /// written until something asks for it.
    #[must_use]
    #[inline(never)]
    pub fn encode<T: Serialize>(value: &T) -> Self {
        Payload(Form::Tree(Arc::new(Tree {
            value: value.serialize(),
            text: OnceLock::new(),
        })))
    }

    /// Serialises a value into a payload of the given form.
    ///
    /// # Panics
    ///
    /// Panics if the value cannot be serialised to JSON (only possible for
    /// types with non-string map keys or similar pathologies — protocol
    /// types in this workspace never are).
    pub(crate) fn encode_in<T: Serialize>(value: &T, form: PayloadForm) -> Self {
        match form {
            PayloadForm::Tree => Payload::encode(value),
            PayloadForm::Text => Payload(Form::Text(Bytes::from(
                serde_json::to_vec(value).expect("protocol types serialise infallibly"),
            ))),
        }
    }

    /// Wraps raw bytes (JSON text).
    #[must_use]
    pub fn from_bytes(bytes: Bytes) -> Self {
        Payload(Form::Text(bytes))
    }

    /// This payload in text form, as it leaves a process: a tree's text
    /// is written here unless a clone already wrote it.
    pub(crate) fn into_text(self) -> Self {
        match &self.0 {
            Form::Text(_) => self,
            Form::Tree(tree) => Payload(Form::Text(tree.text().clone())),
        }
    }

    /// `true` while the payload is a data-model tree.
    #[cfg(test)]
    pub(crate) fn is_tree(&self) -> bool {
        matches!(self.0, Form::Tree(_))
    }

    /// Deserialises the payload into a typed value.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the payload does not encode a `T`;
    /// protocol handlers use this to recognise "not one of mine" messages.
    pub fn decode<T: DeserializeOwned>(&self) -> Result<T, DecodeError> {
        match &self.0 {
            Form::Text(bytes) => {
                serde_json::from_slice(bytes).map_err(|e| DecodeError(e.to_string()))
            }
            Form::Tree(tree) => from_tree(&tree.value),
        }
    }

    /// Payload size in bytes (used by cost models).
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// `true` for a zero-length payload.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }

    /// The JSON text.
    #[must_use]
    pub fn bytes(&self) -> &Bytes {
        match &self.0 {
            Form::Text(bytes) => bytes,
            Form::Tree(tree) => tree.text(),
        }
    }
}

// The tree arms of `decode` and `encode_in` stay out of line, so that on
// a live node, which never takes them, both keep the size they had
// before payloads had two forms.
#[inline(never)]
fn from_tree<T: DeserializeOwned>(value: &Value) -> Result<T, DecodeError> {
    T::deserialize(value).map_err(|e| DecodeError(e.to_string()))
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.bytes()[..] == other.bytes()[..]
    }
}

impl Eq for Payload {}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bytes = self.bytes();
        match std::str::from_utf8(bytes) {
            Ok(s) if s.len() <= 120 => write!(f, "Payload({s})"),
            Ok(s) => write!(f, "Payload({}… {} bytes)", &s[..80], bytes.len()),
            Err(_) => write!(f, "Payload({} bytes)", bytes.len()),
        }
    }
}

/// Error returned when a payload does not decode as the requested type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "payload does not decode: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    struct Msg {
        kind: String,
        value: u64,
    }

    #[test]
    fn round_trip() {
        let m = Msg {
            kind: "test".into(),
            value: 12,
        };
        let p = Payload::encode(&m);
        assert_eq!(p.decode::<Msg>().unwrap(), m);
        assert!(!p.is_empty());
        assert_eq!(p.len(), p.bytes().len());
    }

    #[test]
    fn both_forms_write_the_same_text_and_compare_equal() {
        let m = Msg {
            kind: "\"quoted\"\n".into(),
            value: u64::MAX,
        };
        let tree = Payload::encode(&m);
        let text = Payload::encode_in(&m, PayloadForm::Text);
        assert!(tree.is_tree() && !text.is_tree());
        assert_eq!(tree.bytes()[..], text.bytes()[..]);
        assert_eq!(tree, text);
        assert_eq!(format!("{tree:?}"), format!("{text:?}"));
        assert_eq!(text.decode::<Msg>().unwrap(), m);
    }

    /// A tree-form payload posted many times, or fanned out to many
    /// receivers, is written once: every clone and every `into_text`
    /// reads the same cached text.
    #[test]
    fn a_cloned_tree_is_written_once() {
        let p = Payload::encode(&Msg {
            kind: "fan-out".into(),
            value: 5,
        });
        let q = p.clone();
        let first = p.bytes().as_ptr();
        assert_eq!(q.bytes().as_ptr(), first, "the clone wrote its own text");
        let sent = q.into_text();
        assert!(!sent.is_tree());
        assert_eq!(sent.bytes().as_ptr(), first, "leaving wrote the text again");
        assert_eq!(p.into_text().bytes().as_ptr(), first);
    }

    #[test]
    fn wrong_type_is_an_error_not_a_panic() {
        #[derive(Serialize, Deserialize, Debug)]
        struct Other {
            name: String,
        }
        let m = Msg {
            kind: "x".into(),
            value: 1,
        };
        for p in [
            Payload::encode(&m),
            Payload::encode_in(&m, PayloadForm::Text),
        ] {
            let err = p.decode::<Other>().unwrap_err();
            assert!(err.to_string().contains("does not decode"));
        }
    }

    #[test]
    fn debug_is_readable() {
        let p = Payload::encode(&Msg {
            kind: "dbg".into(),
            value: 3,
        });
        let s = format!("{p:?}");
        assert!(s.contains("dbg"));
    }

    #[test]
    fn from_raw_bytes() {
        let p = Payload::from_bytes(Bytes::from_static(b"{\"kind\":\"k\",\"value\":1}"));
        assert_eq!(p.decode::<Msg>().unwrap().value, 1);
    }
}
