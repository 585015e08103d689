//! Message payloads: typed values on their way between agents.
//!
//! Protocols define `serde` types and use [`Payload::encode`] /
//! [`Payload::decode`] at the boundaries. A payload has one of two forms:
//!
//! * the message itself: the typed value, type-erased behind one `Arc`.
//!   The deterministic simulator hands this form from sender to
//!   receiver: no message there leaves the process, and no simulated
//!   figure counts codec work. A receiver that decodes the stored type
//!   gets a clone of it, unless the value does not round-trip exactly
//!   ([`serde::Serialize::exact`]: a non-finite float, or `Some` of a
//!   value written as `null`). Then, and for any other type, it decodes
//!   the value's data-model tree, so each input decodes to what its text
//!   decodes to;
//! * JSON text, which is what crosses an address space. A live node
//!   writes it in the sending handler, exactly as a real platform
//!   marshals a message, and parses it on receipt.
//!
//! Text is written only where a message leaves a process, or when
//! something asks for it: [`Payload::len`], [`Payload::bytes`], `Debug`
//! and `==` write a message's exact text on first demand and cache it for
//! every clone. The byte length feeds cost models and message-size
//! counts, so it is always the real size.

use std::any::Any;
use std::fmt;
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use serde::de::DeserializeOwned;
use serde::Serialize;

/// An immutable message payload.
///
/// # Examples
///
/// ```
/// use agentrack_platform::Payload;
/// use serde::{Deserialize, Serialize};
///
/// #[derive(Serialize, Deserialize, Clone, PartialEq, Debug)]
/// struct Ping { seq: u32 }
///
/// let p = Payload::encode(&Ping { seq: 7 });
/// assert_eq!(p.decode::<Ping>().unwrap(), Ping { seq: 7 });
/// assert_eq!(p.bytes().as_ref(), br#"{"seq":7}"#);
/// ```
#[derive(Clone)]
pub struct Payload(Form);

/// Which form a runtime's handlers encode their payloads in: the
/// simulator keeps the message itself, a live node writes text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PayloadForm {
    Message,
    Text,
}

#[derive(Clone)]
enum Form {
    Text(Bytes),
    /// Shared, so every clone reads the text one write cached.
    Message(Arc<Held<dyn Message>>),
}

/// What the in-process form holds: any serialisable value that may be
/// shared across threads, with its type kept for the receiver's
/// downcast.
trait Message: Serialize + Any + Send + Sync {}

impl<T: Serialize + Any + Send + Sync> Message for T {}

/// A message and its text, written on first demand. One allocation
/// holds both.
struct Held<M: ?Sized> {
    text: OnceLock<Bytes>,
    message: M,
}

impl Held<dyn Message> {
    fn text(&self) -> &Bytes {
        self.text
            .get_or_init(|| Bytes::from(serde_json::value_to_vec(&self.message.serialize())))
    }
}

impl Payload {
    /// Wraps a copy of the value in a payload, in the in-process form:
    /// no text is written until something asks for it.
    #[must_use]
    #[inline(never)]
    pub fn encode<T: Serialize + Clone + Send + Sync + 'static>(value: &T) -> Self {
        Payload::encode_owned(value.clone())
    }

    /// [`Payload::encode`] of a value the caller hands over, which saves
    /// the copy.
    #[must_use]
    #[inline(never)]
    pub fn encode_owned<T: Serialize + Send + Sync + 'static>(value: T) -> Self {
        Payload(Form::Message(Arc::new(Held {
            text: OnceLock::new(),
            message: value,
        })))
    }

    /// Serialises a value into a payload of the given form.
    ///
    /// # Panics
    ///
    /// Panics if the value cannot be serialised to JSON (only possible for
    /// types with non-string map keys or similar pathologies — protocol
    /// types in this workspace never are).
    pub(crate) fn encode_in<T: Serialize + Clone + Send + Sync + 'static>(
        value: &T,
        form: PayloadForm,
    ) -> Self {
        match form {
            PayloadForm::Message => Payload::encode(value),
            PayloadForm::Text => Payload::text_of(value),
        }
    }

    /// [`Payload::encode_in`] of a value the caller hands over.
    pub(crate) fn encode_owned_in<T: Serialize + Send + Sync + 'static>(
        value: T,
        form: PayloadForm,
    ) -> Self {
        match form {
            PayloadForm::Message => Payload::encode_owned(value),
            PayloadForm::Text => Payload::text_of(&value),
        }
    }

    fn text_of<T: Serialize>(value: &T) -> Self {
        Payload(Form::Text(Bytes::from(
            serde_json::to_vec(value).expect("protocol types serialise infallibly"),
        )))
    }

    /// Wraps raw bytes (JSON text).
    #[must_use]
    pub fn from_bytes(bytes: Bytes) -> Self {
        Payload(Form::Text(bytes))
    }

    /// This payload in text form, as it leaves a process: a message's
    /// text is written here unless a clone already wrote it.
    pub(crate) fn into_text(self) -> Self {
        match &self.0 {
            Form::Text(_) => self,
            Form::Message(held) => Payload(Form::Text(held.text().clone())),
        }
    }

    /// `true` while the payload is the message itself, not text.
    #[cfg(test)]
    pub(crate) fn is_message(&self) -> bool {
        matches!(self.0, Form::Message(_))
    }

    /// Deserialises the payload into a typed value.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the payload does not encode a `T`;
    /// protocol handlers use this to recognise "not one of mine" messages.
    pub fn decode<T: DeserializeOwned + Clone + 'static>(&self) -> Result<T, DecodeError> {
        match &self.0 {
            Form::Text(bytes) => {
                serde_json::from_slice(bytes).map_err(|e| DecodeError(e.to_string()))
            }
            Form::Message(held) => from_message(&held.message),
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
            Form::Message(held) => held.text(),
        }
    }
}

// The in-process arms of `decode` and `encode_in` stay out of line
// (here and in `Payload::encode`), so that on a live node, which never
// takes them, neither inlines a clone of the message type.
#[inline(never)]
fn from_message<T: DeserializeOwned + Clone + 'static>(
    message: &dyn Message,
) -> Result<T, DecodeError> {
    let any: &dyn Any = message;
    match any.downcast_ref::<T>() {
        Some(value) if message.exact() => Ok(value.clone()),
        _ => T::deserialize(&message.serialize()).map_err(|e| DecodeError(e.to_string())),
    }
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

    #[derive(Serialize, Deserialize, Clone, PartialEq, Debug)]
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
        let message = Payload::encode(&m);
        let text = Payload::encode_in(&m, PayloadForm::Text);
        assert!(message.is_message() && !text.is_message());
        assert_eq!(message.bytes()[..], text.bytes()[..]);
        assert_eq!(message, text);
        assert_eq!(format!("{message:?}"), format!("{text:?}"));
        assert_eq!(text.decode::<Msg>().unwrap(), m);
    }

    /// A message posted many times, or fanned out to many receivers, is
    /// written once: every clone and every `into_text` reads the same
    /// cached text.
    #[test]
    fn a_cloned_message_is_written_once() {
        let p = Payload::encode(&Msg {
            kind: "fan-out".into(),
            value: 5,
        });
        let q = p.clone();
        let first = p.bytes().as_ptr();
        assert_eq!(q.bytes().as_ptr(), first, "the clone wrote its own text");
        let sent = q.into_text();
        assert!(!sent.is_message());
        assert_eq!(sent.bytes().as_ptr(), first, "leaving wrote the text again");
        assert_eq!(p.into_text().bytes().as_ptr(), first);
    }

    /// Each in-process input decodes to what its text decodes to: the
    /// stored type by a clone, another type through the tree, and a value
    /// that does not round-trip exactly through the tree as well.
    #[test]
    fn the_message_decodes_as_its_text_does() {
        #[derive(Serialize, Deserialize, Clone, PartialEq, Debug)]
        struct Rate {
            rate: f64,
            note: Option<Option<u8>>,
        }
        #[derive(Serialize, Deserialize, Clone, PartialEq, Debug)]
        struct Loose {
            rate: Option<f64>,
        }
        let values = [
            Rate {
                rate: 2.5,
                note: Some(Some(1)),
            },
            Rate {
                rate: 2.5,
                note: Some(None),
            },
            Rate {
                rate: f64::NAN,
                note: None,
            },
            Rate {
                rate: f64::NEG_INFINITY,
                note: None,
            },
        ];
        for v in values {
            let message = Payload::encode(&v);
            let text = Payload::encode_in(&v, PayloadForm::Text);
            assert_eq!(message.decode::<Rate>(), text.decode::<Rate>(), "{v:?}");
            assert_eq!(message.decode::<Loose>(), text.decode::<Loose>(), "{v:?}");
            assert_eq!(
                message.decode::<u64>().is_err(),
                text.decode::<u64>().is_err()
            );
        }
        assert_eq!(
            Payload::encode(&7u32).decode::<u64>(),
            Ok(7),
            "another type decodes through the tree"
        );
    }

    /// What the caller hands over is stored as it is, not copied.
    #[test]
    fn an_owned_value_is_stored_without_a_copy() {
        let kind = String::from("owned");
        let at = kind.as_ptr();
        let p = Payload::encode_owned(Msg { kind, value: 1 });
        let Form::Message(held) = &p.0 else {
            panic!("an owned value is stored in-process");
        };
        let any: &dyn Any = &held.message;
        let stored = any
            .downcast_ref::<Msg>()
            .expect("stored as it was handed over");
        assert_eq!(stored.kind.as_ptr(), at);
    }

    #[test]
    fn wrong_type_is_an_error_not_a_panic() {
        #[derive(Serialize, Deserialize, Clone, Debug)]
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
