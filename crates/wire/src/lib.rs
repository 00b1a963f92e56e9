//! Compact binary wire format for FlexCast messages.
//!
//! The paper measures the amount of information each protocol puts on the
//! wire (Figure 8: messages per second, average message size, KB/s per
//! node). Reproducing that experiment needs a deterministic, compact
//! serialization of protocol messages, in the spirit of bincode's varint
//! mode:
//!
//! * unsigned integers are LEB128 varints; signed integers are zig-zag
//!   encoded varints,
//! * sequences, maps and strings are length-prefixed,
//! * options are a 1-byte tag, enum variants a varint index in
//!   declaration order,
//! * structs and tuples are field concatenations (the schema is known by
//!   both sides, as with all FlexCast peers).
//!
//! Every wire type implements [`Wire`]: one encode walk, generic over a
//! [`Sink`], and one validating decode. Appending to a `Vec<u8>` yields
//! the bytes and a [`Counter`] yields their number, so a size is exact by
//! construction. Entry points: [`to_bytes`], [`from_bytes`], and
//! [`encoded_len`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod varint;

pub use flexcast_types::{Error, Result};

use flexcast_types::{Bytes, ClientId, DestSet, GroupId, Message, MsgId, Payload, Watermarks};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Where an encode walk puts its output.
pub trait Sink {
    /// Appends raw bytes.
    fn put(&mut self, bytes: &[u8]);
    /// Appends `v` as an LEB128 varint.
    fn put_varint(&mut self, v: u64);
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    #[inline]
    fn put_varint(&mut self, v: u64) {
        varint::write(self, v);
    }
}

/// A sink that only counts: what an encode walk into it adds up to is the
/// encoded length. Traffic accounting charges every simulated send and
/// receive this way without building the bytes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counter(pub usize);

impl Sink for Counter {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    #[inline]
    fn put_varint(&mut self, v: u64) {
        self.0 += varint::size(v);
    }
}

/// A cursor over encoded input. Every read checks the remaining input,
/// so corrupt or truncated bytes fail with [`Error::Decode`] instead of
/// panicking.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Reads an LEB128 varint.
    pub fn varint(&mut self) -> Result<u64> {
        varint::read(self.buf, &mut self.pos)
    }

    /// Reads `n` raw bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.buf.len() - self.pos {
            return Err(invalid("unexpected end of input"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a length prefix. A length can never exceed the remaining
    /// input (each element takes at least one byte), so a huge length
    /// from corrupt input fails here instead of triggering a massive
    /// allocation.
    pub(crate) fn length(&mut self) -> Result<usize> {
        let v = self.varint()?;
        let remaining = self.buf.len() - self.pos;
        if v > remaining as u64 {
            return Err(invalid(format!(
                "length {v} exceeds remaining input {remaining}"
            )));
        }
        Ok(v as usize)
    }

    fn finish(self) -> Result<()> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(invalid(format!("{n} trailing bytes after value"))),
        }
    }
}

/// A decode error with the given message.
pub fn invalid(msg: impl Into<String>) -> Error {
    Error::Decode(msg.into())
}

/// The decode error for an enum variant index `v` that type `ty` does
/// not have.
pub fn unknown_variant(ty: &str, v: u64) -> Error {
    invalid(format!("{ty}: unknown variant index {v}"))
}

/// A type with a wire encoding.
pub trait Wire: Sized {
    /// Writes the encoding to `out`. This single walk is both the
    /// encoding (into a `Vec<u8>`) and its size (into a [`Counter`]).
    fn encode<S: Sink>(&self, out: &mut S);

    /// Reads one value, rejecting input that no encoder could have
    /// produced for a valid value.
    fn decode(r: &mut Reader<'_>) -> Result<Self>;
}

/// Encodes `value` into a fresh byte vector, sized by a counting walk
/// first so the writing walk never reallocates. Encoding cannot fail;
/// the `Result` matches [`from_bytes`].
pub fn to_bytes<T: Wire>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(encoded_len(value)?);
    value.encode(&mut out);
    Ok(out)
}

/// The exact number of bytes [`to_bytes`] produces, without building
/// them.
pub fn encoded_len<T: Wire>(value: &T) -> Result<usize> {
    let mut n = Counter::default();
    value.encode(&mut n);
    Ok(n.0)
}

/// Decodes a value from `bytes`, requiring the input to be consumed
/// exactly (trailing bytes are an error — they indicate framing bugs).
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Implements [`Wire`] for a struct with named fields as the
/// concatenation of the listed fields, which must be all of them in
/// declaration order. Types whose decode must validate implement
/// [`Wire`] by hand instead.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::Wire for $ty {
            #[inline]
            fn encode<S: $crate::Sink>(&self, out: &mut S) {
                $($crate::Wire::encode(&self.$field, out);)*
            }

            fn decode(r: &mut $crate::Reader<'_>) -> $crate::Result<Self> {
                Ok($ty {
                    $($field: $crate::Wire::decode(r)?,)*
                })
            }
        }
    };
}

macro_rules! wire_uint {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            #[inline]
            fn encode<S: Sink>(&self, out: &mut S) {
                out.put_varint(*self as u64);
            }

            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                <$ty>::try_from(r.varint()?)
                    .map_err(|_| invalid(concat!(stringify!($ty), " out of range")))
            }
        }
    )*};
}

wire_uint!(u8, u16, u32, u64, usize);

impl Wire for i64 {
    fn encode<S: Sink>(&self, out: &mut S) {
        out.put_varint(varint::zigzag(*self));
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(varint::unzigzag(r.varint()?))
    }
}

impl Wire for bool {
    fn encode<S: Sink>(&self, out: &mut S) {
        out.put(&[*self as u8]);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(invalid(format!("invalid bool byte {b}"))),
        }
    }
}

impl Wire for String {
    fn encode<S: Sink>(&self, out: &mut S) {
        out.put_varint(self.len() as u64);
        out.put(self.as_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.length()?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| invalid("invalid UTF-8 in string"))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode<S: Sink>(&self, out: &mut S) {
        match self {
            None => out.put(&[0]),
            Some(v) => {
                out.put(&[1]);
                v.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(invalid(format!("invalid option tag {b}"))),
        }
    }
}

macro_rules! wire_tuple {
    ($($name:ident)+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            #[allow(non_snake_case)]
            #[inline]
            fn encode<S: Sink>(&self, out: &mut S) {
                let ($($name,)+) = self;
                $($name.encode(out);)+
            }

            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

wire_tuple!(A B);
wire_tuple!(A B C);

/// Writes a length-prefixed sequence.
#[inline]
fn encode_seq<'a, T: Wire + 'a, S: Sink>(
    out: &mut S,
    len: usize,
    items: impl IntoIterator<Item = &'a T>,
) {
    out.put_varint(len as u64);
    for v in items {
        v.encode(out);
    }
}

/// Reads a length-prefixed sequence into any collection.
fn decode_seq<T: Wire, C: FromIterator<T>>(r: &mut Reader<'_>) -> Result<C> {
    let n = r.length()?;
    (0..n).map(|_| T::decode(r)).collect()
}

impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn encode<S: Sink>(&self, out: &mut S) {
        encode_seq(out, self.len(), self);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        decode_seq(r)
    }
}

impl<T: Wire> Wire for VecDeque<T> {
    fn encode<S: Sink>(&self, out: &mut S) {
        encode_seq(out, self.len(), self);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        decode_seq(r)
    }
}

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn encode<S: Sink>(&self, out: &mut S) {
        encode_seq(out, self.len(), self);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        decode_seq(r)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode<S: Sink>(&self, out: &mut S) {
        out.put_varint(self.len() as u64);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        decode_seq(r)
    }
}

// The shared identifier types. Their impls live here rather than in
// `flexcast-types`, which the codec depends on.

impl Wire for GroupId {
    #[inline]
    fn encode<S: Sink>(&self, out: &mut S) {
        self.0.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(GroupId(u16::decode(r)?))
    }
}

impl Wire for ClientId {
    #[inline]
    fn encode<S: Sink>(&self, out: &mut S) {
        self.0.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(ClientId(u32::decode(r)?))
    }
}

wire_struct!(MsgId { sender, seq });
wire_struct!(Watermarks { clients, edges });

/// A destination set is its eight bitset words, least significant first.
impl Wire for DestSet {
    #[inline]
    fn encode<S: Sink>(&self, out: &mut S) {
        for w in self.words() {
            out.put_varint(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let mut bits = DestSet::EMPTY.bits();
        for w in &mut bits {
            *w = r.varint()?;
        }
        Ok(DestSet::from_bits(bits))
    }
}

/// A payload is raw length-prefixed bytes.
impl Wire for Payload {
    #[inline]
    fn encode<S: Sink>(&self, out: &mut S) {
        out.put_varint(self.len() as u64);
        out.put(self.as_slice());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.length()?;
        Ok(Payload(Bytes::copy_from_slice(r.take(n)?)))
    }
}

/// Decoding goes through [`Message::new`], so an empty destination set
/// from a peer is a decode error rather than a message whose `lca()`
/// panics.
impl Wire for Message {
    #[inline]
    fn encode<S: Sink>(&self, out: &mut S) {
        self.id.encode(out);
        self.dst.encode(out);
        self.payload.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let id = MsgId::decode(r)?;
        let dst = DestSet::decode(r)?;
        let payload = Payload::decode(r)?;
        Message::new(id, dst, payload).map_err(|e| invalid(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = to_bytes(v).unwrap();
        assert_eq!(bytes.len(), encoded_len(v).unwrap());
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(&back, v);
    }

    fn message(payload: Vec<u8>) -> Message {
        Message::new(
            MsgId::new(ClientId(1), 2),
            DestSet::from_iter([GroupId(0), GroupId(5)]),
            Payload::from(payload),
        )
        .unwrap()
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&0u8);
        roundtrip(&255u8);
        roundtrip(&u16::MAX);
        roundtrip(&u32::MAX);
        roundtrip(&u64::MAX);
        roundtrip(&usize::MAX);
        roundtrip(&i64::MIN);
        roundtrip(&(-1i64));
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&"hello λ".to_string());
    }

    #[test]
    fn small_varints_are_one_byte() {
        assert_eq!(to_bytes(&5u64).unwrap().len(), 1);
        assert_eq!(to_bytes(&127u64).unwrap().len(), 1);
        assert_eq!(to_bytes(&128u64).unwrap().len(), 2);
        assert_eq!(to_bytes(&u64::MAX).unwrap().len(), 10);
        // zig-zag: small negatives stay small.
        assert_eq!(to_bytes(&-1i64).unwrap().len(), 1);
        assert_eq!(to_bytes(&-64i64).unwrap().len(), 1);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(&vec![1u32, 2, 3]);
        roundtrip(&Some(42u16));
        roundtrip(&Option::<u16>::None);
        roundtrip(&(1u8, "two".to_string(), 3u64));
        roundtrip(&VecDeque::from([GroupId(4), GroupId(1)]));
        roundtrip(&BTreeSet::from([MsgId::new(ClientId(1), 2)]));
        let mut m = BTreeMap::new();
        m.insert(1u16, "one".to_string());
        m.insert(2, "two".to_string());
        roundtrip(&m);
    }

    #[test]
    fn nested_struct_roundtrips() {
        roundtrip(&vec![Some(message(vec![0, 255, 128])), None]);
        roundtrip(&Watermarks {
            clients: vec![(ClientId(3), 17), (ClientId(u32::MAX), 0)],
            edges: vec![(GroupId(511), u32::MAX)],
        });
    }

    #[test]
    fn flexcast_types_roundtrip() {
        roundtrip(&message(vec![9; 32]));
        roundtrip(&DestSet::all(512));
        roundtrip(&DestSet::EMPTY);
        roundtrip(&Payload::empty());
    }

    /// A message with an empty destination set is rejected on decode:
    /// accepting it would let peer bytes panic the receiver in `lca()`.
    #[test]
    fn empty_destination_message_is_a_decode_error() {
        let mut bytes = to_bytes(&message(vec![])).unwrap();
        // Sender and seq take one byte each; byte 2 is the only nonzero
        // destination word.
        assert_eq!(bytes[2], 0b10_0001);
        bytes[2] = 0;
        assert!(from_bytes::<Message>(&bytes).is_err());
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let bytes = to_bytes(&message(vec![1, 2, 3])).unwrap();
        for cut in 0..bytes.len() {
            let r: Result<Message> = from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&message(vec![])).unwrap();
        bytes.push(0);
        assert!(from_bytes::<Message>(&bytes).is_err());
        assert!(from_bytes::<u32>(&[7, 0]).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        // Length 1, then an invalid UTF-8 byte.
        assert!(from_bytes::<String>(&[1, 0xFF]).is_err());
    }

    #[test]
    fn invalid_bool_rejected() {
        assert!(from_bytes::<bool>(&[2]).is_err());
        assert!(from_bytes::<Option<u8>>(&[2, 0]).is_err());
    }

    #[test]
    fn out_of_range_integers_rejected() {
        assert!(from_bytes::<u8>(&[0x80, 0x02]).is_err());
        assert!(from_bytes::<GroupId>(&to_bytes(&70_000u32).unwrap()).is_err());
        // A length longer than the remaining input.
        assert!(from_bytes::<Vec<u8>>(&[5, 1, 2]).is_err());
    }

    proptest! {
        #[test]
        fn prop_u64_roundtrip(v in any::<u64>()) {
            let b = to_bytes(&v).unwrap();
            prop_assert_eq!(from_bytes::<u64>(&b).unwrap(), v);
        }

        #[test]
        fn prop_i64_roundtrip(v in any::<i64>()) {
            let b = to_bytes(&v).unwrap();
            prop_assert_eq!(from_bytes::<i64>(&b).unwrap(), v);
        }

        #[test]
        fn prop_string_roundtrip(v in ".*") {
            let b = to_bytes(&v).unwrap();
            prop_assert_eq!(from_bytes::<String>(&b).unwrap(), v);
        }

        #[test]
        fn prop_bytes_roundtrip(v in proptest::collection::vec(any::<u8>(), 0..256)) {
            let b = to_bytes(&v).unwrap();
            prop_assert_eq!(from_bytes::<Vec<u8>>(&b).unwrap(), v.clone());
            let p = Payload::from(v);
            prop_assert_eq!(from_bytes::<Payload>(&to_bytes(&p).unwrap()).unwrap(), p);
        }

        #[test]
        fn prop_struct_roundtrip(
            c in any::<u32>(), s in any::<u32>(), w in any::<u64>(),
            raw in proptest::collection::vec(any::<u8>(), 0..64)
        ) {
            let mut bits = DestSet::EMPTY.bits();
            bits[(w % 8) as usize] = w | 1;
            let m = Message::new(MsgId::new(ClientId(c), s), DestSet::from_bits(bits), raw.into())
                .unwrap();
            let b = to_bytes(&m).unwrap();
            prop_assert_eq!(from_bytes::<Message>(&b).unwrap(), m);
        }

        #[test]
        fn prop_size_matches_encoding(v in proptest::collection::vec(any::<u64>(), 0..64)) {
            prop_assert_eq!(encoded_len(&v).unwrap(), to_bytes(&v).unwrap().len());
            let wm = Watermarks {
                clients: v.iter().map(|&x| (ClientId(x as u32), (x >> 32) as u32)).collect(),
                edges: vec![],
            };
            prop_assert_eq!(encoded_len(&wm).unwrap(), to_bytes(&wm).unwrap().len());
        }

        #[test]
        fn prop_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            // Decoding random bytes may fail but must not panic.
            let _ = from_bytes::<Message>(&bytes);
            let _ = from_bytes::<Watermarks>(&bytes);
            let _ = from_bytes::<Vec<Option<(MsgId, DestSet)>>>(&bytes);
            let _ = from_bytes::<BTreeMap<GroupId, String>>(&bytes);
        }
    }
}
