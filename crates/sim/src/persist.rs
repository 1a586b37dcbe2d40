//! Run-state persistence: every runtime type saves and loads its own
//! state through [`Persist`], so a checkpoint has one representation —
//! the runtime values themselves — and one codec per type, written
//! beside the type.
//!
//! # Encoding
//!
//! Integers are LEB128 varints, `f64`s and other bit patterns are eight
//! little-endian bytes, strings and collections carry a varint length,
//! an `Option` a `0`/`1` presence byte, and a fieldless enum one byte:
//! its index in the enum's tag table ([`Enc::tag`], [`Dec::tag`]).
//!
//! # Loading
//!
//! [`Persist::load`] overwrites the *run state* of a value that was
//! already built from configuration (a MAC from its config and address,
//! a radio from its profile): configuration is never encoded, and a
//! payload that does not fit the value it is loaded into — a part the
//! configuration does not have, a discriminant outside the tag table, an
//! all-zero RNG state, an id past the bound set by [`Dec::limit_ids`] —
//! is a [`DecodeError`], never a panic.

use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

/// Why a payload could not be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(String);

impl DecodeError {
    /// An error with the given description.
    pub fn new(msg: impl Into<String>) -> Self {
        DecodeError(msg.into())
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DecodeError {}

type Res<T> = Result<T, DecodeError>;

/// A value whose run state can be saved to and loaded from a payload.
pub trait Persist {
    /// Appends the value's run state to `e`.
    fn save(&self, e: &mut Enc);
    /// Overwrites the value's run state with the next one in `d`.
    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError>;
}

/// Implements [`Persist`] from a list: a struct as its listed fields in
/// order; a fieldless enum as a one-byte index into its tag table; an
/// enum with fields as each variant's tag byte, then its fields in order.
///
/// ```
/// use bcp_sim::persist::{Dec, Enc, Persist};
///
/// #[derive(Debug, Default, PartialEq)]
/// struct Counters { sent: u64, lost: u32 }
/// bcp_sim::persist!(struct Counters { sent, lost });
/// #[derive(Debug, Clone, Copy, PartialEq)]
/// enum Mode { Idle, Busy }
/// bcp_sim::persist!(enum Mode = [Mode::Idle, Mode::Busy]);
/// #[derive(Debug, PartialEq)]
/// enum Msg { Ping(u32), Move { x: u64, y: u64 }, Stop }
/// bcp_sim::persist!(enum Msg { 0 => Ping(n), 1 => Move { x, y }, 2 => Stop });
///
/// let mut e = Enc::new();
/// (Counters { sent: 300, lost: 2 }, Mode::Busy).save(&mut e);
/// Msg::Move { x: 1, y: 2 }.save(&mut e);
/// let bytes = e.into_bytes();
/// assert_eq!(bytes, [0xac, 0x02, 0x02, 0x01, 0x01, 0x01, 0x02]);
/// let mut msg = Msg::Stop;
/// let mut d = Dec::new(&bytes[4..]);
/// msg.load(&mut d).unwrap();
/// assert_eq!(msg, Msg::Move { x: 1, y: 2 });
/// ```
#[macro_export]
macro_rules! persist {
    (struct $ty:ty { $($field:tt),+ $(,)? }) => {
        impl $crate::persist::Persist for $ty {
            fn save(&self, e: &mut $crate::persist::Enc) {
                $($crate::persist::Persist::save(&self.$field, e);)+
            }
            fn load(
                &mut self,
                d: &mut $crate::persist::Dec<'_>,
            ) -> ::std::result::Result<(), $crate::persist::DecodeError> {
                $($crate::persist::Persist::load(&mut self.$field, d)?;)+
                Ok(())
            }
        }
    };
    (enum $ty:ident {
        $($tag:literal => $variant:ident $({ $($field:ident),* })? $(( $($pos:ident),* ))?),+ $(,)?
    }) => {
        impl $crate::persist::Persist for $ty {
            fn save(&self, e: &mut $crate::persist::Enc) {
                match self {
                    $($ty::$variant $({ $($field),* })? $(( $($pos),* ))? => {
                        e.u8($tag);
                        $($($crate::persist::Persist::save($field, e);)*)?
                        $($($crate::persist::Persist::save($pos, e);)*)?
                    })+
                }
            }
            fn load(
                &mut self,
                d: &mut $crate::persist::Dec<'_>,
            ) -> ::std::result::Result<(), $crate::persist::DecodeError> {
                *self = match d.u8()? {
                    $($tag => $ty::$variant
                        $({ $($field: d.read()?),* })?
                        $(( $({ let $pos = d.read()?; $pos }),* ))?,)+
                    b => {
                        return Err($crate::persist::DecodeError::new(format!(
                            concat!("invalid ", stringify!($ty), " tag {}"),
                            b
                        )))
                    }
                };
                Ok(())
            }
        }
    };
    (enum $ty:ty = $table:expr) => {
        impl $crate::persist::Persist for $ty {
            fn save(&self, e: &mut $crate::persist::Enc) {
                e.tag(&$table, self);
            }
            fn load(
                &mut self,
                d: &mut $crate::persist::Dec<'_>,
            ) -> ::std::result::Result<(), $crate::persist::DecodeError> {
                *self = d.tag(&$table, stringify!($ty))?;
                Ok(())
            }
        }
    };
}

/// The payload writer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

// The primitives are `#[inline]`: the codecs that call them live in
// other crates, and a call per varint slowed saving and loading.
impl Enc {
    /// An empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// One raw byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A varint.
    #[inline]
    pub fn u64(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                return;
            }
            self.buf.push(b | 0x80);
        }
    }

    /// A varint of up to 128 bits.
    pub fn u128(&mut self, mut v: u128) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                return;
            }
            self.buf.push(b | 0x80);
        }
    }

    /// Eight little-endian bytes: for bit patterns, which varints would
    /// stretch to ten.
    #[inline]
    pub fn fixed64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A string: its byte length, then its UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// A collection length.
    #[inline]
    pub fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// A fieldless enum value as its index in `table`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not in `table` (an incomplete tag table).
    pub fn tag<T: PartialEq + fmt::Debug>(&mut self, table: &[T], v: &T) {
        let i = table
            .iter()
            .position(|t| t == v)
            .unwrap_or_else(|| panic!("{v:?} is missing from its tag table"));
        self.u8(i as u8);
    }

    /// An optional part whose presence the configuration fixes (see
    /// [`Dec::present`]): the presence byte, then the part.
    pub fn present<T: Persist>(&mut self, v: &Option<T>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                x.save(self);
            }
        }
    }
}

/// The payload reader. Every read is bounds-checked: running off the end
/// of the payload is a [`DecodeError`].
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    ids: u64,
}

impl<'a> Dec<'a> {
    /// A reader over `buf`, with no bound on ids.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec {
            buf,
            pos: 0,
            ids: u64::MAX,
        }
    }

    /// Bytes not read yet.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Bounds the ids [`Dec::check_id`] accepts to `0..n`: the loads of
    /// id-typed fields (node ids, and the node part of ids derived from
    /// them) check against it, so an out-of-range id is refused in one
    /// place however deep it sits.
    pub fn limit_ids(&mut self, n: usize) {
        self.ids = n as u64;
    }

    /// Refuses an id outside the bound set by [`Dec::limit_ids`].
    #[inline]
    pub fn check_id(&self, id: u64) -> Res<()> {
        if id >= self.ids {
            return Err(DecodeError::new(format!(
                "id {id} is out of range (the world has {})",
                self.ids
            )));
        }
        Ok(())
    }

    /// Refuses a table indexed by id (one entry per id) whose length is
    /// not the bound set by [`Dec::limit_ids`]; without a bound any
    /// length passes.
    pub fn check_table(&self, len: usize, what: &str) -> Res<()> {
        if self.ids != u64::MAX && len as u64 != self.ids {
            return Err(DecodeError::new(format!(
                "{what} has {len} rows for {} ids",
                self.ids
            )));
        }
        Ok(())
    }

    /// A varint `u32` id, checked by [`Dec::check_id`].
    #[inline]
    pub fn id(&mut self) -> Res<u32> {
        let id: u32 = self.narrow("u32")?;
        self.check_id(id as u64)?;
        Ok(id)
    }

    /// One raw byte.
    #[inline]
    pub fn u8(&mut self) -> Res<u8> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| DecodeError::new("unexpected end of payload"))?;
        self.pos += 1;
        Ok(b)
    }

    /// A `0`/`1` byte.
    #[inline]
    pub fn boolean(&mut self) -> Res<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError::new(format!("invalid bool byte {b}"))),
        }
    }

    /// A varint.
    #[inline]
    pub fn u64(&mut self) -> Res<u64> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(DecodeError::new("varint longer than 64 bits"))
    }

    /// A varint of up to 128 bits.
    pub fn u128(&mut self) -> Res<u128> {
        let mut v: u128 = 0;
        for shift in (0..128).step_by(7) {
            let b = self.u8()?;
            v |= ((b & 0x7f) as u128) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(DecodeError::new("varint longer than 128 bits"))
    }

    /// A varint that must fit a narrower integer type.
    fn narrow<T: TryFrom<u64>>(&mut self, what: &str) -> Res<T> {
        T::try_from(self.u64()?).map_err(|_| DecodeError::new(format!("{what} out of range")))
    }

    /// Eight little-endian bytes.
    #[inline]
    pub fn fixed64(&mut self) -> Res<u64> {
        let bytes = self
            .buf
            .get(self.pos..self.pos + 8)
            .ok_or_else(|| DecodeError::new("unexpected end of payload in a fixed 64-bit field"))?;
        self.pos += 8;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// A string written by [`Enc::str`].
    pub fn str(&mut self) -> Res<String> {
        let n = self.len()?;
        let s = std::str::from_utf8(&self.buf[self.pos..self.pos + n])
            .map_err(|_| DecodeError::new("string is not UTF-8"))?
            .to_owned();
        self.pos += n;
        Ok(s)
    }

    /// A collection length, bounded by the bytes actually remaining so a
    /// crafted length cannot trigger a huge allocation.
    #[inline]
    // Reads a length; the reader itself has no length to pair with
    // `is_empty`.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Res<usize> {
        let n: usize = self.narrow("usize")?;
        if n > self.remaining() {
            return Err(DecodeError::new(format!(
                "collection of {n} items exceeds payload"
            )));
        }
        Ok(n)
    }

    /// A fresh value with the next run state loaded into it.
    pub fn read<T: Persist + Default>(&mut self) -> Res<T> {
        let mut v = T::default();
        v.load(self)?;
        Ok(v)
    }

    /// A fieldless enum value written by [`Enc::tag`] with the same table.
    pub fn tag<T: Copy>(&mut self, table: &[T], what: &str) -> Res<T> {
        let b = self.u8()?;
        table
            .get(b as usize)
            .copied()
            .ok_or_else(|| DecodeError::new(format!("invalid {what} tag {b}")))
    }

    /// Loads an optional part whose presence the configuration already
    /// fixed — a high radio, a BCP machine, a battery: the payload must
    /// carry the part exactly when `v` has it.
    pub fn present<T: Persist>(&mut self, v: &mut Option<T>, what: &str) -> Res<()> {
        match (self.boolean()?, v) {
            (false, None) => Ok(()),
            (true, Some(x)) => x.load(self),
            _ => Err(DecodeError::new(format!(
                "the payload and the scenario disagree on a {what}"
            ))),
        }
    }
}

/// `Persist` for value types, from how each saves and loads a whole value.
macro_rules! scalar {
    ($($t:ty: |$v:ident, $e:ident| $save:expr, |$d:ident| $load:expr;)+) => {$(
        impl Persist for $t {
            #[inline]
            fn save(&self, $e: &mut Enc) {
                let $v = self;
                $save;
            }
            #[inline]
            fn load(&mut self, $d: &mut Dec<'_>) -> Res<()> {
                *self = $load;
                Ok(())
            }
        }
    )+};
}

scalar! {
    u16: |v, e| e.u64(*v as u64), |d| d.narrow("u16")?;
    u32: |v, e| e.u64(*v as u64), |d| d.narrow("u32")?;
    u64: |v, e| e.u64(*v), |d| d.u64()?;
    usize: |v, e| e.u64(*v as u64), |d| d.narrow("usize")?;
    u128: |v, e| e.u128(*v), |d| d.u128()?;
    bool: |v, e| e.u8(*v as u8), |d| d.boolean()?;
    f64: |v, e| e.fixed64(v.to_bits()), |d| f64::from_bits(d.fixed64()?);
    String: |v, e| e.str(v), |d| d.str()?;
    SimTime: |v, e| e.u64(v.as_nanos()), |d| SimTime::from_nanos(d.u64()?);
    SimDuration: |v, e| e.u64(v.as_nanos()), |d| SimDuration::from_nanos(d.u64()?);
}

/// The raw xoshiro state, four varint words. An all-zero state (which
/// the generator can never reach) is refused.
impl Persist for Rng {
    fn save(&self, e: &mut Enc) {
        for w in self.state() {
            e.u64(w);
        }
    }
    fn load(&mut self, d: &mut Dec<'_>) -> Res<()> {
        let s: [u64; 4] = d.read()?;
        if s == [0; 4] {
            return Err(DecodeError::new("all-zero RNG state"));
        }
        *self = Rng::from_state(s);
        Ok(())
    }
}

/// A data option: a value the run may or may not have produced. (Parts
/// whose presence configuration fixes use [`Enc::present`] and
/// [`Dec::present`] instead.)
impl<T: Persist + Default> Persist for Option<T> {
    fn save(&self, e: &mut Enc) {
        e.present(self);
    }
    fn load(&mut self, d: &mut Dec<'_>) -> Res<()> {
        *self = match d.u8()? {
            0 => None,
            1 => Some(d.read()?),
            b => return Err(DecodeError::new(format!("invalid option byte {b}"))),
        };
        Ok(())
    }
}

/// Sequences: a length, then the elements.
macro_rules! seq {
    ($($c:ident . $push:ident),+) => {$(
        impl<T: Persist + Default> Persist for $c<T> {
            fn save(&self, e: &mut Enc) {
                e.len(self.len());
                for x in self {
                    x.save(e);
                }
            }
            fn load(&mut self, d: &mut Dec<'_>) -> Res<()> {
                let n = d.len()?;
                self.clear();
                self.reserve(n);
                for _ in 0..n {
                    self.$push(d.read()?);
                }
                Ok(())
            }
        }
    )+};
}

seq!(Vec.push, VecDeque.push_back);

/// Saved sorted by key, so equal maps save equal bytes whatever their
/// hash order.
impl<K: Persist + Default + Ord + Hash, V: Persist + Default> Persist for HashMap<K, V> {
    fn save(&self, e: &mut Enc) {
        let mut sorted: Vec<(&K, &V)> = self.iter().collect();
        sorted.sort_unstable_by(|a, b| a.0.cmp(b.0));
        e.len(sorted.len());
        for (k, v) in sorted {
            k.save(e);
            v.save(e);
        }
    }
    fn load(&mut self, d: &mut Dec<'_>) -> Res<()> {
        let n = d.len()?;
        self.clear();
        self.reserve(n);
        for _ in 0..n {
            let k = d.read()?;
            self.insert(k, d.read()?);
        }
        Ok(())
    }
}

impl<K: Persist + Default + Ord, V: Persist + Default> Persist for BTreeMap<K, V> {
    fn save(&self, e: &mut Enc) {
        e.len(self.len());
        for (k, v) in self {
            k.save(e);
            v.save(e);
        }
    }
    fn load(&mut self, d: &mut Dec<'_>) -> Res<()> {
        let n = d.len()?;
        self.clear();
        for _ in 0..n {
            let k = d.read()?;
            self.insert(k, d.read()?);
        }
        Ok(())
    }
}

/// An array has a fixed length, so none is written; each element loads
/// in place.
impl<T: Persist, const N: usize> Persist for [T; N] {
    fn save(&self, e: &mut Enc) {
        for x in self {
            x.save(e);
        }
    }
    fn load(&mut self, d: &mut Dec<'_>) -> Res<()> {
        for x in self {
            x.load(d)?;
        }
        Ok(())
    }
}

impl<T: Persist + Default> Persist for Arc<T> {
    fn save(&self, e: &mut Enc) {
        (**self).save(e);
    }
    fn load(&mut self, d: &mut Dec<'_>) -> Res<()> {
        *self = Arc::new(d.read()?);
        Ok(())
    }
}

macro_rules! tuple {
    ($($name:ident . $i:tt),+) => {
        impl<$($name: Persist),+> Persist for ($($name,)+) {
            fn save(&self, e: &mut Enc) {
                $(self.$i.save(e);)+
            }
            fn load(&mut self, d: &mut Dec<'_>) -> Res<()> {
                $(self.$i.load(d)?;)+
                Ok(())
            }
        }
    };
}

tuple!(A.0, B.1);
tuple!(A.0, B.1, C.2);
