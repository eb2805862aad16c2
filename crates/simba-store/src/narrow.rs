//! Integers stored at the narrowest width their values need.
//!
//! A [`NarrowVec<T>`] holds `T` values — `i64` column values or `u32`
//! dictionary codes — in the narrowest of four lanes (1, 2, 4 or 8 bytes
//! per value) that holds every value it was given. It starts at one byte
//! and widens only when a pushed value does not fit; it never narrows. The
//! width is therefore a function of the values alone: a column built row
//! by row, assembled chunk by chunk or decoded from wire blocks stores the
//! same values at the same width, and `==` on two vectors is bitwise.
//!
//! Values are stored as they are (plain sign extension, no frame of
//! reference), so a value read back is the value pushed and every reader
//! compares against full-width `i64` bounds. Readers pick the width once
//! per batch with [`for_width!`](crate::for_width), which expands a loop
//! body once per lane; [`NarrowVec::get`] widens one value at a time for
//! the row-at-a-time paths.

use std::fmt::Debug;
use std::ops::Range;

/// One storage lane of a [`NarrowInt`]: a primitive that widens to `T`
/// and into which a `T` narrows when it fits.
pub trait Lane<T>: Copy + Eq + Debug + Into<T> + TryFrom<T> {}

impl<T, L: Copy + Eq + Debug + Into<T> + TryFrom<T>> Lane<T> for L {}

/// A logical integer type a [`NarrowVec`] stores, with its lanes from
/// narrowest to widest.
pub trait NarrowInt: Copy + Eq + Debug {
    /// One-byte lane.
    type W1: Lane<Self>;
    /// Two-byte lane.
    type W2: Lane<Self>;
    /// Four-byte lane.
    type W4: Lane<Self>;
    /// Widest lane.
    type W8: Lane<Self>;
}

/// Int column values: `i8` / `i16` / `i32` / `i64`.
impl NarrowInt for i64 {
    type W1 = i8;
    type W2 = i16;
    type W4 = i32;
    type W8 = i64;
}

/// Dictionary codes: `u8` / `u16` / `u32`. Every code fits four bytes, so
/// the widest lane is never reached and is `u32` as well.
impl NarrowInt for u32 {
    type W1 = u8;
    type W2 = u16;
    type W4 = u32;
    type W8 = u32;
}

/// The lanes' storage; the variant is the width.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Store<T: NarrowInt> {
    W1(Vec<T::W1>),
    W2(Vec<T::W2>),
    W4(Vec<T::W4>),
    W8(Vec<T::W8>),
}

/// A vector of `T` stored at the narrowest lane that holds all its values
/// (see the [module docs](self)). Equality compares width and values, so
/// it is physical equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NarrowVec<T: NarrowInt>(Store<T>);

/// A [`NarrowVec`]'s values as a slice of the lane they are stored in —
/// what [`for_width!`](crate::for_width) matches on.
#[derive(Debug)]
pub enum Lanes<'a, T: NarrowInt> {
    /// One byte per value.
    W1(&'a [T::W1]),
    /// Two bytes per value.
    W2(&'a [T::W2]),
    /// Four bytes per value.
    W4(&'a [T::W4]),
    /// The widest lane.
    W8(&'a [T::W8]),
}

/// Run `$body` with `$lane` bound to the values of a
/// [`NarrowVec`](crate::narrow::NarrowVec) as a plain slice of their lane.
/// The width is matched once and the body expanded once per width, so each
/// copy is a monomorphic loop over primitives; inside it, `$lane[i] as i64`
/// (or `as usize` for codes) reads a value at full width.
///
/// ```
/// use simba_store::narrow::NarrowVec;
/// let v: NarrowVec<i64> = vec![3, -200, 7].into();
/// let sum: i64 = simba_store::for_width!(&v, |lane| lane.iter().map(|&x| x as i64).sum());
/// assert_eq!((sum, v.width()), (-190, 2));
/// ```
#[macro_export]
macro_rules! for_width {
    ($vec:expr, |$lane:ident| $body:expr) => {
        match $crate::narrow::NarrowVec::lanes($vec) {
            #[allow(
                clippy::unnecessary_cast,
                reason = "a lane may be the logical type itself, where the cast the body spells for every lane is a no-op"
            )]
            $crate::narrow::Lanes::W1($lane) => $body,
            #[allow(
                clippy::unnecessary_cast,
                reason = "a lane may be the logical type itself, where the cast the body spells for every lane is a no-op"
            )]
            $crate::narrow::Lanes::W2($lane) => $body,
            #[allow(
                clippy::unnecessary_cast,
                reason = "a lane may be the logical type itself, where the cast the body spells for every lane is a no-op"
            )]
            $crate::narrow::Lanes::W4($lane) => $body,
            #[allow(
                clippy::unnecessary_cast,
                reason = "a lane may be the logical type itself, where the cast the body spells for every lane is a no-op"
            )]
            $crate::narrow::Lanes::W8($lane) => $body,
        }
    };
}

/// Push `v` onto `lane` if it fits there.
#[inline]
fn put<T, L: Lane<T>>(lane: &mut Vec<L>, v: T) -> bool {
    match L::try_from(v) {
        Ok(x) => {
            lane.push(x);
            true
        }
        Err(_) => false,
    }
}

/// `values` re-stored in lane `L`, with room for `capacity` values.
fn relane<T: NarrowInt, L: Lane<T>>(values: &NarrowVec<T>, capacity: usize) -> Vec<L> {
    let mut lane = Vec::with_capacity(capacity);
    // A wider lane holds every value of a narrower one.
    lane.extend(values.iter().filter_map(|v| L::try_from(v).ok()));
    debug_assert_eq!(lane.len(), values.len());
    lane
}

impl<T: NarrowInt> NarrowVec<T> {
    /// An empty vector with room for `capacity` one-byte values (widening
    /// keeps the room, in values).
    pub fn with_capacity(capacity: usize) -> NarrowVec<T> {
        NarrowVec(Store::W1(Vec::with_capacity(capacity)))
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match &self.0 {
            Store::W1(v) => v.len(),
            Store::W2(v) => v.len(),
            Store::W4(v) => v.len(),
            Store::W8(v) => v.len(),
        }
    }

    /// True when the vector holds no value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes per value: 1, 2, 4 or 8.
    pub fn width(&self) -> usize {
        match &self.0 {
            Store::W1(_) => size_of::<T::W1>(),
            Store::W2(_) => size_of::<T::W2>(),
            Store::W4(_) => size_of::<T::W4>(),
            Store::W8(_) => size_of::<T::W8>(),
        }
    }

    /// Bytes the values occupy: length times width.
    pub fn byte_size(&self) -> usize {
        self.len() * self.width()
    }

    /// Value `i`, widened.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        match &self.0 {
            Store::W1(v) => v[i].into(),
            Store::W2(v) => v[i].into(),
            Store::W4(v) => v[i].into(),
            Store::W8(v) => v[i].into(),
        }
    }

    /// Every value in order, widened.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// The values as a slice of their lane.
    pub fn lanes(&self) -> Lanes<'_, T> {
        match &self.0 {
            Store::W1(v) => Lanes::W1(v),
            Store::W2(v) => Lanes::W2(v),
            Store::W4(v) => Lanes::W4(v),
            Store::W8(v) => Lanes::W8(v),
        }
    }

    /// Append `v`, widening every value first if `v` does not fit.
    #[inline]
    pub fn push(&mut self, v: T) {
        let fits = match &mut self.0 {
            Store::W1(lane) => put(lane, v),
            Store::W2(lane) => put(lane, v),
            Store::W4(lane) => put(lane, v),
            Store::W8(lane) => put(lane, v),
        };
        if !fits {
            self.widen_to(Self::rank_of(v));
            self.push(v);
        }
    }

    /// Append every value of `other`, at the wider of the two widths.
    pub fn extend_from(&mut self, other: &NarrowVec<T>) {
        self.widen_to(other.rank());
        crate::for_width!(other, |lane| self.extend(lane.iter().map(|&x| x.into())))
    }

    /// Values `range` as a vector of their own, at the narrowest width that
    /// holds them.
    ///
    /// # Panics
    /// Panics if `range` is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> NarrowVec<T> {
        crate::for_width!(self, |lane| lane[range].iter().map(|&x| x.into()).collect())
    }

    /// Make room for `additional` more values at the current width.
    pub fn reserve_exact(&mut self, additional: usize) {
        match &mut self.0 {
            Store::W1(v) => v.reserve_exact(additional),
            Store::W2(v) => v.reserve_exact(additional),
            Store::W4(v) => v.reserve_exact(additional),
            Store::W8(v) => v.reserve_exact(additional),
        }
    }

    /// Lane rank, narrowest first.
    fn rank(&self) -> u8 {
        match &self.0 {
            Store::W1(_) => 0,
            Store::W2(_) => 1,
            Store::W4(_) => 2,
            Store::W8(_) => 3,
        }
    }

    /// Rank of the narrowest lane that holds `v`.
    fn rank_of(v: T) -> u8 {
        if T::W1::try_from(v).is_ok() {
            0
        } else if T::W2::try_from(v).is_ok() {
            1
        } else if T::W4::try_from(v).is_ok() {
            2
        } else {
            3
        }
    }

    fn capacity(&self) -> usize {
        match &self.0 {
            Store::W1(v) => v.capacity(),
            Store::W2(v) => v.capacity(),
            Store::W4(v) => v.capacity(),
            Store::W8(v) => v.capacity(),
        }
    }

    /// Re-store every value in the lane of rank `rank` when that is wider
    /// than the current one, keeping the room for values.
    fn widen_to(&mut self, rank: u8) {
        if rank <= self.rank() {
            return;
        }
        let capacity = self.capacity();
        self.0 = match rank {
            1 => Store::W2(relane(self, capacity)),
            2 => Store::W4(relane(self, capacity)),
            _ => Store::W8(relane(self, capacity)),
        };
    }
}

impl<T: NarrowInt> Extend<T> for NarrowVec<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, values: I) {
        for v in values {
            self.push(v);
        }
    }
}

impl<T: NarrowInt> FromIterator<T> for NarrowVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(values: I) -> NarrowVec<T> {
        let values = values.into_iter();
        let mut vec = NarrowVec::with_capacity(values.size_hint().0);
        vec.extend(values);
        vec
    }
}

impl<T: NarrowInt> From<Vec<T>> for NarrowVec<T> {
    fn from(values: Vec<T>) -> NarrowVec<T> {
        values.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_narrow_and_widens_only_for_a_value_that_does_not_fit() {
        let mut v = NarrowVec::<i64>::with_capacity(8);
        v.push(-128);
        v.push(127);
        assert_eq!(v.width(), 1);
        v.push(128);
        assert_eq!(v.width(), 2);
        v.push(-1);
        assert_eq!(v.width(), 2, "a value that fits never narrows");
        v.push(i64::from(i32::MIN));
        assert_eq!(v.width(), 4);
        v.push(i64::MAX);
        assert_eq!(v.width(), 8);
        assert_eq!(
            v.iter().collect::<Vec<_>>(),
            [-128, 127, 128, -1, i64::from(i32::MIN), i64::MAX]
        );
        assert_eq!(v.byte_size(), 6 * 8);
    }

    #[test]
    fn codes_are_unsigned_and_stop_at_four_bytes() {
        let widths = |codes: &[u32]| NarrowVec::from(codes.to_vec()).width();
        assert_eq!(widths(&[0, 255]), 1);
        assert_eq!(widths(&[256]), 2);
        assert_eq!(widths(&[65_535]), 2);
        assert_eq!(widths(&[65_536]), 4);
        assert_eq!(widths(&[u32::MAX]), 4);
    }

    #[test]
    fn width_is_a_function_of_the_values() {
        let values: Vec<i64> = vec![1, 40_000, -3, 9];
        let pushed: NarrowVec<i64> = values.iter().copied().collect();
        let mut pieces = NarrowVec::with_capacity(0);
        for part in [&values[..1], &values[1..]] {
            pieces.extend_from(&part.to_vec().into());
        }
        assert_eq!(pushed, pieces);
        assert_eq!(pushed.width(), 4);
        // A slice of small values is stored narrow again.
        assert_eq!(pushed.slice(2..4), NarrowVec::from(vec![-3, 9]));
        assert_eq!(pushed.slice(2..4).width(), 1);
    }
}
