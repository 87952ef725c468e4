//! Real parallel-iterator types mirroring `rayon::iter`.
//!
//! Unlike the PR-1 shim (a blanket extension over std [`Iterator`]), these
//! are dedicated splittable types: a [`ParallelIterator`] knows its length
//! ([`ParallelIterator::len_hint`]), can be cut at any position
//! ([`ParallelIterator::split_at`]), and lowers to an ordinary serial
//! iterator per piece ([`ParallelIterator::into_seq`]). Adapters (`map`,
//! `filter`, `enumerate`, `zip`) compose over that
//! splitting structure; terminals hand the composed iterator to the
//! `crate::engine` which fans pieces out across scoped worker threads.
//!
//! Closure-carrying adapters store their closure in an [`Arc`] so pieces on
//! different workers share one instance — hence the `Sync + Send` bounds on
//! adapter closures, the same bounds real rayon imposes.
//!
//! Semantics notes mirrored from rayon:
//! - `enumerate` / `zip` require an exact-length (indexed) upstream — every
//!   producer here is exact except downstream of `filter`, whose
//!   `len_hint` no longer counts items. Rayon rejects `filter().enumerate()`
//!   at the type level (no `IndexedParallelIterator` impl); this shim
//!   panics at adapter-construction time instead (`is_exact` tracking), so
//!   the misuse fails fast rather than mis-indexing across pieces.
//! - `collect` into `Vec` preserves the serial order: pieces are
//!   concatenated in piece order.

use std::sync::Arc;

use crate::engine::drive_with;

/// A splittable, exactly-sized parallel iterator (rayon's
/// `ParallelIterator` and `IndexedParallelIterator`, collapsed into one
/// trait — see module docs).
pub trait ParallelIterator: Sized + Send {
    /// The type of item this iterator produces.
    type Item: Send;
    /// The serial iterator a piece lowers to.
    type Seq: Iterator<Item = Self::Item>;

    /// Number of splittable positions; the exact item count for every
    /// producer and adapter except downstream of `filter` (upper bound).
    fn len_hint(&self) -> usize;

    /// Cut into `[0, mid)` and `[mid, len)`. `mid ≤ len_hint()`.
    fn split_at(self, mid: usize) -> (Self, Self);

    /// Lower this piece to a serial iterator.
    fn into_seq(self) -> Self::Seq;

    /// Whether `len_hint` is the exact item count at every split position
    /// (true for all producers; false downstream of `filter`).
    /// Position-sensitive adapters (`enumerate`, `zip`) require it.
    #[inline]
    fn is_exact(&self) -> bool {
        true
    }

    // ---- adapters ------------------------------------------------------

    /// Parallel `map`.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync + Send,
        R: Send,
    {
        Map {
            base: self,
            f: Arc::new(f),
        }
    }

    /// Parallel `filter`. Downstream `len_hint` becomes an upper bound.
    fn filter<P>(self, predicate: P) -> Filter<Self, P>
    where
        P: Fn(&Self::Item) -> bool + Sync + Send,
    {
        Filter {
            base: self,
            predicate: Arc::new(predicate),
        }
    }

    /// Pair each item with its global index. Requires an exact-length
    /// upstream (rayon encodes this as `IndexedParallelIterator`; the shim
    /// fails fast instead of silently mis-indexing across pieces).
    fn enumerate(self) -> Enumerate<Self> {
        assert!(
            self.is_exact(),
            "enumerate() requires an exact-length (indexed) parallel \
             iterator; it cannot follow filter()"
        );
        Enumerate {
            base: self,
            offset: 0,
        }
    }

    /// Iterate two parallel iterators in lockstep, truncating to the
    /// shorter. Requires exact-length upstreams (see `enumerate`).
    fn zip<B>(self, other: B) -> Zip<Self, B>
    where
        B: ParallelIterator,
    {
        assert!(
            self.is_exact() && other.is_exact(),
            "zip() requires exact-length (indexed) parallel iterators; \
             it cannot follow filter()"
        );
        Zip { a: self, b: other }
    }

    // ---- terminals -----------------------------------------------------

    /// Run `op` on every item, pieces in parallel.
    fn for_each<OP>(self, op: OP)
    where
        OP: Fn(Self::Item) + Sync + Send,
    {
        drive_with(self, &|| (), &|_: &mut (), piece: Self| {
            piece.into_seq().for_each(&op)
        });
    }

    /// Like `for_each` with a per-worker scratch value: `init` runs at most
    /// once per worker thread that claims work, and that worker reuses the
    /// scratch across all pieces it drains (rayon's contract, which callers
    /// may rely on only for *reuse*, never for a specific init count).
    fn for_each_init<T, INIT, OP>(self, init: INIT, op: OP)
    where
        INIT: Fn() -> T + Sync + Send,
        OP: Fn(&mut T, Self::Item) + Sync + Send,
    {
        drive_with(self, &init, &|scratch: &mut T, piece: Self| {
            piece.into_seq().for_each(|item| op(scratch, item))
        });
    }

    /// Parallel reduction: pieces fold from `identity()`, partial results
    /// combine left-to-right in piece order. `op` must be associative and
    /// `identity()` its neutral element; float reductions may round
    /// differently from serial (grouping, not order, changes).
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync + Send,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        drive_with(self, &|| (), &|_: &mut (), piece: Self| {
            piece.into_seq().fold(identity(), &op)
        })
        .into_iter()
        .reduce(op)
        .unwrap_or_else(identity)
    }

    /// Parallel sum (per-piece sums, combined in piece order).
    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
    {
        drive_with(self, &|| (), &|_: &mut (), piece: Self| {
            piece.into_seq().sum::<S>()
        })
        .into_iter()
        .sum()
    }

    /// Collect into a collection; `Vec` preserves serial order.
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }
}

/// Collection types constructible from a parallel iterator.
pub trait FromParallelIterator<T: Send>: Sized {
    fn from_par_iter<I: ParallelIterator<Item = T>>(it: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(it: I) -> Self {
        let parts = drive_with(it, &|| (), &|_: &mut (), piece: I| {
            piece.into_seq().collect::<Vec<T>>()
        });
        let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for p in parts {
            out.extend(p);
        }
        out
    }
}

// ---- conversion traits -------------------------------------------------

/// `into_par_iter()` for owned collections and ranges.
pub trait IntoParallelIterator {
    type Item: Send;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn into_par_iter(self) -> Self::Iter;
}

/// `par_iter()` — shared-reference iteration.
pub trait IntoParallelRefIterator<'data> {
    type Item: Send + 'data;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn par_iter(&'data self) -> Self::Iter;
}

/// `par_iter_mut()` — exclusive-reference iteration.
pub trait IntoParallelRefMutIterator<'data> {
    type Item: Send + 'data;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

// ---- producers ---------------------------------------------------------

/// Parallel producer over an integer range.
#[derive(Clone, Debug)]
pub struct IterRange<T> {
    start: T,
    end: T,
}

macro_rules! impl_par_range {
    ($($t:ty),+) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            type Iter = IterRange<$t>;
            fn into_par_iter(self) -> IterRange<$t> {
                IterRange { start: self.start, end: self.end }
            }
        }

        impl ParallelIterator for IterRange<$t> {
            type Item = $t;
            type Seq = std::ops::Range<$t>;

            fn len_hint(&self) -> usize {
                if self.end > self.start {
                    // Widen before subtracting: e.g. `i32::MIN..i32::MAX`
                    // overflows the element type.
                    usize::try_from(self.end as i128 - self.start as i128)
                        .unwrap_or(usize::MAX)
                } else {
                    0
                }
            }

            fn split_at(self, mid: usize) -> (Self, Self) {
                // `mid ≤ len`, so `start + mid` fits in the element type;
                // widen the addition to avoid intermediate wraparound.
                let m = (self.start as i128 + mid as i128) as $t;
                (
                    IterRange { start: self.start, end: m },
                    IterRange { start: m, end: self.end },
                )
            }

            fn into_seq(self) -> Self::Seq {
                self.start..self.end
            }
        }
    )+};
}

impl_par_range!(usize, u64, u32, isize, i64, i32);

/// Parallel producer over an owned `Vec`. Splitting moves elements into
/// per-piece `Vec`s (O(n log k) total under the engine's bisection, where
/// real rayon's producer is zero-copy) — for large data prefer `par_iter`
/// on a slice, which splits without copying.
#[derive(Debug)]
pub struct IntoIterVec<T> {
    vec: Vec<T>,
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = IntoIterVec<T>;
    fn into_par_iter(self) -> IntoIterVec<T> {
        IntoIterVec { vec: self }
    }
}

impl<T: Send> ParallelIterator for IntoIterVec<T> {
    type Item = T;
    type Seq = std::vec::IntoIter<T>;

    fn len_hint(&self) -> usize {
        self.vec.len()
    }

    fn split_at(mut self, mid: usize) -> (Self, Self) {
        let tail = self.vec.split_off(mid);
        (self, IntoIterVec { vec: tail })
    }

    fn into_seq(self) -> Self::Seq {
        self.vec.into_iter()
    }
}

// ---- adapters ----------------------------------------------------------

/// Output of [`ParallelIterator::map`].
pub struct Map<I, F> {
    base: I,
    f: Arc<F>,
}

impl<I, F, R> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    F: Fn(I::Item) -> R + Sync + Send,
    R: Send,
{
    type Item = R;
    type Seq = MapSeq<I::Seq, F>;

    fn len_hint(&self) -> usize {
        self.base.len_hint()
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(mid);
        (
            Map {
                base: l,
                f: Arc::clone(&self.f),
            },
            Map { base: r, f: self.f },
        )
    }

    fn into_seq(self) -> Self::Seq {
        MapSeq {
            base: self.base.into_seq(),
            f: self.f,
        }
    }

    fn is_exact(&self) -> bool {
        self.base.is_exact()
    }
}

/// Serial tail of [`Map`].
pub struct MapSeq<S, F> {
    base: S,
    f: Arc<F>,
}

impl<S, F, R> Iterator for MapSeq<S, F>
where
    S: Iterator,
    F: Fn(S::Item) -> R,
{
    type Item = R;

    fn next(&mut self) -> Option<R> {
        self.base.next().map(|x| (self.f)(x))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.base.size_hint()
    }
}

/// Output of [`ParallelIterator::filter`].
pub struct Filter<I, P> {
    base: I,
    predicate: Arc<P>,
}

impl<I, P> ParallelIterator for Filter<I, P>
where
    I: ParallelIterator,
    P: Fn(&I::Item) -> bool + Sync + Send,
{
    type Item = I::Item;
    type Seq = FilterSeq<I::Seq, P>;

    fn len_hint(&self) -> usize {
        self.base.len_hint() // upper bound
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(mid);
        (
            Filter {
                base: l,
                predicate: Arc::clone(&self.predicate),
            },
            Filter {
                base: r,
                predicate: self.predicate,
            },
        )
    }

    fn into_seq(self) -> Self::Seq {
        FilterSeq {
            base: self.base.into_seq(),
            predicate: self.predicate,
        }
    }

    // The item count no longer matches `len_hint`.
    fn is_exact(&self) -> bool {
        false
    }
}

/// Serial tail of [`Filter`].
pub struct FilterSeq<S, P> {
    base: S,
    predicate: Arc<P>,
}

impl<S, P> Iterator for FilterSeq<S, P>
where
    S: Iterator,
    P: Fn(&S::Item) -> bool,
{
    type Item = S::Item;

    fn next(&mut self) -> Option<S::Item> {
        loop {
            let x = self.base.next()?;
            if (self.predicate)(&x) {
                return Some(x);
            }
        }
    }
}

/// Output of [`ParallelIterator::enumerate`].
pub struct Enumerate<I> {
    base: I,
    offset: usize,
}

impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);
    type Seq = std::iter::Zip<std::ops::RangeFrom<usize>, I::Seq>;

    fn len_hint(&self) -> usize {
        self.base.len_hint()
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(mid);
        (
            Enumerate {
                base: l,
                offset: self.offset,
            },
            Enumerate {
                base: r,
                offset: self.offset + mid,
            },
        )
    }

    fn into_seq(self) -> Self::Seq {
        (self.offset..).zip(self.base.into_seq())
    }

    fn is_exact(&self) -> bool {
        self.base.is_exact()
    }
}

/// Output of [`ParallelIterator::zip`].
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A, B> ParallelIterator for Zip<A, B>
where
    A: ParallelIterator,
    B: ParallelIterator,
{
    type Item = (A::Item, B::Item);
    type Seq = std::iter::Zip<A::Seq, B::Seq>;

    fn len_hint(&self) -> usize {
        self.a.len_hint().min(self.b.len_hint())
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (al, ar) = self.a.split_at(mid);
        let (bl, br) = self.b.split_at(mid);
        (Zip { a: al, b: bl }, Zip { a: ar, b: br })
    }

    fn into_seq(self) -> Self::Seq {
        self.a.into_seq().zip(self.b.into_seq())
    }

    fn is_exact(&self) -> bool {
        self.a.is_exact() && self.b.is_exact()
    }
}
