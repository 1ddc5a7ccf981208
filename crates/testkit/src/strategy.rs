//! Value-generation strategies (the `Strategy` trait and combinators).

use std::ops::{Range, RangeInclusive};

use crate::test_runner::TestRng;

/// A recipe for generating random values of one type.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f` (proptest's `prop_map`).
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }

    /// Builds a *dependent* strategy from each generated value and
    /// generates from it (proptest's `prop_flat_map`) — e.g. pick a
    /// buffer length first, then index ranges valid for that length.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, T> Strategy for FlatMap<S, F>
where
    S: Strategy,
    T: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T::Value;

    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, T> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always generates a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() as i128 - *self.start() as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                (*self.start() as i128 + rng.below(span as u64) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($name:ident),+);)*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A);
    (A, B);
    (A, B, C);
    (A, B, C, D);
    (A, B, C, D, E);
    (A, B, C, D, E, F);
    (A, B, C, D, E, F, G);
    (A, B, C, D, E, F, G, H);
}

/// Strategy generating `Vec`s with lengths drawn from a size range.
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    min: usize,
    max_exclusive: usize,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = (Range {
            start: self.min,
            end: self.max_exclusive,
        })
        .generate(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// Size specification for [`vec()`]; built from `usize` ranges.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max_exclusive: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> SizeRange {
        SizeRange {
            min: r.start,
            max_exclusive: r.end,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> SizeRange {
        SizeRange {
            min: *r.start(),
            max_exclusive: r.end() + 1,
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange {
            min: n,
            max_exclusive: n + 1,
        }
    }
}

/// `prop::collection::vec`: vectors of `element` values with a length
/// in `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    let size = size.into();
    assert!(size.min < size.max_exclusive, "empty vec size range");
    VecStrategy {
        element,
        min: size.min,
        max_exclusive: size.max_exclusive,
    }
}

/// Strategy generating fixed-size arrays from one element strategy.
#[derive(Debug, Clone)]
pub struct ArrayStrategy<S, const N: usize> {
    element: S,
}

impl<S: Strategy, const N: usize> Strategy for ArrayStrategy<S, N> {
    type Value = [S::Value; N];

    fn generate(&self, rng: &mut TestRng) -> [S::Value; N] {
        core::array::from_fn(|_| self.element.generate(rng))
    }
}

/// `prop::array::uniform12`.
pub fn uniform12<S: Strategy>(element: S) -> ArrayStrategy<S, 12> {
    ArrayStrategy { element }
}

/// `prop::array::uniform16`.
pub fn uniform16<S: Strategy>(element: S) -> ArrayStrategy<S, 16> {
    ArrayStrategy { element }
}

/// `prop::array::uniform32`.
pub fn uniform32<S: Strategy>(element: S) -> ArrayStrategy<S, 32> {
    ArrayStrategy { element }
}

/// String patterns: a `&str` is itself a strategy generating strings
/// matching a small regex subset — literal characters, `[a-z0-9]`
/// character classes (with ranges), and `{m,n}` / `{n}` repetition.
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let atoms = parse_pattern(self);
        let mut out = String::new();
        for atom in &atoms {
            let reps = if atom.max_reps == atom.min_reps {
                atom.min_reps
            } else {
                atom.min_reps + rng.below((atom.max_reps - atom.min_reps + 1) as u64) as usize
            };
            for _ in 0..reps {
                let i = rng.below(atom.chars.len() as u64) as usize;
                out.push(atom.chars[i]);
            }
        }
        out
    }
}

struct PatternAtom {
    chars: Vec<char>,
    min_reps: usize,
    max_reps: usize,
}

/// Parses the supported regex subset; panics on anything else so an
/// unsupported pattern fails loudly rather than generating garbage.
fn parse_pattern(pattern: &str) -> Vec<PatternAtom> {
    let mut atoms = Vec::new();
    let mut chars = pattern.chars().peekable();
    while let Some(c) = chars.next() {
        let set: Vec<char> = match c {
            '[' => {
                let mut set = Vec::new();
                loop {
                    match chars.next() {
                        Some(']') => break,
                        Some(lo) => {
                            if chars.peek() == Some(&'-') {
                                chars.next();
                                let hi = chars
                                    .next()
                                    .unwrap_or_else(|| panic!("unterminated range in {pattern:?}"));
                                assert!(lo <= hi, "inverted range in {pattern:?}");
                                set.extend((lo..=hi).filter(|c| *c != ']'));
                            } else {
                                set.push(lo);
                            }
                        }
                        None => panic!("unterminated character class in {pattern:?}"),
                    }
                }
                assert!(!set.is_empty(), "empty character class in {pattern:?}");
                set
            }
            '{' | '}' | '*' | '+' | '?' | '(' | ')' | '|' | '^' | '$' | '.' => {
                panic!("unsupported pattern syntax {c:?} in {pattern:?}")
            }
            '\\' => vec![chars
                .next()
                .unwrap_or_else(|| panic!("dangling escape in {pattern:?}"))],
            literal => vec![literal],
        };

        let (min_reps, max_reps) = if chars.peek() == Some(&'{') {
            chars.next();
            let spec: String = chars.by_ref().take_while(|c| *c != '}').collect();
            match spec.split_once(',') {
                Some((m, n)) => (
                    m.trim().parse().expect("repetition lower bound"),
                    n.trim().parse().expect("repetition upper bound"),
                ),
                None => {
                    let n = spec.trim().parse().expect("repetition count");
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        assert!(min_reps <= max_reps, "inverted repetition in {pattern:?}");
        atoms.push(PatternAtom {
            chars: set,
            min_reps,
            max_reps,
        });
    }
    atoms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_subset_generates_matching_strings() {
        let mut rng = TestRng::from_name("pattern");
        for _ in 0..200 {
            let s = "[a-z]{1,8}".generate(&mut rng);
            assert!((1..=8).contains(&s.len()), "{s:?}");
            assert!(s.bytes().all(|b| b.is_ascii_lowercase()), "{s:?}");
        }
        let s = "ab[0-9]{3}".generate(&mut rng);
        assert_eq!(&s[..2], "ab");
        assert_eq!(s.len(), 5);
        assert!(s[2..].bytes().all(|b| b.is_ascii_digit()));
    }

    #[test]
    fn flat_map_generates_dependent_values() {
        let mut rng = TestRng::from_name("flat-map");
        for _ in 0..300 {
            // Pick a length, then an index strictly below it: valid by
            // construction only if the dependency actually flows.
            let (len, index) = (1usize..100)
                .prop_flat_map(|len| (Just(len), 0..len))
                .generate(&mut rng);
            assert!(index < len, "index {index} out of bounds for {len}");
        }
    }

    #[test]
    fn range_strategies_cover_bounds() {
        let mut rng = TestRng::from_name("ranges");
        let mut seen_min = false;
        let mut seen_max = false;
        for _ in 0..500 {
            let v = (0u8..4).generate(&mut rng);
            assert!(v < 4);
            seen_min |= v == 0;
            seen_max |= v == 3;
        }
        assert!(seen_min && seen_max, "uniform range should hit endpoints");
        // Signed ranges.
        for _ in 0..100 {
            let v = (-5i32..5).generate(&mut rng);
            assert!((-5..5).contains(&v));
        }
    }
}
