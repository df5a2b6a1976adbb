//! Stateless, seeded dataset generators.
//!
//! Row *i* of every table is a pure function of `(seed, table, i)`
//! through a SplitMix64-style hash, so workloads can scan, join and
//! re-read tables without materializing them — the generator *is* the
//! storage content. Distributions follow the TPC specifications loosely
//! (uniform keys, date windows, categorical fields with the right
//! cardinalities); they stand in for the paper's proprietary 32 GiB
//! datasets.
//!
//! A workload builds one generator per table when it starts a scan —
//! [`LineitemGen`], [`OrderGen`], [`PartGen`], [`AccountGen`] and
//! [`TokenGen`] — and asks it for rows. Building does the per-table
//! work once, so a row costs only its own arithmetic:
//!
//! * [`TableHash`] mixes the seed with the table's tag, and row *i*
//!   then hashes as one [`mix64`] of `table_seed ^ i`.
//! * [`Modulus`] fixes each divisor that is only known at run time (a
//!   parent table's cardinality), so reducing a hash to a key takes
//!   multiplications instead of a hardware division.
//! * Lineitem's discount and tax come from a table of the
//!   `k as f64 / 100.0` quotients instead of a floating-point divide.
//!
//! Each is exact: every generated value equals what hashing
//! `(seed, tag, i)` from scratch, a hardware `%` and a
//! `k as f64 / 100.0` divide give.

use std::ops::Rem;

/// SplitMix64 finalizer: a high-quality 64-bit mixer.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One table's row hash. The seed and the table's tag are mixed once,
/// when the table is built; row `i` then hashes as
/// `mix64(table_seed ^ i)`.
#[derive(Copy, Clone, Debug)]
pub struct TableHash(u64);

impl TableHash {
    /// The row hash of table `tag` under `seed`.
    pub fn new(seed: u64, tag: u64) -> Self {
        TableHash(mix64(seed ^ tag.wrapping_mul(0xa076_1d64_78bd_642f)))
    }

    /// The hash of row `i`.
    #[inline]
    pub fn row(self, i: u64) -> u64 {
        mix64(self.0 ^ i)
    }
}

/// A divisor `d` fixed when a table is built: `n % Modulus::new(d)` is
/// `n % d`, computed with multiplications instead of a hardware
/// division (Lemire, Kaser & Kurz, "Faster Remainder by Direct
/// Computation", 2019).
///
/// With `m = u128::MAX / d + 1` (that is, ⌈2¹²⁸ / d⌉), `m·n mod 2¹²⁸`
/// is the fractional part of `n / d` in 128-bit fixed point, and
/// multiplying it by `d` leaves the remainder in the bits above 2¹²⁸:
/// `n % d = ((m·n mod 2¹²⁸)·d) >> 128`. With 128 fractional bits this
/// is exact for every 64-bit `n` and every `d ≥ 2`. For `d = 1`, `m`
/// wraps to 0, which yields the remainder 0.
///
/// ```
/// use iceclave_workloads::data::Modulus;
///
/// let by_seven = Modulus::new(7);
/// assert_eq!(100 % by_seven, 100 % 7);
/// assert_eq!(u64::MAX % by_seven, u64::MAX % 7);
/// ```
#[derive(Copy, Clone, Debug)]
pub struct Modulus {
    d: u64,
    m: u128,
}

impl Modulus {
    /// The divisor `d`, with its fixed-point reciprocal.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn new(d: u64) -> Self {
        assert!(d > 0, "remainder by zero");
        // ⌈2¹²⁸ / d⌉, which wraps to 0 for d = 1.
        let m = (u128::MAX / u128::from(d)).wrapping_add(1);
        Modulus { d, m }
    }
}

impl Rem<Modulus> for u64 {
    type Output = u64;

    /// `self % d`.
    #[inline]
    fn rem(self, by: Modulus) -> u64 {
        let frac = by.m.wrapping_mul(u128::from(self));
        // (frac · d) >> 128 from frac's two 64-bit halves: neither
        // partial product nor their sum overflows 128 bits.
        let d = u128::from(by.d);
        let lo = u128::from(frac as u64) * d;
        let hi = (frac >> 64) * d;
        ((hi + (lo >> 64)) >> 64) as u64
    }
}

/// Uniform f64 in `[0, 1)` from a hash value.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// `PERCENT[k]` is `k as f64 / 100.0`, bit for bit: lineitem's
/// discount (`k ≤ 10`) and tax (`k ≤ 8`).
const PERCENT: [f64; 11] = [
    0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.1,
];

/// Nominal bytes per row used to lay tables out on 4 KiB pages.
pub mod row_size {
    /// TPC-H lineitem (the fields the five queries touch).
    pub const LINEITEM: u64 = 64;
    /// TPC-H orders.
    pub const ORDERS: u64 = 32;
    /// TPC-H part.
    pub const PART: u64 = 32;
    /// TPC-B account record.
    pub const ACCOUNT: u64 = 64;
    /// TPC-C stock record.
    pub const STOCK: u64 = 64;
    /// Wordcount text (average token footprint).
    pub const TOKEN: u64 = 6;
}

/// Table tags for [`TableHash`]. The workloads hash their own
/// per-transaction and per-record streams under the tags `101..=103`
/// (synthetic operators), `201..=202` (TPC-B) and `301..=303` (TPC-C).
mod tag {
    pub const LINEITEM: u64 = 1;
    pub const ORDERS: u64 = 2;
    pub const PART: u64 = 3;
    pub const ACCOUNT: u64 = 4;
    pub const TOKEN: u64 = 6;
}

/// Days in the generated date domain (1992-01-01 .. 1998-12-31, as in
/// TPC-H).
pub const DATE_DOMAIN_DAYS: u32 = 2556;

/// One TPC-H lineitem row (only the columns Q1/Q3/Q12/Q14/Q19 touch).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Lineitem {
    /// Parent order key in `0..orders`.
    pub orderkey: u64,
    /// Part key in `0..parts`.
    pub partkey: u64,
    /// Quantity in `1..=50`.
    pub quantity: f64,
    /// Extended price.
    pub extendedprice: f64,
    /// Discount in `[0, 0.10]`.
    pub discount: f64,
    /// Tax in `[0, 0.08]`.
    pub tax: f64,
    /// Return flag: 0=A, 1=N, 2=R.
    pub returnflag: u8,
    /// Line status: 0=O, 1=F.
    pub linestatus: u8,
    /// Ship date, days since epoch start.
    pub shipdate: u32,
    /// Commit date.
    pub commitdate: u32,
    /// Receipt date.
    pub receiptdate: u32,
    /// Ship mode: 0..7 (MAIL=0, SHIP=1, ...).
    pub shipmode: u8,
    /// Ship instruction: 0..4 (DELIVER IN PERSON = 0).
    pub shipinstruct: u8,
}

/// The TPC-H lineitem table under one seed, with its parent tables'
/// cardinalities fixed.
#[derive(Copy, Clone, Debug)]
pub struct LineitemGen {
    hash: TableHash,
    orders: Modulus,
    parts: Modulus,
}

impl LineitemGen {
    /// Lineitem rows whose order keys fall in `0..orders` and part keys
    /// in `0..parts` (a cardinality of zero counts as one).
    pub fn new(seed: u64, orders: u64, parts: u64) -> Self {
        LineitemGen {
            hash: TableHash::new(seed, tag::LINEITEM),
            orders: Modulus::new(orders.max(1)),
            parts: Modulus::new(parts.max(1)),
        }
    }

    /// Row `i`.
    #[inline]
    pub fn row(&self, i: u64) -> Lineitem {
        let h = self.hash.row(i);
        let h2 = mix64(h);
        let h3 = mix64(h2);
        let shipdate = (h2 % u64::from(DATE_DOMAIN_DAYS)) as u32;
        Lineitem {
            orderkey: h % self.orders,
            partkey: h2 % self.parts,
            quantity: 1.0 + (h % 50) as f64,
            extendedprice: 900.0 + unit(h3) * 104_000.0,
            discount: PERCENT[(h3 % 11) as usize],
            tax: PERCENT[(h2 % 9) as usize],
            returnflag: (h % 3) as u8,
            linestatus: ((h >> 8) % 2) as u8,
            shipdate,
            commitdate: shipdate.saturating_add((h3 % 30) as u32),
            receiptdate: shipdate.saturating_add((h3 % 60) as u32),
            shipmode: ((h >> 16) % 7) as u8,
            shipinstruct: ((h >> 24) % 4) as u8,
        }
    }
}

/// One TPC-H orders row.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Order {
    /// Customer market segment: 0..5 (BUILDING = 0).
    pub mktsegment: u8,
    /// Order date, days since epoch start.
    pub orderdate: u32,
    /// Shipping priority.
    pub shippriority: u8,
    /// Order priority: 0..5 (1-URGENT=0, 2-HIGH=1, others lower).
    pub orderpriority: u8,
}

/// The TPC-H orders table under one seed.
#[derive(Copy, Clone, Debug)]
pub struct OrderGen {
    hash: TableHash,
}

impl OrderGen {
    /// The orders table under `seed`.
    pub fn new(seed: u64) -> Self {
        OrderGen {
            hash: TableHash::new(seed, tag::ORDERS),
        }
    }

    /// The row of order `orderkey`.
    #[inline]
    pub fn row(&self, orderkey: u64) -> Order {
        let h = self.hash.row(orderkey);
        Order {
            mktsegment: (h % 5) as u8,
            orderdate: ((h >> 8) % u64::from(DATE_DOMAIN_DAYS)) as u32,
            shippriority: 0,
            orderpriority: ((h >> 24) % 5) as u8,
        }
    }
}

/// One TPC-H part row.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Part {
    /// Brand: 0..25 (Brand#12 = 12, etc.).
    pub brand: u8,
    /// Container class: 0..40 (SM CASE = 0, MED BAG = 1, LG BOX = 2...).
    pub container: u8,
    /// Type class: 0..150; types < 25 count as `PROMO`.
    pub p_type: u8,
    /// Size in `1..=50`.
    pub size: u8,
}

/// The TPC-H part table under one seed.
#[derive(Copy, Clone, Debug)]
pub struct PartGen {
    hash: TableHash,
}

impl PartGen {
    /// The part table under `seed`.
    pub fn new(seed: u64) -> Self {
        PartGen {
            hash: TableHash::new(seed, tag::PART),
        }
    }

    /// The row of part `partkey`.
    #[inline]
    pub fn row(&self, partkey: u64) -> Part {
        let h = self.hash.row(partkey);
        Part {
            brand: (h % 25) as u8,
            container: ((h >> 8) % 40) as u8,
            p_type: ((h >> 16) % 150) as u8,
            size: (1 + (h >> 24) % 50) as u8,
        }
    }
}

/// The TPC-B account table under one seed.
#[derive(Copy, Clone, Debug)]
pub struct AccountGen {
    hash: TableHash,
}

impl AccountGen {
    /// The account table under `seed`.
    pub fn new(seed: u64) -> Self {
        AccountGen {
            hash: TableHash::new(seed, tag::ACCOUNT),
        }
    }

    /// Initial balance of account `i`.
    #[inline]
    pub fn balance(&self, i: u64) -> i64 {
        (self.hash.row(i) % 100_000) as i64
    }
}

/// The wordcount corpus under one seed: a Zipf-like stream of word ids
/// in `0..vocabulary`. The product of two uniforms concentrates mass on
/// small ids.
#[derive(Copy, Clone, Debug)]
pub struct TokenGen {
    hash: TableHash,
    vocabulary: f64,
}

impl TokenGen {
    /// The corpus under `seed` over `vocabulary` distinct words.
    pub fn new(seed: u64, vocabulary: u64) -> Self {
        TokenGen {
            hash: TableHash::new(seed, tag::TOKEN),
            vocabulary: vocabulary as f64,
        }
    }

    /// The word id of the token at position `i`.
    #[inline]
    pub fn token(&self, i: u64) -> u64 {
        let h = self.hash.row(i);
        let a = unit(h);
        let b = unit(mix64(h));
        let skewed = (a * b).min(0.999_999);
        (skewed * self.vocabulary) as u64
    }
}

/// Rows of a table that fit the given dataset share.
pub fn rows_for(bytes: u64, row_size: u64) -> u64 {
    (bytes / row_size).max(1)
}

/// Pages occupied by `rows` rows of `row_size` bytes (rows never span
/// pages).
pub fn pages_for(rows: u64, row_size: u64) -> u64 {
    let rows_per_page = 4096 / row_size;
    rows.div_ceil(rows_per_page).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let row = |seed, i| LineitemGen::new(seed, 100, 100).row(i);
        assert_eq!(row(1, 5), row(1, 5));
        assert_ne!(row(1, 5), row(2, 5));
        assert_ne!(row(1, 5), row(1, 6));
    }

    #[test]
    fn table_hash_is_the_two_level_row_hash() {
        for (seed, tag, i) in [
            (0u64, 0u64, 0u64),
            (42, 1, 7),
            (201, 301, 1 << 40),
            (u64::MAX, 6, 3),
        ] {
            let direct = mix64(mix64(seed ^ tag.wrapping_mul(0xa076_1d64_78bd_642f)) ^ i);
            assert_eq!(TableHash::new(seed, tag).row(i), direct);
        }
    }

    #[test]
    fn percent_table_holds_the_quotients() {
        for (k, &p) in PERCENT.iter().enumerate() {
            let quotient = std::hint::black_box(k as f64) / 100.0;
            assert_eq!(p.to_bits(), quotient.to_bits(), "{k}");
        }
    }

    #[test]
    fn remainder_is_exact_at_fixed_points() {
        let mut divisors = vec![1, 2, 3, 7, 10, 100_000, u64::MAX - 1, u64::MAX];
        divisors.extend((0..64).map(|s| 1u64 << s));
        divisors.extend((1..64).map(|s| (1u64 << s) - 1));
        divisors.extend((1..64).map(|s| (1u64 << s) + 1));
        // The cardinalities the workloads reduce by at `test()`,
        // `repro`'s default 8 MiB and `bench()` scale: lineitem's orders
        // and parts (Q1's rows / 4 and / 8, the join queries' side table
        // and lineitem / 4 or / 8), TPC-B accounts, TPC-C stock rows and
        // pages.
        for bytes in [512u64 << 10, 8 << 20, 32 << 20] {
            let lineitem = rows_for(bytes, row_size::LINEITEM);
            let join_lineitem = rows_for(bytes * 4 / 5, row_size::LINEITEM);
            divisors.extend([
                lineitem / 4,
                lineitem / 8,
                join_lineitem / 4,
                join_lineitem / 8,
                rows_for(bytes / 5, row_size::ORDERS),
                rows_for(bytes / 5, row_size::PART),
                rows_for(bytes, row_size::ACCOUNT),
                rows_for(bytes, row_size::STOCK),
                pages_for(rows_for(bytes, row_size::STOCK), row_size::STOCK),
            ]);
        }
        let mut numerators = vec![0, 1, 2, u64::MAX - 1, u64::MAX, 1 << 63, (1 << 63) - 1];
        numerators.extend((0..4096).map(|i| TableHash::new(9, 9).row(i)));
        for &d in &divisors {
            let m = Modulus::new(d);
            for n in numerators
                .iter()
                .copied()
                .chain([d - 1, d, d.wrapping_add(1)])
            {
                assert_eq!(n % m, n % d, "{n} % {d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "remainder by zero")]
    fn remainder_by_zero_panics() {
        let _ = Modulus::new(0);
    }

    #[test]
    fn fields_are_in_domain() {
        let lineitem = LineitemGen::new(7, 500, 250);
        let (orders, parts) = (OrderGen::new(7), PartGen::new(7));
        for i in 0..2_000 {
            let l = lineitem.row(i);
            assert!(l.orderkey < 500);
            assert!(l.partkey < 250);
            assert!((1.0..=50.0).contains(&l.quantity));
            assert!((0.0..=0.10).contains(&l.discount));
            assert!((0.0..=0.08).contains(&l.tax));
            assert!(l.returnflag < 3);
            assert!(l.linestatus < 2);
            assert!(l.shipdate < DATE_DOMAIN_DAYS);
            assert!(l.shipmode < 7);
            let p = parts.row(i);
            assert!(p.brand < 25 && p.container < 40 && p.p_type < 150);
            let o = orders.row(i);
            assert!(o.mktsegment < 5 && o.orderpriority < 5);
        }
    }

    #[test]
    fn categorical_fields_cover_their_domains() {
        let lineitem = LineitemGen::new(3, 100, 100);
        let mut seen_flags = [false; 3];
        let mut seen_modes = [false; 7];
        for i in 0..1_000 {
            let l = lineitem.row(i);
            seen_flags[l.returnflag as usize] = true;
            seen_modes[l.shipmode as usize] = true;
        }
        assert!(seen_flags.iter().all(|&b| b));
        assert!(seen_modes.iter().all(|&b| b));
    }

    #[test]
    fn tokens_are_zipf_skewed() {
        let vocab = 10_000;
        let n = 50_000;
        let corpus = TokenGen::new(1, vocab);
        let low_ids = (0..n).filter(|&i| corpus.token(i) < vocab / 10).count();
        // Far more than 10% of tokens come from the lowest 10% of ids.
        assert!(
            low_ids as f64 / n as f64 > 0.3,
            "skew too weak: {low_ids}/{n}"
        );
    }

    #[test]
    fn layout_helpers() {
        assert_eq!(rows_for(4096, 64), 64);
        assert_eq!(pages_for(64, 64), 1);
        assert_eq!(pages_for(65, 64), 2);
        assert_eq!(pages_for(0, 64), 1);
    }
}
