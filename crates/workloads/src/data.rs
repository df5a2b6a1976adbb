//! Stateless, seeded dataset generators.
//!
//! Row *i* of every table is a pure function of `(seed, table, i)`
//! through a SplitMix64-style hash, so workloads can scan, join and
//! re-read tables without materializing them — the generator *is* the
//! storage content. Distributions follow the TPC specifications loosely
//! (uniform keys, date windows, categorical fields with the right
//! cardinalities); they stand in for the paper's proprietary 32 GiB
//! datasets.

/// SplitMix64 finalizer: a high-quality 64-bit mixer.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic hash of `(seed, table_tag, row)`.
#[inline]
pub fn row_hash(seed: u64, table: u64, row: u64) -> u64 {
    mix64(mix64(seed ^ table.wrapping_mul(0xa076_1d64_78bd_642f)) ^ row)
}

/// Uniform f64 in `[0, 1)` from a hash value.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

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

/// Table tags for [`row_hash`].
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

/// Generates lineitem row `i`; `orders` and `parts` are the parent
/// table cardinalities.
pub fn lineitem(seed: u64, i: u64, orders: u64, parts: u64) -> Lineitem {
    let h = row_hash(seed, tag::LINEITEM, i);
    let h2 = mix64(h);
    let h3 = mix64(h2);
    let shipdate = (h2 % u64::from(DATE_DOMAIN_DAYS)) as u32;
    Lineitem {
        orderkey: h % orders.max(1),
        partkey: h2 % parts.max(1),
        quantity: 1.0 + (h % 50) as f64,
        extendedprice: 900.0 + unit(h3) * 104_000.0,
        discount: f64::from((h3 % 11) as u32) / 100.0,
        tax: f64::from((h2 % 9) as u32) / 100.0,
        returnflag: (h % 3) as u8,
        linestatus: ((h >> 8) % 2) as u8,
        shipdate,
        commitdate: shipdate.saturating_add((h3 % 30) as u32),
        receiptdate: shipdate.saturating_add((h3 % 60) as u32),
        shipmode: ((h >> 16) % 7) as u8,
        shipinstruct: ((h >> 24) % 4) as u8,
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

/// Generates orders row `orderkey`.
pub fn order(seed: u64, orderkey: u64) -> Order {
    let h = row_hash(seed, tag::ORDERS, orderkey);
    Order {
        mktsegment: (h % 5) as u8,
        orderdate: ((h >> 8) % u64::from(DATE_DOMAIN_DAYS)) as u32,
        shippriority: 0,
        orderpriority: ((h >> 24) % 5) as u8,
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

/// Generates part row `partkey`.
pub fn part(seed: u64, partkey: u64) -> Part {
    let h = row_hash(seed, tag::PART, partkey);
    Part {
        brand: (h % 25) as u8,
        container: ((h >> 8) % 40) as u8,
        p_type: ((h >> 16) % 150) as u8,
        size: (1 + (h >> 24) % 50) as u8,
    }
}

/// Initial balance of TPC-B account `i`.
pub fn account_balance(seed: u64, i: u64) -> i64 {
    (row_hash(seed, tag::ACCOUNT, i) % 100_000) as i64
}

/// The token at position `i` of the wordcount corpus, as a word id in
/// `0..vocabulary`. The distribution is Zipf-like: the minimum of two
/// uniforms squared concentrates mass on small ids.
pub fn token(seed: u64, i: u64, vocabulary: u64) -> u64 {
    let h = row_hash(seed, tag::TOKEN, i);
    let a = unit(h);
    let b = unit(mix64(h));
    let skewed = (a * b).min(0.999_999);
    (skewed * vocabulary as f64) as u64
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
        assert_eq!(lineitem(1, 5, 100, 100), lineitem(1, 5, 100, 100));
        assert_ne!(lineitem(1, 5, 100, 100), lineitem(2, 5, 100, 100));
        assert_ne!(lineitem(1, 5, 100, 100), lineitem(1, 6, 100, 100));
    }

    #[test]
    fn fields_are_in_domain() {
        for i in 0..2_000 {
            let l = lineitem(7, i, 500, 250);
            assert!(l.orderkey < 500);
            assert!(l.partkey < 250);
            assert!((1.0..=50.0).contains(&l.quantity));
            assert!((0.0..=0.10).contains(&l.discount));
            assert!((0.0..=0.08).contains(&l.tax));
            assert!(l.returnflag < 3);
            assert!(l.linestatus < 2);
            assert!(l.shipdate < DATE_DOMAIN_DAYS);
            assert!(l.shipmode < 7);
            let p = part(7, i);
            assert!(p.brand < 25 && p.container < 40 && p.p_type < 150);
            let o = order(7, i);
            assert!(o.mktsegment < 5 && o.orderpriority < 5);
        }
    }

    #[test]
    fn categorical_fields_cover_their_domains() {
        let mut seen_flags = [false; 3];
        let mut seen_modes = [false; 7];
        for i in 0..1_000 {
            let l = lineitem(3, i, 100, 100);
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
        let low_ids = (0..n).filter(|&i| token(1, i, vocab) < vocab / 10).count();
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
