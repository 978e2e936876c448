//! The four workloads and the requests each one sends.
//!
//! The workload seed drives key choice and operation order only. The data
//! is always `taurus_tpch::load(.., sf, 42)`, and the program under test
//! sees nothing but the generated requests.

use taurus_common::{Row, Value};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    TpchSqlNdpOff,
    TpchSqlNdpOn,
    WarmCpuSql,
    LookupUnderWrites,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TpchSqlNdpOff,
        Workload::TpchSqlNdpOn,
        Workload::WarmCpuSql,
        Workload::LookupUnderWrites,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpchSqlNdpOff => "tpch_sql_ndp_off",
            Workload::TpchSqlNdpOn => "tpch_sql_ndp_on",
            Workload::WarmCpuSql => "warm_cpu_sql",
            Workload::LookupUnderWrites => "lookup_under_writes",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether SQL statements ask for NDP pushdown.
    pub fn ndp(self) -> bool {
        matches!(self, Workload::TpchSqlNdpOn | Workload::LookupUnderWrites)
    }
}

/// One SQL statement a workload sends, with the name reports use.
#[derive(Clone, Copy, Debug)]
pub struct Statement {
    pub name: &'static str,
    pub text: &'static str,
    /// The hand-built registry plan (`taurus_tpch`) the text must equal;
    /// `None` for the two plain scans, which the generator's rows answer.
    pub registry: Option<&'static str>,
}

pub const FULL_SCAN: Statement = Statement {
    name: "full_scan",
    text: "select l_orderkey, l_partkey, l_quantity, l_extendedprice, l_shipdate from lineitem",
    registry: None,
};

pub const SELECTIVE_FILTER: Statement = Statement {
    name: "selective_filter",
    text: "select l_orderkey, l_extendedprice from lineitem where l_quantity < 5",
    registry: None,
};

/// The 22 TPC-H texts, in registry order.
pub fn tpch_statements() -> Vec<Statement> {
    taurus_sql::tpch_sql::all()
        .into_iter()
        .map(|(name, text)| Statement {
            name,
            text,
            registry: Some(name),
        })
        .collect()
}

/// `warm_cpu_sql`'s six statements: the two plain scans plus four TPC-H
/// queries, one per pipeline breaker (aggregate, scalar aggregate, join,
/// sort). The names are the ones ROADMAP's columnar gate uses.
pub fn warm_statements() -> Vec<Statement> {
    let tpch = |report: &'static str, q: &'static str| Statement {
        name: report,
        text: taurus_sql::tpch_sql::sql_for(q).expect("registry has Q1..Q22"),
        registry: Some(q),
    };
    vec![
        FULL_SCAN,
        SELECTIVE_FILTER,
        tpch("q1_agg", "Q1"),
        tpch("q6", "Q6"),
        tpch("q3_join", "Q3"),
        tpch("q18_sort", "Q18"),
    ]
}

/// splitmix64: the benchmark's own generator, so the request sequence of
/// a seed does not change when the vendored `rand` shim does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// the table sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One pass of a SQL workload: statement indices in the order sent. Every
/// pass of a run repeats it, so passes are comparable.
///
/// The statements keep their cyclic order (the registry's Q1..Q22, or the
/// six warm statements as listed) and the seed picks where the cycle
/// starts. Every statement then always follows the same one, so what it
/// finds in the buffer pool does not depend on the seed; a shuffled order
/// was measured to move single statements by a quarter between seeds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SqlPlan {
    pub order: Vec<usize>,
}

/// What the write connection does at one 10 ms tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tick {
    /// Rewrite `o_clerk` of the `row`-th generated order.
    UpdateOrder { row: u32, tag: u32, read_back: bool },
    /// Rewrite `l_comment` of the `row`-th generated lineitem.
    UpdateLineitem { row: u32, tag: u32, read_back: bool },
    /// The NDP-on `selective_filter` scan of `lineitem`.
    Scan,
}

/// One update of connection B's schedule, built from the generator's rows.
pub struct Rewrite {
    pub table: &'static str,
    pub pk: Vec<Value>,
    /// The whole new row, and which of its columns changed.
    pub row: Row,
    pub col: usize,
    pub read_back: bool,
}

impl Tick {
    /// The row this tick writes; `None` for the scan.
    pub fn rewrite(&self, orders: &[Row], lineitem: &[Row]) -> Option<Rewrite> {
        let (table, source, row, pk_cols, col, tag, read_back): (_, _, _, &[usize], _, _, _) =
            match *self {
                Tick::Scan => return None,
                Tick::UpdateOrder {
                    row,
                    tag,
                    read_back,
                } => ("orders", orders, row, &[0], O_CLERK, tag, read_back),
                // Primary key: (l_orderkey, l_linenumber).
                Tick::UpdateLineitem {
                    row,
                    tag,
                    read_back,
                } => (
                    "lineitem",
                    lineitem,
                    row,
                    &[0, 3],
                    L_COMMENT,
                    tag,
                    read_back,
                ),
            };
        let mut row = source[row as usize].clone();
        row[col] = if col == O_CLERK {
            clerk_value(tag)
        } else {
            comment_value(&row[col], tag)
        };
        Some(Rewrite {
            table,
            pk: pk_cols.iter().map(|&c| row[c].clone()).collect(),
            row,
            col,
            read_back,
        })
    }
}

// orders.o_clerk / lineitem.l_comment: columns no query reads, so
// rewriting them leaves every golden valid.
pub const O_CLERK: usize = 6;
pub const L_COMMENT: usize = 15;
/// Every `o_clerk` the benchmark writes starts with this; the
/// generator's start with `Clerk#0`.
pub const CLERK_PREFIX: &str = "Clerk#b";

/// The `o_clerk` value of the `tag`-th rewrite (CHAR(15), like the
/// generator's).
pub fn clerk_value(tag: u32) -> Value {
    Value::str(format!("{CLERK_PREFIX}{tag:08}"))
}

/// An `l_comment` for the `tag`-th rewrite, exactly as long as the one it
/// replaces: the engine updates records in place and refuses an update
/// that would change a record's length.
fn comment_value(original: &Value, tag: u32) -> Value {
    let len = original.as_str().map_or(0, str::len);
    let mut s = format!("bench {tag} ");
    s.extend(std::iter::repeat_n('.', len.saturating_sub(s.len())));
    s.truncate(len);
    Value::str(s)
}

/// Connection B sends one request every this many milliseconds.
pub const TICK_MS: u64 = 10;
/// Every this many ticks the request is the scan instead of an update.
pub const SCAN_EVERY_TICKS: usize = 100;
/// Every this many updates connection B reads the row back.
pub const READ_BACK_EVERY: u32 = 50;
/// Lookup keys are drawn once and cycled.
const LOOKUP_KEYS: usize = 1 << 18;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LookupPlan {
    /// Indices into the generated `orders` rows, uniform over all of them.
    pub keys: Vec<u32>,
    pub ticks: Vec<Tick>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Plan {
    Sql(SqlPlan),
    Lookup(LookupPlan),
}

/// Generate a workload's requests. `window_s` sizes connection B's
/// schedule; `orders` and `lineitems` are the generated row counts.
pub fn generate(w: Workload, seed: u64, window_s: u64, orders: usize, lineitems: usize) -> Plan {
    let mut rng = Rng::new(seed ^ (w as u64).wrapping_mul(0xa076_1d64_78bd_642f));
    match w {
        Workload::TpchSqlNdpOff | Workload::TpchSqlNdpOn | Workload::WarmCpuSql => {
            let n = if w == Workload::WarmCpuSql { 6 } else { 22 };
            let start = rng.below(n);
            Plan::Sql(SqlPlan {
                order: (0..n).map(|i| (start + i) % n).collect(),
            })
        }
        Workload::LookupUnderWrites => {
            let keys = (0..LOOKUP_KEYS).map(|_| rng.below(orders) as u32).collect();
            let n_ticks = (window_s * 1000 / TICK_MS) as usize;
            let mut updates = 0u32;
            let ticks = (0..n_ticks)
                .map(|i| {
                    if i % SCAN_EVERY_TICKS == SCAN_EVERY_TICKS / 2 {
                        return Tick::Scan;
                    }
                    updates += 1;
                    let read_back = updates.is_multiple_of(READ_BACK_EVERY);
                    if updates % 2 == 1 {
                        Tick::UpdateOrder {
                            row: rng.below(orders) as u32,
                            tag: updates,
                            read_back,
                        }
                    } else {
                        Tick::UpdateLineitem {
                            row: rng.below(lineitems) as u32,
                            tag: updates,
                            read_back,
                        }
                    }
                })
                .collect();
            Plan::Lookup(LookupPlan { keys, ticks })
        }
    }
}

/// Hash of the generated request sequence: equal for equal seeds.
pub fn sequence_hash(plan: &Plan) -> u64 {
    use std::hash::{Hash, Hasher};
    // DefaultHasher::new() uses fixed keys, so this repeats across runs.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    match plan {
        Plan::Sql(p) => p.order.hash(&mut h),
        Plan::Lookup(p) => {
            p.keys.hash(&mut h);
            for t in &p.ticks {
                match *t {
                    Tick::UpdateOrder {
                        row,
                        tag,
                        read_back,
                    } => (0u8, row, tag, read_back).hash(&mut h),
                    Tick::UpdateLineitem {
                        row,
                        tag,
                        read_back,
                    } => (1u8, row, tag, read_back).hash(&mut h),
                    Tick::Scan => 2u8.hash(&mut h),
                }
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        for w in Workload::ALL {
            let a = generate(w, 7, 10, 7500, 30_000);
            let b = generate(w, 7, 10, 7500, 30_000);
            let c = generate(w, 8, 10, 7500, 30_000);
            assert_eq!(a, b, "{}", w.name());
            assert_eq!(sequence_hash(&a), sequence_hash(&b));
            assert_ne!(sequence_hash(&a), sequence_hash(&c), "{}", w.name());
        }
    }

    #[test]
    fn write_schedule_has_one_scan_a_second_and_alternates_tables() {
        let Plan::Lookup(p) = generate(Workload::LookupUnderWrites, 1, 3, 100, 400) else {
            panic!("lookup plan expected");
        };
        assert_eq!(p.ticks.len(), 300);
        assert_eq!(p.ticks.iter().filter(|t| **t == Tick::Scan).count(), 3);
        let orders = p
            .ticks
            .iter()
            .filter(|t| matches!(t, Tick::UpdateOrder { .. }))
            .count();
        assert!((148..=149).contains(&orders), "{orders}");
        assert!(p.keys.iter().all(|&k| k < 100));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
        assert_eq!(warm_statements().len(), 6);
        assert_eq!(tpch_statements().len(), 22);
    }
}
