//! The 22 TPC-H queries as SQL text.
//!
//! Each text binds to a plan whose **results** are byte-equal to the
//! registry's hand-built `qN_plan` (crates/tpch) under every batch layout
//! and NDP setting — the parity suite in `tests/sql_parity.rs` holds the
//! frontend to that. Most texts lower to the *identical* plan shape,
//! Q6's and Q18's derived table included: a `HashAgg` that folds its
//! `lineitem` scan, as the registry writes them. A few produce a
//! result-equal variant. Q2, Q12, Q14 and Q22: the binder aggregates
//! over compound expressions directly where the registry projects first,
//! which is byte-equal because the hash aggregate finalizes in
//! encoded-group-key order and sorts are stable. Q1: the binder asks for
//! its AVGs' COUNTs of NOT NULL columns as its one `COUNT(*)`, where the
//! registry keeps them, and projects the same values.
//!
//! Multi-phase registry queries (Q11, Q15, Q17, Q20, Q22) are expressed
//! as their registry **main-stage plan** — the part the paper pushes
//! toward storage — since the remaining phases run in driver code, not
//! in a plan.

/// The SQL text for a TPC-H query, by registry name (`"Q1"`..`"Q22"`).
pub fn sql_for(name: &str) -> Option<&'static str> {
    let text = match name {
        "Q1" => Q1,
        "Q2" => Q2,
        "Q3" => Q3,
        "Q4" => Q4,
        "Q5" => Q5,
        "Q6" => Q6,
        "Q7" => Q7,
        "Q8" => Q8,
        "Q9" => Q9,
        "Q10" => Q10,
        "Q11" => Q11,
        "Q12" => Q12,
        "Q13" => Q13,
        "Q14" => Q14,
        "Q15" => Q15,
        "Q16" => Q16,
        "Q17" => Q17,
        "Q18" => Q18,
        "Q19" => Q19,
        "Q20" => Q20,
        "Q21" => Q21,
        "Q22" => Q22,
        _ => return None,
    };
    Some(text)
}

/// All (name, text) pairs, in registry order.
pub fn all() -> Vec<(&'static str, &'static str)> {
    (1..=22)
        .map(|i| {
            let name: &'static str = match i {
                1 => "Q1",
                2 => "Q2",
                3 => "Q3",
                4 => "Q4",
                5 => "Q5",
                6 => "Q6",
                7 => "Q7",
                8 => "Q8",
                9 => "Q9",
                10 => "Q10",
                11 => "Q11",
                12 => "Q12",
                13 => "Q13",
                14 => "Q14",
                15 => "Q15",
                16 => "Q16",
                17 => "Q17",
                18 => "Q18",
                19 => "Q19",
                20 => "Q20",
                21 => "Q21",
                _ => "Q22",
            };
            (name, sql_for(name).unwrap())
        })
        .collect()
}

const Q1: &str = "\
select l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice),
       sum(l_extendedprice * (1 - l_discount)),
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)),
       avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*)
from lineitem
where l_shipdate <= date '1998-09-02'
group by l_returnflag, l_linestatus
order by l_returnflag, l_linestatus";

const Q2: &str = "\
select s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment
from partsupp
  join supplier on ps_suppkey = s_suppkey
  join nation on s_nationkey = n_nationkey
  join region on n_regionkey = r_regionkey
  join part on ps_partkey = p_partkey
  join (select ps_partkey as min_pk, min(ps_supplycost) as min_cost
        from partsupp
          join supplier on ps_suppkey = s_suppkey
          join nation on s_nationkey = n_nationkey
          join region on n_regionkey = r_regionkey
        where r_name = 'EUROPE'
        group by ps_partkey) as mins
    on ps_partkey = min_pk and ps_supplycost = min_cost
where r_name = 'EUROPE' and p_size = 15 and p_type like '%BRASS'
order by s_acctbal desc, n_name, s_name, p_partkey
limit 100";

const Q3: &str = "\
select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as revenue,
       o_orderdate, o_shippriority
from lineitem join (orders join customer on o_custkey = c_custkey)
  on l_orderkey = o_orderkey
where c_mktsegment = 'BUILDING'
  and o_orderdate < date '1995-03-15'
  and l_shipdate > date '1995-03-15'
group by l_orderkey, o_orderdate, o_shippriority
order by revenue desc, o_orderdate
limit 10";

const Q4: &str = "\
select o_orderpriority, count(*) as order_count
from orders
where o_orderdate >= date '1993-07-01' and o_orderdate < date '1993-10-01'
  and exists (select * from lineitem
              where l_orderkey = o_orderkey and l_commitdate < l_receiptdate)
group by o_orderpriority
order by o_orderpriority";

const Q5: &str = "\
select n_name, sum(l_extendedprice * (1 - l_discount)) as revenue
from orders
  join lineitem force index (primary) on o_orderkey = l_orderkey
  join customer on o_custkey = c_custkey
  join supplier on l_suppkey = s_suppkey and c_nationkey = s_nationkey
  join nation on s_nationkey = n_nationkey
  join region on n_regionkey = r_regionkey
where o_orderdate >= date '1994-01-01' and o_orderdate < date '1995-01-01'
  and r_name = 'ASIA'
group by n_name
order by revenue desc";

const Q6: &str = "\
select sum(l_extendedprice * l_discount) as revenue
from lineitem
where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01'
  and l_discount between 0.05 and 0.07
  and l_quantity < 24";

const Q7: &str = "\
select supp_nation, cust_nation, l_year, sum(volume) as revenue
from (select n1.n_name as supp_nation, n2.n_name as cust_nation,
             extract(year from l_shipdate) as l_year,
             l_extendedprice * (1 - l_discount) as volume
      from lineitem
        join supplier on l_suppkey = s_suppkey
        join orders on l_orderkey = o_orderkey
        join customer on o_custkey = c_custkey
        join nation as n1 on s_nationkey = n1.n_nationkey
        join nation as n2 on c_nationkey = n2.n_nationkey
      where l_shipdate >= date '1995-01-01' and l_shipdate <= date '1996-12-31'
        and ((n1.n_name = 'FRANCE' and n2.n_name = 'GERMANY')
          or (n1.n_name = 'GERMANY' and n2.n_name = 'FRANCE'))) as shipping
group by supp_nation, cust_nation, l_year
order by supp_nation, cust_nation, l_year";

const Q8: &str = "\
select o_year, sum(brazil_volume) / sum(volume) as mkt_share
from (select extract(year from o_orderdate) as o_year,
             l_extendedprice * (1 - l_discount) as volume,
             case when n2.n_name = 'BRAZIL'
                  then l_extendedprice * (1 - l_discount)
                  else 0.00 end as brazil_volume
      from lineitem
        join part on l_partkey = p_partkey
        join orders on l_orderkey = o_orderkey
        join customer on o_custkey = c_custkey
        join nation as n1 on c_nationkey = n1.n_nationkey
        join region on n1.n_regionkey = r_regionkey
        join supplier on l_suppkey = s_suppkey
        join nation as n2 on s_nationkey = n2.n_nationkey
      where p_type = 'ECONOMY ANODIZED STEEL'
        and o_orderdate >= date '1995-01-01' and o_orderdate <= date '1996-12-31'
        and r_name = 'AMERICA') as all_nations
group by o_year
order by o_year";

const Q9: &str = "\
select nation, o_year, sum(amount) as sum_profit
from (select n_name as nation, extract(year from o_orderdate) as o_year,
             l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity as amount
      from lineitem
        join part on l_partkey = p_partkey
        join supplier on l_suppkey = s_suppkey
        join partsupp on l_partkey = ps_partkey and l_suppkey = ps_suppkey
        join orders on l_orderkey = o_orderkey
        join nation on s_nationkey = n_nationkey
      where p_name like '%green%') as profit
group by nation, o_year
order by nation, o_year desc";

const Q10: &str = "\
select c_custkey, c_name, sum(l_extendedprice * (1 - l_discount)) as revenue,
       c_acctbal, n_name, c_address, c_phone, c_comment
from lineitem
  join orders on l_orderkey = o_orderkey
  join customer on o_custkey = c_custkey
  join nation on c_nationkey = n_nationkey
where l_returnflag = 'R'
  and o_orderdate >= date '1993-10-01' and o_orderdate < date '1994-01-01'
group by c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment
order by revenue desc
limit 20";

const Q11: &str = "\
select ps_partkey, sum(ps_supplycost * ps_availqty) as value
from supplier
  join nation on s_nationkey = n_nationkey
  join partsupp force index (i_ps_suppkey) on s_suppkey = ps_suppkey
where n_name = 'GERMANY'
group by ps_partkey";

const Q12: &str = "\
select l_shipmode,
       sum(case when o_orderpriority in ('1-URGENT', '2-HIGH') then 1 else 0 end)
         as high_line_count,
       sum(case when o_orderpriority in ('1-URGENT', '2-HIGH') then 0 else 1 end)
         as low_line_count
from lineitem join orders on l_orderkey = o_orderkey
where l_shipmode in ('MAIL', 'SHIP')
  and l_commitdate < l_receiptdate
  and l_shipdate < l_commitdate
  and l_receiptdate >= date '1994-01-01' and l_receiptdate < date '1995-01-01'
group by l_shipmode
order by l_shipmode";

const Q13: &str = "\
select c_count, count(*) as custdist
from (select c_custkey, count(o_orderkey) as c_count
      from customer
        left join orders on c_custkey = o_custkey
          and o_comment not like '%special%requests%'
      group by c_custkey) as c_orders
group by c_count
order by custdist desc, c_count desc";

const Q14: &str = "\
select 100.00 * sum(case when p_type like 'PROMO%'
                         then l_extendedprice * (1 - l_discount)
                         else 0.00 end)
       / sum(l_extendedprice * (1 - l_discount)) as promo_revenue
from lineitem join part force index (primary) on l_partkey = p_partkey
where l_shipdate >= date '1995-09-01' and l_shipdate < date '1995-10-01'";

const Q15: &str = "\
select l_suppkey, sum(l_extendedprice * (1 - l_discount)) as total_revenue
from lineitem
where l_shipdate >= date '1996-01-01' and l_shipdate < date '1996-04-01'
group by l_suppkey";

const Q16: &str = "\
select p_brand, p_type, p_size, count(distinct ps_suppkey) as supplier_cnt
from part join partsupp on p_partkey = ps_partkey
where p_brand <> 'Brand#45'
  and p_type not like 'MEDIUM POLISHED%'
  and p_size in (49, 14, 23, 45, 19, 3, 36, 9)
  and ps_suppkey not in (select s_suppkey from supplier
                         where s_comment like '%Customer%Complaints%')
group by p_brand, p_type, p_size
order by supplier_cnt desc, p_brand, p_type, p_size";

const Q17: &str = "\
select p_partkey, p_brand, p_container, l_quantity, l_extendedprice
from part join lineitem force index (i_l_partkey) on p_partkey = l_partkey
where p_brand = 'Brand#23' and p_container = 'MED BOX'";

const Q18: &str = "\
select c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, qty
from (select l_orderkey as big_ok, sum(l_quantity) as qty
      from lineitem
      group by l_orderkey
      having sum(l_quantity) > 300) as big
  join orders on big_ok = o_orderkey
  join customer on o_custkey = c_custkey
order by o_totalprice desc, o_orderdate
limit 100";

const Q19: &str = "\
select sum(l_extendedprice * (1 - l_discount)) as revenue
from part join lineitem force index (i_l_partkey) on p_partkey = l_partkey
where ((p_brand = 'Brand#12'
        and p_container in ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
        and p_size between 1 and 5)
    or (p_brand = 'Brand#23'
        and p_container in ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK')
        and p_size between 1 and 10)
    or (p_brand = 'Brand#34'
        and p_container in ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')
        and p_size between 1 and 15))
  and l_shipinstruct = 'DELIVER IN PERSON'
  and l_shipmode in ('AIR', 'AIR REG')
  and ((p_brand = 'Brand#12'
        and p_container in ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
        and l_quantity between 1 and 11)
    or (p_brand = 'Brand#23'
        and p_container in ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK')
        and l_quantity between 10 and 20)
    or (p_brand = 'Brand#34'
        and p_container in ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')
        and l_quantity between 20 and 30))";

const Q20: &str = "\
select s_suppkey, s_name, s_address, s_nationkey, n_nationkey, n_name
from supplier join nation on s_nationkey = n_nationkey
where n_name = 'CANADA'";

const Q21: &str = "\
select s_name, count(*) as numwait
from lineitem as l1
  join orders on l1.l_orderkey = o_orderkey
  join supplier on l1.l_suppkey = s_suppkey
  join nation on s_nationkey = n_nationkey
where l1.l_receiptdate > l1.l_commitdate
  and o_orderstatus = 'F'
  and n_name = 'SAUDI ARABIA'
  and exists (select * from lineitem as l2
              where l2.l_orderkey = l1.l_orderkey
                and l2.l_suppkey <> l1.l_suppkey)
  and not exists (select * from lineitem as l3
                  where l3.l_orderkey = l1.l_orderkey
                    and l3.l_suppkey <> l1.l_suppkey
                    and l3.l_receiptdate > l3.l_commitdate)
group by s_name
order by numwait desc, s_name
limit 100";

const Q22: &str = "\
select substring(c_phone from 1 for 2) as cntrycode,
       count(*) as numcust, sum(c_acctbal) as totacctbal
from customer
where substring(c_phone from 1 for 2) in ('13', '31', '23', '29', '30', '18', '17')
  and c_acctbal > (select avg(c_acctbal) from customer
                   where c_acctbal > 0.00
                     and substring(c_phone from 1 for 2)
                       in ('13', '31', '23', '29', '30', '18', '17'))
  and not exists (select * from orders where o_custkey = c_custkey)
group by cntrycode
order by cntrycode";
