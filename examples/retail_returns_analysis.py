"""The paper's motivating scenario (§1, query Q1): link store returns to
subsequent catalog purchases and analyse the correlation — without ever
computing the many-to-many join.

Q1 joins store_sales ⋈ store_returns (composite FK key) with catalog_sales
on customer (many-to-many), plus the inequality ``ss.sold_date_sk <=
cs.sold_date_sk`` — which closes a cycle in the join graph, so SJoin
demotes it to a residual filter applied on top of the synopsis (§4.1,
§5.1).  From the maintained synopsis we:

* build an equi-depth histogram of "days between sale and catalog
  purchase" — the paper's first motivating analysis — and measure its
  deviation against the exact join;
* estimate, through the registered query's ``estimate``, the average
  quantity of the catalog purchase that follows a return, checked
  against the exact join and its confidence interval.

Run:  python examples/retail_returns_analysis.py
"""

from bisect import bisect_left
from statistics import quantiles

from repro import InsertOp, JoinExecutor, QueryRegistry, SynopsisManager
from repro.datagen.tpcds import TpcdsScale, setup_query

# Figure 1 of the paper, over the generator's tables.  The date
# inequality closes a cycle (ss-sr, sr-cs, ss-cs) and is automatically
# demoted to a residual filter evaluated at synopsis read time.
Q1_SQL = """
SELECT * FROM store_sales ss, store_returns sr, catalog_sales cs
WHERE ss.ss_item_sk = sr.sr_item_sk
  AND ss.ss_ticket_number = sr.sr_ticket_number
  AND sr.sr_customer_sk = cs.cs_bill_customer_sk
  AND ss.ss_sold_date_sk <= cs.cs_sold_date_sk
"""

#: the generator's events name aliases; a manager takes base tables
TABLES = {"ss": "store_sales", "sr": "store_returns", "cs": "catalog_sales"}


def days_between(db, query, result):
    """cs.sold_date_sk - ss.sold_date_sk for one join result."""
    ss_row = db.table("store_sales").get(result[query.index_of("ss")])
    cs_row = db.table("catalog_sales").get(result[query.index_of("cs")])
    return cs_row[1] - ss_row[3]


def main() -> None:
    # reuse the QX generator setup: same three streamed fact tables
    setup = setup_query("QX", TpcdsScale.small(), seed=1)
    manager = SynopsisManager(setup.db)
    q1 = QueryRegistry(manager).register(
        Q1_SQL, "Q1", size=400, engine="sjoin-opt", seed=3)
    maintainer = manager.maintainer("Q1")
    demoted = maintainer.engine.plan.demoted
    print("residual predicates (demoted cycle edges):",
          [str(d) for d in demoted])

    manager.apply_batch([InsertOp(TABLES[e.alias], e.row)
                         for e in setup.preload + setup.stream
                         if e.alias in TABLES])

    query = maintainer.query
    db = setup.db
    print(f"J (tree-predicate links, exact) = "
          f"{maintainer.total_results():,}")

    synopsis = manager.synopsis("Q1")
    print(f"synopsis size after residual filtering = {len(synopsis)}")

    # ---- equi-depth histogram of the days-between metric -------------
    exact_results = JoinExecutor(db, query).results()
    exact_days = [days_between(db, query, r) for r in exact_results]
    sample_days = [days_between(db, query, r) for r in synopsis]
    buckets = 6
    boundaries = quantiles(sample_days, n=buckets, method="inclusive")
    print("\nequi-depth histogram of days(catalog purchase - store sale)")
    print(f"  boundaries from the synopsis: {boundaries}")
    # how evenly the synopsis' cut points split the *exact* join
    counts = [0] * buckets
    for days in exact_days:
        counts[bisect_left(boundaries, days)] += 1
    ideal = len(exact_days) / buckets
    for b, count in enumerate(counts):
        bar = "#" * int(40 * count / max(counts))
        print(f"  bucket {b}: {count:>6} (ideal {ideal:,.0f}) {bar}")
    deviation = max(abs(c - ideal) for c in counts) / len(exact_days)
    print(f"  max deviation from equi-depth: {100 * deviation:.2f}% of N")

    # ---- aggregate estimation off the synopsis -----------------------
    # the synopsis is uniform over the *filtered* result set, so a mean
    # over it needs no population size: AVG holds as is
    answer = q1.estimate("avg", column="cs.cs_quantity")
    cs_idx = query.index_of("cs")
    quantity = db.table("catalog_sales").schema.index_of("cs_quantity")
    truth = sum(db.table("catalog_sales").get(r[cs_idx])[quantity]
                for r in exact_results) / len(exact_results)
    lo, hi = answer["ci"]
    print("\naverage quantity of the catalog purchase after a return:")
    print(f"  estimate: {answer['value']:.2f}  "
          f"(95% CI [{lo:.2f}, {hi:.2f}])")
    print(f"  exact:    {truth:.2f}")


if __name__ == "__main__":
    main()
