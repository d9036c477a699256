"""A small data-warehouse dashboard: several pre-specified join queries
maintained simultaneously over one shared update stream.

This is the paper's deployment setting (abstract / §1): the warehouse
registers a join synopsis per monitored query; every base-table update is
stored once and fans out to all affected synopses.  The dashboard refresh
asks the served AQP path (``QueryRegistry`` → ``RegisteredQuery.estimate``)
for grouped estimates over each synopsis — no join is ever computed.

Run:  python examples/warehouse_dashboard.py
"""

import random

from repro import (
    Column,
    Database,
    ForeignKey,
    MaintainerConfig,
    QueryRegistry,
    SynopsisManager,
    SynopsisSpec,
    TableSchema,
)

REGIONS = ["north", "south", "east", "west"]


def build_schema(db: Database) -> None:
    db.create_table(TableSchema("stores", [
        Column("store_id"), Column("region_id"),
    ], primary_key=("store_id",)))
    db.create_table(TableSchema("sales", [
        Column("store_id"), Column("item_id"), Column("amount"),
    ], foreign_keys=(ForeignKey(("store_id",), "stores", ("store_id",)),)))
    db.create_table(TableSchema("shipments", [
        Column("item_id"), Column("qty"),
    ]))
    db.create_table(TableSchema("complaints", [
        Column("item_id"), Column("severity"),
    ]))


def main() -> None:
    rng = random.Random(13)
    db = Database()
    build_schema(db)

    manager = SynopsisManager(db, MaintainerConfig(seed=5))
    # two monitored queries over overlapping tables
    manager.register(
        "sales_by_region",
        "SELECT * FROM sales, stores "
        "WHERE sales.store_id = stores.store_id",
        MaintainerConfig(spec=SynopsisSpec.fixed_size(300)),
    )
    manager.register(
        "problem_items",
        "SELECT * FROM sales, shipments, complaints "
        "WHERE sales.item_id = shipments.item_id "
        "AND shipments.item_id = complaints.item_id",
        MaintainerConfig(spec=SynopsisSpec.fixed_size(200),
                         engine="sjoin"),
    )

    # preload the store dimension
    for store in range(12):
        manager.insert("stores", (store, store % len(REGIONS)))

    # one shared stream of warehouse events
    sale_tids = []
    for step in range(4000):
        r = rng.random()
        if r < 0.55:
            sale_tids.append(manager.insert(
                "sales",
                (rng.randrange(12), rng.randrange(40),
                 5 + rng.randrange(200)),
            ))
        elif r < 0.75:
            manager.insert("shipments", (rng.randrange(40),
                                         1 + rng.randrange(30)))
        elif r < 0.9:
            manager.insert("complaints", (rng.randrange(40),
                                          rng.randrange(5)))
        elif sale_tids:
            manager.delete(
                "sales", sale_tids.pop(rng.randrange(len(sale_tids)))
            )

    # ---- dashboard refresh -------------------------------------------
    registry = QueryRegistry(manager)

    print("=== sales by region (estimated from the synopsis) ===")
    by_region = registry.get("sales_by_region")
    counts = by_region.estimate("count", group_by="stores.region_id")
    revenue = by_region.estimate("sum", column="sales.amount",
                                 group_by="stores.region_id")
    print(f"J = {counts['total_results']:,}, "
          f"synopsis = {counts['sample_size']} samples")
    revenue_of = {g["key"]: g["value"] for g in revenue["groups"]}
    # groups arrive heaviest first
    for group in counts["groups"][:4]:
        lo, hi = group["ci"]
        print(f"  {REGIONS[group['key']]:<6} ~{group['value']:8,.0f} sales "
              f"(95% CI [{lo:,.0f}, {hi:,.0f}])  "
              f"revenue ~{revenue_of[group['key']]:10,.0f}")

    print("\n=== items with shipments AND complaints ===")
    items = registry.get("problem_items").estimate(
        "count", group_by="sales.item_id")
    print(f"J = {items['total_results']:,}, "
          f"synopsis = {items['sample_size']} samples")
    for group in items["groups"][:5]:
        print(f"  item {group['key']:<3} ~{group['value']:10,.0f} "
              f"linked (sale, shipment, complaint) events")


if __name__ == "__main__":
    main()
