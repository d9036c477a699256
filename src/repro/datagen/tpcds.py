"""A structure-preserving, laptop-scale TPC-DS-like data generator (§7.1).

The paper evaluates on TPC-DS scale factor 10 and notes that "the data
distribution remains the same in TPC-DS regardless of the size and the
performance curve stabilizes after inserting a handful of tuples" — the
experiments' shape is driven by the *key structure* (which joins are
foreign-key, which are many-to-many) and the fanout distributions, not by
absolute row counts.  This generator reproduces exactly that structure for
the seven tables touched by QX/QY/QZ:

=====================  =========================================  ==========
table                  key structure                              updated
=====================  =========================================  ==========
date_dim               PK d_date_sk                               preloaded
household_demographics PK hd_demo_sk; band fanout = demos/bands   preloaded
item                   PK i_item_sk; category fanout              streamed
customer               PK c_customer_sk; FK -> demographics       streamed
store_sales            PK (item, ticket); FKs -> customer/date/…  streamed
store_returns          PK (item, ticket) = FK -> store_sales      streamed
catalog_sales          no key; FK -> date_dim; customer skewed    streamed
=====================  =========================================  ==========

Range tables that appear twice in a query (date_dim, customer, item,
household_demographics) are materialised as separate physical tables fed
the same logical rows — the paper's own "duplicated for ease of
implementation" arrangement (§7.1).

:func:`setup_query` builds the database, SQL and event streams for the
paper's QX, QY and QZ in one call.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog.database import Database
from repro.catalog.schema import Column, ForeignKey, TableSchema
from repro.datagen.draw import randbelow
from repro.datagen.workload import Insert, UpdateEvent
from repro.errors import ReproError


@dataclass(frozen=True)
class TpcdsScale:
    """Row counts and skew knobs.

    The defaults ("small") keep exact-oracle cross-checks feasible; the
    class methods give the sizes used by tests and benchmarks.
    """

    dates: int = 60
    demographics: int = 48
    income_bands: int = 8
    items: int = 90
    categories: int = 9
    customers: int = 240
    store_sales: int = 1500
    returns_fraction: float = 0.35
    catalog_sales: int = 900
    customer_skew: float = 1.05

    @classmethod
    def tiny(cls) -> "TpcdsScale":
        """Small enough to cross-check against the exact executor."""
        return cls(dates=12, demographics=10, income_bands=3, items=15,
                   categories=4, customers=25, store_sales=120,
                   returns_fraction=0.5, catalog_sales=80)

    @classmethod
    def small(cls) -> "TpcdsScale":
        return cls()

    @classmethod
    def bench(cls) -> "TpcdsScale":
        """The default benchmark scale."""
        return cls(dates=365, demographics=720, income_bands=20, items=1800,
                   categories=60, customers=4000, store_sales=20000,
                   returns_fraction=0.35, catalog_sales=12000)


@dataclass
class TpcdsData:
    """Materialised logical rows, in generation (FK-safe) order."""

    date_dim: List[tuple] = field(default_factory=list)
    household_demographics: List[tuple] = field(default_factory=list)
    item: List[tuple] = field(default_factory=list)
    customer: List[tuple] = field(default_factory=list)
    store_sales: List[tuple] = field(default_factory=list)
    store_returns: List[tuple] = field(default_factory=list)
    catalog_sales: List[tuple] = field(default_factory=list)


class TpcdsGenerator:
    """Generate one :class:`TpcdsData` instance."""

    def __init__(self, scale: Optional[TpcdsScale] = None,
                 seed: Optional[int] = None):
        self.scale = scale or TpcdsScale()
        self.rng = random.Random(seed)

    def generate(self) -> TpcdsData:
        scale = self.scale
        rng = self.rng
        draw = rng.getrandbits
        uniform = rng.random
        dates = scale.dates
        items = scale.items
        returns_fraction = scale.returns_fraction
        last_date = dates - 1
        data = TpcdsData()
        data.date_dim = [
            (sk, 2000 + sk // 365, (sk // 30) % 12 + 1, sk % 30 + 1)
            for sk in range(dates)
        ]
        data.household_demographics = [
            (sk, randbelow(draw, scale.income_bands), randbelow(draw, 7))
            for sk in range(scale.demographics)
        ]
        data.item = [
            (sk, randbelow(draw, scale.categories), randbelow(draw, 50))
            for sk in range(items)
        ]
        data.customer = [
            (sk, randbelow(draw, scale.demographics),
             1940 + randbelow(draw, 70))
            for sk in range(scale.customers)
        ]
        weights = _zipf_cumulative(scale.customers, scale.customer_skew)
        store_sales = data.store_sales
        store_returns = data.store_returns
        for ticket in range(scale.store_sales):
            customer = bisect_left(weights, uniform())
            sale = (
                randbelow(draw, items),   # ss_item_sk
                ticket,                   # ss_ticket_number
                customer,                 # ss_customer_sk
                randbelow(draw, dates),   # ss_sold_date_sk
                1 + randbelow(draw, 20),  # ss_quantity
            )
            store_sales.append(sale)
            if uniform() < returns_fraction:
                item_sk, _, cust, sold, qty = sale
                store_returns.append(
                    (item_sk, ticket, cust,
                     min(sold + 1 + randbelow(draw, 14), last_date),
                     1 + randbelow(draw, qty))
                )
        data.catalog_sales = [
            (bisect_left(weights, uniform()),     # cs_bill_customer_sk
             randbelow(draw, dates),              # cs_sold_date_sk
             randbelow(draw, items),              # cs_item_sk
             1 + randbelow(draw, 10))
            for _ in range(scale.catalog_sales)
        ]
        return data


def _zipf_cumulative(n: int, exponent: float) -> List[float]:
    """Cumulative Zipf(``exponent``) weights over ``n`` ranks, the last
    one infinite: ``bisect_left`` of a ``random()`` draw is the rank it
    falls in, and a draw past the rounded total clamps to the last
    rank (an empty list gives rank 0)."""
    raw = [1.0 / (i + 1) ** exponent for i in range(n)]
    total = sum(raw)
    cumulative = []
    acc = 0.0
    for w in raw:
        acc += w / total
        cumulative.append(acc)
    if cumulative:
        cumulative[-1] = math.inf
    return cumulative


# ----------------------------------------------------------------------
# schemas
# ----------------------------------------------------------------------
def _date_dim_schema(name: str) -> TableSchema:
    return TableSchema(name, [
        Column("d_date_sk"), Column("d_year"), Column("d_moy"),
        Column("d_dom"),
    ], primary_key=("d_date_sk",))


def _demographics_schema(name: str) -> TableSchema:
    return TableSchema(name, [
        Column("hd_demo_sk"), Column("hd_income_band_sk"),
        Column("hd_dep_count"),
    ], primary_key=("hd_demo_sk",))


def _item_schema(name: str) -> TableSchema:
    return TableSchema(name, [
        Column("i_item_sk"), Column("i_category_id"), Column("i_brand_id"),
    ], primary_key=("i_item_sk",))


def _customer_schema(name: str, demo_table: Optional[str]) -> TableSchema:
    fks = []
    if demo_table:
        fks.append(ForeignKey(("c_current_hdemo_sk",), demo_table,
                              ("hd_demo_sk",)))
    return TableSchema(name, [
        Column("c_customer_sk"), Column("c_current_hdemo_sk"),
        Column("c_birth_year"),
    ], primary_key=("c_customer_sk",), foreign_keys=tuple(fks))


def _store_sales_schema(name: str, customer_table: Optional[str],
                        date_table: Optional[str],
                        item_table: Optional[str]) -> TableSchema:
    fks = []
    if customer_table:
        fks.append(ForeignKey(("ss_customer_sk",), customer_table,
                              ("c_customer_sk",)))
    if date_table:
        fks.append(ForeignKey(("ss_sold_date_sk",), date_table,
                              ("d_date_sk",)))
    if item_table:
        fks.append(ForeignKey(("ss_item_sk",), item_table, ("i_item_sk",)))
    return TableSchema(name, [
        Column("ss_item_sk"), Column("ss_ticket_number"),
        Column("ss_customer_sk"), Column("ss_sold_date_sk"),
        Column("ss_quantity"),
    ], primary_key=("ss_item_sk", "ss_ticket_number"),
        foreign_keys=tuple(fks))


def _store_returns_schema(name: str, sales_table: str) -> TableSchema:
    return TableSchema(name, [
        Column("sr_item_sk"), Column("sr_ticket_number"),
        Column("sr_customer_sk"), Column("sr_returned_date_sk"),
        Column("sr_quantity"),
    ], primary_key=("sr_item_sk", "sr_ticket_number"),
        foreign_keys=(
            ForeignKey(("sr_item_sk", "sr_ticket_number"), sales_table,
                       ("ss_item_sk", "ss_ticket_number")),
    ))


def _catalog_sales_schema(name: str, date_table: str) -> TableSchema:
    return TableSchema(name, [
        Column("cs_bill_customer_sk"), Column("cs_sold_date_sk"),
        Column("cs_item_sk"), Column("cs_quantity"),
    ], foreign_keys=(
        ForeignKey(("cs_sold_date_sk",), date_table, ("d_date_sk",)),
    ))


# ----------------------------------------------------------------------
# query setups
# ----------------------------------------------------------------------
@dataclass
class QuerySetup:
    """Everything a benchmark needs to run one paper query."""

    name: str
    sql: str
    db: Database
    preload: List[Insert]
    stream: List[Insert]
    #: aliases of the tables receiving online updates (bold in Figure 10)
    streamed_aliases: Tuple[str, ...] = ()


QX_SQL = """
SELECT * FROM store_sales ss, store_returns sr, catalog_sales cs,
              date_dim_d1 d1, date_dim_d2 d2
WHERE ss.ss_item_sk = sr.sr_item_sk
  AND ss.ss_ticket_number = sr.sr_ticket_number
  AND sr.sr_customer_sk = cs.cs_bill_customer_sk
  AND d1.d_date_sk = ss.ss_sold_date_sk
  AND d2.d_date_sk = cs.cs_sold_date_sk
"""

QY_SQL = """
SELECT * FROM store_sales ss, customer_c1 c1, hd_d1 d1, hd_d2 d2,
              customer_c2 c2
WHERE ss.ss_customer_sk = c1.c_customer_sk
  AND c1.c_current_hdemo_sk = d1.hd_demo_sk
  AND d1.hd_income_band_sk = d2.hd_income_band_sk
  AND d2.hd_demo_sk = c2.c_current_hdemo_sk
"""

QZ_SQL = """
SELECT * FROM store_sales ss, customer_c1 c1, hd_d1 d1, item_i1 i1,
              hd_d2 d2, customer_c2 c2, item_i2 i2
WHERE ss.ss_customer_sk = c1.c_customer_sk
  AND c1.c_current_hdemo_sk = d1.hd_demo_sk
  AND d1.hd_income_band_sk = d2.hd_income_band_sk
  AND d2.hd_demo_sk = c2.c_current_hdemo_sk
  AND ss.ss_item_sk = i1.i_item_sk
  AND i1.i_category_id = i2.i_category_id
"""


def setup_query(name: str, scale: Optional[TpcdsScale] = None,
                seed: Optional[int] = 0) -> QuerySetup:
    """Build database, SQL and event streams for QX, QY or QZ."""
    name = name.upper()
    data = TpcdsGenerator(scale, seed).generate()
    rng = random.Random(0 if seed is None else seed + 1)
    if name == "QX":
        return _setup_qx(data, rng)
    if name == "QY":
        return _setup_qy(data, rng)
    if name == "QZ":
        return _setup_qz(data, rng)
    raise ReproError(f"unknown TPC-DS query {name!r}; pick QX, QY or QZ")


def _shuffle_merge(rng: random.Random,
                   streams: Sequence[List[Insert]]) -> List[Insert]:
    """Merge several insert streams, interleaving proportionally at random
    while preserving each stream's internal order (FK-safe)."""
    pools = [list(s) for s in streams if s]
    positions = [0] * len(pools)
    remaining = sum(len(p) for p in pools)
    out: List[Insert] = []
    while remaining:
        weights = [len(p) - pos for p, pos in zip(pools, positions)]
        pick = rng.choices(range(len(pools)), weights=weights)[0]
        out.append(pools[pick][positions[pick]])
        positions[pick] += 1
        remaining -= 1
    return out


def _setup_qx(data: TpcdsData, rng: random.Random) -> QuerySetup:
    db = Database()
    db.create_table(_date_dim_schema("date_dim_d1"))
    db.create_table(_date_dim_schema("date_dim_d2"))
    db.create_table(_store_sales_schema(
        "store_sales", None, "date_dim_d1", None))
    db.create_table(_store_returns_schema("store_returns", "store_sales"))
    db.create_table(_catalog_sales_schema("catalog_sales", "date_dim_d2"))
    preload = (
        [Insert("d1", row) for row in data.date_dim]
        + [Insert("d2", row) for row in data.date_dim]
    )
    # returns must follow their sale: pair each return right after a sale,
    # then merge in catalog sales at random
    sale_stream: List[Insert] = []
    returns_by_ticket = {row[1]: row for row in data.store_returns}
    pending: List[Insert] = []
    for sale in data.store_sales:
        sale_stream.append(Insert("ss", sale))
        ret = returns_by_ticket.get(sale[1])
        if ret is not None:
            # delay the return by a few sales to mimic real arrival order
            pending.append(Insert("sr", ret))
            if len(pending) > 4:
                sale_stream.append(pending.pop(0))
    sale_stream.extend(pending)
    cs_stream = [Insert("cs", row) for row in data.catalog_sales]
    stream = _shuffle_merge(rng, [sale_stream, cs_stream])
    return QuerySetup("QX", QX_SQL, db, preload, stream,
                      streamed_aliases=("ss", "sr", "cs"))


def _setup_qy(data: TpcdsData, rng: random.Random) -> QuerySetup:
    db = Database()
    db.create_table(_demographics_schema("hd_d1"))
    db.create_table(_demographics_schema("hd_d2"))
    db.create_table(_customer_schema("customer_c1", "hd_d1"))
    db.create_table(_customer_schema("customer_c2", "hd_d2"))
    db.create_table(_store_sales_schema(
        "store_sales", "customer_c1", None, None))
    preload = (
        [Insert("d1", row) for row in data.household_demographics]
        + [Insert("d2", row) for row in data.household_demographics]
    )
    # sales may only reference already-inserted customers: customers are
    # streamed first in bulk positions, sales of customer k appear after
    customer_stream: List[Insert] = []
    for row in data.customer:
        customer_stream.append(Insert("c1", row))
        customer_stream.append(Insert("c2", row))
    sales_stream = _sales_after_customers(data, rng)
    stream = _fk_safe_merge(rng, customer_stream, sales_stream,
                            key_col=2,
                            ready_after={row[0]: 2 * (i + 1)
                                         for i, row in
                                         enumerate(data.customer)})
    return QuerySetup("QY", QY_SQL, db, preload, stream,
                      streamed_aliases=("ss", "c1", "c2"))


def _setup_qz(data: TpcdsData, rng: random.Random) -> QuerySetup:
    db = Database()
    db.create_table(_demographics_schema("hd_d1"))
    db.create_table(_demographics_schema("hd_d2"))
    db.create_table(_item_schema("item_i1"))
    db.create_table(_item_schema("item_i2"))
    db.create_table(_customer_schema("customer_c1", "hd_d1"))
    db.create_table(_customer_schema("customer_c2", "hd_d2"))
    db.create_table(_store_sales_schema(
        "store_sales", "customer_c1", None, "item_i1"))
    preload = (
        [Insert("d1", row) for row in data.household_demographics]
        + [Insert("d2", row) for row in data.household_demographics]
        # items are streamed per the paper, but sales reference them, so a
        # safe prefix is preloaded and the rest streamed
        + [Insert("i1", row) for row in data.item]
        + [Insert("i2", row) for row in data.item]
    )
    customer_stream: List[Insert] = []
    for row in data.customer:
        customer_stream.append(Insert("c1", row))
        customer_stream.append(Insert("c2", row))
    sales_stream = _sales_after_customers(data, rng)
    stream = _fk_safe_merge(rng, customer_stream, sales_stream,
                            key_col=2,
                            ready_after={row[0]: 2 * (i + 1)
                                         for i, row in
                                         enumerate(data.customer)})
    return QuerySetup("QZ", QZ_SQL, db, preload, stream,
                      streamed_aliases=("ss", "c1", "c2"))


def _sales_after_customers(data: TpcdsData,
                           rng: random.Random) -> List[Insert]:
    return [Insert("ss", row) for row in data.store_sales]


def _fk_safe_merge(rng: random.Random, parents: List[Insert],
                   children: List[Insert], key_col: int, ready_after: Dict
                   ) -> List[UpdateEvent]:
    """Merge parent and child streams so every child event lands after the
    parent-stream position that makes its FK target live; a child's FK
    value is ``child.row[key_col]``."""
    out: List[Insert] = []
    child_pos = 0
    for i, parent in enumerate(parents):
        out.append(parent)
        # release children whose parent is now present, with jitter
        while child_pos < len(children):
            child = children[child_pos]
            needed = ready_after.get(child.row[key_col], 0)
            if needed <= i + 1 and rng.random() < 0.6:
                out.append(child)
                child_pos += 1
            else:
                break
    out.extend(children[child_pos:])
    return out
