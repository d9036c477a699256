"""IoT scenario (§7.1): monitor clusters of nearby vehicles across three
highway lanes with a band join over streaming sensor reports.

Reports arrive every tick and expire after a sliding window — a workload
where the join result churns constantly and recomputing it per tick is
hopeless.  A :class:`StreamPlayer` drives the manager: once the
window is full, each tick first expires the previous window's oldest
tick with one ``DeleteOldest`` event per lane (the player keeps each
lane's arrival order), and SJoin keeps a uniform sample alive through
the churn.  We poll it each tick through the registered query's
``estimate``: the platoon density (exact join cardinality J) and how
many platoon triples sit in the western half of the road.

Run:  python examples/road_sensor_monitoring.py
"""

import random

from repro import Database, QueryRegistry, SynopsisManager
from repro.datagen.linear_road import lane_schema, qb_sql
from repro.datagen.workload import DeleteOldest, Insert, StreamPlayer

BAND = 60       # metres: how close cars must be to count as a platoon
WINDOW = 2      # ticks a report stays live (the paper's 60 s window)
LANES = 3
CARS = 50
TICKS = 12
ROAD = 1800


def main() -> None:
    rng = random.Random(4)
    db = Database()
    for lane in range(LANES):
        db.create_table(lane_schema(f"lane{lane + 1}"))

    manager = SynopsisManager(db)
    platoons = QueryRegistry(manager).register(
        qb_sql(BAND, LANES), "platoons", size=200, engine="sjoin", seed=11)
    # the lane tables are their own aliases: events name base tables
    player = StreamPlayer(manager)
    west = [{"column": "lane1.pos", "op": "<", "value": ROAD // 2}]

    positions = [
        [rng.randrange(ROAD) for _ in range(CARS)] for _ in range(LANES)
    ]
    print(f"monitoring |pos_i - pos_j| <= {BAND} over {LANES} lanes, "
          f"window = {WINDOW} ticks\n")
    print(f"{'tick':>4} | {'platoon triples (J)':>20} | "
          f"{'west half (est)':>17} | {'synopsis':>8}")

    for tick in range(TICKS):
        if tick >= WINDOW:
            # the reports of tick - WINDOW fall out of the window
            for lane in range(LANES):
                player.apply(DeleteOldest(f"lane{lane + 1}", CARS))
        for lane in range(LANES):
            for car, pos in enumerate(positions[lane]):
                player.apply(Insert(
                    f"lane{lane + 1}", (lane * CARS + car, pos, tick)))
            positions[lane] = [
                (pos + 1 + rng.randrange(35)) % ROAD
                for pos in positions[lane]
            ]
        if tick == 0:
            continue
        answer = platoons.estimate("count", where=west)
        if answer["ci"] is not None:
            lo, hi = answer["ci"]
            est = f"{answer['value']:7.0f} ± {(hi - lo) / 2:5.0f}"
        else:
            est = "      (no data)"
        print(f"{tick:>4} | {answer['total_results']:>20,} | "
              f"{est:>17} | {answer['sample_size']:>8}")

    print("\nfinal synopsis sample (first 5):")
    for result in manager.synopsis("platoons")[:5]:
        rows = [db.table(f"lane{i+1}").get(tid)
                for i, tid in enumerate(result)]
        cars = ", ".join(f"car{r[0]}@{r[1]}" for r in rows)
        print(f"  {cars}")


if __name__ == "__main__":
    main()
