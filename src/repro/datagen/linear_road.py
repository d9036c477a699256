"""A simulated road-sensor stream in the spirit of Linear Road (§7.1).

Cars travel along parallel lanes of a simulated highway, each emitting a
``(car_id, pos, ts)`` report every tick (the benchmark's 30-second position
reports).  Reports are loaded into one table per lane, in timestamp order,
and any report older than ``window`` ticks is deleted — the paper's
"delete any tuple that is more than 60 seconds older than the newest" §7.1
policy, realised as interleaved ``DeleteOldest`` events.

The paper's QB is the band join over three adjacent lanes::

    SELECT * FROM lane1, lane2, lane3
    WHERE |lane1.pos - lane2.pos| <= d AND |lane2.pos - lane3.pos| <= d

The band width ``d`` directly controls the join fanout (Figure 14): cars
are spread over ``road_length`` positions, so a lane with ``c`` live cars
matches about ``2 d c / road_length`` cars per adjacent lane.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.catalog.database import Database
from repro.catalog.schema import Column, TableSchema
from repro.datagen.draw import randbelow
from repro.datagen.workload import DeleteOldest, Insert, UpdateEvent


@dataclass(frozen=True)
class LinearRoadConfig:
    lanes: int = 3
    cars_per_lane: int = 40
    ticks: int = 30
    road_length: int = 1000
    max_speed: int = 25
    window: int = 2  # ticks a report stays live (the 60s sliding window)

    @classmethod
    def tiny(cls) -> "LinearRoadConfig":
        return cls(cars_per_lane=8, ticks=8, road_length=120, max_speed=12)


class LinearRoadGenerator:
    """Generate the interleaved insert/delete event stream for QB."""

    def __init__(self, config: Optional[LinearRoadConfig] = None,
                 seed: Optional[int] = None):
        self.config = config or LinearRoadConfig()
        self.rng = random.Random(seed)

    def events(self) -> List[UpdateEvent]:
        """The full stream: per tick, every car reports; reports that fall
        out of the window are deleted before the next tick's reports."""
        cfg = self.config
        draw = self.rng.getrandbits
        cars = cfg.cars_per_lane
        road_length = cfg.road_length
        max_speed = cfg.max_speed
        names = [f"lane{lane + 1}" for lane in range(cfg.lanes)]
        positions = [
            [randbelow(draw, road_length) for _ in range(cars)]
            for _ in names
        ]
        out: List[UpdateEvent] = []
        for tick in range(cfg.ticks):
            if tick >= cfg.window:
                # expire the reports of tick - window (one per car per lane)
                out.extend(DeleteOldest(name, cars) for name in names)
            for lane, name in enumerate(names):
                first = lane * cars
                out.extend(
                    Insert(name, (first + car, pos, tick))
                    for car, pos in enumerate(positions[lane])
                )
            positions = [
                [(pos + 1 + randbelow(draw, max_speed)) % road_length
                 for pos in lane_positions]
                for lane_positions in positions
            ]
        return out


def lane_schema(name: str) -> TableSchema:
    return TableSchema(name, [
        Column("car_id"), Column("pos"), Column("ts"),
    ])


def qb_sql(d: int, lanes: int = 3) -> str:
    """The paper's QB with band width ``d``."""
    froms = ", ".join(f"lane{i + 1}" for i in range(lanes))
    conds = [
        f"|lane{i + 1}.pos - lane{i + 2}.pos| <= {d}"
        for i in range(lanes - 1)
    ]
    return f"SELECT * FROM {froms} WHERE " + " AND ".join(conds)


@dataclass
class QbSetup:
    name: str
    sql: str
    db: Database
    events: List[UpdateEvent]
    d: int


def setup_qb(d: int, config: Optional[LinearRoadConfig] = None,
             seed: Optional[int] = 0) -> QbSetup:
    """Build database and event stream for QB with band width ``d``."""
    config = config or LinearRoadConfig()
    db = Database()
    for lane in range(config.lanes):
        db.create_table(lane_schema(f"lane{lane + 1}"))
    events = LinearRoadGenerator(config, seed).events()
    return QbSetup(f"QB(d={d})", qb_sql(d, config.lanes), db, events, d)
