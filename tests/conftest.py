import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from driftlab.ingest import FlightFeatureRow
from driftlab.windowing import Batch, RowTable, partition_by_year


def make_row(year=2003, week=1, delayed=0, origin="SBGR", state="SP",
             features=(0.1, 0.2)):
    return FlightFeatureRow(origin_airport=origin, destination_state=state,
                            week_of_year=week, year=year,
                            numeric_features=np.array(features, dtype=float),
                            delayed=delayed)


def as_batches(rows) -> list[Batch]:
    """The rows as one RowTable in batches of consecutive same-year rows,
    the input of learn.train and learn.predict: concatenated, their rows are
    the rows in order."""
    table = RowTable.from_rows(rows)
    runs = np.split(np.arange(len(table)), np.flatnonzero(np.diff(table.year)) + 1)
    return [Batch(int(table.year[run[0]]), table, run) for run in runs if run.size]


def stream_of(rows, year_range) -> list[Batch]:
    """partition_by_year of the rows' table."""
    return partition_by_year(RowTable.from_rows(rows), year_range)


def weekly_rows(year, weeks=52, per_week=100, delayed_per_week=20, origin="SBGR"):
    """One year of rows with an exact per-week delay count."""
    rows = []
    for week in range(1, weeks + 1):
        for i in range(per_week):
            rows.append(make_row(year=year, week=week, origin=origin,
                                 delayed=int(i < delayed_per_week),
                                 features=(i / per_week, week / weeks)))
    return rows


def varied_weekly_rows(year, base=16, amplitude=8, weeks=52, per_week=100, origin="SBGR"):
    """Like weekly_rows but the per-week delay count wobbles deterministically,
    so weekly proportion vectors are non-degenerate."""
    rows = []
    for week in range(1, weeks + 1):
        delayed = base + ((week * 3) % (amplitude + 1))
        for i in range(per_week):
            rows.append(make_row(year=year, week=week, origin=origin,
                                 delayed=int(i < delayed),
                                 features=(i / per_week, week / weeks)))
    return rows


@pytest.fixture
def toy_separable_rows():
    """Linearly separable two-feature set: 40 rows, label decided by the
    first feature with a wide margin."""
    rng = np.random.default_rng(93)
    rows = []
    for i in range(40):
        y = i % 2
        f0 = rng.uniform(0.7, 1.0) if y else rng.uniform(0.0, 0.3)
        f1 = rng.uniform(0.0, 1.0)
        rows.append(make_row(year=2003, week=1 + i % 52, delayed=y,
                             state="S" + str(i % 3), features=(f0, f1)))
    return rows
