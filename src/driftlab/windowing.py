"""Yearly batches and sliding batch-sequence windows over a row stream.
Which evaluable steps (step_years) a cell records is strategy.recorded_step_years."""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter

import numpy as np

from . import ingest

log = logging.getLogger(__name__)

# a (year, week) cell's sort key is year * _WEEK_SPAN + week, for weeks in [0, _WEEK_SPAN)
_WEEK_SPAN = 1 << 32
_ORIGIN, _WEEK = map(ingest.CAT_COLUMNS.index, ("origin_airport", "week_of_year"))


class WindowUnderflowError(ValueError):
    """Requested a batch sequence extending before the start of the stream."""


@dataclass(frozen=True, eq=False)
class RowTable:
    """A sweep's rows as columns, in input order: int64 year, week and
    delayed, the raw feature matrix (ingest.feature_matrix) and, per
    ingest.CAT_COLUMNS column, its levels sorted by str and each row's code."""
    year: np.ndarray
    week: np.ndarray
    delayed: np.ndarray
    features: np.ndarray
    levels: tuple[list, ...]
    codes: tuple[np.ndarray, ...]

    @classmethod
    def from_rows(cls, rows) -> RowTable:
        """The only reader of row objects: one C-level pass per attribute. A
        level keeps the type of the first row that has it."""
        n = len(rows)
        cats = [list(map(attrgetter(name), rows)) for name in ingest.CAT_COLUMNS]
        levels = tuple(sorted(set(col), key=str) for col in cats)
        codes = tuple(
            np.fromiter(map({level: i for i, level in enumerate(col_levels)}.__getitem__, col),
                        dtype=np.intp, count=n)
            for col, col_levels in zip(cats, levels))
        return cls(year=np.fromiter(map(attrgetter("year"), rows), np.int64, n),
                   week=np.fromiter(cats[_WEEK], np.int64, n),
                   delayed=np.fromiter(map(attrgetter("delayed"), rows), np.int64, n),
                   features=ingest.feature_matrix(rows), levels=levels, codes=codes)

    def __len__(self) -> int:
        return self.year.size

    def digest(self) -> str:
        """sha256 over the arrays, read in place, in a fixed order: year, week,
        delayed, features, then per categorical column its codes and its
        levels (as a JSON list of their str)."""
        h = hashlib.sha256()
        for array in (self.year, self.week, self.delayed, self.features):
            h.update(np.ascontiguousarray(array))
        for codes, levels in zip(self.codes, self.levels):
            h.update(np.ascontiguousarray(codes))
            h.update(json.dumps(list(map(str, levels))).encode())
        return h.hexdigest()


@dataclass(frozen=True, eq=False)
class Batch:
    """A year's rows: an index array into a RowTable, in row order. A batch
    compares and hashes by identity, so it can key a memo."""
    year: int
    table: RowTable = field(repr=False)
    index: np.ndarray = field(repr=False)

    @property
    def is_empty(self) -> bool:
        return self.index.size == 0

    def __len__(self) -> int:
        return self.index.size

    @property
    def labels(self) -> np.ndarray:
        return self.table.delayed[self.index]

    @cached_property
    def week_counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cells, flights, delayed flights): the rows' distinct (year, week)
        cells, ascending, as a (cells, 2) array, and each cell's row and
        delayed-row counts. Counted once per batch."""
        year, week = self.table.year[self.index], self.table.week[self.index]
        keys, inverse = np.unique(year * _WEEK_SPAN + week, return_inverse=True)
        cells = np.stack(np.divmod(keys, _WEEK_SPAN), axis=1)
        return cells, np.bincount(inverse), np.bincount(inverse[self.labels != 0],
                                                        minlength=len(cells))


@dataclass(frozen=True)
class BatchSequence:
    """b consecutive batches (a training window)."""
    batches: tuple

    def __post_init__(self):
        if not self.batches:
            raise ValueError("batch sequence size must be >= 1")
        years = [b.year for b in self.batches]
        if years != list(range(years[0], years[0] + len(years))):
            raise ValueError(f"batches are not consecutive years: {years}")

    @property
    def end_year(self) -> int:
        return self.batches[-1].year


def partition_by_year(table: RowTable, year_range: tuple[int, int]) -> list[Batch]:
    """One batch per year in [first, last], ascending, its rows in input
    order; empty years are kept (and logged) so downstream indices stay aligned."""
    first, last = year_range
    if last < first:
        raise ValueError(f"empty year range {year_range}")
    batches = [Batch(year, table, np.flatnonzero(table.year == year))
               for year in range(first, last + 1)]
    _log_empty("partition_by_year", batches)
    return batches


def split_by_origin(stream: list[Batch], origins) -> dict[str, list[Batch]]:
    """Each origin's stream: per batch of stream, a batch of its rows from
    that origin, in stream order. Empty years are kept and logged, as in
    partition_by_year."""
    scoped: dict[str, list[Batch]] = {origin: [] for origin in origins}
    for batch in stream:
        levels = batch.table.levels[_ORIGIN]
        codes = batch.table.codes[_ORIGIN][batch.index]
        for origin, batches in scoped.items():
            code = levels.index(origin) if origin in levels else -1
            batches.append(Batch(batch.year, batch.table, batch.index[codes == code]))
    for origin, batches in scoped.items():
        _log_empty(origin, batches)
    return scoped


def _log_empty(scope: str, batches: list[Batch]) -> None:
    empty = [b.year for b in batches if b.is_empty]
    if empty:
        log.warning("%s: empty batches for years %s", scope, empty)


def batch_sequence(stream: list[Batch], end_year: int, b: int) -> BatchSequence:
    """The window of b consecutive batches ending at the batch for end_year."""
    years = [batch.year for batch in stream]
    try:
        pos = years.index(end_year)
    except ValueError:
        raise WindowUnderflowError(f"year {end_year} not in stream {years[0]}..{years[-1]}")
    if pos - b + 1 < 0:
        raise WindowUnderflowError(
            f"window underflow: need {b} batches ending at {end_year}, "
            f"stream starts at {years[0]}")
    return BatchSequence(batches=tuple(stream[pos - b + 1:pos + 1]))


def step_years(years: list[int], b: int,
               year_range: tuple[int, int] | None = None) -> list[int]:
    """The evaluable steps t of a stream with these batch years: the b-window
    ending at t exists and batch t+1 exists; year_range (inclusive, on t)
    restricts them."""
    steps = years[b - 1:-1]
    if year_range is None:
        return steps
    lo, hi = year_range
    return [t for t in steps if lo <= t <= hi]
