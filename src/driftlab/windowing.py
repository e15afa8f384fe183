"""Yearly batches and sliding batch-sequence windows over a row stream.
Which evaluable steps (step_years) a cell records is strategy.recorded_step_years."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

log = logging.getLogger(__name__)

# a (year, week) cell's sort key is year * _WEEK_SPAN + week, for weeks in [0, _WEEK_SPAN)
_WEEK_SPAN = 1 << 32


class WindowUnderflowError(ValueError):
    """Requested a batch sequence extending before the start of the stream."""


@dataclass(frozen=True, eq=False)
class Batch:
    """All rows of one time slice (one year). A batch compares and hashes by
    identity, so it can key a memo."""
    year: int
    rows: tuple = field(repr=False)

    @property
    def is_empty(self) -> bool:
        return len(self.rows) == 0

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def week_counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cells, flights, delayed flights): the rows' distinct (year, week)
        cells, ascending, as a (cells, 2) array, and each cell's row and
        delayed-row counts. Counted once per batch."""
        n = len(self.rows)
        years = np.fromiter((row.year for row in self.rows), np.int64, n)
        weeks = np.fromiter((row.week_of_year for row in self.rows), np.int64, n)
        delayed = np.fromiter((row.delayed for row in self.rows), bool, n)
        keys, inverse = np.unique(years * _WEEK_SPAN + weeks, return_inverse=True)
        cells = np.stack(np.divmod(keys, _WEEK_SPAN), axis=1)
        return cells, np.bincount(inverse), np.bincount(inverse[delayed], minlength=len(cells))


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

    @property
    def rows(self) -> list:
        return list(chain.from_iterable(b.rows for b in self.batches))


def partition_by_year(rows, year_range: tuple[int, int]) -> list[Batch]:
    """One batch per year in [first, last], ascending; empty years are kept
    (and logged) so downstream indices stay aligned."""
    first, last = year_range
    if last < first:
        raise ValueError(f"empty year range {year_range}")
    buckets: dict[int, list] = {year: [] for year in range(first, last + 1)}
    for row in rows:
        if first <= row.year <= last:
            buckets[row.year].append(row)
    batches = [Batch(year=year, rows=tuple(buckets[year])) for year in range(first, last + 1)]
    empty = [b.year for b in batches if b.is_empty]
    if empty:
        log.warning("partition_by_year: empty batches for years %s", empty)
    return batches


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
