import pytest

from conftest import make_row
from driftlab.strategy import recorded_step_years
from driftlab.windowing import (Batch, BatchSequence, WindowUnderflowError,
                                batch_sequence, partition_by_year, step_years)


def stream_for(years):
    rows = [make_row(year=y) for y in years for _ in range(3)]
    return partition_by_year(rows, (min(years), max(years)))


class TestPartition:
    def test_rows_spanning_2003_2006(self):
        batches = partition_by_year([make_row(year=y) for y in (2004, 2003, 2006, 2005)],
                                    (2003, 2006))
        assert [b.year for b in batches] == [2003, 2004, 2005, 2006]

    def test_empty_year_is_kept_and_flagged(self, caplog):
        with caplog.at_level("WARNING"):
            batches = partition_by_year([make_row(year=2003)], (2003, 2004))
        assert batches[1].is_empty
        assert "empty batches" in caplog.text

    def test_full_paper_range_gives_15_batches(self):
        rows = [make_row(year=y) for y in range(2003, 2018)]
        assert len(partition_by_year(rows, (2003, 2017))) == 15

    def test_rows_outside_range_dropped(self):
        batches = partition_by_year([make_row(year=1999), make_row(year=2003)],
                                    (2003, 2003))
        assert len(batches) == 1 and len(batches[0]) == 1

    def test_bad_range(self):
        with pytest.raises(ValueError):
            partition_by_year([], (2005, 2003))


class TestBatchSequence:
    def test_two_year_window(self):
        stream = stream_for(range(2003, 2007))
        seq = batch_sequence(stream, 2004, 2)
        assert [b.year for b in seq.batches] == [2003, 2004]
        assert seq.end_year == 2004

    def test_identity_window(self):
        stream = stream_for(range(2003, 2007))
        seq = batch_sequence(stream, 2003, 1)
        assert [b.year for b in seq.batches] == [2003]

    def test_underflow(self):
        stream = stream_for(range(2003, 2007))
        with pytest.raises(WindowUnderflowError):
            batch_sequence(stream, 2003, 2)

    def test_rows_union_is_exact(self):
        stream = stream_for(range(2003, 2007))
        seq = batch_sequence(stream, 2005, 3)
        expected = [r for b in stream[:3] for r in b.rows]
        assert seq.rows == expected

    def test_non_consecutive_batches_rejected(self):
        b1 = Batch(year=2003, rows=())
        b2 = Batch(year=2005, rows=())
        with pytest.raises(ValueError):
            BatchSequence(batches=(b1, b2))


class TestStepYears:
    def test_window_and_next_batch_must_exist(self):
        years = list(range(2003, 2010))
        assert step_years(years, 1) == list(range(2003, 2009))
        assert step_years(years, 3) == list(range(2005, 2009))
        assert step_years(years, 7) == []

    def test_year_range_is_inclusive(self):
        years = list(range(2003, 2010))
        assert step_years(years, 2, (2005, 2007)) == [2005, 2006, 2007]
        assert step_years(years, 2, (2001, 2003)) == []


class TestRecordedStepYears:
    def test_full_stream_records_every_step(self):
        stream = stream_for(range(2003, 2008))
        for strategy in ("passive", "baseline", "active"):
            assert recorded_step_years(stream, 2, strategy) == step_years(
                list(range(2003, 2008)), 2)

    def test_empty_year_skips(self):
        # 2005 empty: t=2004 has no test batch; t=2005 has an empty window,
        # which only baseline, keeping its first model, can evaluate
        rows = [make_row(year=y) for y in (2003, 2004, 2006, 2007) for _ in range(3)]
        stream = partition_by_year(rows, (2003, 2007))
        assert recorded_step_years(stream, 1, "passive") == [2003, 2006]
        assert recorded_step_years(stream, 1, "baseline") == [2003, 2005, 2006]
        assert recorded_step_years(stream, 2, "passive") == [2005, 2006]
        assert recorded_step_years(stream, 1, "passive", (2004, 2006)) == [2006]

    def test_no_first_model_from_an_empty_window(self):
        rows = [make_row(year=y) for y in (2005, 2006) for _ in range(3)]
        stream = partition_by_year(rows, (2003, 2006))
        assert recorded_step_years(stream, 1, "baseline") == [2005]
