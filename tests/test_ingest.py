import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import make_row
from driftlab import ingest
from driftlab.ingest import (LoadResult, apply_normalizer, fit_normalizer, load_airport_states,
                             load_flights, load_rows, preprocess, save_rows)

HEADER = "flight_id,origin,destination,scheduled_departure,actual_departure,kind,wx_temp,wx_wind\n"


def write_csv(tmp_path, lines, header=HEADER):
    path = tmp_path / "flights.csv"
    path.write_text(header + "".join(lines), encoding="utf-8")
    return path


def line(fid="F1", origin="SBGR", dest="SBBR", sched="2003-03-10T08:00",
         actual="2003-03-10T08:40", kind="domestic", temp="21.5", wind="3.0"):
    return f"{fid},{origin},{dest},{sched},{actual},{kind},{temp},{wind}\n"


def load_all(path):
    """load_flights(path) with its record stream read to the end."""
    loaded = load_flights(path)
    records = list(loaded.records)
    return loaded, records


class TestLoadFlights:
    def test_three_valid_lines(self, tmp_path):
        path = write_csv(tmp_path, [line(fid=f"F{i}") for i in range(3)])
        result, records = load_all(path)
        assert len(records) == 3
        assert result.malformed_count == 0

    def test_missing_scheduled_is_malformed(self, tmp_path):
        path = write_csv(tmp_path, [line(), line(sched=""), line()])
        result, records = load_all(path)
        assert len(records) == 2
        assert result.malformed_count == 1
        assert "scheduled_departure" in result.malformed[0][1]

    def test_header_only(self, tmp_path):
        path = write_csv(tmp_path, [])
        result, records = load_all(path)
        assert records == [] and result.malformed == []
        assert result.wx_columns == ("wx_temp", "wx_wind")

    def test_header_checked_at_once_lines_as_the_stream_reads_them(self, tmp_path):
        path = write_csv(tmp_path, [line(sched=""), line(), line(kind="charter")])
        result = load_flights(path)
        assert result.malformed == []
        next(iter(result.records))
        assert [lineno for lineno, _ in result.malformed] == [2]
        assert len(list(result.records)) == 0
        assert [lineno for lineno, _ in result.malformed] == [2, 4]

    def test_lines_numbered_after_a_multi_line_field(self, tmp_path):
        """A record is numbered by its first physical line, also after a
        quoted field that spans two lines."""
        path = write_csv(tmp_path, [line(sched='"2003-03-10\nT08:00"'), line(),
                                    line(wind="breezy")])
        result, records = load_all(path)
        assert len(records) == 1
        assert [lineno for lineno, _ in result.malformed] == [2, 5]
        assert "bad numeric value 'breezy' in wx_wind" in result.malformed[1][1]

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_flights(tmp_path / "nope.csv")

    def test_unknown_column_fatal(self, tmp_path):
        path = write_csv(tmp_path, [], header=HEADER.replace("wx_wind", "bogus"))
        with pytest.raises(ValueError, match="bogus"):
            load_flights(path)

    def test_missing_expected_column_fatal(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("flight_id,origin\n", encoding="utf-8")
        with pytest.raises(ValueError, match="missing expected"):
            load_flights(path)

    def test_empty_actual_departure_is_wellformed(self, tmp_path):
        path = write_csv(tmp_path, [line(actual="")])
        _, records = load_all(path)
        assert records[0].delay_min is None

    def test_empty_weather_becomes_nan(self, tmp_path):
        path = write_csv(tmp_path, [line(temp="")])
        result, records = load_all(path)
        assert np.isnan(records[0].weather[result.wx_columns.index("wx_temp")])

    def test_bad_weather_value_malformed(self, tmp_path):
        path = write_csv(tmp_path, [line(wind="breezy")])
        result, _ = load_all(path)
        assert result.malformed_count == 1

    def test_utc_offset_on_one_departure_only_malformed(self, tmp_path):
        path = write_csv(tmp_path, [line(actual="2003-03-10T08:40+00:00"),
                                    line(sched="2003-03-10T08:00-03:00"),
                                    line(sched="2003-03-10T08:00-03:00",
                                         actual="2003-03-10T11:40+00:00")])
        result, records = load_all(path)
        assert [lineno for lineno, _ in result.malformed] == [2, 3]
        assert "UTC offset" in result.malformed[0][1]
        assert [r.delay_min for r in records] == [40.0]


class TestPreprocess:
    def test_delay_30min_labeled_delayed(self, tmp_path):
        path = write_csv(tmp_path, [line(actual="2003-03-10T08:30")])
        rows = preprocess(load_flights(path)).rows
        assert rows[0].delayed == 1

    def test_delay_14min_not_delayed(self, tmp_path):
        path = write_csv(tmp_path, [line(actual="2003-03-10T08:14")])
        rows = preprocess(load_flights(path)).rows
        assert rows[0].delayed == 0

    def test_delay_25h_excluded(self, tmp_path):
        path = write_csv(tmp_path, [line(actual="2003-03-11T09:00")])
        result = preprocess(load_flights(path))
        assert result.rows == []
        assert result.excluded["delay_above_max"] == 1

    def test_international_excluded(self, tmp_path):
        path = write_csv(tmp_path, [line(kind="international")])
        result = preprocess(load_flights(path))
        assert result.excluded["not_domestic"] == 1

    def test_missing_actual_excluded(self, tmp_path):
        path = write_csv(tmp_path, [line(actual="")])
        result = preprocess(load_flights(path))
        assert result.excluded["missing_actual_departure"] == 1

    def test_unknown_destination_excluded(self, tmp_path):
        path = write_csv(tmp_path, [line(dest="XXXX")])
        result = preprocess(load_flights(path))
        assert result.excluded["unknown_destination_state"] == 1

    def test_airport_filter(self, tmp_path):
        path = write_csv(tmp_path, [line(origin="SBGR"), line(origin="SBBR")])
        result = preprocess(load_flights(path), airport_filter="SBBR")
        assert len(result.rows) == 1
        assert result.rows[0].origin_airport == "SBBR"

    def test_iso_week_and_state(self, tmp_path):
        # Dec 29 2003 falls in ISO week 1 of 2004
        path = write_csv(tmp_path, [line(sched="2003-12-29T10:00",
                                         actual="2003-12-29T10:05")])
        row = preprocess(load_flights(path)).rows[0]
        assert (row.year, row.week_of_year) == (2004, 1)
        assert row.destination_state == "DF"

    def test_feature_vector_layout(self, tmp_path):
        path = write_csv(tmp_path, [line()])
        result = preprocess(load_flights(path))
        assert result.feature_names == ("sched_hour", "sched_weekday", "sched_month",
                                        "wx_temp", "wx_wind")
        # Monday 2003-03-10 08:00, March
        assert result.rows[0].numeric_features.tolist() == [8.0, 0.0, 3.0, 21.5, 3.0]

    def test_no_wellformed_record_keeps_the_header_s_features(self, tmp_path):
        path = write_csv(tmp_path, [line(kind="charter")])
        result = preprocess(load_flights(path))
        assert result.rows == [] and result.record_count == 0
        assert result.feature_names == ("sched_hour", "sched_weekday", "sched_month",
                                        "wx_temp", "wx_wind")

    def test_record_count_is_kept_plus_excluded(self, tmp_path):
        path = write_csv(tmp_path, [line(), line(kind="international"), line(wind="x"),
                                    line(actual="")])
        loaded = load_flights(path)
        result = preprocess(loaded)
        assert (result.record_count, len(result.rows), loaded.malformed_count) == (3, 1, 1)

    def test_filtering_idempotent(self, tmp_path):
        lines = [line(fid=f"F{i}", origin=o, kind=k)
                 for i, (o, k) in enumerate([("SBGR", "domestic"), ("SBXX", "domestic"),
                                             ("SBBR", "international"), ("SBCF", "domestic")])]
        loaded, records = load_all(write_csv(tmp_path, lines))
        states = load_airport_states()

        def kept(r):
            return ingest._filter_record(r.flight_kind, r.origin_airport, r.destination_airport,
                                         r.delay_min, None, states) is None
        survivors = [r for r in records if kept(r)]
        again = [r for r in survivors if kept(r)]
        assert again == survivors
        assert len(preprocess(LoadResult(loaded.wx_columns, survivors)).rows) == len(survivors)

    def test_label_is_pure_function_of_delay(self, tmp_path):
        for minutes, expected in ((0, 0), (14, 0), (15, 1), (200, 1)):
            actual = f"2003-03-10T{8 + minutes // 60:02d}:{minutes % 60:02d}"
            path = write_csv(tmp_path, [line(actual=actual)])
            row = preprocess(load_flights(path)).rows[0]
            assert row.delayed == expected


class TestBoundedMemory:
    """preprocess(load_flights(...)) holds the kept rows, not the raw lines."""

    @staticmethod
    def traced_peak(path, lines):
        tracemalloc.start()
        try:
            result = preprocess(load_flights(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (result.record_count, result.rows) == (lines, [])
        return peak

    def test_peak_does_not_grow_with_excluded_lines(self, tmp_path):
        peaks = {}
        for lines in (5_000, 20_000):
            path = write_csv(tmp_path, [line(fid=f"F{i}", kind="international")
                                        for i in range(lines)])
            preprocess(load_flights(path))  # one-time allocations, untraced
            peaks[lines] = self.traced_peak(path, lines)
        assert max(peaks.values()) < 256 * 1024, peaks
        assert peaks[20_000] < peaks[5_000] + 16 * 1024, peaks


class TestConfig:
    def test_airport_states_table(self):
        states = load_airport_states()
        assert states["SBGR"] == "SP" and states["SBPA"] == "RS"
        assert len(states) == 10


def column(values):
    """A one-feature (rows, 1) matrix."""
    return np.array(values, dtype=float).reshape(-1, 1)


class TestNormalizer:
    def test_min_max_mapping(self):
        features = column([10.0, 20.0, 30.0])
        norm = fit_normalizer(features)
        out = apply_normalizer(norm, features)
        assert isinstance(out, np.ndarray) and out.shape == (3, 1)
        assert out[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_clamping(self):
        norm = fit_normalizer(column([10.0, 30.0]))
        high = apply_normalizer(norm, column([40.0]))[0]
        low = apply_normalizer(norm, column([0.0]))[0]
        assert high[0] == 1.0
        assert low[0] == 0.0

    def test_constant_feature_maps_to_zero_with_warning(self, caplog):
        features = column([5.0, 5.0, 5.0])
        with caplog.at_level("WARNING"):
            norm = fit_normalizer(features)
        assert "constant feature" in caplog.text
        out = apply_normalizer(norm, features)
        assert np.all(out[:, 0] == 0.0)

    def test_missing_values_imputed_with_training_mean(self):
        features = column([10.0, 30.0, np.nan])
        norm = fit_normalizer(features)
        out = apply_normalizer(norm, features)
        assert out[2, 0] == pytest.approx(0.5)  # mean 20 -> 0.5

    def test_extremes_map_to_unit_interval(self):
        rng = np.random.default_rng(0)
        features = np.vstack([rng.normal(size=3) for _ in range(50)])
        norm = fit_normalizer(features)
        out = apply_normalizer(norm, features)
        assert np.allclose(out.min(axis=0), 0.0)
        assert np.allclose(out.max(axis=0), 1.0)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_empty_fit_errors(self):
        with pytest.raises(ValueError):
            fit_normalizer(np.zeros((0, 2)))

    def test_wrong_column_count_errors(self):
        norm = fit_normalizer(np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(ValueError, match="expects"):
            apply_normalizer(norm, np.array([[1.0, 2.0, 3.0]]))

    def test_non_matrix_errors(self):
        norm = fit_normalizer(np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(ValueError, match="expects"):
            apply_normalizer(norm, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            fit_normalizer(np.array([1.0, 2.0]))


class TestRowIO:
    def test_round_trip(self, tmp_path):
        rows = [make_row(year=2003 + i, week=1 + i, delayed=i % 2,
                         features=(0.1 * i, 1.0 - 0.1 * i)) for i in range(5)]
        path = tmp_path / "rows.npz"
        save_rows(rows, ("a", "b"), path)
        loaded, names = load_rows(path)
        assert names == ("a", "b")
        assert len(loaded) == 5
        for orig, back in zip(rows, loaded):
            assert (orig.origin_airport, orig.destination_state, orig.week_of_year,
                    orig.year, orig.delayed) == \
                   (back.origin_airport, back.destination_state, back.week_of_year,
                    back.year, back.delayed)
            assert np.array_equal(orig.numeric_features, back.numeric_features)

    def test_each_member_read_once(self, tmp_path, monkeypatch):
        rows = [make_row(year=2003 + i % 4, week=1 + i, delayed=i % 2,
                         features=(0.1 * i, 1.0 - 0.1 * i)) for i in range(50)]
        path = tmp_path / "rows.npz"
        save_rows(rows, ("a", "b"), path)
        reads = Counter()
        getitem = np.lib.npyio.NpzFile.__getitem__

        def counting(self, key):
            reads[key] += 1
            return getitem(self, key)
        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", counting)
        loaded, _ = load_rows(path)
        assert len(loaded) == 50
        assert reads == Counter({member: 1 for member in (
            "origin", "dest_state", "week", "year", "delayed", "features", "feature_names")})
        back = loaded[7]
        assert type(back.origin_airport) is str and type(back.destination_state) is str
        assert type(back.week_of_year) is int and type(back.year) is int
        assert type(back.delayed) is int

    def test_ragged_features_refused(self, tmp_path):
        rows = [make_row(features=(0.1, 0.2)), make_row(features=(0.1, 0.2, 0.3))]
        with pytest.raises(ValueError):
            save_rows(rows, ("a", "b"), tmp_path / "rows.npz")

    def test_empty_table(self, tmp_path):
        path = tmp_path / "rows.npz"
        save_rows([], ("a",), path)
        loaded, names = load_rows(path)
        assert loaded == [] and names == ("a",)
