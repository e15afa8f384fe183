"""``driftlab preprocess`` must keep its output and its rows file.

The test writes a seeded raw CSV itself: every malformed kind, blank and
padded weather cells, blank lines, UTC offsets, ISO week boundaries and
every exclusion reason (``airport_filter`` through ``--airport``, a custom
``--states`` file that drops SBRJ and adds SBFZ). For three invocations
``tests/golden/ingest_golden.json`` holds the stdout (with the output path
replaced by ``<rows>``) and the sha256 of the saved rows file, recorded
with numpy 2.4.6. Re-record with ``PYTHONPATH=src python
tests/test_ingest_golden.py`` only when a change of the output is intended.
"""

import hashlib
import json
from contextlib import redirect_stdout
from datetime import datetime, timedelta
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from driftlab.cli import main
from driftlab.ingest import TOP_AIRPORTS

FIXTURES = Path(__file__).parent / "golden" / "ingest_golden.json"

# wx_ columns out of order and padded: the rows file sorts and strips them
HEADER = ("flight_id,origin,destination,scheduled_departure,actual_departure,kind,"
          "wx_wind, wx_temp,wx_pressure")
ORIGINS = TOP_AIRPORTS + ("SBFZ", "SBRF")
DESTINATIONS = TOP_AIRPORTS + ("SBFZ", "XXXX")
KINDS = ("domestic", "domestic", "domestic", "Domestic", " DOMESTIC ", "international")
DELAYS = (None, 0, 14, 15, -5, 1440, 1441, 3000)
# (scheduled, actual) UTC offsets; the last pair adds 3 h to the delay
OFFSETS = (("", ""), ("+00:00", "+00:00"), ("+00:00", "-03:00"))
STATES = ("code,state\nSBBR,DF\nSBSV,BA\nSBCT,PR\nSBGL,RJ\nSBPA,RS\n"
          "SBKP,SP\nSBGR,SP\nSBSP,SP\nSBCF,MG\nSBFZ,CE\n")
MALFORMED = (
    "M1,SBGR,SBBR,2003-03-10T08:00,2003-03-10T08:40,domestic,1.0,2.0",
    "M2,,SBBR,2003-03-10T08:00,2003-03-10T08:40,domestic,1.0,2.0,3.0",
    "M3,SBGR,SBBR,2003-03-10T08:00,2003-03-10T08:40,charter,1.0,2.0,3.0",
    "M4,SBGR,SBBR,,2003-03-10T08:40,domestic,1.0,2.0,3.0",
    "M5,SBGR,SBBR,not-a-date,2003-03-10T08:40,domestic,1.0,2.0,3.0",
    "M6,SBGR,SBBR,2003-03-10T08:00,soon,domestic,1.0,2.0,3.0",
    "M7,SBGR,SBBR,2003-03-10T08:00,2003-03-10T08:40,domestic,1.0,n/a,3.0",
)
INVOCATIONS = {
    "sb": [],
    "airport": ["--airport", "sbgr"],
    "states": ["--states", "<states>"],
}


def _weather(rng) -> str:
    cells = []
    for value in (rng.gamma(2.0, 4.0), rng.normal(24, 5), rng.normal(1013, 8)):
        roll = rng.random()
        cells.append("" if roll < 0.08 else f" {value:.1f} " if roll < 0.12
                     else "nan" if roll < 0.14 else repr(round(float(value), 2)))
    return ",".join(cells)


def write_raw(path: Path, lines: int = 600, seed: int = 24) -> None:
    rng = np.random.default_rng(seed)
    start = datetime(2002, 12, 20)
    span = int((datetime(2005, 1, 10) - start).total_seconds() // 60)
    malformed_at = dict(zip(rng.choice(lines, size=len(MALFORMED), replace=False).tolist(),
                            MALFORMED))
    out = [HEADER]
    for i in range(lines):
        if i in malformed_at:
            out.append(malformed_at[i])
            continue
        if i % 97 == 5:
            out.append("" if i % 2 else " , ,")
        scheduled = start + timedelta(minutes=int(rng.integers(span)))
        delay = DELAYS[rng.integers(len(DELAYS))] if rng.random() < 0.5 \
            else int(rng.integers(-10, 90))
        sched_offset, actual_offset = OFFSETS[rng.integers(len(OFFSETS))]
        actual = ("" if delay is None
                  else (scheduled + timedelta(minutes=delay)).isoformat() + actual_offset)
        out.append(",".join([
            f"F{i:04d}", ORIGINS[rng.integers(len(ORIGINS))],
            DESTINATIONS[rng.integers(len(DESTINATIONS))],
            scheduled.isoformat() + sched_offset, actual, KINDS[rng.integers(len(KINDS))],
            _weather(rng)]))
    path.write_text("\n".join(out) + "\n", encoding="utf-8")


def run_preprocess(tmp_path: Path, name: str) -> dict:
    raw = tmp_path / "raw.csv"
    write_raw(raw)
    states = tmp_path / "states.csv"
    states.write_text(STATES, encoding="utf-8")
    rows = tmp_path / f"{name}.npz"
    argv = [str(states) if a == "<states>" else a for a in INVOCATIONS[name]]
    stdout = StringIO()
    with redirect_stdout(stdout):
        rc = main(["preprocess", str(raw), "-o", str(rows), *argv])
    return {"rc": rc, "stdout": stdout.getvalue().replace(str(rows), "<rows>"),
            "rows_sha256": hashlib.sha256(rows.read_bytes()).hexdigest()}


@pytest.mark.parametrize("name", INVOCATIONS)
def test_preprocess_output_and_rows_file_are_pinned(tmp_path, name):
    assert run_preprocess(tmp_path, name) == json.loads(FIXTURES.read_text())[name]


def test_fixture_covers_every_reason():
    recorded = json.loads(FIXTURES.read_text())
    stdout = "".join(entry["stdout"] for entry in recorded.values())
    for reason in ("expected 9 fields", "empty origin", "unknown flight kind",
                   "missing scheduled_departure", "bad scheduled_departure",
                   "bad actual_departure", "bad numeric value",
                   "not_domestic=", "origin_not_top_airport=", "airport_filter=",
                   "missing_actual_departure=", "delay_above_max=",
                   "unknown_destination_state="):
        assert reason in stdout, reason


def record():
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {name: run_preprocess(Path(tmp), name) for name in INVOCATIONS}
    FIXTURES.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
