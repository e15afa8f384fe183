"""The raw-CSV ingest path: load, filter, label, normalize."""

import tempfile
from pathlib import Path

import numpy as np

from driftlab.ingest import apply_normalizer, fit_normalizer, load_flights, preprocess

# A tiny raw file in the expected layout: fixed columns plus wx_* weather.
csv_text = """flight_id,origin,destination,scheduled_departure,actual_departure,kind,wx_temp,wx_wind
F001,SBGR,SBBR,2003-03-10T08:00,2003-03-10T08:40,domestic,21.5,3.0
F002,SBGR,SBSV,2003-03-10T09:00,2003-03-10T09:05,domestic,22.0,4.5
F003,SBBR,SBGR,2003-03-11T07:30,,domestic,18.0,2.0
F004,SBGR,SBBR,2003-03-12T10:00,2003-03-13T12:00,domestic,20.0,
F005,SBGR,KJFK,2003-03-12T22:00,2003-03-12T22:30,international,19.5,5.0
F006,SBCF,SBRJ,2003-12-29T06:00,2003-12-29T06:20,domestic,24.0,1.0
BADLINE,SBGR,SBBR,not-a-date,2003-03-10T08:00,domestic,20.0,2.0
"""
raw = Path(tempfile.mkdtemp(prefix="driftlab_demo_")) / "flights.csv"
raw.write_text(csv_text)

# load_flights checks the header and returns its schema with a lazy record
# stream; preprocess reads the file in one pass, filtering and labeling each
# line as it goes: domestic + top airports, delay >= 15 min -> 1,
# missing/26h departures excluded, destination mapped to its state, ISO
# (year, week) attached. Only the kept rows are held.
loaded = load_flights(raw)
result = preprocess(loaded)
print(f"{result.record_count} records, {loaded.malformed_count} malformed:")
for lineno, reason in loaded.malformed:
    print(f"  line {lineno}: {reason}")
print(f"\nkept {len(result.rows)} rows; excluded: {dict(result.excluded)}")
print("feature vector:", result.feature_names)
for row in result.rows:
    print(f"  {row.origin_airport}->{row.destination_state} year {row.year} "
          f"week {row.week_of_year:2d} delayed {row.delayed} features {row.numeric_features}")

# Min-max normalization works on a window's (rows, features) matrix: it is
# fitted on a training window only and applied with clamping (and mean
# imputation for the missing wx_wind above) in one matrix operation.
features = np.vstack([row.numeric_features for row in result.rows])
norm = fit_normalizer(features)
scaled = apply_normalizer(norm, features)
print("\nnormalized features (all in [0, 1]):")
print(scaled.round(3))
