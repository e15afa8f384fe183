"""Command-line entry points.

Subcommands: preprocess a raw CSV into a row table, run a sweep from a
config file, analyze a results table (topk / drifts / correlate), and
generate a synthetic stream from a spec file. Exit code 0 on success,
1 with a message on stderr for a refusal or any fatal error, and 3 when
`run` finishes with error rows in its table (each named on stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import ingest, runner, synth
from .runner import ExperimentGrid

# drift_analysis keywords a run config may set, each with the type it is read as
_SWEEP_KEYS = {"base_seed": int, "alpha": float, "min_week_flights": int, "cv_folds": int}
_CONFIG_KEYS = {"rows", "out", "grid", "hyperparameters", "model_store", *_SWEEP_KEYS}
_GRID_KEYS = {f.name for f in dataclasses.fields(ExperimentGrid)}


def _parse_k_range(raw: str) -> list[int]:
    if ".." in raw:
        lo, hi = raw.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in raw.split(",")]


def _cmd_preprocess(args) -> int:
    airport = None if args.airport.upper() == "SB" else args.airport.upper()
    states = ingest.load_airport_states(args.states) if args.states else None
    loaded = ingest.load_flights(args.raw_csv)
    result = ingest.preprocess(loaded, airport, airport_states=states)
    ingest.save_rows(result.rows, result.feature_names, args.output)
    print(f"{result.record_count} records loaded, {loaded.malformed_count} malformed lines")
    for lineno, reason in loaded.malformed[:10]:
        print(f"  line {lineno}: {reason}")
    print(f"{len(result.rows)} rows kept -> {args.output}")
    if result.excluded:
        print("excluded: " + ", ".join(f"{k}={v}" for k, v in sorted(result.excluded.items())))
    return 0


def _refuse_unknown(keys, known: set, where: str) -> None:
    unknown = sorted(set(keys) - known)
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")


def _cmd_run(args) -> int:
    """A key left out of the config takes the ExperimentGrid or
    drift_analysis default; only airports defaults to ["SB"] here."""
    cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
    _refuse_unknown(cfg, _CONFIG_KEYS, "config")
    grid_cfg = {"airports": ["SB"], **cfg.get("grid", {})}
    _refuse_unknown(grid_cfg, _GRID_KEYS, "grid")
    for key, value in grid_cfg.items():
        if key != "replicates" and not isinstance(value, list):
            raise ValueError(f"grid {key} must be a list, got {value!r}")
    rows, _ = ingest.load_rows(cfg["rows"])
    grid_cfg["airports"] = [None if a in (None, "SB") else a for a in grid_cfg["airports"]]
    grid = ExperimentGrid(**{key: value if key == "replicates" else tuple(value)
                             for key, value in grid_cfg.items()})
    results = runner.drift_analysis(
        rows, grid, cfg["out"],
        hyperparameters=cfg.get("hyperparameters"),
        model_store_dir=cfg.get("model_store"),
        **{key: cast(cfg[key]) for key, cast in _SWEEP_KEYS.items() if key in cfg},
    )
    errors = [r for r in results if r["error"]]
    print(f"{len(results)} result rows in {cfg['out']} ({len(errors)} error markers)")
    for r in errors:
        print(f"error row: {r['airport']} {r['classifier']} b={r['bss']} {r['strategy']}/"
              f"{r['detector']} replicate {r['replicate']}: {r['error']}", file=sys.stderr)
    return 3 if errors else 0


def _cmd_analyze(args) -> int:
    results = runner.load_results(args.results)
    if args.what == "topk":
        report = runner.topk_frequency(results, _parse_k_range(args.k), rank_metric=args.metric)
        print("k\tcategory\tvalue\tfrequency")
        for k in sorted(report.strategy_freq):
            for name, freq in report.strategy_freq[k].items():
                print(f"{k}\tstrategy\t{name}\t{freq:.4f}")
            for name, freq in report.bss_freq[k].items():
                print(f"{k}\tbss\t{name}\t{freq:.4f}")
            for name, freq in report.classifier_freq[k].items():
                print(f"{k}\tclassifier\t{name}\t{freq:.4f}")
    elif args.what == "drifts":
        report = runner.count_drifts(results)
        print("airport\tdetector\tbss\tdrifts")
        for row in report.counts:
            print(f"{row['airport']}\t{row['detector']}\t{row['bss']}\t{row['drifts']}")
        if report.ab_summary:
            print("# airport-scale mean +/- sd")
            for row in report.ab_summary:
                print(f"AB\t{row['detector']}\t{row['bss']}\t{row['mean']:.2f}+/-{row['sd']:.2f}")
    else:
        report = runner.correlate_drifts_performance(results)
        print("\t" + "\t".join(report.columns))
        for i, name in enumerate(report.columns):
            cells = "\t".join(f"{report.r[i, j]:+.3f}" for j in range(len(report.columns)))
            print(f"{name}\t{cells}")
        for note in report.notes:
            print(f"# {note}")
    return 0


def _cmd_synth(args) -> int:
    spec = synth.load_spec(args.spec)
    rows, events = synth.generate_stream(spec)
    ingest.save_rows(rows, spec.feature_names, args.output)
    events_path = Path(str(args.output) + ".events.json")
    events_path.write_text(
        json.dumps([{"at_year": e.at_year, "kind": e.kind, "magnitude": e.magnitude}
                    for e in events], indent=2),
        encoding="utf-8")
    print(f"{len(rows)} rows -> {args.output}; {len(events)} ground-truth events -> {events_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="driftlab",
                                     description="Batch-streaming drift experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="raw flight CSV -> model-ready row table")
    p.add_argument("raw_csv")
    p.add_argument("--airport", default="SB", help="ICAO code for single-airport scale, or SB")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--states", default=None, help="custom airport->state mapping CSV")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("run", help="execute the experiment grid from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("analyze", help="analyses over a results table")
    p.add_argument("what", choices=("topk", "drifts", "correlate"))
    p.add_argument("--results", required=True)
    p.add_argument("--k", default="5..45", help="k range, e.g. 5..45 or 5,10,15")
    p.add_argument("--metric", default="f1", choices=runner.METRIC_COLUMNS)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("synth", help="generate a synthetic stream from a spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
