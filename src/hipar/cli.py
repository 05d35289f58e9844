"""Command-line interface: hipar fit | eval | predict.

Exit codes: 0 success, 1 input error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import fields
from functools import partial

import numpy as np

from .data import DataError, load_csv, read_columns
from .pipeline import (RunConfig, cross_validate, cross_validate_and_fit, deserialize_rules,
                       run_hipar, serialize_rules)
from .prediction import predict_columns
from .regression import METRICS


def _add_fit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="input CSV file")
    parser.add_argument("--target", required=True, help="target column name")
    parser.add_argument("--categorical", default="", metavar="a,b",
                        type=lambda s: [x.strip() for x in s.split(",") if x.strip()],
                        help="comma-separated columns to force categorical")
    # RunConfig settings: a flag left out sets no attribute, so RunConfig's default applies
    setting = partial(parser.add_argument, default=argparse.SUPPRESS)
    setting("--min-support", type=float, dest="theta", help="relative support threshold theta")
    setting("--support-bias", type=float, dest="sigma", help="support bias sigma")
    setting("--overlap-bias", type=float, dest="omega", help="overlap bias omega; 0 keeps all")
    setting("--metric", help=f"error metric: {' or '.join(METRICS)}, in any case")
    setting("--sd-q", type=int, dest="sd_q", metavar="N",
            help="keep the top N candidates by support-to-error trade-off (the paper's HiPaR_sd)")
    setting("--seed", type=int, help="seed of the 80/20 split and the folds")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hipar",
        description="Mine compact sets of hybrid rules (pattern => sparse linear model) "
        "from mixed categorical/numerical tabular data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="mine rules and write a rule file")
    _add_fit_flags(fit)
    fit.add_argument("--rules-out", required=True, help="output rule file (JSON)")

    ev = sub.add_parser("eval", help="cross-validated evaluation report")
    _add_fit_flags(ev)
    ev.add_argument("--folds", type=int, default=argparse.SUPPRESS, help="fold count")
    ev.add_argument("--report-out", required=True, help="output report file (JSON)")
    ev.add_argument("--rules-out", default=None,
                    help="optionally also fit on all rows and write a rule file")

    pr = sub.add_parser("predict", help="predict a feature CSV with a rule file")
    pr.add_argument("--rules", required=True, help="rule file written by fit")
    pr.add_argument("--input", required=True, help="feature CSV (same schema minus target)")
    pr.add_argument("--out", required=True, help="output file, one prediction per line")
    return parser


def _config(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of the setting flags given; RunConfig supplies the rest."""
    given = vars(args)
    return RunConfig(**{f.name: given[f.name] for f in fields(RunConfig) if f.name in given})


def _cmd_fit(args: argparse.Namespace) -> int:
    cfg = _config(args)
    d = load_csv(args.input, args.target, args.categorical)
    selected, predictor = run_hipar(d, cfg)
    serialize_rules(predictor, args.rules_out)
    print(f"wrote {len(selected.chosen)} rules to {args.rules_out}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg = _config(args)
    d = load_csv(args.input, args.target, args.categorical)
    # with --rules-out the whole-table fit is the folds' drive's last job
    if args.rules_out:
        report, _, predictor = cross_validate_and_fit(d, cfg)
    else:
        report = cross_validate(d, cfg)
    with open(args.report_out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    if args.rules_out:
        serialize_rules(predictor, args.rules_out)
    if report.mean_reduction is None:
        print(f"no fold could be scored: the baseline error is zero on the test rows of all "
              f"{len(report.folds)} folds")
    else:
        print(
            f"{cfg.metric} mean reduction {report.mean_reduction:.2f}% / "
            f"median {report.median_reduction:.2f}% over {len(report.folds)} folds"
        )
    return 0


def _prediction_text(out: np.ndarray) -> str:
    """One ``repr`` line per prediction, each distinct value formatted once.

    The values are told apart by their bits, as ``repr`` tells -0.0 from 0.0.
    """
    bits, inverse = np.unique(out.view(np.int64), return_inverse=True)
    lines = np.array([f"{v!r}\n" for v in bits.view(np.float64).tolist()], dtype=object)
    return "".join(lines[inverse].tolist())


def _cmd_predict(args: argparse.Namespace) -> int:
    predictor = deserialize_rules(args.rules)
    kinds = {a.name: a.kind for a in predictor.features}
    out = predict_columns(predictor, *read_columns(args.input, kinds))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(_prediction_text(out))
    print(f"wrote {len(out)} predictions to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors; that's an input error here
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "eval":
            return _cmd_eval(args)
        return _cmd_predict(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # internal invariant violation
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
