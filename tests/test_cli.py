import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hipar import DataError, RunConfig
from hipar.cli import main

from .conftest import TOY_CSV, make_lockstep_table, make_two_segment
from .test_data import CELLS, MISSING


@pytest.fixture
def segment_csv(tmp_path):
    from hipar import write_csv

    d = make_two_segment(n=120, seed=5)
    path = tmp_path / "segments.csv"
    write_csv(d, str(path))
    return str(path)


def test_fit_writes_rule_file(tmp_path, segment_csv):
    rules = tmp_path / "rules.json"
    code = main(
        [
            "fit", "--input", segment_csv, "--target", "y",
            "--min-support", "0.2", "--seed", "3", "--rules-out", str(rules),
        ]
    )
    assert code == 0
    doc = json.loads(rules.read_text())
    assert doc["format"] == "hipar-rules-v1"
    assert any(r["is_default"] for r in doc["rules"])


def test_fit_then_predict_round_trip(tmp_path, segment_csv):
    rules = tmp_path / "rules.json"
    assert main(
        ["fit", "--input", segment_csv, "--target", "y", "--min-support", "0.2",
         "--seed", "3", "--rules-out", str(rules)]
    ) == 0
    features = tmp_path / "features.csv"
    features.write_text("segment,x\nA,0.5\nB,0.5\nC,0.5\n")
    out = tmp_path / "pred.txt"
    assert main(
        ["predict", "--rules", str(rules), "--input", str(features), "--out", str(out)]
    ) == 0
    values = [float(v) for v in out.read_text().splitlines()]
    assert len(values) == 3
    assert abs(values[0] - 2.0) < 1.0  # segment A: 1 + 2*0.5
    assert abs(values[1] - 8.5) < 1.0  # segment B: 10 - 3*0.5


def test_eval_writes_report(tmp_path, segment_csv):
    report = tmp_path / "report.json"
    code = main(
        ["eval", "--input", segment_csv, "--target", "y", "--min-support", "0.2",
         "--seed", "3", "--folds", "5", "--report-out", str(report)]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert len(doc["folds"]) == 5
    assert doc["mean_reduction"] > 50.0
    assert {"baseline_error", "model_error", "reduction", "rules", "elements", "seconds"} <= set(
        doc["folds"][0]
    )


@pytest.mark.parametrize("metric", ["rmse", "meae"])
@pytest.mark.parametrize("seed", ["3", "11"])
def test_eval_rules_out_writes_the_bytes_fit_writes(tmp_path, segment_csv, seed, metric):
    # eval's rule file is the whole-table fit of the same flags
    flags = ["--input", segment_csv, "--target", "y", "--min-support", "0.2", "--seed", seed,
             "--metric", metric]
    fitted, evaluated = tmp_path / "fit.json", tmp_path / "eval.json"
    assert main(["fit", *flags, "--rules-out", str(fitted)]) == 0
    assert main(["eval", *flags, "--folds", "5", "--report-out", str(tmp_path / "report.json"),
                 "--rules-out", str(evaluated)]) == 0
    assert evaluated.read_bytes() == fitted.read_bytes()
    assert json.loads(fitted.read_text())["metric"] == metric


def test_eval_writes_no_report_when_the_whole_table_fit_fails(tmp_path, capsys):
    # the candidate pools of this table's 3 folds hold 11, 13 and 16 rules, the
    # whole table's 10: at --sd-q 11 every fold fits and the whole table does not
    from hipar import write_csv

    data = tmp_path / "lockstep.csv"
    write_csv(make_lockstep_table(np.random.default_rng(7), 120), str(data))
    flags = ["--input", str(data), "--target", "y", "--min-support", "0.1", "--folds", "3",
             "--seed", "1", "--sd-q", "11"]
    report, rules = tmp_path / "report.json", tmp_path / "rules.json"
    assert main(["eval", *flags, "--report-out", str(report), "--rules-out", str(rules)]) == 1
    assert capsys.readouterr().err.startswith("error: sd_q (--sd-q) = 11 out of range [1, 10]")
    assert not report.exists() and not rules.exists()
    # without --rules-out no whole table is fitted
    assert main(["eval", *flags, "--report-out", str(report)]) == 0
    assert len(json.loads(report.read_text())["folds"]) == 3


def test_eval_report_keeps_its_format(tmp_path, segment_csv):
    # the target comes from --target through the dataset, not from the run's
    # settings, and heads the report's config
    header, body = Path(segment_csv).read_text().split("\n", 1)
    assert header == "segment,x,y"
    data = tmp_path / "response.csv"
    data.write_text("segment,x,response\n" + body)
    report = tmp_path / "report.json"
    assert main(
        ["eval", "--input", str(data), "--target", "response", "--min-support", "0.2",
         "--seed", "3", "--folds", "3", "--report-out", str(report)]
    ) == 0
    doc = json.loads(report.read_text())
    assert list(doc) == ["metric", "mean_reduction", "median_reduction", "config", "folds"]
    assert list(doc["config"]) == [
        "target", "theta", "sigma", "omega", "metric", "sd_q", "folds", "seed",
    ]
    assert doc["config"] == {
        "target": "response", "theta": 0.2, "sigma": 1.0, "omega": 1.0, "metric": "rmse",
        "sd_q": None, "folds": 3, "seed": 3,
    }


def _strict_json(text: str):
    """JSON as the standard has it: NaN and Infinity are not numbers."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def test_eval_report_is_standard_json_when_no_fold_can_be_scored(tmp_path, capsys):
    # y = 2x: the baseline is exact on every fold's test rows, so every fold is
    # skipped and no reduction is defined; the report says null, not NaN
    data = tmp_path / "exact.csv"
    data.write_text("x,y\n" + "".join(f"{i / 59!r},{2 * i / 59!r}\n" for i in range(60)))
    report = tmp_path / "report.json"
    assert main(["eval", "--input", str(data), "--target", "y", "--folds", "3",
                 "--report-out", str(report)]) == 0
    doc = _strict_json(report.read_text())
    assert doc["mean_reduction"] is None and doc["median_reduction"] is None
    assert [f["skipped"] for f in doc["folds"]] == [True] * 3
    assert [f["reduction"] for f in doc["folds"]] == [None] * 3
    out = capsys.readouterr().out
    assert "no fold could be scored" in out and "nan" not in out


def test_eval_report_is_standard_json(tmp_path, segment_csv):
    report = tmp_path / "report.json"
    assert main(["eval", "--input", segment_csv, "--target", "y", "--min-support", "0.2",
                 "--seed", "3", "--folds", "3", "--report-out", str(report)]) == 0
    doc = _strict_json(report.read_text())
    assert all(isinstance(f["reduction"], float) for f in doc["folds"])


def test_a_nan_never_reaches_a_report():
    from hipar.pipeline import EvaluationReport, FoldResult

    fold = FoldResult(fold=0, baseline_error=float("nan"), model_error=1.0, reduction=None,
                      rules=1, elements=1, seconds=0.0)
    with pytest.raises(ValueError):
        EvaluationReport("rmse", None, None, {}, [fold]).to_json()


@pytest.mark.parametrize("command, out", [("fit", "--rules-out"), ("eval", "--report-out")])
def test_a_bad_setting_is_reported_before_the_input_is_read(tmp_path, capsys, command, out):
    code = main([command, "--input", str(tmp_path / "missing.csv"), "--target", "y",
                 "--overlap-bias", "-1", out, str(tmp_path / "out.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "sigma and omega must be finite and >= 0" in err
    assert "cannot read" not in err


@pytest.mark.parametrize("command, out, flags, message", [
    ("fit", "--rules-out", ["--metric", "foo"], "unknown error metric 'foo'"),
    ("fit", "--rules-out", ["--seed", "-1"], "seed must be a nonnegative integer, got -1"),
    ("eval", "--report-out", ["--seed", "-1"], "seed must be a nonnegative integer, got -1"),
    ("eval", "--report-out", ["--folds", "1"], "fold count must be an integer >= 2, got 1"),
], ids=["fit-metric", "fit-seed", "eval-seed", "eval-folds"])
def test_a_bad_seed_or_fold_count_is_reported_before_the_input_is_read(
        tmp_path, capsys, command, out, flags, message):
    code = main([command, "--input", str(tmp_path / "missing.csv"), "--target", "y",
                 *flags, out, str(tmp_path / "out.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert message in err
    assert "cannot read" not in err


def test_predict_ignores_a_byte_order_mark(tmp_path, segment_rules):
    # Excel's "CSV UTF-8" writes one; it is not part of the first column's name
    _, plain = _predict_file(tmp_path, segment_rules, "segment,x\nA,0.5\nB,0.25\n")
    for text in ("\ufeffsegment,x\nA,0.5\nB,0.25\n", '\ufeffsegment,x\r\n"A",0.5\r\nB,0.25\r\n'):
        assert _predict_file(tmp_path, segment_rules, text) == (0, plain)


def test_missing_input_is_exit_1(tmp_path):
    code = main(
        ["fit", "--input", "/nope/missing.csv", "--target", "y",
         "--rules-out", str(tmp_path / "r.json")]
    )
    assert code == 1


def test_bad_target_is_exit_1(tmp_path, segment_csv):
    code = main(
        ["fit", "--input", segment_csv, "--target", "zzz",
         "--rules-out", str(tmp_path / "r.json")]
    )
    assert code == 1


def test_bad_flags_are_exit_1():
    assert main(["fit", "--nonsense"]) == 1
    assert main([]) == 1


def test_help_is_exit_0(capsys):
    assert main(["--help"]) == 0
    assert "fit" in capsys.readouterr().out


def test_corrupt_rule_file_is_exit_1(tmp_path, segment_csv, capsys):
    rules = tmp_path / "rules.json"
    assert main(["fit", "--input", segment_csv, "--target", "y", "--min-support", "0.2",
                 "--seed", "3", "--rules-out", str(rules)]) == 0
    good = json.loads(rules.read_text())
    no_chosen = json.loads(rules.read_text())
    del no_chosen["rules"][0]["chosen"]
    bad_intercept = json.loads(rules.read_text())
    bad_intercept["rules"][0]["model"]["intercept"] = "high"
    bad_coefficients = json.loads(rules.read_text())
    bad_coefficients["rules"][0]["model"]["coefficients"] = [1.0]
    string_flag = json.loads(rules.read_text())
    string_flag["rules"][-1]["chosen"] = "no"  # a non-empty string would read as true
    non_finite_models = []  # json reads NaN and Infinity
    for value in (float("nan"), float("inf")):
        doc = json.loads(rules.read_text())
        doc["rules"][0]["model"]["intercept"] = value
        non_finite_models.append(doc)
        doc = json.loads(rules.read_text())
        doc["rules"][0]["model"]["coefficients"] = {"x": value}
        non_finite_models.append(doc)
    numeric_value = json.loads(rules.read_text())
    next(r for r in numeric_value["rules"] if r["conditions"])["conditions"][0] = {
        "attribute": "segment", "op": "eq", "value": 1}
    two_with_one_pattern = json.loads(rules.read_text())
    two_with_one_pattern["rules"].append(
        next(r for r in two_with_one_pattern["rules"] if not r["is_default"]))
    votes_default = dict(good, include_default_in_coverage=True)
    bad_errors = []  # a vote weight is 1/ebar: it must be positive and finite
    for value in (0.0, -1.0, float("inf"), float("nan"), 5e-324):
        doc = json.loads(rules.read_text())
        next(r for r in doc["rules"] if r["chosen"] and not r["is_default"])[
            "normalized_error"] = value
        bad_errors.append(doc)
    features = tmp_path / "features.csv"
    features.write_text("segment,x\nA,0.5\n")
    for doc in ({}, no_chosen, bad_intercept, bad_coefficients, string_flag,
                {**good, "rules": 5}, votes_default, *bad_errors, *non_finite_models,
                numeric_value, two_with_one_pattern):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["predict", "--rules", str(bad), "--input", str(features),
                     "--out", str(tmp_path / "o.txt")]) == 1
        assert "Traceback" not in capsys.readouterr().err
    # rule files that still carry the retired switch at its only supported value load
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(dict(good, include_default_in_coverage=False)))
    assert main(["predict", "--rules", str(legacy), "--input", str(features),
                 "--out", str(tmp_path / "legacy.txt")]) == 0
    assert main(["predict", "--rules", str(rules), "--input", str(features),
                 "--out", str(tmp_path / "o.txt")]) == 0
    assert (tmp_path / "legacy.txt").read_text() == (tmp_path / "o.txt").read_text()


@pytest.mark.parametrize("name", [["segment"], {"segment": 1}, 5], ids=["list", "dict", "int"])
def test_a_schema_name_that_is_not_a_string_is_exit_1(tmp_path, segment_csv, capsys, name):
    # a list or a dict in schema[0].name exited 2 with a traceback (an unhashable
    # TypeError); an integer loaded and failed on a missing column named 5
    rules = tmp_path / "rules.json"
    assert main(["fit", "--input", segment_csv, "--target", "y", "--min-support", "0.2",
                 "--seed", "3", "--rules-out", str(rules)]) == 0
    doc = json.loads(rules.read_text())
    doc["schema"][0]["name"] = name
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    features = tmp_path / "features.csv"
    features.write_text("segment,x\nA,0.5\n")
    capsys.readouterr()
    assert main(["predict", "--rules", str(bad), "--input", str(features),
                 "--out", str(tmp_path / "o.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    assert f"schema[0].name must be a string, got {name!r}" in err, err


@pytest.mark.parametrize("command, out", [("fit", "--rules-out"), ("eval", "--report-out")])
def test_negative_seed_is_exit_1(tmp_path, segment_csv, capsys, command, out):
    path = tmp_path / "out.json"
    assert main([command, "--input", segment_csv, "--target", "y", "--min-support", "0.2",
                 "--seed", "-1", out, str(path)]) == 1
    err = capsys.readouterr().err
    assert "seed must be a nonnegative integer, got -1" in err
    assert "Traceback" not in err
    assert not path.exists()


@pytest.mark.parametrize("command, out", [("fit", "--rules-out"), ("eval", "--report-out")])
def test_sd_q_below_one_is_exit_1(tmp_path, segment_csv, capsys, command, out):
    path = tmp_path / "out.json"
    argv = [command, "--input", segment_csv, "--target", "y", "--min-support", "0.2", out,
            str(path)]
    assert main(argv + ["--sd-q", "0"]) == 1
    err = capsys.readouterr().err
    assert "sd_q must be an integer >= 1, got 0" in err
    assert "Traceback" not in err
    assert not path.exists()
    assert main(argv + ["--sd-q", "1"]) == 0


def test_sd_q_above_the_candidate_count_names_the_flag(tmp_path, segment_csv, capsys):
    path = tmp_path / "rules.json"
    argv = ["fit", "--input", segment_csv, "--target", "y", "--min-support", "0.2",
            "--rules-out", str(path)]
    assert main(argv + ["--sd-q", "50"]) == 1
    err = capsys.readouterr().err
    assert "--sd-q" in err and "sd_q" in err
    assert "out of range [1, " in err and "the default rule among them" in err
    assert "Traceback" not in err
    assert not path.exists()


@pytest.mark.parametrize("variant", ["f", "sd", "standard"])
def test_variant_is_no_flag(tmp_path, segment_csv, variant):
    # the paper's HiPaR_f is --overlap-bias 0 and its HiPaR_sd is --sd-q N
    path = tmp_path / "rules.json"
    assert main(["fit", "--input", segment_csv, "--target", "y", "--variant", variant,
                 "--rules-out", str(path)]) == 1
    assert not path.exists()


@pytest.fixture
def given_config(monkeypatch):
    """Run ``hipar fit|eval`` up to its first fit and return the RunConfig the
    flags made; the fit itself is replaced by a stop (``eval`` calls
    ``cross_validate``, or ``cross_validate_and_fit`` with --rules-out)."""
    import hipar.cli

    seen = []

    def stop(d, cfg):
        seen.append(cfg)
        raise DataError("stopped")

    monkeypatch.setattr(hipar.cli, "run_hipar", stop)
    monkeypatch.setattr(hipar.cli, "cross_validate", stop)
    monkeypatch.setattr(hipar.cli, "cross_validate_and_fit", stop)

    def config(argv):
        assert main(argv) == 1
        (cfg,) = seen
        return cfg

    return config


@pytest.mark.parametrize("command, out", [("fit", "--rules-out"), ("eval", "--report-out")])
def test_bare_argv_builds_the_default_config(tmp_path, segment_csv, given_config, command, out):
    argv = [command, "--input", segment_csv, "--target", "y", out, str(tmp_path / "out.json")]
    assert given_config(argv) == RunConfig()


@pytest.mark.parametrize("command, flag, value, field, want", [
    ("fit", "--min-support", "0.25", "theta", 0.25),
    ("fit", "--support-bias", "2", "sigma", 2.0),
    ("fit", "--overlap-bias", "0", "omega", 0.0),
    ("fit", "--metric", "meae", "metric", "meae"),
    ("fit", "--metric", "MEAE", "metric", "meae"),
    ("fit", "--sd-q", "3", "sd_q", 3),
    ("fit", "--seed", "7", "seed", 7),
    ("eval", "--folds", "4", "folds", 4),
], ids=["theta", "sigma", "omega", "metric", "metric-upper", "sd_q", "seed", "folds"])
def test_each_setting_flag_lands_in_its_field(tmp_path, segment_csv, given_config, command, flag,
                                              value, field, want):
    out = "--rules-out" if command == "fit" else "--report-out"
    argv = [command, "--input", segment_csv, "--target", "y", flag, value,
            out, str(tmp_path / "out.json")]
    assert given_config(argv) == RunConfig(**{field: want})


@pytest.mark.parametrize("flag", ["--support-bias", "--overlap-bias"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_bias_that_is_not_finite_and_non_negative_is_exit_1(tmp_path, segment_csv, capsys, flag,
                                                            value):
    rules = tmp_path / "rules.json"
    assert main(["fit", "--input", segment_csv, "--target", "y", "--min-support", "0.2",
                 flag, value, "--rules-out", str(rules)]) == 1
    assert "sigma and omega must be finite and >= 0" in capsys.readouterr().err
    assert not rules.exists()


def test_predict_underscore_numeral_is_exit_1(tmp_path, segment_csv, capsys):
    rules = tmp_path / "rules.json"
    main(["fit", "--input", segment_csv, "--target", "y", "--min-support", "0.2",
          "--seed", "3", "--rules-out", str(rules)])
    features = tmp_path / "features.csv"
    features.write_text("segment,x\nA,0.5\nB,1_0\n")
    capsys.readouterr()
    assert main(["predict", "--rules", str(rules), "--input", str(features),
                 "--out", str(tmp_path / "o.txt")]) == 1
    err = capsys.readouterr().err
    assert "row 2" in err and "'x'" in err and "'1_0'" in err


def test_predict_missing_feature_column_is_exit_1(tmp_path, segment_csv):
    rules = tmp_path / "rules.json"
    main(["fit", "--input", segment_csv, "--target", "y", "--min-support", "0.2",
          "--seed", "3", "--rules-out", str(rules)])
    features = tmp_path / "features.csv"
    features.write_text("segment\nA\n")  # x column missing
    assert main(["predict", "--rules", str(rules), "--input", str(features),
                 "--out", str(tmp_path / "o.txt")]) == 1


def test_internal_error_is_exit_2(monkeypatch, tmp_path, segment_csv):
    import hipar.cli as cli

    def boom(*a, **k):
        raise RuntimeError("invariant violated")

    monkeypatch.setattr(cli, "run_hipar", boom)
    code = main(["fit", "--input", segment_csv, "--target", "y",
                 "--rules-out", str(tmp_path / "r.json")])
    assert code == 2


def test_module_entry_point(tmp_path, segment_csv):
    rules = tmp_path / "rules.json"
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "hipar.cli", "fit", "--input", segment_csv,
         "--target", "y", "--min-support", "0.2", "--rules-out", str(rules)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert rules.exists()


def test_end_to_end_determinism_byte_identical(tmp_path, segment_csv):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["fit", "--input", segment_csv, "--target", "y", "--min-support", "0.2",
            "--seed", "3"]
    assert main(args + ["--rules-out", str(r1)]) == 0
    assert main(args + ["--rules-out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_fit_with_one_row_regions(tmp_path):
    # theta*n = 1: a one-row region g=<level> can beat the default rule, and
    # the search then discretizes the free x on that one row, which yields no cut
    data = tmp_path / "ten.csv"
    data.write_text("g,x,y\n" + "".join(
        f"{'abcdefghij'[i]},{(7 * i) % 10}.5,{i * i % 7}.0\n" for i in range(10)))
    rules = tmp_path / "rules.json"
    assert main(["fit", "--input", str(data), "--target", "y", "--min-support", "0.1",
                 "--rules-out", str(rules)]) == 0
    doc = json.loads(rules.read_text())
    assert any(r["support_abs"] == 1 and r["chosen"] for r in doc["rules"])


def test_toy_csv_fit(tmp_path):
    toy = tmp_path / "toy.csv"
    toy.write_text(TOY_CSV)
    rules = tmp_path / "rules.json"
    code = main(["fit", "--input", str(toy), "--target", "price",
                 "--min-support", "0.34", "--rules-out", str(rules)])
    assert code == 0


def test_categorical_override_flag(tmp_path):
    toy = tmp_path / "toy.csv"
    toy.write_text(TOY_CSV)
    rules = tmp_path / "rules.json"
    code = main(["fit", "--input", str(toy), "--target", "price",
                 "--categorical", "rooms", "--min-support", "0.34",
                 "--rules-out", str(rules)])
    assert code == 0
    doc = json.loads(rules.read_text())
    kinds = {s["name"]: s["kind"] for s in doc["schema"]}
    assert kinds["rooms"] == "categorical"


@pytest.fixture
def segment_rules(tmp_path, segment_csv):
    rules = tmp_path / "rules.json"
    assert main(["fit", "--input", segment_csv, "--target", "y", "--min-support", "0.2",
                 "--seed", "3", "--rules-out", str(rules)]) == 0
    return str(rules)


def _predict_file(tmp_path, rules, text):
    features = tmp_path / "features.csv"
    features.write_text(text, encoding="utf-8")
    out = tmp_path / "pred.txt"
    code = main(["predict", "--rules", rules, "--input", str(features), "--out", str(out)])
    return code, out.read_text() if code == 0 else None


@pytest.mark.parametrize("cell,value", CELLS)
def test_predict_cell_verdicts_match_load_csv(tmp_path, segment_rules, cell, value, capsys):
    from hipar import deserialize_rules, predict

    capsys.readouterr()
    code, text = _predict_file(tmp_path, segment_rules, f"segment,x\nA,0.5\nB,{cell}\n")
    if value is None:
        assert code == 1
        err = capsys.readouterr().err
        assert f"row 2, column 'x': {cell.strip()!r} is not a finite number" in err
    else:
        assert code == 0
        pred = deserialize_rules(segment_rules)
        want = [predict(pred, {"segment": "A", "x": 0.5}), predict(pred, {"segment": "B", "x": value})]
        assert text == "".join(f"{v!r}\n" for v in want)


@pytest.mark.parametrize("cell", MISSING)
def test_predict_missing_cell_names_row_and_column(tmp_path, segment_rules, cell, capsys):
    capsys.readouterr()
    code, _ = _predict_file(tmp_path, segment_rules, f"segment,x\nA,0.5\n{cell},0.5\n")
    assert code == 1
    assert "row 2 has a missing value in column 'segment'" in capsys.readouterr().err


def test_predict_reports_first_bad_row(tmp_path, segment_rules, capsys):
    # features are checked in schema order (segment, x) within a row
    for body, message in (
        ("A,0.5\nA,0.5\nA,1_0\n,0.5\n", "row 3, column 'x': '1_0'"),
        ("A,0.5\nA,nan\n,0.5\n", "row 2, column 'x': 'nan'"),
        ("A,0.5\n,nan\nA,inf\n", "row 2 has a missing value in column 'segment'"),
        ("A,0.5\nA,abc\nB\n", "row 2, column 'x': 'abc'"),
        ("A,0.5\nB\nA,abc\n", "row 2 has 1 cells, expected 2"),
    ):
        capsys.readouterr()
        assert _predict_file(tmp_path, segment_rules, "segment,x\n" + body)[0] == 1
        assert message in capsys.readouterr().err
    # schema order, not file order
    capsys.readouterr()
    assert _predict_file(tmp_path, segment_rules, "x,segment\n0.5,A\nnan,\n")[0] == 1
    assert "row 2 has a missing value in column 'segment'" in capsys.readouterr().err


def test_predict_csv_edge_cases(tmp_path, segment_rules, capsys):
    _, plain = _predict_file(tmp_path, segment_rules, "segment,x\nA,0.5\nB,0.25\n")
    # extra columns, the target among them, are ignored: order, text, empty cells
    code, extra = _predict_file(tmp_path, segment_rules,
                                " y , x ,note,segment\nnope,0.5,,A\n,0.25,hi,B\n")
    assert code == 0 and extra == plain
    for text, message in (
        ("segment,x,x\nA,0.5,0.5\n", "duplicate column names"),
        ("segment,x,note\nA,0.5,n\nB,0.25\n", "row 2 has 2 cells, expected 3"),
        ("segment,x\nA,0.5,7\n", "row 1 has 3 cells, expected 2"),
        ("segment\nA\n", "missing columns ['x']"),
        ("", "empty file"),
        # a blank line is a row without cells, for hipar predict as for load_csv
        ("segment,x\nA,0.5\n\nB,0.25\n", "row 2 has 0 cells, expected 2"),
        ("segment,x\nA,0.5\nB,0.25\n\n", "row 3 has 0 cells, expected 2"),
    ):
        capsys.readouterr()
        assert _predict_file(tmp_path, segment_rules, text)[0] == 1
        assert message in capsys.readouterr().err
    # a header alone gives no predictions
    assert _predict_file(tmp_path, segment_rules, "segment,x\n") == (0, "")


def test_predict_file_equals_predict_batch(tmp_path, segment_csv, segment_rules):
    from hipar import deserialize_rules, load_csv, predict_batch

    d = load_csv(segment_csv, target="y")
    code, text = _predict_file(tmp_path, segment_rules, Path(segment_csv).read_text())
    assert code == 0
    batch = predict_batch(deserialize_rules(segment_rules), d, range(d.n))
    assert text == "".join(f"{v!r}\n" for v in batch.tolist())


def test_predict_nul_in_category_compares_exactly(tmp_path, segment_rules):
    # numpy fixed-width strings drop trailing NULs: "A\x00" must not match "A"
    from hipar import deserialize_rules, predict

    code, text = _predict_file(tmp_path, segment_rules, "segment,x\nA\x00,0.5\nA,0.5\n")
    assert code == 0
    pred = deserialize_rules(segment_rules)
    want = [predict(pred, {"segment": s, "x": 0.5}) for s in ("A\x00", "A")]
    assert text == "".join(f"{v!r}\n" for v in want)
    assert want[0] != want[1]
    # and a rule on "A\x00" must not match "A"; the fit splits A on x, so take
    # the first chosen rule that tests segment="A"
    doc = json.loads(Path(segment_rules).read_text())
    on_a = {"attribute": "segment", "op": "eq", "value": "A"}
    rule = next(r for r in doc["rules"] if r["chosen"] and on_a in r["conditions"])
    rule["conditions"][rule["conditions"].index(on_a)]["value"] = "A\x00"
    rule["pattern"] = rule["pattern"].replace('segment="A"', 'segment="A\x00"')
    rules = tmp_path / "nul.json"
    rules.write_text(json.dumps(doc))
    pred = deserialize_rules(str(rules))
    code, text = _predict_file(tmp_path, str(rules), "segment,x\nA,0.5\nA\x00,0.5\n")
    want = [predict(pred, {"segment": s, "x": 0.5}) for s in ("A", "A\x00")]
    assert code == 0 and text == "".join(f"{v!r}\n" for v in want)
    assert want[0] != want[1]


def test_predict_reads_a_cell_over_the_csv_field_limit(tmp_path, segment_rules):
    # the csv module rejects a field over its limit (131,072 characters by
    # default), even in a column nobody reads; the limit must come back as it was
    import csv

    from hipar.data import CATEGORICAL, NUMERICAL, read_columns

    long = "n" * 200_000
    rows = [("A", "0.5"), ("B", "0.25"), ("A", "0.75"), ("B", "1.0"), ("A", "0.0")]
    limit = csv.field_size_limit()
    plain = "segment,x\n" + "".join(f"{s},{x}\n" for s, x in rows)
    noted = "segment,x,note\n" + "".join(
        f'{s},{x},"{long if i == 2 else "short, quoted"}"\n' for i, (s, x) in enumerate(rows))
    code, want = _predict_file(tmp_path, segment_rules, plain)
    assert code == 0
    assert _predict_file(tmp_path, segment_rules, noted) == (0, want)
    assert csv.field_size_limit() == limit
    # a long label in a read column codes like any other: the rules know it
    # not, so its row predicts as an unknown short label's does
    code, unknown = _predict_file(tmp_path, segment_rules, "segment,x\nC,0.5\nA,0.5\n")
    assert code == 0
    assert _predict_file(tmp_path, segment_rules, f"segment,x\n{long},0.5\nA,0.5\n") == (0, unknown)
    path = tmp_path / "features.csv"
    columns, n = read_columns(str(path), {"segment": CATEGORICAL, "x": NUMERICAL})
    assert n == 2 and columns["segment"].levels == ("A", long)
    assert columns["segment"].tolist() == [long, "A"]
    assert csv.field_size_limit() == limit
