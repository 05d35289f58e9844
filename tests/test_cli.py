import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hipar.cli import main

from .conftest import TOY_CSV, make_two_segment
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
def test_sd_q_without_variant_sd_is_exit_1(tmp_path, segment_csv, capsys, command, out):
    path = tmp_path / "out.json"
    argv = [command, "--input", segment_csv, "--target", "y", "--min-support", "0.2",
            "--sd-q", "1", out, str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "sd_q is read only by variant 'sd', not 'standard'" in err
    assert "Traceback" not in err
    assert not path.exists()
    assert main(argv + ["--variant", "sd"]) == 0


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
