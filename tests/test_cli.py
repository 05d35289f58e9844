import json
import os
import subprocess
import sys

import pytest

from hipar.cli import main

from .conftest import TOY_CSV, make_two_segment


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
    votes_default = dict(good, include_default_in_coverage=True)
    features = tmp_path / "features.csv"
    features.write_text("segment,x\nA,0.5\n")
    for doc in ({}, no_chosen, bad_intercept, bad_coefficients, string_flag,
                {**good, "rules": 5}, votes_default):
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
