#!/usr/bin/env python3
"""hipar benchmark: drive `hipar fit|eval|predict` the way users do.

    python3 bench/run.py --workload fit-large --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one after another

One client in one process runs one operation at a time (closed loop). A cycle
is the workload's mining command (`hipar fit`, or `hipar eval --folds 10
--rules-out` on eval-deep), then `hipar predict` over the scoring CSV, then
single-observation `hipar.predict` on pre-built dicts. Cycles repeat until
--seconds have passed. All commands run in-process through `hipar.cli.main`.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. The lines before it print every figure
by name and unit; the full record goes to bench/.results/.

The program is imported from ./src of the checkout that holds this file; the
benchmark exits with status 1 when it is not there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

_T0 = time.perf_counter()  # set-up time counts from here: numpy and hipar imports

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, ".results")
WORK = os.path.join(BENCH, ".work")
SETUP_REPEATS = 3
# Nominal duration of HostSpeed.probe(), about what it takes on an uncontended
# 2-vCPU Xeon VM. Reported times are wall (or CPU) times rescaled to a host on
# which the probe takes exactly this long.
PROBE_REF_S = 0.006
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

sys.path.insert(0, BENCH)
import workloads as W  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here (for example, no ./src/hipar)."""


def import_hipar():
    if not os.path.isdir(os.path.join(SRC, "hipar")):
        raise BenchError(f"no hipar package under {SRC}")
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import hipar
    import hipar.cli

    if os.path.dirname(os.path.abspath(hipar.__file__)) != os.path.join(SRC, "hipar"):
        raise BenchError(f"imported hipar from {hipar.__file__}, not from {SRC}")
    return hipar


class _Condition:
    __slots__ = ("attr", "value")

    def __init__(self, attr: str, value: str) -> None:
        self.attr = attr
        self.value = value

    def matches(self, obs: dict) -> bool:
        return obs.get(self.attr) == self.value


class HostSpeed:
    """Tracks the speed of a shared host with a fixed probe.

    A shared virtual CPU can run at one speed for tens of seconds and ~1.7x
    slower for the next, so raw times of one run depend on when it ran. The
    probe is fixed work that hipar does not touch: rule matching and linear
    scoring over dicts in the interpreter, and small-matrix numpy algebra,
    the two kinds of work hipar does. It runs between timed operations, and
    each operation's time is scaled by PROBE_REF_S over the mean of the probes
    just before and after it.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._x = np.random.default_rng(0).normal(size=(300, 4))
        self._obs = [{"a": f"v{i % 7}", "b": f"w{i % 5}", "x": float(i % 13), "z": float(i % 17)}
                     for i in range(200)]
        self._rules = [[_Condition("a", f"v{j}"), _Condition("b", f"w{j % 5}")] for j in range(7)]
        self._coef = {"x": 0.5, "z": -0.25}
        self.probes: list[float] = []
        self.last = self.probe()

    def _interpreter(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for _ in range(3):
            for obs in self._obs:
                for rule in self._rules:
                    if all(c.matches(obs) for c in rule):
                        acc += sum(k * obs[n] for n, k in self._coef.items())
        return time.perf_counter() - start

    def _numpy(self) -> float:
        np, x = self._np, self._x
        start = time.perf_counter()
        for _ in range(40):
            z = (x - x.mean(axis=0)) / x.std(axis=0)
            z.T @ z
            np.argsort(x[:, 0], kind="stable")
            np.linalg.lstsq(z, x[:, 1], rcond=None)
        return time.perf_counter() - start

    def probe(self) -> float:
        """Seconds for the probe work; each half is the median of three tries."""
        elapsed = (statistics.median(self._interpreter() for _ in range(3))
                   + statistics.median(self._numpy() for _ in range(3)))
        self.probes.append(elapsed)
        return elapsed

    def factor(self) -> float:
        """Probe again; the scale factor for the work done since the last probe."""
        before, self.last = self.last, self.probe()
        return 2 * PROBE_REF_S / (before + self.last)


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(len(ordered) * pct / 100) - 1)]


def summary(samples: list[float]) -> dict:
    """Median plus the highest of p90/p99/p99.9 that has >= 10 samples beyond it."""
    out = {"n": len(samples), "median": statistics.median(samples)}
    for pct in (99.9, 99.0, 90.0):
        if len(samples) * (1 - pct / 100) >= 10:
            out[f"p{pct:g}"] = percentile(samples, pct)
            break
    return out


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "platform": platform.platform(),
    }


class Run:
    """One benchmark run: set-up, timed cycles, output checks, metrics."""

    def __init__(self, hipar, workload: W.Workload, seed: int, workdir: str, tracer=None):
        self.hipar = hipar
        self.w = workload
        self.seed = seed
        self.tracer = tracer
        self.speed = HostSpeed()
        self.paths = {
            k: os.path.join(workdir, f)
            for k, f in (("train", "train.csv"), ("score", "score.csv"), ("rules", "rules.json"),
                         ("preds", "predictions.txt"), ("report", "report.json"))
        }
        self.attempted = 0
        self.failures: list[str] = []
        # per cycle, host-speed normalized, and the same figures unscaled
        self.cycles: dict[str, list[float]] = defaultdict(list)
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.mine_traced: list[bool] = []
        self.one_us: list[float] = []  # every unscaled single-row latency of the run
        self.rule_shas: set[str] = set()
        self.pred_shas: set[str] = set()
        self.predictions: list[float] | None = None
        self.single: list[float] = []
        self.traced_cycles = 0
        self.cv_reduction_pct: float | None = None
        self.rule_count: int | None = None
        self.holdout_rmse: float | None = None
        self.fallback_frac: float | None = None
        self.mean_cover: float | None = None

    def fail(self, msg: str) -> None:
        self.failures.append(msg)

    def record(self, name: str, raw: float, factor: float) -> None:
        self.raw[name].append(raw)
        self.cycles[name].append(raw * factor)

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        digests = set()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            train, score = W.generate(self.w, self.seed)
            W.write_table(train, self.paths["train"])
            W.write_table(score, self.paths["score"], with_target=False)
            self.record("setup_s", time.perf_counter() - start, self.speed.factor())
            digests.add((sha256(self.paths["train"]), sha256(self.paths["score"])))
        if len(digests) != 1:
            self.fail("generator: same seed gave different CSV bytes")
        self.score = score
        features = [c for c in score if c != W.TARGET]
        self.observations = [
            {c: (v if isinstance(v, str) else float(v)) for c, v in zip(features, row)}
            for row in zip(*(score[c][: self.w.single_rows].tolist() for c in features))
        ]
        self.speed.factor()  # the next operation starts from a fresh probe

    # -- one cycle ----------------------------------------------------------

    def cli(self, argv: list[str]) -> tuple[int, float, float, float]:
        """Run one hipar command; exit code, wall and CPU seconds, speed factor."""
        if self.tracer is not None:
            self.tracer.new_op()
        self.attempted += 1
        sink = io.StringIO()
        cpu0 = time.process_time()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            rc = self.hipar.cli.main(argv)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        factor = self.speed.factor()
        if rc != 0:
            self.fail(f"hipar {argv[0]} exited {rc}")
        return rc, wall, cpu, factor

    def mine_argv(self) -> list[str]:
        p, w = self.paths, self.w
        common = ["--input", p["train"], "--target", W.TARGET, "--min-support", repr(w.theta)]
        if w.mine == "eval":
            return ["eval", *common, "--folds", "10", "--report-out", p["report"],
                    "--rules-out", p["rules"]]
        return ["fit", *common, "--rules-out", p["rules"]]

    def cycle(self, traced: bool) -> None:
        p = self.paths
        rc, wall, cpu, factor = self.cli(self.mine_argv())
        if rc == 0:
            self.record("mine_s", wall, factor)
            self.record("cpu_s", cpu, factor)
            self.mine_traced.append(traced)
            self.rule_shas.add(sha256(p["rules"]))
            if self.w.mine == "eval":
                self.check_report()

        rc, wall, _, factor = self.cli(["predict", "--rules", p["rules"], "--input", p["score"],
                                        "--out", p["preds"]])
        if rc == 0:
            self.check_predictions()
            self.record("predict_s", wall, factor)

        try:
            predictor = self.hipar.deserialize_rules(p["rules"])
        except self.hipar.DataError as exc:
            self.fail(f"cannot load the rule file: {exc}")
            return
        self.speed.factor()
        predict = self.hipar.predict
        tracer = self.tracer
        clock = time.perf_counter_ns
        values, latencies = [], []
        for obs in self.observations:
            if tracer is not None:
                tracer.new_op()
            self.attempted += 1
            start = clock()
            try:
                v = predict(predictor, obs)
            except Exception as exc:  # counted as a failed operation
                self.fail(f"predict raised {exc!r}")
                continue
            latencies.append((clock() - start) / 1e3)
            values.append(v)
        factor = self.speed.factor()
        if latencies:
            self.one_us.extend(latencies)
            self.record("predict_one_p50_us", statistics.median(latencies), factor)
            self.record("predict_one_p99_us", percentile(latencies, 99.0), factor)
        if not self.single:
            self.single = values
        elif values != self.single:
            self.fail("single-row predictions changed between cycles")

    # -- output checks ------------------------------------------------------

    def check_report(self) -> None:
        with open(self.paths["report"], encoding="utf-8") as fh:
            report = json.load(fh)
        folds = report["folds"]
        if len(folds) != 10 or any(f["skipped"] for f in folds):
            self.fail("eval report: expected 10 scored folds")
        elif not math.isfinite(report["mean_reduction"]):
            self.fail("eval report: mean reduction is not finite")
        self.cv_reduction_pct = report["mean_reduction"]

    def check_predictions(self) -> None:
        digest = sha256(self.paths["preds"])
        if digest in self.pred_shas:
            return  # byte-identical to an output already checked
        with open(self.paths["preds"], encoding="utf-8") as fh:
            values = [float(line) for line in fh]
        if len(values) != self.w.score_rows:
            self.fail(f"predict wrote {len(values)} predictions for {self.w.score_rows} rows")
        elif not all(math.isfinite(v) for v in values):
            self.fail("predict wrote a non-finite prediction")
        if self.pred_shas:
            self.fail("predictions changed between cycles")
        self.pred_shas.add(digest)
        self.predictions = values

    def final_checks(self) -> None:
        """Checks made once, after the timed cycles."""
        if len(self.rule_shas) > 1:
            self.fail(f"rule file differs across repeats ({len(self.rule_shas)} digests)")
        if self.predictions is None:
            self.fail("no predictions to check")
            return
        import numpy as np

        try:
            predictor = self.hipar.deserialize_rules(self.paths["rules"])
            columns = {a.name: self.score[a.name] for a in predictor.schema}
            scoring = self.hipar.Dataset(predictor.schema, columns)
            batch = self.hipar.predict_batch(predictor, scoring, np.arange(scoring.n))
        except self.hipar.DataError as exc:
            self.fail(f"predict_batch on the scoring rows failed: {exc}")
            return
        if batch.tolist() != self.predictions:
            self.fail("hipar predict output differs from predict_batch")
        if self.single != self.predictions[: len(self.single)]:
            self.fail("single-row predict differs from hipar predict output")
        self.rule_count = len(predictor.rules.chosen)
        errors = np.asarray(self.predictions) - self.score[W.TARGET]
        self.holdout_rmse = float(np.sqrt(np.mean(errors**2)))
        cover = [len(self.hipar.covering_rules(predictor, obs)) for obs in self.observations]
        self.fallback_frac = sum(c == 0 for c in cover) / len(cover)
        self.mean_cover = statistics.fmean(cover)

    def end_to_end(self, import_s: float, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
        c = self.cycles
        if not (c["mine_s"] and c["predict_s"] and c["predict_one_p50_us"]
                and self.holdout_rmse is not None):
            return {}
        rows_per_s = [self.w.score_rows / s for s in c["predict_s"]]
        return {
            "mine_s": (statistics.median(c["mine_s"]), "s"),
            "predict_rows_per_s": (statistics.median(rows_per_s), "rows/s"),
            "predict_one_p50_us": (statistics.median(c["predict_one_p50_us"]), "us"),
            "cpu_s": (statistics.median(c["cpu_s"]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (import_s * PROBE_REF_S / self.speed.probes[0]
                        + statistics.median(c["setup_s"]), "s"),
            "holdout_rmse": (self.holdout_rmse, "target"),
        }


def per_layer(run: Run, tracer) -> dict[str, tuple[float, str]]:
    """Per-cycle figures of the traced cycles; times are unscaled self times."""
    n = max(run.traced_cycles, 1)
    selfs = tracer.self_seconds()
    calls = tracer.calls
    out: dict[str, tuple[float, str]] = {}
    for layer, func in (
        ("data", "load_csv"), ("discretization", "mdlp_cuts"),
        ("discretization", "binarize_target"), ("patterns", "closure"), ("patterns", "region"),
        ("enumeration", "hipar_init"), ("enumeration", "occam_test"),
        ("regression", "best_local_model"), ("regression", "fit_lasso"),
        ("regression", "fit_omp"), ("regression", "fit_ols"),
        ("selection", "build_problem"), ("selection", "solve"),
        ("prediction", "predict_batch"), ("prediction", "predict"),
        ("pipeline", "run_hipar"), ("pipeline", "cross_validate"),
        ("pipeline", "serialize_rules"), ("pipeline", "deserialize_rules"),
    ):
        out[f"{layer}.{func}_s"] = (selfs.get(f"{layer}.{func}", 0.0) / n, "s")
    out["enumeration.self_s"] = (selfs.get("enumeration.enumerate_candidates", 0.0) / n, "s")
    out["cli.self_s"] = (selfs.get("cli.main", 0.0) / n, "s")
    out["discretization.mdlp_cuts_calls"] = (calls["discretization.mdlp_cuts"] / n, "count")
    out["patterns.closure_calls"] = (calls["patterns.closure"] / n, "count")
    stats = tracer.enum_stats
    for field in ("visited", "pruned_support", "pruned_iv", "pruned_leftmost",
                  "rejected_occam", "accepted"):
        out[f"enumeration.{field}"] = (sum(getattr(s, field) for s in stats) / n, "count")
    visited = sum(s.visited for s in stats)
    accepted = sum(s.accepted for s in stats)
    out["enumeration.accept_ratio"] = (accepted / visited if visited else 0.0, "ratio")
    fits = calls["regression.best_local_model"]
    out["regression.local_fits"] = (fits / n, "count")
    out["regression.evaluate_calls"] = (calls["regression.evaluate"] / n, "count")
    out["regression.fits_per_visited"] = (fits / visited if visited else 0.0, "ratio")
    for name, sizes in (("candidates", tracer.candidates), ("chosen", tracer.chosen)):
        out[f"selection.{name}"] = (statistics.fmean(sizes) if sizes else 0.0, "count")
    out["selection.exact_solves"] = (tracer.solvers["exact"] / n, "count")
    out["selection.local_search_solves"] = (tracer.solvers["local-search"] / n, "count")
    if run.fallback_frac is not None:
        out["prediction.fallback_frac"] = (run.fallback_frac, "ratio")
        out["prediction.mean_cover"] = (run.mean_cover, "count")
    mine = run.cycles["mine_s"]
    traced = [t for t, tr in zip(mine, run.mine_traced) if tr]
    plain = [t for t, tr in zip(mine, run.mine_traced) if not tr]
    if traced and plain:
        overhead = statistics.median(traced) / statistics.median(plain) - 1
        out["trace.overhead_pct"] = (overhead * 100, "%")
    return out


def run_one(args) -> int:
    try:
        hipar = import_hipar()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    import_s = time.perf_counter() - _T0

    workload = W.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    try:
        run = Run(hipar, workload, args.seed, workdir, tracer)
        run.setup()
        loop_start = time.perf_counter()
        cycles = 0
        # A cycle starts only while at least half a cycle's time is left. The
        # traced run alternates untraced and traced cycles, so the two mining
        # times give the tracing overhead; it needs at least two cycles.
        while cycles < (2 if tracer is not None else 1) or (
            (elapsed := time.perf_counter() - loop_start) < args.seconds - 0.5 * elapsed / cycles
        ):
            traced = tracer is not None and cycles % 2 == 1
            if traced:
                tracer.install()
            try:
                run.cycle(traced)
            finally:
                if traced:
                    tracer.uninstall()
                    run.traced_cycles += 1
            cycles += 1
        loop_s = time.perf_counter() - loop_start
        run.final_checks()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    end_to_end = run.end_to_end(import_s, peak_rss_mb)
    attempted = max(run.attempted, 1)
    failed = min(len(run.failures), attempted)
    mine_name = "eval_s" if workload.mine == "eval" else "fit_s"
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "cycles": cycles,
        "loop_s": loop_s,
        "failures": run.failures,
        "failed_ops_frac": failed / attempted,
        "rule_count": run.rule_count,
        "rules_sha256": sorted(run.rule_shas),
        "predictions_sha256": sorted(run.pred_shas),
        "cv_reduction_pct": run.cv_reduction_pct,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "unscaled": {
            "import_s": import_s,
            mine_name: summary(run.raw["mine_s"]) if run.raw["mine_s"] else None,
            "predict_one_us": summary(run.one_us) if run.one_us else None,
        },
        "per_cycle": {"scaled": run.cycles, "unscaled": run.raw},
        "probe_s": summary(run.speed.probes),
        "probe_ref_s": PROBE_REF_S,
        "environment": environment(),
    }
    metrics = end_to_end
    if tracer is not None:
        metrics = per_layer(run, tracer)
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        record["traced_cycles"] = run.traced_cycles
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    if tracer is not None:
        tracer.write_spans(stem + "-spans.tsv")

    print(f"# {workload.name} seed={args.seed} trace={args.trace} cycles={cycles} "
          f"loop={loop_s:.1f}s rules={run.rule_count} sha256={','.join(record['rules_sha256'])}")
    for msg in run.failures:
        print(f"# FAILED: {msg}")
    shown = dict(end_to_end)
    if "mine_s" in end_to_end:
        shown[mine_name] = end_to_end["mine_s"]
    if run.raw["predict_one_p99_us"]:
        # unscaled and not among the gated metrics: the host's tail latency
        # does not follow the probe, so neither form is steady between runs
        shown["predict_one_p99_us"] = (statistics.median(run.raw["predict_one_p99_us"]), "us")
    shown["failed_ops_frac"] = (failed / attempted, "ratio")
    if run.cv_reduction_pct is not None:
        shown["cv_reduction_pct"] = (run.cv_reduction_pct, "%")
    if tracer is not None:
        shown.update(metrics)
    for name, (value, unit) in shown.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and bool(end_to_end),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    rc = 0
    for name in W.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        rc = rc or proc.returncode
    return rc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*W.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
