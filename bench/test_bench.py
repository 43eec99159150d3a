"""Smoke test of the benchmark itself, on a corpus that runs in seconds.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(*args: str) -> dict:
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric():
    for seed in ("1604", "7"):
        r = result("--workload", "smoke", "--seed", seed, "--seconds", "1")
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 3
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert {k: m["unit"] for k, m in r["metrics"].items()} == want
        assert all(m["value"] > 0 for m in r["metrics"].values())


def test_traced_run_reports_every_layer_metric_and_counts_repeat():
    runs = [result("--workload", "smoke", "--seed", "3", "--seconds", "1",
                   "--trace", "1") for _ in range(2)]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for r in runs:
        assert r["correct"] and r["failed"] == 0
        assert {k: m["unit"] for k, m in r["metrics"].items()} == want
    counts = [{k: m["value"] for k, m in r["metrics"].items()
               if m["unit"] in ("count", "bytes", "ratio")
               and k != "trace.overhead_ratio"} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["ladder.terms"] > counts[0]["ladder.terms_nonzero"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "smoke", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_case_over_the_time_cap_is_killed_and_counted(monkeypatch, capsys):
    sys.path.insert(0, str(BENCH_DIR))
    import run
    monkeypatch.setattr(run, "CASE_CAP_S", 2.0)
    rc = run.main(["--workload", "cables", "--seed", "1", "--seconds", "1"])
    r = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc != 0 and not r["correct"]
    assert r["failed"] == 1 and 1 <= r["attempted"] <= len(run.corpus.CABLES)


def test_a_pass_cut_by_the_run_deadline_fails_no_case():
    sys.path.insert(0, str(BENCH_DIR))
    import run
    plan = run.corpus.plan("cables", 1)
    p = run.run_pass(plan, "run", time.perf_counter() + 3.0)
    assert p.cut and p.error and len(p.cases) < len(plan)
    expected = json.loads(run.EXPECTED_FILE.read_text(encoding="utf-8"))
    assert run.check(p, plan, expected) == (len(p.cases), [])
