"""The benchmark: run one workload of CLI cases and print its metrics.

    python3 bench/run.py --workload columns --seed 1604 --seconds 40 --trace 0

Run it from anywhere inside a checkout; it imports ``homflypt`` from the
checkout's ``src`` and needs no install.  Each pass of the workload is a
fresh interpreter (``worker.py``) that runs the cases one after another,
because a CLI user pays the cold caches on every invocation.  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable summary.

``--trace 0``: probes and passes alternate, starting and ending with
``PROBES`` probes, while the next pass is expected to end within
``--seconds``.  A probe is a fresh interpreter that only sets up; it adds a
sample of set-up time.  Every worker times ``reference.run`` after set-up,
after each case and every half second within a case, and each time is
scaled to a machine on which the reference takes ``REF_S``, using the
reference times around and within it.  The metrics are medians over
passes, and the raw numbers are written to ``.bench_out/``.
``--trace 1``: one untraced pass and one traced pass of the same plan; the
metrics are the per-layer numbers of the traced pass and the overhead of
tracing, and the spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import corpus

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_FILE = BENCH_DIR / "expected.json"
OUT_DIR = ROOT / ".bench_out"

CASE_CAP_S = 60.0      # a case running longer is killed and counts as failed
TRACED_CAP_S = 120.0   # the same cap under the profiler
# Seconds of reference.run at the speed all times are scaled to: about its
# median on the 2-vCPU machine the benchmark was calibrated on.
REF_S = 0.05
PROBES = 2             # probes before the first pass and after each pass


class Pass:
    """What one worker reported: set-up time, finished cases, peak RSS.

    ``error`` says why the worker was stopped early, if it was; ``cut`` is
    true when the run's own deadline stopped it rather than a case."""

    def __init__(self):
        self.setup: float | None = None
        self.ref: list[float] | None = None  # reference (wall, cpu) after set-up
        self.cases: list[dict] = []
        self.rss_mb: float | None = None
        self.trace: dict | None = None
        self.error: str | None = None
        self.cut = False

    @property
    def wall(self) -> float:
        return sum(c["wall"] for c in self.cases)

    @property
    def cpu(self) -> float:
        return sum(c["cpu"] for c in self.cases)


def run_pass(plan: list, mode: str, deadline: float) -> Pass:
    """Start a worker, read its reports, and kill it when a case overruns
    its cap or the run reaches ``deadline``."""
    cap = TRACED_CAP_S if mode == "trace" else CASE_CAP_S
    result = Pass()
    lines: queue.Queue = queue.Queue()
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(plan), mode],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        cwd=ROOT)
    stderr_tail: list[str] = []

    def pump(stream, sink) -> None:
        for line in stream:
            sink(line)
        sink(None)

    readers = [threading.Thread(target=pump, args=(proc.stdout, lines.put)),
               threading.Thread(target=pump, args=(
                   proc.stderr, lambda s: s and stderr_tail.append(s)))]
    for t in readers:
        t.start()
    try:
        last = time.perf_counter()
        while True:
            timeout = min(last + cap, deadline) - time.perf_counter()
            try:
                line = lines.get(timeout=max(0.0, timeout))
            except queue.Empty:
                result.cut = last + cap > deadline
                result.error = (
                    "the run reached its time limit; worker stopped"
                    if result.cut else
                    f"ran past the {cap:.0f} s time cap; worker killed")
                break
            if line is None:
                if result.rss_mb is None:
                    result.error = "worker ended early: " + "".join(
                        stderr_tail[-20:]).strip()
                break
            last = time.perf_counter()
            msg = json.loads(line)
            if "setup" in msg:
                result.setup, result.ref = msg["setup"], msg["ref"]
            elif "label" in msg:
                result.cases.append(msg)
            else:
                result.rss_mb, result.trace = msg["rss_mb"], msg["trace"]
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        for t in readers:
            t.join()
    return result


def check(p: Pass, plan: list, expected: dict) -> tuple[int, list[str]]:
    """Cases attempted in a pass, and a message for each that failed: it
    raised, exited non-zero, printed other bytes, or was stopped by the
    case time cap.  Cases the run's deadline kept from finishing are not
    attempted; ``main`` fails the run if no pass finished."""
    fails = []
    for c in p.cases:
        want = expected.get(c["label"])
        if want is None:
            fails.append(f"{c['label']}: no recorded output in {EXPECTED_FILE.name}")
        elif c["rc"] != 0:
            fails.append(f"{c['label']}: exit {c['rc']}: {c['err'].strip()[-500:]}")
        elif c["out"] != want:
            fails.append(f"{c['label']}: output differs from the recorded bytes "
                         f"({len(c['out'])} vs {len(want)} chars)")
    if p.error and not p.cut:
        label = plan[len(p.cases)][0] if len(p.cases) < len(plan) else "worker"
        fails.append(f"{label}: {p.error}")
        return len(p.cases) + 1, fails
    return len(p.cases), fails


def scale_cases(p: Pass) -> None:
    """Give each case of a finished pass its ``scale`` for wall and CPU
    time: ``REF_S`` over the mean of the reference times just before, within
    and just after the case."""
    before = p.ref
    for c in p.cases:
        around = [before, *c["refs"], c["ref"]]
        c["scale"] = {key: REF_S / statistics.mean(r[i] for r in around)
                      for i, key in enumerate(("wall", "cpu"))}
        before = c["ref"]


def case_median_sum(passes: list[Pass], key: str) -> float:
    """The sum over cases of each case's median over the passes, of the
    scaled times: a slow spell of the machine that hit one case in one pass
    costs that case one sample, not the whole pass."""
    per_case: dict[str, list[float]] = {}
    for p in passes:
        for c in p.cases:
            per_case.setdefault(c["label"], []).append(c[key] * c["scale"][key])
    return sum(statistics.median(v) for v in per_case.values())


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "homflypt" / "__init__.py").is_file():
        print(f"error: no homflypt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        expected = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        print(f"error: cannot read {EXPECTED_FILE}: {e}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    t_end = start + args.seconds
    plan = corpus.plan(args.workload, args.seed)
    passes: list[Pass] = []
    probes: list[Pass] = []
    if args.trace:
        deadline = t_end + TRACED_CAP_S
        passes = [run_pass(plan, "run", deadline)]
        if not passes[0].error:
            passes.append(run_pass(plan, "trace", deadline))
    else:
        deadline = t_end + CASE_CAP_S

        def probe() -> bool:
            for _ in range(PROBES):
                probes.append(run_pass(plan, "probe", deadline))
                if probes[-1].error:
                    return False
            return True

        ok = probe()
        longest = 0.0  # the longest pass with the probes after it
        while ok:
            t0 = time.perf_counter()
            passes.append(run_pass(plan, "run", deadline))
            if passes[-1].error:
                break
            ok = probe()
            longest = max(longest, time.perf_counter() - t0)
            if time.perf_counter() + longest > t_end:
                break
        if not ok:
            print(f"error: probe failed: {probes[-1].error}", file=sys.stderr)
            return 2

    attempted, fails = 0, []
    for p in passes:
        n, f = check(p, plan, expected)
        attempted += n
        fails += f
    done = [p for p in passes if not p.error]
    if not done and passes[0].cut:
        label = plan[len(passes[0].cases)][0]
        fails.append(f"{label}: {passes[0].error} before one pass finished")
        attempted += 1
    for f in fails:
        print(f"FAIL {f}", file=sys.stderr)
    if not done or (args.trace and len(done) < 2):
        print(json.dumps({"correct": False, "attempted": max(1, attempted),
                          "failed": len(fails), "metrics": {}}))
        return 1

    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} pass(es) "
          f"of {len(plan)} cases, {len(fails)}/{attempted} failed "
          f"(fail_frac {len(fails) / attempted:.4f})")
    if args.trace:
        plain, traced = done[0], done[-1]
        report = traced.trace
        metrics = {name: metric(v, _unit(name))
                   for name, v in report["metrics"].items()}
        metrics["cli.output_bytes"] = metric(
            sum(len(c["out"].encode()) for c in traced.cases), "bytes")
        metrics["trace.overhead_ratio"] = metric(traced.wall / plain.wall, "ratio")
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "plan": plan,
            "metrics": {k: m["value"] for k, m in metrics.items()},
            "layer_self_s": report["self_s"],
            "case_wall_s": {c["label"]: c["wall"] for c in traced.cases},
            "spans": report["spans"]}), encoding="utf-8")
        print(f"  untraced wall {plain.wall:.3f} s, traced wall {traced.wall:.3f} s;"
              f" spans in {out.relative_to(ROOT)}")
        print("  self time by layer (s): " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(report["self_s"].items())))
    else:
        for p in done:
            scale_cases(p)
        setups = [p.setup * REF_S / p.ref[1] for p in probes + done]
        metrics = {
            "wall_s": metric(case_median_sum(done, "wall"), "s"),
            "cpu_s": metric(case_median_sum(done, "cpu"), "s"),
            "peak_rss_mb": metric(statistics.median(p.rss_mb for p in done), "MB"),
            "setup_s": metric(statistics.median(setups), "s"),
        }
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"run-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "plan": plan,
            "ref_s": REF_S,
            "probes": [{"setup": p.setup, "ref": p.ref} for p in probes],
            "passes": [{"setup": p.setup, "ref": p.ref, "rss_mb": p.rss_mb,
                        "cases": [{k: c[k] for k in ("label", "wall", "cpu",
                                                     "ref", "refs", "scale")}
                                  for c in p.cases]} for p in done]}),
            encoding="utf-8")
        for p in done:
            print(f"  pass: raw wall {p.wall:.3f} s, raw cpu {p.cpu:.3f} s, "
                  f"peak rss {p.rss_mb:.1f} MB, raw setup {p.setup:.4f} s")
        print(f"  raw numbers in {out.relative_to(ROOT)}")
        for label, rot in plan:
            walls = [c["wall"] * c["scale"]["wall"] for p in done for c in p.cases
                     if c["label"] == label]
            print(f"  case {label} (rotation {rot}): median scaled wall "
                  f"{statistics.median(walls):.4f} s over {len(walls)} passes")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not fails, "attempted": attempted,
                      "failed": len(fails), "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
