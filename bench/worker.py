"""One pass of a workload, in a fresh interpreter, as a CLI user runs it.

Usage (started by run.py, not by hand):

    python3 bench/worker.py PLAN_JSON MODE

PLAN_JSON is the ``[label, rotation]`` list from ``corpus.plan`` and MODE
one of ``probe`` (set up only), ``run`` or ``trace``.  Every case is a
``homflypt.cli.main(argv)`` call made in this process, one after another,
with stdout and stderr captured.

The worker writes one JSON object per line to its stdout: ``{"setup": s,
"ref": r}`` after the import and argv construction, one object per finished
case, and a final ``{"rss_mb": ..., "trace": ...}``.

Except in a traced pass, the worker gauges the machine's speed with
``reference.run``: after set-up (``ref``), after each case (the case's
``ref``), and every ``GAUGE_PERIOD_S`` of wall time within a case, from a
timer signal (the case's ``refs``).  The case's ``wall`` and ``cpu`` leave
out the time of the reference runs within it.  The parent scales each case
by the reference times around and within it.

Set-up is measured as the CPU time of this process up to the first report:
interpreter start, imports and argv construction.  CPU time leaves out
the time the machine's other tenants take from a shared core, which would
otherwise dominate a 0.1 s figure.
"""

from __future__ import annotations

import io
import json
import resource
import signal
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GAUGE_PERIOD_S = 0.5


def main() -> int:
    plan_json, mode = sys.argv[1:3]
    proto = sys.stdout

    def send(obj) -> None:
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import homflypt
    import homflypt.cli as cli
    if Path(homflypt.__file__).resolve().parent != src / "homflypt":
        print(f"homflypt imported from {homflypt.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import corpus
    cases = [(label, corpus.argv(label, rot))
             for label, rot in json.loads(plan_json)]
    setup = time.process_time()
    import reference
    gauge = mode != "trace"
    send({"setup": setup, "ref": reference.run() if gauge else None})
    if mode == "probe":
        cases = []

    refs: list[tuple[float, float]] = []

    def tick(signum, frame) -> None:
        refs.append(reference.run())

    signal.signal(signal.SIGALRM, tick)

    tracer = None
    if mode == "trace":
        from tracing import Tracer
        tracer = Tracer()
        tracer.start()
    for label, argv in cases:
        out, err = io.StringIO(), io.StringIO()
        refs.clear()
        if gauge:
            signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:  # a raising case is a failed case; keep going
            rc = None
            err.write(traceback.format_exc())
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer:
            tracer.end_case()
        send({"label": label, "rc": rc, "out": out.getvalue(),
              "err": err.getvalue()[-4000:],
              "wall": t1 - t0 - sum(w for w, _ in refs),
              "cpu": c1 - c0 - sum(c for _, c in refs), "refs": refs,
              "ref": reference.run() if gauge else None})
    report = tracer.finish() if tracer else None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    send({"rss_mb": rss_mb, "trace": report})
    return 0


if __name__ == "__main__":
    sys.exit(main())
