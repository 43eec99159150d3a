"""Per-layer numbers for one traced pass, taken from outside the program.

Three sources, all installed by the benchmark on the imported package:

* spans with parent ids around the public entry points (``cli.main``,
  ``homfly_columns``, ``homfly_partition``, ``cable_first_component``,
  ``enumerate_terms``, ``Evaluator.ev``, ``guess``,
  ``RecurrenceOperator.verify``/``apply``) and around the text renderers;
* counting wrappers where a count needs a value the profiler does not see
  (nonzero terms, tail-negative words, memo hits, Laurent product sizes);
* the stdlib deterministic profiler for self time per layer and for exact
  call counts.  Spans around the ring operations would cost more than the
  operations (10^5 to 10^6 calls per case), so the rings layer is seen only
  through the profiler.

Self time is charged to the module that defines a function.  A function
from outside the package (builtins, stdlib, generated dataclass code) is
charged to the modules that call it, split by the self time of each call
edge.  The benchmark's own wrappers are charged to ``bench`` and to no
layer.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# module file stem -> layer
LAYERS = {"braid": "braid", "ladder": "ladder", "pbw": "pbw",
          "rings": "rings", "qcomb": "rings", "invariants": "invariants",
          "recurrence": "recurrence", "cli": "cli", "__init__": "cli",
          "__main__": "cli"}

RENDER = ("XPoly.text", "RatQ.text", "RecurrenceOperator.text")
VERIFY = ("RecurrenceOperator.verify", "RecurrenceOperator.apply")


def _key(fn) -> tuple[str, int, str]:
    """The profiler's key for a Python function."""
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


class _CountingDict(dict):
    """A memo table that counts its lookups and hits."""

    __slots__ = ("lookups", "hits")

    def __init__(self):
        super().__init__()
        self.lookups = self.hits = 0

    def get(self, key, default=None):
        self.lookups += 1
        v = dict.get(self, key, default)
        if v is not None:
            self.hits += 1
        return v


class Tracer:
    """Installs the spans, counting wrappers and profiler of one traced
    pass on the imported package; ``finish`` returns the layer metrics."""

    def __init__(self):
        import homflypt
        from homflypt import braid, cli, invariants, ladder, pbw, qcomb, rings
        from homflypt import recurrence
        self.pkg_dir = Path(homflypt.__file__).resolve().parent
        self.qcomb = qcomb
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.stack: list[int] = []
        self.n = defaultdict(int)
        self.evaluators: list = []
        self.memo_entries = self.memo_lookups = self.memo_hits = 0
        self.max_depth = 0
        self.profile = cProfile.Profile()
        self.keys = {
            "_ev": _key(pbw.Evaluator._ev),
            "_step": _key(pbw.Evaluator._step),
            "_list_gcd": _key(rings._list_gcd),
            "RatQ.__init__": _key(rings.RatQ.__init__),
            "XPoly.__mul__": _key(rings.XPoly.__mul__),
        }

        span = self._span
        self._swap(cli, "main", span("cli.main", cli.main))
        self._swap(invariants, "homfly_columns",
                   span("homfly_columns", invariants.homfly_columns))
        self._swap(invariants, "homfly_partition",
                   span("homfly_partition", invariants.homfly_partition))
        self._swap(braid, "cable_first_component",
                   span("cable_first_component", braid.cable_first_component,
                        self._count_cable))
        # the generator is drained inside the span, so that the span covers
        # the enumeration; homfly_columns lists the terms anyway
        terms = span("enumerate_terms",
                     lambda cb, _f=ladder.enumerate_terms: list(_f(cb)),
                     self._count_terms)
        self._swap(ladder, "enumerate_terms", lambda cb: iter(terms(cb)))
        self._swap(recurrence, "guess", span("guess", recurrence.guess))
        ev = pbw.Evaluator
        ev.ev = span("Evaluator.ev", ev.ev, self._count_ev)
        rop = recurrence.RecurrenceOperator
        for name in ("verify", "apply", "text"):
            setattr(rop, name, span(f"RecurrenceOperator.{name}",
                                    getattr(rop, name)))
        for cls in (rings.XPoly, rings.RatQ):
            cls.text = span(f"{cls.__name__}.text", cls.text)

        init = ev.__init__

        def ev_init(obj, *a, **kw):
            init(obj, *a, **kw)
            obj._memo, obj._memo_spec = _CountingDict(), _CountingDict()
            self.evaluators.append(obj)
        ev.__init__ = ev_init

        tail_negative = ev._tail_negative

        def counted_tail_negative(obj, w):
            hit = tail_negative(obj, w)
            if hit:
                self.n["tail_negative"] += 1
            return hit
        ev._tail_negative = counted_tail_negative

        mul = rings.LaurentQ.__mul__

        def counted_mul(a, b):
            self.n["laurent_mul"] += 1
            self.n["laurent_mul_terms"] += len(a.c) * len(b.c)
            return mul(a, b)
        rings.LaurentQ.__mul__ = counted_mul

    # -- installation

    @staticmethod
    def _swap(home, name: str, new) -> None:
        """Replace a function in every package module that imported it."""
        old = getattr(home, name)
        for modname, mod in list(sys.modules.items()):
            if modname == "homflypt" or modname.startswith("homflypt."):
                for attr, value in list(vars(mod).items()):
                    if value is old:
                        setattr(mod, attr, new)

    def _span(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [sid, stack[-1] if stack else None, name, clock(), None]
            spans.append(rec)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if count:
                count(result)
            return result
        return wrapper

    def _count_cable(self, cab) -> None:
        self.n["cables"] += 1
        self.n["cabled_crossings"] += len(cab.braid.word)

    def _count_terms(self, terms) -> None:
        self.n["terms"] += len(terms)

    def _count_ev(self, value) -> None:
        if not value.is_zero():
            self.n["terms_nonzero"] += 1

    # -- the pass

    def start(self) -> None:
        self.profile.enable()

    def end_case(self) -> None:
        """Read the memo tables of the case's evaluators, then drop them."""
        for e in self.evaluators:
            for memo in (e._memo, e._memo_spec):
                self.memo_entries += len(memo)
                self.memo_lookups += memo.lookups
                self.memo_hits += memo.hits
            self.max_depth = max(self.max_depth, e.max_depth)
        self.evaluators.clear()

    def finish(self) -> dict:
        self.profile.disable()
        stats = pstats.Stats(self.profile).stats
        self_s = self._layer_self_times(stats)

        def calls(name: str) -> int:
            row = stats.get(self.keys[name])  # (cc, nc, tt, ct, callers)
            return row[1] if row else 0

        gcd_row = stats.get(self.keys["_list_gcd"])
        canon = 0
        if gcd_row:
            edge = gcd_row[4].get(self.keys["RatQ.__init__"])  # (nc, cc, tt, ct)
            canon = edge[0] if edge else 0
        binom = [self.qcomb.qbinom.cache_info(), self.qcomb.xbinom.cache_info()]
        hits = sum(c.hits for c in binom)
        looked = hits + sum(c.misses for c in binom)
        n = self.n
        metrics = {
            "braid.self_s": self_s["braid"],
            "braid.cabled_crossings": n["cabled_crossings"],
            "ladder.self_s": self_s["ladder"],
            "ladder.terms": n["terms"],
            "ladder.terms_nonzero": n["terms_nonzero"],
            "ladder.useful_ratio": _ratio(n["terms_nonzero"], n["terms"]),
            "pbw.self_s": self_s["pbw"],
            "pbw.ev_calls": calls("_ev"),
            "pbw.rewrite_calls": calls("_step"),
            "pbw.tail_negative": n["tail_negative"],
            "pbw.memo_entries": self.memo_entries,
            "pbw.memo_hit_ratio": _ratio(self.memo_hits, self.memo_lookups),
            "pbw.max_depth": self.max_depth,
            "rings.self_s": self_s["rings"],
            "rings.ratq_canon": canon,
            "rings.gcd_calls": calls("_list_gcd"),
            "rings.laurent_mul": n["laurent_mul"],
            "rings.laurent_mul_terms": n["laurent_mul_terms"],
            "rings.xpoly_mul": calls("XPoly.__mul__"),
            "qcomb.binom_hit_ratio": _ratio(hits, looked),
            "invariants.self_s": self_s["invariants"],
            "invariants.jt_terms": n["cables"],
            "recurrence.self_s": self_s["recurrence"],
            "recurrence.guess_s": self._outermost(("guess",)),
            "recurrence.verify_s": self._outermost(VERIFY),
            "cli.self_s": self_s["cli"],
            "cli.render_s": self._outermost(RENDER),
        }
        return {"metrics": metrics, "self_s": self_s, "spans": self.spans}

    # -- analysis

    def _outermost(self, names) -> float:
        """Summed duration of the spans named in ``names`` that have no
        ancestor of those names."""
        spans = self.spans
        total = 0.0
        for sid, parent, name, start, end in spans:
            if name not in names:
                continue
            while parent is not None and spans[parent][2] not in names:
                parent = spans[parent][1]
            if parent is None:
                total += end - start
        return total

    def _layer_of(self, filename: str) -> str | None:
        path = Path(filename)
        if path.parent == self.pkg_dir:
            return LAYERS.get(path.stem, path.stem)
        if path.parent == BENCH_DIR:
            return "bench"
        return None

    def _layer_self_times(self, stats) -> dict[str, float]:
        owners_memo: dict = {}

        def owners(func, visiting=frozenset()) -> dict[str, float]:
            """Shares of each layer in the calls of ``func``."""
            layer = self._layer_of(func[0])
            if layer:
                return {layer: 1.0}
            if func in owners_memo:
                return owners_memo[func]
            callers = {c: e for c, e in stats[func][4].items()
                       if c not in visiting}
            weight = {c: e[2] for c, e in callers.items()}
            if sum(weight.values()) <= 0:
                weight = {c: e[0] for c, e in callers.items()}
            total = sum(weight.values())
            share: dict[str, float] = defaultdict(float)
            if total <= 0:
                share["other"] = 1.0
            else:
                for c, w in weight.items():
                    for layer, f in owners(c, visiting | {func}).items():
                        share[layer] += f * w / total
            owners_memo[func] = share
            return share

        out: dict[str, float] = defaultdict(float)
        for func, (_, _, tt, _, callers) in stats.items():
            layer = self._layer_of(func[0])
            if layer:
                out[layer] += tt
            elif not callers:
                out["other"] += tt
            else:
                for c, edge in callers.items():
                    for layer, f in owners(c, frozenset({func})).items():
                        out[layer] += edge[2] * f
        for layer in set(LAYERS.values()):
            out.setdefault(layer, 0.0)
        return dict(out)


def _ratio(a: int, b: int) -> float:
    return a / b if b else 0.0
