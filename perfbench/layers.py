"""Per-layer measurement for the traced run: spans around the benchmark's own
calls into ualg, call counts and self-time shares from a cProfile pass, and
the line count of each module.

The layers are the ualg modules finord, context, syntax, deduction, setmodel
and universal.  Spans are kept in memory and written out once at the end.
"""

from __future__ import annotations

import contextlib
import json
import pstats
import time
from collections import Counter
from pathlib import Path

from ualg import (  # run.py puts the checkout's src/ on sys.path first
    categorization_axioms, context, finord, proof_lines, setmodel, syntax,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "ualg"
LAYERS = ("finord", "context", "syntax", "deduction", "setmodel", "universal")
LOC_MODULES = LAYERS + ("selftest", "cli")
TRUNCATION_REASONS = ("ctx", "depth", "instantiation", "rounds")

# Span names whose summed durations are reported as `<name>_s`.
SPAN_METRICS = ("deduction.prove", "deduction.refute", "deduction.check_proof",
                "setmodel.find_model", "universal.sigma", "universal.quotient",
                "syntax.parse")

_NULL = contextlib.nullcontext()


class NullTracer:
    """Records nothing; the untraced runs use it."""

    def span(self, name: str, qid=None):
        return _NULL

    def note_quotient(self, sigma, classes: int) -> None:
        pass

    def on_answers(self, answers) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "name", "qid", "index")

    def __init__(self, tracer: "SpanTracer", name: str, qid):
        self.tracer, self.name, self.qid = tracer, name, qid

    def __enter__(self):
        t = self.tracer
        parent = t.stack[-1] if t.stack else None
        qid = self.qid
        if qid is None and parent is not None:
            qid = t.spans[parent][4]
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter() - t.origin, None,
                        parent, qid])
        t.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter() - t.origin
        t.stack.pop()
        return False


class SpanTracer:
    """Spans as [name, start, end, parent index, query id], in memory."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.sigmas: list = []
        self.classes = 0
        self.proof_lines = 0
        self.merged = 0
        self.truncated_goals = 0
        self.truncated_by: Counter = Counter()

    def span(self, name: str, qid=None) -> _Span:
        return _Span(self, name, qid)

    def note_quotient(self, sigma, classes: int) -> None:
        self.sigmas.append(sigma)
        self.classes += classes

    def on_answers(self, answers) -> None:
        for a in answers:
            if a.proof is not None:
                self.proof_lines += len(proof_lines(a.proof))
            if a.verdict == "merged":
                self.merged += 1
            if a.verdict == "inconclusive" and a.truncated_by:
                self.truncated_goals += 1
                self.truncated_by.update(a.truncated_by)

    def total(self, name: str) -> float:
        return sum((end - start for n, start, end, _, _ in self.spans
                    if n == name), 0.0)

    def self_time(self, name: str) -> float:
        """Duration of the named spans minus what their child spans cover."""
        own = self.total(name)
        ids = {i for i, s in enumerate(self.spans) if s[0] == name}
        return own - sum((end - start for _, start, end, parent, _ in self.spans
                          if parent in ids), 0.0)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "query")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


def _code_key(fn) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _call_counts(stats: dict) -> dict[str, int]:
    counted = {
        "context.holds.calls": context.holds,
        "context.terminal_context.calls": context.terminal_context,
        "syntax.apply_renaming.calls": syntax.apply_renaming,
        "syntax.app.calls": syntax.app,
        "finord.fnfn_built": getattr(finord.FinFn, "__post_init__", None),
        "setmodel.models_checked": setmodel.satisfies_theory,
    }
    out = {}
    for metric, fn in counted.items():
        entry = stats.get(_code_key(fn)) if fn is not None else None
        out[metric] = entry[1] if entry else 0
    return out


def _shares(stats: dict) -> dict[str, float]:
    self_time = Counter()
    total = 0.0
    for (filename, _, _), (_, _, tt, _, _) in stats.items():
        total += tt
        path = Path(filename)
        if path.parent == SRC:
            self_time[path.stem] += tt
    return {f"{m}.share": self_time[m] / total if total else 0.0
            for m in LAYERS}


def loc() -> dict[str, int]:
    counts = {f"{m}.loc": len((SRC / f"{m}.py").read_text().splitlines())
              for m in LOC_MODULES}
    counts["ualg.loc"] = sum(len(p.read_text().splitlines())
                             for p in SRC.glob("*.py"))
    return counts


def span_cost(n: int = 20000) -> float:
    """Seconds one span adds, measured on empty spans in this process."""
    t = SpanTracer()
    t0 = time.perf_counter()
    for _ in range(n):
        with t.span("calibrate"):
            pass
    return (time.perf_counter() - t0) / n


def layer_metrics(tracer: SpanTracer, profiler, span_s: float,
                  profile_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    The overheads compare each traced pass with the untraced time of the
    same pass, estimated as the span pass minus what its spans cost."""
    m: dict[str, tuple[float, str]] = {}
    for name in SPAN_METRICS:
        m[f"{name}_s"] = (tracer.total(name), "s")
    m["query.self_s"] = (tracer.self_time("query"), "s")
    m["deduction.proof_lines"] = (tracer.proof_lines, "count")
    m["deduction.truncated_goals"] = (tracer.truncated_goals, "count")
    for reason in TRUNCATION_REASONS:
        m[f"deduction.truncated.{reason}"] = (tracer.truncated_by[reason],
                                              "count")

    stats = pstats.Stats(profiler).stats
    counts = _call_counts(stats)
    for name, value in counts.items():
        m[name] = (value, "count")
    find_s = m["setmodel.find_model_s"][0]
    m["setmodel.models_per_s"] = (
        counts["setmodel.models_checked"] / find_s if find_s else 0.0, "1/s")
    m["universal.axioms"] = (
        sum(len(categorization_axioms(s)) for s in tracer.sigmas), "count")
    m["universal.classes"] = (tracer.classes, "count")
    m["universal.merged_goals"] = (tracer.merged, "count")
    for name, value in _shares(stats).items():
        m[name] = (value, "ratio")
    for name, value in loc().items():
        m[name] = (value, "lines")
    plain_s = span_s - len(tracer.spans) * span_cost()
    m["trace.span_overhead"] = (span_s / plain_s, "ratio")
    m["trace.profile_overhead"] = (profile_s / plain_s, "ratio")
    return m
