"""The ualg benchmark: seeded workloads run against ualg's public API.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 50 --trace 0

Every query runs in a closed loop (one client, workers=1, each query starts
after the previous verdict).  Each verdict is checked against the oracles in
`goals`, which share no code with ualg.  The last line of stdout is one JSON
object: the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from ualg import (  # noqa: E402
    Bounds, check_proof, find_model, internalize_term, parse_equation_text,
    parse_theory, prove, refute_by_invariant, universal_hom,
)
from ualg.universal import default_sigma  # noqa: E402

from goals import axioms_of, ground_holds, parse_goal  # noqa: E402
from hostspeed import REFERENCE_PROBE_S, HostSpeed  # noqa: E402
from layers import NullTracer, SpanTracer, layer_metrics  # noqa: E402
from workloads import HOM, WORKLOADS, Query, queries, theory_texts  # noqa: E402

SETUP_PROBES_PER_BATCH = 3

# How each decide theory answers a goal that `prove` leaves open: the
# invariant refuter for the injective theory, otherwise a model search up
# to this size.  Monoid stops at 2: an exhaustive size-3 search takes ~54 s.
DECIDE_FALLBACK = {"monoid": 2, "projection": 3, "magma": 3,
                   "projection_injective": "refute"}
DECIDED = ("proved", "refuted", "countermodel", "merged")


@dataclass
class Setup:
    theories: dict  # key -> ualg Theory
    axioms: dict  # key -> axioms parsed on the benchmark's side
    queries: list[Query]
    parsed: dict  # goal text -> ualg Equation


def setup(workload: str, seed: int, tracer) -> Setup:
    """Everything before the first query after the ualg import: theory
    parsing, input generation and goal parsing."""
    qs = queries(workload, seed)
    used = {q.theory for q in qs}
    texts = {k: v for k, v in theory_texts().items() if k in used}
    theories, parsed = {}, {}
    with tracer.span("syntax.parse"):
        for key, text in texts.items():
            theories[key] = parse_theory(text)
        for q in qs:
            E = theories[q.theory]
            for g in q.goals:
                parsed[g.text] = parse_equation_text(
                    E.signature, g.text, structure=E.structure)
    axioms = {k: axioms_of(text) for k, text in texts.items()}
    return Setup(theories, axioms, qs, parsed)


# ---------------------------------------------------------------------------
# Queries


@dataclass
class Answer:
    """What the program said about one goal, before it is judged."""
    verdict: str
    replayed: bool = True
    model: object = None
    proof: object = None
    truncated_by: tuple[str, ...] = ()


def _replays(E, proof, goal) -> bool:
    concluded = check_proof(E, proof)
    return (concluded.lhs, concluded.rhs, concluded.ctx) == (
        goal.lhs, goal.rhs, goal.ctx)


def _prove(E, goal, bounds, tracer) -> Answer:
    with tracer.span("deduction.prove"):
        res = prove(E, goal, bounds)
    if not res.proved:
        return Answer("inconclusive", truncated_by=res.truncated_by)
    with tracer.span("deduction.check_proof"):
        replayed = _replays(E, res.proof, goal)
    return Answer("proved", replayed=replayed, proof=res.proof)


def ask_decide(s: Setup, q: Query, tracer) -> list[Answer]:
    E, goal = s.theories[q.theory], s.parsed[q.goals[0].text]
    answer = _prove(E, goal, Bounds(3, 3, 4), tracer)
    if answer.verdict == "proved":
        return [answer]
    fallback = DECIDE_FALLBACK[q.theory]
    if fallback == "refute":
        with tracer.span("deduction.refute"):
            refuted = refute_by_invariant(E, goal)
        if refuted:
            answer.verdict = "refuted"
        return [answer]
    with tracer.span("setmodel.find_model"):
        model = find_model(E, fallback, avoid=goal)
    if model is not None:
        answer.verdict, answer.model = "countermodel", model
    return [answer]


def ask_derive(s: Setup, q: Query, tracer) -> list[Answer]:
    E, goal = s.theories[q.theory], s.parsed[q.goals[0].text]
    return [_prove(E, goal, Bounds(4, 4, 8), tracer)]


def ask_universal(s: Setup, q: Query, tracer) -> list[Answer]:
    E = s.theories[q.theory]
    with tracer.span("universal.sigma"):
        sigma = default_sigma(E, HOM)
    sides = []
    for g in q.goals:
        eq = s.parsed[g.text]
        sides.append((internalize_term(sigma, eq.ctx, eq.lhs),
                      internalize_term(sigma, eq.ctx, eq.rhs)))
    with tracer.span("universal.quotient"):
        part = universal_hom(E, HOM, Bounds(2, 3, 8),
                             extra_terms=[t for pair in sides for t in pair],
                             sigma=sigma)
    tracer.note_quotient(sigma, len(part.classes))
    return [Answer("merged" if part.merged(a, b) else "inconclusive",
                   truncated_by=part.truncated_by) for a, b in sides]


ASK = {"decide": ask_decide, "derive": ask_derive, "universal": ask_universal}


# ---------------------------------------------------------------------------
# Judging a verdict against the oracle


def judge(s: Setup, goal, answer: Answer) -> Optional[str]:
    """None when the verdict is consistent, else why the query failed."""
    if goal.expected is not None and answer.verdict != goal.expected:
        return f"expected {goal.expected}, got {answer.verdict}"
    if answer.verdict in ("proved", "merged") and goal.truth is False:
        return f"{answer.verdict} a goal the oracle calls false"
    if answer.verdict in ("refuted", "countermodel") and goal.truth is True:
        return f"{answer.verdict} a goal the oracle calls true"
    if not answer.replayed:
        return "proof does not replay to the goal"
    if answer.verdict == "countermodel":
        m = answer.model
        carriers = dict(m.carriers)
        tables = {name: (mm.doms, mm.table) for name, mm in m.op_tables.items()}
        if not all(ground_holds(carriers, tables, ax)
                   for ax in s.axioms[goal.theory]):
            return "countermodel violates an axiom"
        if ground_holds(carriers, tables, parse_goal(goal.text)):
            return "countermodel satisfies the goal"
    return None


@dataclass
class Tally:
    # (start, end, seconds) of each pass's query, by qid; `seconds` leaves
    # out host-speed probe time
    samples: dict[int, list[tuple[float, float, float]]] = field(
        default_factory=dict)
    attempted: int = 0
    failed: int = 0
    decided: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, goal, verdict: str, failure: Optional[str]) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.failures.append(f"{goal.text}: {verdict}: {failure}")
        elif verdict in DECIDED:
            self.decided += 1


def run_pass(workload: str, s: Setup, tracer, tally: Tally,
             host: Optional[HostSpeed] = None) -> float:
    """Ask every query once; returns the pass's wall time."""
    ask = ASK[workload]
    start = time.perf_counter()
    for q in s.queries:
        times = tally.samples.setdefault(q.qid, [])
        probed = host.spent if host else 0.0
        t0 = time.perf_counter()
        try:
            with tracer.span("query", q.qid):
                answers = ask(s, q, tracer)
        except Exception:
            answers = None
        t1 = time.perf_counter()
        times.append((t0, t1, t1 - t0 - ((host.spent - probed) if host
                                         else 0.0)))
        if answers is None:
            print(traceback.format_exc(), file=sys.stderr)
            for goal in q.goals:
                tally.record(goal, "error", "raised")
            continue
        for goal, answer in zip(q.goals, answers):
            tally.record(goal, answer.verdict, judge(s, goal, answer))
        tracer.on_answers(answers)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Metrics


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_setup(workload: str, seed: int, count: int) -> list[float]:
    """Wall times of fresh processes that import ualg, parse the theories,
    generate and parse the inputs, and exit before the first query."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def timings(tally: Tally, adjust) -> dict:
    """The query-time metrics, each (start, end, seconds) sample passed
    through `adjust`.  Each query's latency is the median over the
    passes; the percentiles are taken across queries.  p90 needs at least 10
    queries beyond it (decide); with fewer (derive, universal) the p50
    stands in for it.  A pass's wall time is the sum of its query
    latencies."""
    by_query = [[adjust(*t) for t in v] for v in tally.samples.values()]
    latency = [statistics.median(v) for v in by_query]
    p50 = statistics.median(latency)
    p90 = nearest_rank(latency, 0.9) if len(latency) >= 100 else p50
    return {
        "wall_s": (statistics.median(map(sum, zip(*by_query))), "s"),
        "verdict_p50_ms": (1000 * p50, "ms"),
        "verdict_p90_ms": (1000 * p90, "ms"),
    }


def end_to_end(workload: str, seed: int, seconds: float, s: Setup
               ) -> tuple[Tally, dict]:
    # Set-up is timed before and after every pass, so that its median spans
    # the whole run rather than one moment of a machine whose speed drifts.
    # It is not host-speed adjusted: the probes in this process do not track
    # the speed of the child, and adjusting made it noisier.
    host = HostSpeed()
    setup_times = time_setup(workload, seed, SETUP_PROBES_PER_BATCH)
    tally = Tally()
    walls: list[float] = []
    started = time.perf_counter()
    # Start another pass only while it is expected to end within the budget.
    while not walls or (time.perf_counter() - started) + walls[-1] <= seconds:
        with host:
            walls.append(run_pass(workload, s, NullTracer(), tally, host))
        setup_times += time_setup(workload, seed, SETUP_PROBES_PER_BATCH)
    metrics = {"setup_s": (statistics.median(setup_times), "s"),
               **timings(tally, host.adjust)}
    raw = timings(tally, lambda start, end, seconds: seconds)
    speed = statistics.median(REFERENCE_PROBE_S / d for d in host.durations)
    print(f"# {workload} seed {seed}: {len(walls)} passes of "
          f"{len(tally.samples)} queries; median host-speed factor "
          f"{speed:.3f}; unadjusted " + ", ".join(
              f"{name} {value:.4g}" for name, (value, _) in raw.items()),
          file=sys.stderr)
    metrics["decided_ratio"] = (tally.decided / tally.attempted, "ratio")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return tally, metrics


def traced(workload: str, seed: int, s: Setup, tracer: SpanTracer
           ) -> tuple[Tally, dict]:
    """A pass with spans, then a pass under cProfile."""
    tally = Tally()
    span_s = run_pass(workload, s, tracer, tally)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        profile_s = run_pass(workload, s, NullTracer(), tally)
    finally:
        profiler.disable()
    metrics = layer_metrics(tracer, profiler, span_s, profile_s)
    out = HERE / "out" / f"spans-{workload}-{seed}.json"
    tracer.write(out)
    print(f"# spans written to {out.relative_to(ROOT)}", file=sys.stderr)
    return tally, metrics


def main(argv: Optional[list[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up (used to time set-up)")
    args = p.parse_args(argv)

    tracer = SpanTracer() if args.trace else NullTracer()
    s = setup(args.workload, args.seed, tracer)
    if args.setup_only:
        return 0
    if args.trace:
        tally, metrics = traced(args.workload, args.seed, s, tracer)
    else:
        tally, metrics = end_to_end(args.workload, args.seed, args.seconds, s)
    for line in tally.failures[:10]:
        print(f"# FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
