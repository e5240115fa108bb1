"""Tests of the benchmark itself: its oracles, its generator and a tiny run.

    python3 -m pytest perfbench -q
"""

import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts the checkout's src/ on sys.path)
from goals import (  # noqa: E402
    ORACLES, axioms_of, ground_holds, parse_goal, render_goal,
)
import hostspeed  # noqa: E402
from layers import NullTracer  # noqa: E402
from workloads import README_GOALS, WORKLOADS, queries, theory_texts  # noqa: E402

from ualg.selftest import GOAL_LIST  # noqa: E402


def test_oracles_agree_with_goal_list():
    for key, text, expect in GOAL_LIST:
        assert ORACLES[key](parse_goal(text)) is expect, text


def test_oracles_agree_with_readme_answers():
    for goal in README_GOALS:
        oracle = ORACLES.get(goal.theory)
        if oracle is not None:
            assert oracle(parse_goal(goal.text)) is (goal.expected == "proved")


def test_parse_and_render_round_trip():
    text = "star(o(a,b),o(c,d)) ~ o(star(a,c),star(b,d)) ctx [ a:M b:M c:M d:M ]"
    g = parse_goal(text)
    assert render_goal(g.lhs, g.rhs, g.ctx) == text
    assert parse_goal("mul(e,e) ~ e ctx [ ]").lhs == ("mul", ("e",), ("e",))


def test_ground_evaluator_on_projection_model():
    tables = {"f": ((2, 2), (0, 0, 1, 1))}  # f(x, y) = x on {0, 1}
    carriers = {"A": 2}
    axioms = axioms_of(theory_texts()["projection"])
    assert axioms and all(ground_holds(carriers, tables, ax) for ax in axioms)
    assert not ground_holds(carriers, tables,
                            parse_goal("f(x,y) ~ f(y,x) ctx [ x:A y:A ]"))
    assert ground_holds(carriers, tables,
                        parse_goal("f(f(x,y),y) ~ x ctx [ x:A y:A ]"))


def test_generator_is_deterministic_with_a_fixed_mix():
    for workload in WORKLOADS:
        assert queries(workload, 3) == queries(workload, 3)
        assert queries(workload, 3) != queries(workload, 4)
        mix = [Counter(g.stratum for q in queries(workload, seed)
                       for g in q.goals) for seed in (3, 4)]
        assert mix[0] == mix[1]


def test_tiny_decide_run_has_no_failures():
    s = run.setup("decide", 5, NullTracer())
    # The README goals plus 20 others, leaving out the deep true projection
    # goal, whose exhaustive size-3 search takes seconds.
    readme = [q for q in s.queries if q.goals[0].stratum == "readme"]
    others = [q for q in s.queries if q.goals[0].stratum
              not in ("readme", "projection:deep:True")]
    s.queries = readme + others[:20]
    tally = run.Tally()
    run.run_pass("decide", s, NullTracer(), tally)
    assert tally.attempted == len(s.queries)
    assert tally.failed == 0, tally.failures
    assert tally.decided > 0


def test_host_speed_factor_uses_the_probes_around_an_interval(monkeypatch):
    monkeypatch.setattr(hostspeed, "MIN_PROBES", 3)
    ref = hostspeed.REFERENCE_PROBE_S
    host = hostspeed.HostSpeed()
    host.times = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
    host.durations = [ref, ref, ref, 2 * ref, 2 * ref, 2 * ref]
    host.durations[4] = ref
    assert host.factor(10.5, 11.5) == 2 / 3  # probes at 10, 11 and 12
    assert host.factor(1.0, 1.0) == 1.0  # widened from one probe to three
    assert host.adjust(10.5, 11.5, 3.0) == 2.0


def test_host_speed_probes_during_a_long_call():
    with hostspeed.HostSpeed() as host:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(host.durations) >= 3
    assert 0 < host.spent < 0.3
