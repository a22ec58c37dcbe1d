"""Smoke tests for the verification suites and their reports."""

import collections
import json

import pytest

from qtchroma import suites
from qtchroma.qt import qt_monomial
from qtchroma.xring import XPoly
from qtchroma.symfn import EExpansion
from qtchroma.suites import (SUITES, VerifyReport, suite_relations,
                             suite_modular, suite_stability, suite_dist,
                             suite_qmap)


def test_suite_registry():
    assert set(SUITES) == {"relations", "modular", "stability", "symmetry",
                           "integrality", "q1", "qinf", "dist", "pieri",
                           "mult", "qmap"}


def test_report_shape():
    rep = suite_dist(n=2)
    assert isinstance(rep, VerifyReport)
    assert rep.ok
    assert rep.cases == 3  # one sequence of length 1, two of length 2
    obj = rep.to_json()
    assert obj["suite"] == "dist"
    assert obj["failures"] == []
    assert "0 failures" in rep.render()
    json.dumps(obj)  # must be serializable as-is


def test_report_failure_rendering():
    rep = VerifyReport("demo", 2, [("case-1", "1", "0")], 0.5)
    assert not rep.ok
    text = rep.render()
    assert "1 failures" in text
    assert "case-1" in text
    assert "expected: 1" in text


def test_relations_reproducible():
    a = suite_relations(m=2, deg_max=2, count=4, seed=7)
    b = suite_relations(m=2, deg_max=2, count=4, seed=7)
    assert a.ok and b.ok
    assert a.cases == b.cases


def test_modular_suite_small():
    rep = suite_modular(n=3, m=4)
    assert rep.ok
    assert rep.cases == 4  # two triples, two computation paths each


def test_stability_suite_small():
    rep = suite_stability(n=3, m=4)
    assert rep.ok
    assert rep.cases == 10  # five graphs, truncations to m' = 2 and 3


def test_qmap_suite_small():
    rep = suite_qmap(r=2, m=4)
    assert rep.ok


def test_qmap_round_trips_honour_r_and_m():
    # graphs with n <= min(4, r, m), each at m' = max(n, 2)
    rep = suite_qmap(r=2, m=3)
    assert rep.ok
    assert rep.cases == 7   # e_1, e_2 at m = 2, 3; (0,) and two n = 2 at 2
    assert [case for case, _bad in suite_qmap.__wrapped__(r=2, m=3)
            if case.startswith("round trip")] == [
        "round trip (0,) m=2", "round trip (0, 0) m=2", "round trip (0, 1) m=2"]
    assert suite_qmap(r=5, m=1).cases == 0


def test_qmap_suite_checks_the_y_operator_chain(monkeypatch):
    # each e_r case must reach e_r(Y) . 1 through the Y operators as well as
    # through q_map_e, so a broken operator route fails every e_r case
    monkeypatch.setattr(suites, "apply_e_r_Y", lambda r, g: XPoly.zero(g.m))
    rep = suite_qmap(r=2, m=4)
    assert [case for case, _e, _a in rep.failures] == [
        "e_1 m=2", "e_2 m=2", "e_1 m=3", "e_2 m=3", "e_1 m=4", "e_2 m=4"]


def test_equality_checks_report_rhs_as_expected_and_lhs_as_actual(monkeypatch):
    # the suites' equality cases share one route: a failure renders the
    # right-hand side as "expected" and the left-hand side as "actual"
    from qtchroma.qtcsf import qt_csf
    from qtchroma.graphs import concat
    monkeypatch.setattr(suites, "star", lambda f, g: XPoly.zero(f.m))
    rep = suites.suite_mult(n=2)
    assert rep.failures == [("(0,) + (0,) m=2", "0",
                             str(qt_csf(concat((0,), (0,)), 2)))]


# The (expected, actual) of every failure of the symmetry and integrality
# mutants above: the actual names the offending term.
WITNESSES = {
    "symmetry": ("symmetric", "the term X1 differs from a transposed partner"),
    "integrality": ("no positive power of q",
                    "the term q*X1 has a positive power of q"),
}


# For each suite: small sizes, the name in the suites namespace that its
# cases read, and a wrong stand-in built from the real function.
MUTANTS = {
    "relations": ({"m": 3, "deg_max": 1, "count": 2}, "apply_T",
                  lambda real: lambda i, f: f),
    "modular": ({"n": 3, "m": 3}, "qt_csf",
                lambda real: lambda e, m: real(e, m) * qt_monomial(1, 0, sum(e))),
    "stability": ({"n": 2, "m": 3}, "qt_csf",
                  lambda real: lambda e, m: real(e, m) * qt_monomial(1, 0, m)),
    "symmetry": ({"n": 2, "m": 2}, "qt_csf",
                 lambda real: lambda e, m: XPoly(m, {(1,) + (0,) * (m - 1): 1})),
    "integrality": ({"n": 2, "m": 2}, "qt_csf",
                    lambda real: lambda e, m: XPoly(m, {(1,) + (0,) * (m - 1):
                                                        qt_monomial(1, 1, 0)})),
    "q1": ({"n": 2, "m": 2}, "c_lambda",
           lambda real: lambda e: EExpansion(len(e), {lam: c * qt_monomial(1, 0, 1)
                                                      for lam, c in real(e).coeffs.items()})),
    "qinf": ({"n": 2}, "qt_csf",
             lambda real: lambda e, m: real(e, m) * qt_monomial(1, 1, 0)),
    "dist": ({"n": 2}, "t_factorial",
             lambda real: lambda n: real(n) * qt_monomial(1, 0, 1)),
    "pieri": ({"r": 1}, "apply_pi", lambda real: lambda f: f),
    "mult": ({"n": 2}, "star", lambda real: lambda f, g: XPoly.zero(f.m)),
    "qmap": ({"r": 2, "m": 3}, "c_lambda",
             lambda real: lambda e: EExpansion(len(e), {})),
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_reports_a_wrong_answer(monkeypatch, name):
    sizes, attr, wrong = MUTANTS[name]
    cases = SUITES[name](**sizes).cases
    monkeypatch.setattr(suites, attr, wrong(getattr(suites, attr)))
    rep = SUITES[name](**sizes)
    assert rep.failures
    assert rep.cases == cases
    # a case shows the two values or the offending term, not a bare verdict
    assert all((e, a) != ("identity holds", "identity fails")
               for _c, e, a in rep.failures)
    if name in WITNESSES:
        assert {(e, a) for _c, e, a in rep.failures} == {WITNESSES[name]}


@pytest.mark.parametrize("attr, wrong, half", [
    ("qt_csf", MUTANTS["modular"][2], "operator "),
    ("chromatic_qsf",
     lambda real: lambda g, m: real(g, m) * qt_monomial(1, 0, len(g.edges)),
     "coloring "),
])
def test_modular_mutant_fails_only_its_own_half(monkeypatch, attr, wrong, half):
    sizes = MUTANTS["modular"][0]
    cases = suite_modular(**sizes).cases
    monkeypatch.setattr(suites, attr, wrong(getattr(suites, attr)))
    rep = suite_modular(**sizes)
    assert rep.failures
    assert rep.cases == cases
    assert all(case.startswith(half) for case, _e, _a in rep.failures)


def test_modular_suite_computes_each_graph_once(monkeypatch):
    calls = collections.Counter()
    for name in ("qt_csf", "chromatic_qsf"):
        def counted(*args, real=getattr(suites, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(suites, name, counted)
    rep = suite_modular(n=5, m=5)
    assert rep.ok and rep.cases == 108
    # the 54 triples with 3 <= n <= 5 read 58 distinct graphs
    assert calls == {"qt_csf": 58, "chromatic_qsf": 58}


def test_q1_failure_shows_both_e_expansions(monkeypatch):
    # the oracle is the twisted coloring sum c_lambda: a wrong one shows
    # as the expected e-expansion, next to the operator side as actual
    from qtchroma.symfn import apply_N
    wrong = EExpansion(2, {(1, 1): qt_monomial(1, 0, 0)})
    monkeypatch.setattr(suites, "c_lambda", lambda e: wrong)
    rep = suites.suite_q1(n=2, m=2)
    assert [case for case, _e, _a in rep.failures] == ["(0, 0) m=2"]
    case, expected, actual = rep.failures[0]
    assert expected == str(apply_N(wrong)) == "e[1,1]"
    assert actual == "(t+t^2)*e[2]"
    assert "expected: e[1,1]" in rep.render()
