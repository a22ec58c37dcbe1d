"""Tests for graph encodings, triples, and the coloring oracle."""

import itertools

import pytest

from qtchroma.qt import ONE, qt_monomial, t_int, t_factorial
from qtchroma.xring import XPoly, is_symmetric
from qtchroma.symfn import expand_in_e, EExpansion, e_poly
from qtchroma.graphs import (GraphError, OrientedGraph, check_eseq,
                             eseq_to_aseq, aseq_to_eseq,
                             eseq_to_hseq, hseq_to_eseq,
                             graph_from_eseq, concat, enumerate_eseqs,
                             modular_triples, chromatic_qsf, complete_eseq,
                             eseq_of_partition, eseq_weight)

T = qt_monomial(1, 0, 1)


def test_check_eseq():
    assert check_eseq([0, 0, 1]) == (0, 0, 1)
    with pytest.raises(GraphError):
        check_eseq([])
    with pytest.raises(GraphError):
        check_eseq([1])          # e(1) must be 0
    with pytest.raises(GraphError):
        check_eseq([0, 2])       # e(2) < 2 fails... e(2)=2 not < 2
    with pytest.raises(GraphError):
        check_eseq([0, 1, 0])    # not weakly increasing


def test_check_aseq():
    assert aseq_to_eseq([0, 1, 2]) == (0, 0, 0)
    with pytest.raises(GraphError, match=r"^aseq invalid: \(0, 0, 2\) maps to"):
        aseq_to_eseq([0, 0, 2])    # jumps by more than one
    with pytest.raises(GraphError, match="^aseq invalid"):
        aseq_to_eseq([0, 2])


def test_check_hseq():
    assert hseq_to_eseq([2, 3, 3]) == (0, 0, 1)
    with pytest.raises(GraphError, match="^hseq invalid"):
        hseq_to_eseq([1, 1, 3])    # h(2) >= 2 fails
    with pytest.raises(GraphError, match="^hseq invalid"):
        hseq_to_eseq([3, 2, 3])    # not nondecreasing
    with pytest.raises(GraphError, match="^hseq invalid"):
        hseq_to_eseq([2, 3, 4])    # exceeds n


def _is_aseq(a):
    n = len(a)
    return n > 0 and all(0 <= a[i] <= i for i in range(n)) and all(
        a[i + 1] <= a[i] + 1 for i in range(n - 1))


def _is_hseq(h):
    n = len(h)
    return n > 0 and all(i + 1 <= h[i] <= n for i in range(n)) and all(
        h[i] <= h[i + 1] for i in range(n - 1))


def _accepts(convert, seq):
    try:
        convert(seq)
    except GraphError:
        return False
    return True


def test_encodings_are_checked_as_eseqs():
    # each encoding is valid exactly when its eseq is, over every tuple
    # with entries in -1..n+1 for n <= 5
    for n in range(1, 6):
        for seq in itertools.product(range(-1, n + 2), repeat=n):
            assert _accepts(aseq_to_eseq, seq) == _is_aseq(seq), seq
            assert _accepts(hseq_to_eseq, seq) == _is_hseq(seq), seq


def test_conversions_round_trip():
    for n in range(1, 6):
        for e in enumerate_eseqs(n):
            assert aseq_to_eseq(eseq_to_aseq(e)) == e
            assert hseq_to_eseq(eseq_to_hseq(e)) == e


def test_conversion_values():
    assert eseq_to_aseq((0, 0, 1)) == (0, 1, 1)
    assert eseq_to_hseq((0, 0, 1)) == (2, 3, 3)
    assert eseq_to_hseq((0,) * 4) == (4, 4, 4, 4)


def test_enumerate_counts_catalan():
    for n, c in [(1, 1), (2, 2), (3, 5), (4, 14), (5, 42)]:
        seqs = enumerate_eseqs(n)
        assert len(seqs) == c
        assert len(set(seqs)) == c
    with pytest.raises(GraphError):
        enumerate_eseqs(0)


def test_graph_edges():
    g = graph_from_eseq((0, 0, 1))   # path 1 -> 2 -> 3
    assert g.edges == frozenset({(1, 2), (2, 3)})
    k3 = graph_from_eseq((0, 0, 0))
    assert k3.edges == frozenset({(1, 2), (1, 3), (2, 3)})
    empty = graph_from_eseq((0, 1, 2))
    assert not empty.edges


def test_oriented_graph_validation():
    with pytest.raises(GraphError):
        OrientedGraph(2, [(1, 1)])
    with pytest.raises(GraphError):
        OrientedGraph(2, [(1, 3)])


def test_concat_and_weight():
    assert concat((0,), (0, 0)) == (0, 1, 1)
    assert concat((0, 0), (0,)) == (0, 0, 2)
    assert eseq_weight((0, 0, 2)) == 2
    assert complete_eseq(3) == (0, 0, 0)
    assert eseq_of_partition((2, 1)) == (0, 0, 2)
    assert eseq_of_partition((3,)) == (0, 0, 0)
    # concatenation really is disjoint union
    g = graph_from_eseq(concat((0, 0), (0,)))
    assert g.edges == frozenset({(1, 2)})


def test_modular_triples_counts_and_validity():
    assert len(modular_triples(3)) == 2
    assert len(modular_triples(4)) == 10
    assert len(modular_triples(5)) == 42
    for n in (3, 4, 5):
        for e, ep, epp, tag in modular_triples(n):
            assert tag in ("i", "ii")
            for s in (e, ep, epp):
                check_eseq(s)
            assert eseq_weight(ep) == eseq_weight(e) + 1
            assert eseq_weight(epp) == eseq_weight(e) - 1


def test_modular_triples_smallest():
    trips = modular_triples(3)
    assert ((0, 0, 1), (0, 0, 2), (0, 0, 0), "i") in trips
    assert ((0, 0, 1), (0, 1, 1), (0, 0, 0), "ii") in trips


def test_coloring_oracle_single_vertex():
    g = graph_from_eseq((0,))
    assert chromatic_qsf(g, 2) == XPoly(2, {(1, 0): 1, (0, 1): 1})


def test_coloring_oracle_edge():
    # one edge: (1+t) e_2 in however many colors
    g = graph_from_eseq((0, 0))
    for m in (2, 3):
        assert expand_in_e(chromatic_qsf(g, m)) == EExpansion(2, {(2,): ONE + T})


def test_coloring_oracle_path():
    g = graph_from_eseq((0, 0, 1))
    want = EExpansion(3, {(2, 1): T, (3,): t_int(3)})
    assert expand_in_e(chromatic_qsf(g, 3)) == want


def test_coloring_oracle_complete():
    for n in (2, 3, 4):
        g = graph_from_eseq(complete_eseq(n))
        m = n + 1
        want = e_poly((n,), m) * t_factorial(n)
        assert chromatic_qsf(g, m) == want


def test_coloring_oracle_symmetric():
    for e in enumerate_eseqs(4):
        assert is_symmetric(chromatic_qsf(graph_from_eseq(e), 4))


def test_coloring_oracle_t1_counts_colorings():
    # setting t = 1 must count proper colorings of the underlying graph
    from qtchroma.qt import specialize_q1
    g = graph_from_eseq((0, 0, 1))
    f = chromatic_qsf(g, 3)
    total = sum((c.num.terms.get((0, 0), 0) + sum(
        v for k, v in c.num.terms.items() if k != (0, 0)))
        for c in f.terms.values())
    # P(path_3, 3) = 3 * 2 * 2
    assert total == 12


def test_coloring_oracle_needs_colors():
    with pytest.raises(GraphError):
        chromatic_qsf(graph_from_eseq((0,)), 0)
