"""End-to-end tests for the command-line interface."""

import json

import pytest

from qtchroma.cli import main, parse_symfn
from qtchroma.qmapstar import star, qt_elementary
from qtchroma.qt import qt_monomial, from_int
from qtchroma.xring import XPoly
from qtchroma.symfn import EExpansion, SymFnError, e_poly


# `qtcsf expand` of the roadmap graph (0,0,0,1,2,3,4,5)
ROADMAP_EXPANSION = (
    "(t^6+t^7)*e[3,3,2] + "
    "(4*t^5+11*t^6+11*t^7+4*t^8)*e[4,3,1] + "
    "(t^3+7*t^4+17*t^5+23*t^6+23*t^7+17*t^8+7*t^9+t^10)*e[4,4] + "
    "(3*t^5+6*t^6+6*t^7+3*t^8)*e[5,2,1] + "
    "(2*t^3+12*t^4+30*t^5+45*t^6+45*t^7+30*t^8+12*t^9+2*t^10)*e[5,3] + "
    "(3*t^4+6*t^5+6*t^6+6*t^7+6*t^8+3*t^9)*e[6,1,1] + "
    "(4*t^3+17*t^4+35*t^5+48*t^6+48*t^7+35*t^8+17*t^9+4*t^10)*e[6,2] + "
    "(5*t^2+22*t^3+44*t^4+58*t^5+63*t^6+63*t^7+58*t^8+44*t^9+22*t^10+5*t^11)*e[7,1] + "
    "(1+7*t+22*t^2+42*t^3+57*t^4+63*t^5+64*t^6+64*t^7+63*t^8+57*t^9+42*t^10+22*t^11+7*t^12+t^13)*e[8]")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def usage_error(capsys, *argv):
    """Run argv, check it exits 2 with empty stdout and one `error:` line
    on stderr, and return that line."""
    code, out, err = run(capsys, *argv)
    assert code == 2, argv
    assert out == "", argv
    assert err.startswith("error: ") and "\n" not in err, argv
    return err


def test_compute_monomial_text(capsys):
    code, out, _ = run(capsys, "compute", "--eseq", "0", "--m", "2")
    assert code == 0
    assert out == "X1 + X2"


def test_compute_e_basis_q1(capsys):
    code, out, _ = run(capsys, "compute", "--eseq", "0,0,1", "--m", "3",
                       "--basis", "e", "--q1")
    assert code == 0
    assert out == "t^2*e[2,1] + (t^3+t^4+t^5)*e[3]"


def test_compute_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "compute",
                       "--eseq", "0", "--m", "2")
    assert code == 0
    assert json.loads(out) == XPoly(2, {(1, 0): 1, (0, 1): 1}).to_json()


def test_compute_e_basis_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "compute", "--eseq", "0,0",
                       "--m", "2", "--basis", "e")
    assert code == 0
    t = qt_monomial(1, 0, 1)
    assert json.loads(out) == EExpansion(2, {(2,): t + t * t}).to_json()


def test_compute_accepts_other_encodings(capsys):
    _, via_e, _ = run(capsys, "compute", "--eseq", "0,0,1", "--m", "2")
    _, via_a, _ = run(capsys, "compute", "--aseq", "0,1,1", "--m", "2")
    _, via_h, _ = run(capsys, "compute", "--hess", "2,3,3", "--m", "2")
    assert via_e == via_a == via_h


def test_compute_requires_exactly_one_encoding(capsys):
    assert "exactly one" in usage_error(capsys, "compute", "--m", "2")
    usage_error(capsys, "compute", "--eseq", "0", "--aseq", "0", "--m", "2")


def test_compute_q1_and_qinf_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--eseq", "0,0,1", "--m", "3", "--q1", "--qinf"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_compute_rejects_bad_sequence(capsys):
    assert "eseq invalid" in usage_error(capsys, "compute", "--eseq", "0,2",
                                         "--m", "2")
    usage_error(capsys, "compute", "--eseq", "zero", "--m", "2")


def test_hecke_error_exits_2(capsys, monkeypatch):
    import qtchroma.cli as cli
    from qtchroma.hecke import HeckeError

    def boom(eseq, m):
        raise HeckeError("Y index 0 out of range 1..2")
    monkeypatch.setattr(cli, "qt_csf", boom)
    code, out, err = run(capsys, "compute", "--eseq", "0", "--m", "2")
    assert code == 2
    assert out == ""
    assert err == "error: Y index 0 out of range 1..2"


def test_expand_matches_compute_at_q1(capsys):
    # the coloring-based expansion agrees with the operator pipeline at q=1
    # up to the coefficient rescaling (checked elsewhere); here we just
    # check the oracle output itself
    code, out, _ = run(capsys, "expand", "--eseq", "0,0")
    assert code == 0
    assert out == "(1+t)*e[2]"


def test_star_cli(capsys):
    code, out, _ = run(capsys, "star", "--f", "e[1]", "--g", "e[1]",
                       "--m", "4")
    assert code == 0
    assert "e[2]" in out and "e[1,1]" in out


def test_star_cli_rejects_too_few_variables(capsys):
    for m in ("0", "-2"):
        usage_error(capsys, "star", "--f", "e[1]", "--g", "e[1]", "--m", m)


def test_star_cli_rejects_inhomogeneous_g(capsys):
    usage_error(capsys, "star", "--f", "e[1]", "--g", "e[1]+e[2]", "--m", "6",
                "--basis", "monomial")


# Malformed values for every subcommand.  main catches each library error,
# so an uncaught exception fails the test with its traceback.
BAD_INPUT = [
    ("compute", "--eseq", "0,,1", "--m", "2"),
    ("compute", "--aseq", "0,x", "--m", "2"),
    ("compute", "--hess", ",", "--m", "2"),
    ("expand", "--eseq", "1"),
    ("star", "--f", "e[1,]", "--g", "e[1]", "--m", "2"),
    ("star", "--f", "e[,]", "--g", "e[1]", "--m", "2"),
    ("star", "--f", "e[1]", "--g", "e[1,,2]", "--m", "4"),
    ("star", "--f", "e[1]", "--g", "e[2,1]", "--m", "2"),
    ("qt-elem", "--partition", "2,,1", "--m", "3"),
    ("qt-elem", "--partition", "0", "--m", "3"),
    ("verify", "q1", "--n", "3", "--m", "2"),
    ("list-graphs", "--n", "0"),
]


def test_bad_input_exits_2_with_one_error_line(capsys):
    for argv in BAD_INPUT:
        usage_error(capsys, *argv)


def test_star_cli_non_triangular_transport_exits_2(capsys, monkeypatch):
    from qtchroma import qmapstar
    monkeypatch.setattr(qmapstar, "_e_image",
                        lambda lam: {(1,) * sum(lam): from_int(1)})
    qmapstar._column.cache_clear()
    try:
        code, out, err = run(capsys, "star", "--f", "e[1]", "--g", "e[2]",
                             "--m", "6")
    finally:
        qmapstar._column.cache_clear()
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "not triangular" in err


def test_transport_cli_needs_m_at_least_the_degree(capsys):
    # each input literal needs m >= its degree, and an e-basis answer
    # m >= the result's degree, even when the polynomial is zero
    msg = "need at least %d variables for a faithful degree-%d e-expansion, got m=%d"
    for argv, bound in [(("qt-elem", "--partition", "3", "--m", "2"), (3, 3, 2)),
                        (("qt-elem", "--partition", "2,1", "--m", "2"), (3, 3, 2)),
                        (("star", "--f", "e[1]", "--g", "e[2]", "--m", "2"), (3, 3, 2)),
                        (("star", "--f", "e[2]", "--g", "e[1]", "--m", "1",
                          "--basis", "monomial"), (2, 2, 1))]:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err == "error: " + msg % bound
    for m, argv in (("0", ("qt-elem", "--partition", "1")),
                    ("-3", ("qt-elem", "--partition", "1", "--basis", "monomial")),
                    ("0", ("star", "--f", "e[1]", "--g", "e[1]"))):
        code, out, err = run(capsys, *argv, "--m", m)
        assert code == 2, argv
        assert out == ""
        assert err == "error: need at least one variable, got m=" + m


def test_transport_cli_below_twice_the_degree(capsys):
    # the monomial basis needs only m >= each input's degree
    code, out, _ = run(capsys, "--format", "json", "star", "--f", "e[1]",
                       "--g", "e[2]", "--m", "2", "--basis", "monomial")
    assert code == 0
    want = star(e_poly((1,), 2), e_poly((2,), 2))
    assert json.loads(out) == want.to_json()
    code, out, _ = run(capsys, "--format", "json", "qt-elem", "--partition",
                       "2,1", "--m", "2", "--basis", "monomial")
    assert code == 0
    assert json.loads(out) == qt_elementary((2, 1), 2).to_json()
    # the README examples, at m = the result's degree
    code, out, _ = run(capsys, "star", "--f", "e[1]", "--g", "e[2]", "--m", "3")
    assert code == 0
    assert out == run(capsys, "star", "--f", "e[1]", "--g", "e[2]", "--m", "6")[1]
    code, out, _ = run(capsys, "qt-elem", "--partition", "2,1", "--m", "3")
    assert code == 0
    assert out == run(capsys, "qt-elem", "--partition", "2,1", "--m", "6")[1]


def test_qt_elem_cli(capsys):
    code, out, _ = run(capsys, "qt-elem", "--partition", "2", "--m", "4",
                       "--basis", "e")
    assert code == 0
    assert out == "e[2]"
    code, _, err = run(capsys, "qt-elem", "--partition", "1,2", "--m", "6")
    assert code == 2 and "weakly decreasing" in err
    code, _, err = run(capsys, "qt-elem", "--partition", "2,0", "--m", "6")
    assert code == 2 and "positive" in err


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "dist", "--n", "3")
    assert code == 0
    assert "0 failures" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "pieri", "--r", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["suite"] == "pieri"
    assert rep["failures"] == []
    assert rep["cases"] == 3


def test_verify_relations_small(capsys):
    code, out, _ = run(capsys, "verify", "relations", "--m", "3",
                       "--count", "3")
    assert code == 0
    assert "0 failures" in out


def test_seed_is_a_flag_of_verify(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "relations",
                       "--seed", "1", "--count", "1")
    assert code == 0
    assert json.loads(out)["cases"] > 0
    code, out, err = run(capsys, "verify", "dist", "--seed", "1")
    assert (code, out) == (2, "")
    assert err == "error: verify dist takes no --seed"
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "1", "compute", "--eseq", "0", "--m", "2"])
    assert exc.value.code == 2


def test_list_graphs(capsys):
    code, out, _ = run(capsys, "--format", "json", "list-graphs", "--n", "3")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 5
    assert {"eseq": [0, 0, 0], "aseq": [0, 1, 2], "hess": [3, 3, 3],
            "edges": [[1, 2], [1, 3], [2, 3]]} in rows


def test_list_graphs_text(capsys):
    code, out, _ = run(capsys, "list-graphs", "--n", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert any("edges=1->2" in ln for ln in lines)


# -- literal parsing ---------------------------------------------------------

def test_parse_symfn():
    assert parse_symfn("e[2,1]", 3) == e_poly((2, 1), 3)
    assert parse_symfn("2*e[1] - e[1]", 3) == e_poly((1,), 3)
    assert parse_symfn("e[]", 3) == XPoly.one(3)
    assert parse_symfn("-3*e[2]", 3) == e_poly((2,), 3) * (-3)


def test_parse_symfn_errors():
    from qtchroma.xring import XError
    with pytest.raises(XError):
        parse_symfn("", 3)
    with pytest.raises(SymFnError, match="weakly decreasing"):
        parse_symfn("e[1,2]", 3)
    with pytest.raises(XError):
        parse_symfn("x[1]", 3)
    with pytest.raises(SymFnError, match="positive"):
        parse_symfn("e[0]", 3)
    for text in ("e[1,]", "e[,]", "e[1,,2]"):
        with pytest.raises(SymFnError, match="cannot parse partition"):
            parse_symfn(text, 3)


def test_render_eexp_order(capsys):
    # the text form lists partitions in ascending lexicographic order,
    # and is the one EExpansion prints
    t = qt_monomial(1, 0, 1)
    exp = EExpansion(3, {(3,): t, (2, 1): from_int(1)})
    assert str(exp) == "e[2,1] + t*e[3]"
    assert str(EExpansion(0, {})) == "0"
    code, out, _ = run(capsys, "expand", "--eseq", "0,0,1")
    assert (code, out) == (0, "t*e[2,1] + (1+t+t^2)*e[3]")


def test_expand_reaches_eight_vertices(capsys):
    # the roadmap graph; its q = 1 cross-check against the pipeline is in
    # tests/test_qtcsf.py
    code, out, _ = run(capsys, "expand", "--eseq", "0,0,0,1,2,3,4,5")
    assert code == 0
    assert out == ROADMAP_EXPANSION


# -- e-basis faithfulness and verify sizes -----------------------------------

def test_e_basis_needs_as_many_variables_as_vertices(capsys):
    # K_3 in two variables is the zero polynomial, whose e-expansion "0"
    # would not be faithful
    msg = "need at least 3 variables for a faithful degree-3 e-expansion, got m=2"
    for argv in (("compute", "--eseq", "0,0,0", "--m", "2", "--basis", "e"),
                 ("compute", "--eseq", "0,1,1", "--m", "2", "--basis", "e"),
                 ("compute", "--eseq", "0,0,0", "--m", "2", "--basis", "e",
                  "--q1")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err == "error: " + msg
    # the monomial basis has no such limit
    code, out, _ = run(capsys, "compute", "--eseq", "0,0,0", "--m", "2")
    assert (code, out) == (0, "0")


def test_verify_rejects_sizes_that_run_no_case(capsys):
    for argv in [("dist", "--n", "-1"), ("dist", "--n", "0"),
                 ("pieri", "--r", "-2"), ("relations", "--count", "-5"),
                 ("stability", "--m", "-1"), ("mult", "--n", "1"),
                 ("relations", "--m", "3", "--count", "0")]:
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2, argv
        assert out == ""
        assert err == "error: verify %s runs no case with %s" % (
            argv[0], " ".join(argv[1:]))


def test_verify_rejects_flags_its_suite_does_not_take(capsys):
    for argv, flag in [(("dist", "--m", "3", "--r", "7"), "m"),
                       (("dist", "--r", "7"), "r"),
                       (("pieri", "--n", "2"), "n"),
                       (("q1", "--count", "1"), "count"),
                       (("relations", "--n", "3"), "n")]:
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2, argv
        assert out == ""
        assert err == "error: verify %s takes no --%s" % (argv[0], flag)


def test_expand_zero_variables_is_not_the_default(capsys):
    # the e-coordinates of the coloring sum do not depend on m, so expand
    # takes no --m: any value, 0 included, is a usage error
    for m in ("0", "2"):
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--eseq", "0,0", "--m", m])
        assert exc.value.code == 2
    assert "unrecognized arguments: --m" in capsys.readouterr().err


def test_verify_zero_is_a_size_not_the_default(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "pieri", "--r", "0")
    assert code == 0
    assert json.loads(out)["cases"] == 1          # r = 0 only, not r = 0..5


# The least value of each size flag at which its suite runs a case, with
# the other flags at their least.  One below (the other flags at their
# defaults) the suite runs no case or raises, and verify exits 2.
LEAST = {
    "relations": {"m": 2, "count": 1},
    "modular": {"n": 3, "m": 2},
    "stability": {"n": 1, "m": 3},
    "symmetry": {"n": 1, "m": 2},
    "integrality": {"n": 1, "m": 2},
    "q1": {"n": 1, "m": 2},
    "qinf": {"n": 1, "m": 2},
    "dist": {"n": 1},
    "pieri": {"r": 0},
    "mult": {"n": 2, "m": 2},
    "qmap": {"r": 1, "m": 2},
}


@pytest.mark.parametrize("suite", sorted(LEAST))
def test_verify_sizes_at_and_below_their_minimum(capsys, suite):
    sizes = LEAST[suite]
    argv = ["--format", "json", "verify", suite]
    for flag, least in sizes.items():
        argv += ["--" + flag, str(least)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["cases"] >= 1
    for flag, least in sizes.items():
        usage_error(capsys, "verify", suite, "--" + flag, str(least - 1))
