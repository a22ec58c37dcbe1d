"""Command-line front end.

Subcommands: compute, expand, star, qt-elem, verify, list-graphs.
Exit codes: 0 success, 1 identity failure, 2 usage or precondition error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import re
import sys

from .qt import QTError, specialize_q1, limit_q_infinity
from .xring import XPoly, XError
from .hecke import HeckeError
from .symfn import (SymFnError, e_poly, expand_in_e, _check_faithful,
                    _check_partition)
from .graphs import (GraphError, check_eseq, aseq_to_eseq, hseq_to_eseq,
                     eseq_to_aseq, eseq_to_hseq, graph_from_eseq, enumerate_eseqs)
from .qtcsf import qt_csf, c_lambda
from .qmapstar import QMapError, star, qt_elementary
from .suites import SUITES


class _UsageError(ValueError):
    """A command-line value outside the range its command accepts."""


_INT = re.compile(r"-?[0-9]+")


def _int(text):
    """The argparse type of the integer flags: digits as _ints reads them."""
    if not _INT.fullmatch(text):
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    return int(text)


def _ints(raw, error, noun):
    """The integers of the comma-separated list raw; otherwise the error
    class given, naming the noun."""
    items = raw.split(",")
    if not all(_INT.fullmatch(x) for x in items):
        raise error("cannot parse %s %r" % (noun, raw))
    return tuple(map(int, items))


def _parse_seq(args):
    given = [name for name in ("eseq", "aseq", "hess") if getattr(args, name)]
    if len(given) != 1:
        raise GraphError("give exactly one of --eseq, --aseq, --hess")
    seq = _ints(getattr(args, given[0]), GraphError, "sequence")
    if given[0] == "aseq":
        return aseq_to_eseq(seq)
    if given[0] == "hess":
        return hseq_to_eseq(seq)
    return check_eseq(seq)


_ELIT_TERM = re.compile(r"^(?:(-?[0-9]+)\*)?e\[([0-9,]*)\]$")


def parse_symfn(text, m):
    """Parse a symmetric-function literal like "e[2,1] + 3*e[1,1,1]".

    Each term e[lam] needs m >= |lam| variables, so that a literal is zero
    only when it names the zero function.
    """
    s = text.replace(" ", "")
    if not s:
        raise XError("empty symmetric-function literal")
    s = s.replace("-", "+-")
    out = XPoly(m)
    for chunk in s.split("+"):
        if not chunk:
            continue
        neg = chunk.startswith("-") and not _ELIT_TERM.match(chunk)
        if neg:
            chunk = chunk[1:]
        mt = _ELIT_TERM.match(chunk)
        if not mt:
            raise XError("cannot parse term %r in %r" % (chunk, text))
        coef = int(mt.group(1)) if mt.group(1) else 1
        if neg:
            coef = -coef
        lam = _ints(mt.group(2), SymFnError, "partition") if mt.group(2) else ()
        _check_partition(lam)
        _check_faithful(sum(lam), m)
        out = out + e_poly(lam, m) * coef
    return out


def _specialize(f, args):
    if getattr(args, "q1", False):
        return XPoly(f.m, {e: specialize_q1(c) for e, c in f.terms.items()})
    if getattr(args, "qinf", False):
        return XPoly(f.m, {e: limit_q_infinity(c) for e, c in f.terms.items()})
    return f


def _emit_eexp(exp, args):
    if args.format == "json":
        print(json.dumps(exp.to_json()))
    else:
        print(exp)


def _emit_poly(f, args, degree):
    """Print f, a symmetric function of the given degree, in args.basis.

    The e-basis needs m >= degree; expand_in_e checks that only on a
    nonzero f, so a result that vanishes for lack of variables is
    rejected here.
    """
    if args.basis == "e":
        _check_faithful(degree, f.m)
        _emit_eexp(expand_in_e(f), args)
    else:
        if args.format == "json":
            print(json.dumps(f.to_json()))
        else:
            print(f)


def cmd_compute(args):
    eseq = _parse_seq(args)
    f = _specialize(qt_csf(eseq, args.m), args)
    _emit_poly(f, args, len(eseq))
    return 0


def cmd_expand(args):
    _emit_eexp(c_lambda(_parse_seq(args)), args)
    return 0


def cmd_star(args):
    f = parse_symfn(args.f, args.m)
    g = parse_symfn(args.g, args.m)
    h = star(f, g)
    # a zero input is the zero function (parse_symfn), and so is h
    _emit_poly(h, args, (f.degree() or 0) + (g.degree() or 0))
    return 0


def cmd_qt_elem(args):
    lam = _ints(args.partition, SymFnError, "partition")
    _check_partition(lam)
    f = qt_elementary(lam, args.m)
    _emit_poly(f, args, sum(lam))
    return 0


# The flags of verify; each suite takes those its signature names.
_VERIFY_FLAGS = ("n", "m", "r", "count", "seed")


def cmd_verify(args):
    fn = SUITES[args.suite]
    taken = inspect.signature(fn).parameters
    given = {}
    for flag in _VERIFY_FLAGS:
        value = getattr(args, flag)
        if value is None:
            continue
        if flag not in taken:
            raise _UsageError("verify %s takes no --%s" % (args.suite, flag))
        given[flag] = value
    report = fn(**given)
    if not report.cases:
        raise _UsageError("verify %s runs no case with %s" % (
            args.suite, " ".join("--%s %d" % kv for kv in given.items())))
    if args.format == "json":
        print(json.dumps(report.to_json()))
    else:
        print(report.render())
    return 0 if report.ok else 1


def cmd_list_graphs(args):
    rows = []
    for e in enumerate_eseqs(args.n):
        g = graph_from_eseq(e)
        rows.append({
            "eseq": list(e),
            "aseq": list(eseq_to_aseq(e)),
            "hess": list(eseq_to_hseq(e)),
            "edges": [list(x) for x in sorted(g.edges)],
        })
    if args.format == "json":
        print(json.dumps(rows))
    else:
        for row in rows:
            print("e=%s a=%s h=%s edges=%s" % (
                ",".join(map(str, row["eseq"])),
                ",".join(map(str, row["aseq"])),
                ",".join(map(str, row["hess"])),
                " ".join("%d->%d" % (v, w) for v, w in row["edges"]) or "-"))
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="qtcsf",
                                description="Exact two-parameter chromatic "
                                            "symmetric function calculator")
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    def add_seq_flags(sp):
        sp.add_argument("--eseq")
        sp.add_argument("--aseq")
        sp.add_argument("--hess")

    sp = sub.add_parser("compute", help="compute the polynomial for a graph")
    add_seq_flags(sp)
    sp.add_argument("--m", type=_int, required=True)
    sp.add_argument("--basis", choices=("monomial", "e"), default="monomial")
    spec = sp.add_mutually_exclusive_group()
    spec.add_argument("--q1", action="store_true", help="specialize q=1")
    spec.add_argument("--qinf", action="store_true", help="take the q->infinity limit")
    sp.set_defaults(func=cmd_compute)

    sp = sub.add_parser("expand", help="e-expansion of the coloring sum")
    add_seq_flags(sp)
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser("star", help="quantum product of two literals")
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--m", type=_int, required=True)
    sp.add_argument("--basis", choices=("monomial", "e"), default="e")
    sp.set_defaults(func=cmd_star)

    sp = sub.add_parser("qt-elem", help="iterated quantum elementary product")
    sp.add_argument("--partition", required=True)
    sp.add_argument("--m", type=_int, required=True)
    sp.add_argument("--basis", choices=("monomial", "e"), default="e")
    sp.set_defaults(func=cmd_qt_elem)

    sp = sub.add_parser("verify", help="run an identity suite")
    sp.add_argument("suite", choices=sorted(SUITES))
    for flag in _VERIFY_FLAGS:
        sp.add_argument("--" + flag, type=_int)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("list-graphs", help="enumerate graph encodings")
    sp.add_argument("--n", type=_int, required=True)
    sp.set_defaults(func=cmd_list_graphs)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, XError, HeckeError, SymFnError, QMapError, QTError,
            _UsageError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
