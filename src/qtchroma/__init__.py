"""Exact computation of two-parameter chromatic symmetric functions of
unit interval graphs through an affine Hecke algebra action."""

from .qt import (QTError, QTCoeff, from_int, qt_monomial, t_int, t_factorial,
                 specialize_q1, limit_q_infinity, ZERO, ONE)
from .xring import (XError, XPoly, truncate, is_symmetric, assert_integral,
                    render_xpoly)
from .hecke import (HeckeError, apply_T, apply_T_inv, apply_pi, apply_pi_inv,
                    apply_Y)
from .symfn import (SymFnError, partitions_of, conjugate, e_poly, e_range,
                    expand_in_e, EExpansion, apply_N, e_stat)
from .graphs import (GraphError, OrientedGraph, check_eseq, eseq_to_aseq,
                     aseq_to_eseq, eseq_to_hseq, hseq_to_eseq,
                     graph_from_eseq, concat, enumerate_eseqs, modular_triples,
                     chromatic_qsf, complete_eseq, eseq_of_partition,
                     eseq_weight)
from .qtcsf import apply_hatS, qt_csf, c_lambda
from .qmapstar import (QMapError, q_map, q_map_e, q_map_inv_sym, star,
                       qt_elementary, apply_e_r_Y)
from .suites import SUITES, VerifyReport

__version__ = "0.1.0"
