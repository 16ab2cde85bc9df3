"""Exact computation of coloured tangle invariants for quantum sl2.

The core pipeline parses coloured oriented framed tangle diagrams and
evaluates them on tensor products of the coloured modules V_m, slice by
slice, to exact Laurent polynomials, with each slice map in closed form.
Companion modules verify the desk-scale categorified computations this
invariant decategorifies: Grassmannian cohomology with its free bimodule
resolution, the nil-Hecke relations, quiver-algebra projector complexes, and
the Ext/Poincare series of the colour-2 unknot.
"""

from .qseries import (LaurentSeries, BigradedPolynomial, quantum_integer,
                      quantum_binomial, bigraded_expand_homofunknot)
from .tangle import (BoundaryPoint, Slice, ColouredDiagram, MoveKind,
                     ParseError, ValidationError, parse, serialize, validate,
                     cable, writhe_gamma, enumerate_move_sites, apply_move,
                     random_diagram, random_link)
from .intertwiner import (Intertwiner, jones_wenzl, jones_wenzl_divided,
                          charJW_check, slide_identity_checks, is_intertwiner)
from .invariant import (InvariantResult, phi_coloured, normalized_invariant,
                        link_invariant, verify_invariance)
from .grasscoh import (build_cohomology, wolffhardt_complex, nilhecke_check,
                       epsilon_idempotent)

__version__ = "0.1.0"
