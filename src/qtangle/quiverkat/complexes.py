"""Bimodule complexes realizing the categorified projectors on the small
quiver algebras, with symbolic d^2 = 0 checks and the decategorified
comparison against the rank-2 Jones-Wenzl projector.

Terms are free bimodules A(i) (x) (j)A; a differential entry is a list of
(left element, right element) pairs giving the image of the generator
(i) (x) (j), extended by a . (l (x) r) . b = (a l) (x) (r b).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..qseries import DEFAULT_PRECISION, LaurentSeries, quantum_integer
from ..intertwiner import jones_wenzl
from ..uqsl2 import basis_indices_of_weight
from .algebra import Element, GradedQuotientAlgebra, build_algebra
from . import constants as data

__all__ = [
    "BimoduleComplex", "gl2_algebra", "gl3_algebra",
    "gl2_projector_complex", "gl3_p3_complex", "gl3_p21_complex",
    "gl3_p12_complex", "p12_printed_sign_discrepancies",
    "projector_complexes", "euler_characteristic_vs_p2",
]

Pairs = list[tuple[Element, Element]]


@dataclass(frozen=True)
class BimoduleComplex:
    """terms[h] = list of (left vertex i, right vertex j, shift); the
    differential diff[h] maps term h to term h + 1 (towards zero)."""

    name: str
    A: GradedQuotientAlgebra
    terms: dict[int, list[tuple[int, int, int]]]
    diff: dict[int, dict[tuple[int, int], Pairs]]

    def verify_complex(self) -> bool:
        """All consecutive differential pairs compose to zero in A."""
        A = self.A
        for h in sorted(self.diff):
            if h + 1 not in self.diff:
                continue
            n_mid = len(self.terms[h + 1])
            n_top = len(self.terms[h + 2])
            for s in range(len(self.terms[h])):
                acc: dict[int, dict[tuple[int, int], int | Fraction]] = {
                    t2: {} for t2 in range(n_top)}
                for (s1, t1), pairs in self.diff[h].items():
                    if s1 != s:
                        continue
                    for l1, r1 in pairs:
                        for (s2, t2), pairs2 in self.diff[h + 1].items():
                            if s2 != t1:
                                continue
                            for l2, r2 in pairs2:
                                left = A.mul(l1, l2)
                                right = A.mul(r2, r1)
                                for li, lc in left.items():
                                    for ri, rc in right.items():
                                        d = acc[t2]
                                        key = (li, ri)
                                        v = d.get(key, 0) + lc * rc
                                        if v:
                                            d[key] = v
                                        elif key in d:
                                            del d[key]
                assert n_mid >= 0
                if any(acc[t2] for t2 in acc):
                    return False
        return True

    def homogeneity_report(self) -> list[str]:
        """Entries whose path degree disagrees with the printed shifts."""
        A = self.A
        out = []
        for h, entries in self.diff.items():
            for (s, t), pairs in entries.items():
                want = self.terms[h][s][2] - self.terms[h + 1][t][2]
                for l, r in pairs:
                    got = (A.degree(l) or 0) + (A.degree(r) or 0)
                    if (l or r) and got != want:
                        out.append(
                            f"{self.name}: h={h} summand {s}->{t} entry degree "
                            f"{got}, shifts force {want}")
        return out


def gl2_algebra() -> GradedQuotientAlgebra:
    return build_algebra(data.GL2_VERTICES,
                         data.edges_to_arrows(data.GL2_EDGES),
                         data.GL2_RELATIONS)


def gl3_algebra() -> GradedQuotientAlgebra:
    return build_algebra(data.GL3_VERTICES,
                         data.edges_to_arrows(data.GL3_EDGES),
                         data.GL3_RELATIONS)


def _pairs(A: GradedQuotientAlgebra, *terms) -> Pairs:
    """Each term is (sign, left path, right path)."""
    out = []
    for sign, lp, rp in terms:
        out.append((A.scale(A.path(lp), sign), A.path(rp)))
    return out


def gl2_projector_complex(n_max: int = 8) -> BimoduleComplex:
    """..., A(2)(x)(2)A<4> -> A(2)(x)(2)A<2> -> A(2)(x)(2)A."""
    A = gl2_algebra()
    terms = {-n: [(2, 2, 2 * n)] for n in range(n_max + 1)}
    diff = {}
    for n in range(1, n_max + 1):
        sign = -1 if n % 2 == 1 else 1
        diff[-n] = {(0, 0): _pairs(A, (1, (2,), (2, 1, 2)),
                                   (sign, (2, 1, 2), (2,)))}
    return BimoduleComplex("gl2 projector", A, terms, diff)


def gl3_p3_complex(n_max: int = 8) -> BimoduleComplex:
    """Terms A(3)(x)(3)A with shifts 0, 2, 6, 8, 12, 14, ..."""
    A = gl3_algebra()

    def shift(n):
        return 6 * (n // 2) + 2 * (n % 2)

    terms = {-n: [(3, 3, shift(n))] for n in range(n_max + 1)}
    diff = {}
    for n in range(1, n_max + 1):
        if n % 2 == 1:
            diff[-n] = {(0, 0): _pairs(A, (1, (3,), (3, 2, 3)),
                                       (-1, (3, 2, 3), (3,)))}
        else:
            diff[-n] = {(0, 0): _pairs(A, (1, (3,), (3, 2, 3, 2, 3)),
                                       (1, (3, 2, 3), (3, 2, 3)),
                                       (1, (3, 2, 3, 2, 3), (3,)))}
    return BimoduleComplex("gl3 p(3)", A, terms, diff)


def gl3_p21_complex(n_max: int = 8) -> BimoduleComplex:
    A = gl3_algebra()
    terms = {0: [(2, 2, 0), (3, 3, 0)], -1: [(2, 3, 1), (3, 2, 1)]}
    for n in range(2, n_max + 1):
        terms[-n] = [(2, 2, 2 * n)]
    diff = {
        -1: {
            (0, 0): _pairs(A, (1, (2,), (2, 3))),
            (0, 1): _pairs(A, (-1, (2, 3), (3,))),
            (1, 0): _pairs(A, (1, (3, 2), (2,))),
            (1, 1): _pairs(A, (-1, (3,), (3, 2))),
        },
        -2: {
            (0, 0): _pairs(A, (1, (2,), (3, 2, 3, 2)),
                           (1, (2, 3, 2), (3, 2))),
            (0, 1): _pairs(A, (-1, (2, 3), (2, 3, 2)),
                           (-1, (2, 3, 2, 3), (2,))),
        },
    }
    for n in range(3, n_max + 1):
        sign = -1 if n % 2 == 1 else 1
        diff[-n] = {(0, 0): _pairs(A, (1, (2,), (2, 3, 2)),
                                   (sign, (2, 3, 2), (2,)))}
    return BimoduleComplex("gl3 p(2,1)", A, terms, diff)


def gl3_p12_complex(n_max: int = 8) -> BimoduleComplex:
    A = gl3_algebra()
    terms = {0: [(1, 1, 0), (3, 3, 0)],
             -1: [(3, 1, 2), (1, 3, 2), (3, 3, 2)]}
    for n in range(2, n_max + 1):
        terms[-n] = [(1, 1, 2 * n), (3, 3, 2 * n), (3, 1, 2 * n), (1, 3, 2 * n)]
    diff = {
        -1: {
            (0, 0): _pairs(A, (1, (3, 2, 1), (1,))),
            (0, 1): _pairs(A, (-1, (3,), (3, 2, 1))),
            (1, 0): _pairs(A, (1, (1,), (1, 2, 3))),
            (1, 1): _pairs(A, (-1, (1, 2, 3), (3,))),
            (2, 1): _pairs(A, (1, (3, 2, 3), (3,)), (-1, (3,), (3, 2, 3))),
        },
        -2: {
            # f_2((1)(x)(1)) = (1|2|3)(x)(1) - (1)(x)(3|2|1)
            (0, 0): _pairs(A, (1, (1, 2, 3), (1,))),
            (0, 1): _pairs(A, (-1, (1,), (3, 2, 1))),
            # f_2((3)(x)(3))
            (1, 0): _pairs(A, (1, (3,), (1, 2, 3))),
            (1, 1): _pairs(A, (-1, (3, 2, 1), (3,))),
            (1, 2): _pairs(A, (-1, (3, 2, 3), (3,)), (-1, (3,), (3, 2, 3))),
            # f_2((3)(x)(1)) = (3|2|3)(x)(1) + (3)(x)(3|2|1)
            (2, 0): _pairs(A, (1, (3, 2, 3), (1,))),
            (2, 2): _pairs(A, (1, (3,), (3, 2, 1))),
            # f_2((1)(x)(3)) = (1)(x)(3|2|3) - (1|2|3)(x)(3)
            (3, 1): _pairs(A, (1, (1,), (3, 2, 3))),
            (3, 2): _pairs(A, (-1, (1, 2, 3), (3,))),
        },
    }
    # The published tail signs for this complex do not square to zero: both
    # composite routes from (1)(x)(1) into the (3)A(x)(3) summand carry the
    # same sign, leaving 2*(1|2|3)(x)(3|2|1) in d^2.  A brute-force search
    # over all sign assignments compatible with the printed absolute values
    # (see scripts/p12_sign_search.py) shows the fix is unique up to an
    # overall sign per differential: negate the two floor-sign terms of
    # f_n on (3)(x)(3) and the floor-sign term of f_n on (3)(x)(1).
    # p12_printed_sign_discrepancies() reports the flipped entries.
    for n in range(3, n_max + 1):
        s1 = -((-1) ** ((n + 4) // 2))
        s2 = (-1) ** ((n - 1) // 2)
        diff[-n] = {
            # f_n((1)(x)(1)) = (1|2|3)(x)(1) + (1)(x)(3|2|1)
            (0, 2): _pairs(A, (1, (1, 2, 3), (1,))),
            (0, 3): _pairs(A, (1, (1,), (3, 2, 1))),
            # f_n((3)(x)(3)); s1 negated relative to the published signs
            (1, 2): _pairs(A, (s1, (3,), (1, 2, 3))),
            (1, 3): _pairs(A, (s1, (3, 2, 1), (3,))),
            (1, 1): _pairs(A, (1, (3,), (3, 2, 3)),
                           ((-1) ** n, (3, 2, 3), (3,))),
            # f_n((3)(x)(1)); s2 negated relative to the published signs
            (2, 2): _pairs(A, (1, (3, 2, 3), (1,))),
            (2, 0): _pairs(A, (-1, (3, 2, 1), (1,))),
            (2, 1): _pairs(A, (-s2, (3,), (3, 2, 1))),
            # f_n((1)(x)(3))
            (3, 3): _pairs(A, ((-1) ** (n + 1), (1,), (3, 2, 3))),
            (3, 0): _pairs(A, (1, (1,), (1, 2, 3))),
            (3, 1): _pairs(A, (s2, (1, 2, 3), (3,))),
        }
    return BimoduleComplex("gl3 p(1,2)", A, terms, diff)


def p12_printed_sign_discrepancies(n_max: int = 8) -> list[str]:
    """Entries of the p(1,2) tail whose published sign had to be negated.

    The published differentials fail d^2 = 0 at every h <= -3; the returned
    list records, per homological degree, which matrix entries differ in the
    repaired transcription used by gl3_p12_complex.
    """
    out = []
    for n in range(3, n_max + 1):
        s1 = (-1) ** ((n + 4) // 2)
        s2 = (-1) ** ((n - 1) // 2)
        out.append(f"h={-n}: (3)(x)(1|2|3) and (3|2|1)(x)(3) on the "
                   f"(3,3) summand use {-s1:+d} instead of {s1:+d}; "
                   f"(3)(x)(3|2|1) on the (3,1) summand uses {-s2:+d} "
                   f"instead of {s2:+d}")
    return out


def projector_complexes(n_max: int = 8) -> list[BimoduleComplex]:
    return [gl2_projector_complex(n_max), gl3_p3_complex(n_max),
            gl3_p21_complex(n_max), gl3_p12_complex(n_max)]


# -- decategorification of the gl2 complex ------------------------------------

def _graded_char(A: GradedQuotientAlgebra, ids) -> dict[int, LaurentSeries]:
    """For a set of basis ids: dim_q by start vertex, as Laurent polynomials."""
    out: dict[int, LaurentSeries] = {}
    for i in ids:
        info = A.info[i]
        prev = out.get(info.start, LaurentSeries.zero())
        out[info.start] = prev + LaurentSeries.monomial(info.degree)
    return out


def _standard_module_ids(A: GradedQuotientAlgebra, v: int, smaller) -> list[int]:
    """Basis ids of (v)A modulo the image of maps from (w)A for w in smaller.

    The image is spanned by x . A with x running over (v)A(w); the quotient
    is taken monomially, which is valid here because the image is spanned by
    basis elements (it is the span of all basis paths through a smaller
    vertex times the remaining paths).
    """
    image: set[int] = set()
    for w in smaller:
        for x in A.basis_between(end=v, start=w):
            for a in range(A.dimension()):
                prod = A.mul({x: 1}, {a: 1})
                image.update(prod.keys())
    return [i for i in A.basis_between(end=v) if i not in image]


def euler_characteristic_vs_p2(precision: int = DEFAULT_PRECISION) -> dict:
    """Alternating sum of the gl2 complex versus the rank-2 projector.

    The complex terms all equal the bimodule A(2) (x) (2)A, so the Euler
    characteristic acts on classes by [M] -> (sum_n (-q^2)^n) dim_q(M e_2)
    [(2)A].  The matrix is computed on the standard-module basis and
    compared with the weight-zero block of the Jones-Wenzl projector at
    q power 0: the two agree with no overall shift.
    """
    A = gl2_algebra()
    d1 = _standard_module_ids(A, 1, [])       # Delta(1) = (1)A
    d2 = _standard_module_ids(A, 2, [1])      # Delta(2)
    char1 = _graded_char(A, d1)
    char2 = _graded_char(A, d2)
    p2 = _graded_char(A, A.basis_between(end=2))   # class of (2)A

    # write [(2)A] = a [Delta(1)] + b [Delta(2)]: Delta(2) is supported on
    # start vertex 2 only, so a is forced by the start-1 component
    z = LaurentSeries.zero()
    a = p2.get(1, z) * char1.get(1, z).invert(precision)
    b = p2.get(2, z) - a * char1.get(2, z)
    # Euler factor sum_n (-q^2)^n = 1 / (1 + q^2)
    geom = (LaurentSeries.one()
            + LaurentSeries.monomial(2)).invert(precision)
    # operator entries in the ordered basis ([Delta(2)], [Delta(1)]):
    # [Delta(i)] -> dim_q(Delta(i) e_2) * geom * (a [Delta(1)] + b [Delta(2)])
    t2 = char2.get(2, z) * geom
    t1 = char1.get(2, z) * geom
    mat_alg = [[t2 * b, t1 * b],
               [t2 * a, t1 * a]]
    block = jones_wenzl(2, precision).blocks()[0]
    # blocks() basis at weight 0 is [(0,1), (1,0)]; the dictionary matches
    # [Delta(2)] with v_0 v_1 and [Delta(1)] with v_1 v_0
    ok = all(mat_alg[r][c].eq_upto(block[r][c])
             for r in range(2) for c in range(2))
    return {"match": ok, "q_power": 0 if ok else None,
            "basis": "[Delta(2)], [Delta(1)] ~ v0v1, v1v0" if ok else None}
