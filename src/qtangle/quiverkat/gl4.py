"""Corner algebra of the six-vertex quiver and the modules built on it.

A is the quotient path algebra on vertices 1..6; C = eAe for
e = (1) + (5) + (6).  The projectives C(i) = C e_i are realised inside A
as the span of paths that start at i and end at a kept vertex, viewed as
left C-modules; all printed maps between them act by right multiplication,
which is the transposition that makes the printed matrices compose.

Standard modules Delta(i) = C(i) / C(<i) for the order 1 < 5 < 6, the
proper standard bar-Delta(5), the filtration of Delta(5), and the
2-periodic minimal projective resolution of the simple module L(1) are
all transcribed from the printed bases and differentials and verified by
exact linear algebra over Q: spans, ranks and the radical solve all run on
the sparse echelon ``exactla.Span``, with vectors keyed by ambient basis id.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ..exactla import Span, nullspace
from ..qseries import BigradedPolynomial, bigraded_expand_homofunknot
from .algebra import GradedQuotientAlgebra, build_algebra, idempotent_subalgebra
from . import constants as data

__all__ = [
    "gl4_algebra", "gl4_corner", "standard_modules_gl4",
    "l1_resolution_report", "ext_self_L1", "poincare_vs_paper",
]

KEEP = (1, 5, 6)

# Printed bases of the standard modules (paths as vertex tuples).
DELTA_BASES = {
    1: ((1,), (5, 1), (5, 3, 2, 1), (6, 5, 3, 2, 1)),
    5: ((5,), (5, 4, 5), (5, 3, 5), (5, 6, 5, 6, 5),
        (6, 5), (6, 5, 4, 5), (6, 5, 6, 5), (6, 5, 3, 2, 3, 5)),
    6: ((6,),),
}

# Filtration of Delta(5); S_k is the span of the first 2k listed elements.
S_ELEMENTS = (
    (5, 6, 5, 6, 5), (6, 5, 3, 2, 3, 5),
    (5, 4, 5), (6, 5, 4, 5),
    (5, 3, 5), (6, 5, 6, 5),
    (5,), (6, 5),
)
S_SHIFTS = (4, 2, 2, 0)


@lru_cache(maxsize=None)
def gl4_algebra() -> GradedQuotientAlgebra:
    return build_algebra(data.GL4_VERTICES,
                         data.edges_to_arrows(data.GL4_EDGES),
                         data.GL4_RELATIONS)


def gl4_corner():
    return idempotent_subalgebra(gl4_algebra(), KEEP)


def span_dim(vectors) -> int:
    return Span(vectors).dim


# -- projectives and standard modules ------------------------------------------

def _cmodule_ids(A: GradedQuotientAlgebra, i: int) -> list[int]:
    """Ambient basis ids of C(i) = e A e_i."""
    ks = set(KEEP)
    return [b for b in A.basis_between(start=i) if A.info[b].end in ks]


def _corner_ids(A: GradedQuotientAlgebra) -> list[int]:
    ks = set(KEEP)
    return [b for b, info in enumerate(A.info)
            if info.end in ks and info.start in ks]


def _unit(b: int) -> dict:
    return {b: 1}


def _lower_span(A: GradedQuotientAlgebra, i: int) -> Span:
    """C(<i): image of every map C(j) -> C(i) for j < i (order 1 < 5 < 6)."""
    order = {1: 0, 5: 1, 6: 2}
    sp = Span()
    for j in KEEP:
        if order[j] >= order[i]:
            continue
        homs = A.basis_between(end=j, start=i)   # e_j A e_i, acting on the right
        for x in _cmodule_ids(A, j):
            for y in homs:
                sp.add(A.mul(_unit(x), _unit(y)))
    return sp


def _submodule_span(A: GradedQuotientAlgebra, gens, base: Span | None = None) -> Span:
    """Span of C . gens (plus an optional base span already closed)."""
    sp = Span(base.rows.values() if base else ())
    for c in _corner_ids(A):
        for g in gens:
            sp.add(A.mul(_unit(c), g))
    return sp


def _graded_dims_mod(A: GradedQuotientAlgebra, ids, sp: Span) -> dict[int, int]:
    """Graded dimensions of span(ids) / sp (rows of sp homogeneous)."""
    out: dict[int, int] = {}
    for b in ids:
        d = A.info[b].degree
        out[d] = out.get(d, 0) + 1
    for p, row in sp.rows.items():
        d = A.degree(row)
        out[d] = out.get(d, 0) - 1
        if not out[d]:
            del out[d]
    return out


def standard_modules_gl4() -> dict:
    """Verify the printed standard-module bases, bar-Delta(5), and the
    filtration S_1 c S_2 c S_3 c S_4 = Delta(5).  Returns a report dict;
    every boolean in it must be True."""
    A = gl4_algebra()
    report: dict = {"algebra_dim": A.dimension(),
                    "corner_dim": gl4_corner().dimension()}

    lowers = {i: _lower_span(A, i) for i in KEEP}
    dims = {}
    bases_ok = {}
    for i in KEEP:
        ids = _cmodule_ids(A, i)
        low = lowers[i]
        dims[i] = len(ids) - low.dim
        # printed basis: independent modulo C(<i) and of the right size
        probe = Span(low.rows.values())
        count = 0
        for path in DELTA_BASES[i]:
            if probe.add(A.path(path)):
                count += 1
        bases_ok[i] = (count == len(DELTA_BASES[i]) == dims[i])
    report["delta_dims"] = dims
    report["delta_bases_span"] = bases_ok
    report["delta_graded_dims"] = {
        i: _graded_dims_mod(A, _cmodule_ids(A, i), lowers[i]) for i in KEEP}

    # bar-Delta(5): quotient of Delta(5) by the submodule generated by images
    # of the radical of End(Delta(5)).  An endomorphism sends the cyclic
    # generator (5) to a vector v with ann((5)) . v = 0 in Delta(5); radical
    # endomorphisms are the ones with v in positive degree.
    low5 = lowers[5]
    ids5 = _cmodule_ids(A, 5)
    # the annihilator of the cyclic generator (5) in C is spanned by C(<5)
    # together with every basis element that does not start at 5 (those
    # multiply (5) to zero); all act by left multiplication
    ann = list(low5.rows.values()) + [
        _unit(c) for c in _corner_ids(A) if A.info[c].start != 5]
    # candidate images: homogeneous elements of Delta(5) in positive degree
    quot_basis = []
    probe = Span(low5.rows.values())
    for b in ids5:
        if A.info[b].degree > 0 and probe.add(_unit(b)):
            quot_basis.append(b)
    # solve for the subspace of valid images degreewise
    rad_images = []
    by_deg: dict[int, list[int]] = {}
    for b in quot_basis:
        by_deg.setdefault(A.info[b].degree, []).append(b)
    for bs in by_deg.values():
        # v = sum x_m b_m must satisfy w.v in C(<5) for all w in ann: one
        # row per (w, coordinate of the residue), over the columns m
        rows = []
        for w in ann:
            by_key: dict = {}
            for m, b in enumerate(bs):
                for k, c in low5.reduce(A.mul(w, _unit(b))).items():
                    by_key.setdefault(k, {})[m] = c
            rows.extend(by_key.values())
        rad_images.extend({bs[m]: c for m, c in sol.items()}
                          for sol in nullspace(rows, len(bs)))
    S = _submodule_span(A, rad_images, base=low5)
    printed_S = Span(low5.rows.values())
    for path in S_ELEMENTS[:6]:
        printed_S.add(A.path(path))
    report["S_matches_printed_span"] = (
        S.dim == printed_S.dim
        and all(S.contains(row) for row in printed_S.rows.values()))
    report["bar_delta5_dim"] = len(ids5) - S.dim
    report["bar_delta5_graded_dims"] = _graded_dims_mod(A, ids5, S)

    # filtration: S_k = span of the first 2k printed elements (mod C(<5));
    # each is a submodule and S_k / S_{k-1} is bar-Delta(5) shifted by the
    # printed amount, including the (6|5)-action on the cyclic generator.
    filtration_ok = []
    prev = Span(low5.rows.values())
    sixfive = A.path((6, 5))
    for k in range(1, 5):
        elems = [A.path(p) for p in S_ELEMENTS[:2 * k]]
        sk = Span(low5.rows.values())
        for v in elems:
            sk.add(v)
        closed = _submodule_span(A, elems, base=low5)
        shift = S_SHIFTS[k - 1]
        # subquotient graded dims: one class in degree shift, one in shift+1
        got = {}
        probe = Span(prev.rows.values())
        for v in elems:
            if probe.add(v):
                d = A.degree(v)
                got[d] = got.get(d, 0) + 1
        lowgen = A.path(S_ELEMENTS[2 * (k - 1)])
        acted = A.mul(sixfive, lowgen)
        action_ok = not prev.contains(acted) and sk.contains(acted)
        filtration_ok.append(
            closed.dim == sk.dim                      # submodule
            and all(sk.contains(r) for r in prev.rows.values())  # S_{k-1} c S_k
            and got == {shift: 1, shift + 1: 1}       # bar-Delta(5)<shift>
            and action_ok)                            # (6|5).(5) = (6|5)
        prev = sk
    report["filtration_ok"] = filtration_ok
    report["filtration_shifts"] = list(S_SHIFTS)

    # printed projective resolutions of the standard modules:
    # Delta(5) = coker( C(1)<1> (+) C(1)<3> -> C(5) ) with an injective map,
    # Delta(6) = coker( C(1)<2> -> C(5)<1> -> C(6) ) with the left part exact
    ids1 = _cmodule_ids(A, 1)
    im5 = Span()
    rank5 = 0
    for entry in ((1, 5), (1, 2, 3, 5)):
        y = A.path(entry)
        for x in ids1:
            if im5.add(A.mul(_unit(x), y)):
                rank5 += 1
    res5_ok = (rank5 == 2 * len(ids1)
               and im5.dim == lowers[5].dim
               and all(im5.contains(r) for r in lowers[5].rows.values()))
    im6 = Span()
    rank6 = 0
    for x in _cmodule_ids(A, 5):
        if im6.add(A.mul(_unit(x), A.path((5, 6)))):
            rank6 += 1
    ker6 = len(_cmodule_ids(A, 5)) - rank6
    inner = Span()
    rank_inner = 0
    for x in ids1:
        if inner.add(A.mul(_unit(x), A.path((1, 5)))):
            rank_inner += 1
    # the composite map vanishes because (1|5|6) = 0, so equal dimensions
    # give exactness in the middle
    res6_ok = (im6.dim == lowers[6].dim
               and all(im6.contains(r) for r in lowers[6].rows.values())
               and rank_inner == len(ids1)          # left map injective
               and ker6 == rank_inner)              # exact in the middle
    report["delta_resolutions_ok"] = {"delta5": res5_ok, "delta6": res6_ok}
    report["ok"] = (
        dims == {1: 4, 5: 8, 6: 1}
        and all(bases_ok.values())
        and report["S_matches_printed_span"]
        and report["bar_delta5_dim"] == 2
        and all(filtration_ok)
        and res5_ok and res6_ok)
    return report


# -- the minimal projective resolution of L(1) ---------------------------------

def _l1_terms(m: int) -> list[tuple[int, int]]:
    """Summands of D_m as (vertex, q-shift): D_m = (+) q^s C(i)."""
    if m == 0:
        return [(1, 0)]
    if m == 1:
        return [(5, 1)]
    if m == 2:
        return [(1, 2), (6, 2), (1, 4)]
    if m == 3:
        return [(5, 5)]
    n = m // 2
    if m % 2 == 0:
        return [(5, 4 * n - 1), (1, 4 * n)]
    return [(5, 4 * n + 1), (1, 4 * n)]


def _l1_diff(A: GradedQuotientAlgebra, m: int) -> dict[tuple[int, int], dict]:
    """Matrix of d: D_m -> D_{m-1}; entry (s, t) right-multiplies."""
    P = A.path
    half = Fraction(1, 2)
    if m == 1:
        return {(0, 0): P((5, 1))}
    if m == 2:
        return {(0, 0): P((1, 5)), (1, 0): P((6, 5)),
                (2, 0): P((1, 2, 3, 5))}
    if m == 3:
        return {(0, 0): A.scale(P((5, 3, 2, 1)), half),
                (0, 1): A.add(P((5, 4, 5, 6)),
                              A.scale(P((5, 6, 5, 6)), -half)),
                (0, 2): A.scale(P((5, 1)), -half)}
    if m % 2 == 0:
        d = {(0, 0): A.add(A.add(P((5, 3, 5)), P((5, 4, 5))),
                           A.scale(P((5, 1, 5)), -half)),
             (1, 0): P((1, 5, 3, 5))}
        if m > 4:  # D_3 has no C(1) summand
            d[(0, 1)] = A.scale(P((5, 3, 2, 1)), -1)
        return d
    return {(0, 0): A.add(P((5, 4, 5)), A.scale(P((5, 3, 5)), -1)),
            (0, 1): A.scale(P((5, 1)), -1),
            (1, 0): P((1, 5))}


def _check_homogeneity(A, m, terms_src, terms_tgt, diff):
    for (s, t), x in diff.items():
        if not x:
            continue
        want = terms_src[s][1] - terms_tgt[t][1]
        got = A.degree(x)
        if got != want:
            raise ValueError(
                f"resolution entry d_{m}[{s},{t}] has degree {got}, "
                f"but the printed q-shifts force {want}")


def _column_basis(A, terms, d0):
    """Basis of D_m in internal degree d0: (summand, ambient id) pairs."""
    cols = []
    for s, (i, qs) in enumerate(terms):
        for b in _cmodule_ids(A, i):
            if A.info[b].degree + qs == d0:
                cols.append((s, b))
    return cols


def _apply(A, diff, s, b):
    """Image of basis vector (s, b) under the differential matrix."""
    out: dict = {}
    for (s1, t), x in diff.items():
        if s1 != s:
            continue
        for k, c in A.mul(_unit(b), x).items():
            key = (t, k)
            v = out.get(key, 0) + c
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


def l1_resolution_report(h_bound: int = 8) -> dict:
    """Transcribe and verify the resolution of L(1) down to h = -h_bound.

    Checks: homogeneity of every entry against the printed q-shifts
    (raises on mismatch), d . d = 0 as matrices over the algebra,
    minimality (every entry has positive degree), exactness in homological
    degrees -1 .. -h_bound by exact ranks per internal degree, and that the
    cokernel at h = 0 is one-dimensional in degree zero.
    """
    A = gl4_algebra()
    terms = {m: _l1_terms(m) for m in range(h_bound + 2)}
    diff = {m: _l1_diff(A, m) for m in range(1, h_bound + 2)}
    for m in range(1, h_bound + 2):
        _check_homogeneity(A, m, terms[m], terms[m - 1], diff[m])

    minimal = all(A.degree(x) > 0 for d in diff.values()
                  for x in d.values() if x)

    # d^2 = 0: matrix product over A
    d2_zero = True
    for m in range(2, h_bound + 2):
        n_tgt = len(terms[m - 2])
        for s in range(len(terms[m])):
            for u in range(n_tgt):
                acc: dict = {}
                for (s1, t), x in diff[m].items():
                    if s1 != s:
                        continue
                    y = diff[m - 1].get((t, u))
                    if not y:
                        continue
                    for k, c in A.mul(x, y).items():
                        v = acc.get(k, 0) + c
                        if v:
                            acc[k] = v
                        elif k in acc:
                            del acc[k]
                if acc:
                    d2_zero = False

    # exactness per internal degree
    degrees = set()
    for m in range(h_bound + 2):
        for i, qs in terms[m]:
            for b in _cmodule_ids(A, i):
                degrees.add(A.info[b].degree + qs)
    failures = []
    for m in range(1, h_bound + 1):
        for d0 in sorted(degrees):
            cols = _column_basis(A, terms[m], d0)
            if not cols:
                continue
            rank_m = span_dim([_apply(A, diff[m], s, b) for s, b in cols])
            ker = len(cols) - rank_m
            cols_up = _column_basis(A, terms[m + 1], d0)
            rank_up = span_dim(
                [_apply(A, diff[m + 1], s, b) for s, b in cols_up])
            if ker != rank_up:
                failures.append((-m, d0, ker, rank_up))
    # cokernel at h = 0 is L(1): one class in degree 0
    ids0 = _cmodule_ids(A, 1)
    im_flat = Span()
    for i, qs in terms[1]:
        for b in _cmodule_ids(A, i):
            image = _apply(A, diff[1], 0, b)
            im_flat.add({k: c for (t, k), c in image.items()})
    coker_dims = _graded_dims_mod(A, ids0, im_flat)

    return {
        "d_squared_zero": d2_zero,
        "minimal": minimal,
        "exactness_failures": failures,
        "exact": not failures,
        "coker_is_simple": coker_dims == {0: 1},
        "ok": d2_zero and minimal and not failures and coker_dims == {0: 1},
    }


def ext_self_L1(h_bound: int = 8,
                report: dict | None = None) -> dict[int, tuple[int, ...]]:
    """Graded dimensions of Ext^h(L(1), L(1)) for 0 >= h >= -h_bound.

    The resolution is minimal, so Ext^{-m} is read off as the multiset of
    internal shifts <-s> of the C(1) summands of D_m.  ``report`` is
    l1_resolution_report(h_bound) if the caller has it already; else the
    resolution is verified here.
    """
    rep = l1_resolution_report(h_bound) if report is None else report
    if not rep["ok"]:
        raise ValueError(f"resolution failed verification: {rep}")
    out: dict[int, tuple[int, ...]] = {}
    for m in range(h_bound + 1):
        out[-m] = tuple(sorted(-qs for i, qs in _l1_terms(m) if i == 1))
    return out


def poincare_vs_paper(h_bound: int = 8,
                      table: dict[int, tuple[int, ...]] | None = None) -> bool:
    """Shift the Ext Poincare series by q^2 t^2 and compare to the printed
    knot-homology expansion on the overlapping window.  ``table`` is
    ext_self_L1(h_bound) if the caller has it already."""
    if table is None:
        table = ext_self_L1(h_bound)
    shifted: dict[tuple[int, int], int] = {}
    for h, shifts in table.items():
        for s in shifts:
            key = (h + 2, s + 2)
            shifted[key] = shifted.get(key, 0) + 1
    want = bigraded_expand_homofunknot(-h_bound + 2).as_dict()
    return BigradedPolynomial.make(shifted) == BigradedPolynomial.make(want)
