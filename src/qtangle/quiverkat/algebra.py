"""Graded quotients of quiver path algebras by homogeneous relations.

Paths are written (a|b|...|c): the rightmost vertex is the start and the
leftmost is the end, and concatenation composes like functions,
(a|b)(b|c) = (a|b|c).  The quotient is built degree by degree: the degree-l
component is spanned by arrow-times-basis products of degree l-1 modulo the
rows coming from relation-times-basis products of degree l-r for each
relation of degree r.  Construction stops once a degree collapses to zero
(every longer path then lies in the ideal as well).  A coefficient is an
int when it is integral and a Fraction otherwise (``qseries._coef``), so
the algebras with integral relations multiply in ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..exactla import rref
from ..qseries import _coef

__all__ = ["GradedQuotientAlgebra", "build_algebra", "idempotent_subalgebra"]

Element = dict[int, int | Fraction]  # basis id -> coefficient, int when integral


@dataclass(frozen=True)
class _BasisInfo:
    degree: int
    end: int
    start: int
    path: tuple  # representative path as a vertex tuple
    parts: tuple | None  # (arrow index, sub id) for degree >= 1, else None


class GradedQuotientAlgebra:
    """Path algebra of a quiver modulo homogeneous relations."""

    def __init__(self, vertices, arrows, relations, degree_bound: int = 32):
        self.vertices = tuple(vertices)
        self.arrows = tuple((a, b) for a, b in arrows)
        self.relations = tuple(tuple((_coef(c), tuple(p)) for c, p in rel)
                               for rel in relations)
        self._check_relations()
        self.info: list[_BasisInfo] = []
        self.by_degree: list[list[int]] = []
        self.vertex_id: dict[int, int] = {}
        self.reduce_table: dict[tuple[int, int], Element] = {}
        self._between: dict[tuple, list[int]] = {}
        self._build(degree_bound)

    # -- construction ---------------------------------------------------------

    def _check_relations(self):
        for rel in self.relations:
            degs = {len(p) - 1 for _, p in rel}
            if len(degs) != 1 or degs.pop() < 2:
                raise ValueError(
                    "relation terms must share a common degree >= 2")
            for c, p in rel:
                for t in range(len(p) - 1):
                    if (p[t], p[t + 1]) not in self.arrows:
                        raise ValueError(
                            f"relation path {p} uses a missing arrow")
            ends = {p[0] for _, p in rel}
            starts = {p[-1] for _, p in rel}
            if len(ends) != 1 or len(starts) != 1:
                raise ValueError("relation terms must share endpoints")

    def _build(self, degree_bound: int):
        for v in self.vertices:
            self.vertex_id[v] = len(self.info)
            self.info.append(_BasisInfo(0, v, v, (v,), None))
        self.by_degree.append([self.vertex_id[v] for v in self.vertices])
        degree = 0
        while self.by_degree[-1]:
            degree += 1
            if degree > degree_bound:
                raise ValueError(
                    f"algebra did not stabilize by degree {degree_bound}")
            self._build_degree(degree)
        # pad reduce table entries for non-composable pairs lazily via get()
        # basis ids per (end, start), either one None for any vertex
        for i, info in enumerate(self.info):
            for key in ((info.end, info.start), (info.end, None),
                        (None, info.start), (None, None)):
                self._between.setdefault(key, []).append(i)

    def _build_degree(self, l: int):
        prev = self.by_degree[l - 1]
        candidates = []  # (arrow index, sub id)
        for ai, (a, b) in enumerate(self.arrows):
            for sid in prev:
                if self.info[sid].end == b:
                    candidates.append((ai, sid))
        # candidates are listed in ascending (arrow, sub id) order, the
        # order rref picks pivots in, so the free ones become the basis
        rows = []
        for rel in self.relations:
            r = len(rel[0][1]) - 1
            if l < r:
                continue
            start = rel[0][1][-1]
            for sid in self.by_degree[l - r]:
                if self.info[sid].end != start:
                    continue
                # quotient rows are relation . A_{l-r}; relations appearing
                # deeper inside a path are already reduced away in A_{l-1}
                row = {}
                for c, p in rel:
                    inner = {sid: 1}
                    for t in range(len(p) - 1, 1, -1):
                        inner = self._arrow_mul(
                            self.arrows.index((p[t - 1], p[t])), inner)
                    alpha = self.arrows.index((p[0], p[1]))
                    for mid, mc in inner.items():
                        # reduction preserves endpoints, so the pair is
                        # always a listed candidate
                        row[(alpha, mid)] = row.get((alpha, mid), 0) + c * mc
                if any(row.values()):
                    rows.append(row)
        red = rref(rows) if rows else {}
        ids = {}
        new_ids = []
        for cand in candidates:
            if cand in red:
                continue
            ai, sid = cand
            info = self.info[sid]
            bid = len(self.info)
            self.info.append(_BasisInfo(
                l, self.arrows[ai][0], info.start,
                (self.arrows[ai][0],) + info.path, cand))
            ids[cand] = bid
            new_ids.append(bid)
            self.reduce_table[cand] = {bid: 1}
        for p, row in red.items():
            self.reduce_table[p] = {ids[f]: -c for f, c in row.items() if f != p}
        self.by_degree.append(new_ids)

    # -- queries ---------------------------------------------------------------

    def dimension(self) -> int:
        return len(self.info)

    def graded_dimensions(self) -> dict[int, int]:
        return {d: len(ids) for d, ids in enumerate(self.by_degree) if ids}

    def basis_between(self, end: int | None = None, start: int | None = None):
        """The basis ids from ``start`` to ``end`` in ascending order, None
        matching any vertex."""
        return list(self._between.get((end, start), ()))

    def degree(self, x: Element) -> int | None:
        degs = {self.info[i].degree for i in x}
        if len(degs) > 1:
            raise ValueError("inhomogeneous element")
        return degs.pop() if degs else None

    # -- arithmetic --------------------------------------------------------------

    def unit(self, vertex: int) -> Element:
        return {self.vertex_id[vertex]: 1}

    def path(self, verts) -> Element:
        """The class of the path (v_0|v_1|...|v_m) in the quotient."""
        verts = tuple(verts)
        if verts[-1] not in self.vertex_id:
            raise ValueError(f"unknown vertex {verts[-1]}")
        out: Element = self.unit(verts[-1])
        for t in range(len(verts) - 1, 0, -1):
            arrow = (verts[t - 1], verts[t])
            if arrow not in self.arrows:
                raise ValueError(f"missing arrow {arrow}")
            out = self._arrow_mul(self.arrows.index(arrow), out)
        return out

    def _arrow_mul(self, ai: int, x: Element) -> Element:
        out: Element = {}
        for bid, c in x.items():
            for nid, nc in self.reduce_table.get((ai, bid), {}).items():
                v = out.get(nid, 0) + c * nc
                if v:
                    out[nid] = v
                elif nid in out:
                    del out[nid]
        return out

    def _basis_mul(self, bid: int, y: Element) -> Element:
        info = self.info[bid]
        if info.parts is None:
            return {i: c for i, c in y.items() if self.info[i].end == info.end}
        ai, sid = info.parts
        return self._arrow_mul(ai, self._basis_mul(sid, y))

    def mul(self, x: Element, y: Element) -> Element:
        out: Element = {}
        for bid, c in x.items():
            for nid, nc in self._basis_mul(bid, y).items():
                v = out.get(nid, 0) + c * nc
                if v:
                    out[nid] = v
                elif nid in out:
                    del out[nid]
        return out

    def add(self, x: Element, y: Element) -> Element:
        out = dict(x)
        for i, c in y.items():
            v = out.get(i, 0) + c
            if v:
                out[i] = v
            elif i in out:
                del out[i]
        return out

    def scale(self, x: Element, c) -> Element:
        c = _coef(c)
        return {i: _coef(s * c) for i, s in x.items()} if c else {}


def build_algebra(vertices, arrows, relations,
                  degree_bound: int = 32) -> GradedQuotientAlgebra:
    return GradedQuotientAlgebra(vertices, arrows, relations, degree_bound)


def idempotent_subalgebra(A: GradedQuotientAlgebra, keep) -> "SubAlgebraView":
    """The corner algebra eAe for e the sum of the kept vertex idempotents."""
    keep = tuple(keep)
    for v in keep:
        if v not in A.vertices:
            raise ValueError(f"unknown vertex {v}")
    return SubAlgebraView(A, keep)


@dataclass(frozen=True)
class SubAlgebraView:
    """eAe presented on the subset of the ambient basis it spans."""

    A: GradedQuotientAlgebra
    keep: tuple

    def basis_ids(self) -> list[int]:
        ks = set(self.keep)
        return [i for i, info in enumerate(self.A.info)
                if info.end in ks and info.start in ks]

    def dimension(self) -> int:
        return len(self.basis_ids())

    def graded_dimensions(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for i in self.basis_ids():
            d = self.A.info[i].degree
            out[d] = out.get(d, 0) + 1
        return out

    def contains(self, x: Element) -> bool:
        ks = set(self.basis_ids())
        return all(i in ks for i in x)
