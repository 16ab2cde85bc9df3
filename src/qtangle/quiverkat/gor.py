"""Homology of the small differential bigraded algebra B_2.

B_2 = C[u_1, u_2] (x) Lambda[zeta_1, zeta_2] with bidegrees (h, q)

    u_k: (2 - 2k, 2k)        zeta_k: (1 - 2k, 2 + 2k)

and the odd degree-(+1, 0) differential determined by d(u_k) = 0 and
d(zeta_k) = sum_{i+j=k+1} u_i u_j, so d(zeta_1) = u_1^2 and
d(zeta_2) = 2 u_1 u_2.  Every fixed bidegree is spanned by finitely many
monomials u_1^a u_2^b zeta_1^e1 zeta_2^e2, so homology is computed
bidegreewise by exact rank computation over Q.
"""

from __future__ import annotations

from ..exactla import rank
from ..qseries import BigradedPolynomial

__all__ = ["gor_d", "gor_d_squared_zero", "gor_homology"]

# monomial: (a, b, e1, e2) for u1^a u2^b zeta1^e1 zeta2^e2
U_DEG = {1: (0, 2), 2: (-2, 4)}
Z_DEG = {1: (-1, 4), 2: (-3, 6)}


def bidegree(mono) -> tuple[int, int]:
    a, b, e1, e2 = mono
    h = -2 * b - e1 - 3 * e2
    q = 2 * a + 4 * b + 4 * e1 + 6 * e2
    return h, q


def gor_d(element: dict) -> dict:
    """Differential on a Q-combination of monomials (odd Leibniz rule)."""
    out: dict = {}

    def acc(mono, c):
        if c:
            out[mono] = out.get(mono, 0) + c
            if not out[mono]:
                del out[mono]

    for (a, b, e1, e2), c in element.items():
        if e1:
            # zeta1 -> u1^2; zeta1 is the leftmost odd factor, sign +1
            acc((a + 2, b, 0, e2), c)
        if e2:
            # zeta2 -> 2 u1 u2, passing over zeta1^e1 picks up (-1)^e1
            acc((a + 1, b + 1, e1, 0), 2 * c * (-1) ** e1)
    return out


def _monomials_at(h: int, q: int) -> list[tuple[int, int, int, int]]:
    out = []
    for e1 in (0, 1):
        for e2 in (0, 1):
            two_b = -h - e1 - 3 * e2
            if two_b < 0 or two_b % 2:
                continue
            b = two_b // 2
            two_a = q - 4 * b - 4 * e1 - 6 * e2
            if two_a < 0 or two_a % 2:
                continue
            out.append((two_a // 2, b, e1, e2))
    return out


def gor_d_squared_zero(h_bound: int = -8, q_bound: int = 40) -> bool:
    """d(d(m)) = 0 for every monomial with h_bound <= h <= 0 and
    0 <= q <= q_bound."""
    if h_bound > 0:
        raise ValueError("h_bound must be <= 0")
    for h in range(0, h_bound - 1, -1):
        for q in range(0, q_bound + 1):
            for mono in _monomials_at(h, q):
                if gor_d(gor_d({mono: 1})):
                    return False
    return True


def _rank_at(h: int, q: int) -> int:
    """Rank of d restricted to bidegree (h, q) -> (h + 1, q)."""
    rows = [r for r in (gor_d({m: 1}) for m in _monomials_at(h, q))
            if r]
    return rank(rows) if rows else 0


def gor_homology(h_bound: int = -8, q_bound: int = 40) -> BigradedPolynomial:
    """Bigraded homology dimensions of (B_2, d) for h_bound <= h <= 0 and
    0 <= q <= q_bound."""
    if h_bound > 0:
        raise ValueError("h_bound must be <= 0")
    dims: dict[tuple[int, int], int] = {}
    for h in range(0, h_bound - 1, -1):
        for q in range(0, q_bound + 1):
            n = len(_monomials_at(h, q))
            if not n:
                continue
            ker = n - _rank_at(h, q)
            dim = ker - _rank_at(h - 1, q)
            if dim:
                dims[(h, q)] = dim
    return BigradedPolynomial.make(dims)
