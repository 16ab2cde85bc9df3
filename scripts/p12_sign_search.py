"""Search for sign patterns making the p(1,2) bimodule complex square to zero.

The published tail differentials of the p(1,2) projector complex fail
d^2 = 0: writing the twelve tail coefficients of f_n as a sign vector,
both composite routes from the (1)A (x) (1)A summand into (3)A (x) (3)A
carry the same sign, so d^2 picks up 2*(1|2|3)(x)(3|2|1).  This script
derives the compatibility conditions between consecutive sign vectors
from the algebra products, then enumerates every uniform flip-set of the
published pattern that makes the whole tail compose to zero.

Run:  python scripts/p12_sign_search.py
"""

NAMES = "a b c d e g p r w u v z".split()
# Coefficient labels for the tail map f_n (n >= 3):
#   f_n((1)(x)(1)) = a (1|2|3)(x)(1) + b (1)(x)(3|2|1)
#   f_n((3)(x)(3)) = c (3)(x)(1|2|3) + d (3|2|1)(x)(3)
#                    + e (3)(x)(3|2|3) + g (3|2|3)(x)(3)
#   f_n((3)(x)(1)) = p (3|2|3)(x)(1) + r (3)(x)(3|2|1) + w (3|2|1)(x)(1)
#   f_n((1)(x)(3)) = u (1)(x)(3|2|3) + v (1)(x)(1|2|3) + z (1|2|3)(x)(3)


def composes_to_zero(upper, lower):
    """d^2 = 0 conditions for f_lower . f_upper, one per surviving basis
    tensor.  Derived using x = (3|2|3), x^3 = 0, (3|2|1)(1|2|3) = x^2,
    (1|2|3)(3|2|1) = 0, (1|2|3)x = 0 and x(3|2|1) = 0."""
    a1, b1, c1, d1, e1, g1, p1, r1, w1, u1, v1, z1 = upper
    a0, b0, c0, d0, e0, g0, p0, r0, w0, u0, v0, z0 = lower
    conds = [
        a1 * r0 + b1 * z0,   # (1|2|3) (x) (3|2|1)
        c1 * p0 + g1 * c0,   # x (x) (1|2|3)
        c1 * r0 + e1 * e0,   # (3) (x) x^2
        c1 * w0 + d1 * v0,   # (3|2|1) (x) (1|2|3)
        d1 * u0 + e1 * d0,   # (3|2|1) (x) x
        d1 * z0 + g1 * g0,   # x^2 (x) (3)
        e1 * g0 + g1 * e0,   # x (x) x
        p1 * p0 + w1 * a0,   # x^2 (x) (1)
        p1 * r0 + r1 * g0,   # x (x) (3|2|1)
        r1 * d0 + w1 * b0,   # (3|2|1) (x) (3|2|1)
        u1 * u0 + v1 * b0,   # (1) (x) x^2
        u1 * z0 + z1 * e0,   # (1|2|3) (x) x
        v1 * a0 + z1 * c0,   # (1|2|3) (x) (1|2|3)
    ]
    return all(t == 0 for t in conds)


def published(n):
    s1 = (-1) ** ((n + 4) // 2)
    s2 = (-1) ** ((n - 1) // 2)
    return (1, 1, s1, s1, 1, (-1) ** n, 1, s2, -1, (-1) ** (n + 1), 1, s2)


# f_2 written in the same coordinates; w and v do not occur at that level.
F2 = (1, -1, 1, -1, -1, -1, 1, 1, 0, 1, 0, -1)


def chain_ok(flip_mask, n_hi=16):
    def repaired(n):
        vec = list(published(n))
        for i in range(12):
            if flip_mask >> i & 1:
                vec[i] = -vec[i]
        return tuple(vec)

    chain = [F2] + [repaired(n) for n in range(3, n_hi)]
    return all(composes_to_zero(chain[i + 1], chain[i])
               for i in range(len(chain) - 1))


def main():
    print("published pattern squares to zero:", chain_ok(0))
    good = [m for m in range(4096) if chain_ok(m)]
    good.sort(key=lambda m: bin(m).count("1"))
    print(f"{len(good)} uniform flip-sets repair the tail:")
    for m in good:
        flips = [NAMES[i] for i in range(12) if m >> i & 1]
        print(f"  flip {flips} ({bin(m).count('1')} entries)")
    print("(the two sets are complementary: flipping every coefficient of"
          " each f_n is an overall sign change and preserves d^2 = 0)")


if __name__ == "__main__":
    main()
