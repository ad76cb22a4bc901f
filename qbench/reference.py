"""Reference kernel: a fixed amount of exact pure-Python arithmetic.

The benchmark runs this file as its own process between engine jobs and
divides each job's wall time by the reference's, which cancels most of the
drift in machine speed that a shared host shows over minutes (see run.py).
It imports nothing from qschur, so a change to the engine cannot change it;
its work resembles the engine's: Laurent polynomials as {exponent: coeff}
dicts with int and Fraction coefficients, and Euclidean division over Q.

Usage::

    python3 qbench/reference.py
"""

from __future__ import annotations

import sys
from fractions import Fraction

ROUNDS = 50


def poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {e: c for e, c in out.items() if c}


def poly_divmod(a: dict, b: dict) -> tuple:
    """Quotient and remainder of a by b as polynomials over Q (exponents >= 0)."""
    r = {e: Fraction(c) for e, c in a.items()}
    top = max(b)
    lead = Fraction(b[top])
    q = {}
    while r and max(r) >= top:
        d = max(r)
        c = r[d] / lead
        q[d - top] = c
        for e, x in b.items():
            v = r.get(e + d - top, 0) - c * x
            if v:
                r[e + d - top] = v
            else:
                r.pop(e + d - top, None)
    return q, r


def kernel(rounds: int = ROUNDS) -> int:
    """Checksum of a fixed computation; the same on every run."""
    p = {i: (i * 12345678901) % 97 - 48 for i in range(24)}
    f = {i: Fraction(i % 7 - 3, i % 5 + 1) for i in range(12)}
    f[12] = 1
    check = 0
    for r in range(rounds):
        prod = poly_mul(p, poly_mul(f, {0: r + 1, 3: -1}))
        q, rem = poly_divmod(prod, f)
        check = (check * 31 + sum(hash(c) for c in q.values())
                 + len(rem)) % (1 << 61)
    return check


if __name__ == "__main__":
    sys.stdout.write("%d\n" % kernel())
