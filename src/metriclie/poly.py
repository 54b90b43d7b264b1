"""Polynomials over the rationals: tuples of Fractions, low degree first,
with no trailing zeros, so equal polynomials are equal tuples and zero is
().  Division, Euclid, Yun's squarefree decomposition, rational roots and
the coprime split behind the splitting-idempotent search.  `linalg`
imports this module for its matrix functions; this module imports no
other.  `rat`, the one coercion into exact scalars, refuses floats."""

from __future__ import annotations

import math
from fractions import Fraction

_NO_FLOATS = "floating-point input is not allowed in exact arithmetic"


def rat(x) -> Fraction:
    """Coerce ints / strings / Fractions; floats are refused on purpose."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(_NO_FLOATS)
    return Fraction(x)


def poly(coeffs):
    c = [rat(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_deg(p):
    return len(p) - 1


def poly_is_zero(p):
    return len(p) == 0


def poly_sub(a, b):
    n = max(len(a), len(b))
    return poly([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                 for i in range(n)])


def poly_scale(k, a):
    k = rat(k)
    return poly([k * x for x in a])


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly(out)


def poly_monic(a):
    assert a, "zero polynomial has no monic normalization"
    return poly_scale(1 / a[-1], a)


def poly_divmod(a, b):
    assert b, "division by the zero polynomial"
    r = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv = 1 / b[-1]
    while len(r) >= len(b) and any(x != 0 for x in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b):
            break
        f = r[-1] * inv
        shift = len(r) - len(b)
        q[shift] = f
        for i, x in enumerate(b):
            r[shift + i] -= f * x
        r.pop()
    return poly(q), poly(r)


def poly_divexact(a, b):
    q, r = poly_divmod(a, b)
    assert poly_is_zero(r), "inexact polynomial division"
    return q


def poly_gcd(a, b):
    while not poly_is_zero(b):
        _, r = poly_divmod(a, b)
        a, b = b, r
    return poly_monic(a) if a else ()


def poly_xgcd(a, b):
    """Extended Euclid: returns (g, u, v), g monic, u·a + v·b = g."""
    r0, r1 = poly(a), poly(b)
    u0, u1 = poly([1]), poly([])
    v0, v1 = poly([]), poly([1])
    while not poly_is_zero(r1):
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, poly_sub(u0, poly_mul(q, u1))
        v0, v1 = v1, poly_sub(v0, poly_mul(q, v1))
    assert not poly_is_zero(r0)
    lead = r0[-1]
    return poly_monic(r0), poly_scale(1 / lead, u0), poly_scale(1 / lead, v0)


def poly_derivative(a):
    return poly([i * a[i] for i in range(1, len(a))])


def poly_pow(a, k):
    out = poly([1])
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def squarefree_decomposition(p):
    """Yun's algorithm: monic p = Π a_i^i with the a_i squarefree, pairwise
    coprime.  Returns [(a_i, i)] skipping trivial a_i."""
    p = poly_monic(p)
    dp = poly_derivative(p)
    a = poly_gcd(p, dp)
    b = poly_divexact(p, a) if a else p
    c = poly_divexact(dp, a) if a else dp
    d = poly_sub(c, poly_derivative(b))
    out = []
    i = 1
    while poly_deg(b) > 0:
        ai = poly_gcd(b, d)
        if poly_deg(ai) > 0:
            out.append((ai, i))
        b = poly_divexact(b, ai)
        c = poly_divexact(d, ai)
        d = poly_sub(c, poly_derivative(b))
        i += 1
    return out


def _horner(coeffs, x, m=0):
    """Σ coeffs[i]·x^i for integer coefficients and x, reduced mod m when
    m is given."""
    v = 0
    for c in reversed(coeffs):
        v = (v * x + c) % m if m else v * x + c
    return v


def rational_roots(p):
    """All rational roots of a squarefree polynomial, sorted, found q-adically
    instead of by trial division.

    Scale p to integer coefficients, P(x) = Σ c_i·x^i of degree d, and
    divide out the root 0.  The monic integer polynomial
    g(y) = Σ c_i·c_d^(d-1-i)·y^i satisfies g(c_d·x) = c_d^(d-1)·P(x), so
    its roots are y = c_d·x, and a rational root of a monic integer
    polynomial is an integer dividing its constant term g_0 (von zur
    Gathen & Gerhard, Modern Computer Algebra).
    Take the first prime q ≥ 101 at which every root of g mod q is simple;
    as g is squarefree, only the primes dividing its discriminant fail.
    Newton–Hensel lifting carries each root mod q to the unique q-adic root
    above it, modulo some m > 2·|g_0|; its symmetric residue is the only
    candidate for an integer root y there, and y/c_d is kept only if
    g(y) = 0 exactly."""
    assert poly_deg(p) >= 1
    assert poly_deg(poly_gcd(p, poly_derivative(p))) == 0, \
        "rational_roots needs a squarefree polynomial"
    den = math.lcm(*(x.denominator for x in p))
    ic = [x.numerator * (den // x.denominator) for x in p]
    roots = []
    if ic[0] == 0:
        roots.append(Fraction(0))
        while ic[0] == 0:
            ic = ic[1:]
    d = len(ic) - 1
    if d == 0:
        return roots
    lead = ic[-1]
    g = [c * lead ** (d - 1 - i) for i, c in enumerate(ic[:-1])] + [1]
    dg = [i * c for i, c in enumerate(g)][1:]
    q = 99
    while True:
        q += 2
        if all(q % k for k in range(3, math.isqrt(q) + 1, 2)):
            mod_roots = [x for x in range(q) if _horner(g, x, q) == 0]
            if all(_horner(dg, x, q) for x in mod_roots):
                break
    for x in mod_roots:
        m = q
        while m <= 2 * abs(g[0]):
            m *= m
            x = (x - _horner(g, x, m) * pow(_horner(dg, x, m), -1, m)) % m
        y = x if 2 * x < m else x - m
        if _horner(g, y) == 0:
            roots.append(Fraction(y, lead))
    return sorted(roots)


def coprime_split(p):
    """Split monic p into pairwise-coprime monic factors whose product is p:
    one factor (t - r)^i per rational root r of each squarefree part, plus
    the rootless cofactor of each part.  This is not a full factorization —
    pairwise coprimality is all the idempotent construction needs."""
    p = poly_monic(p)
    if poly_deg(p) < 1:
        raise ValueError("constant polynomial cannot be split")
    parts = []
    for a, mult in squarefree_decomposition(p):
        rem = a
        for r in rational_roots(a):
            lin = poly([-r, 1])
            rem = poly_divexact(rem, lin)
            parts.append(poly_pow(lin, mult))
        if poly_deg(rem) > 0:
            parts.append(poly_pow(rem, mult))
    prod = poly([1])
    for q in parts:
        prod = poly_mul(prod, q)
    assert prod == p
    return tuple(parts)
