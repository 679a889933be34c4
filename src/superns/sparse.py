"""The sparse-coefficient core shared by every ring in superns.

Grassmann elements, graded polynomials, superfunction components,
Neveu-Schwarz expressions, enveloping-algebra words and module vectors
are all dicts that map a key (a generator mask, a monomial, a z-order, a
word, a basis index) to a coefficient.  They share one invariant:

    a ``terms`` dict never stores a zero coefficient.

So a dict is zero exactly when it is empty, and two dicts over the same
key set are equal exactly when they are equal as dicts.  ``add_term`` is
the one place that accumulates into such a dict; it keeps the invariant.
"""

from fractions import Fraction
from math import comb


def add_term(acc: dict, key, val) -> None:
    """acc[key] += val in place, dropping the key when the sum is zero.

    A zero val is not stored under a new key.
    """
    s = acc.get(key)
    if s is None:
        if val:
            acc[key] = val
        return
    s = s + val
    if s:
        acc[key] = s
    else:
        del acc[key]


def add_terms(a: dict, b: dict) -> dict:
    """The sum of two terms dicts, as a new dict."""
    out = dict(a)
    for key, val in b.items():
        add_term(out, key, val)
    return out


def binom(n, k: int) -> Fraction:
    """Generalized binomial coefficient C(n, k), k >= 0, for integer or
    Fraction n.

    Integral n takes exact integer arithmetic, with upper negation
    C(n, k) = (-1)^k C(k - n - 1, k) for n < 0; the result is a Fraction
    on every path.
    """
    if k < 0:
        raise ValueError("binom needs k >= 0")
    if isinstance(n, Fraction) and n.denominator == 1:
        n = n.numerator
    if isinstance(n, int):
        if n >= 0:
            return Fraction(comb(n, k))
        c = comb(k - n - 1, k)
        return Fraction(-c if k & 1 else c)
    n = Fraction(n)
    out = Fraction(1)
    for i in range(k):
        out *= (n - i) / (i + 1)
    return out
