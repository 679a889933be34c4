"""The sparse-coefficient core shared by every ring in superns.

Grassmann elements, graded polynomials, superfunction components,
Neveu-Schwarz expressions and module vectors are all dicts that map a key
(a generator mask, a monomial, a z-order, a generator, a word, a basis
index) to a coefficient.  They share one invariant:

    a ``terms`` dict never stores a zero coefficient.

So a dict is zero exactly when it is empty, and two dicts over the same
key set are equal exactly when they are equal as dicts.  ``add_term`` is
the one place that accumulates into such a dict; it keeps the invariant.
``add_scaled`` is the "acc += c * vec" loop on top of it, and ``scaled``
is its allocating form, a new dict "vec * c".

The one other accumulator is the Grassmann product kernel's: slots
``{mask: [num, den]}`` that ``grassmann.add_product`` sums unreduced
products into.  ``grassmann.settle`` makes them a terms dict: it drops each
zero slot, so the invariant holds, and writes every other one as a single
coefficient in the canonical int, Fraction or off-axis QQi form.
"""

from fractions import Fraction
from math import comb


def add_term(acc: dict, key, val) -> None:
    """acc[key] += val in place, dropping the key when the sum is zero.

    A zero val is not stored under a new key; an integral Fraction sum is
    stored as its int, the form every ring keeps a rational coefficient in.
    """
    s = acc.get(key)
    if s is None:
        if val:
            acc[key] = val
        return
    s = s + val
    if not s:
        del acc[key]
    elif type(s) is Fraction and s.denominator == 1:
        acc[key] = s.numerator
    else:
        acc[key] = s


def add_scaled(acc: dict, vec: dict, c) -> None:
    """acc += vec * c in place, term by term through add_term.

    Each product is formed as ``val * c``, coefficient of vec first.
    """
    for key, val in vec.items():
        add_term(acc, key, val * c)


def scaled(vec: dict, c) -> dict:
    """vec * c as a new dict, coefficient of vec first and zero products
    dropped; {} when c is zero."""
    if not c:
        return {}
    return {key: p for key, val in vec.items() if (p := val * c)}


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
