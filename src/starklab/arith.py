"""Desk-scale integer arithmetic: factoring, primality, primes in a range
and exact Bernoulli numbers.

Every integer stark-lab factors is small: fundamental discriminants up to
MAX_ABS_DISC = 10^6, conductors, group orders and the primes of S and T.
Trial division answers those at once, so `factorint` and `isprime` use
nothing else, and they refuse n > FACTOR_BOUND = 10^12 (a million trial
divisors) with `CapacityError` rather than hang.  The Bernoulli numbers
B_n come from one table of Fractions that grows on demand, one
Seidel-Entringer row at a time: B_2k is read off the tangent number
T_k = A_(2k-1), the last entry of row 2k - 1 of the boustrophedon
(Brent and Harvey, *Fast computation of Bernoulli, Tangent and Secant
numbers*, 2011).
"""

from fractions import Fraction

FACTOR_BOUND = 10 ** 12


class CapacityError(RuntimeError):
    """A desk-scale bound was exceeded."""


def factorint(n):
    """{prime: exponent} of the integer n >= 1, primes ascending."""
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    if n > FACTOR_BOUND:
        raise CapacityError(f"{n} exceeds the factoring bound {FACTOR_BOUND}")
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def isprime(n):
    return n > 1 and factorint(n) == {n: 1}


def primerange(a, b):
    """The primes p with a <= p < b, ascending, generated lazily."""
    return (p for p in range(max(a, 2), b) if isprime(p))


_BERNOULLI = [Fraction(1), Fraction(1, 2)]
_ROW = [0, 1]    # the last boustrophedon row computed, row len(_ROW) - 1


def bernoulli(n):
    """B_n as an exact Fraction, with B_1 = +1/2 (B_n = 0 for odd n > 1).
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) for k >= 1."""
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        if m % 2:
            _BERNOULLI.append(Fraction(0))
            continue
        while len(_ROW) < m:
            row = [0]
            for a in reversed(_ROW):
                row.append(row[-1] + a)
            _ROW[:] = row
        four_k = 4 ** (m // 2)
        sign = 1 if m % 4 == 2 else -1
        _BERNOULLI.append(Fraction(sign * m * _ROW[-1],
                                   four_k * (four_k - 1)))
    return _BERNOULLI[n]
