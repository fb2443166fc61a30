"""Exact rational arithmetic used by every solver path.

All fractional quantities in this package (LP values, residual bounds,
separation results) are the stdlib's arbitrary-precision Fractions,
never floats, in lowest terms with a positive denominator; the simplex
and the separators compute in integers scaled by a common denominator.
"""

from fractions import Fraction as Rat

# the benchmark record (perfbench/run.py) still reads this flag
HAVE_GMPY2 = False

ZERO = Rat(0)
ONE = Rat(1)
HALF = Rat(1, 2)


def parse_rat(s):
    """Parse canonical "p/q" (also accepts bare "p")."""
    s = s.strip()
    if "/" in s:
        p, q = s.split("/", 1)
        return Rat(int(p), int(q))
    return Rat(int(s))


def render_rat(r):
    """Canonical "p/q" rendering, lowest terms, q > 0, q always explicit."""
    return f"{r.numerator}/{r.denominator}"


def encode_rationals(v):
    """JSON form of a report value: rationals become "p/q" strings,
    tuples become lists and dict keys become strings."""
    if isinstance(v, dict):
        return {str(k): encode_rationals(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [encode_rationals(x) for x in v]
    if hasattr(v, "denominator") and not isinstance(v, int):
        return render_rat(v)
    return v


def rat_ceil(r):
    return -((-r.numerator) // r.denominator)


def is_integral(r):
    return r.denominator == 1


def as_float(r):
    """Non-authoritative decimal approximation for report readability."""
    return int(r.numerator) / int(r.denominator)
