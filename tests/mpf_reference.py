"""The tests' bridge to mpmath, their reference for reglab's numbers.

reglab imports nothing outside the standard library, so its BigReals neither
read nor return mpfs.  The tests compare them with mpmath through these two
exact conversions: as_mpf(x) is a BigReal's value as an mpf, and from_mpf(x)
a (man, exp) pair that BigReal, agreement_digits and the oracle's t read.
"""

from mpmath import mp
from mpmath.libmp import from_man_exp


def as_mpf(x):
    """x.man 2^x.exp, for a BigReal x, as an mpf, exactly: not rounded to the ambient precision."""
    return mp.make_mpf(from_man_exp(x.man, x.exp))


def from_mpf(x) -> tuple:
    """(man, exp) with x = man 2^exp exactly for a finite mpf x; anything
    else (an int, a str) goes through mp.mpf first, at the ambient precision."""
    if not hasattr(x, "_mpf_"):
        x = mp.mpf(x)
    sign, man, exp, bc = x._mpf_
    if not man and bc:
        raise ValueError("not a finite real number: {}".format(x))
    return (-int(man) if sign else int(man)), exp
