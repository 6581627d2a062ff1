"""Length-2 Witt vector arithmetic over a commutative base.

Pairs (a0, a1) with

    (a0,a1) + (b0,b1) = (a0+b0, a1+b1 - sum_{0<i<p} (C(p,i)/p) a0^i b0^(p-i))
    (a0,a1) * (b0,b1) = (a0 b0, a0^p b1 + b0^p a1 + p a1 b1)
    ghost(a0,a1)      = (a0, a0^p + p a1)

The binomial coefficients are divided by p over the integers before any
reduction, so no invertibility of p is ever needed.  The one
implementation is :class:`charp.rings.Witt2Ring`, which works over any
base handle: the finite rings of :mod:`charp.rings` (elements are codes,
``pack``/``unpack`` convert from and to pairs) and the exact-integer ring
used by the oracle tests (elements are the pairs themselves).
"""

from .rings import IntegerRing, Witt2Ring, ring_make, witt2


def witt_ring(base_spec):
    """The W_2 ring handle over a finite base spec."""
    return ring_make(witt2(base_spec))


def integer_witt(p):
    """W_2 over exact Z, for ghost-map oracles; elements are pairs."""
    return Witt2Ring(IntegerRing(p))
