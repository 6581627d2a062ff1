"""Coefficient rings: F_p, F_{p^r}, Z/p^e, Galois rings GR(p^e, r), W_2(base).

Every ring element is represented by an integer *code* in ``range(size)``;
matrices are numpy int64 arrays of codes.  A ring handle supplies scalar
operations on codes plus vectorised operations on code arrays, so the
linear algebra in :mod:`charp.linalg` is ring-generic.

Codes:

- Z/p^e (covers the prime field when e = 1): the canonical representative
  in [0, p^e).
- F_{p^r} and GR(p^e, r): polynomial residues with coefficients in
  [0, p^e), coded as sum(c_i * (p^e)**i).
- W_2(B): a pair (a0, a1) of base codes, coded as a0 * |B| + a1.
"""

import functools
from collections import namedtuple
from math import comb

import numpy as np

_PRIMES_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# F_q and GR(p^e, r) with at most this many elements do their elementwise
# arithmetic by lookup in code tables; larger rings use polynomial ops.
TABLE_CAP = 1024
# Rows per product in PolyQuotient.vmatmul and linalg's row loops; it
# bounds the temporaries of a tall product.
CHUNK = 512


def is_prime(n):
    if n < 2:
        return False
    for q in _PRIMES_SMALL:
        if n == q:
            return True
        if n % q == 0:
            return False
    i = 49
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


class RingConstructionError(ValueError):
    pass


class NotAUnitError(ZeroDivisionError):
    def __init__(self, ring, code):
        super().__init__(f"{ring.to_str(code)} is not a unit in {ring}")
        self.ring = ring
        self.code = code


# ---------------------------------------------------------------------------
# polynomial helpers over Z/m (little-endian coefficient tuples)

def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mulmod(a, b, modulus, m):
    """a*b mod (modulus, m); modulus monic little-endian of degree r."""
    r = len(modulus) - 1
    full = [0] * (len(a) + len(b) - 1 if a and b else 0)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            full[i + j] = (full[i + j] + ai * bj) % m
    for k in range(len(full) - 1, r - 1, -1):
        c = full[k]
        if c:
            full[k] = 0
            for j in range(r):
                full[k - r + j] = (full[k - r + j] - c * modulus[j]) % m
    full = full[:r] + [0] * max(0, r - len(full))
    return [x % m for x in full[:r]]


def _fp_poly_divmod(num, den, p):
    num = [x % p for x in num]
    den = _poly_trim([x % p for x in den])
    if not den:
        raise ZeroDivisionError
    inv_lead = pow(den[-1], -1, p)
    rem = list(num)
    dd = len(den) - 1
    quot = [0] * max(0, len(rem) - dd)
    for k in range(len(rem) - 1, dd - 1, -1):
        coeff = (rem[k] * inv_lead) % p
        if coeff:
            quot[k - dd] = coeff
            for j in range(dd + 1):
                rem[k - dd + j] = (rem[k - dd + j] - coeff * den[j]) % p
    return quot, _poly_trim(rem)


def is_irreducible_fp(p, coeffs):
    """Monic polynomial over F_p, little-endian with coeffs[-1] == 1."""
    coeffs = [x % p for x in coeffs]
    r = len(coeffs) - 1
    if r < 1 or coeffs[-1] != 1:
        return False
    if r == 1:
        return True
    if coeffs[0] == 0:
        return False
    # trial division by monic polynomials of degree <= r // 2
    for d in range(1, r // 2 + 1):
        for code in range(p ** d):
            den = []
            c = code
            for _ in range(d):
                den.append(c % p)
                c //= p
            den.append(1)
            _, rem = _fp_poly_divmod(coeffs, den, p)
            if not rem:
                return False
    return True


def default_modulus(p, r):
    """Smallest monic irreducible of degree r over F_p (lex on coeff tuples)."""
    if r == 1:
        return (0, 1)
    for code in range(p ** r):
        coeffs = []
        c = code
        for _ in range(r):
            coeffs.append(c % p)
            c //= p
        coeffs.append(1)
        if is_irreducible_fp(p, coeffs):
            return tuple(coeffs)
    raise RingConstructionError(f"no irreducible of degree {r} over F_{p}")


# ---------------------------------------------------------------------------
# ring specs

class RingSpec:
    """Descriptor of a coefficient ring; hashable and printable."""

    def __init__(self, kind, p=None, e=1, r=1, modulus=None, base=None):
        self.kind = kind
        self.p = p
        self.e = e
        self.r = r
        self.modulus = tuple(modulus) if modulus is not None else None
        self.base = base

    def _key(self):
        return (self.kind, self.p, self.e, self.r, self.modulus,
                self.base._key() if self.base is not None else None)

    def __eq__(self, other):
        return isinstance(other, RingSpec) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.kind == "prime_field":
            return f"F_{self.p}"
        if self.kind == "integers_mod":
            return f"Z/{self.p}^{self.e}"
        if self.kind == "galois_field":
            return f"F_{self.p}^{self.r}"
        if self.kind == "galois_ring":
            return f"GR({self.p}^{self.e},{self.r})"
        if self.kind == "witt2":
            return f"W2({self.base!r})"
        return f"RingSpec({self.kind})"


def prime_field(p):
    if not is_prime(p):
        raise RingConstructionError(f"{p} is not prime")
    return RingSpec("prime_field", p=p, e=1, r=1)


def integers_mod(p, e):
    if not is_prime(p) or e < 1:
        raise RingConstructionError(f"bad Z/p^e parameters p={p}, e={e}")
    return RingSpec("integers_mod", p=p, e=e, r=1)


def galois_field(p, r, modulus=None):
    if not is_prime(p) or r < 1:
        raise RingConstructionError(f"bad field parameters p={p}, r={r}")
    if modulus is None:
        modulus = default_modulus(p, r)
    modulus = tuple(x % p for x in modulus)
    if len(modulus) != r + 1 or modulus[-1] != 1:
        raise RingConstructionError("modulus must be monic of degree r")
    if not is_irreducible_fp(p, modulus):
        raise RingConstructionError(f"modulus {modulus} reducible over F_{p}")
    return RingSpec("galois_field", p=p, e=1, r=r, modulus=modulus)


def galois_ring(p, e, r, modulus=None):
    if not is_prime(p) or e < 1 or r < 1:
        raise RingConstructionError("bad Galois ring parameters")
    if modulus is None:
        modulus = default_modulus(p, r)
    modulus = tuple(x % (p ** e) for x in modulus)
    if len(modulus) != r + 1 or modulus[-1] != 1:
        raise RingConstructionError("modulus must be monic of degree r")
    if not is_irreducible_fp(p, [x % p for x in modulus]):
        raise RingConstructionError(
            f"modulus {modulus} not irreducible mod {p}")
    return RingSpec("galois_ring", p=p, e=e, r=r, modulus=modulus)


def witt2(base_spec):
    return RingSpec("witt2", p=base_spec.p, base=base_spec)


# ---------------------------------------------------------------------------
# ring handles

class Ring:
    """Base class; subclasses fill in the scalar/vector operation set."""

    is_field = False
    finite = True
    spec = None

    def __repr__(self):
        return repr(self.spec)

    # -- generic helpers -----------------------------------------------------
    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        acc, base = self.one, a
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc

    def elements(self):
        return range(self.size)

    def random(self, rng):
        return rng.randrange(self.size)

    def sum(self, codes):
        acc = self.zero
        for c in codes:
            acc = self.add(acc, c)
        return acc

    def vscale(self, c, arr):
        return self.vmul(np.full_like(np.asarray(arr), c), arr)

    def to_str(self, a):
        return str(a)


def _int_valuation(a, p, e):
    """p-adic valuation of an integer residue mod p^e, e for zero."""
    if a % p ** e == 0:
        return e
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


class ZModPE(Ring):
    """Z/p^e; the prime field when e == 1."""

    def __init__(self, spec):
        self.spec = spec
        self.p = spec.p
        self.e = spec.e
        self.r = 1
        self.m = spec.p ** spec.e
        if (self.m - 1) ** 2 >= 2 ** 63:
            # vmul/vouter form one product of two codes in int64
            raise RingConstructionError(
                f"modulus {self.m} too large: (m-1)^2 overflows int64")
        self.size = self.m
        self.char = self.m
        self.is_field = spec.e == 1
        self.zero = 0
        self.one = 1 % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def is_unit(self, a):
        return a % self.p != 0

    def inv(self, a):
        if not self.is_unit(a):
            raise NotAUnitError(self, a)
        return pow(a, -1, self.m)

    def frobenius(self, a):
        # Galois-style Frobenius: trivial on the unramified-degree-1 ring.
        # (x -> x^p is a ring endomorphism only when e == 1, where it is
        # also the identity.)
        return a

    def valuation(self, a):
        return _int_valuation(a, self.p, self.e)

    def from_int(self, n):
        return n % self.m

    def residue_ring(self):
        return ring_make(prime_field(self.p))

    def reduce_mod_p(self, a):
        return a % self.p

    def lift_residue(self, a):
        return a % self.m

    # vector ops (codes are plain residues)
    def varray(self, data):
        return np.asarray(data, dtype=np.int64) % self.m

    def vadd(self, a, b):
        return (a + b) % self.m

    def vsub(self, a, b):
        return (a - b) % self.m

    def vneg(self, a):
        return (-a) % self.m

    def vmul(self, a, b):
        return (a * b) % self.m

    def vouter(self, u, v):
        return (u[:, None] * v[None, :]) % self.m

    def vmatmul(self, a, b):
        return _matmul_mod(a, b, self.m)

    def vfrob(self, a):
        return a % self.m

    def vfrom_int(self, a):
        return np.asarray(a, dtype=np.int64) % self.m


def _product_dtype(inner, m):
    """float32 or float64 if every partial sum of an inner-length product of
    integers in [0, m) is an integer below 2^24 or 2^53, else int64."""
    for dtype, bound in ((np.float32, 2 ** 24), (np.float64, 2 ** 53)):
        if inner and inner * (m - 1) ** 2 < bound:
            return dtype
    return np.int64


def _matmul_mod(a, b, m):
    """a @ b mod m for arrays of integers in [0, m), (m-1)^2 < 2^63."""
    inner = a.shape[-1]
    dtype = _product_dtype(inner, m)
    if dtype is not np.int64:
        prod = a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)
        return prod.astype(np.int64) % m
    # a reduced partial sum plus `step` products below (m-1)^2 stays
    # below 2^63
    step = max(1, (2 ** 63 - m) // (m - 1) ** 2)
    out = np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
    for k in range(0, inner, step):
        out = (out + a[..., k:k + step] @ b[k:k + step]) % m
    return out


_CodeTables = namedtuple("_CodeTables", "dec add mul neg mat")


class PolyQuotient(Ring):
    """F_{p^r} (e == 1) or GR(p^e, r): Z/p^e[x] / (monic modulus)."""

    def __init__(self, spec):
        self.spec = spec
        self.p = spec.p
        self.e = spec.e
        self.r = spec.r
        self.m = spec.p ** spec.e          # coefficient modulus
        self.size = self.m ** spec.r
        if self.size >= 2 ** 63 or self.r * (self.m - 1) ** 2 >= 2 ** 63:
            # codes are int64, and a convolution sums r products of two
            # coefficients in int64
            raise RingConstructionError(
                f"{spec!r} too large: codes or coefficient products "
                "overflow int64")
        self.char = self.m
        self.is_field = spec.e == 1
        self.modulus = list(spec.modulus)
        self.zero = 0
        self.one = 1
        # x^(r+k) mod modulus for k = 0..r-2, as coefficient rows
        red = []
        cur = [(-c) % self.m for c in self.modulus[:-1]]  # x^r
        for _ in range(max(0, self.r - 1)):
            red.append(list(cur))
            cur = _poly_mulmod(cur, [0, 1], self.modulus, self.m)
        self._red = np.asarray(red, dtype=np.int64) if red else \
            np.zeros((0, self.r), dtype=np.int64)
        self._pows = self.m ** np.arange(self.r, dtype=np.int64)

    # -- coding
    def decode(self, a):
        tab = self._tab
        if tab is None:
            return self._decode(a)
        # take, not fancy indexing: many times faster on index arrays
        return tab.dec.take(a, axis=0)

    def _decode(self, a):
        a = np.asarray(a, dtype=np.int64)
        return (a[..., None] // self._pows) % self.m

    def encode(self, coeffs):
        return (np.asarray(coeffs, dtype=np.int64) % self.m) @ self._pows

    def coeffs(self, a):
        return self.decode(a).tolist()

    def from_coeffs(self, c):
        c = list(c)[: self.r] + [0] * max(0, self.r - len(c))
        return int(self.encode(np.asarray(c)))

    def from_int(self, n):
        return self.from_coeffs([n % self.m])

    def to_str(self, a):
        return f"poly{tuple(self.coeffs(a))}"

    # -- code tables
    @functools.cached_property
    def _tab(self):
        """Decode, add, mul, neg and multiplication-matrix (vmatmul)
        tables, or None above TABLE_CAP.

        Built on first use from the polynomial ops, which stay the
        definition of the arithmetic.
        """
        if self.size > TABLE_CAP:
            return None
        codes = np.arange(self.size, dtype=np.int64)
        dec = self._decode(codes)
        # row blocks keep each (rows, size, 2r-1) temporary small
        step = max(1, 2 ** 16 // (self.size * (2 * self.r - 1)))
        blocks = [codes[i:i + step, None] for i in range(0, self.size, step)]
        add = np.concatenate([self.encode(dec[b] + dec) for b in blocks])
        mul = np.concatenate([self._poly_mul(b, codes) for b in blocks])
        neg = self.encode(-dec)
        mat = dec[mul[:, self._pows]]
        for t in (dec, add, mul, neg, mat):
            t.flags.writeable = False
        return _CodeTables(dec, add, mul, neg, mat)

    # -- scalars
    def add(self, a, b):
        return int(self.vadd(a, b))

    def neg(self, a):
        return int(self.vneg(a))

    def mul(self, a, b):
        if self._tab is not None:
            return int(self._tab.mul[a, b])
        # above the table cap: schoolbook on digit lists, without numpy
        m = self.m
        digits = [[int(x) // m ** i % m for i in range(self.r)]
                  for x in (a, b)]
        return sum(c * m ** i for i, c in
                   enumerate(_poly_mulmod(*digits, self.modulus, m)))

    def is_unit(self, a):
        return any(c % self.p for c in self.coeffs(a))

    def inv(self, a):
        if not self.is_unit(a):
            raise NotAUnitError(self, a)
        if self.is_field:
            return self.pow(a, self.size - 2)
        # Newton lift of the residue-field inverse
        gf = self.residue_ring()
        y = self.lift_residue(gf.inv(self.reduce_mod_p(a)))
        for _ in range(self.e):
            y = self.mul(y, self.sub(self.add(self.one, self.one),
                                     self.mul(a, y)))
        assert self.mul(a, y) == self.one
        return y

    def frobenius(self, a):
        return int(self.vfrob(a))

    @functools.cached_property
    def _frob_table(self):
        """The Frobenius on every code: a -> a^p over a field; over a
        Galois ring the automorphism that fixes Z/p^e and sends omega to
        the Hensel root of the modulus lifting omega_bar^p."""
        if self.is_field:
            return np.array([self.pow(a, self.p) for a in range(self.size)],
                            dtype=np.int64)
        gf = self.residue_ring()
        wbar_p = gf.pow(gf.from_coeffs([0, 1]), self.p)
        t = self.lift_residue(wbar_p)
        for _ in range(self.e + 1):
            mt = self._eval_modulus(t)
            if mt == self.zero:
                break
            dmt = self._eval_modulus_deriv(t)
            t = self.sub(t, self.mul(mt, self.inv(dmt)))
        assert self._eval_modulus(t) == self.zero
        pows = [self.one]
        for _ in range(self.r - 1):
            pows.append(self.mul(pows[-1], t))
        table = np.zeros(self.size, dtype=np.int64)
        for a in range(self.size):
            acc = 0
            for i, c in enumerate(self.coeffs(a)):
                acc = self.add(acc, self.mul(self.from_int(c), pows[i]))
            table[a] = acc
        return table

    def _eval_modulus(self, t):
        acc = self.zero
        for c in reversed(self.modulus):
            acc = self.add(self.mul(acc, t), self.from_int(c))
        return acc

    def _eval_modulus_deriv(self, t):
        acc = self.zero
        for k in range(len(self.modulus) - 1, 0, -1):
            acc = self.add(self.mul(acc, t),
                           self.from_int(k * self.modulus[k]))
        return acc

    def valuation(self, a):
        return min(_int_valuation(c, self.p, self.e) for c in self.coeffs(a))

    # handles live in _CACHE for the whole process anyway
    @functools.cache
    def residue_ring(self):
        if self.is_field:
            return self
        return ring_make(galois_field(
            self.p, self.r, tuple(c % self.p for c in self.modulus)))

    def reduce_mod_p(self, a):
        gf = self.residue_ring()
        return gf.from_coeffs([c % self.p for c in self.coeffs(a)])

    def lift_residue(self, a):
        if self.is_field:
            return a
        gf = self.residue_ring()
        return self.from_coeffs(gf.coeffs(a))

    # -- vector ops
    def varray(self, data):
        return np.asarray(data, dtype=np.int64)

    def vadd(self, a, b):
        tab = self._tab
        if tab is None:
            return self.encode(self._decode(a) + self._decode(b))
        return tab.add[a, b]

    def vsub(self, a, b):
        tab = self._tab
        if tab is None:
            return self.encode(self._decode(a) - self._decode(b))
        return tab.add[a, tab.neg[b]]

    def vneg(self, a):
        tab = self._tab
        if tab is None:
            return self.encode(-self._decode(a))
        return tab.neg[a]

    def vmul(self, a, b):
        tab = self._tab
        if tab is None:
            return self._poly_mul(a, b)
        return tab.mul[a, b]

    def vouter(self, u, v):
        tab = self._tab
        if tab is None:
            return self._poly_mul(u[:, None], v[None, :])
        return tab.mul[u[:, None], v[None, :]]

    def vscale(self, c, arr):
        tab = self._tab
        if tab is None:
            return self._poly_mul(c, arr)
        return tab.mul[c][arr]

    def _poly_mul(self, a, b):
        """Product by polynomial convolution; a and b broadcast."""
        da, db = self._decode(a), self._decode(b)
        r = self.r
        shape = np.broadcast_shapes(da.shape, db.shape)[:-1]
        full = np.zeros(shape + (2 * r - 1,), dtype=np.int64)
        for u in range(r):
            for v in range(r):
                full[..., u + v] += da[..., u] * db[..., v]
        full %= self.m
        # x^(r+k) is row k of _red
        return self.encode(full[..., :r] + full[..., r:] @ self._red)

    def vmatmul(self, a, b):
        """a @ b by one product over Z/m per CHUNK rows of a: the digits
        of a row, inner * r of them, times M, the (inner * r) x (cols * r)
        multiplication matrices of b's entries (row t of M(c) holds the
        digits of c * x^t), are the digits of that row of a @ b."""
        (rows, inner), cols, r = a.shape, b.shape[1], self.r
        tab, dtype = self._tab, _product_dtype(inner * r, self.m)
        M = (self._decode(self._poly_mul(b[..., None], self._pows))
             if tab is None else tab.mat.take(b, axis=0))
        # one cast of M; a table ring decodes a chunk in the product dtype
        M = M.transpose(0, 2, 1, 3).reshape(inner * r, cols * r).astype(dtype)
        dec = (self._decode if tab is None
               else functools.partial(tab.dec.astype(dtype).take, axis=0))

        def chunk(part):
            digits = dec(part).reshape(len(part), inner * r)
            prod = _matmul_mod(digits, M, self.m)
            return prod.reshape(len(part), cols, r) @ self._pows

        if rows <= CHUNK:
            return chunk(a)
        return np.concatenate([chunk(a[s:s + CHUNK])
                               for s in range(0, rows, CHUNK)])

    def vfrob(self, a):
        return self._frob_table[np.asarray(a, dtype=np.int64)]

    def vfrom_int(self, a):
        return self.encode(
            np.stack([np.asarray(a, dtype=np.int64) % self.m] +
                     [np.zeros_like(np.asarray(a, dtype=np.int64))] *
                     (self.r - 1), axis=-1))


class IntegerRing(Ring):
    """Exact Z with a designated prime p (None for integer determinants);
    used by oracles and lattice determinants, never by linalg."""

    finite = False
    is_field = False

    def __init__(self, p):
        self.p = p
        self.e = None
        self.char = 0
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if not self.is_unit(a):
            raise NotAUnitError(self, a)
        return a

    def frobenius(self, a):
        return a

    def from_int(self, n):
        return n

    def random(self, rng):
        return rng.randrange(-10 ** 6, 10 ** 6)


class Witt2Ring(Ring):
    """Length-2 Witt vectors over a commutative base handle with prime p.

    The base needs add, sub, neg, mul, pow, from_int, zero, one and p.
    Over a finite base an element is a code; over any other base (exact
    Z, or one level of a cosimplicial algebra) it is the pair itself.
    """

    def __init__(self, base):
        self.spec = RingSpec("witt2", p=base.p, base=base.spec)
        self.base = base
        self.p = p = base.p
        self.finite = base.finite
        if self.finite:
            self.size = base.size ** 2
        self.char = None
        # integer constants C(p,i)/p for 0 < i < p (exact)
        self._carry = [comb(p, i) // p for i in range(p + 1)]
        self._neg_t = sum((comb(p, i) // p) * (-1) ** (p - i)
                          for i in range(1, p))
        self.zero = self.pack((self.base.zero, self.base.zero))
        self.one = self.pack((self.base.one, self.base.zero))

    # pairs <-> codes
    def pack(self, pair):
        if not self.finite:
            return tuple(pair)
        return pair[0] * self.base.size + pair[1]

    def unpack(self, code):
        if not self.finite:
            return code
        return (code // self.base.size, code % self.base.size)

    def _carry_term(self, a0, b0):
        """sum_{i=1}^{p-1} (C(p,i)/p) a0^i b0^(p-i) in the base ring."""
        B = self.base
        acc = B.zero
        for i in range(1, self.p):
            term = B.mul(B.pow(a0, i), B.pow(b0, self.p - i))
            acc = B.add(acc, B.mul(B.from_int(self._carry[i]), term))
        return acc

    def add(self, a, b):
        B = self.base
        a0, a1 = self.unpack(a)
        b0, b1 = self.unpack(b)
        s0 = B.add(a0, b0)
        s1 = B.sub(B.add(a1, b1), self._carry_term(a0, b0))
        return self.pack((s0, s1))

    def neg(self, a):
        B = self.base
        a0, a1 = self.unpack(a)
        n1 = B.add(B.neg(a1),
                   B.mul(B.from_int(self._neg_t), B.pow(a0, self.p)))
        return self.pack((B.neg(a0), n1))

    def mul(self, a, b):
        B = self.base
        a0, a1 = self.unpack(a)
        b0, b1 = self.unpack(b)
        m0 = B.mul(a0, b0)
        m1 = B.add(B.add(B.mul(B.pow(a0, self.p), b1),
                         B.mul(B.pow(b0, self.p), a1)),
                   B.mul(B.from_int(self.p), B.mul(a1, b1)))
        return self.pack((m0, m1))

    def teichmuller(self, x):
        return self.pack((x, self.base.zero))

    def verschiebung(self, a):
        a0, _ = self.unpack(a)
        return self.pack((self.base.zero, a0))

    def ghost(self, a):
        B = self.base
        a0, a1 = self.unpack(a)
        return (a0, B.add(B.pow(a0, self.p), B.mul(B.from_int(self.p), a1)))

    def frobenius(self, a):
        a0, a1 = self.unpack(a)
        return self.pack((self.base.frobenius(a0), self.base.frobenius(a1)))

    def is_unit(self, a):
        a0, _ = self.unpack(a)
        return self.base.is_unit(a0)

    def inv(self, a):
        if not self.is_unit(a):
            raise NotAUnitError(self, a)
        # Newton: y <- y(2 - ay), starting from the Teichmuller-coordinate
        # inverse of the leading component.
        y = self.pack((self.base.inv(self.unpack(a)[0]), self.base.zero))
        two = self.add(self.one, self.one)
        for _ in range(3):
            y = self.mul(y, self.sub(two, self.mul(a, y)))
        assert self.mul(a, y) == self.one
        return y

    def from_int(self, n):
        """n * 1 by double-and-add: O(log |n|) Witt additions."""
        acc = self.zero
        step = self.one if n >= 0 else self.neg(self.one)
        for bit in bin(abs(n))[2:]:
            acc = self.add(acc, acc)
            if bit == "1":
                acc = self.add(acc, step)
        return acc

    def random(self, rng):
        return self.pack((self.base.random(rng), self.base.random(rng)))

    def to_str(self, a):
        a0, a1 = self.unpack(a)
        return f"({self.base.to_str(a0)}, {self.base.to_str(a1)})"


_CACHE = {}


def ring_make(spec):
    """Build (and cache) the ring handle for a spec."""
    key = spec._key()
    if key in _CACHE:
        return _CACHE[key]
    if spec.kind in ("prime_field", "integers_mod"):
        ring = ZModPE(spec)
    elif spec.kind in ("galois_field", "galois_ring"):
        ring = PolyQuotient(spec)
    elif spec.kind == "witt2":
        ring = Witt2Ring(ring_make(spec.base))
    else:
        raise RingConstructionError(f"unknown ring kind {spec.kind}")
    _CACHE[key] = ring
    return ring


def coerce_down(src, dst, a):
    """Reduce a code from Z/p^e or GR(p^e,r) to the same ring with smaller e."""
    if isinstance(src, ZModPE) and isinstance(dst, ZModPE):
        return a % dst.m
    if isinstance(src, PolyQuotient) and isinstance(dst, PolyQuotient):
        assert src.r == dst.r and src.p == dst.p
        return dst.from_coeffs([c % dst.m for c in src.coeffs(a)])
    raise TypeError(f"cannot coerce between {src} and {dst}")


def lift_up(src, dst, a):
    """Lift a code along the canonical section of coerce_down."""
    if isinstance(src, ZModPE) and isinstance(dst, ZModPE):
        return a % dst.m
    if isinstance(src, PolyQuotient) and isinstance(dst, PolyQuotient):
        return dst.from_coeffs(src.coeffs(a))
    raise TypeError(f"cannot lift between {src} and {dst}")
