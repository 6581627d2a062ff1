"""Cohomology of (T_2 x| A_2)(O_F) for a real quadratic field F at p = 2.

The group is C_2 x (Z x| Z^2): the unit group O_F^x = {+-1} x u^Z acting
on the lattice O_F by multiplication by u^2.  Its cohomology in low
degrees is computed from an explicit finite complex built in three
strict stages:

  1. the Koszul complex K of the lattice action,
  2. the mapping cone of (u* - 1) on K, computing the Z-extension,
  3. a truncated two-periodic ladder of (w* - 1), (w* + 1) for the
     order-two central unit w = -1.

All stage maps are strict chain maps (functorial Koszul actions), so the
total complex is an honest cochain complex over F_4 or GR(4, 2); the
Bockstein along GR(4,2) -> F_4 is :func:`charp.complexes.bockstein` on the
GR complex's differential.
"""

import numpy as np

from .complexes import CochainComplex
from .gcoh import KoszulEngine, _Engine
from .linalg import Mat


class SolvableTower(_Engine):
    """H^(<= maxdeg) of C_2 x (Z x| Z^m) with module data.

    lattice_mats: rho(e_j) over the ring; Q_int: the integer matrix of the
    conjugation action of u on the lattice; u_mod, w_mod: module actions
    of u and of the central order-2 unit w (w acts trivially on the
    lattice).
    """

    def __init__(self, ring, lattice_mats, Q_int, u_mod, w_mod, maxdeg=2):
        self.ring = ring
        self.maxdeg = self.D = maxdeg
        self.rank = lattice_mats[0].rows
        self.m = len(lattice_mats)
        self.koszul = KoszulEngine(ring, lattice_mats)
        K = self.koszul.complex
        # functorial Koszul actions: (u c)(e_J) = u . c(Lambda phi^-1 e_J)
        act = self.koszul.cochain_action
        self.u_star = {i: act(i, Q_int, u_mod) for i in range(self.m + 1)}
        self.w_star = {i: act(i, np.eye(self.m, dtype=np.int64), w_mod)
                       for i in range(self.m + 1)}
        for star in (self.u_star, self.w_star):
            for i in range(K.lo, K.hi):
                lhs = K.d(i) @ star[i]
                rhs = star[i + 1] @ K.d(i)
                if not (lhs - rhs).is_zero():
                    raise ValueError("stage map is not a strict chain map")
        for i in range(K.lo, K.hi + 1):
            if not (self.u_star[i] @ self.w_star[i] -
                    self.w_star[i] @ self.u_star[i]).is_zero():
                raise ValueError("u* and w* do not commute")
            sq = self.w_star[i] @ self.w_star[i]
            if not (sq - Mat.identity(ring, sq.rows)).is_zero():
                raise ValueError("w* is not an involution")
        self._build_total()

    def _build_total(self):
        """T^n = (+)_(s<=S) L^(n-s), L^n = K^n (+) K^(n-1)."""
        ring = self.ring
        K = self.koszul.complex
        S = self.maxdeg + 1
        self.S = S

        def l_rank(n):
            return K.rank(n) + K.rank(n - 1)

        self._layout = {}
        ranks = []
        for n in range(self.maxdeg + 2):
            off = 0
            cells = []
            for s in range(min(n, S) + 1):
                cells.append((s, off))
                off += l_rank(n - s)
            self._layout[n] = cells
            ranks.append(off)
        diffs = []
        for n in range(self.maxdeg + 1):
            out = Mat.zeros(ring, ranks[n + 1], ranks[n])
            tgt_layout = dict(self._layout[n + 1])
            for (s, off) in self._layout[n]:
                ln = n - s
                rk, rk1 = K.rank(ln), K.rank(ln - 1)
                # vertical: (-1)^s d_L with d_L(x, y) = (dx, (u*-1)x - dy)
                if s in tgt_layout:
                    t = tgt_layout[s]
                    sgn = ring.from_int((-1) ** s)
                    dx = K.d(ln)
                    out.data[t:t + K.rank(ln + 1), off:off + rk] = \
                        ring.vscale(sgn, dx.data)
                    u1 = self.u_star[ln] - Mat.identity(ring, rk) \
                        if rk else Mat.zeros(ring, 0, 0)
                    out.data[t + K.rank(ln + 1):t + K.rank(ln + 1) + rk,
                             off:off + rk] = ring.vscale(sgn, u1.data)
                    dy = K.d(ln - 1)
                    out.data[t + K.rank(ln + 1):t + K.rank(ln + 1) + rk,
                             off + rk:off + rk + rk1] = \
                        ring.vscale(ring.neg(sgn), dy.data)
                # horizontal: (w* -+ 1) into column s + 1
                if s + 1 in tgt_layout and n - s <= self.maxdeg + 1:
                    t = tgt_layout[s + 1]
                    sign_one = -1 if s % 2 == 0 else 1
                    wx = self.w_star[ln] + Mat.identity(
                        ring, rk).scale(ring.from_int(sign_one)) \
                        if rk else Mat.zeros(ring, 0, 0)
                    wy = self.w_star[ln - 1] + Mat.identity(
                        ring, rk1).scale(ring.from_int(sign_one)) \
                        if rk1 else Mat.zeros(ring, 0, 0)
                    out.data[t:t + rk, off:off + rk] = wx.data
                    out.data[t + rk:t + rk + rk1,
                             off + rk:off + rk + rk1] = wy.data
            diffs.append(out)
        self.complex = CochainComplex(ring, 0, ranks, diffs, check=True)

    def encode_one_cocycle(self, lattice_values, u_value, w_value):
        """T^1 vector of a group 1-cocycle from its generator values.

        lattice_values: [c(e_1), ..., c(e_m)]; u_value = c(u);
        w_value = c(w).  The result is checked to be a cocycle.
        """
        ring, r = self.ring, self.rank
        vec = np.full(self.complex.rank(1), ring.zero, dtype=np.int64)
        cells = dict(self._layout[1])
        off0 = cells[0]
        for j, val in enumerate(lattice_values):
            vec[off0 + j * r:off0 + (j + 1) * r] = \
                np.asarray(val, dtype=np.int64)
        ko = off0 + self.koszul.complex.rank(1)
        vec[ko:ko + r] = ring.vneg(np.asarray(u_value, dtype=np.int64))
        off1 = cells[1]
        vec[off1:off1 + r] = ring.vneg(np.asarray(w_value, dtype=np.int64))
        if not self.complex.is_cocycle(1, vec):
            raise ValueError("generator values do not define a 1-cocycle")
        return vec
