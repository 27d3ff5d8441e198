"""Vectorized modular arithmetic on numpy uint64 arrays.

Every function returns canonical residues in [0, q), with q < 2^62, and
everything here is exact. Products that need 128 bits are synthesized from
32-bit partials; reductions use Shoup multiplication when one operand is a
precomputed constant and a two-word decomposition otherwise.

Lazy Shoup product. `mulmod_shoup_lazy` returns r = a*w - hi*q, where hi
is built from three 32x32 partials of a and the companion w' =
floor(w * 2^64 / q): ah*wh + (ah*wl >> 32) + (al*wh >> 32). It drops
al*wl and the carries of the two cross terms, whose fractional parts sum
to less than 3, so hi is at most 2 below floor(a*w'/2^64). The exact high
word leaves r < 2q for any 64-bit a; the estimate leaves r < 4q, which
fits a word because q < 2^62. The transforms in polyring keep their
butterfly values in [0, 4q) and reduce to [0, q) only at the end, so
every product there stays lazy.

Corrections. A value x in [0, 2c) is brought into [0, c) by
`np.minimum(x, x - c)`: when x < c the difference wraps around 2^64 to a
word above x, so the minimum keeps x; otherwise it is x - c. With c = q
this is the final correction, and with c = 2q it takes [0, 4q) to [0, 2q).
"""

from __future__ import annotations

import numpy as np

_M32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def mulhi64(a: np.ndarray, b) -> np.ndarray:
    """High 64 bits of the 128-bit product a*b (elementwise)."""
    # partials are formed in place, so that few full-length temporaries
    # are alive at once
    al = a & _M32
    ah = a >> _S32
    bl = b & _M32
    bh = b >> _S32
    t = al * bl
    t >>= _S32
    al *= bh  # al * bh
    bl = bl * ah  # ah * bl
    ah *= bh  # ah * bh
    # carry word cannot overflow: 3 * (2^32 - 1) < 2^64
    t += al & _M32
    t += bl & _M32
    t >>= _S32
    al >>= _S32
    bl >>= _S32
    ah += al
    ah += bl
    ah += t
    return ah


def shoup(w: int, q: int) -> int:
    """Precomputed companion floor(w * 2^64 / q) for mulmod_shoup."""
    return (w << 64) // q


def mulmod_shoup_lazy(a: np.ndarray, w, w_shoup, q: np.uint64) -> np.ndarray:
    """A word in [0, 4q) congruent to a * w mod q, for any 64-bit a.

    w < q is a constant with companion w_shoup = shoup(w, q); both may be
    arrays that broadcast against a.
    """
    wl = w_shoup & _M32
    wh = w_shoup >> _S32
    ah = a >> _S32
    hi = ah * wl
    hi >>= _S32
    t = a & _M32
    t *= wh
    t >>= _S32
    hi += t
    ah *= wh
    hi += ah
    hi *= q
    r = a * w
    r -= hi  # both products wrap mod 2^64; the difference is exact
    return r


def mulmod_shoup(a: np.ndarray, w, w_shoup, q: np.uint64) -> np.ndarray:
    """a * w mod q with w a constant < q and precomputed companion."""
    r = mulmod_shoup_lazy(a, w, w_shoup, q)
    np.minimum(r, r - (q + q), out=r)
    np.minimum(r, r - q, out=r)
    return r


def addmod(a: np.ndarray, b: np.ndarray, q: np.uint64) -> np.ndarray:
    s = a + b
    np.minimum(s, s - q, out=s)
    return s


def submod(a: np.ndarray, b: np.ndarray, q: np.uint64) -> np.ndarray:
    # a - b wraps to a word above 2^63 when a < b; adding q back wraps once
    # more to the residue, which is then the smaller of the two
    d = a - b
    np.minimum(d, d + q, out=d)
    return d


def negmod(a: np.ndarray, q: np.uint64) -> np.ndarray:
    d = q - a
    np.minimum(d, d - q, out=d)
    return d


class ModContext:
    """Per-modulus constants for vectorized reduction."""

    def __init__(self, q: int):
        if not (2 < q < 1 << 62):
            raise ValueError("modulus out of supported range")
        self.q = q
        self.qv = np.uint64(q)
        self.r64 = (1 << 64) % q
        self.r64v = np.uint64(self.r64)
        self.r64_shoup = np.uint64(shoup(self.r64, q))
        self.u64 = np.uint64((1 << 64) // q)

    def reduce_word(self, lo: np.ndarray) -> np.ndarray:
        """lo mod q for full uint64 words: a Shoup product by 1, since
        shoup(1, q) is floor(2^64 / q)."""
        return mulmod_shoup(lo, np.uint64(1), self.u64, self.qv)

    def reduce_pair(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """(hi * 2^64 + lo) mod q."""
        m1 = mulmod_shoup(hi, self.r64v, self.r64_shoup, self.qv)
        m2 = self.reduce_word(lo)
        return addmod(m1, m2, self.qv)

    def mulmod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """General elementwise a * b mod q."""
        return self.reduce_pair(mulhi64(a, b), a * b)

    def mulmod_scalar(self, a: np.ndarray, w: int) -> np.ndarray:
        """a * w mod q with w a runtime constant."""
        w %= self.q
        return mulmod_shoup(a, np.uint64(w), np.uint64(shoup(w, self.q)), self.qv)


_CTX_CACHE: dict[int, ModContext] = {}


def ctx(q: int) -> ModContext:
    c = _CTX_CACHE.get(q)
    if c is None:
        c = _CTX_CACHE[q] = ModContext(q)
    return c
