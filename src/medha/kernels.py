"""Vectorized modular arithmetic on numpy uint64 arrays.

Every function returns canonical residues in [0, q), with q < 2^62 odd,
and everything here is exact. Products that need 128 bits are synthesized
from 32-bit partials. Every general product is a Shoup product: against a
precomputed companion when one operand is a constant, and otherwise
against the second operand's own companions, which `ModContext.shoup`
forms without division (`ModContext.mulmod`).

Lazy Shoup product. `mulmod_shoup_lazy` returns r = a*w - hi*q, where hi
is built from three 32x32 partials of a and the companion w' =
floor(w * 2^64 / q): ah*wh + (ah*wl >> 32) + (al*wh >> 32). It drops
al*wl and the carries of the two cross terms, whose fractional parts sum
to less than 3, so hi is at most 2 below floor(a*w'/2^64). The exact high
word leaves r < 2q for any 64-bit a; the estimate leaves r < 4q, which
fits a word because q < 2^62. The transforms in polyring keep their
butterfly values below a bound they track and reduce to [0, q) only at the
end, so every product there stays lazy. They pass the companion's halves,
laid out once per table, and buffers for the product and its one
temporary, so a layer allocates nothing.

Companions. `ModContext.shoup` forms the companions of a whole table with
no division: for a residue x < q and odd q, floor(x * 2^64 / q) is
-r * q^-1 mod 2^64, where r = x * 2^64 mod q is one Shoup product.

Corrections. A value x in [0, 2c) is brought into [0, c) by
`np.minimum(x, x - c)`: when x < c the difference wraps around 2^64 to a
word above x, so the minimum keeps x; otherwise it is x - c. With c = q
this is the final correction, with c = 2q it takes [0, 4q) to [0, 2q), and
with c = ceil(b/2) q it halves a bound b*q.
"""

from __future__ import annotations

import functools

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


def shoup_halves(w_shoup):
    """The low and high 32-bit halves of a Shoup companion, as
    mulmod_shoup_lazy takes them."""
    return w_shoup & _M32, w_shoup >> _S32


def mulmod_shoup_lazy(a: np.ndarray, w, w_shoup, q: np.uint64, out=None, tmp=None) -> np.ndarray:
    """A word in [0, 4q) congruent to a * w mod q, for any 64-bit a.

    w < q is a constant with companion w_shoup = shoup(w, q), given whole
    or as its halves shoup_halves(w_shoup); both may be arrays that
    broadcast against a. The product is written to out, and tmp is
    overwritten; each is allocated when not given, and neither may
    overlap a.
    """
    wl, wh = w_shoup if isinstance(w_shoup, tuple) else shoup_halves(w_shoup)
    r = np.right_shift(a, _S32, out=out)
    hi = np.multiply(r, wl, out=tmp)
    hi >>= _S32
    r *= wh
    hi += r
    np.bitwise_and(a, _M32, out=r)
    r *= wh
    r >>= _S32
    hi += r
    hi *= q
    np.multiply(a, w, out=r)
    r -= hi  # both products wrap mod 2^64; the difference is exact
    return r


def mulmod_shoup(a: np.ndarray, w, w_shoup, q: np.uint64) -> np.ndarray:
    """a * w mod q with w a constant < q and precomputed companion."""
    r = mulmod_shoup_lazy(a, w, w_shoup, q)
    np.minimum(r, r - (q + q), out=r)
    np.minimum(r, r - q, out=r)
    return r


def addmod(a: np.ndarray, b: np.ndarray, q: np.uint64, out=None) -> np.ndarray:
    """(a + b) mod q, written to `out` (which may be a or b) when given."""
    s = np.add(a, b, out=out)
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
        if not (2 < q < 1 << 62) or q % 2 == 0:
            raise ValueError("modulus must be odd and in (2, 2^62)")
        self.q = q
        self.qv = np.uint64(q)
        r64 = (1 << 64) % q
        self.r64v = np.uint64(r64)
        self.r64_halves = shoup_halves(np.uint64(shoup(r64, q)))
        self.u64_halves = shoup_halves(np.uint64((1 << 64) // q))

    def reduce_word(self, lo: np.ndarray) -> np.ndarray:
        """lo mod q for full uint64 words: a Shoup product by 1, since
        shoup(1, q) is floor(2^64 / q)."""
        return mulmod_shoup(lo, np.uint64(1), self.u64_halves, self.qv)

    def reduce_pair(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """(hi * 2^64 + lo) mod q."""
        m1 = mulmod_shoup(hi, self.r64v, self.r64_halves, self.qv)
        m2 = self.reduce_word(lo)
        return addmod(m1, m2, self.qv)

    def mulmod(self, a: np.ndarray, b: np.ndarray, b_halves=None) -> np.ndarray:
        """a * b mod q for residues a, b < q: a Shoup product against b's own
        companions. A caller that multiplies b again passes them as
        `shoup_halves(self.shoup(b))`, and the product runs in one piece;
        otherwise they are formed here, in slices of MUL_SLICE words for
        1-D operands."""
        if b_halves is not None or not (a.ndim == b.ndim == 1 and len(a) > MUL_SLICE):
            return mulmod_shoup(a, b, self.shoup(b) if b_halves is None else b_halves, self.qv)
        out = np.empty(len(a), dtype=np.uint64)
        for k in range(0, len(a), MUL_SLICE):
            s = slice(k, k + MUL_SLICE)
            out[s] = mulmod_shoup(a[s], b[s], self.shoup(b[s]), self.qv)
        return out

    def mulmod_scalar(self, a: np.ndarray, w: int) -> np.ndarray:
        """a * w mod q with w a runtime constant."""
        w %= self.q
        return mulmod_shoup(a, np.uint64(w), shoup_halves(np.uint64(shoup(w, self.q))), self.qv)

    def shoup(self, words: np.ndarray) -> np.ndarray:
        """The Shoup companions floor(x * 2^64 / q) of residues x < q.

        With r = x * 2^64 mod q, x * 2^64 = floor(x * 2^64 / q) * q + r, so
        the companion is congruent to -r * q^-1 mod 2^64; q^-1 exists
        because q is odd. Since x < q the companion is below 2^64, so that
        residue is the companion itself, and no word is divided.
        """
        r = mulmod_shoup(words, self.r64v, self.r64_halves, self.qv)
        np.negative(r, out=r)
        r *= np.uint64(pow(self.q, -1, 1 << 64))
        return r


# Words per slice of a general product. Its temporaries then stay at
# 64 KB: a 2^15-word product in one piece took 0.70-0.75 ms, in 2^13-word
# slices 0.44-0.46 ms (min and median of 300 runs, 2-core Xeon VM).
MUL_SLICE = 1 << 13


@functools.cache
def ctx(q: int) -> ModContext:
    return ModContext(q)
