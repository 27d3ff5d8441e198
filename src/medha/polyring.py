"""Residue polynomials over power-of-two cyclotomic quotients and their twists.

Ring family: Z_q[x]/(x^n - c) with c = -1 (standard negacyclic ring) or
c = +/- zeta^n for zeta the canonical primitive 4n-th root (the two factors
the degree-2n ring splits into). One butterfly network serves all three:
only the twiddle base psi changes (zeta^2, zeta, zeta^3 respectively).

The forward transform is a merged-twiddle decimation-in-time pass taking
natural coefficient order to bit-reversed evaluation order; the inverse is
the matching decimation-in-frequency pass with the n^-1 scaling folded into
its last layer. Composing them is the identity with no permutation and no
separate scaling pass.

Both transforms reduce lazily (Harvey, "Faster arithmetic for
number-theoretic transforms", 2014); each twiddle product is
kernels.mulmod_shoup_lazy, below 4q for any word. The forward transform
tracks a bound b*q on its words from layer to layer. A layer adds at most
4q, and it corrects only when the next bound would not fit a word: a
54-bit modulus never corrects between layers, a 60-bit one every four or
five layers, and a modulus near 2^62 every layer, as Harvey's fixed [0, 4q)
does. The inverse tracks one too: its sums double the bound and its
products reset their half below 4q, so at 2^14 a 54-bit modulus corrects
its sums in layers 9 to 13 of 14, a 60-bit one from the third layer on,
and a modulus above 2^61 also corrects every product. Only the end of a transform reduces to [0, q), so every output word is the
canonical residue: the bits are those of an exactly reduced butterfly
network. The bounds hold for every modulus ModContext accepts (q < 2^62, so
4q fits a word).

Layout. Layers whose butterfly span is at least _ROWS (64) words run on
the words in natural order; the narrower ones run on a transposed copy
(row r holds words r, r + 64, r + 128, ...), so their NumPy calls run over
rows of n / 64 contiguous words. Each TwiddleTable lays out every layer's
constants once, in the shape the layer broadcasts them, (k, 1, cols): w and
the two 32-bit halves of its Shoup companion, contiguous. A transform
writes its lazy products and corrections with out= into one scratch block
of n words, reused by every layer.

Unbuffered calls. Where an operand is broadcast or strided and its
contiguous run is shorter than the ufunc buffer (8192 elements by
default), NumPy copies it through that buffer, and a layer call ran
1.6-2.6x slower per word than a flat one. Each transform therefore sets
np.setbufsize(_ROWS), the shortest run of its layer views at n >= 2^12,
and restores the caller's size in a finally, so NumPy's state outside a
transform does not change. The size is context-local in NumPy 2 and
thread-global in NumPy 1.x, which requires a multiple of 16; 64 is both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .kernels import addmod, mulmod_shoup_lazy, negmod, shoup, shoup_halves, submod
from .modarith import PrimeModulus, find_root_of_unity, inv_mod

MIN_N = 8


@dataclass(frozen=True)
class RingTwist:
    """Which factor ring a polynomial lives in."""

    kind: str  # "standard" | "plus" | "minus"

    def __post_init__(self):
        if self.kind not in ("standard", "plus", "minus"):
            raise ValueError(f"unknown twist {self.kind!r}")


STANDARD = RingTwist("standard")
PLUS = RingTwist("plus")
MINUS = RingTwist("minus")


@dataclass
class ResiduePoly:
    """One limb: n coefficients (or evaluations) mod a single prime."""

    q: PrimeModulus
    coeffs: np.ndarray  # uint64, canonical residues
    domain: str  # "coeff" | "eval"
    twist: RingTwist = STANDARD

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def copy(self) -> "ResiduePoly":
        return ResiduePoly(self.q, self.coeffs.copy(), self.domain, self.twist)

    def compatible(self, other: "ResiduePoly") -> bool:
        return (
            self.q.value == other.q.value
            and self.n == other.n
            and self.domain == other.domain
            and self.twist == other.twist
        )


def _check_n(n: int) -> None:
    if n < MIN_N or n & (n - 1):
        raise ValueError(f"ring degree must be a power of two >= {MIN_N}, got {n}")


def zeta_4n(q: PrimeModulus, n: int) -> int:
    """Canonical primitive 4n-th root of unity mod q."""
    return find_root_of_unity(q.value, 4 * n)


def psi_for(q: PrimeModulus, n: int, twist: RingTwist) -> tuple[int, int]:
    """Twiddle bases (psi, psi_gen) for one ring.

    psi^n equals the ring constant x^n is congruent to and seeds each stage;
    psi_gen, the order-2n root shared by all three rings, steps between the
    constants within a stage.
    """
    _check_n(n)
    qv = q.value
    if twist.kind == "standard":
        if (qv - 1) % (4 * n) == 0:
            z = zeta_4n(q, n)
            psi = z * z % qv
        else:
            psi = find_root_of_unity(qv, 2 * n)
        return psi, psi
    z = zeta_4n(q, n)
    gen = z * z % qv
    if twist.kind == "plus":
        return z, gen
    return pow(z, 3, qv), gen


def _bitrev_array(n: int) -> np.ndarray:
    logn = n.bit_length() - 1
    r = np.zeros(n, dtype=np.int64)
    for i in range(1, n):
        r[i] = (r[i >> 1] >> 1) | ((i & 1) << (logn - 1))
    return r


# Layers whose butterfly span is at most _ROWS / 2 run on a transposed copy
# of the words, and a transform sets the ufunc buffer to _ROWS words (see
# the module docstring): natural layers then run over spans of at least 64
# words, transposed ones over n / 64 columns. 64 and 128 measured alike.
_ROWS = 64


class TwiddleTable:
    """Butterfly constants for one (q, n, psi), grown from per-stage seeds.

    Stage s (s = 0 is the widest) needs the 2^s constants
    w[2^s + t] = seed_s * gen_s^bitrev(t, s), with seed_s = psi^(n / 2^(s+1))
    and gen_s = psi_gen^(2^(logn-s)). They are regenerated from those two
    stored words per stage by pure multiplication chains; pow() appears only
    in the seeds and in the reference table used to cross-check the chains.
    """

    def __init__(self, q: PrimeModulus, n: int, psi: int, psi_gen: Optional[int] = None):
        _check_n(n)
        self.q = q
        self.n = n
        self.psi = psi
        self.psi_gen = psi if psi_gen is None else psi_gen
        self.logn = n.bit_length() - 1
        qv = q.value
        self.stage_seeds = [
            (pow(psi, n >> (s + 1), qv), pow(self.psi_gen, 1 << (self.logn - s), qv))
            for s in range(self.logn)
        ]
        w = np.empty(n, dtype=np.uint64)
        w[0] = 1
        for s in range(self.logn):
            w[1 << s : 2 << s] = self.regenerate_stage(s)
        self.w = w
        n_inv = inv_mod(n, qv)
        self.n_inv = np.uint64(n_inv)
        self.n_inv_halves = shoup_halves(np.uint64(shoup(n_inv, qv)))
        # w[k]^-1 = (psi^-1)^bitrev(k), so the inverse table is just a second
        # seed chain. Stage 0, the inverse transform's last layer, also
        # carries the n^-1 scaling.
        psi_inv = inv_mod(psi, qv)
        gen_inv = inv_mod(self.psi_gen, qv)
        inv_seeds = [
            (
                pow(psi_inv, n >> (s + 1), qv) * (n_inv if s == 0 else 1) % qv,
                pow(gen_inv, 1 << (self.logn - s), qv),
            )
            for s in range(self.logn)
        ]
        winv = np.empty(n, dtype=np.uint64)
        winv[0] = n_inv
        saved = self.stage_seeds
        try:
            self.stage_seeds = inv_seeds
            for s in range(self.logn):
                winv[1 << s : 2 << s] = self.regenerate_stage(s)
        finally:
            self.stage_seeds = saved
        self.forward = self._layers(w)
        self.inverse = self._layers(winv)

    def _layers(self, consts: np.ndarray) -> list:
        """(w, wl, wh) for each layer, g = 1, 2, ..., n/2: the layer's
        constants consts[g : 2g] and the halves of their companions, each
        contiguous and shaped (k, 1, cols) as the layer broadcasts them."""
        n = self.n
        wide = n // min(_ROWS, n)  # columns of a transposed layer
        qv = self.q.value
        halves = shoup_halves(np.array([shoup(x, qv) for x in consts.tolist()], dtype=np.uint64))
        laid = [np.empty(n, dtype=np.uint64) for _ in range(3)]
        layers = []
        for s in range(self.logn):
            g = 1 << s
            cols = wide if g >= wide else 1
            views = []
            for src, dst in zip((consts, *halves), laid):
                dst[g : 2 * g].reshape(g // cols, cols)[...] = src[g : 2 * g].reshape(cols, -1).T
                views.append(dst[g : 2 * g].reshape(g // cols, 1, cols))
            layers.append(tuple(views))
        return layers

    def regenerate_stage(self, s: int) -> np.ndarray:
        """Stage constants from the stored seed pair, multiplications only."""
        qv = self.q.value
        seed, gen = self.stage_seeds[s]
        # h_j = gen^(2^(s-1-j)) by a downward squaring chain
        chain = [gen]
        for _ in range(s - 1):
            chain.append(chain[-1] * chain[-1] % qv)
        vals = [seed]
        for h in reversed(chain[: max(s, 0)]):
            vals = vals + [v * h % qv for v in vals]
        return np.array(vals[: 1 << s], dtype=np.uint64)

    def reference_stage(self, s: int) -> np.ndarray:
        """Direct pow() construction of the same constants (test oracle)."""
        qv = self.q.value
        seed = pow(self.psi, self.n >> (s + 1), qv)
        step = pow(self.psi_gen, 1 << (self.logn - s), qv)
        br = _bitrev_array(1 << s) if s else np.zeros(1, dtype=np.int64)
        return np.array(
            [seed * pow(step, int(br[t]), qv) % qv for t in range(1 << s)],
            dtype=np.uint64,
        )


_TWIDDLE_CACHE: dict[tuple[int, int, int, int], TwiddleTable] = {}
_PSI_CACHE: dict[tuple[int, int, str], tuple[int, int]] = {}


def _psi(q: PrimeModulus, n: int, twist: RingTwist) -> tuple[int, int]:
    key = (q.value, n, twist.kind)
    v = _PSI_CACHE.get(key)
    if v is None:
        v = _PSI_CACHE[key] = psi_for(q, n, twist)
    return v


def twiddle_table(q: PrimeModulus, n: int, twist: RingTwist) -> TwiddleTable:
    psi, psi_gen = _psi(q, n, twist)
    key = (q.value, n, psi, psi_gen)
    t = _TWIDDLE_CACHE.get(key)
    if t is None:
        t = _TWIDDLE_CACHE[key] = TwiddleTable(q, n, psi, psi_gen)
    return t


def _settle(f: np.ndarray, b: int, q: int, tmp: np.ndarray) -> None:
    """Halve a bound b*q on the words of f until they are canonical
    residues, in place; tmp is a scratch array of f's shape."""
    while b > 1:
        b = (b + 1) // 2
        np.subtract(f, np.uint64(b * q), out=tmp)
        np.minimum(f, tmp, out=f)


def ntt_forward(p: ResiduePoly) -> ResiduePoly:
    """Coefficient order in, bit-reversed evaluation order out.

    Harvey's lazy butterflies with a tracked bound: every word of a layer
    is below b*q, and b starts at 1. A layer takes t = y*w lazily (below
    4q for any word y) and writes x + t and x + 4q - t, below (b + 4)q.
    Only when that would not fit a word does the layer first correct x
    into [0, ceil(b/2) q), and then, if still needed, t into [0, 2q)
    (writing x + 2q - t). Since q < 2^62, 4q fits, so those two
    corrections always suffice. The end halves the bound until it is 1,
    which leaves canonical residues.
    """
    if p.domain != "coeff":
        raise ValueError("ntt_forward expects a coefficient-domain polynomial")
    t = twiddle_table(p.q, p.n, p.twist)
    q = t.q.value
    qv = np.uint64(q)
    q2 = qv + qv
    fits = (1 << 64) // q  # a bound b*q fits a word while b <= fits
    n = p.n
    f = p.coeffs.copy()
    scratch = np.empty(n, dtype=np.uint64)
    b = 1
    bufsize = np.setbufsize(_ROWS)
    try:
        for w, wl, wh in t.forward:
            k, _, cols = w.shape
            if cols > 1 and f.ndim == 1:
                f = f.reshape(cols, n // cols).T.copy()
            half = n // (2 * k * cols)
            a = f.reshape(k, 2, half, cols)
            x = a[:, 0]
            y = a[:, 1]
            u, tmp = scratch.reshape(2, k, half, cols)
            mulmod_shoup_lazy(y, w, (wl, wh), qv, out=u, tmp=tmp)
            grow = 4
            if b + grow > fits and b > 1:
                b = (b + 1) // 2
                np.subtract(x, np.uint64(b * q), out=tmp)
                np.minimum(x, tmp, out=x)
            if b + grow > fits:
                grow = 2
                np.subtract(u, q2, out=tmp)
                np.minimum(u, tmp, out=u)
            b += grow
            np.add(x, np.uint64(grow * q), out=y)
            y -= u
            x += u
        _settle(f, b, q, scratch.reshape(f.shape))
    finally:
        np.setbufsize(bufsize)
    return ResiduePoly(p.q, f.T.reshape(n), "eval", p.twist)


def ntt_inverse(p: ResiduePoly) -> ResiduePoly:
    """Bit-reversed evaluation order in, coefficient order out.

    Decimation-in-frequency. The n^-1 scaling is folded into the last
    layer: its sums are multiplied by n^-1 and its differences by a constant
    that carries it, so no separate scaling pass remains.

    Lazy, with a tracked bound like the forward transform: every word of a
    layer is below b*q, and b starts at 1. A layer writes s = u + v and
    d = u + bq - v, both below 2bq, and replaces d by its lazy product
    with the layer constant, below 4q. So the next bound is max(2b, 4),
    and the sums are corrected back below bq only when twice that bound
    would not fit a word, which keeps d in a word. Above 2^61 (8q does not
    fit) the products are corrected into [0, 2q) as well, and the bound
    stays at 2. The last layer leaves every word below 4q, and two
    corrections leave canonical residues.
    """
    if p.domain != "eval":
        raise ValueError("ntt_inverse expects an evaluation-domain polynomial")
    t = twiddle_table(p.q, p.n, p.twist)
    q = t.q.value
    qv = np.uint64(q)
    q2 = qv + qv
    fits = (1 << 64) // q  # a bound b*q fits a word while b <= fits
    prod_b = 4 if fits >= 8 else 2  # the bound of a layer's products
    n = p.n
    rows = min(_ROWS, n)
    f = p.coeffs.reshape(n // rows, rows).T.copy()
    scratch = np.empty(n, dtype=np.uint64)
    b = 1
    bufsize = np.setbufsize(_ROWS)
    try:
        for w, wl, wh in reversed(t.inverse):
            k, _, cols = w.shape
            if cols == 1 and f.ndim == 2:
                f = f.T.reshape(n)
            half = n // (2 * k * cols)
            a = f.reshape(k, 2, half, cols)
            u = a[:, 0]
            v = a[:, 1]
            d, s = scratch.reshape(2, k, half, cols)
            np.add(u, np.uint64(b * q), out=d)
            d -= v
            if k * cols == 1:  # the last layer: the sums take n^-1 too
                np.add(u, v, out=s)
                mulmod_shoup_lazy(d, w, (wl, wh), qv, out=v, tmp=u)
                mulmod_shoup_lazy(s, t.n_inv, t.n_inv_halves, qv, out=u, tmp=d)
                b = 4
                continue
            u += v
            if 4 * b > fits:
                np.subtract(u, np.uint64(b * q), out=s)
                np.minimum(u, s, out=u)
            else:
                b *= 2
            mulmod_shoup_lazy(d, w, (wl, wh), qv, out=v, tmp=s)
            if prod_b == 2:
                np.subtract(v, q2, out=s)
                np.minimum(v, s, out=v)
            b = max(b, prod_b)
        _settle(f, b, q, scratch.reshape(f.shape))
    finally:
        np.setbufsize(bufsize)
    return ResiduePoly(p.q, f.T.reshape(n), "coeff", p.twist)


def dyadic(kind: str, a: ResiduePoly, b: ResiduePoly, acc: Optional[ResiduePoly] = None) -> ResiduePoly:
    """Elementwise evaluation-domain arithmetic (add/sub/mul/mac)."""
    if not a.compatible(b):
        raise ValueError("dyadic operands live in different rings or domains")
    c = kernels.ctx(a.q.value)
    if kind == "add":
        out = addmod(a.coeffs, b.coeffs, c.qv)
    elif kind == "sub":
        out = submod(a.coeffs, b.coeffs, c.qv)
    elif kind == "mul":
        out = c.mulmod(a.coeffs, b.coeffs)
    elif kind == "mac":
        if acc is None or not acc.compatible(a):
            raise ValueError("mac needs a compatible accumulator")
        out = addmod(acc.coeffs, c.mulmod(a.coeffs, b.coeffs), c.qv)
    else:
        raise ValueError(f"unknown dyadic kind {kind!r}")
    return ResiduePoly(a.q, out, a.domain, a.twist)


def scalar_mul(p: ResiduePoly, c: int) -> ResiduePoly:
    k = kernels.ctx(p.q.value)
    return ResiduePoly(p.q, k.mulmod_scalar(p.coeffs, c), p.domain, p.twist)


def negacyclic_mul(a: ResiduePoly, b: ResiduePoly) -> ResiduePoly:
    """Exact product in the ring, via transform / dyadic / inverse transform."""
    if a.domain != "coeff" or not a.compatible(b):
        raise ValueError("negacyclic_mul expects matching coefficient-domain inputs")
    return ntt_inverse(dyadic("mul", ntt_forward(a), ntt_forward(b)))


_BITREV_CACHE: dict[int, np.ndarray] = {}
_PERM_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _bitrev(n: int) -> np.ndarray:
    r = _BITREV_CACHE.get(n)
    if r is None:
        r = _BITREV_CACHE[n] = _bitrev_array(n)
    return r


def eval_exponents(n: int) -> np.ndarray:
    """Exponent e_k with eval slot k holding the value at psi^e_k."""
    return (2 * _bitrev(n) + 1) % (2 * n)


def automorphism_perm(n: int, g: int) -> np.ndarray:
    """Slot permutation realizing a(x) -> a(x^g) in the evaluation domain."""
    if g % 2 == 0:
        raise ValueError("Galois element must be odd")
    key = (n, g % (2 * n))
    p = _PERM_CACHE.get(key)
    if p is None:
        e = eval_exponents(n)
        src_exp = (e * (g % (2 * n))) % (2 * n)
        p = _bitrev(n)[(src_exp - 1) >> 1]
        _PERM_CACHE[key] = p
    return p


def automorphism(p: ResiduePoly, g: int) -> ResiduePoly:
    """Evaluation-domain Galois map; standard twist only."""
    if p.domain != "eval" or p.twist != STANDARD:
        raise ValueError("evaluation-domain automorphism needs a standard-ring eval poly")
    perm = automorphism_perm(p.n, g)
    return ResiduePoly(p.q, p.coeffs[perm], "eval", p.twist)


def automorphism_coeff(p: ResiduePoly, g: int) -> ResiduePoly:
    """Coefficient-domain Galois map a(x) -> a(x^g) with x^n = -1 wrapping."""
    if p.domain != "coeff" or p.twist != STANDARD:
        raise ValueError("coefficient-domain automorphism needs a standard-ring coeff poly")
    if g % 2 == 0:
        raise ValueError("Galois element must be odd")
    n = p.n
    j = np.arange(n, dtype=np.int64)
    e = (j * (g % (2 * n))) % (2 * n)
    idx = e % n
    flip = e >= n
    qv = np.uint64(p.q.value)
    out = np.zeros(n, dtype=np.uint64)
    out[idx] = np.where(flip, negmod(p.coeffs, qv), p.coeffs)
    return ResiduePoly(p.q, out, "coeff", p.twist)
