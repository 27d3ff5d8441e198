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

Twiddle tables. A ring's constants are grown, as the accelerator generates
its twiddles on the fly: stage s of the flat table starts from one seed
word and doubles s times, each doubling one vector product of the words so
far by a fixed power of gen (_grow). The inverse table is the same chain
from psi^-1 and gen^-1. The companions come from one vector identity
(ModContext.shoup), so no set-up step loops over words in Python, and a
TwiddleTable keeps only its laid-out layers: 3n words per ring for the
forward transform, and 3n more once the ring's first inverse transform
builds the inverse layers. Work that only transforms forward (keygen, key
loading, encoding, encryption) never builds them. The tests own the pow()
construction of the flat table that the layers are checked against.

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

import functools
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
    """Twiddle bases (psi, gen) for one ring.

    psi^n equals the ring constant x^n is congruent to and seeds each stage;
    gen, the order-2n root shared by all three rings, steps between the
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


@functools.cache
def _bitrev(n: int) -> np.ndarray:
    """The bit-reversal permutation of range(n), for n a power of two."""
    r = np.zeros(1, dtype=np.int64)
    while len(r) < n:
        r = np.concatenate([2 * r, 2 * r + 1])
    return r


# Layers whose butterfly span is at most _ROWS / 2 run on a transposed copy
# of the words, and a transform sets the ufunc buffer to _ROWS words (see
# the module docstring): natural layers then run over spans of at least 64
# words, transposed ones over n / 64 columns. 64 and 128 measured alike.
_ROWS = 64


def _grow(q: int, n: int, psi: int, gen: int) -> np.ndarray:
    """The flat table of every stage s: w[2^s + t] =
    psi^(n / 2^(s+1)) * gen^(2^(logn-s) bitrev(t, s)).

    Stage s starts from its one seed word psi^(n / 2^(s+1)) and doubles s
    times: step j appends the stage's words so far times gen^(n / 2^(j+1)),
    the factor that bit j of t contributes (bit s-1-j of bitrev(t, s)).
    w[0] belongs to no stage and is 1.
    """
    c = kernels.ctx(q)
    logn = n.bit_length() - 1
    steps = [pow(gen, n >> (j + 1), q) for j in range(logn - 1)]
    w = np.ones(n, dtype=np.uint64)
    for s in range(logn):
        g = 1 << s
        w[g] = pow(psi, n >> (s + 1), q)
        for j, h in enumerate(steps[:s]):
            w[g + (1 << j) : g + (2 << j)] = c.mulmod_scalar(w[g : g + (1 << j)], h)
    return w


class TwiddleTable:
    """Butterfly constants of one ring (q, n, twist), laid out per layer.

    Stage s (s = 0 is the widest layer) multiplies by the 2^s constants
    w[2^s + t] of the flat table that _grow makes from (psi, gen) =
    psi_for(q, n, twist): one seed word per stage, then multiplication
    chains, as the accelerator makes its twiddles. Since w[k]^-1 is the
    same product of psi^-1 and gen^-1, the inverse table is the same chain
    from those two words, with n^-1 folded into its one stage-0 word (the
    inverse transform's last layer). Only the laid-out layers are kept;
    the tests own the pow() construction of the flat table they are
    checked against.

    The forward layers are built with the table, the inverse ones on the
    first inverse transform of the ring (`inverse`, a cached property),
    as the accelerator grows its twiddles only when it needs them.
    """

    def __init__(self, q: PrimeModulus, n: int, twist: RingTwist):
        psi, gen = psi_for(q, n, twist)
        qv = q.value
        self.q = q
        self.n = n
        self._bases = (psi, gen)
        n_inv = inv_mod(n, qv)
        self.n_inv = np.uint64(n_inv)
        self.n_inv_halves = shoup_halves(np.uint64(shoup(n_inv, qv)))
        self.forward = self._layers(_grow(qv, n, psi, gen))

    @functools.cached_property
    def inverse(self) -> list:
        """The inverse transform's layers, built on first use: keygen, key
        loading, encoding and encryption transform only forward, so until
        a ring is first transformed back its table holds 3n words, not 6n."""
        qv = self.q.value
        psi, gen = self._bases
        winv = _grow(qv, self.n, inv_mod(psi, qv), inv_mod(gen, qv))
        winv[1] = int(winv[1]) * int(self.n_inv) % qv
        return self._layers(winv)

    def _layers(self, consts: np.ndarray) -> list:
        """(w, wl, wh) for each layer, g = 1, 2, ..., n/2: the layer's
        constants consts[g : 2g] and the halves of their companions, each
        contiguous and shaped (k, 1, cols) as the layer broadcasts them."""
        n = self.n
        wide = n // min(_ROWS, n)  # columns of a transposed layer
        halves = shoup_halves(kernels.ctx(self.q.value).shoup(consts))
        laid = [np.empty(n, dtype=np.uint64) for _ in range(3)]
        layers = []
        for s in range(n.bit_length() - 1):
            g = 1 << s
            cols = wide if g >= wide else 1
            views = []
            for src, dst in zip((consts, *halves), laid):
                dst[g : 2 * g].reshape(g // cols, cols)[...] = src[g : 2 * g].reshape(cols, -1).T
                views.append(dst[g : 2 * g].reshape(g // cols, 1, cols))
            layers.append(tuple(views))
        return layers


@functools.cache
def twiddle_table(q: PrimeModulus, n: int, twist: RingTwist) -> TwiddleTable:
    """The table of one ring, built once."""
    return TwiddleTable(q, n, twist)


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


def dyadic(kind: str, a: ResiduePoly, b: ResiduePoly, acc: Optional[ResiduePoly] = None,
           b_halves=None) -> ResiduePoly:
    """Elementwise evaluation-domain arithmetic (add/sub/mul/mac). A caller
    that multiplies b more than once may pass its Shoup companions, as
    `ModContext.mulmod` takes them, in `b_halves`."""
    if not a.compatible(b):
        raise ValueError("dyadic operands live in different rings or domains")
    c = kernels.ctx(a.q.value)
    if kind == "add":
        out = addmod(a.coeffs, b.coeffs, c.qv)
    elif kind == "sub":
        out = submod(a.coeffs, b.coeffs, c.qv)
    elif kind == "mul":
        out = c.mulmod(a.coeffs, b.coeffs, b_halves)
    elif kind == "mac":
        if acc is None or not acc.compatible(a):
            raise ValueError("mac needs a compatible accumulator")
        prod = c.mulmod(a.coeffs, b.coeffs, b_halves)
        out = addmod(acc.coeffs, prod, c.qv, out=prod)
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


def eval_exponents(n: int) -> np.ndarray:
    """Exponent e_k with eval slot k holding the value at psi^e_k."""
    return (2 * _bitrev(n) + 1) % (2 * n)


def automorphism_perm(n: int, g: int) -> np.ndarray:
    """Slot permutation realizing a(x) -> a(x^g) in the evaluation domain."""
    if g % 2 == 0:
        raise ValueError("Galois element must be odd")
    return _perm(n, g % (2 * n))


@functools.cache
def _perm(n: int, g: int) -> np.ndarray:
    src_exp = (eval_exponents(n) * g) % (2 * n)
    return _bitrev(n)[(src_exp - 1) >> 1]


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
