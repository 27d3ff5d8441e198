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
number-theoretic transforms", 2014). Between layers the forward transform
keeps its words in [0, 4q) and the inverse in [0, 2q); each twiddle product
is kernels.mulmod_shoup_lazy, corrected once into [0, 2q). Only the end of
the transform corrects to [0, q), two steps for the forward transform and
one for the inverse, so every output word is the canonical residue: the
bits are those of an exactly reduced butterfly network. The bounds hold for
every modulus ModContext accepts (q < 2^62, so 4q fits a word).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .kernels import addmod, mulmod_shoup_lazy, negmod, shoup, submod
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
        self.w_shoup = self._shoup_arr(w)
        n_inv = inv_mod(n, qv)
        self.n_inv = np.uint64(n_inv)
        self.n_inv_shoup = np.uint64(shoup(n_inv, qv))
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
        self.winv = winv
        self.winv_shoup = self._shoup_arr(winv)

    def _shoup_arr(self, arr: np.ndarray) -> np.ndarray:
        qv = self.q.value
        return np.array([shoup(int(x), qv) for x in arr], dtype=np.uint64)

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


# Layers whose butterfly span is at most _ROWS / 2 run on a transposed copy
# of the words: row r holds words r, r + _ROWS, r + 2 * _ROWS, ..., so every
# NumPy call in those layers runs over whole rows of n / _ROWS contiguous
# words instead of thousands of runs of one to sixteen. At 2^14 this took
# the forward transform from about 2.5 to 1.7 ms on a 2-core Xeon VM.
_ROWS = 32


def _layer_views(f: np.ndarray, g: int, half: int, cols: int, consts: tuple):
    """A layer of g butterfly groups of span half, on words laid out in cols
    columns: the (k, 2, half, cols) view of f and a (k, 1, cols) view of each
    length-g constant array, with k = g / cols."""
    k = g // cols
    return f.reshape(k, 2, half, cols), [c.reshape(cols, k).T.reshape(k, 1, cols) for c in consts]


def ntt_forward(p: ResiduePoly) -> ResiduePoly:
    """Coefficient order in, bit-reversed evaluation order out.

    Harvey's lazy butterflies: layer values stay in [0, 4q). Each layer
    brings x into [0, 2q), takes t = y*w lazily and corrects it into
    [0, 2q), and writes x + t and x + 2q - t. Two corrections at the end
    leave canonical residues.
    """
    if p.domain != "coeff":
        raise ValueError("ntt_forward expects a coefficient-domain polynomial")
    t = twiddle_table(p.q, p.n, p.twist)
    qv = np.uint64(t.q.value)
    q2 = qv + qv
    n = p.n
    rows = min(_ROWS, n)
    f = p.coeffs.copy()
    cols = 1
    half = n // 2
    base = 1
    while half:
        if 2 * half == rows:
            cols = n // rows
            f = f.reshape(cols, rows).T.copy()
        g = n // (2 * half)
        a, (wv, wq) = _layer_views(f, g, half, cols, (t.w[base : base + g], t.w_shoup[base : base + g]))
        x = a[:, 0]
        y = a[:, 1]
        u = mulmod_shoup_lazy(y, wv, wq, qv)
        np.minimum(u, u - q2, out=u)
        np.minimum(x, x - q2, out=x)
        np.add(x, q2, out=y)
        y -= u
        x += u
        base += g
        half //= 2
    np.minimum(f, f - q2, out=f)
    np.minimum(f, f - qv, out=f)
    return ResiduePoly(p.q, f.T.reshape(n), "eval", p.twist)


def ntt_inverse(p: ResiduePoly) -> ResiduePoly:
    """Bit-reversed evaluation order in, coefficient order out.

    Decimation-in-frequency. The n^-1 scaling is folded into the last
    layer: its sums are multiplied by n^-1 and its differences by a constant
    that carries it, so no separate scaling pass remains. Layer values stay
    in [0, 2q): s = u + v is corrected once into [0, 2q), d = u + 2q - v is
    multiplied lazily by its constant and corrected once, and one
    correction at the end leaves canonical residues.
    """
    if p.domain != "eval":
        raise ValueError("ntt_inverse expects an evaluation-domain polynomial")
    t = twiddle_table(p.q, p.n, p.twist)
    qv = np.uint64(t.q.value)
    q2 = qv + qv
    n = p.n
    rows = min(_ROWS, n)
    cols = n // rows
    f = p.coeffs.reshape(cols, rows).T.copy()
    half = 1
    while half < n:
        if half == rows:
            f = f.T.reshape(n)
            cols = 1
        g = n // (2 * half)
        a, (wv, wq) = _layer_views(f, g, half, cols, (t.winv[g : 2 * g], t.winv_shoup[g : 2 * g]))
        u = a[:, 0]
        v = a[:, 1]
        d = u + q2
        d -= v
        u += v
        s = u if g > 1 else mulmod_shoup_lazy(u, t.n_inv, t.n_inv_shoup, qv)
        np.minimum(s, s - q2, out=u)
        d = mulmod_shoup_lazy(d, wv, wq, qv)
        np.minimum(d, d - q2, out=v)
        half *= 2
    np.minimum(f, f - qv, out=f)
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
