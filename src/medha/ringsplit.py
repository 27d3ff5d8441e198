"""Divide-and-conquer factorization of one large negacyclic ring into two halves.

Over a prime q with a primitive root zeta of order twice the parent degree,
x^(2h) + 1 = (x^h - zeta^h)(x^h + zeta^h). A degree-2h polynomial maps to its
pair of degree-h images by a stride-h linear combine, and back by the inverse
combine; both directions are coefficient-domain, one multiply per output word.
Ring arithmetic (add, multiply, rescale-style scaling) commutes with the map,
so a large-ring workload can run entirely in the two half-size rings.

The split is exactly the first butterfly layer of the full-degree transform:
a degree-2h evaluation vector is the plus-ring evaluations, then the minus
ones (`eval_halves` and `eval_whole` slice and join it). So a limb needs one
layout, computed at full degree; the pair maps here are the references that
full-degree transform is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import addmod, submod
from .modarith import PrimeModulus, inv_mod
from .polyring import MINUS, PLUS, STANDARD, ResiduePoly, ntt_forward, ntt_inverse, zeta_4n


@dataclass
class SplitPair:
    """Images of one parent-ring polynomial in the two factor rings."""

    plus: ResiduePoly
    minus: ResiduePoly


def _split_consts(q: PrimeModulus, h: int) -> tuple[int, int, int]:
    """(zeta^h, inv2, zeta^-h * inv2) for half degree h."""
    qv = q.value
    z = zeta_4n(q, h)
    zh = pow(z, h, qv)
    inv2 = inv_mod(2, qv)
    return zh, inv2, inv_mod(zh, qv) * inv2 % qv


def split(parent: ResiduePoly) -> SplitPair:
    """Parent coefficients (degree 2h) to the two half-ring images."""
    if parent.domain != "coeff" or parent.twist != STANDARD:
        raise ValueError("split expects a standard-ring coefficient-domain polynomial")
    h = parent.n // 2
    zh, _, _ = _split_consts(parent.q, h)
    k = kernels.ctx(parent.q.value)
    lo = parent.coeffs[:h]
    hi = k.mulmod_scalar(parent.coeffs[h:], zh)
    plus = ResiduePoly(parent.q, addmod(lo, hi, k.qv), "coeff", PLUS)
    minus = ResiduePoly(parent.q, submod(lo, hi, k.qv), "coeff", MINUS)
    return SplitPair(plus, minus)


def join(pair: SplitPair) -> ResiduePoly:
    """Inverse of split: reassemble the parent-ring coefficients."""
    p, m = pair.plus, pair.minus
    if p.domain != "coeff" or m.domain != "coeff":
        raise ValueError("join expects coefficient-domain halves")
    if p.twist != PLUS or m.twist != MINUS or p.q.value != m.q.value or p.n != m.n:
        raise ValueError("join expects a matched plus/minus pair")
    h = p.n
    _, inv2, zinv2 = _split_consts(p.q, h)
    k = kernels.ctx(p.q.value)
    out = np.empty(2 * h, dtype=np.uint64)
    out[:h] = k.mulmod_scalar(addmod(p.coeffs, m.coeffs, k.qv), inv2)
    out[h:] = k.mulmod_scalar(submod(p.coeffs, m.coeffs, k.qv), zinv2)
    return ResiduePoly(p.q, out, "coeff", STANDARD)


def forward_pair(pair: SplitPair) -> SplitPair:
    """Both halves into the evaluation domain."""
    return SplitPair(ntt_forward(pair.plus), ntt_forward(pair.minus))


def inverse_pair(pair: SplitPair) -> SplitPair:
    """Both halves back to the coefficient domain."""
    return SplitPair(ntt_inverse(pair.plus), ntt_inverse(pair.minus))


def eval_halves(limb: ResiduePoly) -> SplitPair:
    """Full-degree evaluation vector to its plus and minus half-ring evaluations.

    The halves are views of the limb's words, not copies.
    """
    if limb.domain != "eval" or limb.twist != STANDARD:
        raise ValueError("eval_halves expects a standard-ring evaluation-domain limb")
    h = limb.n // 2
    return SplitPair(
        ResiduePoly(limb.q, limb.coeffs[:h], "eval", PLUS),
        ResiduePoly(limb.q, limb.coeffs[h:], "eval", MINUS),
    )


def eval_whole(pair: SplitPair) -> ResiduePoly:
    """Inverse of eval_halves: the full-degree evaluation vector, plus then minus."""
    p, m = pair.plus, pair.minus
    if p.domain != "eval" or m.domain != "eval":
        raise ValueError("eval_whole expects evaluation-domain halves")
    if p.twist != PLUS or m.twist != MINUS or p.q.value != m.q.value or p.n != m.n:
        raise ValueError("eval_whole expects a matched plus/minus pair")
    return ResiduePoly(p.q, np.concatenate([p.coeffs, m.coeffs]), "eval", STANDARD)
