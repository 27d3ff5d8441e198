"""Half-ring factorization: the split map and its arithmetic homomorphism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medha.params import get_param_set
from medha.polyring import (
    MINUS,
    PLUS,
    STANDARD,
    ResiduePoly,
    dyadic,
    negacyclic_mul,
    ntt_forward,
    ntt_inverse,
    zeta_4n,
)
from medha.ringsplit import (
    SplitPair,
    _split_consts,
    eval_halves,
    eval_whole,
    forward_pair,
    inverse_pair,
    join,
    split,
)

_MODULI = {
    m.value: m
    for name in ("set1", "set2")
    for m in get_param_set(name).base.all_moduli
}


def _rand_parent(rng, q, n):
    c = rng.integers(0, q.value, size=n, dtype=np.uint64)
    return ResiduePoly(q, c, "coeff", STANDARD)


def test_split_constant_squares_to_minus_one(set1, set2):
    for q in set1.base.all_moduli + set2.base.all_moduli:
        for h in (8, 64, 1 << 14):
            zh, inv2, zinv2 = _split_consts(q, h)
            assert zh * zh % q.value == q.value - 1
            assert inv2 * 2 % q.value == 1
            assert zinv2 * 2 % q.value * zh % q.value == 1


def test_join_split_roundtrip(set1):
    rng = np.random.default_rng(31)
    for q in (set1.base.primes[0], set1.base.special):
        for n in (16, 64, 512):
            for _ in range(20):
                p = _rand_parent(rng, q, n)
                pair = split(p)
                assert pair.plus.twist == PLUS and pair.minus.twist == MINUS
                back = join(pair)
                assert np.array_equal(back.coeffs, p.coeffs)
    # the opposite composition is also the identity
    pair = split(_rand_parent(rng, set1.base.primes[1], 128))
    again = split(join(pair))
    assert np.array_equal(again.plus.coeffs, pair.plus.coeffs)
    assert np.array_equal(again.minus.coeffs, pair.minus.coeffs)


def test_split_add_sub_commute(set1):
    rng = np.random.default_rng(32)
    q = set1.base.primes[2]
    n = 64
    for kind in ("add", "sub"):
        a = _rand_parent(rng, q, n)
        b = _rand_parent(rng, q, n)
        direct = dyadic(kind, a, b)  # coeff-domain add/sub is elementwise
        pa, pb = split(a), split(b)
        via = join(
            SplitPair(dyadic(kind, pa.plus, pb.plus), dyadic(kind, pa.minus, pb.minus))
        )
        assert np.array_equal(via.coeffs, direct.coeffs)


def test_split_mul_commutes_with_parent_ring(set1):
    rng = np.random.default_rng(33)
    q = set1.base.primes[0]
    for n in (16, 128):
        for _ in range(10):
            a = _rand_parent(rng, q, n)
            b = _rand_parent(rng, q, n)
            direct = negacyclic_mul(a, b)
            pa, pb = split(a), split(b)
            via = join(
                SplitPair(
                    negacyclic_mul(pa.plus, pb.plus),
                    negacyclic_mul(pa.minus, pb.minus),
                )
            )
            assert np.array_equal(via.coeffs, direct.coeffs)


def test_split_mul_in_evaluation_domain(set1):
    rng = np.random.default_rng(34)
    q = set1.base.primes[4]
    n = 64
    a = _rand_parent(rng, q, n)
    b = _rand_parent(rng, q, n)
    fa = forward_pair(split(a))
    fb = forward_pair(split(b))
    prod = SplitPair(
        dyadic("mul", fa.plus, fb.plus), dyadic("mul", fa.minus, fb.minus)
    )
    via = join(inverse_pair(prod))
    assert np.array_equal(via.coeffs, negacyclic_mul(a, b).coeffs)


def test_split_rejects_bad_inputs(set1):
    rng = np.random.default_rng(35)
    q = set1.base.primes[0]
    p = _rand_parent(rng, q, 32)
    from medha.polyring import ntt_forward

    with pytest.raises(ValueError):
        split(ntt_forward(p))
    with pytest.raises(ValueError):
        split(ResiduePoly(q, p.coeffs[:16], "coeff", PLUS))
    pair = split(p)
    with pytest.raises(ValueError):
        join(SplitPair(pair.minus, pair.plus))
    with pytest.raises(ValueError):
        join(forward_pair(pair))
    with pytest.raises(ValueError):
        eval_halves(p)
    with pytest.raises(ValueError):
        eval_whole(pair)
    halves = forward_pair(pair)
    with pytest.raises(ValueError):
        eval_whole(SplitPair(halves.minus, halves.plus))


def test_zeta_consistency_between_split_and_twists(set1):
    # the constant multiplying the high half is the same root the plus and
    # minus transform seeds are built from
    q = set1.base.primes[3]
    h = 32
    zh, _, _ = _split_consts(q, h)
    assert zh == pow(zeta_4n(q, h), h, q.value)


def _assert_transform_is_half_ring_evaluations(p):
    full = ntt_forward(p)
    pair = forward_pair(split(p))
    assert np.array_equal(full.coeffs, eval_whole(pair).coeffs)
    halves = eval_halves(full)
    assert np.array_equal(halves.plus.coeffs, pair.plus.coeffs)
    assert np.array_equal(halves.minus.coeffs, pair.minus.coeffs)
    back = join(inverse_pair(halves))
    assert np.array_equal(ntt_inverse(full).coeffs, back.coeffs)
    assert np.array_equal(back.coeffs, p.coeffs)


@settings(max_examples=25, deadline=None)
@given(log_n=st.integers(4, 10), seed=st.integers(0, 2**32 - 1))
def test_full_transform_is_concatenated_half_ring_evaluations(log_n, seed):
    # the split is the transform's first butterfly layer: the full-degree
    # evaluation vector is the plus evaluations followed by the minus ones
    rng = np.random.default_rng(seed)
    for q in _MODULI.values():
        _assert_transform_is_half_ring_evaluations(_rand_parent(rng, q, 1 << log_n))


def test_full_transform_is_concatenated_half_ring_evaluations_2_15(set2):
    # under every modulus the split executor transforms a limb with, the
    # special prime too
    rng = np.random.default_rng(37)
    for q in set2.base.all_moduli:
        _assert_transform_is_half_ring_evaluations(_rand_parent(rng, q, 1 << 15))
