"""Vectorized word arithmetic against exact big-integer oracles."""

import numpy as np
import pytest

from medha.kernels import (
    MUL_SLICE,
    ModContext,
    addmod,
    ctx,
    mulhi64,
    mulmod_shoup,
    mulmod_shoup_lazy,
    negmod,
    shoup,
    shoup_halves,
    submod,
)
from medha.params import get_param_set


def _rand_u64(rng, n):
    return rng.integers(0, 1 << 64, size=n, dtype=np.uint64)


def _as_int(arr):
    return arr.astype(object)


def test_mulhi64_matches_bigint():
    rng = np.random.default_rng(11)
    a = _rand_u64(rng, 4096)
    b = _rand_u64(rng, 4096)
    expect = (_as_int(a) * _as_int(b)) >> 64
    assert np.array_equal(_as_int(mulhi64(a, b)), expect)
    # scalar second operand broadcasts
    w = np.uint64(0xDEADBEEFCAFE1234)
    assert np.array_equal(_as_int(mulhi64(a, w)), (_as_int(a) * int(w)) >> 64)


# odd moduli from the smallest up, every preset prime, and the two largest
# that ModContext accepts
COMPANION_MODULI = sorted(
    {3, 17, (1 << 31) - 1, (1 << 62) - 57, (1 << 62) - (1 << 16) + 1}
    | {m.value for s in ("set1", "set2", "logreg") for m in get_param_set(s).base.all_moduli}
)


def test_mulmod_shoup_matches_bigint(set1):
    rng = np.random.default_rng(12)
    for m in set1.base.all_moduli[:3]:
        q = m.value
        a = rng.integers(0, q, size=2048, dtype=np.uint64)
        for w in (1, 2, q - 1, 0x123456789AB % q):
            got = mulmod_shoup(a, np.uint64(w), np.uint64(shoup(w, q)), np.uint64(q))
            assert np.array_equal(_as_int(got), (_as_int(a) * w) % q)
    # the vector companions of a whole table equal the divided ones
    for q in COMPANION_MODULI:
        words = rng.integers(0, q, size=64, dtype=np.uint64)
        words[:3] = (0, 1, q - 1)
        assert [int(x) for x in ctx(q).shoup(words)] == [shoup(int(x), q) for x in words]


def test_add_sub_neg_mod(set1):
    rng = np.random.default_rng(13)
    q = set1.base.primes[0].value
    qv = np.uint64(q)
    a = rng.integers(0, q, size=4096, dtype=np.uint64)
    b = rng.integers(0, q, size=4096, dtype=np.uint64)
    assert np.array_equal(_as_int(addmod(a, b, qv)), (_as_int(a) + _as_int(b)) % q)
    assert np.array_equal(_as_int(submod(a, b, qv)), (_as_int(a) - _as_int(b)) % q)
    assert np.array_equal(_as_int(negmod(a, qv)), (-_as_int(a)) % q)
    zero = np.zeros(4, dtype=np.uint64)
    assert np.array_equal(negmod(zero, qv), zero)


# the largest moduli ModContext accepts: 4q is within 2^18 of 2^64, so a
# correction that let one more q through would wrap
NEAR_2_62 = ((1 << 62) - (1 << 16) + 1, (1 << 62) - 57)


def _edge_operands(rng, q, n):
    """Random residues with 0 and q - 1 against each other in every order."""
    a = rng.integers(0, q, size=n, dtype=np.uint64)
    b = rng.integers(0, q, size=n, dtype=np.uint64)
    a[:4] = (0, 0, q - 1, q - 1)
    b[:4] = (0, q - 1, 0, q - 1)
    return a, b


@pytest.mark.parametrize("q", NEAR_2_62)
def test_add_sub_neg_mod_near_2_62(q):
    a, b = _edge_operands(np.random.default_rng(16), q, 4096)
    qv = np.uint64(q)
    assert np.array_equal(_as_int(addmod(a, b, qv)), (_as_int(a) + _as_int(b)) % q)
    assert np.array_equal(_as_int(submod(a, b, qv)), (_as_int(a) - _as_int(b)) % q)
    assert np.array_equal(_as_int(negmod(a, qv)), (-_as_int(a)) % q)


@pytest.mark.parametrize("q", NEAR_2_62)
def test_shoup_products_near_2_62(q):
    rng = np.random.default_rng(17)
    a, _ = _edge_operands(rng, q, 4096)
    words = _rand_u64(rng, 4096)
    words[:2] = (0, (1 << 64) - 1)
    for w in (0, 1, q - 1, q // 3):
        wv, ws, qv = np.uint64(w), np.uint64(shoup(w, q)), np.uint64(q)
        assert np.array_equal(_as_int(mulmod_shoup(a, wv, ws, qv)), _as_int(a) * w % q)
        # any 64-bit word: the lazy product stays below 4q, the full one is canonical
        lazy = _as_int(mulmod_shoup_lazy(words, wv, ws, qv))
        assert all(x < 4 * q for x in lazy)
        assert np.array_equal(lazy % q, _as_int(words) * w % q)
        assert np.array_equal(_as_int(mulmod_shoup(words, wv, ws, qv)), _as_int(words) * w % q)


def test_reduce_word_and_pair(set1, set2):
    rng = np.random.default_rng(14)
    moduli = {m.value for m in set1.base.all_moduli + set2.base.all_moduli}
    for q in sorted(moduli):
        c = ctx(q)
        lo = _rand_u64(rng, 4096)
        hi = _rand_u64(rng, 4096)
        assert np.array_equal(_as_int(c.reduce_word(lo)), _as_int(lo) % q)
        got = c.reduce_pair(hi, lo)
        assert np.array_equal(_as_int(got), ((_as_int(hi) << 64) + _as_int(lo)) % q)


def test_mulmod_general_and_scalar(set1):
    rng = np.random.default_rng(15)
    q = set1.base.special.value
    c = ctx(q)
    a = rng.integers(0, q, size=4096, dtype=np.uint64)
    b = rng.integers(0, q, size=4096, dtype=np.uint64)
    assert np.array_equal(_as_int(c.mulmod(a, b)), (_as_int(a) * _as_int(b)) % q)
    for w in (0, 1, q - 1, 123456789, q + 5):
        assert np.array_equal(_as_int(c.mulmod_scalar(a, w)), (_as_int(a) * (w % q)) % q)


def test_ctx_cache_and_range():
    q = (1 << 54) - 33  # reduction context needs no primality, only an odd q in range
    assert ctx(q) is ctx(q)
    with pytest.raises(ValueError):
        ModContext(2)
    with pytest.raises(ValueError):
        ModContext(1 << 62)
    with pytest.raises(ValueError, match="odd"):
        ModContext(1 << 40)  # a Shoup companion needs q^-1 mod 2^64


def _check_mulmod(q, rng):
    """0, 1 and q - 1 against each other, over lengths below, at and past
    a slice and not divisible by it, and a broadcast column."""
    c = ctx(q)
    edges = np.array([0, 1, q - 1], dtype=np.uint64)
    a = np.repeat(edges, 3)
    b = np.tile(edges, 3)
    assert np.array_equal(_as_int(c.mulmod(a, b)), _as_int(a) * _as_int(b) % q)
    for n in (7, MUL_SLICE, 2 * MUL_SLICE + 3):
        a, b = _edge_operands(rng, q, n)
        a[-3:] = b[-3:] = q - 1
        want = _as_int(a) * _as_int(b) % q
        assert np.array_equal(_as_int(c.mulmod(a, b)), want)
        # b's companions, formed once and passed in as halves
        assert np.array_equal(_as_int(c.mulmod(a, b, shoup_halves(c.shoup(b)))), want)
    a = rng.integers(0, q, size=(4, 9), dtype=np.uint64)
    col = rng.integers(0, q, size=(4, 1), dtype=np.uint64)
    assert np.array_equal(_as_int(c.mulmod(a, col)), _as_int(a) * _as_int(col) % q)


@pytest.mark.parametrize("q", (3, 17, (1 << 31) - 1) + NEAR_2_62)
def test_mulmod_small_and_wide_moduli(q):
    _check_mulmod(q, np.random.default_rng(q % 1009))


def test_mulmod_preset_moduli(set1, set2, logreg_pset):
    rng = np.random.default_rng(19)
    moduli = {m.value for s in (set1, set2, logreg_pset) for m in s.base.all_moduli}
    for q in sorted(moduli):
        _check_mulmod(q, rng)


@pytest.mark.parametrize("q", NEAR_2_62)
def test_lazy_product_halves_and_buffers(q):
    # the halves give the product the whole companion gives, written into
    # the output buffer and broadcast along a middle axis as a layer does
    rng = np.random.default_rng(20)
    words = _rand_u64(rng, 4 * 8 * 16).reshape(4, 8, 16)
    w = rng.integers(0, q, size=(4, 1, 16), dtype=np.uint64)
    ws = np.array([shoup(int(x), q) for x in w.ravel()], dtype=np.uint64).reshape(w.shape)
    qv = np.uint64(q)
    whole = mulmod_shoup_lazy(words, w, ws, qv)
    out, tmp = np.empty((2,) + words.shape, dtype=np.uint64)
    got = mulmod_shoup_lazy(words, w, shoup_halves(ws), qv, out=out, tmp=tmp)
    assert got is out
    assert np.array_equal(got, whole)
    assert np.all(_as_int(got) < 4 * q)
    assert np.array_equal(_as_int(got) % q, _as_int(words) * _as_int(w) % q)
