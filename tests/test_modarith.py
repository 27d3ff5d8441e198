"""Prime structure, scalar reduction paths and RNS base invariants."""

import math
import random

import pytest

from medha.modarith import (
    Q0_SPARSE,
    PrimeModulus,
    RnsBase,
    crt_reconstruct,
    find_root_of_unity,
    gen_rns_base,
    inv_mod,
    is_probable_prime,
    reduce_sparse,
    signed_power_terms,
)


def test_signed_power_terms_reconstruct():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.getrandbits(rng.randint(1, 60))
        terms = signed_power_terms(n)
        assert sum(s << e for s, e in terms) == n
        exps = [e for _, e in terms]
        assert exps == sorted(exps)
        # non-adjacent form: no two consecutive exponents
        assert all(b - a >= 2 for a, b in zip(exps, exps[1:]))


def test_preset_primes_sparse_and_ntt_friendly(set1, set2, logreg_pset):
    for pset in (set1, set2, logreg_pset):
        base = pset.base
        step = 4 * pset.degree
        for i, m in enumerate(base.all_moduli):
            assert is_probable_prime(m.value)
            assert m.bit_width == (60 if i == 0 else 54)
            assert (m.value - 1) % step == 0
            assert m.reduction_kind is not None
            assert 1 <= len(m.reduction_kind) <= 6
    assert set1.base.all_moduli[0].value == Q0_SPARSE
    assert len(set1.base.all_moduli) == 8
    assert len(set2.base.all_moduli) == 10
    assert len(logreg_pset.base.all_moduli) == 7


def test_reduce_sparse_matches_bigint(set1, set2):
    rng = random.Random(72)
    moduli = {m.value: m for m in set1.base.all_moduli + set2.base.all_moduli}
    for m in moduli.values():
        q = m.value
        cases = [0, 1, q - 1, q, q + 1, q * q, (1 << 126) - 1]
        cases += [rng.getrandbits(126) for _ in range(400)]
        cases += [rng.getrandbits(64) for _ in range(200)]
        for x in cases:
            assert reduce_sparse(x, q, m.reduction_kind) == x % q


def _dense_prime(bits: int, step: int) -> int:
    from medha.modarith import _sparse_kind

    k = (1 << (bits - 1)) // step + 1
    while True:
        q = k * step + 1
        k += 1
        if is_probable_prime(q) and _sparse_kind(q) is None:
            return q


def test_dense_prime_has_no_sparse_reduction():
    q = _dense_prime(54, 1 << 16)
    assert PrimeModulus.from_value(q).reduction_kind is None


def test_field_ops_and_inverses(set1):
    m = set1.base.primes[1]
    q = m.value
    rng = random.Random(9)
    for _ in range(200):
        a = rng.randrange(q)
        if a:
            assert inv_mod(a, q) * a % q == 1


def test_root_of_unity_has_exact_order(set1):
    q = set1.base.primes[0].value
    for order in (4, 256, 1 << 16):
        w = find_root_of_unity(q, order)
        assert pow(w, order, q) == 1
        assert pow(w, order // 2, q) != 1


def test_rns_base_cross_tables(set1):
    base = set1.base
    mods = base.all_moduli
    for i, mi in enumerate(mods):
        for j, mj in enumerate(mods):
            if i == j:
                assert base.inv[i][j] == 0
            else:
                assert base.inv[i][j] * mi.value % mj.value == 1
    q_big = math.prod(m.value for m in base.primes)
    for i, mi in enumerate(base.primes):
        hat = q_big // mi.value
        factor = base.special.value * hat * inv_mod(hat, mi.value)
        for j, mj in enumerate(mods):
            assert base.p_qtilde[i][j] == factor % mj.value


def test_rns_base_level_views(set1):
    base = set1.base
    assert base.levels == 7
    assert base.all_moduli == base.primes + (base.special,)
    assert base.level_moduli(3) == base.primes[:3]
    with pytest.raises(ValueError):
        base.level_moduli(0)
    with pytest.raises(ValueError):
        base.level_moduli(base.levels + 1)


def test_gen_rns_base_deterministic_and_shaped():
    a = gen_rns_base(438, 1 << 14)
    b = gen_rns_base(438, 1 << 14)
    assert [m.value for m in a.all_moduli] == [m.value for m in b.all_moduli]
    assert a.total_bits == 438
    assert a.levels == 7
    with pytest.raises(ValueError):
        gen_rns_base(437, 1 << 14)


def test_set2_primes_extend_set1(set1, set2):
    # the wider profile keeps the shared prefix so limb data is compatible
    v1 = [m.value for m in set1.base.primes]
    v2 = [m.value for m in set2.base.primes]
    assert v2[: len(v1)] == v1


def test_duplicate_primes_rejected(set1):
    q = set1.base.primes[0]
    with pytest.raises(ValueError):
        RnsBase([q, q], set1.base.special)


def test_crt_reconstruct_centered(set1):
    base = set1.base
    mods = [m.value for m in base.primes[:4]]
    m_big = math.prod(mods)
    rng = random.Random(33)
    xs = [rng.randrange(-(m_big // 2) + 1, m_big // 2 + 1) for _ in range(200)]
    rows = [[x % m for x in xs] for m in mods]
    assert crt_reconstruct(rows, mods) == xs
