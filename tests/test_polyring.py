"""Transforms, twiddle generation and ring arithmetic in all three twists."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medha import kernels, polyring
from medha.modarith import PrimeModulus
from medha.params import get_param_set
from medha.polyring import (
    MINUS,
    PLUS,
    STANDARD,
    ResiduePoly,
    automorphism,
    automorphism_coeff,
    automorphism_perm,
    dyadic,
    eval_exponents,
    negacyclic_mul,
    ntt_forward,
    ntt_inverse,
    psi_for,
    scalar_mul,
    twiddle_table,
)

ALL_TWISTS = (STANDARD, PLUS, MINUS)

# every preset modulus, plus an NTT-friendly prime just below 2^62, where the
# transforms' lazy bound 4q comes within 2^18 of 2^64
Q_NEAR_2_62 = (1 << 62) - (1 << 16) + 1
LAZY_MODULI = sorted(
    {m.value for s in ("set1", "set2") for m in get_param_set(s).base.all_moduli}
    | {Q_NEAR_2_62}
)


def _rand_poly(rng, q, n, twist=STANDARD, domain="coeff"):
    c = rng.integers(0, q.value, size=n, dtype=np.uint64)
    return ResiduePoly(q, c, domain, twist)


def _schoolbook(a, b):
    """Quadratic reference product with the twist's x^n wrap constant."""
    q = a.q.value
    n = a.n
    psi, _ = psi_for(a.q, n, a.twist)
    wrap = pow(psi, n, q)
    av = [int(x) for x in a.coeffs]
    bv = [int(x) for x in b.coeffs]
    out = [0] * n
    for i, ai in enumerate(av):
        if not ai:
            continue
        for j, bj in enumerate(bv):
            k = i + j
            if k < n:
                out[k] += ai * bj
            else:
                out[k - n] += ai * bj * wrap
    return ResiduePoly(
        a.q, np.array([x % q for x in out], dtype=np.uint64), "coeff", a.twist
    )


def test_transform_roundtrip_all_twists(set1):
    rng = np.random.default_rng(21)
    for q in (set1.base.primes[0], set1.base.primes[3], set1.base.special):
        for n in (8, 64, 256):
            for twist in ALL_TWISTS:
                p = _rand_poly(rng, q, n, twist)
                f = ntt_forward(p)
                assert f.domain == "eval" and f.twist == twist
                back = ntt_inverse(f)
                assert back.domain == "coeff"
                assert np.array_equal(back.coeffs, p.coeffs)


def test_transform_domain_checks(set1):
    q = set1.base.primes[0]
    p = _rand_poly(np.random.default_rng(0), q, 16)
    with pytest.raises(ValueError):
        ntt_inverse(p)
    with pytest.raises(ValueError):
        ntt_forward(ntt_forward(p))


def test_constant_poly_evaluates_flat(set1):
    q = set1.base.primes[2]
    for twist in ALL_TWISTS:
        c = np.zeros(32, dtype=np.uint64)
        c[0] = 12345
        f = ntt_forward(ResiduePoly(q, c, "coeff", twist))
        assert np.all(f.coeffs == 12345)


def test_eval_slots_are_point_evaluations(set1):
    rng = np.random.default_rng(22)
    q = set1.base.primes[1]
    for n in (8, 16):
        for twist in ALL_TWISTS:
            p = _rand_poly(rng, q, n, twist)
            f = ntt_forward(p)
            psi, gen = psi_for(q, n, twist)
            # slot k holds the polynomial at psi * gen^(2 * bitrev(k)); for
            # the standard ring gen == psi so that point is psi^e_k
            exps = eval_exponents(n)
            av = [int(x) for x in p.coeffs]
            for k in range(n):
                point = psi * pow(gen, int(exps[k]) - 1, q.value) % q.value
                want = sum(a * pow(point, j, q.value) for j, a in enumerate(av))
                assert int(f.coeffs[k]) == want % q.value


def test_negacyclic_mul_matches_schoolbook(set1):
    rng = np.random.default_rng(23)
    for q in (set1.base.primes[0], set1.base.primes[5]):
        for n in (8, 32):
            for twist in ALL_TWISTS:
                for _ in range(15):
                    a = _rand_poly(rng, q, n, twist)
                    b = _rand_poly(rng, q, n, twist)
                    got = negacyclic_mul(a, b)
                    want = _schoolbook(a, b)
                    assert np.array_equal(got.coeffs, want.coeffs)


def test_mul_identity_and_x_shift(set1):
    q = set1.base.primes[0]
    n = 16
    one = np.zeros(n, dtype=np.uint64)
    one[0] = 1
    x = np.zeros(n, dtype=np.uint64)
    x[1] = 1
    rng = np.random.default_rng(24)
    a = _rand_poly(rng, q, n)
    assert np.array_equal(
        negacyclic_mul(a, ResiduePoly(q, one, "coeff")).coeffs, a.coeffs
    )
    # multiplying by x rotates with negated wrap in the standard ring
    shifted = negacyclic_mul(a, ResiduePoly(q, x, "coeff")).coeffs
    assert shifted[0] == (q.value - a.coeffs[n - 1]) % q.value
    assert np.array_equal(shifted[1:], a.coeffs[: n - 1])


def test_automorphism_eval_coeff_agree(set1):
    rng = np.random.default_rng(25)
    q = set1.base.primes[0]
    n = 64
    for g in (5, 25, 2 * n - 1, pow(5, 7, 2 * n)):
        p = _rand_poly(rng, q, n)
        via_coeff = ntt_forward(automorphism_coeff(p, g))
        via_eval = automorphism(ntt_forward(p), g)
        assert np.array_equal(via_coeff.coeffs, via_eval.coeffs)


def test_automorphism_perm_group_laws(set1):
    rng = np.random.default_rng(26)
    q = set1.base.primes[2]
    n = 32
    assert np.array_equal(automorphism_perm(n, 1), np.arange(n))
    p = ntt_forward(_rand_poly(rng, q, n))
    g1, g2 = 5, 2 * n - 1
    once = automorphism(automorphism(p, g1), g2)
    combined = automorphism(p, g1 * g2 % (2 * n))
    assert np.array_equal(once.coeffs, combined.coeffs)
    with pytest.raises(ValueError):
        automorphism_perm(n, 4)


def test_automorphism_restricted_to_standard_ring(set1):
    q = set1.base.primes[0]
    p = _rand_poly(np.random.default_rng(0), q, 16, PLUS)
    with pytest.raises(ValueError):
        automorphism_coeff(p, 5)
    with pytest.raises(ValueError):
        automorphism(ntt_forward(p), 5)


def test_dyadic_ops_match_oracle(set1):
    rng = np.random.default_rng(27)
    q = set1.base.primes[3]
    qi = q.value
    a = _rand_poly(rng, q, 128, domain="eval")
    b = _rand_poly(rng, q, 128, domain="eval")
    acc = _rand_poly(rng, q, 128, domain="eval")
    ao, bo, co = (p.coeffs.astype(object) for p in (a, b, acc))
    assert np.array_equal(dyadic("add", a, b).coeffs.astype(object), (ao + bo) % qi)
    assert np.array_equal(dyadic("sub", a, b).coeffs.astype(object), (ao - bo) % qi)
    assert np.array_equal(dyadic("mul", a, b).coeffs.astype(object), (ao * bo) % qi)
    assert np.array_equal(
        dyadic("mac", a, b, acc).coeffs.astype(object), (co + ao * bo) % qi
    )


def test_dyadic_rejects_mismatches(set1):
    rng = np.random.default_rng(28)
    q = set1.base.primes[0]
    a = _rand_poly(rng, q, 64, domain="eval")
    with pytest.raises(ValueError):
        dyadic("mul", a, _rand_poly(rng, q, 32, domain="eval"))
    with pytest.raises(ValueError):
        dyadic("mul", a, _rand_poly(rng, q, 64, PLUS, domain="eval"))
    with pytest.raises(ValueError):
        dyadic("mac", a, a)
    with pytest.raises(ValueError):
        dyadic("xor", a, a)


def test_scalar_mul_and_neg(set1):
    rng = np.random.default_rng(29)
    q = set1.base.primes[1]
    qi = q.value
    p = _rand_poly(rng, q, 64)
    for c in (0, 1, qi - 1, 987654321):
        got = scalar_mul(p, c).coeffs.astype(object)
        assert np.array_equal(got, (p.coeffs.astype(object) * c) % qi)


def _eval_oracle(q, n, twist, coeffs):
    """Python-int evaluation of the coefficients at every slot's point."""
    qv = q.value
    psi, gen = psi_for(q, n, twist)
    out = []
    for e in eval_exponents(n):
        point = psi * pow(gen, int(e) - 1, qv) % qv
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * point + c) % qv
        out.append(acc)
    return out


@pytest.mark.parametrize("fill", ("zero", "max", "random"))
@pytest.mark.parametrize("qv", LAZY_MODULI)
@settings(max_examples=8, deadline=None)
@given(
    log_n=st.integers(4, 6),
    twist=st.sampled_from(ALL_TWISTS),
    seed=st.integers(0, 2**32 - 1),
)
def test_transforms_exact_at_lazy_bounds(qv, log_n, twist, fill, seed):
    q = PrimeModulus.from_value(qv)
    n = 1 << log_n
    if fill == "random":
        words = np.random.default_rng(seed).integers(0, qv, size=n, dtype=np.uint64)
    else:
        words = np.full(n, 0 if fill == "zero" else qv - 1, dtype=np.uint64)
    ints = [int(x) for x in words]
    f = ntt_forward(ResiduePoly(q, words, "coeff", twist))
    assert [int(x) for x in f.coeffs] == _eval_oracle(q, n, twist, ints)
    # the same words read as evaluations: the inverse must return the
    # coefficients whose evaluations they are
    c = ntt_inverse(ResiduePoly(q, words, "eval", twist))
    assert _eval_oracle(q, n, twist, [int(x) for x in c.coeffs]) == ints


@functools.cache
def _flat_table(q, n, twist):
    """The flat twiddle table by pow(): stage s holds w[2^s + t] =
    psi^(n / 2^(s+1)) * gen^(2^(logn-s) bitrev(t, s)), and w[0] = 1."""
    qv = q.value
    psi, gen = psi_for(q, n, twist)
    logn = n.bit_length() - 1
    w = [1]
    for s in range(logn):
        step = pow(gen, 1 << (logn - s), qv)
        seed = pow(psi, n >> (s + 1), qv)
        for t in range(1 << s):
            rev = int(format(t, f"0{s}b")[::-1], 2) if s else 0
            w.append(seed * pow(step, rev, qv) % qv)
    return np.array(w, dtype=np.uint64)


def _exact_forward(q, n, twist, words):
    """ntt_forward's butterfly network, reduced exactly at every layer."""
    w = _flat_table(q, n, twist)
    c = kernels.ctx(q.value)
    f = words.copy()
    half = n // 2
    while half:
        g = n // (2 * half)  # layer constants are w[g : 2g]
        a = f.reshape(g, 2, half)
        x = a[:, 0].copy()
        prod = c.mulmod(a[:, 1], w[g : 2 * g, None])
        a[:, 0] = kernels.addmod(x, prod, c.qv)
        a[:, 1] = kernels.submod(x, prod, c.qv)
        half //= 2
    return f


# at 2^14 and 2^15 the tracked bound of a 54-bit modulus grows to 57q and 61q
# before its one final reduction, and a 60-bit one corrects between layers
@pytest.mark.parametrize("fill", ("zero", "max", "random"))
@pytest.mark.parametrize("qv", (get_param_set("set2").base.primes[0].value,
                                get_param_set("set2").base.primes[1].value,
                                Q_NEAR_2_62))
@pytest.mark.parametrize("log_n", (14, 15))
def test_forward_transform_matches_exact_network_at_full_size(log_n, qv, fill):
    q = PrimeModulus.from_value(qv)
    n = 1 << log_n
    if fill == "random":
        words = np.random.default_rng(log_n).integers(0, qv, size=n, dtype=np.uint64)
    else:
        words = np.full(n, 0 if fill == "zero" else qv - 1, dtype=np.uint64)
    got = ntt_forward(ResiduePoly(q, words, "coeff", STANDARD)).coeffs
    assert np.array_equal(got, _exact_forward(q, n, STANDARD, words))


# the forward transform is pinned to the exact network above, so round trips
# through it in both directions pin the inverse
@pytest.mark.parametrize("fill", ("zero", "max", "random"))
@pytest.mark.parametrize("qv", (get_param_set("set2").base.primes[0].value,
                                get_param_set("set2").base.primes[1].value,
                                Q_NEAR_2_62))
@pytest.mark.parametrize("log_n", (14, 15))
def test_inverse_transform_round_trips_at_full_size(log_n, qv, fill):
    q = PrimeModulus.from_value(qv)
    n = 1 << log_n
    if fill == "random":
        words = np.random.default_rng(log_n + 1).integers(0, qv, size=n, dtype=np.uint64)
    else:
        words = np.full(n, 0 if fill == "zero" else qv - 1, dtype=np.uint64)
    back = ntt_inverse(ntt_forward(ResiduePoly(q, words, "coeff", STANDARD)))
    assert np.array_equal(back.coeffs, words)
    again = ntt_forward(ntt_inverse(ResiduePoly(q, words, "eval", STANDARD)))
    assert np.array_equal(again.coeffs, words)


# every stage of a 54-bit set1 prime at n = 64, and the near-2^62 prime up
# to 2^14
@pytest.mark.parametrize("qv, log_n", [
    *((Q_NEAR_2_62, k) for k in (3, 6, 12, 14)),
    (get_param_set("set1").base.primes[4].value, 6),
], ids=("3", "6", "12", "14", "set1-q4-6"))
@pytest.mark.parametrize("twist", ALL_TWISTS)
def test_laid_out_constants_equal_flat_table(qv, log_n, twist):
    # layer g holds w[g : 2g] (and the inverse w[g : 2g]^-1, times n^-1 at
    # g = 1), contiguous, in (k, 1, cols) layout with constant j of the layer
    # at [j % k, 0, j // k], and the two halves of each constant's companion
    q = PrimeModulus.from_value(qv)
    n = 1 << log_n
    t = twiddle_table(q, n, twist)
    flat_table = _flat_table(q, n, twist)
    n_inv = pow(n, -1, qv)
    assert len(t.forward) == len(t.inverse) == log_n
    for s in range(log_n):
        g = 1 << s
        flat_w = [int(x) for x in flat_table[g : 2 * g]]
        flat_inv = [pow(x, -1, qv) * (n_inv if g == 1 else 1) % qv for x in flat_w]
        for layer, flat in ((t.forward[s], flat_w), (t.inverse[s], flat_inv)):
            w, wl, wh = layer
            k, one, cols = w.shape
            assert one == 1 and k * cols == g
            assert cols == (max(n // 64, 1) if g >= n // 64 else 1)
            for arr in layer:
                assert arr.shape == w.shape and arr.flags.c_contiguous
            order = w.reshape(k, cols).T.reshape(g)
            assert [int(x) for x in order] == flat
            companions = ((wh << np.uint64(32)) | wl).reshape(k, cols).T.reshape(g)
            assert [int(x) for x in companions] == [(x << 64) // qv for x in flat]


def test_transforms_restore_the_callers_buffer_size(set1, monkeypatch):
    q = set1.base.primes[0]
    p = _rand_poly(np.random.default_rng(30), q, 1 << 10)
    default = np.getbufsize()
    f = ntt_forward(p)
    ntt_inverse(f)
    assert np.getbufsize() == default
    with pytest.raises(ValueError):
        ntt_inverse(p)
    with pytest.raises(ValueError):
        ntt_forward(f)
    assert np.getbufsize() == default
    old = np.setbufsize(4096)
    try:
        assert np.array_equal(ntt_inverse(ntt_forward(p)).coeffs, p.coeffs)
        assert np.getbufsize() == 4096

        def fail(*args, **kwargs):
            raise RuntimeError("interrupted")

        monkeypatch.setattr(polyring, "mulmod_shoup_lazy", fail)
        for fn, x in ((ntt_forward, p), (ntt_inverse, f)):
            with pytest.raises(RuntimeError):
                fn(x)
            assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)


@pytest.mark.parametrize("fill", ("zero", "max", "random"))
@pytest.mark.parametrize("log_n", (3, 4, 5))
def test_transforms_without_a_full_run_match_oracle(log_n, fill):
    # below n = 64 no layer has a 64-word run, so every layer is transposed
    # with one column
    n = 1 << log_n
    for qv in LAZY_MODULI:
        q = PrimeModulus.from_value(qv)
        for twist in ALL_TWISTS:
            if fill == "random":
                words = np.random.default_rng(qv % 991).integers(0, qv, size=n, dtype=np.uint64)
            else:
                words = np.full(n, 0 if fill == "zero" else qv - 1, dtype=np.uint64)
            ints = [int(x) for x in words]
            f = ntt_forward(ResiduePoly(q, words, "coeff", twist))
            assert [int(x) for x in f.coeffs] == _eval_oracle(q, n, twist, ints)
            c = ntt_inverse(ResiduePoly(q, words, "eval", twist))
            assert _eval_oracle(q, n, twist, [int(x) for x in c.coeffs]) == ints


# NTT-friendly primes (q = 1 mod 2^17) whose word headroom 2^64 // q is 7,
# 8, 15 and 16: either side of where the inverse stops correcting its
# products (8q fits a word), and two headrooms whose forward corrections
# fall on different layers
BOUND_CLASS_MODULI = (0x2000000000460001, 0x1C71C71C71CC0001,
                      0x10000000006E0001, 0x0F0F0F0F0F4C0001)


@pytest.mark.parametrize("fill", ("max", "random"))
@pytest.mark.parametrize("qv", BOUND_CLASS_MODULI)
def test_transforms_exact_across_bound_classes(qv, fill):
    q = PrimeModulus.from_value(qv)
    n = 1 << 12
    if fill == "random":
        words = np.random.default_rng(qv % 997).integers(0, qv, size=n, dtype=np.uint64)
    else:
        words = np.full(n, qv - 1, dtype=np.uint64)
    f = ntt_forward(ResiduePoly(q, words, "coeff", STANDARD))
    assert np.array_equal(f.coeffs, _exact_forward(q, n, STANDARD, words))
    assert np.array_equal(ntt_inverse(f).coeffs, words)
    again = ntt_forward(ntt_inverse(ResiduePoly(q, words, "eval", STANDARD)))
    assert np.array_equal(again.coeffs, words)
