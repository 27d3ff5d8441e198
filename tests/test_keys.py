"""Keystream correctness against a bit-serial reference, and sampler behavior."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medha.keys import (
    COMP_KSK_UNIFORM,
    COMP_SECRET,
    GAUSS_SIGMA,
    HALF_MINUS,
    HALF_PLUS,
    LANE_CHUNK,
    TriviumLanes,
    TriviumStream,
    component_tag,
    gen_secret,
    sample_gaussian,
    sample_lanes,
    sample_ternary,
    sample_uniform_mod,
    signed_to_residues,
    stream_for,
)
from medha.params import get_param_set


class BitSerialTrivium:
    """One-bit-per-clock reference built on an explicit 288-cell state.

    state[i] is cell s_(i+1). Key bit i loads into s_(1+i), IV bit i into
    s_(94+i), and s286..s288 start at 1.
    """

    def __init__(self, key80: int, iv80: int):
        s = [0] * 288
        for i in range(80):
            s[i] = (key80 >> i) & 1
            s[93 + i] = (iv80 >> i) & 1
        s[285] = s[286] = s[287] = 1
        self.s = s
        for _ in range(4 * 288):
            self.clock()

    def clock(self) -> int:
        s = self.s
        t1 = s[65] ^ s[92]
        t2 = s[161] ^ s[176]
        t3 = s[242] ^ s[287]
        z = t1 ^ t2 ^ t3
        f1 = t1 ^ (s[90] & s[91]) ^ s[170]
        f2 = t2 ^ (s[174] & s[175]) ^ s[263]
        f3 = t3 ^ (s[285] & s[286]) ^ s[68]
        self.s = [f3] + s[:92] + [f1] + s[93:176] + [f2] + s[177:287]
        return z

    def words(self, count: int) -> list:
        out = []
        for _ in range(count):
            w = 0
            for b in range(64):
                w |= self.clock() << b
            out.append(w)
        return out


def test_word_stream_matches_bit_serial_reference():
    rng = random.Random(41)
    cases = [(0, 0), (1, 0), (0, 1), ((1 << 80) - 1, (1 << 80) - 1)]
    cases += [(rng.getrandbits(80), rng.getrandbits(80)) for _ in range(6)]
    for key, iv in cases:
        fast = TriviumStream(key, iv)
        ref = BitSerialTrivium(key, iv)
        assert [fast.next_word() for _ in range(4)] == ref.words(4)


def test_lanes_continue_each_stream():
    rng = random.Random(43)
    streams = [TriviumStream(rng.getrandbits(80), rng.getrandbits(80)) for _ in range(5)]
    streams[1].next_words(3)  # a lane starts wherever its stream stands
    lanes = TriviumLanes(streams)
    words = np.concatenate([lanes.next_words(7), lanes.next_words(2)], axis=1)
    assert words.shape == (5, 9)
    for row, s in zip(words, streams):
        assert np.array_equal(row, s.next_words(9))


_MODULI = [17] + sorted({m.value for name in ("set1", "set2")
                         for m in get_param_set(name).base.all_moduli})


def _random_tag(rng):
    return rng.randrange(1 << 24), rng.randrange(1 << 24), rng.randrange(1 << 32)


@settings(max_examples=12)
@given(seed=st.integers(0, (1 << 64) - 1), tag_seed=st.integers(0, (1 << 32) - 1),
       n_lanes=st.integers(1, 64), n_gauss_lanes=st.integers(0, 8),
       n_uniform=st.integers(1, LANE_CHUNK + 300),
       n_gaussian=st.integers(1, 2 * LANE_CHUNK + 100))
def test_lane_samplers_match_scalar_samplers(seed, tag_seed, n_lanes, n_gauss_lanes,
                                             n_uniform, n_gaussian):
    # every lane gives exactly the scalar sampler's output for its stream,
    # over several rejection rounds and lock-step chunks
    rng = random.Random(tag_seed)
    uniform = [(_random_tag(rng), rng.choice(_MODULI)) for _ in range(n_lanes)]
    gaussian = [_random_tag(rng) for _ in range(n_gauss_lanes)]
    u_rows, g_rows = sample_lanes(
        [(stream_for(seed, *tag), q) for tag, q in uniform], n_uniform,
        [stream_for(seed, *tag) for tag in gaussian], n_gaussian)
    assert u_rows.shape == (n_lanes, n_uniform) and u_rows.dtype == np.uint64
    assert g_rows.shape == (n_gauss_lanes, n_gaussian) and g_rows.dtype == np.int64
    for row, (tag, q) in zip(u_rows, uniform):
        assert np.array_equal(row, sample_uniform_mod(stream_for(seed, *tag), n_uniform, q))
    for row, tag in zip(g_rows, gaussian):
        assert np.array_equal(row, sample_gaussian(stream_for(seed, *tag), n_gaussian))


def test_stream_for_matches_reference_tag_layout():
    seed, i, j, comp = 0xDEADBEEF12345678, 3, 9, component_tag(COMP_KSK_UNIFORM, HALF_PLUS, 4)
    fast = stream_for(seed, i, j, comp)
    ref = BitSerialTrivium(seed, (i | (j << 24) | (comp << 48)) & ((1 << 80) - 1))
    assert [fast.next_word() for _ in range(3)] == ref.words(3)


def test_stream_for_rejects_out_of_range():
    with pytest.raises(ValueError):
        stream_for(1 << 64, 0, 0, 0)
    with pytest.raises(ValueError):
        stream_for(0, 1 << 24, 0, 0)
    with pytest.raises(ValueError):
        stream_for(0, 0, 0, 1 << 32)


def test_component_tag_packing():
    assert component_tag(3) == 3
    assert component_tag(3, HALF_MINUS, 7) == 3 | (2 << 8) | (7 << 12)
    with pytest.raises(ValueError):
        component_tag(256)
    with pytest.raises(ValueError):
        component_tag(0, 16)
    with pytest.raises(ValueError):
        component_tag(0, 0, 1 << 20)


def test_distinct_tags_give_distinct_streams():
    rng = random.Random(42)
    seen = {}
    for _ in range(300):
        tag = (rng.randrange(1 << 16), rng.randrange(1 << 16), rng.randrange(8))
        if tag in seen:
            continue
        s = stream_for(7, *tag)
        head = tuple(s.next_word() for _ in range(4))
        assert head not in seen.values()
        seen[tag] = head
    # and the same tag always replays the same words
    a = stream_for(7, 1, 2, 3).next_words(16)
    b = stream_for(7, 1, 2, 3).next_words(16)
    assert np.array_equal(a, b)


def test_ternary_sampler_range_and_balance():
    n = 300_000
    x = sample_ternary(stream_for(9, 0, 0, component_tag(COMP_SECRET)), n)
    assert x.dtype == np.int64 and len(x) == n
    assert set(np.unique(x)) <= {-1, 0, 1}
    for v in (-1, 0, 1):
        count = int(np.sum(x == v))
        # 4 sigma around n/3 for a fair three-way split
        assert abs(count - n / 3) < 4 * np.sqrt(n * (1 / 3) * (2 / 3))


def test_gaussian_sampler_moments():
    n = 1 << 20
    x = sample_gaussian(stream_for(11, 0, 0, 2), n)
    assert np.max(np.abs(x)) <= int(6.0 * GAUSS_SIGMA)
    assert abs(float(np.mean(x))) < 0.02
    var = float(np.var(x))
    assert 0.9 * GAUSS_SIGMA**2 < var < 1.1 * GAUSS_SIGMA**2


def test_uniform_sampler_range_and_mean(set1):
    q = set1.base.primes[0].value
    n = 1 << 17
    x = sample_uniform_mod(stream_for(13, 0, 0, 1), n, q)
    assert x.dtype == np.uint64 and len(x) == n
    assert int(np.max(x)) < q
    mean = float(np.mean(x.astype(np.float64)))
    sigma = q / np.sqrt(12 * n)
    assert abs(mean - (q - 1) / 2) < 5 * sigma


def test_uniform_sampler_small_modulus():
    x = sample_uniform_mod(stream_for(14, 0, 0, 1), 50_000, 17)
    counts = np.bincount(x.astype(np.int64), minlength=17)
    assert len(counts) == 17
    assert counts.min() > 0.8 * 50_000 / 17


def test_signed_to_residues_centered(set1):
    q = set1.base.primes[0].value
    x = np.array([-1, -2, 0, 1, q - 1, -(q // 2)], dtype=np.int64)
    r = signed_to_residues(x, q)
    assert r.dtype == np.uint64
    assert int(r[0]) == q - 1
    assert int(r[1]) == q - 2
    assert int(r[2]) == 0 and int(r[3]) == 1
    assert int(r[5]) == q - q // 2


def test_gen_secret_deterministic():
    a = gen_secret(77, 256)
    b = gen_secret(77, 256)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert a.degree == 256 and a.seed == 77
    assert set(np.unique(a.coeffs)) <= {-1, 0, 1}
    c = gen_secret(78, 256)
    assert not np.array_equal(a.coeffs, c.coeffs)
