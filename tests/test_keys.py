"""Keystream correctness against a bit-serial reference, and sampler behavior."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medha.keys import (
    COMP_KSK_UNIFORM,
    COMP_SECRET,
    GAUSS_SIGMA,
    HALF_MINUS,
    HALF_PLUS,
    LANE_CHUNK,
    PACKED_MAX_LANES,
    TriviumLanes,
    TriviumPacked,
    TriviumStream,
    component_tag,
    gen_secret,
    sample_gaussian,
    sample_lanes,
    sample_ternary,
    sample_uniform_mod,
    stream_for,
)
from medha.heaan import CenteredLift
from medha.params import get_param_set, param_set_names


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
        assert fast.next_words(4).tolist() == ref.words(4)


def test_lanes_continue_each_stream():
    # calls end on both sides of the stepper's block (1, 127, 129 and 300
    # steps at a 128-step block), and the last one spans three blocks
    rng = random.Random(43)
    block = TriviumLanes.BLOCK
    counts = [7, 2, 1, block - 1, block + 1, 2 * block + 44]
    for n_lanes in (5, 2 * PACKED_MAX_LANES + 11):
        streams = [TriviumStream(rng.getrandbits(80), rng.getrandbits(80)) for _ in range(n_lanes)]
        streams[1].next_words(3)  # a lane starts wherever its stream stands
        lanes = TriviumLanes(streams)
        words = np.concatenate([lanes.next_words(c) for c in counts], axis=1)
        assert words.shape == (n_lanes, sum(counts)) and words.dtype == np.uint64
        for row, s in zip(words, streams):
            assert np.array_equal(row, s.next_words(sum(counts)))


_MODULI = [17] + sorted({m.value for name in ("set1", "set2")
                         for m in get_param_set(name).base.all_moduli})


def _random_tag(rng):
    return rng.randrange(1 << 24), rng.randrange(1 << 24), rng.randrange(1 << 32)


@settings(max_examples=12)
@given(seed=st.integers(0, (1 << 64) - 1), tag_seed=st.integers(0, (1 << 32) - 1),
       n_lanes=st.integers(0, 3 * PACKED_MAX_LANES),
       n_gauss_lanes=st.integers(0, PACKED_MAX_LANES + 8),
       n_uniform=st.integers(1, 2 * LANE_CHUNK + 300),
       n_gaussian=st.integers(1, 2 * LANE_CHUNK + 100))
# a Gaussian-only batch and a uniform-only one, each wider than the packed stepper
@example(seed=1, tag_seed=2, n_lanes=0, n_gauss_lanes=PACKED_MAX_LANES + 8,
         n_uniform=1, n_gaussian=LANE_CHUNK + 1)
@example(seed=3, tag_seed=4, n_lanes=3 * PACKED_MAX_LANES, n_gauss_lanes=0,
         n_uniform=LANE_CHUNK // 2 + 1, n_gaussian=1)
def test_lane_samplers_match_scalar_samplers(seed, tag_seed, n_lanes, n_gauss_lanes,
                                             n_uniform, n_gaussian):
    # every lane gives exactly the scalar sampler's output for its stream,
    # over several rejection rounds and lock-step rounds; moduli of unlike
    # acceptance (17 takes 17/32 of its candidates) fill lanes in different
    # rounds, so a round's per-lane clip runs too
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


def test_packed_lanes_continue_each_stream():
    rng = random.Random(44)
    streams = [TriviumStream(rng.getrandbits(80), rng.getrandbits(80)) for _ in range(3)]
    streams[2].next_words(5)
    lanes = TriviumPacked(streams)
    words = np.concatenate([lanes.next_words(4), lanes.next_words(3)], axis=1)
    assert words.shape == (3, 7) and words.dtype == np.uint64
    for row, s in zip(words, streams):
        assert np.array_equal(row, s.next_words(7))


# (uniform lanes, Gaussian lanes): an encryption's two Gaussian streams, one
# lane, and the two lane counts on either side of the stepper crossover
@pytest.mark.parametrize("n_uniform_lanes,n_gauss_lanes", [
    (0, 2), (1, 0), (PACKED_MAX_LANES - 8, 8), (PACKED_MAX_LANES - 7, 8),
])
def test_both_lane_steppers_match_scalar_samplers(n_uniform_lanes, n_gauss_lanes):
    rng = random.Random(n_uniform_lanes)
    seed = rng.getrandbits(64)
    uniform = [(_random_tag(rng), rng.choice(_MODULI)) for _ in range(n_uniform_lanes)]
    gaussian = [_random_tag(rng) for _ in range(n_gauss_lanes)]
    n_uniform = LANE_CHUNK // 2 + 3 if uniform else 0
    n_gaussian = LANE_CHUNK + 5
    u_rows, g_rows = sample_lanes(
        [(stream_for(seed, *tag), q) for tag, q in uniform], n_uniform,
        [stream_for(seed, *tag) for tag in gaussian], n_gaussian)
    assert u_rows.shape == (n_uniform_lanes, n_uniform)
    assert g_rows.shape == (n_gauss_lanes, n_gaussian)
    for row, (tag, q) in zip(u_rows, uniform):
        assert np.array_equal(row, sample_uniform_mod(stream_for(seed, *tag), n_uniform, q))
    for row, tag in zip(g_rows, gaussian):
        assert np.array_equal(row, sample_gaussian(stream_for(seed, *tag), n_gaussian))


def test_wide_batch_round_buffers_stay_bounded(set2):
    # a set2 relin key's uniform grid: 9 rows x 10 moduli x 2 half-ring
    # streams of 2^14 residues, the batch a key load regenerates. Beyond its
    # result, the batch may hold no more than the 2,414,161 bytes it traced
    # with 512-step rounds and a per-lane compaction loop (NumPy 2.4).
    moduli = [m.value for m in set2.base.all_moduli]
    n = set2.degree // 2
    uniform = [(stream_for(0, i, j, component_tag(COMP_KSK_UNIFORM, half)), q)
               for i in range(set2.base.levels) for j, q in enumerate(moduli)
               for half in (HALF_PLUS, HALF_MINUS)]
    assert len(uniform) == 180
    tracemalloc.start()
    try:
        rows, _ = sample_lanes(uniform, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - rows.nbytes <= 2_414_161
    for k in (0, 17, 179):
        stream, q = uniform[k]
        assert np.array_equal(rows[k], sample_uniform_mod(stream, n, q))


def test_stream_for_matches_reference_tag_layout():
    seed, i, j, comp = 0xDEADBEEF12345678, 3, 9, component_tag(COMP_KSK_UNIFORM, HALF_PLUS, 4)
    fast = stream_for(seed, i, j, comp)
    ref = BitSerialTrivium(seed, (i | (j << 24) | (comp << 48)) & ((1 << 80) - 1))
    assert fast.next_words(3).tolist() == ref.words(3)


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
        head = tuple(s.next_words(4).tolist())
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


def test_centered_lift_reduces_signed_words(set1):
    m = set1.base.primes[0]
    q = m.value
    x = np.array([-1, -2, 0, 1, q - 1, -(q // 2)], dtype=np.int64)
    r = CenteredLift(x, q - 1).residues(m).coeffs
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


def test_centered_lift_both_paths_match_python_ints(set2):
    # words within one modulus (max|x| <= q - 1) take the division-free
    # path; max|x| = q or q + 1, or a q0 row centred and lifted into a
    # 54-bit target, take `%`
    q0 = set2.base.primes[0].value
    m = set2.base.primes[1]
    target = m.value
    within = np.array([-target + 1, -1, 0, 1, target - 1], dtype=np.int64)
    edges = np.array([-target, -1, 0, target - 1, target, -target - 1], dtype=np.int64)
    rng = np.random.default_rng(41)
    lift = rng.integers(-(q0 // 2), q0 // 2 + 1, size=4096, dtype=np.int64)
    lift[:2] = (-(q0 // 2), q0 // 2)
    assert np.abs(lift).max() >= target
    singles = [(np.array([v], dtype=np.int64), abs(int(v)) < target) for v in edges]
    for x, fast in ((within, True), (edges, False), (lift, False), *singles):
        half = max(abs(int(v)) for v in x)
        assert (half < target) == fast
        got = CenteredLift(x, half).residues(m).coeffs
        assert got.dtype == np.uint64
        assert [int(v) for v in got] == [int(v) % target for v in x]
    for half in (target - 1, target, target + 1):
        x = np.array([-half, half, 0], dtype=np.int64)
        got = CenteredLift(x, half).residues(m).coeffs
        assert [int(v) for v in got] == [int(v) % target for v in x]


_PRESET_MODULI = list({
    m.value: m for name in param_set_names() for m in get_param_set(name).base.all_moduli
}.values())


@st.composite
def _signed_words(draw):
    """A bound, anywhere up to 2^62 or within 2 of a preset modulus, and
    signed words within it, both extremes included."""
    near = st.builds(lambda m, k: max(m.value + k, 0),
                     st.sampled_from(_PRESET_MODULI), st.integers(-2, 2))
    half = draw(st.one_of(st.integers(0, 1 << 62), near))
    words = draw(st.lists(st.integers(-half, half), min_size=0, max_size=24))
    return np.array(words + [-half, half], dtype=np.int64), half


@given(_signed_words())
def test_centered_lift_matches_python_ints_under_every_preset_modulus(case):
    x, half = case
    lift = CenteredLift(x, half)
    for m in _PRESET_MODULI:
        got = lift.residues(m).coeffs
        assert got.dtype == np.uint64
        assert [int(v) for v in got] == [int(v) % m.value for v in x]


