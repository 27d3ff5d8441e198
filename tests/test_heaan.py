"""Scheme-level behavior: encoding, encryption, arithmetic and layouts.

Small-ring engines over the real moduli keep these fast; an exact big-integer
oracle checks decryption independently of the limb-domain code paths.
"""

import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medha import archsim
from medha.archsim import MachineConfig, _Executor, compile_workload, execute_workload
from medha.heaan import Ciphertext, Engine, KeySwitchKey, Plaintext, _slot_index
from medha.keys import (
    COMP_KSK_ERROR,
    COMP_KSK_UNIFORM,
    COMP_PK_ERROR,
    COMP_PK_UNIFORM,
    HALF_FULL,
    HALF_MINUS,
    HALF_PLUS,
    component_tag,
    sample_gaussian,
    sample_uniform_mod,
    stream_for,
)
from medha.polyring import (
    STANDARD,
    ResiduePoly,
    dyadic,
    ntt_forward,
    ntt_inverse,
    scalar_mul,
    twiddle_table,
)
from medha.params import load_param_config
from medha.ringsplit import forward_pair, split

TOY = 64


def _rand_slots(rng, slots, mag=0.5):
    return mag * (rng.uniform(-1, 1, slots) + 1j * rng.uniform(-1, 1, slots))


def _unit_slots(rng, slots):
    """Unit-modulus values so a product chain keeps its magnitude."""
    return np.exp(2j * np.pi * rng.uniform(0, 1, slots))


def _reference_limb(signed, m):
    """Signed words to an evaluation limb by Python-int x mod q, then the
    forward transform: a reference that shares no reduction with the Engine."""
    res = np.array([int(x) % m.value for x in signed], dtype=np.uint64)
    return ntt_forward(ResiduePoly(m, res, "coeff", STANDARD))


def _rel_err(got, want):
    denom = max(1e-12, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) / denom


def test_encode_decode_roundtrip(toy_native):
    rng = np.random.default_rng(51)
    v = _rand_slots(rng, toy_native.slots)
    pt = toy_native.encode(v, 1 << 40)
    assert pt.level == toy_native.base.levels
    assert pt.scale == Fraction(1 << 40)
    assert _rel_err(toy_native.decode(pt), v) < 1e-9


def test_decode_divides_by_exact_scale(toy_native):
    # a scale with an odd numerator makes every division round
    scale = Fraction(3**33, 7)
    rng = np.random.default_rng(52)
    pt = toy_native.encode(_rand_slots(rng, toy_native.slots), scale)
    ct = toy_native.encrypt(pt)
    d = toy_native.degree
    for limbs, got in ((pt.limbs, toy_native.decode(pt)),
                       (toy_native._dec_limbs(ct), toy_native.decrypt(ct))):
        m = np.array([float(Fraction(c) / scale) for c in toy_native._limbs_to_centered(limbs)])
        want = (np.fft.ifft(m * np.exp(1j * np.pi * np.arange(d) / d)) * d)[_slot_index(d)]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_encode_rejects_overflow_and_shape(toy_native):
    rng = np.random.default_rng(52)
    with pytest.raises(ValueError, match="^encoded coefficients overflow 62 bits"):
        toy_native.encode(_rand_slots(rng, toy_native.slots, mag=2.0), 1 << 70)
    with pytest.raises(ValueError):
        toy_native.encode(np.ones(toy_native.slots + 1), 1 << 40)
    with pytest.raises(ValueError):
        toy_native.encode([np.nan], 1 << 40)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.5, np.nan)])
def test_encode_rejects_non_finite_slots(toy_native, value):
    # refused as such, not as an overflow that blames the scale
    with pytest.raises(ValueError, match="^slot values must be finite; got NaN or infinity$"):
        toy_native.encode([0.25, value], 1 << 40)


@pytest.mark.parametrize("scale", [0, 0.0, Fraction(0), np.nan, np.inf, -np.inf])
def test_encode_rejects_zero_and_non_finite_scale(toy_native, scale):
    # a zero scale would encrypt and then fail to decrypt, dividing by it
    with pytest.raises(ValueError, match="^scale must be finite and nonzero; got "):
        toy_native.encode([0.5], scale)


def test_encode_accepts_negative_scale(toy_native):
    # it takes effect: the slots come back through the negative scale
    ct = toy_native.encrypt(toy_native.encode([0.5], -(1 << 40)))
    assert ct.scale == -(1 << 40)
    assert abs(toy_native.decrypt(ct)[0] - 0.5) < 1e-6


@pytest.mark.parametrize("scale", [np.float16(1 << 10), np.float32(1 << 20), np.longdouble(1 << 40),
                                   np.int64(1 << 20), np.uint64(1 << 40)])
def test_encode_takes_numpy_scalar_scale_as_its_value(toy_native, scale):
    # the same plaintext as the Python int of the same value, with no
    # NumPy warning on the way
    eng = toy_native
    v = np.linspace(-0.5, 0.5, eng.slots)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pt = eng.encode(v, scale)
    want = eng.encode(v, int(scale))
    assert pt.scale == want.scale and type(pt.scale.numerator) is int
    assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(pt.limbs, want.limbs))
    _within(eng.decrypt(eng.encrypt(pt)), v, scale)


def test_encode_reduces_on_both_paths(toy_native):
    # at scale 2^58 the coefficient bound lies above every 54-bit prime and
    # below q0, so q0's limb takes the conditional add and the others divide
    eng = toy_native
    rng = np.random.default_rng(53)
    v, scale = _rand_slots(rng, eng.slots), 1 << 58
    pt = eng.encode(v, scale)
    # the rounded coefficients, from the encoding's definition
    d = eng.degree
    f = np.zeros(d, dtype=np.complex128)
    tk = _slot_index(d)
    f[tk], f[d - 1 - tk] = v, np.conj(v)
    m = np.real(np.fft.fft(f) * np.exp(-1j * np.pi * np.arange(d) / d)) / d
    coeffs = [int(c) for c in np.round(m * float(scale))]
    q0, *small = (q.value for q in eng.base.primes)
    assert max(small) <= max(abs(c) for c in coeffs) < q0
    for limb in pt.limbs:
        q = limb.q.value
        assert [int(x) for x in ntt_inverse(limb).coeffs] == [c % q for c in coeffs]


def test_switching_key_returns_installed_keys_and_refuses_missing(toy_native, set1):
    assert toy_native.switching_key(0) is toy_native.relin_key
    assert toy_native.switching_key(3) is toy_native.rotation_keys[3]
    with pytest.raises(ValueError, match="^no rotation key for step 5$"):
        toy_native.switching_key(5)
    fresh = Engine(set1.base, TOY, "native", seed=6)
    with pytest.raises(ValueError, match="^keygen before mult_relin$"):
        fresh.switching_key(0)


def test_encrypt_decrypt_fresh_noise(toy_native, toy_split):
    rng = np.random.default_rng(53)
    for eng in (toy_native, toy_split):
        v = _rand_slots(rng, eng.slots)
        ct = eng.encrypt(eng.encode(v, 1 << 40))
        assert ct.level == eng.base.levels
        assert _rel_err(eng.decrypt(ct), v) < 2 ** -20


def test_decrypt_matches_bigint_oracle(toy_native):
    eng = toy_native
    rng = np.random.default_rng(54)
    ct = eng.encrypt(eng.encode(_rand_slots(rng, eng.slots), 1 << 40))
    mods = [m.value for m in eng.base.level_moduli(ct.level)]
    big_q = 1
    for m in mods:
        big_q *= m

    def lift(component):
        rows = [ntt_inverse(limb).coeffs for limb in component]
        out = []
        for k in range(eng.degree):
            x = 0
            for i, m in enumerate(mods):
                hat = big_q // m
                x += int(rows[i][k]) * hat * pow(hat, -1, m)
            out.append(x % big_q)
        return out

    c0, c1 = lift(ct.c0), lift(ct.c1)
    s = [int(x) for x in eng.sk.coeffs]
    n = eng.degree
    conv = [0] * n
    for i, ci in enumerate(c1):
        for j, sj in enumerate(s):
            if sj == 0:
                continue
            if i + j < n:
                conv[i + j] += ci * sj
            else:
                conv[i + j - n] -= ci * sj
    want = [(c0[k] + conv[k]) % big_q for k in range(n)]
    want = [x - big_q if x > big_q // 2 else x for x in want]
    assert eng.decrypt_to_centered(ct) == want


def test_add_sub_homomorphic(toy_native, toy_split):
    rng = np.random.default_rng(55)
    for eng in (toy_native, toy_split):
        vx, vy = _rand_slots(rng, eng.slots), _rand_slots(rng, eng.slots)
        x = eng.encrypt(eng.encode(vx, 1 << 40))
        y = eng.encrypt(eng.encode(vy, 1 << 40), enc_index=1)
        assert _rel_err(eng.decrypt(eng.add(x, y)), vx + vy) < 2 ** -18
        assert _rel_err(eng.decrypt(eng.sub(x, y)), vx - vy) < 2 ** -18


def test_pair_checks_raise(toy_native):
    eng = toy_native
    rng = np.random.default_rng(56)
    x = eng.encrypt(eng.encode(_rand_slots(rng, eng.slots), 1 << 40))
    y = eng.encrypt(eng.encode(_rand_slots(rng, eng.slots), 1 << 41), enc_index=1)
    with pytest.raises(ValueError, match="scale"):
        eng.add(x, y)
    z = eng.encrypt(eng.encode(_rand_slots(rng, eng.slots), 1 << 40, level=3))
    with pytest.raises(ValueError, match="level"):
        eng.add(x, z)
    mismatch = f"^level mismatch: {eng.base.levels} vs 3$"
    with pytest.raises(ValueError, match=mismatch):
        eng.mult_relin(x, z)
    with pytest.raises(ValueError, match=mismatch):
        eng.mult_plain(x, eng.encode(_rand_slots(rng, eng.slots), 1 << 40, level=3))


def test_plain_operands(toy_native, toy_split):
    rng = np.random.default_rng(57)
    for eng in (toy_native, toy_split):
        vx, vp = _rand_slots(rng, eng.slots), _rand_slots(rng, eng.slots)
        x = eng.encrypt(eng.encode(vx, 1 << 40))
        pt = eng.encode(vp, 1 << 40)
        assert _rel_err(eng.decrypt(eng.add_plain(x, pt)), vx + vp) < 2 ** -18
        prod = eng.mult_plain(x, pt)
        assert prod.scale == Fraction(1 << 80)
        assert _rel_err(eng.decrypt(prod), vx * vp) < 2 ** -18


def test_mult_relin_rescale_bookkeeping(toy_native, toy_split):
    rng = np.random.default_rng(58)
    for eng in (toy_native, toy_split):
        top = eng.base.levels
        vx, vy = _rand_slots(rng, eng.slots), _rand_slots(rng, eng.slots)
        x = eng.encrypt(eng.encode(vx, 1 << 40))
        y = eng.encrypt(eng.encode(vy, 1 << 40), enc_index=1)
        prod = eng.mult_relin(x, y)
        assert prod.level == top and prod.scale == Fraction(1 << 80)
        assert _rel_err(eng.decrypt(prod), vx * vy) < 2 ** -16
        dropped = eng.base.primes[top - 1].value
        red = eng.rescale(prod)
        assert red.level == top - 1
        assert red.scale == Fraction(1 << 80, dropped)
        assert _rel_err(eng.decrypt(red), vx * vy) < 2 ** -16


def test_mult_relin_forward_transform_count(toy_split2, monkeypatch):
    # at level L the key switch lifts L rows onto L + 1 targets, and target
    # i of row i is the source limb itself; dropping p transforms 2L limbs.
    # The op replays its compiled stream, whose transforms are the executor's
    eng = toy_split2
    rng = np.random.default_rng(59)
    vx, vy = _rand_slots(rng, eng.slots), _rand_slots(rng, eng.slots)
    x = eng.encrypt(eng.encode(vx, 1 << 40))
    y = eng.encrypt(eng.encode(vy, 1 << 40), enc_index=1)
    calls = []
    orig = archsim.ntt_forward
    monkeypatch.setattr(archsim, "ntt_forward", lambda p: calls.append(p.n) or orig(p))
    prod = eng.mult_relin(x, y)
    monkeypatch.undo()
    top = eng.base.levels
    assert top == 9 and len(calls) == top * top + 2 * top == 99
    assert _rel_err(eng.decrypt(prod), vx * vy) < 2 ** -16


def _centered(limb) -> list:
    """An evaluation limb's coefficients as Python ints in (-q/2, q/2]."""
    q = limb.q.value
    return [c - q if c > q // 2 else c for c in map(int, ntt_inverse(limb).coeffs)]


@pytest.mark.parametrize("fill", ("max", "random"))
def test_key_switch_matches_per_term_mac(toy_split2, fill, monkeypatch):
    # "max": every d limb and key word is q - 1, whose lift is -1 on every
    # target, so each sum takes the largest terms there are; "random" words
    # take the carry out of the low partial products as well. The key
    # switch runs inside a replayed mult_relin of x = (0, d) and y = (0, 1)
    # under a substituted relinearization key: the tensor product leaves
    # d * 1 = d to switch and zero beside it, so the product is the switch
    eng = toy_split2
    base = eng.base
    lvl = base.levels
    rng = np.random.default_rng(60)

    def limb(m, words):
        return ResiduePoly(m, np.asarray(words, dtype=np.uint64), "eval", STANDARD)

    def filled(m):
        return limb(m, np.full(eng.degree, m.value - 1) if fill == "max"
                    else rng.integers(0, m.value, eng.degree, dtype=np.uint64))

    d = [filled(m) for m in base.primes]
    ksk = KeySwitchKey(0, *[[[filled(m) for m in base.all_moduli] for _ in range(lvl)]
                            for _ in range(2)])
    zero = [limb(m, np.zeros(eng.degree)) for m in base.primes]
    one = [limb(m, np.ones(eng.degree)) for m in base.primes]
    monkeypatch.setattr(eng, "relin_key", ksk)
    prod = eng.mult_relin(Ciphertext(zero, d, Fraction(1)), Ciphertext(zero, one, Fraction(1)))

    # reference: a reduced multiply-accumulate per term, rows outermost,
    # then p dropped through Python-int lifts
    ext = base.level_moduli(lvl) + (base.special,)
    acc0, acc1 = [None] * len(ext), [None] * len(ext)
    for i in range(lvl):
        signed = _centered(d[i])
        for j, m in enumerate(ext):
            dl = _reference_limb(signed, m)
            kind = "mac" if i else "mul"
            acc0[j] = dyadic(kind, dl, ksk.secret[i][j], acc=acc0[j])
            acc1[j] = dyadic(kind, dl, ksk.uniform[i][j], acc=acc1[j])
    inv_p = base.inv[base.levels]
    for got, acc in ((prod.c0, acc0), (prod.c1, acc1)):
        p_part = _centered(acc[-1])
        want = [scalar_mul(dyadic("sub", x, _reference_limb(p_part, x.q)), inv_p[i])
                for i, x in enumerate(acc[:-1])]
        assert all(np.array_equal(g.coeffs, w.coeffs) for g, w in zip(got, want))


_REPLAYED = {
    "add": lambda e, x, y, pt: e.add(x, y),
    "sub": lambda e, x, y, pt: e.sub(x, y),
    "mult_plain": lambda e, x, y, pt: e.mult_plain(x, pt),
    "mult_relin": lambda e, x, y, pt: e.mult_relin(x, y),
    "rescale": lambda e, x, y, pt: e.rescale(x),
    "rotate": lambda e, x, y, pt: e.rotate(x, 1),
}


def _spy_replays(eng, monkeypatch) -> tuple[list, list]:
    """The kinds of the ops _Executor.run is handed, and the specs the
    engine compiles, from an empty program cache on."""
    runs, compiled = [], []
    run, compile_ = _Executor.run, archsim.compile_workload

    def spy_run(self, opp, state):
        runs.append(opp.kind)
        run(self, opp, state)

    def spy_compile(pset, ops, machine=None):
        compiled.extend((op["op"], op["level"], op["steps"]) for op in ops)
        return compile_(pset, ops, machine)

    monkeypatch.setattr(eng, "_programs", {})
    monkeypatch.setattr(_Executor, "run", spy_run)
    monkeypatch.setattr(archsim, "compile_workload", spy_compile)
    return runs, compiled


@pytest.mark.parametrize("op", sorted(_REPLAYED))
@pytest.mark.parametrize("engine", ("toy_native", "toy_split2"))
def test_engine_op_is_one_replay_of_its_program(request, engine, op, monkeypatch):
    # each op runs its compiled one-op program once through the executor,
    # and compiles it once per (op, level, steps) in an Engine
    eng = request.getfixturevalue(engine)
    rng = np.random.default_rng(61)
    top = eng.base.levels
    x, y = (eng.encrypt(eng.encode(_rand_slots(rng, eng.slots), 1 << 40), enc_index=k)
            for k in range(2))
    pt = eng.encode(_rand_slots(rng, eng.slots), 1 << 40)
    runs, compiled = _spy_replays(eng, monkeypatch)
    outs = [_REPLAYED[op](eng, x, y, pt) for _ in range(2)]
    assert runs == [op, op]
    assert compiled == [(op, top, 1)]
    assert list(eng._programs) == [(op, top, 1)]
    assert _same(outs[0].c0[0], outs[1].c0[0])
    if op != "rescale":
        _REPLAYED[op](eng, eng.rescale(x), eng.rescale(y), eng.encode([1.0], 1 << 40, top - 1))
        assert compiled[-1] == (op, top - 1, 1) and len(compiled) == 3


def test_rotate_by_zero_is_a_copy_that_runs_nothing(toy_native, monkeypatch):
    eng = toy_native
    ct = eng.encrypt(eng.encode(np.linspace(-1.0, 1.0, eng.slots), 1 << 40))
    runs, compiled = _spy_replays(eng, monkeypatch)
    for steps in (0, eng.slots, -2 * eng.slots):
        got = eng.rotate(ct, steps)
        assert got.scale == ct.scale
        for a, b in zip(got.c0 + got.c1, ct.c0 + ct.c1, strict=True):
            assert _same(a, b) and not np.shares_memory(a.coeffs, b.coeffs)
    assert runs == [] and compiled == [] and eng._programs == {}


@pytest.mark.parametrize("mode", ("native", "split"))
def test_engine_runs_a_base_wider_than_the_default_machine(tmp_path, mode):
    # ten levels and the special prime need eleven RPAUs, one more than the
    # default machine has; the Engine sizes its own
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"name": "wide", "degree": TOY, "log_pq": 60 + 54 * 10,
                                "mode": mode}))
    pset = load_param_config(str(path))
    assert pset.levels + 1 > MachineConfig().n_rpaus
    eng = Engine(pset.base, pset.degree, pset.mode, seed=3)
    eng.keygen(rotation_steps=(1,))
    rng = np.random.default_rng(62)
    vx, vy = _rand_slots(rng, eng.slots), _rand_slots(rng, eng.slots)
    x = eng.encrypt(eng.encode(vx, 1 << 40))
    y = eng.encrypt(eng.encode(vy, 1 << 40), enc_index=1)
    prod = eng.rescale(eng.mult_relin(x, y))
    assert prod.level == pset.levels - 1
    assert _rel_err(eng.decrypt(prod), vx * vy) < 2 ** -16
    assert _rel_err(eng.decrypt(eng.rotate(x, 1)), np.roll(vx, -1)) < 2 ** -16


def test_rescale_floor_raises(toy_native):
    eng = toy_native
    rng = np.random.default_rng(59)
    ct = eng.encrypt(eng.encode(_rand_slots(rng, eng.slots), 1 << 40, level=1))
    with pytest.raises(ValueError):
        eng.rescale(ct)


def _depth_chain(eng, depth, rng):
    """Product chain with one multiplication per level.

    Each round multiplies by a fresh unit-modulus operand encoded at the
    modulus the following rescale divides out, so the working scale holds
    steady. When the chain is about to hit the last level, the final two
    operand scales are rebalanced to ~2^29 each: a fresh ciphertext carries
    a scale-independent noise floor, so the last product (which cannot be
    rescaled) wants both factors well above that floor while their product
    still fits under the last modulus.
    """
    level = eng.base.levels
    v = _rand_slots(rng, eng.slots)
    ct = eng.encrypt(eng.encode(v, 1 << 40))
    ref = v.copy()
    for k in range(1, depth + 1):
        w = _unit_slots(rng, eng.slots)
        if level >= 2:
            op_scale = eng.drop_scale(level)
            if k < depth and level == 2:
                op_scale = op_scale / (1 << 11)
        else:
            op_scale = Fraction(1 << 29)
        cw = eng.encrypt(eng.encode(w, op_scale, level=level), enc_index=k)
        ct = eng.mult_relin(ct, cw)
        ref = ref * w
        if level >= 2:
            ct = eng.rescale(ct)
            level -= 1
    return ct, ref


def test_depth_chain_with_scale_matched_operands(toy_native, toy_split):
    rng = np.random.default_rng(60)
    for eng in (toy_native, toy_split):
        ct, ref = _depth_chain(eng, eng.base.levels, rng)
        assert ct.level == 1
        assert ct.scale == Fraction(1 << 58)
        assert _rel_err(eng.decrypt(ct), ref) < 2 ** -12


def test_rotate_matches_cyclic_shift(toy_native, toy_split):
    rng = np.random.default_rng(61)
    for eng in (toy_native, toy_split):
        v = _rand_slots(rng, eng.slots)
        ct = eng.encrypt(eng.encode(v, 1 << 40))
        for steps in (1, 3):
            got = eng.decrypt(eng.rotate(ct, steps))
            assert _rel_err(got, np.roll(v, -steps)) < 2 ** -16


def test_rotate_key_management(toy_native, set1):
    rng = np.random.default_rng(62)
    ct = toy_native.encrypt(toy_native.encode(_rand_slots(rng, 32), 1 << 40))
    with pytest.raises(ValueError, match="rotation key"):
        toy_native.rotate(ct, 5)
    fresh = Engine(set1.base, TOY, "native", seed=6)
    with pytest.raises(ValueError, match="keygen"):
        fresh.gen_rotation_keys((1,))
    with pytest.raises(ValueError, match="keygen"):
        fresh.encrypt(fresh.encode(np.zeros(4), 1 << 40))


def test_rotate_by_a_multiple_of_slots_copies(toy_native):
    eng = toy_native
    ct = eng.encrypt(eng.encode(_rand_slots(np.random.default_rng(65), eng.slots), 1 << 40))
    for k in (0, 1, -2):
        out = eng.rotate(ct, k * eng.slots)
        assert out.scale == ct.scale
        for got, src in zip(out.c0 + out.c1, ct.c0 + ct.c1, strict=True):
            assert _same(got, src) and not np.shares_memory(got.coeffs, src.coeffs)


@pytest.mark.parametrize("engine", ["toy_native", "toy_split2"])
def test_gen_rotation_keys_equal_keygen_keys(request, engine):
    # keys added after keygen come from the same tagged streams as keys
    # keygen makes in its one batch, so they are the same bits
    made = request.getfixturevalue(engine)
    late = Engine(made.base, made.degree, made.mode, seed=made.seed)
    late.keygen()
    late.gen_rotation_keys(sorted(made.rotation_keys) + [made.slots, 1 + made.slots])
    assert sorted(late.rotation_keys) == sorted(made.rotation_keys)
    for a, b in zip(_keys(made), _keys(late), strict=True):
        assert a.ksk_id == b.ksk_id
        for grid_a, grid_b in ((a.uniform, b.uniform), (a.secret, b.secret)):
            for row_a, row_b in zip(grid_a, grid_b, strict=True):
                assert all(_same(x, y) for x, y in zip(row_a, row_b, strict=True))


def test_keygen_rejects_stored_key_it_would_not_make(toy_native, set1):
    secret = toy_native.rotation_keys[1].secret
    for steps, stored_id in (((1,), 3), ((1,), 1 + TOY // 2), ((), 1), ((0,), 0 + TOY // 2)):
        fresh = Engine(set1.base, TOY, "native", seed=5)
        with pytest.raises(ValueError, match=f"stored key ids \\[{stored_id}\\]"):
            fresh.keygen(rotation_steps=steps, stored={stored_id: secret})
        assert fresh.sk is None and fresh.relin_key is None
    # a step is reduced mod slots before its stored key is matched
    fresh = Engine(set1.base, TOY, "native", seed=5)
    fresh.keygen(rotation_steps=(1 + TOY // 2,), stored={1: secret})
    assert fresh.rotation_keys[1].secret is secret


def test_split_engine_matches_half_ring_datapath(set2):
    # a split-mode limb is the full-degree evaluation vector; the half-ring
    # datapath (the executor on the set2 programs) must reproduce it bit for bit
    rng = np.random.default_rng(63)
    es = Engine(set2.base, TOY, "split", seed=9)
    es.keygen(rotation_steps=(2,))
    cs = es.encrypt(es.encode(_rand_slots(rng, TOY // 2), 1 << 40))
    ds = es.encrypt(es.encode(_rand_slots(rng, TOY // 2), 1 << 40), enc_index=1)
    for limb in cs.c0 + cs.c1:
        pair = forward_pair(split(ntt_inverse(limb)))
        assert np.array_equal(limb.coeffs, np.concatenate([pair.plus.coeffs, pair.minus.coeffs]))

    prog = compile_workload(set2, [
        {"op": "mult_relin", "x": "x", "y": "y", "out": "m"},
        {"op": "rescale", "x": "m", "out": "m"},
        {"op": "rotate", "steps": 2, "x": "x", "out": "r"},
    ])
    got = execute_workload(es, prog, {"x": cs, "y": ds})
    want = {"m": es.rescale(es.mult_relin(cs, ds)), "r": es.rotate(cs, 2)}
    for name, ct in want.items():
        have = got[name]
        assert have.scale == ct.scale and have.level == ct.level
        for a, b in zip(have.c0 + have.c1, ct.c0 + ct.c1):
            assert np.array_equal(a.coeffs, b.coeffs)


def _uniform(eng, q, i, j, kind, ksk_id=0):
    """One tag's uniform evaluation vector from the scalar sampler: the plus
    then the minus half-ring stream in split mode, one full-ring stream in
    native mode."""
    halves = (HALF_PLUS, HALF_MINUS) if eng.mode == "split" else (HALF_FULL,)
    return np.concatenate([
        sample_uniform_mod(stream_for(eng.seed, i, j, component_tag(kind, half, ksk_id)),
                           eng.degree // len(halves), q.value)
        for half in halves
    ])


def test_ksk_uniform_regenerated_from_seed(toy_native, toy_split):
    for eng in (toy_native, toy_split):
        ksk = eng.relin_key
        for i in (0, eng.base.levels - 1):
            for j, m in enumerate(eng.base.all_moduli):
                regen = _uniform(eng, m, i, j, COMP_KSK_UNIFORM, ksk.ksk_id)
                assert np.array_equal(regen, ksk.uniform[i][j].coeffs)


def _same(a, b):
    return np.array_equal(a.coeffs, b.coeffs)


def _keys(eng):
    return [eng.relin_key] + [eng.rotation_keys[k] for k in sorted(eng.rotation_keys)]


def _keygen_with_stored(first, stored_ids):
    """An engine like `first` whose keygen keeps first's secret halves of
    `stored_ids` and makes the other keys."""
    eng = Engine(first.base, first.degree, first.mode, seed=first.seed)
    stored = {k.ksk_id: k.secret for k in _keys(first) if k.ksk_id in stored_ids}
    eng.keygen(rotation_steps=(1, 3), stored=stored)
    for a, b in zip(_keys(first), _keys(eng), strict=True):
        assert a.ksk_id == b.ksk_id
        for grid_a, grid_b in ((a.uniform, b.uniform), (a.secret, b.secret)):
            for row_a, row_b in zip(grid_a, grid_b, strict=True):
                assert all(_same(x, y) for x, y in zip(row_a, row_b, strict=True))
    return eng


@pytest.mark.parametrize("stored_ids", [(), (0, 3), (0, 1, 3)])
def test_every_key_row_matches_per_limb_streams(toy_native, toy_split, stored_ids):
    # keygen draws all of its streams in one lock-step batch; every uniform
    # limb must equal its own one-tag draw, and every secret limb must hide
    # exactly the scalar sampler's error for its row. A keygen handed some
    # of those secret halves as stored keys gives the same keys.
    for eng in (toy_native, toy_split):
        if stored_ids:
            eng = _keygen_with_stored(eng, stored_ids)

        def error(i, kind, ksk_id=0):
            tag = component_tag(kind, ksk_id=ksk_id)
            return sample_gaussian(stream_for(eng.seed, i, 0, tag), eng.degree)

        e = error(0, COMP_PK_ERROR)
        for i, m in enumerate(eng.base.primes):
            assert np.array_equal(eng.pk_a[i].coeffs, _uniform(eng, m, i, 0, COMP_PK_UNIFORM))
            b_plus_as = dyadic("mac", eng.pk_a[i], eng._s_grid[i], acc=eng.pk_b[i])
            assert _same(b_plus_as, _reference_limb(e, m))
        assert [k.ksk_id for k in _keys(eng)] == [0, 1, 3]
        for ksk in _keys(eng):
            target = eng._ksk_target(ksk.ksk_id)
            for i in range(eng.base.levels):
                e = error(i, COMP_KSK_ERROR, ksk.ksk_id)
                for j, m in enumerate(eng.base.all_moduli):
                    u = ksk.uniform[i][j]
                    assert np.array_equal(u.coeffs, _uniform(eng, m, i, j, COMP_KSK_UNIFORM, ksk.ksk_id))
                    pt = scalar_mul(target[j], eng.base.p_qtilde[i][j])
                    k_plus_us = dyadic("mac", u, eng._s_grid[j], acc=ksk.secret[i][j])
                    assert _same(dyadic("sub", k_plus_us, pt), _reference_limb(e, m))


def test_engine_rejects_unknown_mode_and_degree(set1):
    with pytest.raises(ValueError, match="^unknown mode 'hybrid'$"):
        Engine(set1.base, TOY, "hybrid")
    for degree, mode in ((48, "native"), (4, "native"), (8, "split")):
        with pytest.raises(ValueError, match="^degree must be a power of two >= "):
            Engine(set1.base, degree, mode)


def test_decrypt_without_secret_key_raises(toy_native, set1):
    ct = toy_native.encrypt(toy_native.encode(np.ones(4), 1 << 40))
    with pytest.raises(ValueError, match="^no secret key in this engine$"):
        Engine(set1.base, TOY, "native", seed=5).decrypt(ct)


def test_seed_must_fit_64_bits(set1):
    for bad in (-1, 1 << 64):
        with pytest.raises(ValueError, match="seed"):
            Engine(set1.base, TOY, "native", seed=bad)
    top = Engine(set1.base, TOY, "native", seed=(1 << 64) - 1)
    top.keygen()
    ct = top.encrypt(top.encode(np.ones(4), 1 << 40))
    assert _rel_err(top.decrypt(ct)[:4], np.ones(4)) < 2 ** -18


def test_distinct_enc_index_distinct_randomness(toy_native):
    rng = np.random.default_rng(64)
    v = _rand_slots(rng, toy_native.slots)
    pt = toy_native.encode(v, 1 << 40)
    a = toy_native.encrypt(pt, enc_index=0)
    b = toy_native.encrypt(pt, enc_index=1)
    assert not np.array_equal(a.c1[0].coeffs, b.c1[0].coeffs)
    assert _rel_err(toy_native.decrypt(a), toy_native.decrypt(b)) < 2 ** -18


def test_ciphertext_copy_is_deep(toy_native):
    rng = np.random.default_rng(65)
    ct = toy_native.encrypt(toy_native.encode(_rand_slots(rng, 32), 1 << 40))
    dup = ct.copy()
    dup.c0[0].coeffs[0] += np.uint64(1)
    assert dup.c0[0].coeffs[0] != ct.c0[0].coeffs[0]
    assert isinstance(dup, Ciphertext)


@pytest.mark.parametrize("engine", ["toy_native", "toy_split"])
def test_encoded_and_limb_plaintexts_encrypt_alike(engine, request):
    # an encoded plaintext holds its coefficients, and encryption transforms
    # e0 + m once per limb; a plaintext given as limbs has them added to
    # e0's. Both are e0 + m + pk_b r mod q, bit for bit, also where the
    # coefficients exceed the modulus (2^60 at level 1)
    eng = request.getfixturevalue(engine)
    rng = np.random.default_rng(66)
    for scale, level in ((1 << 40, eng.base.levels), (1 << 60, 1)):
        pt = eng.encode(_rand_slots(rng, eng.slots), scale, level=level)
        assert pt.coeffs is not None and pt.level == level
        want = eng.encrypt(pt, enc_index=4)
        as_limbs = Plaintext(pt.limbs, pt.scale)
        assert pt.coeffs is None and pt.level == level  # one or the other
        for got in (eng.encrypt(as_limbs, enc_index=4), eng.encrypt(pt, enc_index=4)):
            assert got.scale == want.scale and got.level == level
            assert all(np.array_equal(a.coeffs, b.coeffs)
                       for a, b in zip(got.c0 + got.c1, want.c0 + want.c1))


def test_inverse_twiddle_layers_built_on_first_inverse_transform(set2):
    # keygen and encryption transform only forward, so no ring holds its
    # inverse layers until decryption first transforms back
    twiddle_table.cache_clear()
    eng = Engine(set2.base, TOY, "split", seed=9)
    eng.keygen(rotation_steps=(1,))
    ct = eng.encrypt(eng.encode(_rand_slots(np.random.default_rng(57), eng.slots), set2.scale))

    def built(q):
        return "inverse" in vars(twiddle_table(q, TOY, STANDARD))

    assert not any(built(q) for q in eng.base.all_moduli)
    eng.decrypt(ct)
    assert ct.level == set2.levels
    assert all(built(q) for q in eng.base.primes)


# ---- every argument takes effect or is rejected ----
#
# A call either raises a ValueError with one of medha's messages, or its
# result decrypts to the plain result within _NOISE / scale + _FLOAT, where
# scale is the smallest scale among the op's operands and its result. At
# the toy degree a fresh encryption's slots are off by about 400 / scale,
# a rotation's by about 1.5e4 / scale; _FLOAT covers the float transform of
# a decoding. A bool is an int: True takes effect as 1.

_NOISE = 2**16
_FLOAT = 2**-30
_MEDHA_ERRORS = re.compile(
    r"^(\w+ must be an integer; got |rotation step must be an integer; got "
    r"|level -?\d+ out of range 1\.\.\d+$|stream tag out of range$|no rotation key for step \d+$"
    r"|scale must be finite and nonzero; got |encoded coefficients overflow 62 bits"
    r"|decoded values overflow a float at scale |level mismatch: |scale mismatch; "
    r"|dyadic operands live in different rings or domains$|ciphertext ring degree \d+ is not)"
)


def _taken_or_refused(call, check) -> None:
    try:
        out = call()
    except ValueError as e:
        assert _MEDHA_ERRORS.match(str(e)), str(e)
        return
    check(out)


def _within(got, want, *scales) -> None:
    bound = _NOISE / min(abs(float(s)) for s in scales) + _FLOAT
    assert np.max(np.abs(got - want)) <= bound


_SCALES = st.one_of(
    st.sampled_from([0, -0.0, Fraction(0), math.nan, math.inf, -math.inf, 5e-324, 1e-300,
                     2.0**-40, 1, -(1 << 40), Fraction(1 << 40, 3), 2.0**70, 10**400,
                     Fraction(1, 10**400)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.fractions(),
    st.integers(-(1 << 80), 1 << 80),
    # NumPy scalars, taken at their exact values
    st.sampled_from([np.float16(0.5), np.float32(1 << 20), np.float32(0), np.float32(np.inf),
                     np.float64(2.0**40), np.longdouble(2) ** 40, np.longdouble(1) / 3,
                     np.longdouble(np.nan), np.int64(1 << 20), np.int64(-(1 << 40)),
                     np.uint64(1 << 40), np.int64(0), np.bool_(True)]),
    st.floats(width=32).map(np.float32),
    st.integers(-(1 << 63), (1 << 63) - 1).map(np.int64),
)


@settings(max_examples=60)
@given(scale=_SCALES)
def test_encode_scale_takes_effect_or_is_rejected(toy_native, scale):
    eng = toy_native
    v = np.linspace(-0.5, 0.5, eng.slots)
    _taken_or_refused(lambda: eng.decrypt(eng.encrypt(eng.encode(v, scale))),
                      lambda got: _within(got, v, scale))


_INTEGER_LIKE = st.one_of(
    st.integers(-3, 40),
    st.booleans(),
    st.floats(-40, 40),
    st.sampled_from([np.int64(3), np.int32(1), np.uint8(2), 1.0, 0.0, 1 << 24]),
)


@settings(max_examples=60)
@given(arg=st.sampled_from(["level", "enc_index", "steps"]), value=_INTEGER_LIKE)
def test_integer_arguments_take_effect_or_are_rejected(toy_native, arg, value):
    # toy_native holds the rotation keys of steps 1 and 3; a float, even a
    # whole one, is refused by the argument's name
    eng = toy_native
    v = np.linspace(-0.5, 0.5, eng.slots)
    pt = eng.encode(v, 1 << 40)
    ct = eng.encrypt(pt)

    def check_level(out):
        assert out.level == int(value)
        _within(eng.decrypt(eng.encrypt(out)), v, out.scale)

    def check_enc_index(out):
        assert _same_ct(out, eng.encrypt(pt, int(value)))
        _within(eng.decrypt(out), v, out.scale)

    call, check = {
        "level": (lambda: eng.encode(v, 1 << 40, level=value), check_level),
        "enc_index": (lambda: eng.encrypt(pt, value), check_enc_index),
        "steps": (lambda: eng.rotate(ct, value),
                  lambda out: _within(eng.decrypt(out), np.roll(v, -int(value)), out.scale)),
    }[arg]
    if isinstance(value, float):
        with pytest.raises(ValueError, match=f"^{arg} must be an integer; got "):
            call()
    else:
        _taken_or_refused(call, check)


def _same_ct(a: Ciphertext, b: Ciphertext) -> bool:
    return a.scale == b.scale and all(
        _same(x, y) for x, y in zip(a.c0 + a.c1, b.c0 + b.c1, strict=True))


def test_true_takes_effect_as_one(toy_native):
    eng = toy_native
    pt = eng.encode(np.linspace(-0.5, 0.5, eng.slots), 1 << 40)
    assert eng.encode([0.5], 1 << 40, level=True).level == 1
    ct = eng.encrypt(pt, True)
    assert _same_ct(ct, eng.encrypt(pt, 1))
    assert _same_ct(eng.encrypt(pt, np.int64(1)), ct)  # used to overflow in stream_for
    assert _same_ct(eng.rotate(ct, True), eng.rotate(ct, 1))


@pytest.mark.parametrize("arg, value", (("enc_index", 1.5), ("level", 2.0), ("steps", 1.0)))
def test_float_arguments_rejected_by_name(toy_native, arg, value):
    # each used to fail inside medha with a TypeError: from | in stream_for,
    # from a slice, and from pow after finding key 1 by float equality
    eng = toy_native
    pt = eng.encode([0.5], 1 << 40)
    call = {"enc_index": lambda: eng.encrypt(pt, value),
            "level": lambda: eng.encode([0.5], 1 << 40, level=value),
            "steps": lambda: eng.rotate(eng.encrypt(pt), value)}[arg]
    with pytest.raises(ValueError, match=f"^{arg} must be an integer; got {value}$"):
        call()


@pytest.mark.parametrize("scale", [10**400, -(10**400), Fraction(1, 10**400)])
def test_encode_rejects_scale_outside_float_range(toy_native, scale):
    # the slots are multiplied by float(scale): 10^400 raised OverflowError
    # there, and 10^-400 rounded to 0 and encoded every slot as zero
    with pytest.raises(ValueError, match="^scale must be finite and nonzero; got "):
        toy_native.encode([0.5], scale)


def test_decode_rejects_values_beyond_a_float(toy_native):
    # at the smallest float scale the noise alone decodes past 2^1024; it
    # used to raise OverflowError from the division
    ct = toy_native.encrypt(toy_native.encode([0.5], 5e-324))
    with pytest.raises(ValueError, match="^decoded values overflow a float at scale 4.94e-324$"):
        toy_native.decrypt(ct)


def test_rotation_step_of_keygen_must_be_an_integer(set1):
    eng = Engine(set1.base, TOY, "native", seed=5)
    with pytest.raises(ValueError, match="^rotation step must be an integer; got 1.5$"):
        eng.keygen(rotation_steps=(1.5,))


@pytest.fixture(scope="module")
def toy_native_128(set1):
    eng = Engine(set1.base, 2 * TOY, "native", seed=5)
    eng.keygen(rotation_steps=(1,))
    return eng


# the op applied to x, from toy_native, and to the mismatched operand y,
# with the slots it must decrypt to; a unary op takes y alone and is
# decrypted by y's engine, a binary one by x's
_MISMATCH_OPS = {
    "add": (lambda e, x, y, py: e.add(x, y), lambda vx, vy: vx + vy),
    "sub": (lambda e, x, y, py: e.sub(x, y), lambda vx, vy: vx - vy),
    "mult_plain": (lambda e, x, y, py: e.mult_plain(x, py), lambda vx, vy: vx * vy),
    "mult_relin": (lambda e, x, y, py: e.mult_relin(x, y), lambda vx, vy: vx * vy),
    "rotate": (lambda e, x, y, py: e.rotate(y, 1), lambda vx, vy: np.roll(vy, -1)),
    "rescale": (lambda e, x, y, py: e.rescale(y), lambda vx, vy: vy),
    "decrypt": (lambda e, x, y, py: e.decrypt(y), lambda vx, vy: vy),
}


@pytest.mark.parametrize("mismatch", ("level", "scale", "degree", "mode"))
@pytest.mark.parametrize("op", tuple(_MISMATCH_OPS))
def test_mismatched_operands_take_effect_or_are_rejected(toy_native, toy_split, toy_native_128,
                                                         op, mismatch):
    # toy_split shares toy_native's seed, so its secret key: a ciphertext
    # carries no mode, and one of either mode decrypts under both
    eng = toy_native
    other = {"degree": toy_native_128, "mode": toy_split}.get(mismatch, eng)
    level = eng.base.levels - (mismatch == "level")
    scale = Fraction(1 << 41 if mismatch == "scale" else 1 << 40)
    vx = np.linspace(-0.5, 0.5, eng.slots)
    vy = np.cos(np.arange(other.slots))
    x = eng.encrypt(eng.encode(vx, 1 << 40))
    py = other.encode(vy, scale, level=level)
    y = other.encrypt(py, 1)
    apply, plain = _MISMATCH_OPS[op]
    unary = op in ("rotate", "rescale", "decrypt")
    scales = [py.scale] if unary else [x.scale, py.scale]

    def check(out):
        if op != "decrypt":
            scales.append(out.scale)
            out = (other if unary else eng).decrypt(out)
        _within(out, plain(vx, vy), *scales)

    _taken_or_refused(lambda: apply(eng, x, y, py), check)
