"""Scheme-level behavior: encoding, encryption, arithmetic and layouts.

Small-ring engines over the real moduli keep these fast; an exact big-integer
oracle checks decryption independently of the limb-domain code paths.
"""

from fractions import Fraction

import numpy as np
import pytest

from medha import heaan
from medha.archsim import compile_workload, execute_workload
from medha.heaan import Ciphertext, Engine, _slot_index
from medha.keys import (
    COMP_KSK_ERROR,
    COMP_KSK_UNIFORM,
    COMP_PK_ERROR,
    COMP_PK_UNIFORM,
    component_tag,
    sample_gaussian,
    stream_for,
)
from medha.polyring import dyadic, ntt_inverse, scalar_mul
from medha.ringsplit import forward_pair, split

TOY = 64


def _rand_slots(rng, slots, mag=0.5):
    return mag * (rng.uniform(-1, 1, slots) + 1j * rng.uniform(-1, 1, slots))


def _unit_slots(rng, slots):
    """Unit-modulus values so a product chain keeps its magnitude."""
    return np.exp(2j * np.pi * rng.uniform(0, 1, slots))


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
    with pytest.raises(ValueError):
        toy_native.encode(_rand_slots(rng, toy_native.slots, mag=2.0), 1 << 70)
    with pytest.raises(ValueError):
        toy_native.encode(np.ones(toy_native.slots + 1), 1 << 40)


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
    # i of row i is the source limb itself; dropping p transforms 2L limbs
    eng = toy_split2
    rng = np.random.default_rng(59)
    vx, vy = _rand_slots(rng, eng.slots), _rand_slots(rng, eng.slots)
    x = eng.encrypt(eng.encode(vx, 1 << 40))
    y = eng.encrypt(eng.encode(vy, 1 << 40), enc_index=1)
    calls = []
    orig = heaan.ntt_forward
    monkeypatch.setattr(heaan, "ntt_forward", lambda p: calls.append(p.n) or orig(p))
    prod = eng.mult_relin(x, y)
    monkeypatch.undo()
    top = eng.base.levels
    assert top == 9 and len(calls) == top * top + 2 * top == 99
    assert _rel_err(eng.decrypt(prod), vx * vy) < 2 ** -16


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


def test_ksk_uniform_regenerated_from_seed(toy_native, toy_split):
    for eng in (toy_native, toy_split):
        ksk = eng.relin_key
        for i in (0, eng.base.levels - 1):
            for j, m in enumerate(eng.base.all_moduli):
                regen = eng._expand_uniform(m, i, j, COMP_KSK_UNIFORM, ksk.ksk_id)
                assert np.array_equal(regen.coeffs, ksk.uniform[i][j].coeffs)


def _same(a, b):
    return np.array_equal(a.coeffs, b.coeffs)


def test_every_key_row_matches_per_limb_streams(toy_native, toy_split):
    # keygen draws all of its streams in one lock-step batch; every uniform
    # limb must equal its own one-tag draw, and every secret limb must hide
    # exactly the scalar sampler's error for its row
    for eng in (toy_native, toy_split):
        def error(i, kind, ksk_id=0):
            tag = component_tag(kind, ksk_id=ksk_id)
            return sample_gaussian(stream_for(eng.seed, i, 0, tag), eng.degree)

        e = error(0, COMP_PK_ERROR)
        for i, m in enumerate(eng.base.primes):
            assert _same(eng.pk_a[i], eng._expand_uniform(m, i, 0, COMP_PK_UNIFORM))
            b_plus_as = dyadic("mac", eng.pk_a[i], eng._s_grid[i], acc=eng.pk_b[i])
            assert _same(b_plus_as, eng._signed_to_limb(e, m))
        keys = [eng.relin_key] + [eng.rotation_keys[k] for k in sorted(eng.rotation_keys)]
        assert [k.ksk_id for k in keys] == [0, 1, 3]
        for ksk in keys:
            target = eng._ksk_target(ksk.ksk_id)
            for i in range(eng.base.levels):
                e = error(i, COMP_KSK_ERROR, ksk.ksk_id)
                for j, m in enumerate(eng.base.all_moduli):
                    u = ksk.uniform[i][j]
                    assert _same(u, eng._expand_uniform(m, i, j, COMP_KSK_UNIFORM, ksk.ksk_id))
                    pt = scalar_mul(target[j], eng.base.p_qtilde[i][j])
                    k_plus_us = dyadic("mac", u, eng._s_grid[j], acc=ksk.secret[i][j])
                    assert _same(dyadic("sub", k_plus_us, pt), eng._signed_to_limb(e, m))


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
