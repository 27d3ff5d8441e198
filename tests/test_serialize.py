"""Container format: roundtrips, corruption detection, seed-expanded keys."""

import hashlib

import numpy as np
import pytest

from medha.serialize import (
    _HEADER,
    HashError,
    SerializationError,
    VersionError,
    load_ciphertext,
    load_ksk,
    save_ciphertext,
    save_ksk,
)
from medha.heaan import Ciphertext, Engine
from medha.polyring import ResiduePoly

TOY = 64


def _rand_ct(eng, rng, scale=1 << 40):
    v = (rng.random(eng.slots) - 0.5) + 1j * (rng.random(eng.slots) - 0.5)
    return eng.encrypt(eng.encode(v, scale))


def _assert_ct_equal(eng, a, b):
    assert a.scale == b.scale
    assert a.level == b.level
    for ca, cb in zip((a.c0, a.c1), (b.c0, b.c1)):
        for la, lb in zip(ca, cb):
            assert np.array_equal(eng._limb_to_parent(la), eng._limb_to_parent(lb))


def _assert_ksk_equal(a, b):
    assert a.ksk_id == b.ksk_id
    for grid_a, grid_b in zip((a.uniform, a.secret), (b.uniform, b.secret)):
        for row_a, row_b in zip(grid_a, grid_b):
            for la, lb in zip(row_a, row_b):
                assert np.array_equal(la.coeffs, lb.coeffs)


def test_ciphertext_roundtrip_native(toy_set1, toy_native, tmp_path):
    rng = np.random.default_rng(21)
    ct = _rand_ct(toy_native, rng)
    path = tmp_path / "fresh.mdha"
    save_ciphertext(path, ct, toy_set1)
    _assert_ct_equal(toy_native, ct, load_ciphertext(path, toy_set1))


def test_ciphertext_roundtrip_fraction_scale(toy_set1, toy_native, tmp_path):
    # a rescaled product carries an exact non-integer scale
    rng = np.random.default_rng(22)
    ct = toy_native.rescale(toy_native.mult_relin(_rand_ct(toy_native, rng),
                                                  _rand_ct(toy_native, rng)))
    assert ct.scale.denominator > 1
    path = tmp_path / "rescaled.mdha"
    save_ciphertext(path, ct, toy_set1)
    back = load_ciphertext(path, toy_set1)
    assert back.scale == ct.scale
    _assert_ct_equal(toy_native, ct, back)


def test_ciphertext_roundtrip_split(toy_set2, toy_split2, tmp_path):
    rng = np.random.default_rng(23)
    ct = _rand_ct(toy_split2, rng)
    path = tmp_path / "split.mdha"
    save_ciphertext(path, ct, toy_set2)
    _assert_ct_equal(toy_split2, ct, load_ciphertext(path, toy_set2))


def _saved(toy_native, toy_set1, tmp_path):
    rng = np.random.default_rng(24)
    path = tmp_path / "probe.mdha"
    save_ciphertext(path, _rand_ct(toy_native, rng), toy_set1)
    return path


def test_rejects_bad_magic(toy_set1, toy_native, tmp_path):
    path = _saved(toy_native, toy_set1, tmp_path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(raw)
    with pytest.raises(SerializationError, match="not a recognized"):
        load_ciphertext(path, toy_set1)


def test_rejects_future_version(toy_set1, toy_native, tmp_path):
    path = _saved(toy_native, toy_set1, tmp_path)
    raw = bytearray(path.read_bytes())
    raw[4] += 1  # little-endian u16 version field
    path.write_bytes(raw)
    with pytest.raises(VersionError):
        load_ciphertext(path, toy_set1)


def test_rejects_wrong_kind(toy_set1, toy_native, tmp_path):
    path = _saved(toy_native, toy_set1, tmp_path)
    raw = bytearray(path.read_bytes())
    raw[6] = 2  # kind byte: claims to be a key file
    path.write_bytes(raw)
    with pytest.raises(SerializationError, match="kind"):
        load_ciphertext(path, toy_set1)


def test_rejects_foreign_parameter_set(toy_set1, logreg_pset, toy_native, tmp_path):
    path = _saved(toy_native, toy_set1, tmp_path)
    with pytest.raises(HashError):
        load_ciphertext(path, logreg_pset)


def test_rejects_truncation_and_junk(toy_set1, toy_native, tmp_path):
    path = _saved(toy_native, toy_set1, tmp_path)
    raw = path.read_bytes()
    for bad in (raw[:-8], raw[: _HEADER.size + 3], raw + b"\x00" * 4):
        path.write_bytes(bad)
        with pytest.raises(SerializationError):
            load_ciphertext(path, toy_set1)


def test_rejects_out_of_range_level(toy_set1, toy_native, tmp_path):
    path = _saved(toy_native, toy_set1, tmp_path)
    raw = bytearray(path.read_bytes())
    raw[16:18] = (toy_set1.levels + 1).to_bytes(2, "little")
    path.write_bytes(raw)
    with pytest.raises(SerializationError, match="level"):
        load_ciphertext(path, toy_set1)


def test_rejects_degree_other_than_parameter_set(toy_set1, toy_native, tmp_path):
    # level x2 and degree /2 keep the payload length; with residues small
    # enough for every modulus only the degree check can catch the rewrite
    small = (np.arange(toy_native.degree) % 5).astype(np.uint64)
    limbs = [ResiduePoly(q, small.copy(), "eval") for q in toy_set1.base.primes[:2]]
    path = tmp_path / "small.mdha"
    save_ciphertext(path, Ciphertext(limbs, [x.copy() for x in limbs], 1 << 40), toy_set1)
    assert load_ciphertext(path, toy_set1).level == 2
    raw = bytearray(path.read_bytes())
    raw[16:18] = (4).to_bytes(2, "little")
    raw[18:22] = (toy_native.degree // 2).to_bytes(4, "little")
    path.write_bytes(raw)
    with pytest.raises(SerializationError, match="degree"):
        load_ciphertext(path, toy_set1)


def _set_last_word(path, value):
    raw = bytearray(path.read_bytes())
    raw[-8:] = value.to_bytes(8, "little")
    path.write_bytes(raw)


def test_rejects_non_canonical_residue(toy_set1, toy_native, tmp_path):
    # the last payload word is c1's top limb, a residue mod the top prime
    path = _saved(toy_native, toy_set1, tmp_path)
    q = toy_set1.base.primes[toy_set1.levels - 1].value
    _set_last_word(path, q - 1)
    load_ciphertext(path, toy_set1)
    _set_last_word(path, q)
    with pytest.raises(SerializationError, match="residue"):
        load_ciphertext(path, toy_set1)


def test_ksk_rejects_non_canonical_residue(set1, toy_native, tmp_path):
    # the last payload word belongs to the special-prime column
    path = tmp_path / "relin.mdhk"
    save_ksk(path, toy_native.relin_key, toy_native, set1)
    _set_last_word(path, set1.base.special.value)
    with pytest.raises(SerializationError, match="residue"):
        load_ksk(path, toy_native, set1)


def test_ksk_roundtrip_regenerates_uniform_half(set1, toy_native, tmp_path):
    path = tmp_path / "relin.mdhk"
    save_ksk(path, toy_native.relin_key, toy_native, set1)
    back = load_ksk(path, toy_native, set1)
    _assert_ksk_equal(toy_native.relin_key, back)

    # behavior is unchanged when the engine runs on the loaded key
    rng = np.random.default_rng(25)
    x, y = _rand_ct(toy_native, rng), _rand_ct(toy_native, rng)
    want = toy_native.mult_relin(x, y)
    original = toy_native.relin_key
    toy_native.relin_key = back
    try:
        got = toy_native.mult_relin(x, y)
    finally:
        toy_native.relin_key = original
    _assert_ct_equal(toy_native, want, got)


def test_ksk_roundtrip_split(set2, toy_split2, tmp_path):
    path = tmp_path / "rot1.mdhk"
    save_ksk(path, toy_split2.rotation_keys[1], toy_split2, set2)
    _assert_ksk_equal(toy_split2.rotation_keys[1], load_ksk(path, toy_split2, set2))


def test_ksk_rejects_wrong_seed(set1, toy_native, tmp_path):
    path = tmp_path / "relin.mdhk"
    save_ksk(path, toy_native.relin_key, toy_native, set1)
    other = Engine(set1.base, TOY, "native", seed=6)
    with pytest.raises(HashError, match="seed"):
        load_ksk(path, other, set1)


def test_ksk_rejects_wrong_degree(set1, toy_native, tmp_path):
    path = tmp_path / "relin.mdhk"
    save_ksk(path, toy_native.relin_key, toy_native, set1)
    other = Engine(set1.base, 2 * TOY, "native", seed=5)
    with pytest.raises(HashError, match="degree"):
        load_ksk(path, other, set1)


# SHA-256 of a rotated ciphertext file and of the rotation-1 key file for
# the toy engines; any change to key, ciphertext or container bits shows here
_PINNED = {
    "set1": ("28325ac1333de9226e94d104bab0fc846c1c9bbcf2932a302070a33821d0d692",
             "aafcea0ef7339a3cbdf85e170998c463027d4d1e36f523f033376bcb8df95ddd"),
    "set2": ("d22b3dcda94c075fe42218378c959986ece5c4f01ea2de8b1e49d270b5648647",
             "ab7f5cccb6f6feedf63ee796f363d86e76c477a5ade073dcff334660f642431d"),
}


def test_saved_bits_pinned(set1, set2, toy_native, toy_split2, tmp_path):
    for pset, eng in ((set1, toy_native), (set2, toy_split2)):
        rng = np.random.default_rng(26)
        ct = eng.rotate(_rand_ct(eng, rng), 1)
        save_ciphertext(tmp_path / "ct", ct, pset)
        save_ksk(tmp_path / "ksk", eng.rotation_keys[1], eng, pset)
        got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                    for f in ("ct", "ksk"))
        assert got == _PINNED[pset.name]


def test_ksk_file_smaller_than_two_grid_form(set1, toy_native, tmp_path):
    path = tmp_path / "relin.mdhk"
    save_ksk(path, toy_native.relin_key, toy_native, set1)
    rows = len(toy_native.relin_key.secret)
    cols = len(set1.base.all_moduli)
    two_grids = _HEADER.size + 10 + 2 * rows * cols * 8 * TOY
    assert path.stat().st_size < 0.6 * two_grids
