"""Container format: roundtrips, corruption detection, seed-expanded keys."""

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from medha.polyring import ResiduePoly, ntt_inverse

TOY = 64


def _rand_ct(eng, rng, scale=1 << 40):
    v = (rng.random(eng.slots) - 0.5) + 1j * (rng.random(eng.slots) - 0.5)
    return eng.encrypt(eng.encode(v, scale))


def _assert_ct_equal(eng, a, b):
    assert a.scale == b.scale
    assert a.level == b.level
    for ca, cb in zip((a.c0, a.c1), (b.c0, b.c1)):
        for la, lb in zip(ca, cb):
            assert np.array_equal(ntt_inverse(la).coeffs, ntt_inverse(lb).coeffs)


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


def test_rejects_zero_scale_denominator(toy_set1, toy_native, tmp_path):
    path = _saved(toy_native, toy_set1, tmp_path)
    raw = bytearray(path.read_bytes())
    num_len = int.from_bytes(raw[_HEADER.size:_HEADER.size + 4], "little")
    den_at = _HEADER.size + 4 + num_len + 4
    assert raw[den_at - 4:den_at + 1] == b"\x01\x00\x00\x00\x01"  # scale 2^40 / 1
    raw[den_at] = 0
    path.write_bytes(raw)
    with pytest.raises(SerializationError, match="denominator"):
        load_ciphertext(path, toy_set1)


@pytest.fixture(scope="module")
def saved_files(set1, set2, toy_set1, toy_set2, toy_native, toy_split2, tmp_path_factory):
    """A ciphertext and a relin key file of each toy engine, with their loaders."""
    folder = tmp_path_factory.mktemp("saved")
    rng = np.random.default_rng(27)
    files = {}
    for name, eng, ct_pset, ksk_pset in (("set1", toy_native, toy_set1, set1),
                                         ("set2", toy_split2, toy_set2, set2)):
        ct_path, ksk_path = folder / f"{name}.mdha", folder / f"{name}.mdhk"
        save_ciphertext(ct_path, _rand_ct(eng, rng), ct_pset)
        save_ksk(ksk_path, eng.relin_key, eng, ksk_pset)
        files[f"{name}-ct"] = (ct_path.read_bytes(), lambda p, s=ct_pset: load_ciphertext(p, s))
        files[f"{name}-ksk"] = (
            ksk_path.read_bytes(), lambda p, e=eng, s=ksk_pset: load_ksk(p, e, s))
    return folder, files


# positions in the header and scale fields, or anywhere in the file
_OFFSETS = st.one_of(st.integers(0, 47), st.integers(0, 1 << 20))


@settings(max_examples=200)
@given(which=st.sampled_from(["set1-ct", "set1-ksk", "set2-ct", "set2-ksk"]),
       cut=st.booleans(), at=_OFFSETS, flip=st.integers(1, 255))
@example(which="set2-ksk", cut=True, at=0, flip=1)
def test_mutated_files_raise_only_serialization_errors(saved_files, which, cut, at, flip):
    # a byte flip or truncation either still loads or is rejected as a
    # malformed container; no other exception escapes the loaders
    folder, files = saved_files
    raw, load = files[which]
    bad = bytearray(raw)
    at %= len(raw)
    if cut:
        del bad[at:]
    else:
        bad[at] ^= flip
    path = folder / "mutated"
    path.write_bytes(bad)
    try:
        load(path)
    except SerializationError:
        pass


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


@pytest.mark.parametrize("rows", [2, 8])
def test_ksk_rejects_row_count_other_than_levels(set1, toy_native, tmp_path, rows):
    # set1 has 7 levels; a 2-row relin key would fail later, in mult_relin
    key = toy_native.relin_key
    secret = (key.secret * 2)[:rows]
    path = tmp_path / "relin.mdhk"
    save_ksk(path, replace(key, secret=secret), toy_native, set1)
    with pytest.raises(SerializationError, match="rows"):
        load_ksk(path, toy_native, set1)


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


def _traced_peak(fn) -> int:
    """Peak bytes traced while `fn` runs, above what was traced before it.
    NumPy reports its array data to tracemalloc, so this counts the words."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def wide_native(set1):
    """A degree-1024 set1 engine: limbs large enough to outweigh fixed costs."""
    eng = Engine(set1.base, 1024, "native", seed=5)
    eng.keygen()
    return eng, replace(set1, degree=1024)


@pytest.mark.parametrize("kind", ["ksk", "ct"])
def test_savers_stream_limbs(set1, wide_native, tmp_path, kind):
    # a saver that built the file in memory first would peak near twice its size
    eng, pset = wide_native
    path = tmp_path / "saved"
    if kind == "ksk":
        peak = _traced_peak(lambda: save_ksk(path, eng.relin_key, eng, set1))
    else:
        ct = _rand_ct(eng, np.random.default_rng(28))
        peak = _traced_peak(lambda: save_ciphertext(path, ct, pset))
    assert peak < path.stat().st_size / 2, peak


def test_load_ciphertext_reads_limbs_in_place(wide_native, tmp_path):
    # reading the whole file and copying each limb out would peak near twice the grid
    eng, pset = wide_native
    path = tmp_path / "ct.mdha"
    save_ciphertext(path, _rand_ct(eng, np.random.default_rng(29)), pset)
    grid = 2 * pset.levels * pset.degree * 8
    loaded = []
    peak = _traced_peak(lambda: loaded.append(load_ciphertext(path, pset)))
    assert loaded[0].level == pset.levels
    assert peak < 1.5 * grid, peak
