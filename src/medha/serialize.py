"""Binary container for ciphertexts and key-switch keys.

Layout (little endian):

    magic   4s   b"MDHA"
    version u16
    kind    u8   1 = ciphertext, 2 = key-switch key
    mode    u8   0 = native layout, 1 = split layout
    hash    8s   parameter-set fingerprint
    level   u16  limbs per component (ciphertext) or decomposition rows (key)
    degree  u32  scheme ring degree of the stored polynomials

Ciphertexts then carry the exact scale as two length-prefixed big
integers (numerator, denominator) followed by both components limb by
limb, each limb its full-degree evaluation vector as u64 words (for a
split parameter set, the plus half-ring evaluations then the minus ones).
Every word must be a canonical residue of its limb's modulus. Key files
carry the key id, the expansion seed, and only the secret half of the
grid: the uniform half is regenerated from tagged streams on load, which
is also why a key file is about half the size of its two-component
equivalent.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

from .heaan import Ciphertext, Engine, KeySwitchKey
from .params import ParamSet
from .polyring import STANDARD, ResiduePoly

MAGIC = b"MDHA"
VERSION = 1
KIND_CT = 1
KIND_KSK = 2

_HEADER = struct.Struct("<4sHBB8sHI")


class SerializationError(Exception):
    """Malformed or mismatched container."""


class VersionError(SerializationError):
    """Container written by an incompatible format version."""


class HashError(SerializationError):
    """Container belongs to a different parameter set or seed."""


def _mode_code(mode: str) -> int:
    return 1 if mode == "split" else 0


def _limb_bytes(limb: ResiduePoly) -> bytes:
    return limb.coeffs.astype("<u8").tobytes()


def _read_limb(buf: memoryview, off: int, q, degree: int):
    coeffs = np.frombuffer(buf[off:off + 8 * degree], dtype="<u8").astype(np.uint64)
    if np.any(coeffs >= np.uint64(q.value)):
        raise SerializationError(f"limb word is not a residue mod {q.value}")
    return ResiduePoly(q, coeffs, "eval", STANDARD), off + 8 * degree


def _encode_bigint(x: int) -> bytes:
    raw = x.to_bytes((x.bit_length() + 7) // 8 or 1, "little")
    return struct.pack("<I", len(raw)) + raw


def _decode_bigint(buf: memoryview, off: int) -> tuple[int, int]:
    if off + 4 > len(buf):
        raise SerializationError("truncated container")
    (n,) = struct.unpack_from("<I", buf, off)
    off += 4
    if off + n > len(buf):
        raise SerializationError("truncated container")
    return int.from_bytes(bytes(buf[off:off + n]), "little"), off + n


def _check_header(buf: memoryview, kind: int, pset: ParamSet) -> tuple[int, int, int]:
    if len(buf) < _HEADER.size:
        raise SerializationError("truncated container")
    magic, version, k, mode, h, level, degree = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise SerializationError("not a recognized container")
    if version != VERSION:
        raise VersionError(f"format version {version}, expected {VERSION}")
    if k != kind:
        raise SerializationError(f"container kind {k}, expected {kind}")
    if mode != _mode_code(pset.mode):
        raise HashError("stored layout does not match the parameter set")
    if h != pset.param_hash():
        raise HashError("parameter-set fingerprint mismatch")
    if degree < 8 or degree & (degree - 1):
        raise SerializationError(f"bad ring degree {degree}")
    return level, degree, _HEADER.size


def save_ciphertext(path, ct: Ciphertext, pset: ParamSet) -> None:
    scale = Fraction(ct.scale)
    parts = [
        _HEADER.pack(MAGIC, VERSION, KIND_CT, _mode_code(pset.mode),
                     pset.param_hash(), ct.level, ct.c0[0].n),
        _encode_bigint(scale.numerator),
        _encode_bigint(scale.denominator),
    ]
    for comp in (ct.c0, ct.c1):
        for limb in comp:
            parts.append(_limb_bytes(limb))
    Path(path).write_bytes(b"".join(parts))


def load_ciphertext(path, pset: ParamSet) -> Ciphertext:
    buf = memoryview(Path(path).read_bytes())
    level, degree, off = _check_header(buf, KIND_CT, pset)
    if level < 1 or level > pset.levels:
        raise SerializationError(f"level {level} out of range")
    if degree != pset.degree:
        raise SerializationError(f"ring degree {degree} does not match the parameter set")
    num, off = _decode_bigint(buf, off)
    den, off = _decode_bigint(buf, off)
    if len(buf) != off + 2 * level * 8 * degree:
        raise SerializationError("container length does not match header")
    comps = []
    for _ in range(2):
        limbs = []
        for i in range(level):
            limb, off = _read_limb(buf, off, pset.base.primes[i], degree)
            limbs.append(limb)
        comps.append(limbs)
    if off != len(buf):
        raise SerializationError("trailing bytes after payload")
    return Ciphertext(comps[0], comps[1], Fraction(num, den))


def save_ksk(path, ksk: KeySwitchKey, engine: Engine, pset: ParamSet) -> None:
    rows = len(ksk.secret)
    parts = [
        _HEADER.pack(MAGIC, VERSION, KIND_KSK, _mode_code(pset.mode),
                     pset.param_hash(), rows, engine.degree),
        struct.pack("<HQ", ksk.ksk_id, engine.seed),
    ]
    for row in ksk.secret:
        for limb in row:
            parts.append(_limb_bytes(limb))
    Path(path).write_bytes(b"".join(parts))


def load_ksk(path, engine: Engine, pset: ParamSet) -> KeySwitchKey:
    """Read the secret half and regenerate the uniform half from the seed."""
    buf = memoryview(Path(path).read_bytes())
    rows, degree, off = _check_header(buf, KIND_KSK, pset)
    if degree != engine.degree:
        raise HashError("stored ring degree does not match the engine")
    if off + struct.calcsize("<HQ") > len(buf):
        raise SerializationError("truncated container")
    ksk_id, seed = struct.unpack_from("<HQ", buf, off)
    off += struct.calcsize("<HQ")
    if seed != engine.seed:
        raise HashError("expansion seed does not match the engine")
    base = engine.base
    if len(buf) != off + rows * len(base.all_moduli) * 8 * degree:
        raise SerializationError("container length does not match header")
    secret = []
    for _ in range(rows):
        srow = []
        for m in base.all_moduli:
            limb, off = _read_limb(buf, off, m, engine.degree)
            srow.append(limb)
        secret.append(srow)
    if off != len(buf):
        raise SerializationError("trailing bytes after payload")
    return KeySwitchKey(ksk_id, engine.ksk_uniform(ksk_id, rows), secret)
