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
grid, which is why a key file is about half the size of its two-component
equivalent. `read_ksk` returns a checked file's id and secret half; the
uniform half is drawn from tagged streams, one key's by `load_ksk`, or
every stored key's in the one batch of `Engine.keygen(stored=...)`.

Both directions stream: a saver writes each limb straight from its array
and a loader reads each limb into its own, so no whole-file buffer is
built on either side.
"""

from __future__ import annotations

import os
import struct
from fractions import Fraction

import numpy as np

from .heaan import Ciphertext, Engine, KeySwitchKey
from .params import ParamSet
from .polyring import STANDARD, ResiduePoly

MAGIC = b"MDHA"
VERSION = 1
KIND_CT = 1
KIND_KSK = 2

_HEADER = struct.Struct("<4sHBB8sHI")
_KSK_FIELDS = struct.Struct("<HQ")   # key id, expansion seed


class SerializationError(Exception):
    """Malformed or mismatched container."""


class VersionError(SerializationError):
    """Container written by an incompatible format version."""


class HashError(SerializationError):
    """Container belongs to a different parameter set or seed."""


def _mode_code(mode: str) -> int:
    return 1 if mode == "split" else 0


def _write(path, head: bytes, grid) -> None:
    """The header fields, then each limb's words straight from its array."""
    with open(path, "wb") as f:
        f.write(head)
        for row in grid:
            for limb in row:
                f.write(np.ascontiguousarray(limb.coeffs, "<u8"))


def _read(f, n: int) -> bytes:
    raw = f.read(n)
    if len(raw) != n:
        raise SerializationError("truncated container")
    return raw


def _read_grid(f, rows: int, moduli, degree: int) -> list:
    """`rows` rows of one limb per modulus, which must end the container;
    each limb is read into its own array."""
    if os.fstat(f.fileno()).st_size != f.tell() + rows * len(moduli) * 8 * degree:
        raise SerializationError("container length does not match header")
    grid = []
    for _ in range(rows):
        row = []
        for q in moduli:
            coeffs = np.empty(degree, "<u8")
            if f.readinto(coeffs) != coeffs.nbytes:
                raise SerializationError("truncated container")
            coeffs = coeffs.astype(np.uint64, copy=False)
            if np.any(coeffs >= np.uint64(q.value)):
                raise SerializationError(f"limb word is not a residue mod {q.value}")
            row.append(ResiduePoly(q, coeffs, "eval", STANDARD))
        grid.append(row)
    return grid


def _encode_bigint(x: int) -> bytes:
    raw = x.to_bytes((x.bit_length() + 7) // 8 or 1, "little")
    return struct.pack("<I", len(raw)) + raw


def _read_bigint(f) -> int:
    (n,) = struct.unpack("<I", _read(f, 4))
    # checked before reading, so a corrupt length cannot ask for gigabytes
    if f.tell() + n > os.fstat(f.fileno()).st_size:
        raise SerializationError("truncated container")
    return int.from_bytes(_read(f, n), "little")


def _check_header(f, kind: int, pset: ParamSet) -> tuple[int, int]:
    magic, version, k, mode, h, level, degree = _HEADER.unpack(_read(f, _HEADER.size))
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
    return level, degree


def save_ciphertext(path, ct: Ciphertext, pset: ParamSet) -> None:
    scale = Fraction(ct.scale)
    head = b"".join([
        _HEADER.pack(MAGIC, VERSION, KIND_CT, _mode_code(pset.mode),
                     pset.param_hash(), ct.level, ct.c0[0].n),
        _encode_bigint(scale.numerator),
        _encode_bigint(scale.denominator),
    ])
    _write(path, head, (ct.c0, ct.c1))


def load_ciphertext(path, pset: ParamSet) -> Ciphertext:
    with open(path, "rb") as f:
        level, degree = _check_header(f, KIND_CT, pset)
        if level < 1 or level > pset.levels:
            raise SerializationError(f"level {level} out of range")
        if degree != pset.degree:
            raise SerializationError(f"ring degree {degree} does not match the parameter set")
        num = _read_bigint(f)
        den = _read_bigint(f)
        if den == 0:
            raise SerializationError("scale denominator is zero")
        c0, c1 = _read_grid(f, 2, pset.base.primes[:level], degree)
    return Ciphertext(c0, c1, Fraction(num, den))


def save_ksk(path, ksk: KeySwitchKey, engine: Engine, pset: ParamSet) -> None:
    head = _HEADER.pack(MAGIC, VERSION, KIND_KSK, _mode_code(pset.mode),
                        pset.param_hash(), len(ksk.secret), engine.degree)
    _write(path, head + _KSK_FIELDS.pack(ksk.ksk_id, engine.seed), ksk.secret)


def read_ksk(path, engine: Engine, pset: ParamSet) -> tuple[int, list]:
    """A key file's id and secret half, checked against the engine."""
    with open(path, "rb") as f:
        rows, degree = _check_header(f, KIND_KSK, pset)
        if degree != engine.degree:
            raise HashError("stored ring degree does not match the engine")
        ksk_id, seed = _KSK_FIELDS.unpack(_read(f, _KSK_FIELDS.size))
        if seed != engine.seed:
            raise HashError("expansion seed does not match the engine")
        if rows != engine.base.levels:
            raise SerializationError(f"{rows} key rows, expected {engine.base.levels}")
        return ksk_id, _read_grid(f, rows, engine.base.all_moduli, degree)


def load_ksk(path, engine: Engine, pset: ParamSet) -> KeySwitchKey:
    """Read the secret half and regenerate the uniform half from the seed."""
    return engine.adopt_ksk(*read_ksk(path, engine, pset))
