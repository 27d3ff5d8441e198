"""Approximate-arithmetic homomorphic evaluation over an RNS limb basis.

One Engine instance fixes a prime basis, a ring degree, a mode and a seed.
Every limb is one degree-D polynomial held as its full-degree evaluation
vector. Under the factorization x^D + 1 = (x^h - z^h)(x^h + z^h) that vector
is the plus half-ring evaluations followed by the minus half-ring
evaluations (the split is the transform's first butterfly layer), so a
"split" limb needs no layout of its own. The mode only picks which tagged
streams expand the uniform key material: two half-ring streams in split
mode, one full-ring stream in native mode. The half-ring datapath itself
runs in the accelerator model's executor (`archsim`), which must reproduce
this engine's ciphertexts bit for bit.

Elementwise limb arithmetic stays in the evaluation domain. The nonlinear
steps (centered base conversion inside key switching, modulus dropping and
rescaling) pass through the parent coefficient domain, mirroring how the
pipelined hardware sequences them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import keys as krand
from .keys import (
    COMP_ENC_E0,
    COMP_ENC_E1,
    COMP_ENC_R,
    COMP_KSK_ERROR,
    COMP_KSK_UNIFORM,
    COMP_PK_ERROR,
    COMP_PK_UNIFORM,
    HALF_FULL,
    HALF_MINUS,
    HALF_PLUS,
    SecretKey,
    component_tag,
    sample_gaussian,
    sample_lanes,
    sample_ternary,
    sample_uniform_mod,  # noqa: F401  (perfbench/test_perfbench.py reads it here)
    signed_to_residues,
    stream_for,
)
from .modarith import PrimeModulus, RnsBase, crt_reconstruct
from .polyring import (
    STANDARD,
    ResiduePoly,
    automorphism,
    dyadic,
    ntt_forward,
    ntt_inverse,
    scalar_mul,
)

RELIN_KSK_ID = 0  # rotation keys use ksk_id = step, which is always >= 1


@dataclass
class Plaintext:
    limbs: list  # ResiduePoly per level modulus, evaluation domain
    scale: Fraction

    @property
    def level(self) -> int:
        return len(self.limbs)


@dataclass
class Ciphertext:
    c0: list
    c1: list
    scale: Fraction

    @property
    def level(self) -> int:
        return len(self.c0)

    def copy(self) -> "Ciphertext":
        return Ciphertext(
            [x.copy() for x in self.c0], [x.copy() for x in self.c1], self.scale
        )


@dataclass
class KeySwitchKey:
    """Per-limb switching material over the extended basis.

    uniform[i][j] and secret[i][j] index decomposition limb i (a base prime)
    and target modulus j (base primes then the special prime last). Only the
    secret half carries information beyond the seed; the uniform half is
    regenerated from tagged streams.
    """

    ksk_id: int
    uniform: list
    secret: list


_SLOT_INDEX_CACHE: dict[int, np.ndarray] = {}


def _slot_index(degree: int) -> np.ndarray:
    """Evaluation-point index t_k with slot k at root exponent 5^k mod 2D."""
    t = _SLOT_INDEX_CACHE.get(degree)
    if t is None:
        e = 1
        idx = np.empty(degree // 2, dtype=np.int64)
        for k in range(degree // 2):
            idx[k] = (e - 1) >> 1
            e = e * 5 % (2 * degree)
        t = _SLOT_INDEX_CACHE[degree] = idx
    return t


def _centered_int64(res: np.ndarray, q: int) -> np.ndarray:
    """Canonical residues to the centered representative in (-q/2, q/2]."""
    x = res.astype(np.int64)
    return np.where(x > q // 2, x - np.int64(q), x)


class Engine:
    """Evaluation context for one basis, ring degree, mode and seed."""

    def __init__(
        self,
        base: RnsBase,
        degree: int,
        mode: str = "native",
        seed: int = 0,
    ):
        if mode not in ("native", "split"):
            raise ValueError(f"unknown mode {mode!r}")
        min_deg = 16 if mode == "split" else 8
        if degree < min_deg or degree & (degree - 1):
            raise ValueError(f"degree must be a power of two >= {min_deg}")
        if not 0 <= seed < (1 << 64):
            raise ValueError("seed must be in [0, 2^64)")
        self.base = base
        self.degree = degree
        self.mode = mode
        self.seed = seed
        self.slots = degree // 2
        self.sk: Optional[SecretKey] = None
        self.pk_b: Optional[list] = None
        self.pk_a: Optional[list] = None
        self.relin_key: Optional[KeySwitchKey] = None
        self.rotation_keys: dict[int, KeySwitchKey] = {}
        self._s_grid: Optional[list] = None

    # ---- limb primitives ----

    def _signed_to_limb(self, signed: np.ndarray, q: PrimeModulus) -> ResiduePoly:
        res = signed_to_residues(signed, q.value)
        return ntt_forward(ResiduePoly(q, res, "coeff", STANDARD))

    def _limb_to_parent(self, limb: ResiduePoly) -> np.ndarray:
        """Evaluation-domain limb to parent-ring coefficient residues."""
        return ntt_inverse(limb).coeffs

    def _draw(
        self, uniform_tags: Sequence[tuple], error_tags: Sequence[tuple] = ()
    ) -> tuple[list, list]:
        """Uniform limbs and Gaussian error vectors from one lock-step batch.

        A uniform tag (q, i, j, kind, ksk_id) gives one evaluation-domain limb
        mod q. The mode fixes its streams: in split mode the plus and minus
        half-ring evaluations come from their own streams, drawn as adjacent
        lanes, so each limb is a view of two consecutive batch rows (their
        concatenation is the full-degree vector). All limbs of one call are
        views of one buffer. An error tag (i, kind, ksk_id) gives one signed
        vector of `degree` coefficients.
        """
        halves = (HALF_PLUS, HALF_MINUS) if self.mode == "split" else (HALF_FULL,)
        uniform = [
            (stream_for(self.seed, i, j, component_tag(kind, half, ksk_id)), q.value)
            for q, i, j, kind, ksk_id in uniform_tags
            for half in halves
        ]
        errors = [
            stream_for(self.seed, i, 0, component_tag(kind, HALF_FULL, ksk_id))
            for i, kind, ksk_id in error_tags
        ]
        rows, errs = sample_lanes(uniform, self.degree // len(halves), errors, self.degree)
        grid = rows.reshape(len(uniform_tags), self.degree)
        limbs = [ResiduePoly(tag[0], v, "eval", STANDARD) for tag, v in zip(uniform_tags, grid)]
        return limbs, list(errs)

    def _expand_uniform(
        self, q: PrimeModulus, i: int, j: int, kind: int, ksk_id: int = 0
    ) -> ResiduePoly:
        """Uniform evaluation vector of one tag; the mode fixes its streams."""
        return self._draw([(q, i, j, kind, ksk_id)])[0][0]

    def ksk_uniform(self, ksk_id: int, rows: int) -> list:
        """A switching key's uniform grid, regenerated in one batch."""
        width = len(self.base.all_moduli)
        limbs, _ = self._draw(self._ksk_uniform_tags(ksk_id, rows))
        return [limbs[r * width:(r + 1) * width] for r in range(rows)]

    def _ksk_uniform_tags(self, ksk_id: int, rows: int) -> list:
        """Uniform tags of a key's grid, row-major over (row i, modulus j)."""
        return [
            (m, i, j, COMP_KSK_UNIFORM, ksk_id)
            for i in range(rows)
            for j, m in enumerate(self.base.all_moduli)
        ]

    # ---- key generation ----

    def keygen(self, rotation_steps: Sequence[int] = ()) -> None:
        """Secret, public, relinearization and rotation keys.

        Every uniform and error stream of the call is drawn in one batch.
        """
        self.sk = krand.gen_secret(self.seed, self.degree)
        self._s_grid = [
            self._signed_to_limb(self.sk.coeffs, m) for m in self.base.all_moduli
        ]
        primes = self.base.primes
        ids = [RELIN_KSK_ID] + self._new_rotation_steps(rotation_steps)
        ksk_uniform, ksk_errors = self._ksk_tags(ids)
        uniform, errors = self._draw(
            [(m, i, 0, COMP_PK_UNIFORM, 0) for i, m in enumerate(primes)] + ksk_uniform,
            [(0, COMP_PK_ERROR, 0)] + ksk_errors,
        )
        # copies, so that the public key does not keep the switching keys'
        # batch buffer alive once those keys are replaced or dropped
        self.pk_a = [a.copy() for a in uniform[: len(primes)]]
        self.pk_b = [
            dyadic("sub", self._signed_to_limb(errors[0], m), dyadic("mul", a, s))
            for m, a, s in zip(primes, self.pk_a, self._s_grid)
        ]
        keys = self._build_ksks(ids, uniform[len(primes):], errors[1:])
        self.relin_key = keys[0]
        self.rotation_keys.update(zip(ids[1:], keys[1:]))

    def gen_rotation_keys(self, steps: Sequence[int]) -> None:
        if self.sk is None:
            raise ValueError("keygen before rotation keys")
        ids = self._new_rotation_steps(steps)
        uniform, errors = self._draw(*self._ksk_tags(ids))
        self.rotation_keys.update(zip(ids, self._build_ksks(ids, uniform, errors)))

    def _new_rotation_steps(self, steps: Sequence[int]) -> list[int]:
        """Distinct nonzero steps mod slots that have no key yet, in order."""
        out: list[int] = []
        for step in steps:
            step = step % self.slots
            if step and step not in self.rotation_keys and step not in out:
                out.append(step)
        return out

    def _ksk_tags(self, ids: Sequence[int]) -> tuple[list, list]:
        """Uniform and error tags of the switching keys `ids`, key by key."""
        levels = self.base.levels
        uniform = [t for k in ids for t in self._ksk_uniform_tags(k, levels)]
        errors = [(i, COMP_KSK_ERROR, k) for k in ids for i in range(levels)]
        return uniform, errors

    def _ksk_target(self, ksk_id: int) -> list:
        """The key a switching key re-encrypts under: s^2 or the rotated s."""
        if ksk_id == RELIN_KSK_ID:
            return [dyadic("mul", g, g) for g in self._s_grid]
        g = pow(5, ksk_id, 2 * self.degree)
        return [automorphism(x, g) for x in self._s_grid]

    def _build_ksks(self, ids: Sequence[int], uniform: list, errors: list) -> list:
        """Switching keys from their drawn limbs, in the order of the tags."""
        u_iter, e_iter = iter(uniform), iter(errors)
        keys = []
        for ksk_id in ids:
            target = self._ksk_target(ksk_id)
            u_grid: list = []
            secret: list = []
            for i in range(self.base.levels):
                e = next(e_iter)
                u_row = [next(u_iter) for _ in self.base.all_moduli]
                k_row = []
                for j, (m, u) in enumerate(zip(self.base.all_moduli, u_row)):
                    el = self._signed_to_limb(e, m)
                    us = dyadic("mul", u, self._s_grid[j])
                    pt = scalar_mul(target[j], self.base.p_qtilde[i][j])
                    k_row.append(dyadic("add", dyadic("sub", el, us), pt))
                u_grid.append(u_row)
                secret.append(k_row)
            keys.append(KeySwitchKey(ksk_id, u_grid, secret))
        return keys

    # ---- encoding ----

    def drop_scale(self, level: int) -> Fraction:
        """Scale that rescaling from this level divides out."""
        return Fraction(self.base.primes[level - 1].value)

    def encode(self, values, scale, level: Optional[int] = None) -> Plaintext:
        level = self.base.levels if level is None else level
        scale = Fraction(scale)
        v = np.asarray(values, dtype=np.complex128)
        if v.ndim != 1 or len(v) > self.slots:
            raise ValueError(f"expected at most {self.slots} slot values")
        if len(v) < self.slots:
            v = np.concatenate([v, np.zeros(self.slots - len(v), dtype=np.complex128)])
        d = self.degree
        f = np.zeros(d, dtype=np.complex128)
        tk = _slot_index(d)
        f[tk] = v
        f[d - 1 - tk] = np.conj(v)
        jj = np.arange(d)
        m = np.real(np.fft.fft(f) * np.exp(-1j * np.pi * jj / d)) / d
        coeffs = np.round(m * float(scale))
        if np.any(np.abs(coeffs) >= 2**62):
            raise ValueError("encoded coefficients overflow 62 bits; lower the scale")
        signed = coeffs.astype(np.int64)
        limbs = [
            self._signed_to_limb(signed, q) for q in self.base.level_moduli(level)
        ]
        return Plaintext(limbs, scale)

    def _limbs_to_centered(self, limbs: list) -> list[int]:
        moduli = self.base.level_moduli(len(limbs))
        rows = [self._limb_to_parent(x) for x in limbs]
        return crt_reconstruct(rows, [m.value for m in moduli])

    def decode(self, pt: Plaintext) -> np.ndarray:
        centered = self._limbs_to_centered(pt.limbs)
        scale = Fraction(pt.scale)
        # int true division rounds correctly: float(Fraction(c) / scale), bit for bit
        m = np.array([c * scale.denominator / scale.numerator for c in centered])
        d = self.degree
        f = np.fft.ifft(m * np.exp(1j * np.pi * np.arange(d) / d)) * d
        return f[_slot_index(d)]

    # ---- encryption ----

    def encrypt(self, pt: Plaintext, enc_index: int = 0) -> Ciphertext:
        if self.pk_b is None:
            raise ValueError("keygen before encrypt")
        d = self.degree
        r = sample_ternary(
            stream_for(self.seed, enc_index, 0, component_tag(COMP_ENC_R)), d
        )
        e0 = sample_gaussian(
            stream_for(self.seed, enc_index, 0, component_tag(COMP_ENC_E0)), d
        )
        e1 = sample_gaussian(
            stream_for(self.seed, enc_index, 0, component_tag(COMP_ENC_E1)), d
        )
        c0 = []
        c1 = []
        for i, q in enumerate(self.base.level_moduli(pt.level)):
            rl = self._signed_to_limb(r, q)
            c0.append(
                dyadic(
                    "add",
                    dyadic("mac", self.pk_b[i], rl, acc=self._signed_to_limb(e0, q)),
                    pt.limbs[i],
                )
            )
            c1.append(dyadic("mac", self.pk_a[i], rl, acc=self._signed_to_limb(e1, q)))
        return Ciphertext(c0, c1, pt.scale)

    def decrypt(self, ct: Ciphertext) -> np.ndarray:
        return self.decode(Plaintext(self._dec_limbs(ct), ct.scale))

    def decrypt_to_centered(self, ct: Ciphertext) -> list[int]:
        return self._limbs_to_centered(self._dec_limbs(ct))

    def _dec_limbs(self, ct: Ciphertext) -> list:
        if self.sk is None:
            raise ValueError("no secret key in this engine")
        return [
            dyadic("mac", ct.c1[i], self._s_grid[i], acc=ct.c0[i])
            for i in range(ct.level)
        ]

    # ---- arithmetic ----

    def _check_pair(self, x: Ciphertext, y) -> None:
        if x.level != y.level:
            raise ValueError(f"level mismatch: {x.level} vs {y.level}")
        if x.scale != y.scale:
            raise ValueError("scale mismatch; rescale or re-encode first")

    def add(self, x: Ciphertext, y: Ciphertext) -> Ciphertext:
        self._check_pair(x, y)
        return Ciphertext(
            [dyadic("add", a, b) for a, b in zip(x.c0, y.c0)],
            [dyadic("add", a, b) for a, b in zip(x.c1, y.c1)],
            x.scale,
        )

    def sub(self, x: Ciphertext, y: Ciphertext) -> Ciphertext:
        self._check_pair(x, y)
        return Ciphertext(
            [dyadic("sub", a, b) for a, b in zip(x.c0, y.c0)],
            [dyadic("sub", a, b) for a, b in zip(x.c1, y.c1)],
            x.scale,
        )

    def add_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        self._check_pair(ct, pt)
        return Ciphertext(
            [dyadic("add", a, b) for a, b in zip(ct.c0, pt.limbs)],
            [a.copy() for a in ct.c1],
            ct.scale,
        )

    def mult_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        if ct.level != pt.level:
            raise ValueError(f"level mismatch: {ct.level} vs {pt.level}")
        return Ciphertext(
            [dyadic("mul", a, b) for a, b in zip(ct.c0, pt.limbs)],
            [dyadic("mul", a, b) for a, b in zip(ct.c1, pt.limbs)],
            ct.scale * pt.scale,
        )

    def mult_relin(self, x: Ciphertext, y: Ciphertext) -> Ciphertext:
        if x.level != y.level:
            raise ValueError(f"level mismatch: {x.level} vs {y.level}")
        if self.relin_key is None:
            raise ValueError("keygen before mult_relin")
        lvl = x.level
        d0 = [dyadic("mul", x.c0[i], y.c0[i]) for i in range(lvl)]
        d1 = [
            dyadic("mac", x.c1[i], y.c0[i], acc=dyadic("mul", x.c0[i], y.c1[i]))
            for i in range(lvl)
        ]
        d2 = [dyadic("mul", x.c1[i], y.c1[i]) for i in range(lvl)]
        ks0, ks1 = self._key_switch(d2, self.relin_key)
        return Ciphertext(
            [dyadic("add", a, b) for a, b in zip(d0, ks0)],
            [dyadic("add", a, b) for a, b in zip(d1, ks1)],
            x.scale * y.scale,
        )

    def _key_switch(self, d_limbs: list, ksk: KeySwitchKey) -> tuple[list, list]:
        """Accumulate ksk rows against the decomposition of d, then drop p.

        Row i's centered lift, reduced mod q_i and transformed back, is d_i
        itself, so target i takes d_i without a transform.
        """
        lvl = len(d_limbs)
        ext = self.base.extended_moduli(lvl)
        ext_idx = list(range(lvl)) + [self.base.levels]
        acc0: list = [None] * len(ext)
        acc1: list = [None] * len(ext)
        for i in range(lvl):
            qi = self.base.primes[i].value
            signed = _centered_int64(self._limb_to_parent(d_limbs[i]), qi)
            kind = "mac" if i else "mul"
            for jj, (m, jg) in enumerate(zip(ext, ext_idx)):
                dl = d_limbs[i] if jj == i else self._signed_to_limb(signed, m)
                acc0[jj] = dyadic(kind, dl, ksk.secret[i][jg], acc=acc0[jj])
                acc1[jj] = dyadic(kind, dl, ksk.uniform[i][jg], acc=acc1[jj])
        inv_p = self.base.inv[self.base.levels]
        return self._drop_last(acc0, inv_p), self._drop_last(acc1, inv_p)

    def _drop_last(self, limbs: list, inv_row: Sequence[int]) -> list:
        """Drop the last limb and divide its modulus out of the others.

        inv_row[i] is the dropped modulus' inverse modulo limb i's.
        """
        last = limbs[-1]
        signed = _centered_int64(self._limb_to_parent(last), last.q.value)
        return [
            scalar_mul(dyadic("sub", x, self._signed_to_limb(signed, x.q)), inv_row[i])
            for i, x in enumerate(limbs[:-1])
        ]

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        lvl = ct.level
        if lvl < 2:
            raise ValueError("cannot rescale below level 1")
        inv = self.base.inv[lvl - 1]
        return Ciphertext(
            self._drop_last(ct.c0, inv), self._drop_last(ct.c1, inv),
            ct.scale / self.base.primes[lvl - 1].value,
        )

    def rotate(self, ct: Ciphertext, steps: int) -> Ciphertext:
        steps = steps % self.slots
        if steps == 0:
            return ct.copy()
        ksk = self.rotation_keys.get(steps)
        if ksk is None:
            raise ValueError(f"no rotation key for step {steps}")
        g = pow(5, steps, 2 * self.degree)
        a0 = [automorphism(x, g) for x in ct.c0]
        a1 = [automorphism(x, g) for x in ct.c1]
        ks0, ks1 = self._key_switch(a1, ksk)
        return Ciphertext(
            [dyadic("add", a, b) for a, b in zip(a0, ks0)], ks1, ct.scale
        )
