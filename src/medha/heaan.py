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
    sample_ternary,
    sample_uniform_mod,
    signed_to_residues,
    stream_for,
)
from .modarith import PrimeModulus, RnsBase, inv_mod
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


def _crt_weights(moduli: Sequence[PrimeModulus]) -> tuple[list[int], int]:
    big = 1
    for m in moduli:
        big *= m.value
    w = []
    for m in moduli:
        hat = big // m.value
        w.append(hat * inv_mod(hat % m.value, m.value) % big)
    return w, big


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


def _auto_signed(coeffs: np.ndarray, g: int, degree: int) -> np.ndarray:
    """Galois map x -> x^g on a signed coefficient vector."""
    j = np.arange(degree, dtype=np.int64)
    e = (j * (g % (2 * degree))) % (2 * degree)
    out = np.zeros(degree, dtype=np.int64)
    out[e % degree] = np.where(e >= degree, -coeffs, coeffs)
    return out


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

    def _residues_to_limb(self, res: np.ndarray, q: PrimeModulus) -> ResiduePoly:
        return ntt_forward(ResiduePoly(q, res, "coeff", STANDARD))

    def _signed_to_limb(self, signed: np.ndarray, q: PrimeModulus) -> ResiduePoly:
        return self._residues_to_limb(signed_to_residues(signed, q.value), q)

    def _limb_to_parent(self, limb: ResiduePoly) -> np.ndarray:
        """Evaluation-domain limb to parent-ring coefficient residues."""
        return ntt_inverse(limb).coeffs

    def _expand_uniform(
        self, q: PrimeModulus, i: int, j: int, kind: int, ksk_id: int = 0
    ) -> ResiduePoly:
        """Uniform evaluation vector from tagged streams; the mode fixes which.

        Split mode draws the plus and minus half-ring evaluations from their
        own streams, and their concatenation is the full-degree vector.
        """
        halves = (HALF_PLUS, HALF_MINUS) if self.mode == "split" else (HALF_FULL,)
        n = self.degree // len(halves)
        words = [
            sample_uniform_mod(
                stream_for(self.seed, i, j, component_tag(kind, half, ksk_id)), n, q.value
            )
            for half in halves
        ]
        return ResiduePoly(q, np.concatenate(words), "eval", STANDARD)

    # ---- key generation ----

    def keygen(self, rotation_steps: Sequence[int] = ()) -> None:
        self.sk = krand.gen_secret(self.seed, self.degree)
        self._s_grid = [
            self._signed_to_limb(self.sk.coeffs, m) for m in self.base.all_moduli
        ]
        e = sample_gaussian(
            stream_for(self.seed, 0, 0, component_tag(COMP_PK_ERROR)), self.degree
        )
        self.pk_b = []
        self.pk_a = []
        for i, m in enumerate(self.base.primes):
            a = self._expand_uniform(m, i, 0, COMP_PK_UNIFORM)
            el = self._signed_to_limb(e, m)
            b = dyadic("sub", el, dyadic("mul", a, self._s_grid[i]))
            self.pk_a.append(a)
            self.pk_b.append(b)
        target = [dyadic("mul", g, g) for g in self._s_grid]
        self.relin_key = self._gen_ksk(target, RELIN_KSK_ID)
        self.gen_rotation_keys(rotation_steps)

    def gen_rotation_keys(self, steps: Sequence[int]) -> None:
        if self.sk is None:
            raise ValueError("keygen before rotation keys")
        for step in steps:
            step = step % self.slots
            if step == 0 or step in self.rotation_keys:
                continue
            g = pow(5, step, 2 * self.degree)
            ts = _auto_signed(self.sk.coeffs, g, self.degree)
            target = [self._signed_to_limb(ts, m) for m in self.base.all_moduli]
            self.rotation_keys[step] = self._gen_ksk(target, step)

    def _gen_ksk(self, target_grid: list, ksk_id: int) -> KeySwitchKey:
        uniform: list = []
        secret: list = []
        for i in range(self.base.levels):
            e = sample_gaussian(
                stream_for(
                    self.seed, i, 0, component_tag(COMP_KSK_ERROR, HALF_FULL, ksk_id)
                ),
                self.degree,
            )
            u_row = []
            k_row = []
            for j, m in enumerate(self.base.all_moduli):
                u = self._expand_uniform(m, i, j, COMP_KSK_UNIFORM, ksk_id)
                el = self._signed_to_limb(e, m)
                us = dyadic("mul", u, self._s_grid[j])
                pt = scalar_mul(target_grid[j], self.base.p_qtilde[i][j])
                k_row.append(dyadic("add", dyadic("sub", el, us), pt))
                u_row.append(u)
            uniform.append(u_row)
            secret.append(k_row)
        return KeySwitchKey(ksk_id, uniform, secret)

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
        weights, big = _crt_weights(moduli)
        res = [self._limb_to_parent(x) for x in limbs]
        out = []
        half = big // 2
        for t in range(self.degree):
            acc = 0
            for jw, r in zip(weights, res):
                acc += jw * int(r[t])
            acc %= big
            out.append(acc - big if acc > half else acc)
        return out

    def decode(self, pt: Plaintext) -> np.ndarray:
        centered = self._limbs_to_centered(pt.limbs)
        m = np.array([float(Fraction(c) / pt.scale) for c in centered])
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
        """Accumulate ksk rows against the decomposition of d, then drop p."""
        lvl = len(d_limbs)
        ext = self.base.extended_moduli(lvl)
        ext_idx = list(range(lvl)) + [self.base.levels]
        acc0: list = [None] * len(ext)
        acc1: list = [None] * len(ext)
        for i in range(lvl):
            qi = self.base.primes[i].value
            signed = _centered_int64(self._limb_to_parent(d_limbs[i]), qi)
            for jj, m in enumerate(ext):
                res = (signed % np.int64(m.value)).astype(np.uint64)
                dl = self._residues_to_limb(res, m)
                jg = ext_idx[jj]
                if acc0[jj] is None:
                    acc0[jj] = dyadic("mul", dl, ksk.secret[i][jg])
                    acc1[jj] = dyadic("mul", dl, ksk.uniform[i][jg])
                else:
                    acc0[jj] = dyadic("mac", dl, ksk.secret[i][jg], acc=acc0[jj])
                    acc1[jj] = dyadic("mac", dl, ksk.uniform[i][jg], acc=acc1[jj])
        return self._mod_down(acc0), self._mod_down(acc1)

    def _mod_down(self, ext_limbs: list) -> list:
        """Extended-basis limbs (special prime last) back to the level basis."""
        lvl = len(ext_limbs) - 1
        p = self.base.special.value
        signed = _centered_int64(self._limb_to_parent(ext_limbs[lvl]), p)
        out = []
        for i in range(lvl):
            q = self.base.primes[i]
            conv = self._residues_to_limb((signed % np.int64(q.value)).astype(np.uint64), q)
            diff = dyadic("sub", ext_limbs[i], conv)
            out.append(scalar_mul(diff, self.base.inv[self.base.levels][i]))
        return out

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        lvl = ct.level
        if lvl < 2:
            raise ValueError("cannot rescale below level 1")
        drop = self.base.primes[lvl - 1]
        parts = []
        for comp in (ct.c0, ct.c1):
            signed = _centered_int64(self._limb_to_parent(comp[lvl - 1]), drop.value)
            new = []
            for i in range(lvl - 1):
                q = self.base.primes[i]
                conv = self._residues_to_limb(
                    (signed % np.int64(q.value)).astype(np.uint64), q
                )
                diff = dyadic("sub", comp[i], conv)
                new.append(scalar_mul(diff, self.base.inv[lvl - 1][i]))
            parts.append(new)
        return Ciphertext(parts[0], parts[1], ct.scale / drop.value)

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
