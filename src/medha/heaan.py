"""Approximate-arithmetic homomorphic evaluation over an RNS limb basis.

One Engine instance fixes a prime basis, a ring degree, a mode and a seed,
and with them its parameter set (`params.ParamSet`), whose rules on mode
and degree it takes. Every limb is one degree-D polynomial held as its
full-degree evaluation vector. Under the factorization x^D + 1 = (x^h -
z^h)(x^h + z^h) that vector is the plus half-ring evaluations followed by
the minus half-ring evaluations (the split is the transform's first
butterfly layer), so a "split" limb needs no layout of its own. The mode
picks which tagged streams expand the uniform key material (two half-ring
streams in split mode, one full-ring stream in native mode) and the layout
of the compiled streams.

The engine draws keys, encodes, encrypts and decrypts. Each homomorphic op
(add, sub, mult_plain, mult_relin, rescale, rotate) checks its arguments
and then runs its compiled one-op program through the accelerator model's
executor (`archsim.execute_workload`), so the instruction streams that the
cycle model schedules are the one implementation of each op. In them the
nonlinear steps (centered base conversion inside key switching, modulus
dropping and rescaling) pass through the parent coefficient domain, as the
pipelined hardware sequences them.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

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
    GAUSS_BOUND,
    HALF_FULL,
    HALF_MINUS,
    HALF_PLUS,
    SecretKey,
    component_tag,
    sample_lanes,
    sample_ternary,
    sample_uniform_mod,  # noqa: F401  (perfbench/test_perfbench.py reads it here)
    stream_for,
)
from .modarith import PrimeModulus, RnsBase, crt_reconstruct
from .params import ParamSet
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
    secret half carries information beyond the seed, so a key file stores only
    that half; keygen draws a stored key's uniform half from tagged streams in
    its one batch, as it does a new key's.
    """

    ksk_id: int
    uniform: list
    secret: list


@functools.cache
def _slot_index(degree: int) -> np.ndarray:
    """Evaluation-point index t_k with slot k at root exponent 5^k mod 2D."""
    e = 1
    idx = np.empty(degree // 2, dtype=np.int64)
    for k in range(degree // 2):
        idx[k] = (e - 1) >> 1
        e = e * 5 % (2 * degree)
    return idx


def galois_element(steps: int, degree: int) -> int:
    """The Galois element 5^steps mod 2·degree that rotates slots by `steps`."""
    return pow(5, steps, 2 * degree)


def _number(value):
    """A NumPy scalar as the Python number of its exact value (a finite
    float of any width as a Fraction); any other value as it is."""
    if isinstance(value, np.floating) and np.isfinite(value):
        return Fraction(*value.as_integer_ratio())
    return value.item() if isinstance(value, np.generic) else value


def _integer(name: str, value) -> int:
    """An int, bool (True is 1) or NumPy integer argument as an int."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer; got {value!r}") from None


class CenteredLift:
    """Signed words, each at most `half` from zero, made once and reduced
    under each target modulus. It is the one reduction of signed words to
    residues: keygen's secret and error rows, encryption's r, e0 and e1 and
    encoded coefficients take their bound from the sampler or one abs-max,
    and the centered lift of a coefficient limb (`of_limb`, which the
    executor's key switches and rescales reduce) has half = q/2. Under a
    modulus above `half` each word is one conditional add, and no word is
    scanned to find that out; under a smaller one each is divided."""

    def __init__(self, signed: np.ndarray, half: int):
        self.signed = signed
        self.half = half

    @classmethod
    def of_limb(cls, limb: ResiduePoly) -> "CenteredLift":
        """Canonical coefficients to their representatives in (-q/2, q/2]."""
        q = limb.q.value
        x = limb.coeffs.astype(np.int64)
        return cls(np.where(x > q // 2, x - np.int64(q), x), q // 2)

    def residues(self, q: PrimeModulus) -> ResiduePoly:
        if self.half < q.value:
            # a negative word read as unsigned is 2^64 + x, which adding q
            # wraps down to x + q, the smaller of the two
            r = self.signed.view(np.uint64)
            res = np.minimum(r, r + np.uint64(q.value))
        else:
            res = (self.signed % np.int64(q.value)).astype(np.uint64)
        return ResiduePoly(q, res, "coeff", STANDARD)

    def limb(self, q: PrimeModulus) -> ResiduePoly:
        """The words mod q as an evaluation-domain limb."""
        return ntt_forward(self.residues(q))


class Engine:
    """Evaluation context for one basis, ring degree, mode and seed."""

    def __init__(
        self,
        base: RnsBase,
        degree: int,
        mode: str = "native",
        seed: int = 0,
    ):
        # the set's rules on mode and degree are the engine's: its ops run
        # the programs compiled for it
        self.pset = ParamSet(f"{mode}-{degree}", degree, base.total_bits, mode, base=base)
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
        self._programs: dict = {}   # (op, level, steps) -> its compiled Program

    # ---- limb primitives ----

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

    # ---- key generation ----

    def keygen(
        self, rotation_steps: Sequence[int] = (), stored: Mapping[int, list] = {}
    ) -> None:
        """Secret, public, relinearization and rotation keys.

        A key whose id `stored` maps to a secret half read from a file keeps
        it. Every uniform and error stream of the call is drawn in one batch.
        """
        ids = [RELIN_KSK_ID] + self._new_rotation_steps(rotation_steps)
        stray = sorted(set(stored) - set(ids))
        if stray:
            raise ValueError(f"stored key ids {stray} are not among the keys {ids}")
        self.sk = krand.gen_secret(self.seed, self.degree)
        s_lift = CenteredLift(self.sk.coeffs, 1)
        self._s_grid = [s_lift.limb(m) for m in self.base.all_moduli]
        primes = self.base.primes
        ksk_uniform, ksk_errors = self._ksk_tags(ids, stored)
        uniform, errors = self._draw(
            [(m, i, 0, COMP_PK_UNIFORM, 0) for i, m in enumerate(primes)] + ksk_uniform,
            [(0, COMP_PK_ERROR, 0)] + ksk_errors,
        )
        # copies, so that the public key does not keep the switching keys'
        # batch buffer alive once those keys are replaced or dropped
        self.pk_a = [a.copy() for a in uniform[: len(primes)]]
        e = CenteredLift(errors[0], GAUSS_BOUND)
        self.pk_b = [
            dyadic("sub", e.limb(m), dyadic("mul", a, s))
            for m, a, s in zip(primes, self.pk_a, self._s_grid)
        ]
        keys = self._build_ksks(ids, uniform[len(primes):], errors[1:], stored)
        self.relin_key = keys[0]
        self.rotation_keys.update(zip(ids[1:], keys[1:]))

    def gen_rotation_keys(self, steps: Sequence[int]) -> None:
        if self.sk is None:
            raise ValueError("keygen before rotation keys")
        ids = self._new_rotation_steps(steps)
        self.rotation_keys.update(zip(ids, self._drawn_ksks(ids)))

    def adopt_ksk(self, ksk_id: int, secret: list) -> KeySwitchKey:
        """The key with a stored secret half, returned rather than installed."""
        return self._drawn_ksks([ksk_id], {ksk_id: secret})[0]

    def _drawn_ksks(self, ids: Sequence[int], stored: Mapping = {}) -> list:
        """Switching keys `ids` from a batch of their own streams alone."""
        uniform, errors = self._draw(*self._ksk_tags(ids, stored))
        return self._build_ksks(ids, uniform, errors, stored)

    def switching_key(self, ksk_id: int) -> KeySwitchKey:
        """The relinearization key for id 0, the rotation key for a step."""
        if ksk_id == RELIN_KSK_ID:
            if self.relin_key is None:
                raise ValueError("keygen before mult_relin")
            return self.relin_key
        key = self.rotation_keys.get(ksk_id)
        if key is None:
            raise ValueError(f"no rotation key for step {ksk_id}")
        return key

    def _new_rotation_steps(self, steps: Sequence[int]) -> list[int]:
        """Distinct nonzero steps mod slots that have no key yet, in order."""
        out: list[int] = []
        for step in steps:
            step = _integer("rotation step", step) % self.slots
            if step and step not in self.rotation_keys and step not in out:
                out.append(step)
        return out

    def _ksk_tags(self, ids: Sequence[int], stored: Mapping = {}) -> tuple[list, list]:
        """Key by key, the uniform tags of every key's grid, row-major over
        (row i, modulus j), and the error tags of the keys not in `stored`."""
        rows = range(self.base.levels)
        moduli = list(enumerate(self.base.all_moduli))
        uniform = [(m, i, j, COMP_KSK_UNIFORM, k) for k in ids for i in rows for j, m in moduli]
        errors = [(i, COMP_KSK_ERROR, k) for k in ids if k not in stored for i in rows]
        return uniform, errors

    def _ksk_target(self, ksk_id: int) -> list:
        """The key a switching key re-encrypts under: s^2 or the rotated s."""
        if ksk_id == RELIN_KSK_ID:
            return [dyadic("mul", g, g) for g in self._s_grid]
        g = galois_element(ksk_id, self.degree)
        return [automorphism(x, g) for x in self._s_grid]

    def _build_ksks(
        self, ids: Sequence[int], uniform: list, errors: list, stored: Mapping = {}
    ) -> list:
        """Switching keys from their drawn limbs, in the order of the tags.
        A key in `stored` keeps its secret half and reads no error row."""
        width = len(self.base.all_moduli)
        u_iter, e_iter = iter(uniform), iter(errors)
        keys = []
        for ksk_id in ids:
            u_grid = [[next(u_iter) for _ in range(width)] for _ in range(self.base.levels)]
            secret = stored.get(ksk_id)
            if secret is None:
                target = self._ksk_target(ksk_id)
                secret = [self._ksk_row(i, next(e_iter), u, target) for i, u in enumerate(u_grid)]
            keys.append(KeySwitchKey(ksk_id, u_grid, secret))
        return keys

    def _ksk_row(self, i: int, e: np.ndarray, u_row: list, target: list) -> list:
        """Row i of a new key's secret half: e - u s + P qtilde_i target."""
        e_lift = CenteredLift(e, GAUSS_BOUND)
        row = []
        for j, (m, u) in enumerate(zip(self.base.all_moduli, u_row)):
            k = dyadic("sub", e_lift.limb(m), dyadic("mul", u, self._s_grid[j]))
            # P * qtilde_i is 0 mod every modulus but q_i, and adding a zero
            # limb changes no bit, so only q_i's term is added
            factor = self.base.p_qtilde[i][j]
            if factor:
                k = dyadic("add", k, scalar_mul(target[j], factor))
            row.append(k)
        return row

    # ---- encoding ----

    def drop_scale(self, level: int) -> Fraction:
        """Scale that rescaling from this level divides out."""
        return Fraction(self.base.primes[level - 1].value)

    def encode(self, values, scale, level: Optional[int] = None) -> Plaintext:
        level = self.base.levels if level is None else _integer("level", level)
        scale = _number(scale)
        # the slots are multiplied by float(scale), which must not round to 0 or inf
        if not 2.0**-1074 <= abs(scale) <= float(np.finfo(float).max):
            raise ValueError(f"scale must be finite and nonzero; got {scale}")
        scale = Fraction(scale)
        v = np.asarray(values, dtype=np.complex128)
        if v.ndim != 1 or len(v) > self.slots:
            raise ValueError(f"expected at most {self.slots} slot values")
        if not np.isfinite(v).all():
            raise ValueError("slot values must be finite; got NaN or infinity")
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
        peak = np.abs(coeffs).max()
        if not peak < 2**62:  # so does a NaN, from a transform that overflowed
            raise ValueError("encoded coefficients overflow 62 bits; lower the scale")
        lift = CenteredLift(coeffs.astype(np.int64), int(peak))
        return Plaintext([lift.limb(q) for q in self.base.level_moduli(level)], scale)

    def _limbs_to_centered(self, limbs: list) -> list[int]:
        moduli = self.base.level_moduli(len(limbs))
        rows = [ntt_inverse(x).coeffs for x in limbs]
        return crt_reconstruct(rows, [m.value for m in moduli])

    def decode(self, pt: Plaintext) -> np.ndarray:
        centered = self._limbs_to_centered(pt.limbs)
        scale = Fraction(pt.scale)
        d = self.degree
        # each decoded value is at most d max|c| / |scale|
        if max(map(abs, centered)) * d >= 2**1023 * abs(scale):
            raise ValueError(f"decoded values overflow a float at scale {float(scale):.3g}")
        # int true division rounds correctly: float(Fraction(c) / scale), bit for bit
        m = np.array([c * scale.denominator / scale.numerator for c in centered])
        f = np.fft.ifft(m * np.exp(1j * np.pi * np.arange(d) / d)) * d
        return f[_slot_index(d)]

    # ---- encryption ----

    def encrypt(self, pt: Plaintext, enc_index: int = 0) -> Ciphertext:
        if self.pk_b is None:
            raise ValueError("keygen before encrypt")
        enc_index = _integer("enc_index", enc_index)
        d = self.degree
        r = sample_ternary(
            stream_for(self.seed, enc_index, 0, component_tag(COMP_ENC_R)), d
        )
        errors = [
            stream_for(self.seed, enc_index, 0, component_tag(kind))
            for kind in (COMP_ENC_E0, COMP_ENC_E1)
        ]
        _, (e0, e1) = sample_lanes((), 0, errors, d)
        r = CenteredLift(r, 1)
        e0, e1 = (CenteredLift(e, GAUSS_BOUND) for e in (e0, e1))
        c0 = []
        c1 = []
        for i, q in enumerate(self.base.level_moduli(pt.level)):
            rl = r.limb(q)
            c0.append(
                dyadic("add", dyadic("mac", self.pk_b[i], rl, acc=e0.limb(q)), pt.limbs[i])
            )
            c1.append(dyadic("mac", self.pk_a[i], rl, acc=e1.limb(q)))
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

    def _check_level(self, x: Ciphertext, y) -> None:
        if x.level != y.level:
            raise ValueError(f"level mismatch: {x.level} vs {y.level}")

    def _check_pair(self, x: Ciphertext, y) -> None:
        self._check_level(x, y)
        if x.scale != y.scale:
            raise ValueError("scale mismatch; rescale or re-encode first")

    def add(self, x: Ciphertext, y: Ciphertext) -> Ciphertext:
        self._check_pair(x, y)
        return self._replay("add", x.level, x=x, y=y)

    def sub(self, x: Ciphertext, y: Ciphertext) -> Ciphertext:
        self._check_pair(x, y)
        return self._replay("sub", x.level, x=x, y=y)

    def add_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        self._check_pair(ct, pt)
        return Ciphertext(
            [dyadic("add", a, b) for a, b in zip(ct.c0, pt.limbs)],
            [a.copy() for a in ct.c1], ct.scale,
        )

    def mult_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        self._check_level(ct, pt)
        return self._replay("mult_plain", ct.level, x=ct, pt=pt)

    def mult_relin(self, x: Ciphertext, y: Ciphertext) -> Ciphertext:
        self._check_level(x, y)
        self.switching_key(RELIN_KSK_ID)  # a missing key is refused before any work
        return self._replay("mult_relin", x.level, x=x, y=y)

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        if ct.level < 2:
            raise ValueError("cannot rescale below level 1")
        return self._replay("rescale", ct.level, x=ct)

    def rotate(self, ct: Ciphertext, steps: int) -> Ciphertext:
        steps = _integer("steps", steps) % self.slots
        if steps == 0:
            return ct.copy()
        self.switching_key(steps)  # a missing key is refused before any work
        return self._replay("rotate", ct.level, steps, x=ct)

    def _replay(self, op: str, level: int, steps: int = 1, **operands) -> Ciphertext:
        """The op's one-op program, compiled once per (op, level, steps),
        run on `operands` through the accelerator model's executor."""
        from . import archsim  # archsim imports this module as it loads

        for v in operands.values():
            if isinstance(v, Ciphertext) and v.c0[0].n != self.degree:
                raise ValueError(
                    f"ciphertext ring degree {v.c0[0].n} is not the engine's {self.degree}")
        program = self._programs.get((op, level, steps))
        if program is None:
            spec = {"op": op, "level": level, "steps": steps}
            machine = archsim.MachineConfig(n_rpaus=self.base.levels + 1)
            program = archsim.compile_workload(self.pset, [spec], machine)
            self._programs[op, level, steps] = program
        return archsim.execute_workload(self, program, operands)["out"]
