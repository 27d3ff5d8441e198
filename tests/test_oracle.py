"""The homomorphic ops, alone and as the logreg op list, against a
big-integer oracle.

The oracle follows the scheme's own definitions in Python integers: RNS-CKKS
(Cheon, Han, Kim, Kim and Song, "A Full RNS Variant of Approximate
Homomorphic Encryption", SAC 2018), with key switching through one special
prime p (Han and Ki, "Better Bootstrapping for Approximate Homomorphic
Encryption", CT-RSA 2020). At level l, with Q the product of q_0..q_{l-1}:

- a ciphertext component is one polynomial with integer coefficients,
  rebuilt from its limbs by `modarith.crt_reconstruct`, and products are
  negacyclic in Z;
- the key switch of d is sum_i [d mod q_i] k_i mod Q p, where k_i is row i
  of the key rebuilt from its columns for q_0..q_{l-1} and p;
- dividing by p, or by the prime a rescale drops, is (a - [a mod q]) / q;
- [x] is the centered residue of x in (-q/2, q/2].

A limb is read and written by point evaluation at the roots that
`polyring.eval_exponents` assigns to its slots, so the oracle shares no
lift, transform or word kernel with the code it checks. Each result must
equal the Engine op and `execute_workload` of the compiled op bit for bit,
on set1 native and set2 split, at the top level (a key switch over every
key column) and one level lower (only the key columns of that level plus
p, and a rescale that drops a lower prime). The two-operand cases multiply
two different ciphertexts, so a cross term that reads x for y shows, and
rotate by a step of at least half the slots and by a negative one. add,
sub and mult_plain (its plaintext at the ciphertext's level) run on the
same sets and levels; rotate by 0 is the Engine's copy and is not
compiled. The toy logreg op list runs op by op through the oracle and must
end on `execute_workload`'s output.
"""

import functools
import math
from dataclasses import replace
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

from medha.archsim import UnsupportedOpError, compile_workload, execute_workload
from medha.heaan import Ciphertext, Engine, Plaintext
from medha.modarith import crt_reconstruct
from medha.params import get_param_set
from medha.polyring import STANDARD, ResiduePoly, eval_exponents, psi_for
from medha.workloads import get_workload


@functools.cache
def _point_rows(q, n: int) -> tuple[list, list]:
    """Mod q: row k of the evaluation map (slot k's point to the powers
    0..n-1) and row j of its inverse (coefficient j from the n slots)."""
    qv = q.value
    psi, _ = psi_for(q, n, STANDARD)
    power = [pow(psi, t, qv) for t in range(2 * n)]
    exps = [int(e) for e in eval_exponents(n)]
    n_inv = pow(n, -1, qv)
    forward = [[power[e * j % (2 * n)] for j in range(n)] for e in exps]
    inverse = [[power[-e * j % (2 * n)] * n_inv % qv for e in exps] for j in range(n)]
    return forward, inverse


def _coeffs(limb: ResiduePoly) -> list[int]:
    """An evaluation limb's coefficients mod its prime."""
    assert limb.domain == "eval" and limb.twist == STANDARD
    _, inverse = _point_rows(limb.q, limb.n)
    ev = limb.coeffs.tolist()
    return [sum(map(mul, row, ev)) % limb.q.value for row in inverse]


def _limb(coeffs: list[int], q) -> ResiduePoly:
    """The evaluation limb mod q of integer coefficients."""
    forward, _ = _point_rows(q, len(coeffs))
    words = [sum(map(mul, row, coeffs)) % q.value for row in forward]
    return ResiduePoly(q, np.array(words, dtype=np.uint64), "eval", STANDARD)


def _poly(limbs: list) -> list[int]:
    return crt_reconstruct([_coeffs(x) for x in limbs], [x.q.value for x in limbs])


def _centered(x: int, q: int) -> int:
    r = x % q
    return r - q if r > q // 2 else r


def _divide(a: list[int], q: int) -> list[int]:
    return [(x - _centered(x, q)) // q for x in a]


def _add(a: list[int], b: list[int]) -> list[int]:
    return [x + y for x, y in zip(a, b)]


def _sub(a: list[int], b: list[int]) -> list[int]:
    return [x - y for x, y in zip(a, b)]


def _negacyclic(a: list[int], b: list[int]) -> list[int]:
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] += x * y
            else:
                out[i + j - n] -= x * y
    return out


def _automorphism(a: list[int], g: int) -> list[int]:
    """a(x) -> a(x^g), with x^n = -1."""
    n = len(a)
    out = [0] * n
    for j, x in enumerate(a):
        e = j * g % (2 * n)
        if e < n:
            out[e] += x
        else:
            out[e - n] -= x
    return out


class _Oracle:
    """The ops on integer polynomials; each returns (c0, c1, scale, level)."""

    def __init__(self, eng):
        self.eng = eng
        self.base = eng.base

    def key_switch(self, d: list[int], ksk, level: int) -> list[list[int]]:
        base = self.base
        qs = [m.value for m in base.level_moduli(level)]
        p = base.special.value
        cols = list(range(level)) + [base.levels]
        col_moduli = [base.all_moduli[j].value for j in cols]
        big = math.prod(qs) * p
        out = []
        for half in (ksk.secret, ksk.uniform):
            acc = [0] * len(d)
            for i, qi in enumerate(qs):
                k_i = crt_reconstruct([_coeffs(half[i][j]) for j in cols], col_moduli)
                acc = _add(acc, _negacyclic([_centered(x, qi) for x in d], k_i))
            out.append(_divide([x % big for x in acc], p))
        return out

    def add(self, x: Ciphertext, y: Ciphertext):
        x0, x1, y0, y1 = (_poly(c) for c in (x.c0, x.c1, y.c0, y.c1))
        return _add(x0, y0), _add(x1, y1), x.scale, x.level

    def sub(self, x: Ciphertext, y: Ciphertext):
        x0, x1, y0, y1 = (_poly(c) for c in (x.c0, x.c1, y.c0, y.c1))
        return _sub(x0, y0), _sub(x1, y1), x.scale, x.level

    def mult_plain(self, ct: Ciphertext, pt: Plaintext):
        p = _poly(pt.limbs)
        c0, c1 = (_negacyclic(_poly(c), p) for c in (ct.c0, ct.c1))
        return c0, c1, ct.scale * pt.scale, ct.level

    def mult_relin(self, x: Ciphertext, y: Ciphertext):
        x0, x1, y0, y1 = (_poly(c) for c in (x.c0, x.c1, y.c0, y.c1))
        d1 = _add(_negacyclic(x0, y1), _negacyclic(x1, y0))
        k0, k1 = self.key_switch(_negacyclic(x1, y1), self.eng.relin_key, x.level)
        return _add(_negacyclic(x0, y0), k0), _add(d1, k1), x.scale * y.scale, x.level

    def rotate(self, ct: Ciphertext, steps: int):
        # a negative step's Galois element is the inverse of 5^-steps; its
        # key is that of the step's residue mod slots
        g = pow(5, steps, 2 * self.eng.degree)
        a0, a1 = (_automorphism(_poly(c), g) for c in (ct.c0, ct.c1))
        ksk = self.eng.rotation_keys[steps % self.eng.slots]
        k0, k1 = self.key_switch(a1, ksk, ct.level)
        return _add(a0, k0), k1, ct.scale, ct.level

    def rescale(self, ct: Ciphertext):
        q = self.base.primes[ct.level - 1].value
        c0, c1 = (_divide(_poly(c), q) for c in (ct.c0, ct.c1))
        return c0, c1, ct.scale / q, ct.level - 1


def _boundary_ct(eng, level: int) -> Ciphertext:
    """Every limb's coefficients cycle through (q-1)/2, (q+1)/2 and q-1: the
    largest centered residue, the most negative one, and -1."""
    comps = []
    for shift in (0, 1):
        limbs = []
        for q in eng.base.level_moduli(level):
            qv = q.value
            words = ((qv - 1) // 2, (qv + 1) // 2, qv - 1)
            limbs.append(_limb([words[(k + shift) % 3] for k in range(eng.degree)], q))
        comps.append(limbs)
    return Ciphertext(comps[0], comps[1], Fraction(1 << 40))


def _input(eng, kind: str, level: int) -> Ciphertext:
    if kind == "boundary":
        return _boundary_ct(eng, level)
    rng = np.random.default_rng(71)
    return eng.encrypt(eng.encode(rng.uniform(-1.0, 1.0, eng.slots), 1 << 40, level=level))


# op -> its compiled spec, and the op applied to one input by the Engine or
# the oracle, whose methods take the Engine's arguments
_OPS = {
    "mult_relin": ({"op": "mult_relin", "x": "x", "y": "x"},
                   lambda impl, ct: impl.mult_relin(ct, ct)),
    "rotate": ({"op": "rotate", "x": "x", "steps": 1}, lambda impl, ct: impl.rotate(ct, 1)),
    "rescale": ({"op": "rescale", "x": "x"}, lambda impl, ct: impl.rescale(ct)),
}


def _assert_equal(got: Ciphertext, want) -> None:
    c0, c1, scale, level = want
    assert got.scale == scale and got.level == level
    for limbs, poly in ((got.c0, c0), (got.c1, c1)):
        for limb in limbs:
            assert _coeffs(limb) == [x % limb.q.value for x in poly]


@pytest.mark.parametrize("kind", ("encrypted", "boundary"))
@pytest.mark.parametrize("op", tuple(_OPS))
@pytest.mark.parametrize("below_top", (0, 1))
@pytest.mark.parametrize("eng_name, pset_name", (("toy_native", "set1"), ("toy_split2", "set2")))
def test_op_matches_bigint_oracle(request, eng_name, pset_name, below_top, op, kind):
    eng = request.getfixturevalue(eng_name)
    pset = request.getfixturevalue(pset_name)
    level = eng.base.levels - below_top
    ct = _input(eng, kind, level)
    spec, apply = _OPS[op]
    want = apply(_Oracle(eng), ct)
    _assert_equal(apply(eng, ct), want)
    program = compile_workload(pset, [{**spec, "level": level, "out": "out"}])
    _assert_equal(execute_workload(eng, program, {"x": ct})["out"], want)


# two-operand cases: the compiled spec and the op applied to the inputs x
# and y. The rotations' steps are taken mod the toy degree's 32 slots, as
# the Engine takes them, so they compile against the toy-degree sets
_WIDE_STEP, _NEGATIVE_STEP = 21, -5
_TWO_OPERAND = {
    "mult_relin-xy": ({"op": "mult_relin", "x": "x", "y": "y"},
                      lambda impl, x, y: impl.mult_relin(x, y)),
    "rotate-wide": ({"op": "rotate", "x": "x", "steps": _WIDE_STEP},
                    lambda impl, x, y: impl.rotate(x, _WIDE_STEP)),
    "rotate-negative": ({"op": "rotate", "x": "x", "steps": _NEGATIVE_STEP},
                        lambda impl, x, y: impl.rotate(x, _NEGATIVE_STEP)),
}


@pytest.fixture(scope="module")
def two_operand_engines(set1, set2):
    """Toy engines over set1 native and set2 split with the keys of both
    rotations; the shared toy engines keep their own key sets."""
    engines = {}
    for name, pset in (("set1", set1), ("set2", set2)):
        eng = Engine(pset.base, 64, pset.mode, seed=5)
        eng.keygen(rotation_steps=(_WIDE_STEP, _NEGATIVE_STEP))
        engines[name] = eng
    return engines


def _second_input(eng, kind: str, level: int) -> Ciphertext:
    """An operand y unlike x: the boundary ciphertext with its components
    swapped, or another encryption of other values."""
    if kind == "boundary":
        x = _boundary_ct(eng, level)
        return Ciphertext(x.c1, x.c0, x.scale)
    rng = np.random.default_rng(72)
    pt = eng.encode(rng.uniform(-1.0, 1.0, eng.slots), 1 << 40, level=level)
    return eng.encrypt(pt, enc_index=1)


@pytest.mark.parametrize("kind", ("encrypted", "boundary"))
@pytest.mark.parametrize("case", tuple(_TWO_OPERAND))
@pytest.mark.parametrize("below_top", (0, 1))
@pytest.mark.parametrize("pset_name", ("set1", "set2"))
def test_two_operand_op_matches_bigint_oracle(request, two_operand_engines, pset_name,
                                              below_top, case, kind):
    pset = request.getfixturevalue("toy_" + pset_name)
    eng = two_operand_engines[pset_name]
    level = eng.base.levels - below_top
    x, y = _input(eng, kind, level), _second_input(eng, kind, level)
    spec, apply = _TWO_OPERAND[case]
    want = apply(_Oracle(eng), x, y)
    _assert_equal(apply(eng, x, y), want)
    program = compile_workload(pset, [{**spec, "level": level, "out": "out"}])
    _assert_equal(execute_workload(eng, program, {"x": x, "y": y})["out"], want)


def _apply(impl, spec: dict, values: dict):
    """The op of a compiled spec, applied by the Engine or the oracle to the
    values its spec names."""
    args = [values[spec[k]] for k in ("x", "y", "pt") if k in spec]
    if spec["op"] == "rotate":
        args.append(spec["steps"])
    return getattr(impl, spec["op"])(*args)


def _plaintext(eng, kind: str, level: int) -> Plaintext:
    """A plaintext at a ciphertext's level: the boundary words, or an
    encoding of other values."""
    if kind == "boundary":
        return Plaintext(_boundary_ct(eng, level).c1, Fraction(1 << 20))
    rng = np.random.default_rng(73)
    return eng.encode(rng.uniform(-1.0, 1.0, eng.slots), 1 << 20, level=level)


_LINEAR = {
    "add": {"op": "add", "x": "x", "y": "y"},
    "sub": {"op": "sub", "x": "x", "y": "y"},
    "mult_plain": {"op": "mult_plain", "x": "x", "pt": "p"},
}


@pytest.mark.parametrize("kind", ("encrypted", "boundary"))
@pytest.mark.parametrize("case", tuple(_LINEAR))
@pytest.mark.parametrize("below_top", (0, 1))
@pytest.mark.parametrize("eng_name, pset_name", (("toy_native", "toy_set1"),
                                                 ("toy_split2", "toy_set2")))
def test_linear_op_matches_bigint_oracle(request, eng_name, pset_name, below_top, case, kind):
    eng = request.getfixturevalue(eng_name)
    pset = request.getfixturevalue(pset_name)
    level = eng.base.levels - below_top
    values = {"x": _input(eng, kind, level), "y": _second_input(eng, kind, level),
              "p": _plaintext(eng, kind, level)}
    spec = _LINEAR[case]
    want = _apply(_Oracle(eng), spec, values)
    _assert_equal(_apply(eng, spec, values), want)
    program = compile_workload(pset, [{**spec, "level": level, "out": "out"}])
    _assert_equal(execute_workload(eng, program, values)["out"], want)


@pytest.mark.parametrize("below_top", (0, 1))
@pytest.mark.parametrize("eng_name, pset_name", (("toy_native", "toy_set1"),
                                                 ("toy_split2", "toy_set2")))
def test_rotate_by_zero_copies_and_is_not_compiled(request, eng_name, pset_name, below_top):
    # the oracle's rotation by 0 is the identity; no compiled stream runs it
    eng = request.getfixturevalue(eng_name)
    pset = request.getfixturevalue(pset_name)
    level = eng.base.levels - below_top
    ct = _input(eng, "encrypted", level)
    got = eng.rotate(ct, 0)
    _assert_equal(got, (_poly(ct.c0), _poly(ct.c1), ct.scale, ct.level))
    for a, b in zip(got.c0 + got.c1, ct.c0 + ct.c1, strict=True):
        assert not np.shares_memory(a.coeffs, b.coeffs)
    with pytest.raises(UnsupportedOpError):
        compile_workload(pset, [{"op": "rotate", "x": "x", "steps": 0, "level": level,
                                 "out": "out"}])


def _as_ciphertext(eng, want) -> Ciphertext:
    """The oracle's integer polynomials as limbs at their level."""
    c0, c1, scale, level = want
    moduli = eng.base.level_moduli(level)
    return Ciphertext([_limb(c0, q) for q in moduli], [_limb(c1, q) for q in moduli], scale)


@pytest.mark.parametrize("pset_name", ("logreg", "set2"))
def test_logreg_op_list_matches_bigint_oracle(pset_name):
    pset = replace(get_param_set(pset_name), degree=64)
    spec = get_workload(pset, "logreg")
    eng = Engine(pset.base, pset.degree, pset.mode, seed=7)
    eng.keygen(rotation_steps=spec.rotation_steps)
    inputs, _ = spec.build_inputs(eng, 11)
    oracle, values = _Oracle(eng), dict(inputs)
    for op in spec.ops:
        want = _apply(oracle, op, values)
        values[op["out"]] = _as_ciphertext(eng, want)
    got = execute_workload(eng, compile_workload(pset, spec.ops), inputs)
    _assert_equal(got[spec.output_var], want)
