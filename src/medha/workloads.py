"""Ready-made evaluation workloads for the latency model and the CLI.

Each workload is a list of high-level op specs plus an input builder that
produces real ciphertexts for the functional path and a plain-arithmetic
reference for end-to-end error reporting. The op specs carry explicit
levels, so a workload is also a worked example of level scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .archsim import UnsupportedOpError
from .params import ParamSet


@dataclass
class WorkloadSpec:
    name: str
    ops: list
    rotation_steps: tuple = ()
    output_var: Optional[str] = None
    build_inputs: Optional[Callable] = None   # (engine, seed) -> (vars, expected)
    notes: str = ""


def _rand_real(rng: np.random.Generator, n: int, mag: float) -> np.ndarray:
    return (rng.random(n) * 2.0 - 1.0) * mag


def _bench_inputs(pset: ParamSet, which: str):
    def build(engine, seed: int):
        rng = np.random.default_rng(seed)
        n = engine.slots
        scale = pset.scale
        vx = _rand_real(rng, n, 1.0)
        vy = _rand_real(rng, n, 1.0)
        out: dict = {}
        expected = None
        if which in ("add", "sub", "mult_relin", "rescale", "rotate", "mult_plain"):
            out["x"] = engine.encrypt(engine.encode(vx, scale))
        if which in ("add", "sub", "mult_relin"):
            # a second encryption index: x and y must not share r, e0 and e1
            out["y"] = engine.encrypt(engine.encode(vy, scale), enc_index=1)
        if which == "mult_plain":
            out["pt"] = engine.encode(vy, scale)
        if which == "add":
            expected = vx + vy
        elif which == "sub":
            expected = vx - vy
        elif which == "mult_relin":
            expected = vx * vy
        elif which == "rescale":
            # lift the input to scale*q_top so dropping the top prime
            # lands back on the working scale
            drop = engine.drop_scale(engine.base.levels)
            out["x"] = engine.mult_plain(out["x"], engine.encode(vy, drop))
            expected = vx * vy
        elif which == "rotate":
            expected = np.roll(vx, -1)
        elif which == "mult_plain":
            expected = vx * vy
        return out, expected

    return build


def _bench(pset: ParamSet, op: str) -> WorkloadSpec:
    lvl = pset.levels
    spec = {"op": op, "level": lvl, "x": "x", "out": "out", "name": op}
    if op in ("add", "sub", "mult_relin"):
        spec["y"] = "y"
    if op == "mult_plain":
        spec["pt"] = "pt"
    if op == "rotate":
        spec["steps"] = 1
    functional = op not in ("moddown",)
    return WorkloadSpec(
        name=op,
        ops=[spec],
        rotation_steps=(1,) if op == "rotate" else (),
        output_var="out" if functional else None,
        build_inputs=_bench_inputs(pset, op) if functional else None,
    )


def _logreg(pset: ParamSet) -> WorkloadSpec:
    """Inference round of a small trained classifier on packed samples.

    One plaintext-weighted reduction (rotation fold), then a polynomial
    evaluated through repeated squaring with plaintext coefficient folds:
    7 rotations, 11 rescalings, 5 relinearized multiplications, 6
    plaintext multiplications, 9 additions. Plaintext scales are chosen
    so every rescale lands back on the working scale and the final
    addends agree exactly.
    """
    if pset.levels < 6:
        raise UnsupportedOpError("workload needs six levels")
    # the scales below are fixed for Delta = 2^53 and ignore scale_bits, so
    # any value other than the preset default is refused, not ignored
    if pset.scale_bits != ParamSet.scale_bits:
        raise UnsupportedOpError(
            f"workload fixes its scale at 2^53; scale_bits {pset.scale_bits} is not supported"
        )
    q = [Fraction(p.value) for p in pset.base.primes]
    delta = Fraction(1 << 53)

    # working scales after each rescale, chased symbolically
    s_t0 = delta
    s_a = delta * delta / q[4]
    s_b = delta
    s_c = s_a * s_b / q[3]
    s_d = s_a
    s_e = s_c * s_d / q[2]
    s_f = s_c
    s_g = s_e * s_f / q[1]
    pt_h = s_g * q[1] / s_e          # makes h's scale equal g's
    pt_j = s_g * q[1] / s_f

    ops: list = [
        {"op": "mult_plain", "level": 6, "x": "x", "pt": "w0", "out": "t0r"},
        {"op": "rescale", "level": 6, "x": "t0r", "out": "t0"},
    ]
    for k in range(1, 8):
        ops.append({"op": "rotate", "level": 5, "steps": k, "x": "t0", "out": f"r{k}"})
    prev = "t0"
    for k in range(1, 8):
        ops.append({"op": "add", "level": 5, "x": prev, "y": f"r{k}", "out": f"s{k}"})
        prev = f"s{k}"
    ops += [
        {"op": "mult_relin", "level": 5, "x": prev, "y": prev, "out": "ar"},
        {"op": "rescale", "level": 5, "x": "ar", "out": "a"},
        {"op": "mult_plain", "level": 5, "x": prev, "pt": "c1", "out": "br"},
        {"op": "rescale", "level": 5, "x": "br", "out": "b"},
        {"op": "mult_relin", "level": 4, "x": "a", "y": "b", "out": "cr"},
        {"op": "rescale", "level": 4, "x": "cr", "out": "c"},
        {"op": "mult_plain", "level": 4, "x": "a", "pt": "c2", "out": "dr"},
        {"op": "rescale", "level": 4, "x": "dr", "out": "d"},
        {"op": "mult_relin", "level": 3, "x": "c", "y": "d", "out": "er"},
        {"op": "rescale", "level": 3, "x": "er", "out": "e"},
        {"op": "mult_plain", "level": 3, "x": "c", "pt": "c3", "out": "fr"},
        {"op": "rescale", "level": 3, "x": "fr", "out": "f"},
        {"op": "mult_relin", "level": 2, "x": "e", "y": "f", "out": "gr"},
        {"op": "rescale", "level": 2, "x": "gr", "out": "g"},
        {"op": "mult_plain", "level": 2, "x": "e", "pt": "c4", "out": "hr"},
        {"op": "rescale", "level": 2, "x": "hr", "out": "h"},
        {"op": "mult_relin", "level": 2, "x": "e", "y": "e", "out": "ir"},
        {"op": "rescale", "level": 2, "x": "ir", "out": "i"},
        {"op": "mult_plain", "level": 2, "x": "f", "pt": "c5", "out": "jr"},
        {"op": "rescale", "level": 2, "x": "jr", "out": "j"},
        {"op": "add", "level": 1, "x": "g", "y": "j", "out": "u"},
        {"op": "add", "level": 1, "x": "u", "y": "h", "out": "out"},
    ]

    pt_scales = {
        "w0": (Fraction(q[5]), 6, 0.5),
        "c1": (Fraction(q[4]), 5, 0.05),
        "c2": (Fraction(q[3]), 4, 0.05),
        "c3": (Fraction(q[2]), 3, 0.05),
        "c4": (pt_h, 2, 0.05),
        "c5": (pt_j, 2, 0.05),
    }

    def build(engine, seed: int):
        rng = np.random.default_rng(seed)
        n = engine.slots
        vx = _rand_real(rng, n, 0.5)
        # the ops are compiled for level 6, whatever the set's top level
        variables = {"x": engine.encrypt(engine.encode(vx, delta, level=6))}
        plain = {"x": vx}
        for name, (scale, level, mag) in pt_scales.items():
            v = _rand_real(rng, n, mag)
            variables[name] = engine.encode(v, scale, level=level)
            plain[name] = v
        t0 = plain["x"] * plain["w0"]
        s = t0.copy()
        for k in range(1, 8):
            s = s + np.roll(t0, -k)
        a = s * s
        b = s * plain["c1"]
        c = a * b
        d = a * plain["c2"]
        e = c * d
        f = c * plain["c3"]
        g = e * f
        h = e * plain["c4"]
        j = f * plain["c5"]
        expected = g + j + h
        return variables, expected

    return WorkloadSpec(
        name="logreg",
        ops=ops,
        rotation_steps=tuple(range(1, 8)),
        output_var="out",
        build_inputs=build,
        notes="rotation fold then coefficient-folded repeated squaring",
    )


_BENCH_NAMES = ("add", "sub", "mult_relin", "rescale", "moddown", "rotate",
                "mult_plain", "ntt")


def workload_names() -> tuple:
    return _BENCH_NAMES + ("empty", "logreg")


def get_workload(pset: ParamSet, name: str) -> WorkloadSpec:
    if name in _BENCH_NAMES:
        if name == "ntt":
            return WorkloadSpec(name="ntt", ops=[{"op": "ntt", "name": "ntt"}])
        return _bench(pset, name)
    if name == "empty":
        return WorkloadSpec(name="empty", ops=[])
    if name == "logreg":
        return _logreg(pset)
    raise UnsupportedOpError(f"unknown workload {name!r}")
