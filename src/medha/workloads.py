"""Ready-made evaluation workloads for the latency model and the CLI.

Each workload is a list of high-level op specs plus an input builder that
produces real ciphertexts for the functional path. Everything else is read
off the op list: the plain-arithmetic reference for end-to-end error
reporting (`plain_values`), the rotation keys and the output variable. The
op specs carry explicit levels, so a workload is also a worked example of
level scheduling.
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
    build_inputs: Optional[Callable] = None   # (engine, seed) -> (vars, expected)

    @property
    def rotation_steps(self) -> tuple:
        """The steps of the rotate ops, in order of first use."""
        return tuple(dict.fromkeys(op["steps"] for op in self.ops if op["op"] == "rotate"))

    @property
    def output_var(self) -> Optional[str]:
        """The last op's output when the workload runs functionally, else None."""
        return self.ops[-1]["out"] if self.build_inputs is not None else None


_PLAIN = {
    "add": lambda v, op: v[op["x"]] + v[op["y"]],
    "sub": lambda v, op: v[op["x"]] - v[op["y"]],
    "mult_relin": lambda v, op: v[op["x"]] * v[op["y"]],
    "mult_plain": lambda v, op: v[op["x"]] * v[op["pt"]],
    "rotate": lambda v, op: np.roll(v[op["x"]], -op["steps"]),
    "rescale": lambda v, op: v[op["x"]],
    "moddown": lambda v, op: v[op["x"]],
}


def plain_values(ops: list, values: dict) -> dict:
    """Evaluate an op list on plain slot vectors; returns every variable.

    `values` maps each input name (ciphertext or plaintext operand) to its
    slot vector. Rescale and moddown change the scale and the level, not the
    value, so they pass their input through.
    """
    out = dict(values)
    for op in ops:
        out[op["out"]] = _PLAIN[op["op"]](out, op)
    return out


def _rand_real(rng: np.random.Generator, n: int, mag: float) -> np.ndarray:
    return (rng.random(n) * 2.0 - 1.0) * mag


def _bench_inputs(pset: ParamSet, ops: list):
    (op,) = ops

    def build(engine, seed: int):
        rng = np.random.default_rng(seed)
        n = engine.slots
        scale = pset.scale
        vx = _rand_real(rng, n, 1.0)
        vy = _rand_real(rng, n, 1.0)
        x = op["x"]
        variables = {x: engine.encrypt(engine.encode(vx, scale))}
        plain = {x: vx}
        if "y" in op:
            # a second encryption index: x and y must not share r, e0 and e1
            variables[op["y"]] = engine.encrypt(engine.encode(vy, scale), enc_index=1)
            plain[op["y"]] = vy
        if "pt" in op:
            variables[op["pt"]] = engine.encode(vy, scale)
            plain[op["pt"]] = vy
        if op["op"] == "rescale":
            # lift the input to scale*q_top so dropping the top prime
            # lands back on the working scale
            drop = engine.drop_scale(engine.base.levels)
            variables[x] = engine.mult_plain(variables[x], engine.encode(vy, drop))
            plain[x] = vx * vy
        return variables, plain_values(ops, plain)[op["out"]]

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
    ops = [spec]
    build = _bench_inputs(pset, ops) if op != "moddown" else None
    return WorkloadSpec(name=op, ops=ops, build_inputs=build)


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
        return variables, plain_values(ops, plain)["out"]

    return WorkloadSpec(name="logreg", ops=ops, build_inputs=build)


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
