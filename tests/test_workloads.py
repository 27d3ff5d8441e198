"""Workload specs: the plain reference, rotation keys and output come from the ops."""

import hashlib

import numpy as np
import pytest

from medha.heaan import Engine
from medha.params import get_param_set
from medha.workloads import get_workload, plain_values, workload_names

TOY = 64


@pytest.mark.parametrize("op, want", [
    ({"op": "add", "x": "a", "y": "b"}, [5.0, -1.0, 3.5, 8.0]),
    ({"op": "sub", "x": "a", "y": "b"}, [-3.0, 5.0, 2.5, 0.0]),
    ({"op": "mult_relin", "x": "a", "y": "b"}, [4.0, -6.0, 1.5, 16.0]),
    ({"op": "mult_relin", "x": "a", "y": "a"}, [1.0, 4.0, 9.0, 16.0]),
    ({"op": "mult_plain", "x": "a", "pt": "b"}, [4.0, -6.0, 1.5, 16.0]),
    ({"op": "rotate", "x": "a", "steps": 1}, [2.0, 3.0, 4.0, 1.0]),
    ({"op": "rotate", "x": "a", "steps": -1}, [4.0, 1.0, 2.0, 3.0]),
    ({"op": "rotate", "x": "a", "steps": 5}, [2.0, 3.0, 4.0, 1.0]),
    ({"op": "rescale", "x": "a"}, [1.0, 2.0, 3.0, 4.0]),
    ({"op": "moddown", "x": "a"}, [1.0, 2.0, 3.0, 4.0]),
])
def test_plain_values_each_op(op, want):
    a = np.array([1.0, 2.0, 3.0, 4.0])
    b = np.array([4.0, -3.0, 0.5, 4.0])
    got = plain_values([{**op, "out": "z"}], {"a": a, "b": b})
    assert np.array_equal(got["z"], want)
    # every variable comes back, and the inputs are not modified
    assert got["a"] is a and got["b"] is b
    assert np.array_equal(a, [1.0, 2.0, 3.0, 4.0])


def test_plain_values_chains_ops():
    ops = [
        {"op": "rotate", "x": "a", "steps": 1, "out": "r"},
        {"op": "add", "x": "a", "y": "r", "out": "s"},
        {"op": "mult_relin", "x": "s", "y": "s", "out": "t"},
    ]
    got = plain_values(ops, {"a": np.array([1.0, 2.0, 3.0])})
    assert np.array_equal(got["s"], [3.0, 5.0, 4.0])
    assert np.array_equal(got["t"], [9.0, 25.0, 16.0])


@pytest.mark.parametrize("pset_name", ("set1", "set2", "logreg"))
def test_rotation_keys_and_output_follow_the_ops(pset_name):
    pset = get_param_set(pset_name)
    for name in workload_names():
        spec = get_workload(pset, name)
        steps: list = []
        for op in spec.ops:
            if op["op"] == "rotate" and op["steps"] not in steps:
                steps.append(op["steps"])
        assert spec.rotation_steps == tuple(steps), name
        assert (spec.output_var is None) == (spec.build_inputs is None), name
        if spec.output_var is not None:
            assert spec.output_var == spec.ops[-1]["out"], name
    assert get_workload(pset, "logreg").rotation_steps == tuple(range(1, 8))
    assert get_workload(pset, "rotate").rotation_steps == (1,)


# SHA-256 of the little-endian float64 reference at the toy degree (32
# slots); a reordered float operation in the reference changes these bits
_EXPECTED_PINNED = {
    ("logreg", "logreg", 11): "fb834359c7e82f484de6465fa881859afc98847d7bc27ea7c4203e6156883163",
    ("set1", "rescale", 3): "5a5eebb130dfef5f6c5a8836f301de4b245168e9e44cb2d4aff79a5a9499cd29",
}


@pytest.mark.parametrize("pset_name, name, seed", sorted(_EXPECTED_PINNED))
def test_reference_bits_pinned(pset_name, name, seed):
    pset = get_param_set(pset_name)
    eng = Engine(pset.base, TOY, pset.mode, seed=5)
    eng.keygen()
    _, expected = get_workload(pset, name).build_inputs(eng, seed)
    digest = hashlib.sha256(np.asarray(expected, "<f8").tobytes()).hexdigest()
    assert digest == _EXPECTED_PINNED[(pset_name, name, seed)]
