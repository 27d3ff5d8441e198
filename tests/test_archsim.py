"""Compiled instruction streams: cycle accounting, hazards and functional replay."""

import functools
import hashlib
import math
import re
from dataclasses import fields, replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medha import archsim, kernels, polyring, ringsplit
from medha.archsim import (
    BCAST,
    NTT,
    ArchSimError,
    CostModel,
    DependencyCycleError,
    Instruction,
    MachineConfig,
    MemoryBudgetError,
    OpProgram,
    Program,
    SYNC_CTRL,
    UnsupportedOpError,
    _Executor,
    _run_order,
    calibrate_split_move,
    compile_op,
    compile_workload,
    dual_issue_savings,
    execute_workload,
    memory_audit,
    simulate,
)
from medha.heaan import Ciphertext, Engine
from medha.params import get_param_set
from medha.polyring import ntt_inverse
from medha.workloads import get_workload, plain_values, workload_names

TOY = 64


def _bench_program(pset, name):
    spec = get_workload(pset, name)
    return spec, compile_workload(pset, spec.ops)


def test_workload_catalog(set1):
    names = workload_names()
    for expect in ("add", "mult_relin", "rescale", "rotate", "logreg", "empty"):
        assert expect in names
    with pytest.raises(UnsupportedOpError):
        get_workload(set1, "bootstrap")
    with pytest.raises(UnsupportedOpError):
        compile_op(set1, "fft")


def test_compile_and_simulate_deterministic(set1):
    _, a = _bench_program(set1, "mult_relin")
    _, b = _bench_program(set1, "mult_relin")
    la = [i.label() for op in a.ops for s in op.streams for i in s]
    lb = [i.label() for op in b.ops for s in op.streams for i in s]
    assert la == lb
    ra, rb = simulate(a), simulate(b)
    assert ra.total_cycles == rb.total_cycles
    assert ra.op_histogram == rb.op_histogram
    assert ra.per_pipe_busy == rb.per_pipe_busy


def test_cycle_regression_native(set1):
    expect = {
        "add": 1_152,
        "mult_relin": 104_576,
        "rescale": 31_360,
        "moddown": 31_360,
        "rotate": 100_992,
        "mult_plain": 8_320,
        "ntt": 7_168,
    }
    for name, cycles in expect.items():
        _, prog = _bench_program(set1, name)
        assert simulate(prog).total_cycles == cycles, name


def test_cycle_regression_split(set2):
    expect = {
        "add": 2_866,
        "mult_relin": 256_728,
        "rescale": 70_305,
        "rotate": 312_035,
        "mult_plain": 17_202,
    }
    for name, cycles in expect.items():
        _, prog = _bench_program(set2, name)
        assert simulate(prog).total_cycles == cycles, name


def test_native_mult_latency_closed_form(set1):
    # one transform row plus a per-limb broadcast round: linear in the level
    for level in range(1, set1.levels + 1):
        prog = compile_workload(set1, [{"op": "mult_relin", "level": level}])
        assert simulate(prog).total_cycles == 55_424 + 8_192 * (level - 1)


def test_rotate_latency_closed_form(set1):
    for level in range(1, set1.levels + 1):
        prog = compile_workload(set1, [{"op": "rotate", "level": level}])
        assert simulate(prog).total_cycles == 51_840 + 8_192 * (level - 1)


def test_report_invariants(set1):
    _, prog = _bench_program(set1, "mult_relin")
    rep = simulate(prog)
    assert rep.total_cycles >= max(rep.per_pipe_busy.values())
    assert rep.instruction_count == prog.instruction_count
    assert rep.latency_us == rep.total_cycles / rep.clock_mhz
    assert rep.critical_path
    assert len(rep.per_op) == len(prog.ops)
    assert rep.per_op[-1]["end"] == rep.total_cycles
    for entry in rep.per_op:
        assert entry["start"] <= entry["end"] <= rep.total_cycles
    counted = sum(h["count"] for h in rep.op_histogram.values())
    assert counted == rep.instruction_count


def test_clock_override_scales_latency(set1):
    _, prog = _bench_program(set1, "add")
    fast = simulate(prog, clock_mhz=400.0)
    slow = simulate(prog, clock_mhz=100.0)
    assert fast.total_cycles == slow.total_cycles
    assert fast.latency_us == pytest.approx(slow.latency_us / 4)


def test_memory_high_water(set1, set2):
    _, native = _bench_program(set1, "mult_relin")
    assert max(native.high_water().values()) == 7
    _, split = _bench_program(set2, "mult_relin")
    assert max(split.high_water().values()) == 13
    audit = memory_audit(native)
    assert audit["max"] == 7
    assert audit["budget"] == 13
    assert audit["ksk_resident_polys"] == 2 * set1.levels
    assert audit["ksk_regenerated_from_seed"] is True
    _, add = _bench_program(set1, "add")
    assert memory_audit(add)["ksk_resident_polys"] == 0


def test_memory_budget_enforced(set1, set2):
    with pytest.raises(MemoryBudgetError, match="slot 6 exceeds the 6-slot RPM bank"):
        compile_workload(set1, [{"op": "mult_relin"}], MachineConfig(rpm_slots=6))
    with pytest.raises(MemoryBudgetError, match="slot 12 exceeds the 12-slot RPM bank"):
        compile_workload(set2, [{"op": "mult_relin"}], MachineConfig(rpm_slots=12))


@pytest.mark.parametrize("pset_name", ["logreg", "set1", "set2"])
def test_memory_audit_lists_rpaus_in_order(pset_name):
    # the --simulate JSON keeps this order; the pinned digests sort it away
    pset = get_param_set(pset_name)
    for name in workload_names():
        _, prog = _bench_program(pset, name)
        rpaus = list(memory_audit(prog)["per_rpau"])
        assert rpaus == sorted(rpaus), name
        assert prog.machine.special_rpau not in rpaus[:-1], name


def test_unpaired_sync_detected(set1):
    lone = Instruction(
        op=SYNC_CTRL, ctrl=0, rpaus=(),
        meta={"sync_id": 0, "op_start": False}, uid=0,
    )
    bad = OpProgram(kind="raw", name="bad", streams=([lone], []), inputs={}, outputs={})
    prog = Program(pset=set1, machine=MachineConfig(), ops=[bad])
    with pytest.raises(DependencyCycleError):
        simulate(prog)


def test_dual_issue_beats_serial(set1, set2):
    _, prog = _bench_program(set1, "mult_relin")
    s = dual_issue_savings(prog)
    assert s["serial_cycles"] == 167_552
    assert s["dual_cycles"] == 104_576
    assert s["savings"] == pytest.approx((167_552 - 104_576) / 167_552)
    _, prog2 = _bench_program(set2, "mult_relin")
    s2 = dual_issue_savings(prog2)
    assert s2["serial_cycles"] == 431_085
    assert s2["savings"] == pytest.approx(0.4045, abs=5e-4)


def test_cost_model_shape():
    cost = CostModel()
    ntt = Instruction(op=NTT, ctrl=0, rpaus=(0,))
    assert cost.cost(ntt) == 7_168
    minus = Instruction(op=NTT, ctrl=0, rpaus=(0,), half="m")
    assert cost.cost(minus) == 7_168 + cost.split_move_cycles
    bcast = Instruction(op=BCAST, ctrl=0, rpaus=(0,), words=3)
    assert cost.cost(bcast) == 3 * 512


def test_calibrate_split_move():
    cost = CostModel()
    assert calibrate_split_move(cost, 2_865) == 345
    assert calibrate_split_move(cost, 2_866) == 345
    assert calibrate_split_move(cost, 2_176) == 0
    with pytest.raises(ArchSimError):
        calibrate_split_move(cost, 100)


def test_calibrated_split_add_total(set2):
    _, prog = _bench_program(set2, "add")
    cost = CostModel(split_move_cycles=calibrate_split_move(CostModel(), 2_865))
    got = simulate(prog, cost).total_cycles
    assert abs(got - 2_865) <= 1  # ceil rounding may overshoot by one cycle


def test_empty_workload(set1):
    _, prog = _bench_program(set1, "empty")
    rep = simulate(prog)
    assert rep.total_cycles == 0
    assert rep.instruction_count == 0
    assert memory_audit(prog)["max"] == 0


def _same_ct(eng, a, b):
    assert a.scale == b.scale
    assert a.level == b.level
    for ca, cb in zip((a.c0, a.c1), (b.c0, b.c1)):
        for la, lb in zip(ca, cb):
            assert np.array_equal(ntt_inverse(la).coeffs, ntt_inverse(lb).coeffs)


_ENGINE_OP = {
    "add": lambda e, v, op: e.add(v[op["x"]], v[op["y"]]),
    "sub": lambda e, v, op: e.sub(v[op["x"]], v[op["y"]]),
    "mult_plain": lambda e, v, op: e.mult_plain(v[op["x"]], v[op["pt"]]),
    "mult_relin": lambda e, v, op: e.mult_relin(v[op["x"]], v[op["y"]]),
    "rescale": lambda e, v, op: e.rescale(v[op["x"]]),
    "rotate": lambda e, v, op: e.rotate(v[op["x"]], op["steps"]),
}


def _engine_run(eng, ops, variables) -> dict:
    """An Engine interpretation of an op list: every name's newest value."""
    values = dict(variables)
    for op in ops:
        values[op["out"]] = _ENGINE_OP[op["op"]](eng, values, op)
    return values


@pytest.mark.parametrize("name", sorted(_ENGINE_OP))
def test_functional_matches_engine_native(set1, toy_native, name):
    spec, prog = _bench_program(set1, name)
    variables, expected = spec.build_inputs(toy_native, 3)
    result = execute_workload(toy_native, prog, variables)
    got = result[spec.output_var]
    _same_ct(toy_native, got, _engine_run(toy_native, spec.ops, variables)[spec.output_var])
    err = np.max(np.abs(toy_native.decrypt(got).real - expected))
    assert err < np.max(np.abs(expected)) * 2**-16 + 2**-20


@pytest.mark.parametrize("name", sorted(_ENGINE_OP))
def test_functional_matches_engine_split(set2, toy_split2, name):
    spec, prog = _bench_program(set2, name)
    variables, expected = spec.build_inputs(toy_split2, 4)
    result = execute_workload(toy_split2, prog, variables)
    got = result[spec.output_var]
    _same_ct(toy_split2, got, _engine_run(toy_split2, spec.ops, variables)[spec.output_var])


def test_compiled_rotate_reduces_steps_mod_slots(toy_set1, toy_native):
    # toy_set1 has 32 slots, so 33 and -31 both rotate by the key of step 1
    vals = np.linspace(-1.0, 1.0, toy_native.slots)
    ct = toy_native.encrypt(toy_native.encode(vals, toy_set1.scale))
    for steps in (33, -31):
        spec = {"op": "rotate", "steps": steps, "x": "x", "out": "out"}
        got = execute_workload(toy_native, compile_workload(toy_set1, [spec]), {"x": ct})
        _same_ct(toy_native, got["out"], toy_native.rotate(ct, steps))
    for steps in (0, 32, -64):
        with pytest.raises(UnsupportedOpError):
            compile_op(toy_set1, "rotate", steps=steps)


def test_operand_level_must_match_compiled_level(set1, toy_native):
    vals = np.linspace(-1.0, 1.0, toy_native.slots)

    def ct_at(level):
        return toy_native.encrypt(toy_native.encode(vals, set1.scale, level=level))

    add = compile_workload(set1, [{"op": "add", "level": 3, "x": "x", "y": "y", "out": "out"}])
    got = execute_workload(toy_native, add, {"x": ct_at(3), "y": ct_at(3)})
    assert got["out"].level == 3
    for level in (2, 4):  # below the compiled level, then above it
        with pytest.raises(ArchSimError, match="limbs"):
            execute_workload(toy_native, add, {"x": ct_at(level), "y": ct_at(3)})
    mult = compile_workload(
        set1, [{"op": "mult_plain", "level": 3, "x": "x", "pt": "pt", "out": "out"}])
    for level in (2, 4):
        pt = toy_native.encode(vals, set1.scale, level=level)
        with pytest.raises(ArchSimError, match="limbs"):
            execute_workload(toy_native, mult, {"x": ct_at(3), "pt": pt})


def _ct_equal(eng, a, b) -> bool:
    return all(
        np.array_equal(ntt_inverse(la).coeffs, ntt_inverse(lb).coeffs)
        for ca, cb in ((a.c0, b.c0), (a.c1, b.c1)) for la, lb in zip(ca, cb)
    )


# (set, op, controller whose edges to the other one are dropped): (mutants, caught)
_DROPPED_EDGES = {
    ("set1", "mult_relin", "dyadic"): (14, 4),
    ("set1", "mult_relin", "main"): (15, 5),
    ("set1", "rotate", "dyadic"): (14, 3),
    ("set1", "rotate", "main"): (11, 4),
    ("set2", "mult_relin", "dyadic"): (36, 9),
    ("set2", "mult_relin", "main"): (25, 10),
    ("set2", "rotate", "dyadic"): (36, 8),
    ("set2", "rotate", "main"): (18, 9),
}


@pytest.mark.parametrize("pset_name, engine", [("set1", "toy_native"), ("set2", "toy_split2")])
@pytest.mark.parametrize("op", ("mult_relin", "rotate"))
@pytest.mark.parametrize("reader", ("dyadic", "main"))
def test_replay_catches_dropped_dependencies(request, pset_name, engine, op, reader):
    # drop, one at a time, each edge from an instruction of the reader's
    # controller to the other controller; replay in dependency order must
    # keep failing (with a KeyError or ValueError) or computing a different
    # ciphertext for at least as many mutants as now
    mutants, caught_at_least = _DROPPED_EDGES[pset_name, op, reader]
    eng = request.getfixturevalue(engine)
    spec, prog = _bench_program(get_param_set(pset_name), op)
    variables, _ = spec.build_inputs(eng, 3)
    want = _engine_run(eng, spec.ops, variables)[spec.output_var]
    (opp,) = prog.ops
    ctrl = 1 if reader == "dyadic" else 0
    other = {i.uid for i in opp.streams[1 - ctrl]}
    made = caught = 0
    for k, ins in enumerate(opp.streams[ctrl]):
        if not other.intersection(ins.deps):
            continue
        made += 1
        streams = list(opp.streams)
        streams[ctrl] = list(streams[ctrl])
        streams[ctrl][k] = replace(ins, deps=tuple(d for d in ins.deps if d not in other))
        mutant = replace(opp, streams=tuple(streams))
        try:
            got = execute_workload(eng, Program(prog.pset, prog.machine, [mutant]), variables)
        except (KeyError, ValueError):
            caught += 1
            continue
        caught += not _ct_equal(eng, got[spec.output_var], want)
    assert made == mutants
    assert caught >= caught_at_least


def test_latency_only_op_not_executed(set1, toy_native):
    spec, prog = _bench_program(set1, "moddown")
    assert spec.build_inputs is None
    assert all(not op.functional for op in prog.ops)
    result = execute_workload(toy_native, prog, {})
    assert spec.output_var is None


def test_rescale_below_level_two_refused(set1, toy_native):
    # a rescale at level 1 would leave a ciphertext with no limbs
    with pytest.raises(UnsupportedOpError, match="level 1"):
        compile_op(set1, "rescale", level=1)
    with pytest.raises(UnsupportedOpError, match="level 1"):
        compile_workload(set1, [{"op": "rescale", "level": 1, "x": "x", "out": "out"}])
    assert compile_op(set1, "rescale", level=2).outputs["out"]["components"][0] == [(0, (0,))]
    # a moddown at level 1 drops the special prime and keeps the one limb
    assert compile_op(set1, "moddown", level=1).outputs["out"]["components"][0] == [(0, (0,))]
    ct = toy_native.encrypt(toy_native.encode(np.zeros(toy_native.slots), set1.scale, level=1))
    with pytest.raises(ValueError, match="cannot rescale below level 1"):
        toy_native.rescale(ct)


def test_name_without_a_value_refused(set1, toy_native):
    ct = toy_native.encrypt(toy_native.encode(np.zeros(toy_native.slots), set1.scale))
    add = compile_workload(set1, [{"op": "add", "x": "x", "y": "w", "out": "out"}])
    with pytest.raises(ArchSimError, match=re.escape("add[0] reads 'w'")):
        execute_workload(toy_native, add, {"x": ct})
    # a latency-only moddown is skipped, so its output never gets a value
    chain = compile_workload(set1, [{"op": "moddown", "x": "x", "out": "y"},
                                    {"op": "add", "x": "x", "y": "y", "out": "out"}])
    with pytest.raises(ArchSimError, match=re.escape("add[1] reads 'y'")):
        execute_workload(toy_native, chain, {"x": ct})


def test_logreg_regression_and_memory(logreg_pset):
    spec, prog = _bench_program(logreg_pset, "logreg")
    rep = simulate(prog)
    assert rep.total_cycles == 1_364_736
    assert rep.instruction_count == 757
    assert max(prog.high_water().values()) == 7
    assert rep.latency_us == pytest.approx(6_823.68)
    assert len(spec.rotation_steps) == 7


def test_logreg_functional_toy(logreg_pset):
    eng = Engine(logreg_pset.base, TOY, "native", seed=7)
    spec = get_workload(logreg_pset, "logreg")
    eng.keygen(rotation_steps=spec.rotation_steps)
    prog = compile_workload(logreg_pset, spec.ops)
    variables, expected = spec.build_inputs(eng, 11)
    result = execute_workload(eng, prog, variables)
    out = eng.decrypt(result[spec.output_var]).real
    err = np.max(np.abs(out - expected)) / np.max(np.abs(expected))
    assert err < 1e-6


def test_execute_workload_drops_temporaries(logreg_pset):
    # every logreg intermediate is a temporary with a later reader but `i`
    # (e * e, which no later op reads) and `out`
    eng = Engine(logreg_pset.base, TOY, "native", seed=7)
    spec = get_workload(logreg_pset, "logreg")
    eng.keygen(rotation_steps=spec.rotation_steps)
    variables, _ = spec.build_inputs(eng, 11)
    result = execute_workload(eng, compile_workload(logreg_pset, spec.ops), variables)
    assert set(result) == set(variables) | {"i", "out"}
    assert all(result[name] is value for name, value in variables.items())


def _spy_executed(monkeypatch):
    """The OpPrograms _Executor.run is handed, in the order it runs them."""
    ran = []
    run = _Executor.run

    def spy(self, opp, state):
        ran.append(opp)
        run(self, opp, state)

    monkeypatch.setattr(_Executor, "run", spy)
    return ran


def test_logreg_adds_each_rotation_before_the_next_runs(logreg_pset, monkeypatch):
    # every logreg op reads and writes names that no other op changes, so
    # each runs just before its first reader: r_k is added into s_k before
    # r_(k+1) is made, and the output bits are the Engine's in listed order
    eng = Engine(logreg_pset.base, TOY, "native", seed=7)
    spec = get_workload(logreg_pset, "logreg")
    eng.keygen(rotation_steps=spec.rotation_steps)
    variables, _ = spec.build_inputs(eng, 11)
    ran = _spy_executed(monkeypatch)
    result = execute_workload(eng, compile_workload(logreg_pset, spec.ops), variables)
    outs = [opp.meta["vars"]["out"] for opp in ran]
    assert sorted(outs) == sorted(op["out"] for op in spec.ops)
    rotations = [k for k, opp in enumerate(ran) if opp.kind == "rotate"]
    assert len(rotations) == 7
    for k in rotations:
        assert ran[k + 1].kind == "add"
        assert ran[k + 1].meta["vars"]["y"] == outs[k]
    want = _engine_run(eng, spec.ops, variables)
    for name in ("i", "out"):
        _same_ct(eng, result[name], want[name])


def test_run_order_moves_only_ops_on_fixed_names():
    # (names read, name written) per op. t and s are each written once and read only
    # later, from names no op changes, so each runs just before its reader
    ops = [(["a"], "t"), (["b"], "s"), (["s"], "u"), (["t", "a"], "out")]
    assert _run_order(ops, {"a": 0, "b": 0}) == [1, 2, 0, 3]
    # op 1 rewrites the caller's `a`, so op 0 must read it first
    ops[1] = (["b"], "a")
    assert _run_order(ops, {"a": 0, "b": 0}) == [0, 1, 2, 3]


def test_chain_rewriting_its_names_matches_engine(set2, toy_split2, monkeypatch):
    # split-chain's pattern: each level's product overwrites `m` and its
    # rescale overwrites `ct`, the caller's own input name; both keep
    # their newest value
    eng = toy_split2
    rng = np.random.default_rng(31)
    levels = set2.levels
    ops, variables = [], {}
    for lvl in range(levels, 0, -1):
        w = rng.uniform(-1.0, 1.0, eng.slots)
        variables[f"w{lvl}"] = eng.encrypt(eng.encode(w, set2.scale, level=lvl), enc_index=lvl)
        ops.append({"op": "mult_relin", "level": lvl, "x": "ct", "y": f"w{lvl}",
                    "out": "m" if lvl > 1 else "out"})
        if lvl > 1:
            ops.append({"op": "rescale", "level": lvl, "x": "m", "out": "ct"})
    ct = eng.encrypt(eng.encode(rng.uniform(-1.0, 1.0, eng.slots), set2.scale))
    ran = _spy_executed(monkeypatch)
    result = execute_workload(eng, compile_workload(set2, ops), {**variables, "ct": ct})
    # every op reads a rewritten name, so none may move
    assert [opp.meta["vars"]["out"] for opp in ran] == [op["out"] for op in ops]
    for lvl in range(levels, 1, -1):
        m = eng.mult_relin(ct, variables[f"w{lvl}"])
        ct = eng.rescale(m)
    assert set(result) == set(variables) | {"ct", "m", "out"}
    _same_ct(eng, result["m"], m)
    _same_ct(eng, result["ct"], ct)
    _same_ct(eng, result["out"], eng.mult_relin(ct, variables["w1"]))


def _value_digest(value) -> str:
    limbs = value.c0 + value.c1 if isinstance(value, Ciphertext) else value.limbs
    h = hashlib.sha256()
    for limb in limbs:
        h.update(limb.coeffs.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("pset_name", ("set1", "set2", "logreg"))
def test_execute_workload_leaves_inputs_untouched(pset_name):
    # operand limbs are seeded into the executor without a copy, so no
    # step may write into an array it did not allocate
    pset = get_param_set(pset_name)
    eng = Engine(pset.base, TOY, pset.mode, seed=5)
    specs = [get_workload(pset, name) for name in workload_names()]
    specs = [spec for spec in specs if spec.build_inputs is not None]
    eng.keygen(rotation_steps=sorted({s for spec in specs for s in spec.rotation_steps}))
    for spec in specs:
        variables, _ = spec.build_inputs(eng, 3)
        before = {name: _value_digest(v) for name, v in variables.items()}
        execute_workload(eng, compile_workload(pset, spec.ops), variables)
        assert {name: _value_digest(v) for name, v in variables.items()} == before, spec.name


@pytest.mark.parametrize("pset_name", ("set1", "set2", "logreg"))
def test_workload_inputs_encrypt_with_distinct_randomness(pset_name):
    # two ciphertexts under one encryption index share r, e0 and e1: their
    # c1 limbs are equal, and c0_x - c0_y decodes to x - y with no secret key
    pset = get_param_set(pset_name)
    eng = Engine(pset.base, TOY, pset.mode, seed=5)
    eng.keygen()
    for name in workload_names():
        spec = get_workload(pset, name)
        if spec.build_inputs is None:
            continue
        variables, _ = spec.build_inputs(eng, 3)
        cts = [v for v in variables.values() if isinstance(v, Ciphertext)]
        for a, b in combinations(cts, 2):
            for la, lb in zip(a.c1, b.c1):
                assert not np.array_equal(la.coeffs, lb.coeffs), name


def _canon(x):
    """A repr-stable form of nested dicts, lists and tuples."""
    if isinstance(x, dict):
        return tuple(sorted((repr(k), _canon(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(_canon(v) for v in x)
    return repr(x)


def _program_digest(prog) -> str:
    """SHA-256 over every field of every op and instruction of a program."""
    h = hashlib.sha256()
    for op in prog.ops:
        h.update(repr(_canon((op.kind, op.name, op.inputs, op.outputs, op.meta,
                              op.high_water, op.functional))).encode())
        for stream in op.streams:
            for i in stream:
                h.update(repr(_canon((i.op, i.pipe, i.ctrl, i.rpaus, i.dst, i.src,
                                      i.kind, i.words, i.half, i.meta, i.uid,
                                      i.deps))).encode())
    return h.hexdigest()[:16]


_STREAM_DIGESTS = {
    "set1": {
        "add": "f5c3bf8f2b02282f", "sub": "e64100c22358d846",
        "mult_relin": "2ae678197e8a2ded", "rescale": "4cede21fa96d0278",
        "moddown": "bd7b10be4b0809b2", "rotate": "322aff4cf67a337d",
        "mult_plain": "6676a35d98de7d7a", "ntt": "978d987a9b649d9e",
        "empty": "e3b0c44298fc1c14", "logreg": "46eb77dece9bc86f",
    },
    "set2": {
        "add": "3851fc1829699aa9", "sub": "857a82c8e46ac8bc",
        "mult_relin": "a8af8fc13b8c6a7f", "rescale": "6030791741e0461b",
        "moddown": "958a6c6afa88074d", "rotate": "fcdb45fbd9a7d170",
        "mult_plain": "f42db3617382c079", "ntt": "978d987a9b649d9e",
        "empty": "e3b0c44298fc1c14", "logreg": "0013a1b2733269eb",
    },
    "logreg": {
        "add": "666980859aad5b27", "sub": "14fc7f3b658c8b83",
        "mult_relin": "1572c225ca7d2c98", "rescale": "32a5745858413d64",
        "moddown": "e56f0477c235d413", "rotate": "2855e7afb6d12e01",
        "mult_plain": "c8df3706c31bfde9", "ntt": "978d987a9b649d9e",
        "empty": "e3b0c44298fc1c14", "logreg": "96ce61d00eeecab0",
    },
}


@pytest.mark.parametrize("pset_name", sorted(_STREAM_DIGESTS))
def test_compiled_streams_pinned(pset_name):
    # totals and counts miss a swapped slot or dependency; these digests
    # cover every instruction field, each op's bindings and high-water marks
    pset = get_param_set(pset_name)
    assert set(_STREAM_DIGESTS[pset_name]) == set(workload_names())
    for name, want in _STREAM_DIGESTS[pset_name].items():
        _, prog = _bench_program(pset, name)
        assert _program_digest(prog) == want, name


def _simulation_digest(prog) -> str:
    """SHA-256 over what the CLI's --simulate section reports of a program."""
    rep = simulate(prog)
    doc = (rep.total_cycles, rep.per_pipe_busy, rep.op_histogram, rep.per_op,
           rep.critical_path[-8:], dual_issue_savings(prog), memory_audit(prog))
    return hashlib.sha256(repr(_canon(doc)).encode()).hexdigest()[:16]


_SIMULATION_DIGESTS = {
    "set1": {
        "add": "6f2ae2949169c171", "sub": "aeda3d1d2457035c",
        "mult_relin": "cc2aa8da9db33d7d", "rescale": "825a6bf430af94ea",
        "moddown": "11edcdf4e3a48e98", "rotate": "d50de72b75616ec6",
        "mult_plain": "abc0c9a05b3ef78e", "ntt": "7196206f20b1d362",
        "empty": "8f132297b9e4da5f", "logreg": "6a9363bf0a552e6c",
    },
    "set2": {
        "add": "c87613317f864dd2", "sub": "79b79f399e3db974",
        "mult_relin": "b517abb941ee5688", "rescale": "ab850396308e5e6b",
        "moddown": "4fd828ef8e410d92", "rotate": "d76c64db08fdd40b",
        "mult_plain": "0c4b08be246a18de", "ntt": "7196206f20b1d362",
        "empty": "8f132297b9e4da5f", "logreg": "fc7f7e8ffa1a2148",
    },
    "logreg": {
        "add": "c0e0bdb93ceae0a3", "sub": "20a6565fd804532b",
        "mult_relin": "4ed8d96d57493bb7", "rescale": "f48609ac4086e581",
        "moddown": "6ca84b73f4867f5c", "rotate": "d2c77340d81883e1",
        "mult_plain": "8d8edcfa7c29a13e", "ntt": "7196206f20b1d362",
        "empty": "8f132297b9e4da5f", "logreg": "35445e8931350922",
    },
}


@pytest.mark.parametrize("pset_name", sorted(_SIMULATION_DIGESTS))
def test_simulation_reports_pinned(pset_name):
    # totals alone miss cycles moved between pipes, ops or opcodes; these
    # digests cover the per-pipe, per-opcode and per-op splits, the tail of
    # the critical path, the dual-issue comparison and the memory audit
    pset = get_param_set(pset_name)
    assert set(_SIMULATION_DIGESTS[pset_name]) == set(workload_names())
    for name, want in _SIMULATION_DIGESTS[pset_name].items():
        _, prog = _bench_program(pset, name)
        assert _simulation_digest(prog) == want, name


def test_rendezvous_overhead_not_counted_as_instruction_cycles(set1):
    # an op-opening SYNC_CTRL holds both controllers for the dispatch
    # overhead, but the histogram charges barriers no cycles
    _, prog = _bench_program(set1, "add")
    rep = simulate(prog)
    assert rep.op_histogram["SYNC_CTRL"] == {"count": 4, "cycles": 0}
    # the two additions run back to back on the main pipe
    assert rep.total_cycles == CostModel().op_overhead + rep.op_histogram["CWISE"]["cycles"]


def test_sum_of_operands_at_different_scales_rejected(set1, toy_native):
    vals = np.linspace(-1.0, 1.0, toy_native.slots)
    x = toy_native.encrypt(toy_native.encode(vals, set1.scale))
    y = toy_native.encrypt(toy_native.encode(vals, set1.scale * 2))
    prog = compile_workload(set1, [{"op": "add", "x": "x", "y": "y", "out": "out"}])
    with pytest.raises(ArchSimError, match="operand scales differ"):
        execute_workload(toy_native, prog, {"x": x, "y": y})
    assert execute_workload(toy_native, prog, {"x": x, "y": x})["out"].scale == x.scale


def test_replay_without_its_rotation_key_raises_engine_error(toy_set1):
    eng = Engine(toy_set1.base, TOY, "native", seed=5)
    eng.keygen(rotation_steps=(3,))
    ct = eng.encrypt(eng.encode(np.linspace(-1.0, 1.0, eng.slots), toy_set1.scale))
    prog = compile_workload(toy_set1, [{"op": "rotate", "steps": 1, "x": "x", "out": "out"}])
    with pytest.raises(ValueError, match="^no rotation key for step 1$"):
        eng.rotate(ct, 1)
    with pytest.raises(ValueError, match="^no rotation key for step 1$"):
        execute_workload(eng, prog, {"x": ct})


def test_replay_of_another_degree_names_both_degrees(set1):
    # compiled at 2^14, rotate by -1 takes key 8191; the toy engine takes
    # -1 mod its 32 slots, so it holds that rotation's key as step 31
    eng = Engine(set1.base, TOY, "native", seed=5)
    eng.keygen(rotation_steps=(-1,))
    ct = eng.encrypt(eng.encode(np.linspace(-1.0, 1.0, eng.slots), set1.scale))
    assert sorted(eng.rotation_keys) == [31]
    prog = compile_workload(set1, [{"op": "rotate", "steps": -1, "x": "x", "out": "out"}])
    with pytest.raises(ValueError, match="^no rotation key for step 8191; the program is "
                       "compiled for ring degree 16384, the engine's is 64$"):
        execute_workload(eng, prog, {"x": ct})


def test_replay_without_relin_key_raises_engine_error(toy_set1):
    eng = Engine(toy_set1.base, TOY, "native", seed=5)
    eng.keygen()
    ct = eng.encrypt(eng.encode(np.linspace(-1.0, 1.0, eng.slots), toy_set1.scale))
    eng.relin_key = None
    prog = compile_workload(toy_set1, [{"op": "mult_relin", "x": "x", "y": "x", "out": "out"}])
    with pytest.raises(ValueError, match="^keygen before mult_relin$"):
        eng.mult_relin(ct, ct)
    with pytest.raises(ValueError, match="^keygen before mult_relin$"):
        execute_workload(eng, prog, {"x": ct})


def _toy_logreg(pset):
    eng = Engine(pset.base, TOY, pset.mode, seed=7)
    spec = get_workload(pset, "logreg")
    eng.keygen(rotation_steps=spec.rotation_steps)
    variables, _ = spec.build_inputs(eng, 11)
    return eng, compile_workload(pset, spec.ops), variables


def _count_calls(monkeypatch, calls, owners, name):
    """Count into calls[name] every call of `name` made through one of `owners`."""
    calls[name] = 0
    for owner in owners:
        def wrapped(*args, fn=getattr(owner, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, wrapped)


@pytest.mark.parametrize("pset_name", ("logreg", "set2"))
def test_logreg_replay_shares_one_decomposition(pset_name, monkeypatch):
    # the seven rotations of t0 share one decomposition of its c1 limbs,
    # and a limb broadcast back to its own RPAU is not transformed again.
    # Split limbs share decompositions as native ones do, and a split
    # limb's decomposition runs the full-degree transforms that equal its
    # half-ring pairs, so the counts are native logreg's and no split or
    # join runs. Every DYADIC product on every RPAU is one general product
    # (`ModContext.mulmod`), and the companions (`ModContext.shoup`) of the
    # slot value it is taken against are formed once for all the products
    # that read that value before its slot is written again: a key-switch
    # value's two key components, a tensor operand's two terms
    eng, prog, variables = _toy_logreg(get_param_set(pset_name))
    execute_workload(eng, prog, variables)   # builds the twiddle tables, which form companions
    products = values = 0
    for opp in prog.ops:
        formed = set()
        for ins in archsim._exec_order(opp.streams):
            if ins.op == archsim.DYADIC and ins.kind in ("mul", "mac"):
                source = ins.src[0 if ins.src[1][0] == "ksk" else 1][1]
                products += len(ins.rpaus)
                values += sum((r, source) not in formed for r in ins.rpaus)
                formed.update((r, source) for r in ins.rpaus)
            formed.difference_update((r, s) for r in ins.rpaus for s in ins.dst)
    assert values < products
    calls = {}
    for name in ("ntt_forward", "ntt_inverse"):
        _count_calls(monkeypatch, calls, (archsim, ringsplit), name)
    for name in ("split", "join"):
        _count_calls(monkeypatch, calls, (ringsplit,), name)
    for name in ("mulmod", "shoup"):
        _count_calls(monkeypatch, calls, (kernels.ModContext,), name)
    execute_workload(eng, prog, variables)
    assert calls == {"ntt_forward": 239, "ntt_inverse": 67, "split": 0, "join": 0,
                     "mulmod": products, "shoup": values}
    assert not {"split", "join", "forward_pair", "inverse_pair"} & set(vars(archsim))


def test_split_replay_builds_no_half_ring_table(set2, monkeypatch):
    # the executor's only transforms are its decompositions', at full
    # degree, so a split replay needs no plus or minus twiddle table
    eng, prog, variables = _toy_logreg(set2)
    built = []
    init = polyring.TwiddleTable.__init__

    def spy(self, q, n, twist):
        built.append(twist)
        init(self, q, n, twist)

    polyring.twiddle_table.cache_clear()
    monkeypatch.setattr(polyring.TwiddleTable, "__init__", spy)
    execute_workload(eng, prog, variables)
    assert built and set(built) == {polyring.STANDARD}


def test_decomposition_dropped_with_its_variable(logreg_pset, monkeypatch):
    # t0's decomposition is built by r1, reused by r2..r7, and gone once
    # r7, t0's last reader, has run
    eng, prog, variables = _toy_logreg(logreg_pset)
    runs = []
    run = _Executor.run

    def spy(self, opp, state):
        runs.append((opp, dict(self.decomps), dict(state)))
        run(self, opp, state)

    monkeypatch.setattr(_Executor, "run", spy)
    execute_workload(eng, prog, variables)
    rotations = [k for k, (opp, _, _) in enumerate(runs) if opp.kind == "rotate"]
    assert len(rotations) == 7
    opp, _, state = runs[rotations[0]]
    # each operand slot is seeded as an image of its limb
    t0_c1 = [state[(r, slots[0])].d.x for r, slots in opp.inputs["x"]["components"][1]]
    ids = {id(limb) for limb in t0_c1}
    shared = {k: d for k, d in runs[rotations[1]][1].items() if k in ids}
    assert set(shared) == ids
    for k in rotations[1:]:
        assert all(runs[k][1].get(i) is d for i, d in shared.items())
    for _, decomps, _ in runs[rotations[-1] + 1:]:
        assert not ids & set(decomps)


@pytest.mark.parametrize("pset_name, engine", [("set1", "toy_native"), ("set2", "toy_split2")])
def test_replay_releases_state_at_last_reader(request, pset_name, engine, monkeypatch):
    # m = x * y, rotated twice. Once each op has run, no decomposition that
    # a later op does not read holds an evaluation other than its own limb;
    # the second rotation reuses the first one's decomposition of m, and
    # nothing is left registered when the program ends
    eng, pset = request.getfixturevalue(engine), get_param_set(pset_name)
    ops = [{"op": "mult_relin", "x": "x", "y": "y", "out": "m"},
           {"op": "rotate", "steps": 1, "x": "m", "out": "r1"},
           {"op": "rotate", "steps": 1, "x": "m", "out": "r2"}]
    rng = np.random.default_rng(3)
    variables = {
        name: eng.encrypt(eng.encode(rng.uniform(-1.0, 1.0, eng.slots), pset.scale), enc_index=k)
        for k, name in enumerate("xy")
    }
    ends = []
    run = _Executor.run

    def spy(self, opp, state):
        seeded = [state[(r, slots[0])].d for comp in opp.inputs["x"]["components"]
                  for r, slots in comp]
        run(self, opp, state)
        held = {id(v.d): v.d for v in state.values() if isinstance(v, archsim._Image)}
        held.update((id(d), d) for d in self.decomps.values())
        ends.append((self, seeded, list(held.values())))

    monkeypatch.setattr(_Executor, "run", spy)
    result = execute_workload(eng, compile_workload(pset, ops), variables)
    _same_ct(eng, result["r2"], _engine_run(eng, ops, variables)["r2"])
    m_decomps = [id(d) for d in ends[1][1]]
    assert [id(d) for d in ends[2][1]] == m_decomps
    read_later = [set(), set(m_decomps), set()]   # m, after the first rotation
    extra = [sum(q != d.x.q.value for d in held if id(d) not in keep for q in d.evals)
             for (_, _, held), keep in zip(ends, read_later)]
    assert extra == [0, 0, 0]
    assert ends[-1][0].decomps == {}


@pytest.mark.parametrize("pset_name, engine", [("set1", "toy_native"), ("set2", "toy_split2")])
def test_unshared_decomposition_holds_no_lift_after_its_op(request, pset_name, engine,
                                                           monkeypatch):
    # m = x * y, rotated twice. Each op lifts limbs for its key switch and
    # its special-prime drops; once it has run, only the decompositions of
    # m's c1 limbs, which the second rotation shares, still hold a lift
    eng, pset = request.getfixturevalue(engine), get_param_set(pset_name)
    ops = [{"op": "mult_relin", "x": "x", "y": "y", "out": "m"},
           {"op": "rotate", "steps": 1, "x": "m", "out": "r1"},
           {"op": "rotate", "steps": 1, "x": "m", "out": "r2"}]
    rng = np.random.default_rng(3)
    variables = {
        name: eng.encrypt(eng.encode(rng.uniform(-1.0, 1.0, eng.slots), pset.scale), enc_index=k)
        for k, name in enumerate("xy")
    }
    want = _engine_run(eng, ops, variables)["r2"]   # before the spies: the Engine ops replay too
    made, ends, calls = [], [], {}
    init, run = archsim._Decomp.__init__, _Executor.run

    def spy_init(self, x):
        init(self, x)
        made.append(self)

    def spy_run(self, opp, state):
        calls["ntt_inverse"] = 0
        run(self, opp, state)
        ends.append((calls["ntt_inverse"], sum("lift" in vars(d) for d in made)))

    _count_calls(monkeypatch, calls, (archsim,), "ntt_inverse")
    monkeypatch.setattr(archsim._Decomp, "__init__", spy_init)
    monkeypatch.setattr(_Executor, "run", spy_run)
    result = execute_workload(eng, compile_workload(pset, ops), variables)
    _same_ct(eng, result["r2"], want)
    level = len(variables["x"].c1)
    assert [held for _, held in ends] == [0, level, 0]
    assert all(lifts for lifts, _ in ends)


_INPUTS = ("a", "b")
_PT_SCALE = Fraction(1 << 40)   # the scale plaintext operands are encoded at
# A bound on the noise one op adds, and on a fresh encryption's or
# encoding's, in slot units times the scale; at the toy degree a fresh
# encryption measured about 400 and a rotation about 1.5e4 (test_heaan)
_OP_NOISE = 2.0**16


def _error_bounds(pset, ops, levels: dict) -> dict:
    """For each name, a bound on |decrypted - plain_values| from the noise
    each op adds, or None when its plain magnitude and that error, times
    the scale, need not stay below 2^-8 of its level's modulus, so that it
    need not decrypt. `levels` gives each input's level; inputs are
    encrypted at scale 2^40 from slots in [-1, 1], plaintext operands
    encoded at _PT_SCALE from slots in [-1, 1].

    A name carries (magnitude bound m, error bound e, scale s, level): a sum
    adds both, a rotation adds one op's noise, a rescale divides the scale
    by the dropped prime and adds its rounding, and a product of (m1, e1)
    and (m2, e2) has error m1 e2 + m2 e1 + e1 e2 plus one op's noise at
    the product's scale."""
    primes = [m.value for m in pset.base.primes]
    fresh = Fraction(1 << 40)
    b = {name: (1.0, _OP_NOISE / float(fresh), fresh, level) for name, level in levels.items()}
    for op in ops:
        mx, ex, sx, level = b[op["x"]]
        kind = op["op"]
        if kind in ("add", "sub"):
            my, ey, _, _ = b[op["y"]]
            b[op["out"]] = (mx + my, ex + ey, sx, level)
        elif kind == "rotate":
            b[op["out"]] = (mx, ex + _OP_NOISE / float(sx), sx, level)
        elif kind == "rescale":
            s = sx / primes[level - 1]
            b[op["out"]] = (mx, ex + _OP_NOISE / float(s), s, level - 1)
        else:
            my, ey, sy = ((1.0, _OP_NOISE / float(_PT_SCALE), _PT_SCALE) if kind == "mult_plain"
                          else b[op["y"]][:3])
            s = sx * sy
            b[op["out"]] = (mx * my, mx * ey + my * ex + ex * ey + _OP_NOISE / float(s), s, level)
    return {name: e if (m + e) * float(s) * 2**8 < math.prod(primes[:level]) else None
            for name, (m, e, s, level) in b.items()}


def _check_schedule_and_precision(pset, eng, ops, program, plain: dict, result: dict) -> int:
    """The program's schedule is the same on a second simulation, and
    every decryptable ciphertext it returns is within _error_bounds of
    `plain_values`; returns how many were checked."""
    assert simulate(program) == simulate(program)
    want = plain_values(ops, plain)
    levels = {name: eng.base.levels for name in _INPUTS}
    bounds = _error_bounds(pset, ops, levels)
    checked = 0
    for name, value in result.items():
        if isinstance(value, Ciphertext) and bounds[name] is not None:
            err = np.max(np.abs(eng.decrypt(value) - want[name]))
            assert err <= bounds[name] + 2**-30, (name, err, bounds[name])
            checked += 1
    return checked


@st.composite
def _rotate_add_programs(draw):
    """Rotate/add op lists over the inputs a and b and a temporary c; any op
    may write any name, so a name can be rotated, rewritten and rotated
    again, and a rotated value rotated once more."""
    names = list(_INPUTS)
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        x = draw(st.sampled_from(names))
        if draw(st.booleans()):
            op = {"op": "rotate", "steps": draw(st.sampled_from((1, 3))), "x": x}
        else:
            op = {"op": "add", "x": x, "y": draw(st.sampled_from(names))}
        op["out"] = draw(st.sampled_from(_INPUTS + ("c",)))
        names = sorted(set(names) | {op["out"]})
        ops.append(op)
    return ops


@settings(max_examples=30)
@given(ops=_rotate_add_programs())
@example(ops=[  # repeated rotations of one name
    {"op": "rotate", "steps": 1, "x": "a", "out": "c"},
    {"op": "rotate", "steps": 3, "x": "a", "out": "b"},
    {"op": "rotate", "steps": 1, "x": "a", "out": "a"},
])
@example(ops=[  # a rotation of an already rotated value
    {"op": "rotate", "steps": 1, "x": "a", "out": "c"},
    {"op": "rotate", "steps": 3, "x": "c", "out": "c"},
    {"op": "add", "x": "c", "y": "a", "out": "b"},
])
@example(ops=[  # a name rewritten between two rotations of it
    {"op": "rotate", "steps": 1, "x": "a", "out": "c"},
    {"op": "add", "x": "a", "y": "b", "out": "a"},
    {"op": "rotate", "steps": 1, "x": "a", "out": "b"},
    {"op": "add", "x": "b", "y": "c", "out": "c"},
])
def test_rotate_add_programs_match_engine(set1, toy_native, ops):
    eng = toy_native
    rng = np.random.default_rng(17)
    plain = {name: rng.uniform(-1.0, 1.0, eng.slots) for name in _INPUTS}
    variables = {name: eng.encrypt(eng.encode(plain[name], set1.scale), enc_index=k)
                 for k, name in enumerate(_INPUTS)}
    program = compile_workload(set1, ops)
    result = execute_workload(eng, program, variables)
    want = _engine_run(eng, ops, variables)
    assert set(result) <= set(want) and ops[-1]["out"] in result
    for name, value in result.items():
        _same_ct(eng, value, want[name])
    assert _check_schedule_and_precision(set1, eng, ops, program, plain, result) == len(result)


def _mixed_programs(pset, steps):
    """Op lists mixing mult_relin, mult_plain, rescale and sub with rotate and
    add, over the top-level inputs a and b and a temporary c. The strategy
    tracks each name's level and scale and draws only ops whose operands
    agree: a sum reads two names of one level and scale, a product two of
    one level, a plaintext product the plaintext p<level> encoded at its
    operand's level, and a rescale a name above level 1."""
    primes = [m.value for m in pset.base.primes]
    kinds = ("rotate", "add", "sub", "mult_relin", "mult_plain", "rescale")

    @st.composite
    def programs(draw):
        state = {name: (len(primes), Fraction(1 << 40)) for name in _INPUTS}
        ops = []
        for _ in range(draw(st.integers(1, 5))):
            x = draw(st.sampled_from(sorted(state)))
            level, scale = state[x]
            peers = sorted(name for name in state if state[name][0] == level)
            op = {"op": draw(st.sampled_from(kinds if level > 1 else kinds[:-1])),
                  "x": x, "level": level}
            if op["op"] == "rotate":
                op["steps"] = draw(st.sampled_from(steps))
            elif op["op"] in ("add", "sub"):
                op["y"] = draw(st.sampled_from([n for n in peers if state[n][1] == scale]))
            elif op["op"] == "mult_relin":
                op["y"] = draw(st.sampled_from(peers))
                scale *= state[op["y"]][1]
            elif op["op"] == "mult_plain":
                op["pt"] = f"p{level}"
                scale *= _PT_SCALE
            else:
                level, scale = level - 1, scale / primes[level - 1]
            op["out"] = draw(st.sampled_from(_INPUTS + ("c",)))
            state[op["out"]] = (level, scale)
            ops.append(op)
        return ops

    return programs()


def _check_program(pset, eng, ops):
    """Every ciphertext execute_workload returns equals an Engine
    interpretation, and every plaintext is the one supplied; the schedule
    and the precision pass _check_schedule_and_precision."""
    rng = np.random.default_rng(18)
    plain = {name: rng.uniform(-1.0, 1.0, eng.slots) for name in _INPUTS}
    variables = {name: eng.encrypt(eng.encode(plain[name], 1 << 40), enc_index=k)
                 for k, name in enumerate(_INPUTS)}
    plaintexts = {}
    for op in ops:
        if op["op"] == "mult_plain":
            plain[op["pt"]] = rng.uniform(-1.0, 1.0, eng.slots)
            plaintexts[op["pt"]] = eng.encode(plain[op["pt"]], _PT_SCALE, level=op["level"])
    variables.update(plaintexts)
    program = compile_workload(pset, ops)
    result = execute_workload(eng, program, variables)
    want = _engine_run(eng, ops, variables)
    assert set(result) <= set(want) and ops[-1]["out"] in result
    for name, value in result.items():
        if name in plaintexts:
            assert value is plaintexts[name]
        else:
            _same_ct(eng, value, want[name])
    _check_schedule_and_precision(pset, eng, ops, program, plain, result)


_SET1, _SET2 = get_param_set("set1"), get_param_set("set2")


@settings(max_examples=10)
@given(ops=_mixed_programs(_SET1, (1, 3)))
@example(ops=[  # a rescaled product, rotated and subtracted from itself
    {"op": "mult_relin", "x": "a", "y": "b", "level": 7, "out": "c"},
    {"op": "rescale", "x": "c", "level": 7, "out": "c"},
    {"op": "rotate", "steps": 3, "x": "c", "level": 6, "out": "a"},
    {"op": "sub", "x": "c", "y": "a", "level": 6, "out": "b"},
])
@example(ops=[  # a plaintext product below the top level, rotated
    {"op": "rescale", "x": "a", "level": 7, "out": "c"},
    {"op": "mult_plain", "x": "c", "pt": "p6", "level": 6, "out": "c"},
    {"op": "rotate", "steps": 1, "x": "c", "level": 6, "out": "b"},
])
def test_mixed_programs_match_engine_native(set1, toy_native, ops):
    _check_program(set1, toy_native, ops)


@settings(max_examples=10)
@given(ops=_mixed_programs(_SET2, (1,)))
@example(ops=[  # two rescales, then a product and a rotation at the lower level
    {"op": "rescale", "x": "a", "level": 9, "out": "a"},
    {"op": "rescale", "x": "a", "level": 8, "out": "c"},
    {"op": "mult_relin", "x": "c", "y": "c", "level": 7, "out": "b"},
    {"op": "rotate", "steps": 1, "x": "b", "level": 7, "out": "a"},
])
@example(ops=[  # a plaintext product, rescaled and rotated
    {"op": "mult_plain", "x": "a", "pt": "p9", "level": 9, "out": "c"},
    {"op": "rescale", "x": "c", "level": 9, "out": "c"},
    {"op": "rotate", "steps": 1, "x": "c", "level": 8, "out": "b"},
])
def test_mixed_programs_match_engine_split(set2, toy_split2, ops):
    _check_program(set2, toy_split2, ops)


@functools.cache
def _catalog_programs() -> list:
    return [_bench_program(get_param_set(pset_name), name)[1]
            for pset_name in ("set1", "set2", "logreg") for name in workload_names()]


def _single_issue_total(prog, cost) -> int:
    """The single-issue schedule run out in full: every costed instruction
    also holds one global resource, so one runs at a time."""
    resources = archsim._resources
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(archsim, "_resources", lambda ins: resources(ins) + [("serial",)])
        return simulate(prog, cost).total_cycles


_cost_models = st.builds(
    CostModel, **{f.name: st.integers(0, 10_000) for f in fields(CostModel)})


@settings(max_examples=30)
@given(cost=_cost_models, random_program=st.one_of(
    _rotate_add_programs().map(lambda ops: (_SET1, ops)),
    _mixed_programs(_SET1, (1, 3)).map(lambda ops: (_SET1, ops)),
    _mixed_programs(_SET2, (1,)).map(lambda ops: (_SET2, ops)),
))
@example(cost=CostModel(ntt=100, intt=9000, dyadic=10, bcast=5000, op_overhead=7),
         random_program=(_SET2, [{"op": "mult_relin", "x": "a", "y": "b", "out": "c"}]))
@example(cost=CostModel(**{f.name: 0 for f in fields(CostModel)}),  # the path walk once looped
         random_program=(_SET1, [{"op": "rotate", "x": "a", "out": "a"}]))
def test_serial_cycles_equal_a_single_issue_schedule(cost, random_program):
    # one instruction at a time idles only for each op's dispatch overhead,
    # so the report's closed form must equal that schedule's total
    for prog in _catalog_programs() + [compile_workload(*random_program)]:
        rep = simulate(prog, cost)
        assert rep.serial_cycles == _single_issue_total(prog, cost)
        assert rep.total_cycles <= rep.serial_cycles
