"""Tests of the benchmark's own code; run with `python3 -m pytest perfbench -q`."""

import json
import re
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import cases  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import wrap  # noqa: E402
from medha import heaan, kernels, keys, polyring  # noqa: E402
from medha.params import get_param_set  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_on_nested_spans():
    # a [0, 100] holds b [10, 40] and c [50, 90]; b holds d [20, 30]
    s = [
        ("a", 0, 100, -1, "setup"),
        ("b", 10, 40, 0, "setup"),
        ("d", 20, 30, 1, "setup"),
        ("c", 50, 90, 0, "setup"),
    ]
    assert spans.self_times(s) == [30, 20, 10, 40]


def test_one_invocation_is_setup_plus_median_pass_plus_report():
    rec = spans.Recorder()
    rec.spans = [
        ("x", 0, 5_000_000_000, -1, "setup"),
        ("x", 0, 1_000_000_000, -1, 0),
        ("x", 0, 3_000_000_000, -1, 1),
        ("x", 0, 2_000_000_000, -1, 2),
        ("x", 0, 500_000_000, -1, "report"),
    ]
    totals = spans.phase_totals(rec)["totals"]
    one = spans.one_invocation(totals)
    assert one["incl:x"] == 5 + 2 + 0.5
    assert one["n:x"] == 3


def test_recorder_nests_and_counts():
    rec = spans.Recorder()
    outer = rec.open("outer")
    inner = rec.open("inner")
    rec.count("words", 7)
    rec.close(inner)
    rec.close(outer)
    assert [s[3] for s in rec.spans] == [-1, 0]
    assert rec.counters[("setup", "words")] == 7
    assert all(s >= 0 for s in spans.self_times(rec.spans))


def test_metric_names():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    produced = set(metrics.layer_metrics({}, {})) | {"archsim.instr_per_s", "trace.overhead_s"}
    assert produced == {m["name"] for m in BENCH["per_layer"]}


def test_tail_keeps_ten_samples_beyond():
    assert metrics.tail([]) == (0.0, 0.0)
    assert metrics.tail(list(range(10))) == (4.5, 50.0)
    value, pct = metrics.tail([float(i) for i in range(1, 101)])
    assert (value, pct) == (90.0, 90)


def _toy_outputs():
    """Digests and decrypted slots of a few ops on toy engines, both layouts."""
    base = get_param_set("set1").base
    rng = np.random.default_rng(3)
    out = []
    for mode in ("native", "split"):
        eng = heaan.Engine(base, 64, mode, seed=5)
        eng.keygen(rotation_steps=(1,))
        x = eng.encrypt(eng.encode(rng.random(eng.slots) - 0.5, 1 << 40))
        y = eng.encrypt(eng.encode(rng.random(eng.slots) - 0.5, eng.drop_scale(base.levels)),
                        enc_index=1)
        prod = eng.rescale(eng.mult_relin(x, y))
        rot = eng.rotate(eng.add(prod, prod), 1)
        out.append((cases.ct_digest(prod), cases.ct_digest(rot), eng.decrypt(rot).tobytes()))
    return out


def test_wrappers_leave_outputs_unchanged():
    originals = [
        (keys, "sample_uniform_mod", keys.sample_uniform_mod),
        (heaan, "sample_uniform_mod", heaan.sample_uniform_mod),
        (polyring, "addmod", polyring.addmod),
        (kernels.ModContext, "mulmod", kernels.ModContext.__dict__["mulmod"]),
        (keys.TriviumStream, "next_words", keys.TriviumStream.__dict__["next_words"]),
        (heaan.Engine, "encrypt", heaan.Engine.__dict__["encrypt"]),
    ]
    before = _toy_outputs()
    rec = spans.Recorder()
    wrap.install(rec)
    try:
        during = _toy_outputs()
    finally:
        wrap.uninstall()
    after = _toy_outputs()
    assert before == during == after
    for owner, attr, orig in originals:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is orig, attr
    names = {s[0] for s in rec.spans}
    for expected in ("heaan.keygen", "heaan.rotate", "keys.next_words",
                     "kernels.mulmod", "polyring.ntt_forward", "ringsplit.split"):
        assert expected in names
