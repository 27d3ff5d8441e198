"""Per-layer metrics derived from a traced run's spans and counters.

Count and time metrics describe one command-line invocation: set-up, plus
the median pass, plus the `--simulate` report where the workload has one
(see `spans.one_invocation`). Per-call latencies (`*_ms`) are medians over
every call made during the timed passes. Metric names are the ones listed
under "per_layer" in BENCHMARK.json.
"""

from __future__ import annotations

import math
import statistics

OPS = ("add", "mult_plain", "mult_relin", "rescale", "rotate")
SAMPLERS = ("keys.sample_uniform_mod", "keys.sample_gaussian", "keys.sample_ternary",
            "keys.gen_secret")
POLY_GROUPS = {
    "ntt": ("polyring.ntt_forward", "polyring.ntt_inverse"),
    "dyadic": ("polyring.dyadic", "polyring.scalar_mul"),
    "automorphism": ("polyring.automorphism", "polyring.automorphism_coeff"),
}
TAIL_PERCENTILES = (99, 90, 75, 50)

# Why a metric may read 0, by metric-name prefix: on every workload, then
# per workload.
ZERO_ALWAYS = {
    "archsim.dual_above_serial": "no program took longer with dual issue than serially",
}
ZERO_REASONS = {
    "logreg": {
        "ringsplit.": "native layout: nothing is split or joined",
        "serialize.": "keys are generated, never written or read",
    },
    "split-chain": {
        "op.add": "the chain has no additions",
        "op.mult_plain": "the chain has no plaintext products",
        "op.rotate": "the chain has no rotations",
        "polyring.automorphism": "the chain has no rotations",
        "archsim.execute": "ops run through the Engine, not the executor",
        "workloads.": "the benchmark builds the chain inputs itself",
    },
}


def tail(durations: list) -> tuple[float, float]:
    """(value, percentile) of the highest listed percentile that has at
    least ten samples beyond it; the median when there are fewer than 20."""
    xs = sorted(durations)
    n = len(xs)
    if not n:
        return 0.0, 0.0
    pct = next((p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10), 50)
    if pct == 50:
        return statistics.median(xs), 50.0
    return xs[math.ceil(pct / 100 * n) - 1], float(pct)


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(one: dict, pass_durations: dict) -> dict:
    """`one`: flat totals of one invocation (see spans.one_invocation).
    `pass_durations`: span name -> every duration seen in the timed passes."""

    def total(kind: str, names) -> float:
        return sum(one.get(f"{kind}:{n}", 0.0) for n in names)

    def prefixed(kind: str, prefix: str) -> float:
        return sum(v for k, v in one.items() if k.startswith(f"{kind}:{prefix}"))

    def ms(names) -> list:
        return [1e3 * d for n in names for d in pass_durations.get(n, ())]

    drawn = one.get("ctr:keys.uniform_drawn", 0.0)
    m = {
        "keys.streams": total("n", ["keys.stream_for"]),
        "keys.words": one.get("ctr:keys.words", 0.0),
        "keys.keystream_s": total("incl", ["keys.next_words", "keys.stream_for"]),
        "keys.sample_s": total("self", SAMPLERS),
        "keys.uniform_accept": one.get("ctr:keys.uniform_accepted", 0.0) / drawn if drawn else 0.0,
        "kernels.calls": prefixed("n", "kernels."),
        "kernels.words": one.get("ctr:kernels.words", 0.0),
        "kernels.bytes": one.get("ctr:kernels.bytes", 0.0),
        "kernels.self_s": prefixed("self", "kernels."),
    }
    for group, names in POLY_GROUPS.items():
        m[f"polyring.{group}.calls"] = total("n", names)
        m[f"polyring.{group}.self_s"] = total("self", names)
    m["polyring.twiddle_s"] = total("incl", ["polyring.twiddle_build"])
    m["ringsplit.calls"] = prefixed("n", "ringsplit.")
    m["ringsplit.self_s"] = prefixed("self", "ringsplit.")
    m["heaan.keygen_s"] = total("incl", ["heaan.keygen"])
    for what in ("encode", "encrypt", "decrypt"):
        m[f"heaan.{what}_ms"] = _median(ms([f"heaan.{what}"]))
    m["heaan.self_s"] = prefixed("self", "heaan.")
    for op in OPS:
        samples = ms([f"heaan.{op}", f"archsim.exec.{op}"])
        value, pct = tail(samples)
        m[f"op.{op}_ms"] = _median(samples)
        m[f"op.{op}_tail_ms"] = value
        m[f"op.{op}_tail_pct"] = pct
        m[f"op.{op}_n"] = float(len(samples))
    m["serialize.save_ksk_s"] = total("incl", ["serialize.save_ksk"])
    m["serialize.load_ksk_s"] = total("incl", ["serialize.load_ksk"])
    m["serialize.ct_roundtrip_ms"] = 1e3 * total(
        "incl", ["serialize.save_ciphertext", "serialize.load_ciphertext"])
    m["serialize.bytes"] = one.get("ctr:serialize.bytes", 0.0)
    m["archsim.compile_s"] = total("incl", ["archsim.compile_workload"])
    m["archsim.simulate_s"] = total("incl", ["archsim.simulate"])
    m["archsim.dual_issue_s"] = total("incl", ["archsim.dual_issue_savings"])
    m["archsim.programs"] = total("n", ["archsim.compile_workload"])
    m["archsim.instructions"] = one.get("ctr:archsim.instructions", 0.0)
    m["archsim.sim_cycles"] = one.get("ctr:archsim.cycles", 0.0)
    m["archsim.dual_above_serial"] = one.get("ctr:archsim.dual_above_serial", 0.0)
    m["archsim.execute_s"] = total("incl", ["archsim.execute_workload"])
    m["archsim.execute.self_s"] = (total("self", ["archsim.execute_workload"])
                                   + prefixed("self", "archsim.exec."))
    m["params.base_gen_s"] = total("incl", ["params.gen_rns_base"])
    m["workloads.build_inputs_s"] = total("incl", ["workloads.build_inputs"])
    return m


def zero_reasons(workload: str, metrics: dict) -> dict:
    """For each metric reading 0, the reason it is expected to."""
    table = {**ZERO_ALWAYS, **ZERO_REASONS.get(workload, {})}
    out = {}
    for name, value in metrics.items():
        if value == 0:
            out[name] = next((why for prefix, why in table.items()
                              if name.startswith(prefix)), "unexpected")
    return out
