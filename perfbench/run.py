"""Run one workload of the medha benchmark and print its metrics.

    python3 perfbench/run.py --workload logreg --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; medha is imported from its `src/`.
With `--trace 0` the run measures the end-to-end metrics with no wrappers
installed. With `--trace 1` it installs the layer wrappers, reports the
per-layer metrics and writes a Chrome trace to
`.perfbench/trace-<workload>-seed<seed>.json`. The last line of standard
output is always one JSON object: {"correct", "attempted", "failed",
"metrics"}; the line before it carries the environment and other facts
that are recorded but are not metrics.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# single-threaded numerics, pinned before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("logreg", "split-chain"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="length of the closed loop of timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 1 << 32:
        ap.error("--seed must be in [0, 2^32)")
    return args


def import_medha():
    """Put the checkout's src/ first on the path; fail when it is missing."""
    if not (SRC / "medha" / "__init__.py").is_file():
        sys.exit(f"perfbench: no medha sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import medha
    if Path(medha.__file__).resolve().parent != SRC / "medha":
        sys.exit(f"perfbench: imported medha from {medha.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_sha": git_sha(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "medha").glob("*.py"))),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def git_sha():
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def timed_pass(case, idx, checks, rec=None) -> float:
    """Pass `idx` on its generated inputs; wrapped and recorded when `rec` is given."""
    import wrap

    inputs = case.inputs(idx)
    if rec is not None:
        rec.phase = idx
        wrap.install(rec)
    try:
        t0 = time.perf_counter()
        out = case.run_pass(inputs)
        elapsed = time.perf_counter() - t0
    finally:
        if rec is not None:
            wrap.uninstall()
    case.check_pass(idx, out, checks)
    return elapsed


def closed_loop(case, seconds, checks):
    """Passes back to back, at least one, while the next one is expected
    to end within `seconds`: at 25 s, a run of 14 s passes makes one."""
    times = []
    begin = time.perf_counter()
    while not times or time.perf_counter() - begin + statistics.median(times) <= seconds:
        times.append(timed_pass(case, len(times), checks))
    return times


def run_untraced(case, args, checks, t_import):
    import cases

    case.setup(args.seed)
    setup_s = time.perf_counter() - t_import
    if hasattr(case, "check_setup"):
        case.check_setup(checks)
    times = closed_loop(case, args.seconds, checks)
    case.report(checks)
    info = {"pass_s": times, "digests": case.digests, "precision_bits": case.precision,
            "catalog": cases.catalog_check(checks)}
    metrics = {
        "setup_s": (setup_s, "s"),
        "eval_s": (statistics.median(times), "s"),
        "precision_bits": (min(case.precision), "bits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, info


def run_traced(case, args, checks):
    import cases
    import metrics as layer
    import spans
    import wrap

    rec = spans.Recorder()
    wrap.install(rec)
    try:
        case.setup(args.seed)
    finally:
        wrap.uninstall()
    if hasattr(case, "check_setup"):
        case.check_setup(checks)
    # Pass 0 warms up untraced. Then each pass runs untraced and traced on the
    # same inputs: the pair must give the same digest, and the median of the
    # pairwise differences is the tracing overhead.
    timed_pass(case, 0, checks)
    plain, times = [], []
    while not times or sum(times) + statistics.median(times) <= args.seconds:
        idx = len(times) + 1
        plain.append(timed_pass(case, idx, checks))
        times.append(timed_pass(case, idx, checks, rec))
        untraced, traced = case.digests[-2:]
        checks.expect(traced == untraced,
                      f"pass {idx}: traced digest {traced} != untraced {untraced}")
    catalog = cases.catalog_check(checks)   # untraced: the simulator's own speed
    rec.phase = "report"
    wrap.install(rec)
    try:
        case.report(checks)
    finally:
        wrap.uninstall()

    per_phase = spans.phase_totals(rec)
    durations: dict = {}
    for phase, by_name in per_phase["durations"].items():
        if isinstance(phase, int):
            for name, ds in by_name.items():
                durations.setdefault(name, []).extend(ds)
    m = layer.layer_metrics(spans.one_invocation(per_phase["totals"]), durations)
    m["archsim.instr_per_s"] = catalog["instr_per_s"]
    m["trace.overhead_s"] = statistics.median(t - u for t, u in zip(times, plain))
    units = per_layer_units()
    out = {name: (value, units[name]) for name, value in m.items()}
    trace_path = cases.work_root() / f"trace-{args.workload}-seed{args.seed}.json"
    spans.write_chrome_trace(rec, trace_path, {"workload": args.workload, "seed": args.seed})
    info = {"trace": str(trace_path.relative_to(ROOT)), "spans": len(rec.spans),
            "untraced_pass_s": plain, "traced_pass_s": times,
            "zero": layer.zero_reasons(args.workload, m)}
    return out, info


def per_layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    t_import = time.perf_counter()
    import_medha()
    import cases

    checks = cases.Checks()
    case = cases.CASES[args.workload]()
    try:
        if args.trace:
            metrics, info = run_traced(case, args, checks)
        else:
            metrics, info = run_untraced(case, args, checks, t_import)
    finally:
        case.close()
    info["environment"] = environment()
    info["workload"] = args.workload
    info["seed"] = args.seed
    info["failures"] = checks.failures
    info["wall_s"] = time.perf_counter() - T_START
    print(json.dumps({"info": info}))
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
