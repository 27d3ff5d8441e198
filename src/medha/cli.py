"""Command-line front end: run a workload, optionally simulate its cost.

The functional result is always computed; `--simulate` only adds the
cycle model to the report. Reports are deterministic byte for byte for a
fixed (configuration, seed) pair: stable key order, no timestamps, and
integer-derived floats only.

Exit codes: 0 success, 2 configuration error (including a key directory
or report path that cannot be used), 3 unsupported operation or
workload, 4 serialization version or fingerprint mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .archsim import (
    ArchSimError,
    CostModel,
    MachineConfig,
    UnsupportedOpError,
    calibrate_split_move,
    compile_workload,
    execute_workload,
    memory_audit,
    simulate,
)
from .heaan import RELIN_KSK_ID, Engine
from .params import (
    ConfigError,
    ParamSet,
    get_param_set,
    load_param_config,
    param_set_names,
    valid_clock,
)
from .serialize import SerializationError, read_ksk, save_ksk
from .workloads import get_workload, workload_names


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"{value} is outside [0, 2^64)")
    return value


def _clock(text: str) -> float:
    value = float(text)
    if not valid_clock(value):
        raise argparse.ArgumentTypeError(f"{text} is not a finite clock rate above 0")
    return value


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="medha",
        description="evaluate a homomorphic workload and model its latency",
    )
    ap.add_argument("--param-set", default="set1", choices=param_set_names(),
                    help="built-in parameter set")
    ap.add_argument("--config", type=Path, default=None,
                    help="JSON parameter configuration (overrides --param-set)")
    ap.add_argument("--workload", default="mult_relin",
                    help=f"one of: {', '.join(workload_names())}")
    ap.add_argument("--seed", type=_seed, default=0,
                    help="expansion and data seed, in [0, 2^64)")
    ap.add_argument("--simulate", action="store_true",
                    help="attach the cycle-model report")
    ap.add_argument("--clock-mhz", type=_clock, default=None,
                    help="override the modeled clock")
    ap.add_argument("--calibrate-costs", type=Path, default=None,
                    help="JSON with a measured set2_add_cycles total")
    ap.add_argument("--keys", type=Path, default=None,
                    help="directory of persisted key-switch keys")
    ap.add_argument("--report", type=Path, default=None,
                    help="write the report here instead of stdout")
    ap.add_argument("--format", dest="fmt", default="json",
                    choices=("json", "csv", "table"))
    return ap


def _load_cost_model(path: Path | None) -> CostModel:
    cost = CostModel()
    if path is None:
        return cost
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read calibration file: {e}") from e
    if not isinstance(raw, dict) or "set2_add_cycles" not in raw:
        raise ConfigError("calibration file must carry set2_add_cycles")
    target = raw["set2_add_cycles"]
    if isinstance(target, bool) or not isinstance(target, int) or target <= 0:
        raise ConfigError("set2_add_cycles must be a positive integer")
    try:
        cost.split_move_cycles = calibrate_split_move(cost, target)
    except ArchSimError as e:
        raise ConfigError(f"set2_add_cycles {target}: {e}") from e
    return cost


def _sync_keys(engine: Engine, pset: ParamSet, directory: Path, steps) -> dict:
    """Keygen that keeps the secret halves found in `directory`, saving the rest."""
    directory.mkdir(parents=True, exist_ok=True)
    info = {"directory": str(directory), "loaded": [], "saved": []}
    stored, missing = {}, []
    for fname, ksk_id in [("relin.ksk", RELIN_KSK_ID)] + [(f"rot{s}.ksk", s) for s in steps]:
        path = directory / fname
        if not path.exists():
            missing.append((path, ksk_id))
            continue
        file_id, stored[ksk_id] = read_ksk(path, engine, pset)
        if file_id != ksk_id:
            raise SerializationError(f"{path} holds key id {file_id}, expected {ksk_id}")
        info["loaded"].append(fname)
    engine.keygen(rotation_steps=steps, stored=stored)
    for path, ksk_id in missing:
        save_ksk(path, engine.switching_key(ksk_id), engine, pset)
        info["saved"].append(path.name)
    return info


def _run(args) -> dict:
    sim_only = (("--clock-mhz", args.clock_mhz), ("--calibrate-costs", args.calibrate_costs))
    for flag, value in sim_only:
        if value is not None and not args.simulate:
            raise ConfigError(f"{flag} takes effect only with --simulate")
    pset = load_param_config(args.config) if args.config else get_param_set(args.param_set)
    cost = _load_cost_model(args.calibrate_costs)
    clock = pset.clock_mhz if args.clock_mhz is None else args.clock_mhz
    machine = MachineConfig(clock_mhz=clock)
    wl = get_workload(pset, args.workload)
    program = compile_workload(pset, wl.ops, machine=machine)

    engine = Engine(pset.base, pset.degree, pset.mode, seed=args.seed)
    keys_info = None
    if args.keys is None:
        engine.keygen(rotation_steps=wl.rotation_steps)
    else:
        try:
            keys_info = _sync_keys(engine, pset, args.keys, wl.rotation_steps)
        except OSError as e:
            raise ConfigError(f"cannot use key directory {args.keys}: {e}") from e

    functional = {"executed": False, "output_var": wl.output_var,
                  "max_rel_error": None, "output_level": None}
    if wl.build_inputs is not None:
        variables, expected = wl.build_inputs(engine, args.seed)
        result = execute_workload(engine, program, variables)
        out = result[wl.output_var]
        functional["executed"] = True
        functional["output_level"] = out.level
        got = engine.decrypt(out).real
        denom = max(float(np.max(np.abs(expected))), 1e-30)
        functional["max_rel_error"] = float(np.max(np.abs(got - expected)) / denom)

    report = {
        "tool": "medha",
        "version": __version__,
        "param_set": {
            "name": pset.name,
            "degree": pset.degree,
            "mode": pset.mode,
            "levels": pset.levels,
            "scale_bits": pset.scale_bits,
            "fingerprint": pset.param_hash().hex(),
        },
        "workload": wl.name,
        "seed": args.seed,
        "functional": functional,
    }
    if keys_info is not None:
        report["keys"] = keys_info
    if args.simulate:
        r = simulate(program, cost)
        report["simulation"] = {
            "clock_mhz": machine.clock_mhz,
            "total_cycles": r.total_cycles,
            "latency_us": r.latency_us,
            "instruction_count": r.instruction_count,
            "per_pipe_busy": {k: r.per_pipe_busy[k] for k in sorted(r.per_pipe_busy)},
            "op_histogram": {
                k: r.op_histogram[k] for k in sorted(r.op_histogram)
            },
            "per_op": r.per_op,
            "memory": memory_audit(program),
            "dual_issue": r.dual_issue,
            "cost_model": {
                "split_move_cycles": cost.split_move_cycles,
                "op_overhead": cost.op_overhead,
            },
            "critical_path_head": r.critical_path,
        }
    return report


def _flatten(prefix: str, obj, rows: list):
    if isinstance(obj, dict):
        for k in obj:
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, obj))


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.9g}"
    if v is None:
        return ""
    return str(v)


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    rows: list = []
    _flatten("", report, rows)
    if fmt == "csv":
        return "".join(f"{k},{_fmt_value(v)}\n" for k, v in rows)
    width = max(len(k) for k, _ in rows)
    return "".join(f"{k:<{width}}  {_fmt_value(v)}\n" for k, v in rows)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report = _run(args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except UnsupportedOpError as e:
        print(f"unsupported operation: {e}", file=sys.stderr)
        return 3
    except SerializationError as e:
        print(f"serialization error: {e}", file=sys.stderr)
        return 4
    text = _render(report, args.fmt)
    if args.report is not None:
        try:
            args.report.write_bytes(text.encode())
        except OSError as e:
            print(f"cannot write report: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
