"""Exact RNS approximate-arithmetic evaluation with a cycle-true latency model.

The package has two halves that share one instruction vocabulary:

- an evaluation engine (`Engine`) computing over a residue-number-system
  limb basis, each limb one full-degree evaluation vector;
- a deterministic latency model (`archsim`) of the accelerator, whose
  executor runs the compiled instruction streams on real ciphertexts, so
  every simulated schedule is also functionally verifiable. On rings twice
  the hardware size it runs the half-degree datapath.

The engine's homomorphic ops are replays of their compiled one-op
programs through that executor, so each op has one implementation.
"""

from .heaan import Ciphertext, Engine, KeySwitchKey, Plaintext
from .modarith import PrimeModulus, RnsBase, gen_rns_base
from .params import ConfigError, ParamSet, get_param_set, load_param_config, param_set_names
from .polyring import ResiduePoly, ntt_forward, ntt_inverse
from .ringsplit import SplitPair, join, split
from .archsim import (
    ArchSimError,
    CostModel,
    CycleReport,
    DependencyCycleError,
    MachineConfig,
    MemoryBudgetError,
    UnsupportedOpError,
    calibrate_split_move,
    compile_op,
    compile_workload,
    dual_issue_savings,
    execute_workload,
    memory_audit,
    simulate,
)
from .workloads import get_workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "ArchSimError",
    "Ciphertext",
    "ConfigError",
    "CostModel",
    "CycleReport",
    "DependencyCycleError",
    "Engine",
    "KeySwitchKey",
    "MachineConfig",
    "MemoryBudgetError",
    "ParamSet",
    "Plaintext",
    "PrimeModulus",
    "ResiduePoly",
    "RnsBase",
    "SplitPair",
    "UnsupportedOpError",
    "calibrate_split_move",
    "compile_op",
    "compile_workload",
    "dual_issue_savings",
    "execute_workload",
    "gen_rns_base",
    "get_param_set",
    "get_workload",
    "join",
    "load_param_config",
    "memory_audit",
    "ntt_forward",
    "ntt_inverse",
    "param_set_names",
    "simulate",
    "split",
    "workload_names",
    "__version__",
]
