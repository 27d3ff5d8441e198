"""Wrappers that time medha's layers from outside the package.

`install(rec)` rebinds the public functions of each module to span-recording
wrappers. A function is rebound under every medha module attribute that
holds it, so names another module pulled in with `from ... import` are
covered too. Methods are rebound on their class. `uninstall()` puts every
original object back.

`TriviumStream._step` is deliberately left alone: keygen calls it about
12 million times, and a wrapper there would cost more than it measures.
Scalar helpers (`kernels.shoup`, `kernels.ctx`) are skipped for the same
reason.
"""

from __future__ import annotations

import contextlib
import os
import sys

import numpy as np

_installed: list = []   # (owner, attribute, original)
_recorder = None


def _array_words(objs) -> int:
    return sum(o.size for o in objs if isinstance(o, np.ndarray))


def _count_kernel(rec, args, kwargs, out):
    words = out.size if isinstance(out, np.ndarray) else 0
    rec.count("kernels.words", words)
    rec.count("kernels.bytes", 8 * (_array_words(args) + _array_words(kwargs.values()) + words))


def _count_next_words(rec, args, kwargs, out):
    rec.count("keys.words", len(out))


def _count_file(rec, args, kwargs, out):
    rec.count("serialize.bytes", os.path.getsize(args[0]))


def _count_simulate(rec, args, kwargs, out):
    rec.count("archsim.instructions", out.instruction_count)
    rec.count("archsim.cycles", out.total_cycles)


def _count_dual(rec, args, kwargs, out):
    if out["dual_cycles"] > out["serial_cycles"]:
        rec.count("archsim.dual_above_serial")


def _span(rec, name, fn, after=None):
    def wrapped(*args, **kwargs):
        idx = rec.open(name(args) if callable(name) else name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(rec, args, kwargs, out)
        return out

    wrapped.__wrapped__ = fn
    wrapped.__name__ = getattr(fn, "__name__", "wrapped")
    return wrapped


def _uniform_sampler(rec, fn):
    """sample_uniform_mod, also counting accepted against drawn candidates."""
    inner = _span(rec, "keys.sample_uniform_mod", fn)

    def wrapped(stream, n, q):
        before = rec.counter("keys.words")
        out = inner(stream, n, q)
        rec.count("keys.uniform_drawn", rec.counter("keys.words") - before)
        rec.count("keys.uniform_accepted", n)
        return out

    wrapped.__wrapped__ = fn
    return wrapped


def _medha_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "medha" or name.startswith("medha.")]


def _rebind_function(orig, new) -> None:
    for mod in _medha_modules():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)
                _installed.append((mod, attr, orig))


def _rebind_method(cls, attr, new) -> None:
    _installed.append((cls, attr, cls.__dict__[attr]))
    setattr(cls, attr, new)


def install(rec) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    global _recorder
    if _installed:
        raise RuntimeError("wrappers are already installed")
    from medha import archsim, heaan, kernels, keys, modarith, polyring, ringsplit, serialize

    def fn(mod, attr, name, after=None):
        _rebind_function(getattr(mod, attr), _span(rec, name, getattr(mod, attr), after))

    def meth(cls, attr, name, after=None):
        _rebind_method(cls, attr, _span(rec, name, cls.__dict__[attr], after))

    # L0 kernels
    for attr in ("mulhi64", "mulmod_shoup", "addmod", "submod", "negmod"):
        fn(kernels, attr, f"kernels.{attr}", _count_kernel)
    for attr in ("reduce_word", "reduce_pair", "mulmod", "mulmod_scalar"):
        meth(kernels.ModContext, attr, f"kernels.{attr}", _count_kernel)
    # L1 ring maps
    for attr in ("ntt_forward", "ntt_inverse", "dyadic", "scalar_mul",
                 "automorphism", "automorphism_coeff"):
        fn(polyring, attr, f"polyring.{attr}")
    meth(polyring.TwiddleTable, "__init__", "polyring.twiddle_build")
    for attr in ("split", "join", "forward_pair", "inverse_pair"):
        fn(ringsplit, attr, f"ringsplit.{attr}")
    # L2 randomness
    fn(keys, "stream_for", "keys.stream_for")
    meth(keys.TriviumStream, "next_words", "keys.next_words", _count_next_words)
    for attr in ("sample_ternary", "sample_gaussian", "gen_secret"):
        fn(keys, attr, f"keys.{attr}")
    orig = keys.sample_uniform_mod
    _rebind_function(orig, _uniform_sampler(rec, orig))
    # L3 scheme
    fn(modarith, "gen_rns_base", "params.gen_rns_base")
    for attr in ("keygen", "gen_rotation_keys", "encode", "decode", "encrypt",
                 "decrypt", "decrypt_to_centered", "add", "sub", "add_plain",
                 "mult_plain", "mult_relin", "rescale", "rotate"):
        meth(heaan.Engine, attr, f"heaan.{attr}")
    for attr in ("save_ksk", "load_ksk", "save_ciphertext", "load_ciphertext"):
        fn(serialize, attr, f"serialize.{attr}", _count_file)
    # L4 simulator and executor
    fn(archsim, "compile_workload", "archsim.compile_workload")
    fn(archsim, "simulate", "archsim.simulate", _count_simulate)
    fn(archsim, "dual_issue_savings", "archsim.dual_issue_savings", _count_dual)
    fn(archsim, "memory_audit", "archsim.memory_audit")
    fn(archsim, "execute_workload", "archsim.execute_workload")
    meth(archsim._Executor, "run", lambda args: f"archsim.exec.{args[1].kind}")
    _recorder = rec


def uninstall() -> None:
    global _recorder
    while _installed:
        owner, attr, orig = _installed.pop()
        setattr(owner, attr, orig)
    _recorder = None


@contextlib.contextmanager
def span(name: str):
    """A span around a call made by the benchmark itself; free when off."""
    if _recorder is None:
        yield
        return
    idx = _recorder.open(name)
    try:
        yield
    finally:
        _recorder.close(idx)
