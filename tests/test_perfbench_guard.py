"""The benchmark's layer wrappers still find every medha name they wrap.

`perfbench/wrap.py` looks names up with `getattr` and `cls.__dict__`, so a
renamed or deleted function would break only traced benchmark runs. This
installs the wrappers once with a recorder that keeps nothing.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class _NullRecorder:
    def open(self, name):
        return 0

    def close(self, idx):
        pass

    def count(self, name, amount=1):
        pass

    def counter(self, name):
        return 0


@pytest.fixture
def wrap(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import wrap

    yield wrap
    sys.modules.pop("wrap", None)


def test_benchmark_wrappers_install_and_uninstall(wrap):
    from medha import archsim, heaan, kernels, keys, polyring, ringsplit

    run = archsim._Executor.__dict__["run"]
    # the names whose code the Trivium, key-switch and transform rewrites replaced
    rewritten = [
        (keys.TriviumStream, "next_words"),
        (keys, "sample_gaussian"),
        (kernels.ModContext, "mulmod"),
        (polyring, "ntt_forward"),
    ]
    originals = [vars(owner)[attr] for owner, attr in rewritten]
    wrap.install(_NullRecorder())
    try:
        assert wrap._installed
        assert archsim._Executor.__dict__["run"].__wrapped__ is run
        assert ringsplit.forward_pair.__wrapped__ is not None
        assert heaan.Engine.__dict__["decrypt_to_centered"].__wrapped__ is not None
        for (owner, attr), orig in zip(rewritten, originals):
            assert vars(owner)[attr].__wrapped__ is orig, attr
    finally:
        wrap.uninstall()
    assert not wrap._installed
    assert archsim._Executor.__dict__["run"] is run
