"""Parameter presets tying together ring degree, RNS base and layout.

A parameter set fixes everything the evaluation engine and the latency
model need to agree on: the ciphertext ring degree, whether that ring is
handled natively or as two half-degree cofactor rings, the modulus chain,
the encoding scale and the noise width. Presets mirror the two hardware
profiles (degree 2^14 native, degree 2^15 split over 2^14 hardware) plus
the smaller base used by the regression workload.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .keys import GAUSS_SIGMA
from .modarith import RnsBase, gen_rns_base

HW_DEGREE = 1 << 14  # transform size the arithmetic units are built for


class ConfigError(ValueError):
    """Raised for malformed or inconsistent parameter configuration."""


def valid_clock(mhz) -> bool:
    """A clock rate is a finite number above 0; a bool is not a number here."""
    return (isinstance(mhz, (int, float)) and not isinstance(mhz, bool)
            and math.isfinite(mhz) and mhz > 0)


@dataclass(frozen=True)
class ParamSet:
    name: str
    degree: int          # ciphertext ring degree
    log_pq: int          # total modulus bits including the special prime
    mode: str            # "native" or "split"
    scale_bits: int = 40
    clock_mhz: float = 200.0
    base: RnsBase = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        for key, kind in (("name", str), ("mode", str), ("degree", int), ("log_pq", int),
                          ("scale_bits", int)):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{key} must be of type {kind.__name__}, got {value!r}")
        if self.mode not in ("native", "split"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.scale_bits < 1:
            raise ConfigError(f"scale_bits must be an integer >= 1, got {self.scale_bits!r}")
        if not valid_clock(self.clock_mhz):
            raise ConfigError(f"clock_mhz must be a finite number > 0, got {self.clock_mhz!r}")
        object.__setattr__(self, "clock_mhz", float(self.clock_mhz))
        if self.degree & (self.degree - 1) or self.degree < 16:
            raise ConfigError("degree must be a power of two >= 16")
        if self.hw_degree > HW_DEGREE:
            raise ConfigError(
                f"{self.mode} mode needs {self.hw_degree}-point transforms; "
                f"the hardware supports at most {HW_DEGREE}"
            )
        if self.base is None:
            object.__setattr__(self, "base", gen_rns_base(self.log_pq, self.degree))

    @property
    def hw_degree(self) -> int:
        return self.degree // 2 if self.mode == "split" else self.degree

    @property
    def levels(self) -> int:
        return self.base.levels

    @property
    def slots(self) -> int:
        return self.degree // 2

    @property
    def scale(self) -> Fraction:
        return Fraction(1 << self.scale_bits)

    def param_hash(self) -> bytes:
        """8-byte digest over everything that affects ciphertext bits."""
        doc = {
            "degree": self.degree,
            "mode": self.mode,
            "moduli": [m.value for m in self.base.all_moduli],
            "scale_bits": self.scale_bits,
            "sigma": GAUSS_SIGMA,  # the only width the error sampler draws
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).digest()[:8]


_PRESETS = {
    "set1": dict(degree=1 << 14, log_pq=438, mode="native"),
    "set2": dict(degree=1 << 15, log_pq=546, mode="split"),
    "logreg": dict(degree=1 << 14, log_pq=384, mode="native"),
}

@functools.cache
def get_param_set(name: str) -> ParamSet:
    if name not in _PRESETS:
        raise ConfigError(
            f"unknown parameter set {name!r}; choose from {sorted(_PRESETS)}"
        )
    return ParamSet(name=name, **_PRESETS[name])


def param_set_names() -> list[str]:
    return sorted(_PRESETS)


_CONFIG_KEYS = {
    "name", "degree", "log_pq", "mode", "scale_bits", "sigma", "clock_mhz",
    "param_set",
}


def load_param_config(path: str) -> ParamSet:
    """Read a parameter set from a JSON file.

    The file may either point at a preset ({"param_set": "set1"}, with
    optional overrides for scale_bits/clock_mhz) or spell out a full set
    (degree, log_pq, mode, ...). Either may say "sigma", but only with the
    sampler's width, GAUSS_SIGMA.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        if float(doc.get("sigma", GAUSS_SIGMA)) != GAUSS_SIGMA:
            raise ConfigError(
                f"sigma {doc['sigma']!r} is not supported; errors are sampled at {GAUSS_SIGMA}"
            )
        if "param_set" in doc:
            ref = get_param_set(doc["param_set"])
            overrides = {k: doc[k] for k in ("scale_bits", "clock_mhz") if k in doc}
            extra = set(doc) - {"param_set", "sigma", *overrides}
            if extra:
                raise ConfigError(
                    f"preset reference allows only tuning overrides, got {sorted(extra)}"
                )
            return replace(ref, **overrides)
        missing = {"name", "degree", "log_pq", "mode"} - set(doc)
        if missing:
            raise ConfigError(f"config missing keys: {sorted(missing)}")
        return ParamSet(**{k: doc[k] for k in _CONFIG_KEYS - {"sigma", "param_set"} if k in doc})
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad config value: {e}") from e
