"""Prime moduli, modular field ops, and RNS base construction.

Scalar arithmetic uses Python integers (exact); every bulk reduction for the
same primes runs in kernels.py. Sparse primes close to a power of two carry
their shift-add term list (`reduction_kind`), which `reduce_sparse` applies
with shifts and adds only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# 60-bit sparse prime used as q_0 in the standard profiles.
Q0_SPARSE = (1 << 59) + (1 << 25) + (1 << 22) - (1 << 20) + 1


def _first_primes(k: int) -> tuple[int, ...]:
    ps: list[int] = []
    n = 2
    while len(ps) < k:
        if all(n % p for p in ps if p * p <= n):
            ps.append(n)
        n += 1
    return tuple(ps)


_MR_BASES = _first_primes(64)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first 64 primes as bases (deterministic)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def signed_power_terms(n: int) -> tuple[tuple[int, int], ...]:
    """Non-adjacent form of n as ((sign, exponent), ...), low to high."""
    terms: list[tuple[int, int]] = []
    e = 0
    while n:
        if n & 1:
            d = 2 - (n & 3)  # +1 when n % 4 == 1, else -1
            terms.append((d, e))
            n -= d
        n >>= 1
        e += 1
    return tuple(terms)


def _sparse_kind(q: int) -> Optional[tuple[tuple[int, int], ...]]:
    """Shift-add term list when q has usable sparse structure, else None."""
    terms = signed_power_terms(q)
    if len(terms) > 6 or not terms:
        return None
    top_sign, top_exp = terms[-1]
    if top_sign != 1:
        return None
    rest = terms[:-1]
    if rest and top_exp - rest[-1][1] < 8:
        return None  # no gap: substitution would not shrink the value
    return terms


def reduce_sparse(x: int, q: int, terms: tuple[tuple[int, int], ...]) -> int:
    """x mod q by recursive substitution 2^top = -(tail) mod q.

    Only shifts, adds and subtracts. Exact for any nonnegative x.
    """
    top_exp = terms[-1][1]
    tail = terms[:-1]
    mask = (1 << top_exp) - 1
    # each round knocks top bits down through the gap; sign can go negative
    while x >= q or x < 0:
        hi = x >> top_exp
        if hi == 0 and 0 <= x < q:
            break
        if hi == 0:
            x += q
            continue
        lo = x & mask
        acc = 0
        for s, e in tail:
            acc += (hi << e) if s > 0 else -(hi << e)
        x = lo - acc
    return x


@dataclass(frozen=True)
class PrimeModulus:
    """An NTT-friendly prime with its reduction strategy."""

    value: int
    bit_width: int
    reduction_kind: Optional[tuple[tuple[int, int], ...]]

    @classmethod
    def from_value(cls, q: int) -> "PrimeModulus":
        if not is_probable_prime(q):
            raise ValueError(f"{q} is not prime")
        return cls(value=q, bit_width=q.bit_length(), reduction_kind=_sparse_kind(q))


def inv_mod(a: int, q: int) -> int:
    a %= q
    if a == 0:
        raise ZeroDivisionError("no inverse of 0")
    return pow(a, q - 2, q)


def find_root_of_unity(q: int, order: int) -> int:
    """Deterministic primitive root of unity of power-of-two order mod q."""
    if order & (order - 1):
        raise ValueError("order must be a power of two")
    if (q - 1) % order:
        raise ValueError(f"{order} does not divide {q}-1")
    if order == 1:
        return 1
    x = 2
    while pow(x, (q - 1) // 2, q) != q - 1:
        x += 1
    root = pow(x, (q - 1) // order, q)
    # x is a nonresidue, so root^(order/2) = x^((q-1)/2) = -1: order is exact
    assert order == 2 or pow(root, order // 2, q) == q - 1
    return root


class RnsBase:
    """Ordered prime basis q_0..q_{L-1} plus the special prime p.

    Level l uses limbs q_0..q_{l-1}; key-switching transiently extends a
    level with the special prime. Precomputes the cross-modulus constants
    that base conversion, rescaling and key generation need.
    """

    def __init__(self, primes: list[PrimeModulus], special: PrimeModulus):
        values = [m.value for m in primes] + [special.value]
        if len(set(values)) != len(values):
            raise ValueError("duplicate primes in base")
        self.primes = tuple(primes)
        self.special = special
        self.levels = len(primes)
        self.all_moduli = self.primes + (special,)
        # inv[i][j]: all_moduli[i]^-1 mod all_moduli[j]
        n = len(self.all_moduli)
        self.inv = [
            [
                0 if i == j else inv_mod(self.all_moduli[i].value, self.all_moduli[j].value)
                for j in range(n)
            ]
            for i in range(n)
        ]
        q_big = math.prod(m.value for m in self.primes)
        # [p * (Q/q_i) * ((Q/q_i)^-1 mod q_i)] mod q_j for every limb j incl. p
        self.p_qtilde: list[list[int]] = []
        for i, m in enumerate(self.primes):
            qi_hat = q_big // m.value
            factor = self.special.value * qi_hat * inv_mod(qi_hat, m.value)
            self.p_qtilde.append([factor % d.value for d in self.all_moduli])

    def level_moduli(self, level: int) -> tuple[PrimeModulus, ...]:
        if not (1 <= level <= self.levels):
            raise ValueError(f"level {level} out of range 1..{self.levels}")
        return self.primes[:level]

    @property
    def total_bits(self) -> int:
        return sum(m.bit_width for m in self.all_moduli)


def _sparse_candidates_54(step: int):
    """Deterministic stream of sparse 54-bit candidates q = 2^53 +- ... + 1.

    Tail exponents stay at or above log2(step) so q - 1 keeps the required
    power-of-two factor. Two-term tails come before three-term tails; within
    a group the enumeration is by ascending exponent, + before -.
    """
    lo = step.bit_length() - 1
    top = 1 << 53
    for e1 in range(lo, 46):  # 53 - e1 >= 8 keeps the substitution gap
        for s1 in (1, -1):
            yield top + s1 * (1 << e1) + 1
    for e1 in range(lo, 46):
        for s1 in (1, -1):
            for e2 in range(lo, e1):
                for s2 in (1, -1):
                    yield top + s1 * (1 << e1) + s2 * (1 << e2) + 1


def gen_rns_base(log_pq: int, n_hw: int) -> RnsBase:
    """Standard-profile base: one 60-bit prime plus L 54-bit primes.

    All primes satisfy q = 1 (mod 4*n_hw) and, like q_0, are chosen close
    to a power of two so word reduction is a short shift-add chain. The
    last generated 54-bit prime becomes the special prime.
    """
    if (log_pq - 60) % 54:
        raise ValueError(f"log_pq {log_pq} is not of the form 60 + 54*L")
    big_l = (log_pq - 60) // 54
    if big_l < 1:
        raise ValueError("need at least one 54-bit prime")
    step = 4 * n_hw
    if (Q0_SPARSE - 1) % step == 0:
        q0 = PrimeModulus.from_value(Q0_SPARSE)
    else:
        q0 = PrimeModulus.from_value(_search_prime(60, step, exclude=set()))
    taken = {q0.value}
    gen54: list[PrimeModulus] = []
    for q in _sparse_candidates_54(step):
        if len(gen54) == big_l:
            break
        if q.bit_length() != 54 or (q - 1) % step or q in taken:
            continue
        if not is_probable_prime(q) or _sparse_kind(q) is None:
            continue
        taken.add(q)
        gen54.append(PrimeModulus.from_value(q))
    if len(gen54) < big_l:  # dense fallback for unusually large step values
        while len(gen54) < big_l:
            q = _search_prime(54, step, exclude=taken)
            taken.add(q)
            gen54.append(PrimeModulus.from_value(q))
    base = RnsBase([q0] + gen54[:-1], gen54[-1])
    if base.total_bits != log_pq:
        raise RuntimeError("bit-width bookkeeping failed")
    return base


def _search_prime(bits: int, step: int, exclude: set[int]) -> int:
    k = ((1 << (bits - 1)) // step) + 1
    while True:
        q = k * step + 1
        k += 1
        if q.bit_length() != bits:
            raise RuntimeError(f"no {bits}-bit prime of form k*{step}+1 found")
        if q not in exclude and is_probable_prime(q):
            return q


def crt_reconstruct(rows: Sequence, moduli: Sequence[int]) -> list[int]:
    """Centered CRT lift into (-M/2, M/2] of every column of residue rows.

    rows[j][t] is value t modulo moduli[j]; M is the product of the moduli.
    The weights are computed once, and each row is added into the running
    sum as one array of Python integers.
    """
    big = math.prod(moduli)
    acc = np.zeros(len(rows[0]), dtype=object)
    for r, m in zip(rows, moduli):
        hat = big // m
        acc += np.asarray(r).astype(object) * (hat * inv_mod(hat % m, m) % big)
    acc %= big
    return np.where(acc > big // 2, acc - big, acc).tolist()
