"""Deterministic randomness and key material.

Every random value in the system (secret key, errors, encryption randomness,
key-switching uniforms) is drawn from a Trivium keystream seeded by a 64-bit
master seed plus a tag triple (i, j, component). Uniform polynomials are
therefore never stored or shipped: holders of the seed regenerate them on
demand, which is what keeps serialized key-switching material at half size.

The generator steps 64 clocks at a time. That is sound for Trivium because
its shortest feedback tap sits 66 positions from the register input, so a
64-bit window never reads a bit produced in the same step.

Key generation and key loading draw hundreds of tagged streams at once, so
`sample_lanes` steps them together as NumPy lanes (`TriviumLanes`) instead
of one Python-int stream at a time. Each tagged stream feeds exactly one
sampler call, and a sampler's result is a prefix of its stream's accepted
words: the first n words for a Gaussian draw, the first n candidates below
q for a uniform one. Drawing past that point, as a lane does while it waits
for the slowest lane of its batch, therefore changes no output bit. Every
preset prime sits just above a power of two (q / 2^bitlen is 0.500 to
0.5002), so masked rejection accepts about half its candidates and a
uniform draw of n residues takes about 2n words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

M64 = (1 << 64) - 1

# component tags for stream derivation
COMP_SECRET = 0
COMP_PK_UNIFORM = 1
COMP_PK_ERROR = 2
COMP_ENC_R = 3
COMP_ENC_E0 = 4
COMP_ENC_E1 = 5
COMP_KSK_UNIFORM = 6
COMP_KSK_ERROR = 7

# half tags for split layouts (0 also covers the native full ring)
HALF_FULL = 0
HALF_PLUS = 1
HALF_MINUS = 2

GAUSS_SIGMA = 3.2
GAUSS_TAIL = 6.0


class TriviumStream:
    """Standard Trivium keystream, emitted 64 bits per step.

    Registers are Python ints; bit j of register A holds state cell
    s_(93-j), so consecutive output clocks read off as ascending bits of a
    shifted window and a step is a handful of word operations.
    """

    def __init__(self, key80: int, iv80: int):
        a = 0
        b = 0
        for i in range(80):
            a |= ((key80 >> i) & 1) << (92 - i)
            b |= ((iv80 >> i) & 1) << (83 - i)
        self.a = a
        self.b = b
        self.c = 7  # cells s286, s287, s288 start at 1
        for _ in range(18):  # 18 * 64 = 1152 warm-up clocks
            self._step()

    def _step(self) -> int:
        a, b, c = self.a, self.b, self.c
        t1 = ((a >> 27) ^ a) & M64
        t2 = ((b >> 15) ^ b) & M64
        t3 = ((c >> 45) ^ c) & M64
        z = t1 ^ t2 ^ t3
        fa = (t3 ^ ((c >> 2) & (c >> 1)) ^ (a >> 24)) & M64
        fb = (t1 ^ ((a >> 2) & (a >> 1)) ^ (b >> 6)) & M64
        fc = (t2 ^ ((b >> 2) & (b >> 1)) ^ (c >> 24)) & M64
        self.a = (a >> 64) | (fa << 29)
        self.b = (b >> 64) | (fb << 20)
        self.c = (c >> 64) | (fc << 47)
        return z

    def next_word(self) -> int:
        return self._step()

    def next_words(self, count: int) -> np.ndarray:
        out = np.empty(count, dtype=np.uint64)
        step = self._step
        for k in range(count):
            out[k] = step()
        return out


class TriviumLanes:
    """K Trivium streams stepped in lock-step, one NumPy lane per stream.

    Lane k continues streams[k] from its current state (the stream objects
    themselves do not advance). Register r of the scalar class is held as
    lo[r] | hi[r] << 64, and each step is the scalar 64-clock step written
    as a fixed number of NumPy calls over all lanes at once, so lane k emits
    exactly the words streams[k].next_words would.
    """

    # rows: the z tap, the two AND taps and the feedback tap, per register a, b, c
    _TAPS = np.array([[27, 15, 45], [2, 2, 2], [1, 1, 1], [24, 6, 24]], dtype=np.uint64)
    # where each register's new 64 bits enter it
    _ENTRY = np.array([29, 20, 47], dtype=np.uint64)

    def __init__(self, streams):
        k = len(streams)
        regs = [r for s in streams for r in (s.a, s.b, s.c)]
        self.lo = np.array([r & M64 for r in regs], dtype=np.uint64).reshape(k, 3).T.copy()
        self.hi = np.array([r >> 64 for r in regs], dtype=np.uint64).reshape(k, 3).T.copy()
        # shift counts spelled out per lane: NumPy shifts contiguous operands fastest
        self._taps = np.repeat(self._TAPS[..., None], k, axis=2)
        self._taps_hi = 64 - self._taps
        self._entry = np.repeat(self._ENTRY[:, None], k, axis=1)
        self._entry_hi = 64 - self._entry
        self._win = np.empty_like(self._taps)
        self._tmp = np.empty_like(self._taps)
        # rows c, a, b, c of the feedback terms, so rows 0..2 line up with a, b, c
        self._feed = np.empty((4, k), dtype=np.uint64)

    def next_words(self, count: int) -> np.ndarray:
        """The next `count` words of every lane, as a (lanes, count) array."""
        lo, hi, win, tmp, feed = self.lo, self.hi, self._win, self._tmp, self._feed
        out = np.empty((count, lo.shape[1]), dtype=np.uint64)
        t, g, g2, f = win
        for k in range(count):
            # win[m][r]: low 64 bits of register r shifted right by tap m
            np.right_shift(lo, self._taps, out=win)
            np.left_shift(hi, self._taps_hi, out=tmp)
            np.bitwise_or(win, tmp, out=win)
            np.bitwise_xor(t, lo, out=t)                # t1, t2, t3
            np.bitwise_xor(t[0], t[1], out=out[k])
            np.bitwise_xor(out[k], t[2], out=out[k])    # z
            np.bitwise_and(g, g2, out=feed[1:])
            np.bitwise_xor(feed[1:], t, out=feed[1:])
            np.copyto(feed[0], feed[3])
            np.bitwise_xor(feed[:3], f, out=f)          # fa, fb, fc
            np.left_shift(f, self._entry, out=lo)
            np.bitwise_or(lo, hi, out=lo)
            np.right_shift(f, self._entry_hi, out=hi)
        return np.ascontiguousarray(out.T)


def stream_for(seed: int, i: int, j: int, component: int) -> TriviumStream:
    """The keystream owned by tag (i, j, component) under a master seed."""
    if not 0 <= seed < (1 << 64):
        raise ValueError("master seed must fit in 64 bits")
    if not (0 <= i < (1 << 24) and 0 <= j < (1 << 24) and 0 <= component < (1 << 32)):
        raise ValueError("stream tag out of range")
    key = seed  # upper 16 key bits stay zero
    iv = i | (j << 24) | (component << 48)
    return TriviumStream(key, iv & ((1 << 80) - 1))


def component_tag(kind: int, half: int = HALF_FULL, ksk_id: int = 0) -> int:
    """Pack (kind, half, key id) into the 32-bit component field."""
    if not (0 <= kind < 256 and 0 <= half < 16 and 0 <= ksk_id < (1 << 20)):
        raise ValueError("component tag field out of range")
    return kind | (half << 8) | (ksk_id << 12)


def sample_ternary(stream: TriviumStream, n: int) -> np.ndarray:
    """Uniform {-1, 0, +1} coefficients by 2-bit rejection."""
    out = np.empty(n, dtype=np.int64)
    filled = 0
    while filled < n:
        need = n - filled
        words = stream.next_words((need * 2 + 63 + 16) // 64 + 1)
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        pairs = bits[0::2][: len(bits) // 2] + 2 * bits[1::2][: len(bits) // 2]
        good = pairs[pairs < 3]
        take = min(len(good), need)
        out[filled : filled + take] = good[:take].astype(np.int64) - 1
        filled += take
    return out


def _gauss_thresholds(sigma: float, tail: float) -> tuple[np.ndarray, int]:
    bound = int(tail * sigma)
    ks = np.arange(-bound, bound + 1)
    probs = np.exp(-(ks.astype(np.float64) ** 2) / (2.0 * sigma * sigma))
    cum = np.cumsum(probs) / probs.sum()
    thr = [min(int(round(c * float(1 << 64))), (1 << 64) - 1) for c in cum]
    # searchsorted works on all but the final cutoff; the last bucket catches
    # every remaining word
    return np.array(thr[:-1], dtype=np.uint64), bound


_GAUSS_CACHE: dict[tuple[float, float], tuple[np.ndarray, int]] = {}


def _gauss_table(sigma: float) -> tuple[np.ndarray, int]:
    key = (sigma, GAUSS_TAIL)
    if key not in _GAUSS_CACHE:
        _GAUSS_CACHE[key] = _gauss_thresholds(sigma, GAUSS_TAIL)
    return _GAUSS_CACHE[key]


def sample_gaussian(stream: TriviumStream, n: int, sigma: float = GAUSS_SIGMA) -> np.ndarray:
    """Discrete Gaussian by CDF inversion of one 64-bit word per draw.

    The result depends only on the stream's first n words.
    """
    thr, bound = _gauss_table(sigma)
    words = stream.next_words(n)
    return np.searchsorted(thr, words, side="right").astype(np.int64) - bound


def sample_uniform_mod(stream: TriviumStream, n: int, q: int) -> np.ndarray:
    """Uniform residues mod q by masked rejection, one word per candidate.

    The result is the stream's first n candidates below q, however many
    words are drawn past them. A candidate is accepted with probability
    q / 2^bitlen(q), which is about 0.5 for every preset prime.
    """
    mask = np.uint64((1 << q.bit_length()) - 1)
    qv = np.uint64(q)
    out = np.empty(n, dtype=np.uint64)
    filled = 0
    while filled < n:
        need = n - filled
        cand = stream.next_words(need + (need >> 3) + 4) & mask
        good = cand[cand < qv]
        take = min(len(good), need)
        out[filled : filled + take] = good[:take]
        filled += take
    return out


LANE_CHUNK = 512  # lock-step steps per round, which bounds the word buffer


def sample_lanes(
    uniform, n_uniform: int, gaussian=(), n_gaussian: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform and Gaussian draws for many streams in one lock-step run.

    `uniform` holds (stream, q) pairs: row k of the first result equals
    sample_uniform_mod(stream_k, n_uniform, q_k). `gaussian` holds streams:
    row k of the second result equals sample_gaussian(stream_k, n_gaussian).
    Every lane steps until the slowest uniform lane holds n_uniform
    residues; the words a lane draws past its own result are discarded,
    which is exact because each result is a prefix of its stream's accepted
    words (see the module docstring). The streams themselves do not advance.
    """
    n_lanes = len(uniform)
    g_steps = n_gaussian if len(gaussian) else 0
    qs = np.array([q for _, q in uniform], dtype=np.uint64)[:, None]
    masks = np.array([(1 << q.bit_length()) - 1 for _, q in uniform], dtype=np.uint64)[:, None]
    lanes = TriviumLanes([s for s, _ in uniform] + list(gaussian))
    thr, bound = _gauss_table(GAUSS_SIGMA)
    u_out = np.empty((n_lanes, n_uniform), dtype=np.uint64)
    g_out = np.empty((len(gaussian), n_gaussian), dtype=np.int64)
    filled = [0] * n_lanes
    drawn = 0
    while True:
        # about two candidates per residue, since acceptance is about 0.5
        short = n_uniform - min(filled, default=n_uniform)
        steps = min(LANE_CHUNK, max(2 * short + 16 if short else 0, g_steps - drawn))
        if steps <= 0:
            return u_out, g_out
        words = lanes.next_words(steps)
        take = min(steps, g_steps - drawn)
        if take > 0:
            g_out[:, drawn:drawn + take] = (
                np.searchsorted(thr, words[n_lanes:, :take], side="right") - bound
            )
            drawn += take
        cand = np.bitwise_and(words[:n_lanes], masks, out=words[:n_lanes])
        ok = cand < qs
        for k in range(n_lanes):
            need = n_uniform - filled[k]
            if need:
                good = cand[k][ok[k]][:need]
                u_out[k, filled[k]:filled[k] + len(good)] = good
                filled[k] += len(good)


def signed_to_residues(x: np.ndarray, q: int) -> np.ndarray:
    """Signed int64 coefficients into canonical residues mod q."""
    return (x % np.int64(q)).astype(np.uint64)


@dataclass
class SecretKey:
    """Ternary secret polynomial over the scheme ring, plus its seed."""

    seed: int
    coeffs: np.ndarray  # int64 in {-1, 0, 1}, length = scheme ring degree

    @property
    def degree(self) -> int:
        return len(self.coeffs)


def gen_secret(seed: int, degree: int) -> SecretKey:
    s = sample_ternary(stream_for(seed, 0, 0, component_tag(COMP_SECRET)), degree)
    return SecretKey(seed, s)
