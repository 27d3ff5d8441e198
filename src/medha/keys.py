"""Deterministic randomness and key material.

Every random value in the system (secret key, errors, encryption randomness,
key-switching uniforms) is drawn from a Trivium keystream seeded by a 64-bit
master seed plus a tag triple (i, j, component). Uniform polynomials are
therefore never stored or shipped: holders of the seed regenerate them on
demand, which is what keeps serialized key-switching material at half size.

The generator steps 64 clocks at a time. That is sound for Trivium because
its shortest feedback tap sits 66 positions from the register input, so a
64-bit window never reads a bit produced in the same step.

`sample_lanes` steps a batch of tagged streams together, with one of two
steppers chosen by the batch's lane count. Up to PACKED_MAX_LANES streams
(an encryption's two Gaussian streams) step as `TriviumPacked`: the
streams sit 128 bits apart in one Python int per register, so one step of
about 40 big-integer operations serves every lane. Key generation and key
loading draw hundreds of streams at once, which step as NumPy lanes
(`TriviumLanes`): nine NumPy calls per step, cheaper per lane only for
wide batches (the crossover was measured at about 26 lanes). A
single `TriviumStream` is the one-lane case of the packed step, so the
Python-int stepping lives in one function, `_clock`.

Each tagged stream feeds exactly one sampler call, and a sampler's result
is a prefix of its stream's accepted words: the first n words for a
Gaussian draw, the first n candidates below q for a uniform one. Drawing
past that point, as a lane does while it waits for the slowest lane of its
batch, therefore changes no output bit. Every preset prime sits just above
a power of two (q / 2^bitlen is 0.500 to 0.5002), so masked rejection
accepts about half its candidates and a uniform draw of n residues takes
about 2n words.
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


def _clock(a: int, b: int, c: int, mask: int, count: int) -> tuple[int, int, int, list]:
    """`count` 64-clock steps of packed Trivium registers.

    Lane k of each register sits at bit 128k, and mask holds the low 64 bits
    of every lane. A tap shifts by at most 45, so the low 64 bits of a
    shifted lane hold only bits of that lane (45 + 63 < 128): a word needs
    masking only where it enters a register or the output. Returns the new
    registers and one packed output word per step.
    """
    out = []
    push = out.append
    for _ in range(count):
        t1 = (a >> 27) ^ a
        t2 = (b >> 15) ^ b
        t3 = (c >> 45) ^ c
        push((t1 ^ t2 ^ t3) & mask)
        fa = (t3 ^ ((c >> 2) & (c >> 1)) ^ (a >> 24)) & mask
        fb = (t1 ^ ((a >> 2) & (a >> 1)) ^ (b >> 6)) & mask
        fc = (t2 ^ ((b >> 2) & (b >> 1)) ^ (c >> 24)) & mask
        a = ((a >> 64) & mask) | (fa << 29)
        b = ((b >> 64) & mask) | (fb << 20)
        c = ((c >> 64) & mask) | (fc << 47)
    return a, b, c, out


class TriviumStream:
    """Standard Trivium keystream, emitted 64 bits per step.

    Registers are Python ints; bit j of register A holds state cell
    s_(93-j), so consecutive output clocks read off as ascending bits of a
    shifted window and a step is a handful of word operations. The stream
    is the one-lane case of `_clock`.
    """

    def __init__(self, key80: int, iv80: int):
        a = 0
        b = 0
        for i in range(80):
            a |= ((key80 >> i) & 1) << (92 - i)
            b |= ((iv80 >> i) & 1) << (83 - i)
        # cells s286, s287, s288 start at 1; 18 * 64 = 1152 warm-up clocks
        self.a, self.b, self.c, _ = _clock(a, b, 7, M64, 18)

    def next_words(self, count: int) -> np.ndarray:
        self.a, self.b, self.c, words = _clock(self.a, self.b, self.c, M64, count)
        return np.array(words, dtype=np.uint64)


class TriviumPacked:
    """K Trivium streams stepped in lock-step, packed into Python ints.

    Lane k continues streams[k] from its current state (the stream objects
    themselves do not advance). Stream k's registers sit 128 bits apart at
    bit 128k of three packed ints, so one step of `_clock`, about 40
    big-integer operations, serves every lane.
    """

    def __init__(self, streams):
        self.lanes = len(streams)
        self.mask = sum(M64 << (128 * k) for k in range(self.lanes))
        self.a = sum(s.a << (128 * k) for k, s in enumerate(streams))
        self.b = sum(s.b << (128 * k) for k, s in enumerate(streams))
        self.c = sum(s.c << (128 * k) for k, s in enumerate(streams))

    def next_words(self, count: int) -> np.ndarray:
        """The next `count` words of every lane, as a (lanes, count) array."""
        self.a, self.b, self.c, words = _clock(self.a, self.b, self.c, self.mask, count)
        size = 16 * self.lanes
        raw = np.frombuffer(b"".join([w.to_bytes(size, "little") for w in words]), dtype=np.uint64)
        return np.ascontiguousarray(raw.reshape(count, self.lanes, 2)[:, :, 0].T)


class TriviumLanes:
    """K Trivium streams stepped in lock-step, one NumPy lane per stream.

    Lane k continues streams[k] from its current state (the stream objects
    themselves do not advance), and emits exactly the words
    streams[k].next_words would. Register r of the scalar class enters its
    new 64 bits at bit e = 29, 20, 47 (a, b, c), so it is held as two parts:
    f, its newest 64 feedback bits (the register >> e, one word since the
    registers are 93, 84 and 111 bits wide), and, per tap row m,
    P[m] = (register mod 2^e) >> tap, the older bits' share of that tap's
    window. Window m is then (f << (e - tap)) | P[m], and a step's new P is
    the old f >> (64 - e + tap); every shift count is below 64. A step is
    nine NumPy calls over all lanes at once, and z = t1 ^ t2 ^ t3 is formed
    once per BLOCK steps from the stored t rows.
    """

    # rows: the register itself, the z tap, the two AND taps and the
    # feedback tap; columns: registers a, b, c
    _TAPS = np.array([[0, 0, 0], [27, 15, 45], [2, 2, 2], [1, 1, 1], [24, 6, 24]], dtype=np.uint64)
    # where each register's new 64 bits enter it
    _ENTRY = np.array([29, 20, 47], dtype=np.uint64)
    BLOCK = 128  # steps whose t rows are kept before their z is formed

    def __init__(self, streams):
        k = len(streams)
        regs = [(s.a, s.b, s.c) for s in streams]
        entry = [int(e) for e in self._ENTRY]
        self.f = np.array([[reg[r] >> e for reg in regs] for r, e in enumerate(entry)],
                          dtype=np.uint64)
        low = np.array([[reg[r] & ((1 << e) - 1) for reg in regs] for r, e in enumerate(entry)],
                       dtype=np.uint64)
        # Shift counts spelled out per lane and f copied once per tap row:
        # NumPy shifts same-shape contiguous operands fastest, and one
        # broadcast copy per step costs less than two broadcast shifts.
        taps = np.repeat(self._TAPS[..., None], k, axis=2)
        self._up = self._ENTRY[:, None] - taps
        self._down = 64 - self._up
        self._p = low >> taps
        self._fs = np.repeat(self.f[None], len(taps), axis=0)
        self._win = np.empty_like(taps)
        # rows c, a, b, c of the feedback terms, so rows 0..2 line up with a, b, c
        self._feed = np.empty((4, k), dtype=np.uint64)
        self._t = np.empty((self.BLOCK, 3, k), dtype=np.uint64)

    def next_words(self, count: int) -> np.ndarray:
        """The next `count` words of every lane, as a (lanes, count) array."""
        f, fs, p, up, down, win = self.f, self._fs, self._p, self._up, self._down, self._win
        w0, w1, w2, w3, w4 = win
        feed, ts = self._feed, self._t
        tail, head, first, last = feed[1:], feed[:3], feed[0], feed[3]
        # ufuncs bound locally with a positional out, and copies written as
        # slice assignments: at a few hundred lanes a call costs about as
        # much as its arithmetic, so each lookup and wrapper shows
        shl, shr, bor, bxor, band = (np.left_shift, np.right_shift, np.bitwise_or,
                                     np.bitwise_xor, np.bitwise_and)
        out = np.empty((f.shape[1], count), dtype=np.uint64)
        for start in range(0, count, self.BLOCK):
            block = ts[:count - start]
            for t in block:
                shl(fs, up, win)
                bor(win, p, win)          # win[m][r]: register r's window at tap row m
                bxor(w0, w1, t)           # t1, t2, t3
                band(w2, w3, tail)
                bxor(tail, t, tail)
                first[...] = last
                shr(fs, down, p)
                bxor(head, w4, f)         # fa, fb, fc
                fs[...] = f
            z = block[:, 0]
            bxor(z, block[:, 1], z)
            bxor(z, block[:, 2], z)
            out[:, start:start + len(block)] = z.T
        return out


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


def _gauss_table() -> tuple[np.ndarray, int]:
    bound = int(GAUSS_TAIL * GAUSS_SIGMA)
    ks = np.arange(-bound, bound + 1)
    probs = np.exp(-(ks.astype(np.float64) ** 2) / (2.0 * GAUSS_SIGMA * GAUSS_SIGMA))
    cum = np.cumsum(probs) / probs.sum()
    thr = [min(int(round(c * float(1 << 64))), (1 << 64) - 1) for c in cum]
    # searchsorted works on all but the final cutoff; the last bucket catches
    # every remaining word
    return np.array(thr[:-1], dtype=np.uint64), bound


_GAUSS_THR, GAUSS_BOUND = _gauss_table()  # GAUSS_BOUND: the largest |x| drawn


def sample_gaussian(stream: TriviumStream, n: int) -> np.ndarray:
    """Discrete Gaussian of width GAUSS_SIGMA by CDF inversion of one
    64-bit word per draw.

    The result depends only on the stream's first n words.
    """
    words = stream.next_words(n)
    return np.searchsorted(_GAUSS_THR, words, side="right").astype(np.int64) - GAUSS_BOUND


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


LANE_CHUNK = 256  # lock-step steps per round, which bounds the round's buffers

# Batches of up to this many streams step as packed Python ints
# (TriviumPacked), larger ones as NumPy lanes (TriviumLanes). Measured per
# step on a 2-core Xeon VM (median of 25 runs of 256 steps, in three
# processes): packed 2.4-2.5 us at 2 lanes, 5.0-5.3 at 16, 5.9-6.9 at 24,
# 6.5-7.2 at 28 and 8.3-9.2 at 32; NumPy 5.7-6.0 at 2 lanes, 6.4-6.6 at 16,
# 6.3-7.0 at 24, 6.2-6.7 at 28, 6.6-7.0 at 32, 8.3-8.7 at 64, 12-13 at 180
# and 21-22 at 391.
PACKED_MAX_LANES = 26


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
    A batch of at most PACKED_MAX_LANES streams steps as packed Python ints,
    a larger one as NumPy lanes; both give the same words. Each round's
    accepted candidates of every lane are compacted in one pass.
    """
    n_lanes = len(uniform)
    g_steps = n_gaussian if len(gaussian) else 0
    qs = np.array([q for _, q in uniform], dtype=np.uint64)[:, None]
    masks = np.array([(1 << q.bit_length()) - 1 for _, q in uniform], dtype=np.uint64)[:, None]
    streams = [s for s, _ in uniform] + list(gaussian)
    lanes = (TriviumPacked if len(streams) <= PACKED_MAX_LANES else TriviumLanes)(streams)
    u_out = np.empty((n_lanes, n_uniform), dtype=np.uint64)
    g_out = np.empty((len(gaussian), n_gaussian), dtype=np.int64)
    flat = u_out.reshape(-1)
    row_start = np.arange(n_lanes, dtype=np.int64) * n_uniform
    filled = np.zeros(n_lanes, dtype=np.int64)
    drawn = 0
    while True:
        # about two candidates per residue, since acceptance is about 0.5
        short = n_uniform - int(filled.min()) if n_lanes else 0
        steps = min(LANE_CHUNK, max(2 * short + 16 if short else 0, g_steps - drawn))
        if steps <= 0:
            return u_out, g_out
        words = lanes.next_words(steps)
        take = min(steps, g_steps - drawn)
        if take > 0:
            g_out[:, drawn:drawn + take] = (
                np.searchsorted(_GAUSS_THR, words[n_lanes:, :take], side="right") - GAUSS_BOUND
            )
            drawn += take
        if not short:
            continue
        cand = np.bitwise_and(words[:n_lanes], masks, out=words[:n_lanes])
        ok = cand < qs
        got = np.count_nonzero(ok, axis=1)
        need = n_uniform - filled
        if (got > need).any():
            # keep only each lane's first `need` accepted candidates
            ok &= np.cumsum(ok, axis=1, dtype=np.int32) <= need[:, None]
            got = np.minimum(got, need)
        # lane k's accepted words, in order, land right after its filled prefix
        dest = np.repeat(row_start + filled - (np.cumsum(got) - got), got)
        dest += np.arange(len(dest))
        flat[dest] = np.compress(ok.reshape(-1), cand)
        filled += got


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
