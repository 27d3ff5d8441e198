"""Deterministic instruction-level latency model of the accelerator.

The machine is a row of residue-polynomial arithmetic units (RPAUs), one
per RNS limb plus one for the special prime, joined by a broadcast ring.
Each RPAU owns a bank of residue-polynomial memory (RPM) slots and two
execution pipes: a main pipe (transforms, coefficient-wise ops, scaling)
and a dyadic pipe (evaluation-domain elementwise ops). Two in-order
program controllers drive the row; most instructions are SIMD across a
mask of RPAUs and retire simultaneously on all of them.

Scheduling semantics (all deterministic, integer cycle counts):
  - a controller dispatches instructions in program order: an instruction
    never starts before its predecessor's start, and never before the
    retire time of the latest fence (sync) instruction;
  - an instruction starts when every masked RPAU's target pipe is free,
    every producer of its sources has retired (read-after-write), and
    every earlier reader of its destinations has retired
    (write-after-read);
  - the broadcast ring is a single global resource: one broadcast at a
    time, regardless of source;
  - SIMD instructions occupy every masked RPAU's pipe for the full cost
    and retire together;
  - SYNC_PIPES waits for all instructions its own controller has issued
    to retire; SYNC_CTRL is a rendezvous between the two controllers;
    both cost zero cycles, but a rendezvous that opens a high-level
    operation charges the fixed per-operation dispatch overhead.

Costs are word counts through fully pipelined units, so one elementwise
pass over an N-coefficient residue polynomial costs N/16 cycles with 16
lanes, and an N-point transform costs (N/16)·log2(N)/2 rounded to the
measured 7,168. Split mode stores each limb as two half-degree
polynomials; instructions that land in a minus-half slot carry a single
calibratable data-movement surcharge (`split_move_cycles`), the one
quantity the hardware measurements leave unspecified.

The same instruction streams can be executed functionally: every opcode
maps onto a polynomial-ring operation. The evaluation engine's
homomorphic ops are such replays (`heaan.Engine` runs each op's compiled
one-op program through `execute_workload`), so each op has one
implementation, and the tests check it against big-integer definitions
of the scheme. Replay runs each instruction atomically, in a dependency
order of its own, so it checks the compiled edges only in part: with one
main-controller edge of a `mult_relin` dyadic instruction dropped, it
fails or differs for 4 of 14 such edges at set1 and 9 of 36 at set2 (and
for 5 of 15 and 10 of 25 the other way round). Replaying the simulator's
dispatch order would catch none, as it starts such a reader only after
its writer has started.

Replay runs both limb layouts on one path, and computes what commutes
with a Galois map once (hoisting; Halevi and Shoup, CRYPTO 2018). The
slots of a limb x, one native and a plus and a minus split, hold one image
of it: an operand is seeded so, and the INTT of a computed limb starts
one. The transforms, the JOIN and SPLIT butterflies, AUTO and BCAST only
move an image's domain, compose its Galois map or retarget its modulus,
so what they carry comes from one decomposition of x (`_Decomp`): the
centered lift of its coefficients (`heaan.CenteredLift`, the one
reduction of signed words), transformed under each modulus. An
automorphism permutes residues and negates some, the lift commutes with
negation for odd q, and each transform maps the map's coefficient form
onto its evaluation form, so every slot keeps its bits. The decomposition
transforms at full degree on either layout: that gives the bits of a
split limb's half-ring datapath.

Replay holds each value, as the RPAUs do, from its first write to its last
read: a slot's value until the last instruction of its op that reads it
(an output's until the op's result is read off), an evaluation until the
last slot of its image reads it, and an operand's decomposition, with the
evaluations that the rotations of the operand share, until the last op
that reads the operand. A limb broadcast back to its own RPAU is the limb
its INTT started from, so it is not transformed again. Every DYADIC
product is reduced as `polyring.dyadic` computes it, against the Shoup
companions of its slot operand, formed once for all the products that
read that value (a key switch's two components, a tensor product's two
terms). Keys come from `Engine.switching_key`, so a missing one is
refused with the Engine's message.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from . import kernels
from .heaan import RELIN_KSK_ID, CenteredLift, Ciphertext, galois_element
from .modarith import PrimeModulus
from .params import ParamSet
from .polyring import (
    ResiduePoly,
    automorphism,
    dyadic,
    ntt_forward,
    ntt_inverse,
    scalar_mul,
)
from .ringsplit import SplitPair, eval_halves, eval_whole

# ---------------------------------------------------------------------------
# instruction set

NTT = "NTT"
INTT = "INTT"
CWISE = "CWISE"          # main-pipe elementwise add/sub/mul
SCALE_QINV = "SCALE_QINV"  # main-pipe scaling by an inverse-modulus constant
DYADIC = "DYADIC"        # dyadic-pipe elementwise add/sub/mul/mac
BCAST = "BCAST"          # ring broadcast with centered re-reduction on receive
SPLIT = "SPLIT"          # butterfly: full-ring coefficients -> two half rings
JOIN = "JOIN"            # butterfly: two half rings -> full-ring coefficients
AUTO = "AUTO"            # Galois automorphism
SYNC_PIPES = "SYNC_PIPES"
SYNC_CTRL = "SYNC_CTRL"
END = "END"

PIPE_MAIN = "main"
PIPE_DYADIC = "dyadic"
PIPE_RING = "ring"
PIPE_NONE = "none"

_SYNC_OPS = (SYNC_PIPES, SYNC_CTRL, END)
_PIPE = {
    **dict.fromkeys((NTT, INTT, CWISE, SCALE_QINV, SPLIT, JOIN, AUTO), PIPE_MAIN),
    DYADIC: PIPE_DYADIC,
    BCAST: PIPE_RING,
    **dict.fromkeys(_SYNC_OPS, PIPE_NONE),
}


class ArchSimError(Exception):
    """Base class for compilation and simulation failures."""


class MemoryBudgetError(ArchSimError):
    """A compiled schedule needs more RPM slots than the machine has."""


class DependencyCycleError(ArchSimError):
    """No controller can make progress; the streams deadlock."""


class UnsupportedOpError(ArchSimError):
    """The requested operation or workload is not in the instruction set."""


@dataclass(frozen=True)
class Instruction:
    op: str
    ctrl: int
    rpaus: tuple[int, ...]
    dst: tuple[int, ...] = ()
    src: tuple = ()              # ("slot", s) | ("remote", rpau, s) | ("ksk", id, comp, i)
    kind: str = ""
    words: int = 1
    half: str = ""               # "m" marks a minus-half destination
    meta: dict = field(default_factory=dict, hash=False, compare=False)
    uid: int = -1
    deps: tuple[int, ...] = ()

    @property
    def pipe(self) -> str:
        return _PIPE[self.op]

    def label(self) -> str:
        tag = self.op if not self.kind else f"{self.op}.{self.kind}"
        r = self.rpaus
        if not r:
            return f"{tag}@ctrl{self.ctrl}"
        where = f"rpau{r[0]}" if len(r) == 1 else f"rpaus{r[0]}-{r[-1]}"
        return f"{tag}@{where}"


@dataclass
class CostModel:
    """Per-instruction cycle costs of the pipelined units."""

    ntt: int = 7168
    intt: int = 7168
    cwise: int = 512
    scale_qinv: int = 512
    dyadic: int = 4096
    bcast: int = 512             # per residue polynomial carried
    split: int = 1024
    join: int = 1024
    auto: int = 512
    op_overhead: int = 128       # controller dispatch cost per high-level op
    split_move_cycles: int = 345  # movement surcharge per minus-half destination

    def cost(self, ins: Instruction) -> int:
        """The field named after the opcode, per residue polynomial carried
        (only BCAST and AUTO carry more than one); barriers cost nothing."""
        if ins.op in _SYNC_OPS:
            return 0
        base = getattr(self, ins.op.lower()) * ins.words
        return base + self.split_move_cycles if ins.half == "m" else base


def calibrate_split_move(cost: CostModel, target_add_cycles: int) -> int:
    """Fit the movement surcharge to a measured split-mode addition total.

    Split addition is four elementwise instructions, two of which land in
    minus halves, plus the dispatch overhead. That closed form pins the
    surcharge; the value is rounded up so totals never undershoot.
    """
    spread = target_add_cycles - 4 * cost.cwise - cost.op_overhead
    if spread < 0:
        raise ArchSimError("addition target smaller than the surcharge-free cost")
    return -((-spread) // 2)  # ceil(spread / 2)


@dataclass(frozen=True)
class MachineConfig:
    n_rpaus: int = 10
    rpm_slots: int = 13          # ciphertext-dependent residue-poly slots per RPAU
    clock_mhz: float = 200.0

    @property
    def special_rpau(self) -> int:
        return self.n_rpaus - 1


# ---------------------------------------------------------------------------
# compiled programs

@dataclass
class OpProgram:
    kind: str
    name: str
    streams: tuple[list[Instruction], list[Instruction]]
    inputs: dict          # var -> binding
    outputs: dict         # var -> binding
    meta: dict = field(default_factory=dict)
    high_water: dict = field(default_factory=dict)   # rpau -> peak slots
    functional: bool = True


@dataclass
class Program:
    pset: ParamSet
    machine: MachineConfig
    ops: list[OpProgram]

    @property
    def instruction_count(self) -> int:
        return sum(len(s) for op in self.ops for s in op.streams)

    def high_water(self) -> dict[int, int]:
        peak: dict[int, int] = {}
        for op in self.ops:
            for r, v in op.high_water.items():
                peak[r] = max(peak.get(r, 0), v)
        return peak


_CRITICAL_PATH_STEPS = 8   # the critical path's tail that a report shows


@dataclass
class CycleReport:
    total_cycles: int
    serial_cycles: int            # the same program issued one instruction at a time
    per_pipe_busy: dict[str, int]
    op_histogram: dict[str, dict]
    per_op: list[dict]
    critical_path: list[str]      # its last _CRITICAL_PATH_STEPS steps
    instruction_count: int
    clock_mhz: float

    @property
    def latency_us(self) -> float:
        return self.total_cycles / self.clock_mhz

    @property
    def dual_issue(self) -> dict:
        """The two controllers' total against the single-issue one."""
        s, d = self.serial_cycles, self.total_cycles
        return {"serial_cycles": s, "dual_cycles": d, "savings": (s - d) / s if s else 0.0}


# ---------------------------------------------------------------------------
# compilation

def _limb_rpaus(level: int) -> tuple[int, ...]:
    return tuple(range(level))


def _ct_binding(rpaus, slots_c0, slots_c1):
    return {
        "kind": "ct",
        "components": [
            [(r, tuple(slots_c0)) for r in rpaus],
            [(r, tuple(slots_c1)) for r in rpaus],
        ],
    }


def _pt_binding(rpaus, slots):
    return {"kind": "pt", "components": [[(r, tuple(slots)) for r in rpaus]]}


def _slot_terms(slots) -> tuple:
    return tuple(("slot", s) for s in slots)


def _reads(rpaus, src) -> list[tuple[int, int]]:
    """The (rpau, slot) pairs that an instruction's sources read; key
    material lives outside the RPM dataflow."""
    reads: list[tuple[int, int]] = []
    for term in src:
        if term[0] == "slot":
            reads.extend((r, term[1]) for r in rpaus)
        elif term[0] == "remote":
            reads.append((term[1], term[2]))
        elif term[0] != "ksk":
            raise ArchSimError(f"unknown source kind {term[0]!r}")
    return reads


class _OpCompiler:
    """Compiles one high-level operation into the two controller streams:
    it holds the op's frame (level, RPAUs, slot layout, receive buffers)
    and the streams' slot dataflow, and emits every instruction.

    Dependencies are resolved at compile time into explicit retire-before-
    start edges, so the simulator never has to guess: read-after-write
    edges point at the last writer of each source slot, write-after-read
    edges at every reader since that write, write-after-write at the
    previous writer. Slots are never freed within an op, so `program` reads
    its high-water mark on an RPAU off the op: the number of distinct slots
    that its inputs and its instructions' writes name there.
    """

    def __init__(self, pset: ParamSet, machine: MachineConfig, level: int, op: str, name: str):
        if level < 1 or level > pset.levels:
            raise UnsupportedOpError(f"level {level} outside 1..{pset.levels}")
        if pset.levels + 1 > machine.n_rpaus:
            raise UnsupportedOpError("parameter set needs more RPAUs than built")
        self.pset = pset
        self.machine = machine
        self.level = level
        self.op = op
        self.name = name
        self.split = pset.mode == "split"
        self.limbs = _limb_rpaus(level)
        self.sp = machine.special_rpau
        self.all_r = self.limbs + (self.sp,)
        self.streams: tuple[list[Instruction], list[Instruction]] = ([], [])
        self.uid = 0
        self.last_write: dict[tuple[int, int], int] = {}
        self.readers: dict[tuple[int, int], list[int]] = {}
        self.sync_seq = 0
        # rotating receive buffers; in split mode three physical slots carry
        # a two-slot payload so the next broadcast can land while the
        # previous one is still being consumed
        self._recv_seq = 0

    # slot dataflow and emission ---------------------------------------------

    def emit(
        self,
        op: str,
        ctrl: int,
        rpaus: Sequence[int],
        dst: Sequence[int] = (),
        src: Sequence = (),
        kind: str = "",
        words: int = 1,
        half: str = "",
        **meta,
    ) -> Instruction:
        rpaus = tuple(rpaus)
        deps: set[int] = set()
        reads = _reads(rpaus, src)
        writes = [(r, s) for r in rpaus for s in dst]
        for ref in reads:
            w = self.last_write.get(ref)
            if w is not None:
                deps.add(w)
        for ref in writes:
            w = self.last_write.get(ref)
            if w is not None:
                deps.add(w)
            deps.update(self.readers.get(ref, ()))
        ins = Instruction(
            op=op, ctrl=ctrl, rpaus=rpaus, dst=tuple(dst),
            src=tuple(src), kind=kind, words=words, half=half, meta=meta,
            uid=self.uid, deps=tuple(sorted(deps)),
        )
        self.uid += 1
        for ref in reads:
            self.readers.setdefault(ref, []).append(ins.uid)
        for ref in writes:
            self.last_write[ref] = ins.uid
            self.readers[ref] = []
        self.streams[ctrl].append(ins)
        return ins

    def sync(self, op: str, **meta):
        """A zero-cost barrier on both controllers; each SYNC_CTRL
        rendezvous gets the next sync_id."""
        if op == SYNC_CTRL:
            meta = {"sync_id": self.sync_seq, "op_start": False, **meta}
            self.sync_seq += 1
        for c in (0, 1):
            ins = Instruction(op=op, ctrl=c, rpaus=(), meta=dict(meta), uid=self.uid)
            self.streams[c].append(ins)
            self.uid += 1

    # op frame ---------------------------------------------------------------

    def slots(self, i: int) -> tuple[int, ...]:
        """Slot tuple for logical limb i: one slot native, a pair in split mode."""
        return (2 * i, 2 * i + 1) if self.split else (i,)

    def open(self):
        """The rendezvous that dispatches the op."""
        self.sync(SYNC_CTRL, op_start=True)

    def close(self, inputs, outputs, functional=True, **meta) -> OpProgram:
        """Drain both controllers, rendezvous, and package the op."""
        self.sync(SYNC_PIPES)
        self.sync(SYNC_CTRL)
        return self.program(inputs, outputs, functional, level=self.level, **meta)

    def program(self, inputs, outputs, functional=True, **meta) -> OpProgram:
        """Package the op, refusing it if a slot it names is past the bank."""
        places = [p for b in inputs.values() for comp in b["components"] for p in comp]
        places += [(r, i.dst) for stream in self.streams for i in stream for r in i.rpaus]
        held = {(r, s) for r, slots in places for s in slots}
        top, bank = max((s for _, s in held), default=-1), self.machine.rpm_slots
        if top >= bank:
            raise MemoryBudgetError(f"slot {top} exceeds the {bank}-slot RPM bank")
        return OpProgram(
            kind=self.op, name=self.name, streams=self.streams, inputs=inputs,
            outputs=outputs, meta=meta, functional=functional,
            high_water=dict(sorted(Counter(r for r, _ in held).items())),
        )

    def recv_slots(self, ring: Sequence[int]) -> tuple[int, ...]:
        """The next receive buffer: as many consecutive ring slots as a limb has."""
        width = len(self.slots(0))
        k = width * self._recv_seq
        self._recv_seq += 1
        return tuple(ring[(k + j) % len(ring)] for j in range(width))

    # instruction helpers ----------------------------------------------------

    def half(self, h: int) -> str:
        """Minus-half marker for the h-th slot of a limb."""
        return "m" if (self.split and h == 1) else ""

    def per_half(self, op, ctrl, rpaus, dst, srcs=None, kind="", **meta):
        """One `op` per slot of `dst`, reading the same slot of each source
        (in place without sources); a mac also reads the slot it adds onto."""
        for h, d in enumerate(dst):
            terms = _slot_terms(s[h] for s in (srcs or (dst,)))
            if kind == "mac":
                terms += (("slot", d),)
            self.emit(op, ctrl, rpaus, dst=(d,), src=terms, kind=kind,
                      half=self.half(h), **meta)

    def to_coeff(self, ctrl, rpaus, slots):
        """Evaluation limb to parent-ring coefficients, in place."""
        self.per_half(INTT, ctrl, rpaus, slots)
        if self.split:
            self.emit(JOIN, ctrl, rpaus, dst=slots, src=_slot_terms(slots))

    def to_eval(self, ctrl, rpaus, slots):
        """Parent-ring coefficients to an evaluation limb, in place."""
        if self.split:
            self.emit(SPLIT, ctrl, rpaus, dst=slots, src=_slot_terms(slots), half="m")
        self.per_half(NTT, ctrl, rpaus, slots)

    def bcast(self, ctrl, src_rpau, src_slots, receivers, recv):
        """Coefficients on src_rpau -> re-reduced evaluation limbs on receivers."""
        self.emit(
            BCAST, ctrl, receivers, dst=recv,
            src=tuple(("remote", src_rpau, s) for s in src_slots),
            words=len(src_slots),
        )
        self.to_eval(ctrl, receivers, recv)

    def mod_down(self, ctrl, acc_slots, receivers, ring, drop_rpau, drop_idx):
        """Drop the limb held by drop_rpau and divide it out of the rest."""
        self.to_coeff(ctrl, (drop_rpau,), acc_slots)
        recv = self.recv_slots(ring)
        self.bcast(ctrl, drop_rpau, acc_slots, receivers, recv)
        self.per_half(CWISE, ctrl, receivers, acc_slots, [acc_slots, recv], "sub")
        self.per_half(SCALE_QINV, ctrl, receivers, acc_slots, drop_idx=drop_idx)

    def key_switch(self, src, acc0, acc1, ksk_id, recv_ring):
        """Hoisted key switch of the limbs in `src` into `acc0`/`acc1`.

        The main controller walks each limb's coefficients through every
        output modulus; the dyadic controller sums their products with the
        key, plus half before minus half so the ring can overwrite sooner.
        Two sequential special-prime drops bring both sums back to the level.
        """
        self.to_coeff(0, self.limbs, src)
        for i in self.limbs:
            recv = self.recv_slots(recv_ring)
            self.bcast(0, i, src, self.all_r, recv)
            for h, r in enumerate(recv):
                for comp, acc in ((0, acc0), (1, acc1)):
                    terms = (("slot", r), ("ksk", ksk_id, comp, i))
                    if i:
                        terms += (("slot", acc[h]),)
                    self.emit(DYADIC, 1, self.all_r, dst=(acc[h],), src=terms,
                              kind="mac" if i else "mul", half=self.half(h))
        for acc in (acc0, acc1):
            self.mod_down(0, acc, self.limbs, recv_ring, self.sp, self.pset.levels)


def _compile_add(c: _OpCompiler) -> OpProgram:
    x0, x1, y0, y1, o0, o1 = map(c.slots, range(6))
    c.open()
    c.per_half(CWISE, 0, c.limbs, o0, [x0, y0], c.op)
    c.per_half(CWISE, 0, c.limbs, o1, [x1, y1], c.op)
    return c.close(
        inputs={"x": _ct_binding(c.limbs, x0, x1), "y": _ct_binding(c.limbs, y0, y1)},
        outputs={"out": _ct_binding(c.limbs, o0, o1)},
    )


def _compile_mult_plain(c: _OpCompiler) -> OpProgram:
    x0, x1, pt = map(c.slots, range(3))
    c.open()
    c.per_half(DYADIC, 1, c.limbs, x0, [x0, pt], "mul")
    c.per_half(DYADIC, 1, c.limbs, x1, [x1, pt], "mul")
    return c.close(
        inputs={"x": _ct_binding(c.limbs, x0, x1), "pt": _pt_binding(c.limbs, pt)},
        outputs={"out": _ct_binding(c.limbs, x0, x1)},
    )


def _compile_mult_relin(c: _OpCompiler) -> OpProgram:
    """Tensor product, key-switch of the quadratic part, and base merge.

    The dyadic controller owns the tensor products and the running
    key-switch sums; the main controller owns the transform/broadcast loop
    that walks the quadratic part through every output modulus, then the
    two sequential special-prime drops.
    """
    x0, x1, y0, y1, d2, d1 = map(c.slots, range(6))
    d0, acc0 = x0, x1                    # overwrite inputs as they go dead
    if c.split:
        acc1 = y0
        recv_ring = (6, 7, 12)           # three buffers rotate a two-slot payload
    else:
        acc1 = y1
        recv_ring = (6, 2)               # slot 2 freed by the last tensor read
    c.open()

    # tensor product; the quadratic part first so the transform loop can start
    c.per_half(DYADIC, 1, c.limbs, d2, [x1, y1], "mul")
    c.per_half(DYADIC, 1, c.limbs, d1, [x0, y1], "mul")
    c.per_half(DYADIC, 1, c.limbs, d1, [x1, y0], "mac")
    c.per_half(DYADIC, 1, c.limbs, d0, [x0, y0], "mul")

    c.key_switch(d2, acc0, acc1, RELIN_KSK_ID, recv_ring)
    c.per_half(CWISE, 0, c.limbs, d0, [d0, acc0], "add")
    c.per_half(CWISE, 0, c.limbs, d1, [d1, acc1], "add")
    return c.close(
        inputs={"x": _ct_binding(c.limbs, x0, x1), "y": _ct_binding(c.limbs, y0, y1)},
        outputs={"out": _ct_binding(c.limbs, d0, d1)},
    )


def _compile_rescale_like(c: _OpCompiler) -> OpProgram:
    """Drop one limb from both components and divide it out (two branches:
    the dropped limb's RPAU transforms and broadcasts, the rest receive).
    A moddown drops the special prime; a rescale drops the top limb."""
    c0, c1 = c.slots(0), c.slots(1)
    ring = (c.slots(2) + c.slots(3))[: (3 if c.split else 2)]
    drop_special = c.op == "moddown"
    if not drop_special and c.level < 2:
        raise UnsupportedOpError("rescale at level 1 would drop the last limb")
    if drop_special:
        drop_rpau, drop_idx, keep = c.sp, c.pset.levels, c.limbs
        src_rpaus = c.all_r
    else:
        drop_rpau, drop_idx, keep = c.level - 1, c.level - 1, _limb_rpaus(c.level - 1)
        src_rpaus = c.limbs
    c.open()
    for comp in (c0, c1):
        c.mod_down(0, comp, keep, ring, drop_rpau, drop_idx)
    return c.close(
        inputs={"x": _ct_binding(src_rpaus, c0, c1)},
        outputs={"out": _ct_binding(keep, c0, c1)},
        functional=not drop_special,
    )


def _compile_rotate(c: _OpCompiler, steps: int) -> OpProgram:
    """Galois map of both components, then key-switch the mapped c1."""
    steps %= c.pset.slots  # the key id, as in Engine.rotate
    if steps == 0:
        raise UnsupportedOpError("rotation by a multiple of the slot count has no key")
    c0, c1, a0, a1 = map(c.slots, range(4))
    acc0, acc1 = c0, c1                   # inputs dead once mapped
    recv_ring = (c.slots(4) + c.slots(5))[: (3 if c.split else 2)]
    g = galois_element(steps, c.pset.degree)
    c.open()
    for src, dst in ((c0, a0), (c1, a1)):
        if c.split:
            # the map crosses the half-ring boundary, so walk each component
            # through full-ring coefficients and back
            c.to_coeff(0, c.limbs, src)
            c.emit(AUTO, 0, c.limbs, dst=dst, src=_slot_terms(src), words=2, g=g)
            c.to_eval(0, c.limbs, dst)
        else:
            c.emit(AUTO, 0, c.limbs, dst=dst, src=_slot_terms(src), g=g)
    c.key_switch(a1, acc0, acc1, steps, recv_ring)
    c.per_half(CWISE, 0, c.limbs, a0, [a0, acc0], "add")
    return c.close(
        inputs={"x": _ct_binding(c.limbs, c0, c1)},
        outputs={"out": _ct_binding(c.limbs, a0, acc1)},
    )


def _compile_ntt_bench(c: _OpCompiler) -> OpProgram:
    s = c.slots(0)[:1]
    c.emit(NTT, 0, (0,), dst=s, src=_slot_terms(s))
    return c.program(inputs={}, outputs={}, functional=False)


# ---------------------------------------------------------------------------
# workload-level compilation

def compile_op(pset: ParamSet, op: str, level: Optional[int] = None,
               machine: Optional[MachineConfig] = None, name: Optional[str] = None,
               steps: int = 1) -> OpProgram:
    build = {
        "add": _compile_add, "sub": _compile_add,
        "mult_plain": _compile_mult_plain, "mult_relin": _compile_mult_relin,
        "rescale": _compile_rescale_like, "moddown": _compile_rescale_like,
        "rotate": lambda c: _compile_rotate(c, steps), "ntt": _compile_ntt_bench,
    }.get(op)
    if build is None:
        raise UnsupportedOpError(f"unknown operation {op!r}")
    level = pset.levels if level is None else level
    return build(_OpCompiler(pset, machine or MachineConfig(), level, op, name or op))


def compile_workload(pset: ParamSet, ops: Sequence[dict],
                     machine: Optional[MachineConfig] = None) -> Program:
    """Compile a list of op specs {op, name?, level?, steps?, in/out vars}."""
    machine = machine or MachineConfig()
    compiled = []
    for seq, spec in enumerate(ops):
        op = spec["op"]
        prog = compile_op(pset, op, level=spec.get("level"), machine=machine,
                          name=spec.get("name", f"{op}[{seq}]"), steps=spec.get("steps", 1))
        prog.meta["vars"] = {k: spec[k] for k in ("x", "y", "pt", "out") if k in spec}
        compiled.append(prog)
    if compiled:
        last = compiled[-1]
        uid = max((i.uid for s in last.streams for i in s), default=-1) + 1
        for ctrl in (0, 1):
            last.streams[ctrl].append(
                Instruction(op=END, ctrl=ctrl, rpaus=(), uid=uid + ctrl)
            )
    return Program(pset=pset, machine=machine, ops=compiled)


# ---------------------------------------------------------------------------
# simulation

def _resources(ins: Instruction) -> list[tuple]:
    """The busy-until keys a costed instruction waits for and then holds."""
    return [("ring",)] if ins.pipe == PIPE_RING else [(r, ins.pipe) for r in ins.rpaus]


def simulate(program: Program, cost: Optional[CostModel] = None,
             clock_mhz: Optional[float] = None) -> CycleReport:
    """Run the two controller streams through the machine's resources.

    Returns exact cycle totals; raises DependencyCycleError when neither
    controller can make progress. The single-issue baseline the report
    compares with (`serial_cycles`) takes no second schedule: issuing one
    instruction at a time, each starts once its predecessor retires, and
    by then so have its producers, its pipes, the ring and every fence. So
    that machine idles only for each op's dispatch overhead, and its total
    is the busy cycles plus those overheads.
    """
    cost = cost or CostModel()
    pipe_free: dict = {}
    busy = {PIPE_MAIN: 0, PIPE_DYADIC: 0, PIPE_RING: 0}
    overhead = 0
    histogram: dict[str, dict] = {}
    timing: list[tuple[OpProgram, dict, dict]] = []   # (op, started, retired) by uid
    per_op: list[dict] = []
    t_end = 0

    for opp in program.ops:
        streams = opp.streams
        started: dict[int, int] = {}
        retired: dict[int, int] = {}
        ptr = [0, 0]
        last_start = [t_end, t_end]
        fence = [t_end, t_end]
        own_retire = [t_end, t_end]
        op_t0, op_t1 = None, t_end

        def candidate(c: int) -> Optional[int]:
            """Earliest start of controller c's next instruction, or None."""
            ins = streams[c][ptr[c]]
            if ins.op == SYNC_CTRL:
                o = 1 - c
                if ptr[o] >= len(streams[o]):
                    return None
                partner = streams[o][ptr[o]]
                if partner.op != SYNC_CTRL or partner.meta["sync_id"] != ins.meta["sync_id"]:
                    return None
                return max(last_start[c], fence[c], last_start[o], fence[o])
            if ins.op in (SYNC_PIPES, END):
                return max(own_retire[c], fence[c], last_start[c])
            t = max(last_start[c], fence[c])
            for d in ins.deps:
                if d not in retired:
                    return None
                if retired[d] > t:
                    t = retired[d]
            for k in _resources(ins):
                if pipe_free.get(k, 0) > t:
                    t = pipe_free[k]
            return t

        while ptr[0] < len(streams[0]) or ptr[1] < len(streams[1]):
            best, who = None, None
            for c in (0, 1):
                if ptr[c] >= len(streams[c]):
                    continue
                t = candidate(c)
                if t is not None and (best is None or t < best):
                    best, who = t, c
            if who is None:
                raise DependencyCycleError(
                    f"controllers deadlocked in {opp.name} at "
                    f"instructions {ptr[0]}/{len(streams[0])} and {ptr[1]}/{len(streams[1])}"
                )
            # a rendezvous retires both controllers' SYNC_CTRL together; one
            # that opens an op holds them for the dispatch overhead, which
            # the histogram does not count as instruction cycles
            ins = streams[who][ptr[who]]
            group = [who, 1 - who] if ins.op == SYNC_CTRL else [who]
            cycles = cost.cost(ins)
            dispatch = cost.op_overhead if ins.meta.get("op_start") else 0
            overhead += dispatch
            retire = best + cycles + dispatch
            for c in group:
                i = streams[c][ptr[c]]
                ptr[c] += 1
                started[i.uid] = best
                retired[i.uid] = retire
                own_retire[c] = max(own_retire[c], retire)
                if i.op in _SYNC_OPS:
                    fence[c] = retire
                else:
                    last_start[c] = best
                    for k in _resources(i):
                        pipe_free[k] = retire
                    busy[i.pipe] += cycles
                h = histogram.setdefault(i.op, {"count": 0, "cycles": 0})
                h["count"] += 1
                h["cycles"] += cycles
            if op_t0 is None:
                op_t0 = best
            op_t1 = max(op_t1, retire)

        # high-level ops execute back to back: later ops wait for the bar
        t_end = op_t1
        start = op_t1 if op_t0 is None else op_t0
        timing.append((opp, started, retired))
        per_op.append({"name": opp.name, "kind": opp.kind, "start": start,
                       "end": op_t1, "cycles": op_t1 - start})

    return CycleReport(
        total_cycles=t_end,
        serial_cycles=sum(busy.values()) + overhead,
        per_pipe_busy=busy,
        op_histogram=histogram,
        per_op=per_op,
        critical_path=_critical_path(timing),
        instruction_count=program.instruction_count,
        clock_mhz=clock_mhz or program.machine.clock_mhz,
    )


def _critical_path(timing: list) -> list[str]:
    """The last _CRITICAL_PATH_STEPS steps of the critical path: walk back
    from the final retire through each instruction's binding dependency,
    falling back to the latest earlier retire on the same pipe. A step
    never returns to an instruction already walked: where instructions
    take no cycles, two can each retire when the other starts."""
    entries: list[str] = []
    for opp, started, retired in reversed(timing):
        if not retired:
            continue
        by_uid = {i.uid: i for s in opp.streams for i in s}
        uid = max(retired, key=lambda u: (retired[u], u))
        walked: set[int] = set()
        while uid is not None and len(entries) < _CRITICAL_PATH_STEPS:
            walked.add(uid)
            ins = by_uid[uid]
            if ins.op not in _SYNC_OPS:
                entries.append(
                    f"{opp.name}: {ins.label()} "
                    f"[{started[uid]}..{retired[uid]}]"
                )
            pred, best = None, -1
            for d in ins.deps:
                if d in retired and d not in walked and retired[d] > best:
                    best, pred = retired[d], d
            if pred is None:
                t0 = started[uid]
                for u2, t2 in retired.items():
                    if u2 in walked or t2 > t0 or t2 <= best:
                        continue
                    other = by_uid[u2]
                    if ins.pipe != PIPE_NONE and other.pipe != ins.pipe:
                        continue
                    best, pred = t2, u2
            uid = pred
        if len(entries) >= _CRITICAL_PATH_STEPS:
            break
    entries.reverse()
    return entries


# ---------------------------------------------------------------------------
# derived analyses

def dual_issue_savings(program: Program, cost: Optional[CostModel] = None) -> dict:
    """The program's dual-issue schedule against a single-issue machine."""
    return simulate(program, cost).dual_issue


def memory_audit(program: Program) -> dict:
    hw = program.high_water()
    uses_ksk = any(
        term[0] == "ksk"
        for op in program.ops for st in op.streams for i in st for term in i.src
    )
    return {
        "per_rpau": hw,
        "max": max(hw.values(), default=0),
        "budget": program.machine.rpm_slots,
        "ksk_resident_polys": 2 * program.pset.levels if uses_ksk else 0,
        "ksk_regenerated_from_seed": True,
    }


# ---------------------------------------------------------------------------
# functional execution of compiled streams

def _exec_order(streams) -> list[Instruction]:
    """Any dependency-respecting linearization; arithmetic is exact so all
    such orders produce identical values."""
    ptr = [0, 0]
    done: set[int] = set()
    out: list[Instruction] = []
    while ptr[0] < len(streams[0]) or ptr[1] < len(streams[1]):
        progress = False
        for c in (0, 1):
            while ptr[c] < len(streams[c]):
                ins = streams[c][ptr[c]]
                if ins.op not in _SYNC_OPS:
                    if not all(d in done for d in ins.deps):
                        break
                    out.append(ins)
                    done.add(ins.uid)
                ptr[c] += 1
                progress = True
        if not progress:
            raise DependencyCycleError("functional execution deadlocked")
    return out


def _eval_part(limb: ResiduePoly, parts: int, minus: bool) -> ResiduePoly:
    """One slot's part of an evaluation limb held in `parts` slots: the
    limb itself, or a view of its plus or minus half-ring evaluation."""
    return limb if parts == 1 else (eval_halves(limb).minus if minus else eval_halves(limb).plus)


class _Decomp:
    """The key-switch decomposition of an evaluation limb x, built on
    demand: the centered lift of x's coefficients, and that lift reduced
    and transformed under each modulus asked for (under x's own modulus it
    is x itself). These are the executor's only transforms, full-degree on
    either layout, as a split limb's half-ring pairs give the same bits. It
    keeps its evaluations only while `shared`, when a later op reads x;
    otherwise it hands each to the one image that reads it, and drops the
    lift with the last one that x's broadcasts left `unread`."""

    def __init__(self, x: ResiduePoly):
        self.x = x
        self.shared = False
        self.unread = 0
        self.evals: dict[int, ResiduePoly] = {}   # modulus -> evaluation, kept while shared

    @functools.cached_property
    def lift(self) -> CenteredLift:
        return CenteredLift.of_limb(ntt_inverse(self.x))

    def eval(self, q: PrimeModulus) -> ResiduePoly:
        if q.value == self.x.q.value:
            return self.x
        e = self.evals.pop(q.value, None) or ntt_forward(self.lift.residues(q))
        self.unread -= 1
        if self.shared:
            self.evals[q.value] = e
        elif not self.unread:
            del self.lift
        return e


@dataclass
class _Image:
    """A limb's value known by where it comes from: the Galois map g of the
    decomposed limb d.x, lifted to q, in `domain` (eval, coeff, or a split
    limb's half-ring coefficients). A limb's slots hold one image, and each
    slot's moves keep its `memo`: the first arithmetic read computes the
    value there, in the evaluation domain (d.eval(q) mapped by g), and the
    last slot read lets the value go."""
    d: _Decomp
    g: int
    q: PrimeModulus
    domain: str
    memo: list = field(default_factory=list)

    def value(self) -> ResiduePoly:
        if self.domain != "eval":
            raise ValueError(f"arithmetic read of an image in the {self.domain} domain")
        if not self.memo:
            v = self.d.eval(self.q)
            self.memo.append(automorphism(v, self.g) if self.g != 1 else v)
        return self.memo[0]


@dataclass
class _Half:
    """A computed evaluation half after its INTT: its limb's image starts at
    the JOIN of both halves, once the other is final too."""
    v: ResiduePoly


class _Executor:
    """Runs instruction streams on RPM slot states, {(rpau, slot): value}.

    NTT, INTT, JOIN and SPLIT move an image's domain, AUTO composes its
    Galois element into it and BCAST retargets its modulus; the other
    instructions compute, reduced, settling an image on a slot's first
    read, where a split limb's slot takes its half. A value is kept until
    its last reader: a slot's until the last instruction of the op that
    reads it (`run`), with the companions its products formed (`shoups`),
    an evaluation until the last slot of its image reads it, and an operand
    limb's decomposition in `decomps`, shared by the ops that read the
    operand, until the last of them has run.
    """

    def __init__(self, engine, program: Program):
        self.eng = engine
        self.base = engine.base
        self.degree = program.pset.degree
        self.parts = 2 if program.pset.mode == "split" else 1
        # RPAU i holds limb i; the special RPAU holds the special prime
        levels = self.base.levels
        self.mod_idx = {r: r for r in range(levels)} | {program.machine.special_rpau: levels}
        self.decomps: dict[int, _Decomp] = {}   # id(x) -> its decomposition
        self.shoups: dict = {}   # slot -> (its value, the value's companions)
        # the domain an instruction moves an image to: eval <-> coeff on a
        # native limb, eval -> half -> coeff -> half -> eval on a split one
        mid = "half" if self.parts == 2 else "coeff"
        self.moves = {(INTT, "eval"): mid, (NTT, mid): "eval",
                      (JOIN, "half"): "coeff", (SPLIT, "coeff"): "half"}

    def modulus(self, rpau: int) -> PrimeModulus:
        return self.base.all_moduli[self.mod_idx[rpau]]

    def seed(self, state, binding, value, shared: bool) -> None:
        """The slots of each operand limb, holding one image of it; its
        decomposition is `shared` when a later op reads the value too."""
        comps = [value.c0, value.c1] if binding["kind"] == "ct" else [value.limbs]
        for comp, places in zip(comps, binding["components"]):
            if len(comp) != len(places):
                raise ArchSimError(
                    f"operand has {len(comp)} limbs; the op is compiled for {len(places)}"
                )
            for limb, (rpau, slots) in zip(comp, places):
                d = self.decomps.get(id(limb))
                if d is None:
                    d = self.decomps[id(limb)] = _Decomp(limb)
                d.shared = shared
                img = _Image(d, 1, limb.q, "eval")
                state.update({(rpau, s): img for s in slots})

    def read(self, state, key, minus: bool = False):
        """A slot's value, settling an image (its minus half's part when
        `minus`) or a chain on its first read."""
        v = state[key]
        if isinstance(v, _Image):
            v = state[key] = _eval_part(v.value(), self.parts, minus)
        elif isinstance(v, _Half):
            raise ValueError("arithmetic read of a lone half")
        return v

    @staticmethod
    def image(state, keys) -> _Image:
        """The image that the slots `keys` hold: one limb's, in one domain."""
        v = state[keys[0]]
        for k in keys:
            u = state[k]
            if not (isinstance(u, _Image) and u.memo is v.memo and u.domain == v.domain):
                raise ValueError(f"slots {keys} hold no one image to pass on")
        return v

    def operand(self, state, term, rpau, half):
        """A source slot's polynomial, or the key part for the same half."""
        if term[0] == "slot":
            return self.read(state, (rpau, term[1]), half == "m")
        _, ksk_id, comp, i = term
        try:
            key = self.eng.switching_key(ksk_id)
        except ValueError as e:
            if self.degree != self.eng.degree:  # a key id is a step mod the program's slots
                raise ValueError(f"{e}; the program is compiled for ring degree {self.degree}, "
                                 f"the engine's is {self.eng.degree}") from None
            raise
        limb = (key.secret if comp == 0 else key.uniform)[i][self.mod_idx[rpau]]
        return _eval_part(limb, self.parts, half == "m")

    def run(self, opp: OpProgram, state: dict) -> None:
        """Run one op. A slot's value leaves `state` after its last use in
        the run order (`_last_uses`), unless it is the op's output; the
        decompositions no later op shares leave `decomps`."""
        order = _exec_order(opp.streams)
        out = {(r, s) for places in opp.outputs["out"]["components"]
               for r, slots in places for s in slots}
        steps = [(_reads(i.rpaus, i.src), [(r, s) for r in i.rpaus for s in i.dst])
                 for i in order]
        for ins, keys in zip(order, _last_uses(steps, out)):
            self.step(ins, state)
            for key in keys:
                del state[key]
                self.shoups.pop(key, None)
        self.decomps = {k: d for k, d in self.decomps.items() if d.shared}

    def read_ct(self, state, binding, scale) -> Ciphertext:
        """The ciphertext in the slots of `binding`, which leave `state`."""
        def limb(rpau, slots):
            parts = [self.read(state, (rpau, s), h == 1) for h, s in enumerate(slots)]
            for s in slots:
                del state[(rpau, s)]
            return eval_whole(SplitPair(*parts)) if len(parts) == 2 else parts[0]

        c0, c1 = ([limb(*place) for place in places] for places in binding["components"])
        return Ciphertext(c0, c1, scale)

    def move(self, op: str, state: dict, keys: list) -> None:
        """Move the images in `keys` through a transform or a butterfly. An
        INTT of a computed limb starts its image; on a split limb it leaves
        a `_Half`, and the JOIN of two starts their limb's."""
        if op == INTT and not isinstance(state[keys[0]], _Image):
            v = self.read(state, keys[0])
            if self.parts == 2:
                state[keys[0]] = _Half(v)
                return
            state[keys[0]] = _Image(_Decomp(v), 1, v.q, "eval")
        elif op == JOIN and all(isinstance(state[k], _Half) for k in keys):
            d = _Decomp(eval_whole(SplitPair(*(state[k].v for k in keys))))
            img = _Image(d, 1, d.x.q, "half")
            state.update({k: img for k in keys})
        for k in keys:
            v = self.image(state, [k])
            if (op, v.domain) not in self.moves:
                raise ValueError(f"{op} of an image in the {v.domain} domain")
            state[k] = replace(v, domain=self.moves[op, v.domain])

    def companions(self, key, v: ResiduePoly):
        """The Shoup companions of slot `key`'s value v, as `ModContext.mulmod`
        takes them: formed by the first product that reads v, reused by the
        others and dropped with v."""
        held = self.shoups.get(key)
        if held is None or held[0] is not v:
            shoup = kernels.ctx(v.q.value).shoup(v.coeffs)
            held = self.shoups[key] = (v, kernels.shoup_halves(shoup))
        return held[1]

    def step(self, ins: Instruction, state: dict) -> None:
        if ins.op in (NTT, INTT, JOIN, SPLIT):
            for r in ins.rpaus:
                self.move(ins.op, state, [(r, s) for s in ins.dst])
        elif ins.op in (CWISE, DYADIC):
            # a product is taken against the companions of its slot source
            # (the second, when both are slots), formed once per value for
            # every product that reads it: a key switch's two components,
            # a tensor product's two terms on one operand limb
            k = 0 if ins.src[1][0] == "ksk" else 1
            for r in ins.rpaus:
                ops = [self.operand(state, t, r, ins.half) for t in ins.src]
                halves = None
                if ins.kind in ("mul", "mac"):
                    ops[k], ops[1] = ops[1], ops[k]
                    halves = self.companions((r, ins.src[k][1]), ops[1])
                state[(r, ins.dst[0])] = dyadic(ins.kind, *ops, b_halves=halves)
        elif ins.op == SCALE_QINV:
            inv = self.base.inv[ins.meta["drop_idx"]]
            for r in ins.rpaus:
                x = self.read(state, (r, ins.dst[0]), ins.half == "m")
                state[(r, ins.dst[0])] = scalar_mul(x, inv[self.mod_idx[r]])
        elif ins.op == BCAST:
            # one limb's coefficients, under its own modulus: the lift of a
            # mapped limb is the map of its lift
            v = self.image(state, [t[1:] for t in ins.src])
            if v.domain != "coeff" or v.q.value != v.d.x.q.value:
                raise ValueError("BCAST takes a limb's coefficients under its own modulus")
            v.d.unread += sum(self.modulus(r).value != v.q.value for r in ins.rpaus)
            for r in ins.rpaus:
                img = replace(v, q=self.modulus(r), memo=[])
                state.update({(r, s): img for s in ins.dst})
        elif ins.op == AUTO:
            for r in ins.rpaus:
                v = self.image(state, [(r, t[1]) for t in ins.src])
                img = replace(v, g=v.g * ins.meta["g"] % (2 * self.eng.degree), memo=[])
                state.update({(r, s): img for s in ins.dst})
        else:
            raise UnsupportedOpError(f"cannot execute {ins.op}")


def _last_uses(steps: list, keep=()) -> list[set]:
    """Per (keys read, keys written) step, the keys it touches that are not
    in `keep` and that no later step reads before writing them again: the
    step is their last use. Keys are an op's slots or a workload's names."""
    live = set(keep)
    dead: list[set] = []
    for reads, writes in reversed(steps):
        dead.append({*reads, *writes} - live)
        live.difference_update(writes)
        live.update(reads)
    return dead[::-1]


def _run_order(ops: list, variables: dict) -> list[int]:
    """The order execute_workload runs ops in, as indices into `ops`, a
    list of (names read, name written) pairs.

    A name is fixed when it never changes once it exists: one op writes it
    and the caller does not supply it, or the caller supplies it and no op
    writes it. An op is deferred when it writes a fixed name that a later
    op reads and reads only fixed names, so it computes the same value
    whenever it runs. A deferred op runs just before the first op that
    reads its output, once its own deferred producers have run, in operand
    order; every other op keeps its listed order. So a value is made next
    to its reader and not held across unrelated ops.
    """
    writes = Counter(out for _, out in ops)
    fixed = {name for name, k in writes.items() if k == 1 and name not in variables}
    fixed |= {name for name in variables if not writes[name]}
    first_reader: dict = {}
    for i, (reads, _) in enumerate(ops):
        for name in reads:
            first_reader.setdefault(name, i)
    producer = {
        out: i for i, (reads, out) in enumerate(ops)
        if out in fixed and first_reader.get(out, -1) > i and fixed.issuperset(reads)
    }
    deferred = set(producer.values())
    order: list[int] = []
    done: set = set()
    for root in range(len(ops)):
        if root in deferred:
            continue
        stack = [root]
        while stack:
            reads, _ = ops[stack[-1]]
            todo = [producer[name] for name in reads
                    if name in producer and producer[name] not in done]
            if todo:
                stack.append(todo[0])
            else:
                done.add(stack[-1])
                order.append(stack.pop())
    return order


def execute_workload(engine, program: Program, variables: dict) -> dict:
    """Run every compiled op on real ciphertext data. The Engine's
    homomorphic ops are this function on their one-op programs.

    `variables` maps var names to Ciphertext/Plaintext values. The result
    maps every name to its newest value, except a temporary: a name that
    one op writes and the caller does not supply. Ops compiled latency-only
    (functional=False) are skipped. Ops run in _run_order: an op whose
    inputs and output no other op changes runs just before its first
    reader, so (on logreg) each rotation is added in before the next one
    runs.

    State is kept until its last reader, which the one last-use pass
    (`_last_uses`) finds over the run order's names: an op is the last
    reader of each operand that no later op reads before it is written
    again. A temporary leaves the result there, and its limbs'
    decompositions leave the registry once the op has run, each evaluation
    they hand out going with the last slot that reads it. An operand a
    later op reads keeps its decompositions and their evaluations, so
    logreg's rotations of t0 share one until r7 has run. A name written
    again frees its older value; a name with no value is refused. Within
    an op, the same pass over its slots drops each slot's value after its
    last reader (`_Executor.run`), and the output's as the result is read off.
    """
    ex = _Executor(engine, program)
    ops = []
    for opp in program.ops:
        if opp.functional:
            names = opp.meta.get("vars", {})
            ops.append((opp, [names.get(var, var) for var in opp.inputs], names.get("out", "out")))
    order = _run_order([(reads, out) for _, reads, out in ops], variables)
    last = dict(zip(order, _last_uses([(ops[i][1], [ops[i][2]]) for i in order])))
    writes = Counter(out for _, _, out in ops)
    live = dict(variables)
    for i in order:
        opp, reads, out = ops[i]
        state: dict = {}
        if unset := [name for name in reads if name not in live]:
            raise ArchSimError(f"{opp.name} reads {unset[0]!r}, which no executed op wrote "
                               "and the caller did not supply")
        operands = [live[name] for name in reads]
        for binding, name, value in zip(opp.inputs.values(), reads, operands):
            ex.seed(state, binding, value, name not in last[i])
        # a sum keeps its operands' common scale, a product multiplies them
        # and a rescale divides by the dropped prime
        scale = operands[0].scale
        for other in operands[1:]:
            if opp.kind not in ("add", "sub"):
                scale = scale * other.scale
            elif other.scale != scale:
                raise ArchSimError("operand scales differ")
        if opp.kind == "rescale":
            scale = scale / engine.drop_scale(opp.meta["level"])
        ex.run(opp, state)
        for name in reads:
            if name in last[i] and writes[name] == 1 and name not in variables:
                live.pop(name, None)
        live[out] = ex.read_ct(state, opp.outputs["out"], scale)
    return live
