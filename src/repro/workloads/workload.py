"""Workload = static program + behaviours, and its functional executor.

The functional executor advances architectural control flow along the
*correct* path only, one instruction per :meth:`FunctionalExecutor.step`.
The timing simulator drives it from fetch: correct-path fetches step the
executor; wrong-path and predicated-false-path fetches do not.  Snapshots
support rewinding to the start of a predicated region when an ACB instance
diverges and must be refetched (Section III-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Tuple

from repro.program.program import Program
from repro.workloads.behaviors import (
    BranchBehavior,
    MemBehavior,
    WorkloadState,
    make_default_mem,
)

#: step-table row kinds (:meth:`Workload.step_rows`)
STEP_PLAIN = 0
STEP_COND = 1
STEP_JUMP = 2
STEP_MEM = 3


@dataclass
class Workload:
    """A runnable synthetic workload.

    Parameters
    ----------
    name, category:
        Identification; *category* matches the paper's Table III groups
        (``ISPEC``, ``FSPEC``, ``SPEC17``, ``SYSmark``, ``Client``,
        ``Server``).
    program:
        The static code.
    behaviors:
        Registry mapping behaviour names referenced by instructions to
        behaviour objects.
    seed:
        Seed of the functional random stream (the workload's "input set").
    paper_tag:
        Optional tag tying the workload to a named paper outlier or category
        letter (``lammps``, ``soplex``, ``omnetpp``, ``A``…``E``).
    """

    name: str
    category: str
    program: Program
    behaviors: Dict[str, object]
    seed: int = 1
    description: str = ""
    paper_tag: str = ""
    #: optional profiling input (different behaviour parameters) used by the
    #: DMP baseline's compiler pass — the train/test mismatch of Section II.
    train: Optional["Workload"] = None
    _mem_defaults: Dict[int, MemBehavior] = field(default_factory=dict, repr=False)
    #: lazily-built dense decode table (:meth:`step_rows`), shared by every
    #: executor over this workload.
    _step_rows: Optional[list] = field(default=None, repr=False)

    def mem_behavior(self, pc: int) -> MemBehavior:
        """Behaviour for the memory instruction at *pc* (default: strided)."""
        key = self.program[pc].behavior
        if key is not None and key in self.behaviors:
            behavior = self.behaviors[key]
            if not isinstance(behavior, MemBehavior):
                raise TypeError(f"behaviour {key!r} at pc={pc} is not a MemBehavior")
            return behavior
        if pc not in self._mem_defaults:
            self._mem_defaults[pc] = make_default_mem(pc)
        return self._mem_defaults[pc]

    def branch_behavior(self, pc: int) -> BranchBehavior:
        key = self.program[pc].behavior
        behavior = self.behaviors.get(key) if key else None
        if not isinstance(behavior, BranchBehavior):
            raise KeyError(f"conditional branch at pc={pc} has no branch behaviour")
        return behavior

    # -- structure-of-arrays step table ---------------------------------
    def step_rows(self) -> list:
        """Dense per-pc decode table for functional stepping.

        One slot per static instruction, filled on first execution of that
        pc: ``(kind, target, fallthrough, behavior)`` with *kind* one of
        :data:`STEP_PLAIN` / :data:`STEP_COND` / :data:`STEP_JUMP` /
        :data:`STEP_MEM`.  A flat list indexed by pc replaces the per-pc
        dict memos the executor used to keep, and because the table lives
        on the workload it is built once no matter how many executors run
        the program.  Rows are filled lazily so a misconfigured
        instruction that is never executed keeps raising only when reached,
        exactly as before.
        """
        if self._step_rows is None:
            self._step_rows = [None] * len(self.program.instructions)
        return self._step_rows

    def decode_step(self, pc: int) -> tuple:
        """Build the :meth:`step_rows` row for *pc*."""
        instr = self.program[pc]
        if instr.is_cond_branch:
            return (STEP_COND, instr.target, instr.fallthrough,
                    self.branch_behavior(pc))
        if instr.is_branch:
            return (STEP_JUMP, instr.target, 0, None)
        if instr.is_mem:
            return (STEP_MEM, 0, instr.fallthrough, self.mem_behavior(pc))
        return (STEP_PLAIN, 0, instr.fallthrough, None)


class StepResult(NamedTuple):
    """Functional outcome of one correct-path instruction.

    A ``NamedTuple`` rather than a frozen dataclass: one is created per
    simulated instruction, and tuple construction skips the per-field
    ``object.__setattr__`` a frozen dataclass pays.
    """

    taken: Optional[bool]     # branches only
    next_pc: int
    mem_addr: Optional[int]   # loads/stores only


class FunctionalExecutor:
    """Architectural (timing-free) execution along the correct path."""

    def __init__(self, workload: Workload, seed_offset: int = 0):
        self.workload = workload
        self.program = workload.program
        self.state = WorkloadState(workload.seed + seed_offset)
        self.next_pc = 0
        # dense per-pc decode rows, shared through the workload: one list
        # index replaces the instruction attribute tests and behaviour
        # registry lookups in the one-call-per-instruction hot path, and
        # every executor over this workload reuses the same filled rows.
        self._rows = workload.step_rows()

    @property
    def instr_count(self) -> int:
        """Correct-path instructions executed so far."""
        return self.state.instr_count

    def step(self, pc: int) -> StepResult:
        """Execute the instruction at *pc*, which must be the next correct PC."""
        return StepResult(*self.step_fast(pc))

    def step_fast(self, pc: int) -> tuple:
        """:meth:`step` returning a bare ``(taken, next_pc, mem_addr)``.

        The cycle engine calls this once per correct-path fetch and unpacks
        the tuple immediately, so it skips the StepResult construction.
        """
        if pc != self.next_pc:
            raise RuntimeError(
                f"functional stream out of sync: expected pc={self.next_pc}, got {pc}"
            )
        state = self.state
        row = self._rows[pc]
        if row is None:
            row = self.workload.decode_step(pc)
            self._rows[pc] = row
        kind, target, fallthrough, beh = row
        taken: Optional[bool] = None
        mem_addr: Optional[int] = None
        if kind == STEP_COND:
            taken = beh.resolve(state)
            nxt = target if taken else fallthrough
        elif kind == STEP_JUMP:
            taken = True
            nxt = target
        else:
            nxt = fallthrough
            if kind == STEP_MEM:
                mem_addr = beh.address(state)
        state.instr_count += 1
        self.next_pc = nxt
        return (taken, nxt, mem_addr)

    # -- rewind support ---------------------------------------------------
    def snapshot(self) -> Tuple[int, tuple]:
        return (self.next_pc, self.state.snapshot())

    def restore(self, snap: Tuple[int, tuple]) -> None:
        self.next_pc, state_snap = snap
        self.state.restore(state_snap)
