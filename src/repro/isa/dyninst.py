"""Dynamic instruction (in-flight micro-op) representation.

A :class:`DynInst` is created at fetch for every instruction entering the
pipeline — including wrong-path instructions, which the simulator fetches,
renames and executes for timing fidelity exactly as the paper's simulator
does ("accurately models the wrong path", Section IV).

The class uses ``__slots__`` because the core allocates one instance per
fetched micro-op and simulations run for tens of thousands of instructions.

Lifetime rule: a micro-op must die by reference count the moment it leaves
the pipeline, never by the cyclic garbage collector.  Five links can close
a reference cycle between micro-ops (and through a predicated branch's
:class:`~repro.core.predication.RegionRecord`); the core cuts each one to
``None`` at the point where it provably never reads it again:

* ``consumers`` once completion has woken them (nothing appends to a
  producer at or past ``ST_DONE``);
* ``rat_checkpoint``, ``prev_writer``, ``forced_producers`` and ``region``
  at retirement (``consumers`` is already gone by then);
* all five at squash, for micro-ops flushed from the fetch queue or ROB.

The remaining references between micro-ops then only point from live to
dead, so the trace ring, the retire log and the RAT may keep retired
micro-ops without forming cycles.  ``CoreConfig(debug_checks=True)``
enforces the rule (:class:`~repro.validate.checker.InvariantChecker`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.isa.instruction import Instruction

# Roles inside a predicated (ACB / DMP / DHP) region.
ROLE_NONE = 0      # not part of any predicated region
ROLE_BRANCH = 1    # the predicated branch itself
ROLE_BODY = 2      # instruction inside the predicated body
ROLE_JUMPER = 3    # the Jumper branch whose target is overridden
ROLE_RECONV = 4    # first instruction at the reconvergence point
ROLE_SELECT = 5    # select micro-op injected by DMP-style predication

# Pipeline states.
ST_FETCHED = 0
ST_ALLOCATED = 1
ST_ISSUED = 2
ST_DONE = 3
ST_RETIRED = 4
ST_SQUASHED = 5

#: The links the core cuts under the lifetime rule above.
CYCLE_LINKS = ("consumers", "rat_checkpoint", "prev_writer", "forced_producers", "region")


class DynInst:
    """One in-flight dynamic micro-op."""

    __slots__ = (
        "seq",
        "instr",
        "pc",
        "wrong_path",
        # --- branch semantics -------------------------------------------------
        "pred_taken",
        "taken",
        "predicted",        # True when a real branch prediction was made
        "hist_checkpoint",  # predictor history checkpoint for recovery
        "rat_checkpoint",   # RAT snapshot for flush recovery
        # --- memory semantics -------------------------------------------------
        "mem_addr",
        # --- predication ------------------------------------------------------
        "acb_id",        # id of the predicated context, or -1
        "acb_role",      # ROLE_* constant
        "body_dir",      # True if on the taken-path side of the region
        "pred_false",    # resolved: instruction sits on the predicated-false path
        "diverged",      # context failed to reconverge; forces a flush
        # --- renaming / scheduling -------------------------------------------
        "deps",          # number of outstanding producers
        "consumers",     # DynInsts waiting on this one
        "forced_producers",  # extra producers added by predication machinery
        "hold",          # may not issue until the front-end releases it
        "resume_pc",     # correct-path PC to refetch after a flush at this branch
        "prev_writer",   # last writer of dst before this inst (transparency)
        "rewired",       # false-path inst rewired to (branch, prev_writer) deps
        "transparent",   # executes as a 1-cycle move (predicated-false path)
        "bp_meta",       # predictor metadata threaded into update()
        "region",        # predicated-region record (ROLE_BRANCH only)
        "state",
        "fetch_cycle",
        "alloc_cycle",
        "issue_cycle",
        "done_cycle",
        "retire_cycle",
        "squash_cycle",
        "lsq_index",
    )

    def __init__(self, seq: int, instr: "Instruction", wrong_path: bool = False):
        # one instance per fetched micro-op: defaults with a shared value
        # are chained so each constant is loaded once (types are documented
        # on ``__slots__`` above).
        self.seq = seq
        self.instr = instr
        self.pc = instr.pc
        self.wrong_path = wrong_path

        self.pred_taken = self.taken = None
        self.hist_checkpoint = self.rat_checkpoint = self.mem_addr = None
        self.forced_producers = self.resume_pc = self.prev_writer = None
        self.bp_meta = self.region = None
        self.predicted = self.body_dir = self.pred_false = False
        self.diverged = self.hold = self.rewired = self.transparent = False

        self.acb_id = -1
        self.acb_role = ROLE_NONE
        self.deps = 0
        self.consumers: List["DynInst"] = []
        self.state = ST_FETCHED
        self.fetch_cycle = self.alloc_cycle = self.issue_cycle = -1
        self.done_cycle = self.retire_cycle = self.squash_cycle = -1
        self.lsq_index = -1

    # ------------------------------------------------------------------
    @property
    def is_predicated(self) -> bool:
        """``True`` when this micro-op belongs to a predicated region."""
        return self.acb_id >= 0

    @property
    def mispredicted(self) -> bool:
        """``True`` when a prediction was made and turned out wrong.

        Predicated branch instances never count: no real prediction was
        consumed, which is also why they are withheld from the global
        history (Section V-C).
        """
        return (
            self.predicted
            and self.taken is not None
            and self.pred_taken is not None
            and self.taken != self.pred_taken
        )

    @property
    def squashed(self) -> bool:
        return self.state == ST_SQUASHED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = []
        if self.wrong_path:
            flags.append("WP")
        if self.is_predicated:
            flags.append(f"acb={self.acb_id}:{self.acb_role}")
        return f"<DynInst #{self.seq} pc={self.pc} {self.instr.uop.name} {' '.join(flags)}>"
