"""Pipeline invariant checker, attached to a core via ``debug_checks``.

The engine calls into the checker at the points where its delicate state
transitions happen — every cycle, every retirement, every flush, and every
predicated-region lifecycle event — and the checker asserts the invariants
the rest of the repository's results silently depend on:

* the ROB retires in ``seq`` order, and only ``ST_DONE`` micro-ops;
* no squashed or wrong-path micro-op ever retires;
* predicated-false micro-ops retire only as transparent moves, never as
  architectural work (they are excluded from the instruction count and the
  retirement trace; stores on the false path never reach memory);
* the RAT never maps a logical register to a squashed micro-op — in
  particular right after a flush restores a checkpoint;
* ROB/IQ/LQ/SQ occupancy accounting matches the ROB's actual contents, and
  the store queue stays a program-ordered subsequence of the ROB that drains
  strictly in order;
* every opened predicated region is eventually closed (reconverged or
  diverged) or cancelled by an older flush — none leak;
* micro-ops obey the lifetime rule of :mod:`repro.isa.dyninst`: a
  completed micro-op no longer holds its ``consumers`` list, and one that
  retired or was squashed holds none of the ``CYCLE_LINKS``.

A violated invariant raises :class:`InvariantViolation` immediately with a
cycle-stamped description; the differential fuzz driver treats it exactly
like a retirement-trace mismatch and shrinks the offending program.

The checker is pure observation: it never mutates core state, so a run with
``debug_checks=True`` is cycle-for-cycle identical to one without (just
slower — see docs/validation.md for the overhead note).
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Dict, List

from repro.isa.dyninst import (
    CYCLE_LINKS,
    ROLE_BODY,
    ROLE_JUMPER,
    ST_ALLOCATED,
    ST_DONE,
    ST_RETIRED,
    ST_SQUASHED,
    DynInst,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import Core
    from repro.core.predication import RegionRecord


class InvariantViolation(AssertionError):
    """A pipeline invariant failed; the message carries full context."""


# Region lifecycle states tracked by the checker.
_OPEN = "open"
_CLOSED = "closed"        # front end reconverged
_DIVERGED = "diverged"    # declared divergent; resolves via flush
_CANCELLED = "cancelled"  # squashed by an older flush


class InvariantChecker:
    """Asserts pipeline invariants for one :class:`Core` instance."""

    def __init__(self, core: "Core"):
        # the core owns its checker: a weak proxy back, as in
        # PredicationScheme.attach, lets a dropped core die by refcount
        self.core = weakref.proxy(core)
        self.checks = 0                 # total invariant evaluations
        self.last_retired_seq = -1
        self.retired_pred_false = 0
        self.regions_opened = 0
        self._region_state: Dict[int, str] = {}   # branch seq -> lifecycle
        self._open_seq = None                     # seq of the open region
        self._in_flight: List[DynInst] = []       # fetchq + ROB at last scan

    # ------------------------------------------------------------------
    def _fail(self, message: str, dyn: DynInst = None) -> None:
        core = self.core
        detail = f" inst={dyn!r}" if dyn is not None else ""
        raise InvariantViolation(
            f"[cycle {core.cycle}] {message}{detail} "
            f"(rob={len(core.rob)} sq={len(core.sq)} iq={core.iq_count} "
            f"lq={core.lq_count} region_open={core.region is not None})"
        )

    # ------------------------------------------------------------------
    # Retirement
    # ------------------------------------------------------------------
    def on_retire(self, dyn: DynInst) -> None:
        """Called for every micro-op the moment it leaves the ROB head."""
        self.checks += 1
        if dyn.state != ST_DONE:
            self._fail(f"retiring micro-op in state {dyn.state}, not DONE", dyn)
        if dyn.wrong_path:
            self._fail("wrong-path micro-op reached retirement", dyn)
        if dyn.seq <= self.last_retired_seq:
            self._fail(
                f"out-of-order retirement: seq {dyn.seq} after "
                f"{self.last_retired_seq}",
                dyn,
            )
        self.last_retired_seq = dyn.seq
        if dyn.pred_false:
            self.retired_pred_false += 1
            if not dyn.transparent:
                self._fail("predicated-false micro-op retired opaque", dyn)
            if dyn.acb_role not in (ROLE_BODY, ROLE_JUMPER):
                self._fail(
                    f"predicated-false micro-op with role {dyn.acb_role}", dyn
                )
            if dyn.acb_id < 0:
                self._fail("predicated-false micro-op outside any region", dyn)
        if dyn.instr.is_store:
            sq = self.core.sq
            if not sq or sq[0] is not dyn:
                self._fail("store retiring out of store-queue order", dyn)

    # ------------------------------------------------------------------
    # Per-cycle structural scan
    # ------------------------------------------------------------------
    def on_cycle(self) -> None:
        """Full structural consistency scan, run after every cycle."""
        self.checks += 1
        core = self.core
        prev_seq = -1
        allocated = loads = stores = 0
        for dyn in core.rob:
            if dyn.seq <= prev_seq:
                self._fail("ROB not in program (seq) order", dyn)
            prev_seq = dyn.seq
            if dyn.state in (ST_SQUASHED, ST_RETIRED):
                self._fail(f"ROB holds a state-{dyn.state} micro-op", dyn)
            if dyn.state == ST_ALLOCATED:
                allocated += 1
            elif dyn.state == ST_DONE and dyn.consumers is not None:
                self._fail("completed micro-op still holds its consumers", dyn)
            if dyn.instr.is_load:
                loads += 1
            elif dyn.instr.is_store:
                stores += 1
        if core.iq_count != allocated:
            self._fail(
                f"iq_count drift: counter={core.iq_count} "
                f"actual allocated-in-ROB={allocated}"
            )
        if core.lq_count != loads:
            self._fail(
                f"lq_count drift: counter={core.lq_count} actual loads={loads}"
            )
        if len(core.sq) != stores:
            self._fail(
                f"store queue size {len(core.sq)} != stores in ROB {stores}"
            )
        prev_seq = -1
        for store in core.sq:
            if store.seq <= prev_seq:
                self._fail("store queue not in program order", store)
            prev_seq = store.seq
            if store.state in (ST_SQUASHED, ST_RETIRED):
                self._fail(
                    f"store queue holds a state-{store.state} micro-op", store
                )
        self._check_rat()
        self._check_departed()

    def _check_departed(self) -> None:
        """Micro-ops that left the pipeline since the last scan (every one
        was in the fetch queue or the ROB then) must have cut their links."""
        for dyn in self._in_flight:
            if dyn.state >= ST_RETIRED:
                for link in CYCLE_LINKS:
                    if getattr(dyn, link) is not None:
                        self._fail(
                            f"state-{dyn.state} micro-op still holds {link}", dyn
                        )
        core = self.core
        self._in_flight = [*core.fetchq, *core.rob]

    def _check_rat(self) -> None:
        for reg, entry in enumerate(self.core.rat):
            if entry is not None and entry.state == ST_SQUASHED:
                self._fail(f"RAT maps r{reg} to a squashed micro-op", entry)

    # ------------------------------------------------------------------
    # Flush recovery
    # ------------------------------------------------------------------
    def on_flush(self, branch: DynInst) -> None:
        """Called at the end of every flush, after recovery completed."""
        self.checks += 1
        core = self.core
        if core.fetchq:
            self._fail("fetch queue not emptied by flush")
        if core.rob and core.rob[-1].seq > branch.seq:
            self._fail(
                f"ROB still holds seq {core.rob[-1].seq} younger than "
                f"flushed branch {branch.seq}"
            )
        for reg, entry in enumerate(core.rat):
            if entry is None:
                continue
            if entry.state == ST_SQUASHED:
                self._fail(
                    f"post-flush RAT maps r{reg} to a squashed micro-op", entry
                )
            if entry.seq > branch.seq:
                self._fail(
                    f"post-flush RAT maps r{reg} to seq {entry.seq}, younger "
                    f"than flushed branch {branch.seq}",
                    entry,
                )
        for store in core.sq:
            if store.seq > branch.seq:
                self._fail(
                    "post-flush store queue holds a squashed-range store", store
                )
        if core.region is not None:
            self._fail("predicated region left open across a flush")
        for seq in core.unresolved_regions:
            if seq > branch.seq:
                self._fail(
                    f"unresolved region {seq} younger than flushed branch "
                    f"{branch.seq} survived the flush"
                )

    # ------------------------------------------------------------------
    # Predicated-region lifecycle
    # ------------------------------------------------------------------
    def on_region_open(self, region: "RegionRecord") -> None:
        self.checks += 1
        seq = region.branch.seq
        if seq in self._region_state:
            self._fail(f"region {seq} opened twice", region.branch)
        if self._open_seq is not None:
            self._fail("second region opened while one is already open")
        self._region_state[seq] = _OPEN
        self._open_seq = seq
        self.regions_opened += 1

    def on_region_close(self, region: "RegionRecord", diverged: bool) -> None:
        self.checks += 1
        seq = region.branch.seq
        state = self._region_state.get(seq)
        if state is None:
            self._fail(f"region {seq} closed but never opened", region.branch)
        if state == _OPEN:
            self._region_state[seq] = _DIVERGED if diverged else _CLOSED
            self._open_seq = None
        elif diverged and state == _CLOSED:
            # a closed region torn by a later flush diverges at resolution
            self._region_state[seq] = _DIVERGED

    def on_region_cancel(self, region: "RegionRecord") -> None:
        """Region squashed wholesale by a flush older than its branch."""
        self.checks += 1
        seq = region.branch.seq
        self._region_state[seq] = _CANCELLED
        if self._open_seq == seq:
            self._open_seq = None

    # ------------------------------------------------------------------
    def final_check(self) -> None:
        """End-of-run audit: no region leaked, counters consistent.

        Call after the simulation finishes (the fuzz driver and tests do).
        The single region still open at the stop cycle — if any — is fine;
        anything else must have reached a terminal state.
        """
        self.checks += 1
        core = self.core
        open_seq = core.region.branch.seq if core.region is not None else None
        for seq, state in self._region_state.items():
            if state == _OPEN and seq != open_seq:
                self._fail(
                    f"region {seq} was opened but never closed, diverged, "
                    f"or cancelled"
                )
        for seq in core.unresolved_regions:
            if seq not in self._region_state:
                self._fail(f"unresolved region {seq} was never tracked as opened")
        self.on_cycle()

    def summary(self) -> Dict[str, int]:
        return {
            "checks": self.checks,
            "regions_opened": self.regions_opened,
            "retired_pred_false": self.retired_pred_false,
        }
