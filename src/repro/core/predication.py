"""Dynamic-predication interface between the core and a scheme (ACB/DMP/DHP).

The core owns the *mechanics* of predication — dual-path fetch with jumper
override, divergence timeouts, stall-until-resolve dependencies, register
transparency, select-micro-op injection — because they are pipeline
plumbing.  A :class:`PredicationScheme` owns the *policy*: which dynamic
branch instances to predicate, where their reconvergence point is, and any
learning/throttling state.  ACB, DMP and DHP are all schemes over the same
mechanics, mirroring how the paper frames them as points in one design
space.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.branch.base import Prediction
from repro.isa.dyninst import DynInst

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import Core


@dataclass
class PredicationPlan:
    """Instructions from a scheme for predicating one dynamic branch instance.

    Attributes
    ----------
    reconv_pc:
        Learned/known reconvergence point.
    conv_type:
        1, 2 or 3 per Figure 3.  Type 1 fetches a single segment (the
        not-taken body) and falls into the reconvergence point; Types 2/3
        redirect at the Jumper branch to fetch the second path.
    first_taken:
        Direction fetched first: ``False`` (not-taken) for Types 1/2,
        ``True`` for Type 3 (Section III-C1).
    eager:
        DMP-style: body instructions execute before the branch resolves and
        select micro-ops reconcile values at the reconvergence point.  When
        ``False`` (ACB), the body is stalled on the branch and the
        predicated-false path becomes transparent moves.
    select_uops:
        Inject one select micro-op per region live-out at the reconvergence
        point (DMP; also ACB's optional select-uop variant, Section V-C).
    max_fetch / max_cycles:
        Divergence thresholds: fetched instructions beyond which, or cycles
        after which, the instance is declared divergent and flushed.
    source:
        Which learner produced the reconvergence point: ``"static"`` for
        the fetch-stream scanner (and the CFG-reading baselines),
        ``"dmp"`` for the dynamic merge-point table.  Purely a
        provenance label for tracing/diagnostics — the region mechanics
        are identical.
    """

    branch_pc: int
    reconv_pc: int
    conv_type: int
    first_taken: bool
    eager: bool = False
    select_uops: bool = False
    max_fetch: int = 96
    max_cycles: int = 400
    source: str = "static"


@dataclass
class RegionRecord:
    """Run-time state of one in-flight predicated region.

    The branch holds its record through ``DynInst.region`` and the record
    holds the branch back; the core cuts ``branch.region`` when the branch
    retires or is squashed (the lifetime rule in :mod:`repro.isa.dyninst`),
    so a record dies by reference count once the core drops it too.
    """

    plan: PredicationPlan
    branch: DynInst
    true_taken: Optional[bool]          # architectural outcome (known at fetch)
    func_snapshot: Optional[tuple]      # functional rewind point (divergence)
    segment: int = 1                    # 1 = first fetched path, 2 = second
    seg_taken: bool = False             # direction of the current segment
    fetched: int = 0                    # region instructions fetched so far
    opened_cycle: int = 0
    closed: bool = False
    body: List[DynInst] = field(default_factory=list)
    # last writer per logical register on each side, for select uops:
    writers_taken: Dict[int, DynInst] = field(default_factory=dict)
    writers_nt: Dict[int, DynInst] = field(default_factory=dict)

    @property
    def seg_is_true(self) -> bool:
        """Is the currently fetched segment the architecturally true path?"""
        return self.true_taken is not None and self.seg_taken == self.true_taken


class PredicationScheme:
    """Base class for predication policies; default = never predicate."""

    name = "none"
    #: push the *actual* outcome into the global history when predicating —
    #: only the DMP-PBH oracle (Fig. 9) sets this.
    updates_history_on_predication = False

    def attach(self, core: "Core") -> None:
        """Called once by the core before simulation starts.

        The core owns its scheme, so the scheme keeps only a weak proxy
        back: a strong one would leave every finished core (its caches and
        predictor tables included) for the cyclic collector to free.
        """
        self.core = weakref.proxy(core)

    def consider(self, dyn: DynInst, prediction: Prediction) -> Optional[PredicationPlan]:
        """Decide whether to predicate this dynamic instance.

        Called for every correct-path conditional branch fetched outside an
        open region.  *prediction* is the branch predictor's output (used by
        confidence-gated schemes); returning a plan discards it.
        """
        return None

    def observe_fetch(self, dyn: DynInst) -> None:
        """Called for every fetched instruction (convergence learning)."""

    def on_branch_resolved(
        self, dyn: DynInst, mispredicted: bool, predicated: bool
    ) -> None:
        """Called when a correct-path conditional branch executes."""

    def on_region_closed(self, region: RegionRecord, diverged: bool) -> None:
        """Called when the front end closes a region (reconverged or not)."""

    def on_flush(self) -> None:
        """Called on every pipeline flush.

        Fetch-stream observers (convergence learning/tracking) must abort
        any in-progress scan: the post-flush stream is a different path and
        splicing it onto the pre-flush stream fabricates convergence.
        """

    def on_retire(self, dyn: DynInst) -> None:
        """Called at every retirement (drives Dynamo's epochs)."""

    def storage_bytes(self) -> float:
        """Hardware budget of the scheme's tables (Table I)."""
        return 0.0


def region_live_outs(
    region: RegionRecord, cap: int = 8
) -> List[Tuple[int, Optional[DynInst], Optional[DynInst]]]:
    """Registers written in the region, with each side's last writer.

    Used to synthesize select micro-ops; capped because real DMP hardware
    bounds the number of selects it injects.
    """
    regs = sorted(set(region.writers_taken) | set(region.writers_nt))[:cap]
    return [
        (r, region.writers_taken.get(r), region.writers_nt.get(r))
        for r in regs
    ]
