"""Simulation statistics.

``instructions`` counts *architectural* (correct-path, non-transparent)
instructions so IPC is comparable across baseline and predicated runs: a
predicated-false-path micro-op retires but performs no program work, exactly
as in the paper's accounting (its performance metric is IPC of the program,
while its power argument counts *allocations*, which we track separately).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict


@dataclass
class BranchPCStats:
    """Per-static-branch profile (drives characterization and DMP profiling)."""

    executed: int = 0
    mispredicted: int = 0
    predicated: int = 0

    @property
    def mispred_rate(self) -> float:
        return self.mispredicted / self.executed if self.executed else 0.0

    def to_dict(self) -> Dict[str, int]:
        return {
            "executed": self.executed,
            "mispredicted": self.mispredicted,
            "predicated": self.predicated,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "BranchPCStats":
        return cls(**data)


@dataclass
class SimStats:
    """Counters accumulated by one simulation run."""

    cycles: int = 0
    instructions: int = 0          # architectural instructions retired
    retired_uops: int = 0          # everything that retired (incl. false path)
    fetched: int = 0               # all fetches incl. wrong path
    allocated: int = 0             # all OOO allocations incl. wrong path
    wrong_path_allocated: int = 0

    select_uops: int = 0           # select micro-ops injected at the merge point
    branches: int = 0              # correct-path conditional branches resolved
    mispredicts: int = 0           # resolved wrong predictions (flushes)
    divergence_flushes: int = 0    # ACB instances that failed to reconverge
    predicated_instances: int = 0  # dynamic predications performed
    predicated_saved_flushes: int = 0  # predicated instances that would have flushed

    alloc_stall_cycles: int = 0    # allocation blocked by a full resource
    fetch_stall_cycles: int = 0    # fetch blocked (redirect wait / queue full)
    empty_rob_cycles: int = 0

    loads: int = 0
    stores: int = 0
    load_latency_total: int = 0

    per_branch: Dict[int, BranchPCStats] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def flushes(self) -> int:
        """Total pipeline flushes (mis-speculation + divergence)."""
        return self.mispredicts + self.divergence_flushes

    @property
    def mpki(self) -> float:
        """Mispredictions per kilo-instruction."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.mispredicts / self.instructions

    @property
    def avg_load_latency(self) -> float:
        return self.load_latency_total / self.loads if self.loads else 0.0

    def branch_pc(self, pc: int) -> BranchPCStats:
        if pc not in self.per_branch:
            self.per_branch[pc] = BranchPCStats()
        return self.per_branch[pc]

    # -- serialization (experiment store, service API) ---------------
    def to_dict(self) -> Dict:
        """JSON-serializable form; inverse of :meth:`from_dict`."""
        out = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "per_branch"
        }
        # JSON object keys must be strings; PCs are ints.
        out["per_branch"] = {str(pc): s.to_dict() for pc, s in self.per_branch.items()}
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "SimStats":
        """Rebuild from :meth:`to_dict` output; unknown keys are ignored
        and missing counters keep their defaults."""
        stats = cls(**{k: v for k, v in data.items() if k in _COUNTER_NAMES})
        per_branch = data.get("per_branch")
        if per_branch:
            stats.per_branch = {
                int(pc): BranchPCStats(**s) for pc, s in per_branch.items()
            }
        return stats

    def summary(self) -> Dict[str, float]:
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "ipc": round(self.ipc, 4),
            "mpki": round(self.mpki, 3),
            "flushes": self.flushes,
            "predicated": self.predicated_instances,
            "divergences": self.divergence_flushes,
            "allocated": self.allocated,
            "alloc_stalls": self.alloc_stall_cycles,
        }


#: the scalar counters :meth:`SimStats.from_dict` accepts, computed once
#: because store reads decode a row per cell
_COUNTER_NAMES = frozenset(
    f.name for f in fields(SimStats) if f.name != "per_branch"
)
