"""Cycle-level out-of-order core simulator.

Models the pipeline of the paper's Table II machine: fetch with branch
prediction and full wrong-path execution, rename with RAT checkpoints, ROB /
issue-queue / load-store-queue resources, port-constrained oldest-first
issue, store→load forwarding with conservative memory disambiguation,
in-order retirement, and misprediction flush/recovery.  Dynamic predication
mechanics (dual-path fetch, jumper override, divergence, register
transparency, select micro-ops) are built in and driven by a
:class:`~repro.core.predication.PredicationScheme`.

Functional execution advances along the correct path only (trace-driven
style): a correct-path fetch steps the :class:`FunctionalExecutor`; fetch
follows predictions onto the wrong path without stepping it, and flush
recovery resumes the correct path where it left off.  Divergent predicated
regions rewind the executor through snapshots.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, List, Optional

from repro.branch import BranchTargetBuffer, make_predictor
from repro.core.config import SKYLAKE_LIKE, CoreConfig
from repro.core.predication import (
    PredicationPlan,
    PredicationScheme,
    RegionRecord,
    region_live_outs,
)
from repro.core.stats import SimStats
from repro.isa import Instruction, UopClass
from repro.isa.dyninst import (
    ROLE_BODY,
    ROLE_BRANCH,
    ROLE_JUMPER,
    ROLE_SELECT,
    ST_ALLOCATED,
    ST_DONE,
    ST_ISSUED,
    ST_RETIRED,
    ST_SQUASHED,
    DynInst,
)
from repro.memory import MemoryHierarchy
from repro.validate.events import RetireEvent
from repro.workloads.workload import FunctionalExecutor, Workload

_WRONG_PATH_MEM_BASE = 1 << 32
_WRONG_PATH_MEM_MASK = (1 << 24) - 64  # 16 MB, line aligned


class DeadlockError(RuntimeError):
    """Raised when the pipeline makes no forward progress."""


class Core:
    """One simulated out-of-order core running one workload."""

    def __init__(
        self,
        workload: Workload,
        config: CoreConfig = SKYLAKE_LIKE,
        scheme: Optional[PredicationScheme] = None,
        predictor: Optional[str] = None,
        seed_offset: int = 0,
    ):
        config.validate()
        self.workload = workload
        self.program = workload.program
        self._instrs = workload.program.instructions  # direct tuple for fetch
        self.config = config
        self.func = FunctionalExecutor(workload, seed_offset)
        self.bp = make_predictor(predictor or config.predictor)
        self.btb = BranchTargetBuffer(config.btb_sets, config.btb_ways)
        self.mem = MemoryHierarchy(config.memory)
        self.stats = SimStats()
        # trace collector (repro.trace): None keeps every hook to a single
        # `is not None` test.  Created before the scheme attaches so the
        # scheme can wire its own machinery (e.g. Dynamo) to the collector.
        self.trace = None
        if config.trace is not None:
            from repro.trace.collector import TraceCollector

            self.trace = TraceCollector(config.trace)
        self.scheme = scheme
        if scheme is not None:
            scheme.attach(self)

        # pipeline state
        self.cycle = 0
        self._seq = 0
        self.fetch_pc = 0
        self.on_correct_path = True
        self.fetch_resume_cycle = 0     # fetch blocked until this cycle
        self.fetch_halted = False       # divergence: wait for the flush
        self.fetchq: deque = deque()
        self.rob: deque = deque()
        self.iq_count = 0
        self.sq: deque = deque()        # stores in program order (head oldest)
        self.lq_count = 0
        self.rat: List[Optional[DynInst]] = [None] * 17
        # completion events as one heap of (cycle, seq, dyn): draining the
        # heap visits a cycle's events oldest-first, exactly the order the
        # old per-cycle bucket dict produced after its seq sort, and the
        # idle-skip reads the next event cycle in O(1) from the heap top.
        self._eventq: List = []
        self._ready: List = []          # heap of (seq, DynInst)
        self._blocked_loads: List[DynInst] = []
        self.region: Optional[RegionRecord] = None        # open at fetch
        self.unresolved_regions: Dict[int, RegionRecord] = {}
        self._last_retire_cycle = 0
        self.retire_log: Optional[List[DynInst]] = None
        self._retire_log_cap = 0
        self._cycle_offset = 0
        self.arch_trace: Optional[List[RetireEvent]] = None
        self._arch_trace_cap = 0
        self.checker = None
        if config.debug_checks:
            from repro.validate.checker import InvariantChecker

            self.checker = InvariantChecker(self)

        # hot-loop constants hoisted out of the per-cycle stages.
        # CoreConfig is frozen, so these cannot drift from self.config.
        self._fetch_width = config.fetch_width
        self._fetch_queue = config.fetch_queue
        self._alloc_width = config.alloc_width
        self._retire_width = config.retire_width
        self._rob_size = config.rob_size
        self._iq_size = config.iq_size
        self._lq_size = config.lq_size
        self._sq_size = config.sq_size
        self._ports_items = tuple(config.ports.items())
        self._issue_budget = sum(config.ports.values())

    # ==================================================================
    # Public driver
    # ==================================================================
    def run(self, max_instructions: int, max_cycles: Optional[int] = None) -> SimStats:
        """Simulate until *max_instructions* architectural retirements
        (within the current measurement window).

        The loop body is an inlined :meth:`step` with a per-stage guard in
        front of each stage call, so a stage that provably has no work this
        cycle costs one queue test instead of a method call.  Each guard
        replicates the stage's own early-exit bookkeeping (``_retire``
        counts empty-ROB cycles), keeping ``run`` and an external
        ``step()`` loop bit-identical in SimStats.
        """
        budget = max_cycles if max_cycles is not None else max_instructions * 80 + 200_000
        cap = self.cycle + budget
        stats = self.stats
        fast_forward = self.config.fast_forward
        checker = self.checker
        rob = self.rob
        ready = self._ready
        eventq = self._eventq
        fetchq = self.fetchq
        retire = self._retire
        complete = self._complete
        issue = self._issue
        allocate = self._allocate
        fetch = self._fetch
        while stats.instructions < max_instructions:
            cycle = self.cycle
            if cycle >= cap:
                raise DeadlockError(
                    f"cycle cap hit at {cycle} "
                    f"({stats.instructions}/{max_instructions} instructions)"
                )
            if rob:
                if rob[0].state == ST_DONE:
                    retire()
            else:
                stats.empty_rob_cycles += 1
            if eventq and eventq[0][0] <= cycle:
                complete()
            if ready:
                issue()
            if fetchq:
                allocate()
            if self.fetch_halted or cycle < self.fetch_resume_cycle:
                # _fetch's stall path, sans call: count the stall; the
                # region-timeout tick only matters with an open region.
                if self.region is None:
                    stats.fetch_stall_cycles += 1
                else:
                    fetch()
            else:
                fetch()
            if checker is not None:
                checker.on_cycle()
            self.cycle = cycle + 1
            # cheap preconditions of _maybe_fast_forward, checked inline:
            # anything ready to issue (even a stale entry the full check
            # would lazily drop) or no pending event means no skip.  The
            # skip is stats-neutral by construction, so guarding it more
            # coarsely than the full check cannot change any counter.
            if fast_forward and eventq and not ready:
                self._maybe_fast_forward()
            if self.cycle - self._last_retire_cycle > 20_000:
                raise DeadlockError(self._deadlock_report())
        stats.cycles = self.cycle - self._cycle_offset
        return stats

    def _maybe_fast_forward(self) -> None:
        """Jump over cycles in which no pipeline stage can act.

        Safe only when every stage is provably idle until the next
        completion event: nothing ready to issue, the ROB head unfinished,
        no open predicated region (its timeout is cycle-based), and the
        front end unable to feed allocation — either fetch is blocked with
        an empty queue, or allocation is blocked on a back-end resource
        that only an event can free.  The per-cycle stall counters the idle
        loop would have produced are accounted identically.
        """
        # drop lazily-deleted entries so a stale heap doesn't mask idleness
        ready = self._ready
        while ready and (ready[0][1].state != ST_ALLOCATED or ready[0][1].hold):
            heapq.heappop(ready)
        if (
            ready
            or self.region is not None
            or not self.rob
            or self.rob[0].state == ST_DONE
            or not self._eventq
        ):
            return
        fetch_blocked = self.fetch_halted or self.cycle < self.fetch_resume_cycle
        if self.fetchq:
            # allocation must be blocked by a resource only completions free
            head = self.fetchq[0]
            cfg = self.config
            alloc_blocked = (
                len(self.rob) >= cfg.rob_size
                or self.iq_count >= cfg.iq_size
                or (head.instr.is_load and self.lq_count >= cfg.lq_size)
                or (head.instr.is_store and len(self.sq) >= cfg.sq_size)
            )
            if not alloc_blocked:
                return
            if not fetch_blocked and len(self.fetchq) < cfg.fetch_queue:
                return  # fetch would still make (queue) progress
            emulate_alloc_stall = True
        else:
            if not fetch_blocked:
                return
            emulate_alloc_stall = False

        skip_to = self._eventq[0][0]
        if not self.fetch_halted and self.fetch_resume_cycle > self.cycle:
            skip_to = min(skip_to, self.fetch_resume_cycle)
        skipped = skip_to - self.cycle
        if skipped <= 0:
            return
        # reproduce what the idle cycles would have counted
        self.stats.fetch_stall_cycles += skipped
        if emulate_alloc_stall:
            self.stats.alloc_stall_cycles += skipped
        self.cycle = skip_to

    def step(self) -> None:
        """Advance one cycle."""
        self._retire()
        self._complete()
        self._issue()
        self._allocate()
        self._fetch()
        if self.checker is not None:
            self.checker.on_cycle()
        self.cycle += 1

    def reset_stats(self) -> SimStats:
        """Start a fresh measurement window, keeping all learned state.

        Standard trace-slice methodology: run a warm-up period so the
        caches, predictor and (when present) the predication scheme's
        tables reach steady state, then measure a fresh window.  Returns
        the new stats object.
        """
        self.stats = SimStats()
        self._cycle_offset = self.cycle
        return self.stats

    def run_window(self, warmup: int, measure: int) -> SimStats:
        """Warm up for *warmup* instructions, then measure *measure* more."""
        if warmup > 0:
            self.run(warmup)
        start_cycle = self.cycle
        self.reset_stats()
        self.run(measure)
        self.stats.cycles = self.cycle - start_cycle
        return self.stats

    def enable_retire_log(self, cap: int = 50_000) -> List[DynInst]:
        """Record retired micro-ops (for offline criticality analysis)."""
        self.retire_log = []
        self._retire_log_cap = cap
        return self.retire_log

    def enable_arch_trace(self, cap: int = 1 << 20) -> List[RetireEvent]:
        """Record the architectural retirement trace for differential
        validation: one :class:`RetireEvent` per retired instruction that is
        neither predicated-false nor an injected select micro-op — exactly
        the stream the golden in-order model produces."""
        self.arch_trace = []
        self._arch_trace_cap = cap
        return self.arch_trace

    # ==================================================================
    # Retire
    # ==================================================================
    def _retire(self) -> None:
        """In-order retirement from the ROB head.

        SQ invariant: stores enter ``self.sq`` at rename in sequence order
        and retire in sequence order, and a flush only drops stores from
        the *tail* (younger than the flushing branch).  A store that
        reaches retirement still holding an SQ slot (``lsq_index >= 0``)
        is therefore always the SQ head — see :meth:`_sq_remove`.
        """
        rob = self.rob
        stats = self.stats
        if not rob:
            stats.empty_rob_cycles += 1
            return
        width = self._retire_width
        budget = width
        cycle = self.cycle
        checker = self.checker
        scheme = self.scheme
        retire_log = self.retire_log
        arch_trace = self.arch_trace
        while budget and rob and rob[0].state == ST_DONE:
            dyn = rob.popleft()
            if checker is not None:
                checker.on_retire(dyn)
            dyn.state = ST_RETIRED
            dyn.retire_cycle = cycle
            stats.retired_uops += 1
            instr = dyn.instr
            if instr.is_store:
                if dyn.lsq_index >= 0:
                    self._sq_remove(dyn)
                if not dyn.pred_false and dyn.mem_addr is not None:
                    self.mem.store(dyn.mem_addr)
            elif instr.is_load:
                self.lq_count -= 1
            if not dyn.pred_false and dyn.acb_role != ROLE_SELECT:
                stats.instructions += 1
                if (
                    arch_trace is not None
                    and len(arch_trace) < self._arch_trace_cap
                ):
                    arch_trace.append(
                        RetireEvent(
                            pc=dyn.pc,
                            dst=instr.dst,
                            taken=dyn.taken if instr.is_branch else None,
                            addr=dyn.mem_addr if instr.is_mem else None,
                            store=instr.is_store,
                        )
                    )
            if retire_log is not None and len(retire_log) < self._retire_log_cap:
                retire_log.append(dyn)
            if scheme is not None:
                scheme.on_retire(dyn)
            # cut the links that close cycles (isa.dyninst lifetime rule);
            # ``consumers`` was already cut at completion.
            dyn.rat_checkpoint = dyn.prev_writer = None
            dyn.forced_producers = dyn.region = None
            budget -= 1
        if budget != width:
            self._last_retire_cycle = cycle

    def _sq_remove(self, dyn: DynInst) -> None:
        """Drop a retiring store from the store queue.

        By the SQ invariant documented on :meth:`_retire`, the retiring
        store is always the queue head, so this is an O(1) popleft.  The
        linear fallback is purely defensive — the ordering that could make
        it run would already trip the
        :class:`~repro.validate.checker.InvariantChecker`.
        """
        sq = self.sq
        if sq and sq[0] is dyn:
            sq.popleft()
            return
        try:
            sq.remove(dyn)
        except ValueError:  # already dropped during a flush
            pass

    # ==================================================================
    # Complete / wakeup / branch resolution
    # ==================================================================
    def _complete(self) -> None:
        eventq = self._eventq
        cycle = self.cycle
        if not eventq or eventq[0][0] > cycle:
            return
        # the heap drains in (cycle, seq) order — oldest first, so an older
        # flush squashes younger same-cycle resolutions before they act.
        pop = heapq.heappop
        while eventq and eventq[0][0] <= cycle:
            dyn = pop(eventq)[2]
            if dyn.state == ST_SQUASHED:
                continue
            dyn.state = ST_DONE
            dyn.done_cycle = cycle
            instr = dyn.instr
            if instr.is_cond_branch and not dyn.wrong_path and dyn.taken is not None:
                self._resolve_branch(dyn)
            self._wake_consumers(dyn)
            # nothing appends to a done producer's consumers (_allocate and
            # _resolve_region test ``state < ST_DONE``): the list is dead.
            dyn.consumers = None
            if instr.is_store and self._blocked_loads:
                self._release_blocked_loads()

    def _wake_consumers(self, producer: DynInst) -> None:
        consumers = producer.consumers
        if not consumers:
            return
        ready = self._ready
        push = heapq.heappush
        for c in consumers:
            if c.state != ST_ALLOCATED:
                continue
            if c.rewired and producer is not c.prev_writer:
                continue
            c.deps -= 1
            if c.deps == 0 and not c.hold:
                push(ready, (c.seq, c))

    def _release_blocked_loads(self) -> None:
        loads = self._blocked_loads
        self._blocked_loads = []
        for load in loads:
            if load.state == ST_ALLOCATED:
                heapq.heappush(self._ready, (load.seq, load))

    # ------------------------------------------------------------------
    def _resolve_branch(self, dyn: DynInst) -> None:
        """Correct-path conditional branch executed: train, maybe flush."""
        stats = self.stats
        stats.branches += 1
        pcs = stats.branch_pc(dyn.pc)
        pcs.executed += 1

        if dyn.acb_role == ROLE_BRANCH:
            pcs.predicated += 1
            saved_flush = dyn.pred_taken is not None and dyn.pred_taken != dyn.taken
            if saved_flush:
                stats.predicated_saved_flushes += 1
            if self.trace is not None:
                self.trace.acb(
                    self.cycle, "region_resolve", dyn.pc,
                    seq=dyn.seq, taken=dyn.taken, pred_taken=dyn.pred_taken,
                    diverged=dyn.diverged, saved_flush=saved_flush,
                )
            # Predicated instances stay out of the global history
            # (Section V-C) but still train the prediction tables at
            # resolution, as retirement-time update hardware would.
            self.bp.update(dyn.pc, dyn.taken, dyn.bp_meta,
                           dyn.pred_taken != dyn.taken)
            if self.scheme is not None:
                self.scheme.on_branch_resolved(dyn, mispredicted=False, predicated=True)
            region = self.unresolved_regions.pop(dyn.seq, None)
            if dyn.diverged:
                stats.divergence_flushes += 1
                self._flush(dyn, push_history=False)
            elif region is not None:
                self._resolve_region(region)
            return

        mispredicted = dyn.predicted and dyn.pred_taken != dyn.taken
        self.bp.update(dyn.pc, dyn.taken, dyn.bp_meta, mispredicted)
        if self.scheme is not None:
            self.scheme.on_branch_resolved(dyn, mispredicted, predicated=False)
        if mispredicted:
            pcs.mispredicted += 1
            stats.mispredicts += 1
            self._flush(dyn, push_history=True)

    # ------------------------------------------------------------------
    def _resolve_region(self, region: RegionRecord) -> None:
        """Predicated branch resolved without divergence: settle the body.

        True-path instructions proceed normally (their forced dependence on
        the branch is now satisfied).  False-path producers become
        transparent moves of the previous value (Section III-C2); false-path
        loads/stores are invalidated (Section III-C3).
        """
        branch = region.branch
        taken = branch.taken
        eager = region.plan.eager
        for b in region.body:
            if b.state in (ST_SQUASHED, ST_RETIRED):
                continue
            if b.body_dir == taken:
                continue  # predicated-true side: executes normally
            b.pred_false = True
            b.transparent = True
            if eager or b.state != ST_ALLOCATED:
                # eager bodies already executed (selects reconcile values);
                # not-yet-allocated ones are handled at allocation.
                continue
            if b.instr.writes_register:
                b.rewired = True
                prev = b.prev_writer
                if prev is not None and prev.state < ST_DONE:
                    b.deps = 1
                    prev.consumers.append(b)
                else:
                    b.deps = 0
            else:
                b.rewired = True
                b.deps = 0
            if b.deps == 0 and not b.hold:
                heapq.heappush(self._ready, (b.seq, b))

    # ==================================================================
    # Flush
    # ==================================================================
    def _flush(self, branch: DynInst, push_history: bool) -> None:
        """Squash everything younger than *branch* and redirect fetch."""
        seqb = branch.seq

        # squashed micro-ops drop their cycle-forming links (see the
        # lifetime rule in repro.isa.dyninst) so they die by refcount.
        for dyn in self.fetchq:
            dyn.state = ST_SQUASHED
            dyn.squash_cycle = self.cycle
            dyn.consumers = dyn.rat_checkpoint = dyn.prev_writer = None
            dyn.forced_producers = dyn.region = None
        self.fetchq.clear()

        rob = self.rob
        while rob and rob[-1].seq > seqb:
            dyn = rob.pop()
            if dyn.state == ST_ALLOCATED:
                self.iq_count -= 1
            if dyn.instr.is_load and dyn.state != ST_RETIRED:
                self.lq_count -= 1
            dyn.state = ST_SQUASHED
            dyn.squash_cycle = self.cycle
            dyn.consumers = dyn.rat_checkpoint = dyn.prev_writer = None
            dyn.forced_producers = dyn.region = None
        while self.sq and self.sq[-1].seq > seqb:
            self.sq.pop()

        # recover rename state and branch history
        if branch.rat_checkpoint is not None:
            self.rat = list(branch.rat_checkpoint)
        if branch.hist_checkpoint is not None:
            if push_history:
                self.bp.restore(branch.hist_checkpoint, branch.pc, branch.taken)
            else:  # divergence of a predicated instance: stays out of history
                self.bp.restore(branch.hist_checkpoint, branch.pc, None)

        # cancel or divert regions affected by this flush.  A region whose
        # fetch stream is still open gets torn by the redirect, so it must
        # divergence-flush at its own resolution; regions already closed at
        # the front end survive (their squashed body entries are simply
        # skipped at resolution, and the refetched stream is the correct
        # path, which needs no predication).
        if self.region is not None:
            reg_branch = self.region.branch
            if reg_branch.seq > seqb or reg_branch is branch:
                if self.checker is not None:
                    self.checker.on_region_cancel(self.region)
                if self.trace is not None:
                    self.trace.acb(self.cycle, "region_cancel", reg_branch.pc,
                                   seq=reg_branch.seq)
                self.region = None
            else:
                self._mark_diverged(self.region)
                self.region = None
        for seq in list(self.unresolved_regions):
            if seq > seqb:
                region = self.unresolved_regions[seq]
                if self.checker is not None:
                    self.checker.on_region_cancel(region)
                if self.trace is not None:
                    self.trace.acb(self.cycle, "region_cancel",
                                   region.branch.pc, seq=seq)
                del self.unresolved_regions[seq]

        # functional rewind for divergent predicated instances
        region = branch.region
        if region is not None and region.func_snapshot is not None and branch.diverged:
            self.func.restore(branch.region.func_snapshot)

        self.on_correct_path = True
        self.fetch_pc = (branch.resume_pc if branch.resume_pc is not None
                         else self.func.next_pc)
        self.fetch_resume_cycle = self.cycle + self.config.flush_latency
        self.fetch_halted = False
        # loads parked behind now-squashed stores must re-enter the scheduler
        self._release_blocked_loads()
        if self.scheme is not None:
            self.scheme.on_flush()
        if self.checker is not None:
            self.checker.on_flush(branch)

    def _mark_diverged(self, region: RegionRecord) -> None:
        branch = region.branch
        branch.diverged = True
        if branch.hold:
            branch.hold = False
            if branch.deps == 0 and branch.state == ST_ALLOCATED:
                heapq.heappush(self._ready, (branch.seq, branch))
        if self.checker is not None:
            self.checker.on_region_close(region, diverged=True)
        if self.trace is not None:
            self.trace.acb(self.cycle, "region_close", branch.pc,
                           seq=branch.seq, fetched=region.fetched, diverged=True)
        if self.scheme is not None and not region.closed:
            region.closed = True
            self.scheme.on_region_closed(region, diverged=True)

    # ==================================================================
    # Issue
    # ==================================================================
    def _issue(self) -> None:
        ready = self._ready
        if not ready:
            return
        ports = dict(self._ports_items)
        budget = self._issue_budget
        stash: List = []
        pop = heapq.heappop
        push = heapq.heappush
        eventq = self._eventq
        cycle = self.cycle
        while ready and budget > 0:
            seq, dyn = pop(ready)
            if dyn.state != ST_ALLOCATED or dyn.hold:
                continue
            instr = dyn.instr
            group = instr.port_group
            if ports.get(group, 0) <= 0:
                stash.append((seq, dyn))
                continue
            if instr.is_load and not dyn.pred_false and self._load_blocked(dyn):
                self._blocked_loads.append(dyn)
                continue
            ports[group] -= 1
            budget -= 1
            # dispatch: non-memory ops take the precomputed class latency
            # without the _latency_of call.
            dyn.state = ST_ISSUED
            dyn.issue_cycle = cycle
            self.iq_count -= 1
            if dyn.transparent or dyn.pred_false:
                latency = 1
            elif not instr.is_mem:
                latency = instr.latency
            else:
                latency = self._latency_of(dyn)
            push(eventq, (cycle + latency, seq, dyn))
        for item in stash:
            push(ready, item)

    def _load_blocked(self, load: DynInst) -> bool:
        """Conservative disambiguation: wait for older store addresses."""
        seq = load.seq
        for store in self.sq:
            if store.seq >= seq:
                break
            if store.state < ST_DONE and not store.pred_false:
                return True
        return False

    def _latency_of(self, dyn: DynInst) -> int:
        if dyn.transparent or dyn.pred_false:
            return 1
        instr = dyn.instr
        if instr.is_load:
            addr = dyn.mem_addr
            fwd = self._forwarding_store(dyn)
            if fwd is not None:
                latency = self.config.store_forward_latency
            else:
                latency = self.mem.load(addr)
            self.stats.loads += 1
            self.stats.load_latency_total += latency
            return latency
        if instr.is_store:
            self.stats.stores += 1
        return instr.latency

    def _forwarding_store(self, load: DynInst) -> Optional[DynInst]:
        line = load.mem_addr >> 6
        seq = load.seq
        best = None
        for store in self.sq:
            if store.seq >= seq:
                break
            if (
                store.state >= ST_DONE
                and not store.pred_false
                and store.mem_addr is not None
                and (store.mem_addr >> 6) == line
            ):
                best = store
        return best

    # ==================================================================
    # Allocate (rename + resource assignment)
    # ==================================================================
    def _allocate(self) -> None:
        """Allocate (rename + resource assignment) from the fetch queue.

        Rename is inlined into the allocation loop — the two ran as one
        call pair per micro-op, and splitting them bought nothing but call
        overhead at simulation scale.

        ``state < ST_DONE`` alone identifies an in-flight producer:
        ST_SQUASHED (5) compares above ST_DONE, and the RAT never maps a
        squashed producer in the first place (a checker invariant), so no
        separate ``squashed`` test is needed.
        """
        fetchq = self.fetchq
        if not fetchq:
            return
        budget = self._alloc_width
        rob = self.rob
        rob_size = self._rob_size
        iq_size = self._iq_size
        sq = self.sq
        stats = self.stats
        rat = self.rat  # only _flush (never reached from here) reassigns it
        ready = self._ready
        push = heapq.heappush
        cycle = self.cycle
        stalled = False
        while budget and fetchq:
            dyn = fetchq[0]
            instr = dyn.instr
            if len(rob) >= rob_size or self.iq_count >= iq_size:
                stalled = True
                break
            if instr.is_load:
                if self.lq_count >= self._lq_size:
                    stalled = True
                    break
            elif instr.is_store and len(sq) >= self._sq_size:
                stalled = True
                break
            fetchq.popleft()
            budget -= 1

            # ---- rename ----
            dyn.state = ST_ALLOCATED
            dyn.alloc_cycle = cycle
            rob.append(dyn)
            self.iq_count += 1
            stats.allocated += 1
            if dyn.wrong_path:
                stats.wrong_path_allocated += 1

            deps = 0
            if dyn.pred_false and instr.writes_register:
                # transparency decided before allocation: depend only on
                # the previous value of the destination (plus the already-
                # resolved branch), not on the original sources.
                dyn.rewired = True
                prev = rat[instr.dst]
                dyn.prev_writer = prev
                if prev is not None and prev.state < ST_DONE:
                    deps += 1
                    prev.consumers.append(dyn)
            elif dyn.pred_false:
                dyn.rewired = True
            else:
                for src in instr.srcs:
                    prod = rat[src]
                    if prod is not None and prod.state < ST_DONE:
                        deps += 1
                        prod.consumers.append(dyn)
                if dyn.forced_producers:
                    for prod in dyn.forced_producers:
                        if prod.state < ST_DONE:
                            deps += 1
                            prod.consumers.append(dyn)
                if dyn.acb_role == ROLE_SELECT:
                    prev = rat[instr.dst]
                    dyn.prev_writer = prev
                    if prev is not None and prev.state < ST_DONE:
                        deps += 1
                        prev.consumers.append(dyn)
                elif dyn.acb_id >= 0 and instr.writes_register and dyn.acb_role in (
                    ROLE_BODY,
                    ROLE_JUMPER,
                ):
                    dyn.prev_writer = rat[instr.dst]

            if instr.writes_register:
                rat[instr.dst] = dyn

            if instr.is_cond_branch:
                dyn.rat_checkpoint = list(rat)

            if instr.is_load:
                self.lq_count += 1
            elif instr.is_store:
                dyn.lsq_index = 0
                sq.append(dyn)

            dyn.deps = deps
            if deps == 0 and not dyn.hold:
                push(ready, (dyn.seq, dyn))
        if stalled:
            stats.alloc_stall_cycles += 1

    # ==================================================================
    # Fetch
    # ==================================================================
    def _new_dyn(self, instr: Instruction) -> DynInst:
        dyn = DynInst(self._seq, instr, wrong_path=not self.on_correct_path)
        self._seq += 1
        dyn.fetch_cycle = self.cycle
        if self.trace is not None:
            self.trace.on_fetch(dyn)
        return dyn

    def _synth_addr(self, dyn: DynInst) -> int:
        h = (dyn.pc * 2654435761 ^ dyn.seq * 0x9E3779B1) & 0xFFFFFFFF
        return _WRONG_PATH_MEM_BASE + (h & _WRONG_PATH_MEM_MASK)

    def _fetch(self) -> None:
        stats = self.stats
        if self.fetch_halted or self.cycle < self.fetch_resume_cycle:
            stats.fetch_stall_cycles += 1
            region = self.region
            if (region is not None
                    and self.cycle - region.opened_cycle > region.plan.max_cycles):
                self._diverge_region(region)
            return
        budget = self._fetch_width
        fetch_queue = self._fetch_queue
        fetchq = self.fetchq
        instrs = self._instrs
        while budget > 0 and len(fetchq) < fetch_queue:
            region = self.region
            if region is not None:
                if self._region_boundary(region):
                    if self.fetch_halted:
                        return  # boundary check declared a divergence
                    continue  # region closed; re-examine the same PC
                if region.fetched > region.plan.max_fetch:
                    self._diverge_region(region)
                    return
            redirected = self._fetch_one(instrs[self.fetch_pc])
            budget -= 1
            stats.fetched += 1
            if redirected:
                break  # one taken-branch redirect per cycle
        if len(fetchq) >= fetch_queue:
            stats.fetch_stall_cycles += 1
        region = self.region
        if region is not None and self.cycle - region.opened_cycle > region.plan.max_cycles:
            self._diverge_region(region)

    def _region_boundary(self, region: RegionRecord) -> bool:
        """Handle fetch arriving at the reconvergence point.

        On the final segment (or Type-1's single segment) the region closes.
        Reaching the reconvergence point during segment 1 *without* a Jumper
        (a fall-through arrival) ends the first path just the same, so fetch
        switches to the other path — this keeps complex shapes where one
        path falls into the reconvergence point from spuriously diverging.
        """
        if self.fetch_pc != region.plan.reconv_pc:
            return False
        if region.segment == 2 or region.plan.conv_type == 1:
            if self.on_correct_path and self.func.next_pc != self.fetch_pc:
                # The supposed reconvergence point is not where the true
                # path actually continues — the learned metadata is stale
                # or wrong.  Real convergence means the true path falls
                # into this PC; anything else must divergence-flush.
                self._diverge_region(region)
            else:
                self._close_region(region, diverged=False)
        else:
            self._switch_segment(region)
        return True

    def _switch_segment(self, region: RegionRecord) -> None:
        """First path done: redirect fetch to the start of the other path."""
        branch_instr = region.branch.instr
        if region.plan.first_taken:
            self.fetch_pc = branch_instr.fallthrough  # Type 3: now fetch NT
        else:
            self.fetch_pc = branch_instr.target       # Type 2: now fetch taken
        region.segment = 2
        region.seg_taken = not region.seg_taken

    def _close_region(self, region: RegionRecord, diverged: bool) -> None:
        branch = region.branch
        region.closed = True
        self.region = None
        if self.checker is not None:
            self.checker.on_region_close(region, diverged=diverged)
        if self.trace is not None:
            self.trace.acb(self.cycle, "region_close", branch.pc,
                           seq=branch.seq, fetched=region.fetched,
                           diverged=diverged)
        if not diverged:
            if region.plan.select_uops:
                self._inject_selects(region)
            if branch.hold:
                branch.hold = False
                if branch.deps == 0 and branch.state == ST_ALLOCATED:
                    heapq.heappush(self._ready, (branch.seq, branch))
        if self.scheme is not None:
            self.scheme.on_region_closed(region, diverged=diverged)

    def _diverge_region(self, region: RegionRecord) -> None:
        """Reconvergence not found: flag the instance; flush at resolution."""
        self._close_region(region, diverged=True)
        branch = region.branch
        branch.diverged = True
        branch.resume_pc = (
            branch.instr.target if region.true_taken else branch.instr.fallthrough
        )
        if region.true_taken is None:
            branch.resume_pc = branch.instr.fallthrough
        if branch.hold:
            branch.hold = False
            if branch.deps == 0 and branch.state == ST_ALLOCATED:
                heapq.heappush(self._ready, (branch.seq, branch))
        self.fetch_halted = True  # wait for the divergence flush

    def _inject_selects(self, region: RegionRecord) -> None:
        branch = region.branch
        for reg, wt, wnt in region_live_outs(region):
            instr = Instruction(pc=region.plan.reconv_pc, uop=UopClass.ALU, dst=reg)
            sel = self._new_dyn(instr)
            sel.acb_id = branch.seq
            sel.acb_role = ROLE_SELECT
            sel.forced_producers = [p for p in (branch, wt, wnt) if p is not None]
            self.fetchq.append(sel)
            self.stats.select_uops += 1

    # ------------------------------------------------------------------
    def _fetch_one(self, instr: Instruction) -> bool:
        """Fetch the instruction at ``self.fetch_pc``; returns True on a
        taken redirect (ends the fetch group).

        ``_new_dyn`` is inlined here (it remains a method for the colder
        select-injection path).
        """
        on_correct = self.on_correct_path
        dyn = DynInst(self._seq, instr, wrong_path=not on_correct)
        self._seq += 1
        dyn.fetch_cycle = self.cycle
        if self.trace is not None:
            self.trace.on_fetch(dyn)
        region = self.region
        functional = on_correct and (region is None or region.seg_is_true)

        if region is not None:
            dyn.acb_id = region.branch.seq
            dyn.acb_role = ROLE_BODY
            dyn.body_dir = region.seg_taken
            region.fetched += 1
            region.body.append(dyn)
            if not region.plan.eager or instr.is_store:
                dyn.forced_producers = [region.branch]
            if instr.dst is not None:
                side = region.writers_taken if region.seg_taken else region.writers_nt
                side[instr.dst] = dyn

        redirect = False
        if instr.is_cond_branch:
            redirect = self._fetch_cond_branch(dyn, functional)
        elif instr.is_branch:
            redirect = self._fetch_jump(dyn, functional)
        else:
            if functional:
                dyn.mem_addr = self.func.step_fast(dyn.pc)[2]
            elif instr.is_mem:
                dyn.mem_addr = self._synth_addr(dyn)
            self.fetch_pc = instr.fallthrough

        self.fetchq.append(dyn)
        if self.scheme is not None:
            self.scheme.observe_fetch(dyn)
        return redirect

    def _fetch_jump(self, dyn: DynInst, functional: bool) -> bool:
        """Unconditional branch: always taken; may be a region Jumper."""
        instr = dyn.instr
        if functional:
            self.func.step_fast(dyn.pc)
        dyn.taken = True
        if self._maybe_jumper(dyn, instr.target):
            return True
        self.fetch_pc = instr.target
        self._btb_redirect(dyn)
        return True

    def _maybe_jumper(self, dyn: DynInst, target: int) -> bool:
        """Segment-1 taken branch to the reconvergence point: override its
        target to fetch the other path (Section III-C1)."""
        region = self.region
        if (
            region is None
            or region.segment != 1
            or region.plan.conv_type == 1
            or target != region.plan.reconv_pc
        ):
            return False
        dyn.acb_role = ROLE_JUMPER
        self._switch_segment(region)
        self._btb_redirect(dyn)
        return True

    def _btb_redirect(self, dyn: DynInst) -> None:
        """Taken control flow: a BTB miss costs a one-cycle fetch bubble."""
        if not self.btb.lookup(dyn.pc):
            self.btb.insert(dyn.pc, self.fetch_pc)
            self.fetch_resume_cycle = max(self.fetch_resume_cycle, self.cycle + 1)

    # ------------------------------------------------------------------
    def _fetch_cond_branch(self, dyn: DynInst, functional: bool) -> bool:
        instr = dyn.instr
        actual: Optional[bool] = None
        if functional:
            actual, next_pc, _ = self.func.step_fast(dyn.pc)
            dyn.taken = actual
            dyn.resume_pc = next_pc

        prediction = self.bp.predict(dyn.pc, actual)

        # -- predication decision (correct path, outside any region) ------
        if (
            self.scheme is not None
            and self.region is None
            and functional
            and dyn.acb_id < 0
        ):
            plan = self.scheme.consider(dyn, prediction)
            if plan is not None:
                self._open_region(dyn, plan, actual)
                # kept for saved-flush accounting and for table training at
                # resolution (the prediction is discarded architecturally).
                dyn.pred_taken = prediction.taken
                dyn.bp_meta = prediction.meta
                return True

        # -- normal prediction ---------------------------------------------
        dyn.predicted = True
        dyn.pred_taken = prediction.taken
        dyn.bp_meta = prediction.meta
        dyn.hist_checkpoint = self.bp.checkpoint()
        in_false_segment = self.region is not None and not functional
        if not in_false_segment:
            self.bp.spec_push(dyn.pc, prediction.taken)
        else:
            # false-path inner branches stay out of the history: the region
            # is squashed from the history's perspective.
            dyn.predicted = False

        if functional and prediction.taken != actual:
            self.on_correct_path = False

        if prediction.taken:
            if self._maybe_jumper(dyn, instr.target):
                return True
            self.fetch_pc = instr.target
            self._btb_redirect(dyn)
            return True
        self.fetch_pc = instr.fallthrough
        return False

    # ------------------------------------------------------------------
    def _open_region(self, dyn: DynInst, plan: PredicationPlan, actual: bool) -> None:
        """Begin dual-path fetch for a predicated branch instance."""
        instr = dyn.instr
        dyn.acb_role = ROLE_BRANCH
        dyn.acb_id = dyn.seq
        dyn.hold = not plan.eager
        dyn.hist_checkpoint = self.bp.checkpoint()
        dyn.resume_pc = instr.target if actual else instr.fallthrough
        region = RegionRecord(
            plan=plan,
            branch=dyn,
            true_taken=actual,
            func_snapshot=self.func.snapshot(),
            segment=1,
            seg_taken=plan.first_taken,
            opened_cycle=self.cycle,
        )
        dyn.region = region
        self.region = region
        self.unresolved_regions[dyn.seq] = region
        self.stats.predicated_instances += 1
        if self.checker is not None:
            self.checker.on_region_open(region)
        if self.trace is not None:
            # the provenance label rides along only for dynamically-learned
            # regions, keeping static-scheme trace exports byte-identical.
            extra = {} if plan.source == "static" else {"source": plan.source}
            self.trace.acb(
                self.cycle, "region_open", dyn.pc,
                seq=dyn.seq, reconv_pc=plan.reconv_pc, conv_type=plan.conv_type,
                first_taken=plan.first_taken, true_taken=actual, **extra,
            )
        if self.scheme.updates_history_on_predication:
            self.bp.push_outcome(dyn.pc, actual)
        self.fetch_pc = instr.target if plan.first_taken else instr.fallthrough

    # ==================================================================
    # Diagnostics
    # ==================================================================
    def _deadlock_report(self) -> str:
        head = self.rob[0] if self.rob else None
        return (
            f"no retirement for 20000 cycles at cycle={self.cycle}; "
            f"rob={len(self.rob)} iq={self.iq_count} fetchq={len(self.fetchq)} "
            f"head={head!r} head_deps={getattr(head, 'deps', None)} "
            f"head_hold={getattr(head, 'hold', None)} "
            f"region_open={self.region is not None} halted={self.fetch_halted}"
        )
