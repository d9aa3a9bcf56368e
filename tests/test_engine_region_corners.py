"""Corner-case tests of predicated-region / flush interactions.

These exercise the most delicate engine logic: regions torn by flushes,
cycle-based divergence timeouts, inner mispredicting branches inside a
predicated region, and history handling ablations.
"""

from dataclasses import replace
from typing import Optional

from repro.acb import AcbScheme
from repro.core import SKYLAKE_LIKE, Core
from repro.core.predication import PredicationPlan, PredicationScheme
from repro.harness.runner import reduced_acb_config
from repro.program import ProgramBuilder
from repro.workloads import Bernoulli, Periodic, UniformRandom, Workload


class PredicateAt(PredicationScheme):
    """Predicate every instance of one PC with a fixed plan."""

    def __init__(self, branch_pc, reconv_pc, conv_type=1, first_taken=False,
                 max_cycles=400, max_fetch=96):
        self.kw = dict(branch_pc=branch_pc, reconv_pc=reconv_pc,
                       conv_type=conv_type, first_taken=first_taken,
                       max_cycles=max_cycles, max_fetch=max_fetch)
        self.closed = 0
        self.diverged = 0
        self.flushes_seen = 0

    def consider(self, dyn, prediction) -> Optional[PredicationPlan]:
        if dyn.pc != self.kw["branch_pc"]:
            return None
        return PredicationPlan(**self.kw)

    def on_region_closed(self, region, diverged):
        self.closed += 1
        self.diverged += diverged

    def on_flush(self):
        self.flushes_seen += 1


def inner_branch_workload(inner_p=0.3, seed=11):
    """An H2P hammock whose body contains another (mispredicting) branch."""
    b = ProgramBuilder("inner")
    b.label("top")
    b.alu(dst=1, srcs=(1,))
    b.compare(srcs=(1,))
    b.cond_branch("join", behavior="outer")     # the predicated branch
    b.alu(dst=2, srcs=(1,))
    b.compare(srcs=(2,))
    b.cond_branch("iskip", behavior="inner")    # inner H2P branch (true path)
    b.alu(dst=2, srcs=(2,))
    b.label("iskip")
    b.alu(dst=2, srcs=(2,))
    b.label("join")
    b.alu(dst=3, srcs=(2,))
    b.alu(dst=8, srcs=(8,))
    b.jump("top")
    return Workload(
        "inner", "test", b.build(),
        {"outer": Bernoulli("outer", 0.4), "inner": Bernoulli("inner", inner_p)},
        seed=seed,
    )


class TestInnerBranchInsideRegion:
    def test_survives_inner_mispredicts(self):
        """Inner true-path mispredicts flush mid-region; the engine must
        recover (divergence or refetch) and keep the functional stream in
        sync for thousands of instances."""
        workload = inner_branch_workload()
        pc = workload.program.cond_branch_pcs()[0]
        scheme = PredicateAt(pc, workload.program[pc].target, conv_type=1)
        core = Core(workload, SKYLAKE_LIKE, scheme=scheme)
        stats = core.run(20_000)
        assert stats.instructions >= 20_000
        assert stats.predicated_instances > 500
        # inner branch still flushes; outer almost never does
        outer = stats.per_branch[pc]
        assert outer.mispredicted <= stats.divergence_flushes
        inner_pc = workload.program.cond_branch_pcs()[1]
        assert stats.per_branch[inner_pc].mispredicted > 100

    def test_architectural_count_unaffected(self):
        workload = inner_branch_workload()
        base = Core(inner_branch_workload(), SKYLAKE_LIKE).run(8_000)
        pc = workload.program.cond_branch_pcs()[0]
        scheme = PredicateAt(pc, workload.program[pc].target, conv_type=1)
        pred = Core(inner_branch_workload(), SKYLAKE_LIKE, scheme=scheme).run(8_000)
        assert abs(base.instructions - pred.instructions) <= SKYLAKE_LIKE.retire_width


class TestCycleTimeout:
    def test_stale_open_region_diverges_on_cycle_budget(self):
        """White-box: an open region whose cycle budget lapses must be
        declared divergent by the timeout check at the end of ``_fetch``
        (the deadlock backstop for regions the fetch stream can never
        finish)."""
        workload = inner_branch_workload()
        pc = workload.program.cond_branch_pcs()[0]
        scheme = PredicateAt(pc, workload.program[pc].target, conv_type=1,
                             max_cycles=50)
        core = Core(workload, SKYLAKE_LIKE, scheme=scheme)
        # run until a region is open at the fetch boundary
        for _ in range(50_000):
            core.step()
            if core.region is not None:
                break
        assert core.region is not None
        region = core.region
        region.opened_cycle = core.cycle - 10_000  # simulate a stale region
        # fetch is live and the group stops short of the reconvergence
        # point, so only the closing timeout check can end the region
        assert not core.fetch_halted and core.cycle >= core.fetch_resume_cycle
        core._fetch()
        assert core.region is None
        assert region.branch.diverged
        assert core.fetch_halted  # waiting for the divergence flush
        # and the machine recovers: the flush happens and progress resumes
        before = core.stats.instructions
        core.run(before + 500)
        assert core.stats.divergence_flushes >= 1


class TestOracleHistoryAblation:
    def test_acb_pbh_restores_follower_accuracy(self):
        """With oracle history insertion, predicated leaders stay visible to
        the history, so correlated followers keep predicting well."""
        from repro.workloads import load_suite

        def run(oracle_history):
            (workload,) = load_suite(["omnetpp"])
            cfg = replace(reduced_acb_config(), oracle_history=oracle_history,
                          dynamo_enabled=False)
            core = Core(workload, SKYLAKE_LIKE, scheme=AcbScheme(cfg))
            stats = core.run_window(10_000, 10_000)
            followers = [
                pc for pc in workload.program.cond_branch_pcs()
                if not workload.program[pc].is_forward_branch
            ]
            return sum(stats.per_branch[pc].mispredicted for pc in followers
                       if pc in stats.per_branch)

        assert run(oracle_history=True) < run(oracle_history=False) * 0.5


class TestRegionTornByLaterFlush:
    def test_closed_region_survives_posterior_flush(self):
        """A flush from a branch *after* the region must not corrupt the
        pending region's resolution."""
        b = ProgramBuilder("posterior")
        b.label("top")
        b.load(dst=7, srcs=(3,), behavior="slow")   # slow branch source
        b.compare(srcs=(7,))
        b.cond_branch("join", behavior="h2p")       # predicated, resolves late
        b.alu(dst=2, srcs=(1,))
        b.alu(dst=2, srcs=(2,))
        b.label("join")
        b.alu(dst=3, srcs=(2,))
        b.compare(srcs=(1,))
        b.cond_branch("skip2", behavior="h2p2")     # posterior H2P branch
        b.alu(dst=5, srcs=(1,))
        b.label("skip2")
        b.alu(dst=6, srcs=(5,))
        b.jump("top")
        workload = Workload(
            "posterior", "test", b.build(),
            {"h2p": Bernoulli("h2p", 0.4), "h2p2": Bernoulli("h2p2", 0.4),
             "slow": UniformRandom("slow", 1 << 26, 8 << 20)},
            seed=9,
        )
        pc = workload.program.cond_branch_pcs()[0]
        scheme = PredicateAt(pc, workload.program[pc].target, conv_type=1)
        core = Core(workload, SKYLAKE_LIKE, scheme=scheme)
        stats = core.run(10_000)
        assert stats.instructions >= 10_000
        # the predicated branch itself stays flush-free apart from rare
        # divergences, while the posterior branch flushes freely
        assert stats.per_branch[pc].mispredicted == 0
        posterior_pc = workload.program.cond_branch_pcs()[1]
        assert stats.per_branch[posterior_pc].mispredicted > 100


class TestPredictableRegionsNoOp:
    def test_predicating_a_predictable_branch_wastes_little(self):
        """Force-predicating a perfectly predictable branch should cost only
        modest allocation overhead — the Equation 1 cost side in isolation."""
        def make():
            b = ProgramBuilder("easy")
            b.label("top")
            b.alu(dst=1, srcs=(1,))
            b.compare(srcs=(1,))
            b.cond_branch("join", behavior="pat")
            b.alu(dst=2, srcs=(1,))
            b.alu(dst=2, srcs=(2,))
            b.label("join")
            b.alu(dst=3, srcs=(2,))
            for r in (8, 9, 10, 11):
                b.alu(dst=r, srcs=(r,))
            b.jump("top")
            return Workload("easy", "test", b.build(),
                            {"pat": Periodic("pat", (True, False))}, seed=5)

        base = Core(make(), SKYLAKE_LIKE).run(8_000)
        workload = make()
        pc = workload.program.cond_branch_pcs()[0]
        scheme = PredicateAt(pc, workload.program[pc].target, conv_type=1)
        pred = Core(make(), SKYLAKE_LIKE, scheme=scheme).run(8_000)
        # some slowdown from extra fetch/alloc, but bounded
        assert pred.cycles < base.cycles * 1.5
        assert pred.allocated > base.allocated
