"""Tests for the workload generator's program shapes."""

import pytest

from repro.isa import FLAGS, UopClass
from repro.program import classify_hammock, find_reconvergence
from repro.workloads import HammockSpec, WorkloadSpec, build_workload


def gen(shape=None, hammock=None, **spec_kw):
    hammocks = (hammock,) if hammock else (
        HammockSpec(shape=shape or "if", taken_len=4, nt_len=4, p=0.4),
    )
    defaults = dict(ilp=2, chain=2, memory="strided", mem_span_kb=64)
    defaults.update(spec_kw)
    return build_workload(
        WorkloadSpec(name="gen", category="test", hammocks=hammocks, **defaults)
    )


class TestShapes:
    @pytest.mark.parametrize("shape", ["if", "if_else", "type3", "nested",
                                       "nested_else", "multi_exit"])
    def test_every_shape_reconverges(self, shape):
        workload = gen(shape)
        pc = workload.program.cond_branch_pcs()[0]
        assert find_reconvergence(workload.program, pc) is not None

    def test_if_body_length(self):
        workload = gen(hammock=HammockSpec(shape="if", nt_len=6, p=0.4))
        pc = workload.program.cond_branch_pcs()[0]
        info = classify_hammock(workload.program, pc)
        assert info.not_taken_len == 6
        assert info.taken_len == 0

    def test_type3_taken_block_after_loop_jump(self):
        workload = gen("type3")
        program = workload.program
        pc = program.cond_branch_pcs()[0]
        target = program[pc].target
        reconv = find_reconvergence(program, pc)
        assert pc < reconv < target  # the Type-3 signature

    def test_live_outs_spread_registers(self):
        wide = gen(hammock=HammockSpec(shape="if", nt_len=8, p=0.4, live_outs=4))
        narrow = gen(hammock=HammockSpec(shape="if", nt_len=8, p=0.4, live_outs=1))
        def body_dsts(workload):
            pc = workload.program.cond_branch_pcs()[0]
            instr = workload.program[pc]
            return {
                workload.program[p].dst
                for p in range(instr.fallthrough, instr.target)
                if workload.program[p].dst is not None
            }
        assert len(body_dsts(wide)) > len(body_dsts(narrow))

    def test_store_in_body(self):
        workload = gen(hammock=HammockSpec(shape="if", nt_len=5, p=0.4,
                                           store_in_body=True))
        pc = workload.program.cond_branch_pcs()[0]
        assert classify_hammock(workload.program, pc).has_store


class TestType3PlusShapes:
    """The frontier shapes: regions the *static* fetch-stream learner must
    reject (with a stable, named reason) while the dynamic merge-point
    backend may accept them."""

    def _run_scheme(self, shape, config, n=6000, **hammock_kw):
        from repro.core import Core
        from repro.harness.runner import prepare_run

        workload = gen(hammock=HammockSpec(shape=shape, p=0.5, **hammock_kw))
        cfg, scheme, _ = prepare_run(workload, config)
        Core(workload, cfg, scheme=scheme).run(n)
        return scheme

    def test_loop_body_emits_inner_counted_loop(self):
        workload = gen(hammock=HammockSpec(shape="loop_body", nt_len=4, p=0.5,
                                           arm_trips=12))
        program = workload.program
        backward = [
            p for p in program.cond_branch_pcs()
            if not program[p].is_forward_branch
        ]
        # the arm loop plus the outer kernel loop
        assert len(backward) >= 1
        arm = backward[0]
        behavior = workload.behaviors[program[arm].behavior]
        assert behavior.trips == 12 and behavior.jitter == 0

    def test_multi_exit_far_targets_past_local_join(self):
        workload = gen(hammock=HammockSpec(shape="multi_exit_far", nt_len=4,
                                           p=0.5, far_gap=48))
        program = workload.program
        pc = program.cond_branch_pcs()[0]
        target = program[pc].target
        # the branch jumps over the NT body AND the far gap
        assert target - program[pc].fallthrough > 48

    @pytest.mark.parametrize("shape,kw", [
        ("loop_body", dict(nt_len=4, arm_trips=12)),
        ("multi_exit_far", dict(nt_len=4, far_gap=48)),
    ])
    def test_static_learner_rejects_with_stable_reason(self, shape, kw):
        """The fetch-stream scan wraps the kernel loop without confirming a
        convergence type on both frontier shapes — and says so.  Pinning
        the reason string keeps the rejection *diagnosable*: a future
        learner change that starts rejecting for a different reason (or
        accepting) must show up here."""
        scheme = self._run_scheme(shape, "acb", **kw)
        assert scheme.learned == 0
        assert scheme.learning.last_fail_reason == "wrapped"

    @pytest.mark.parametrize("shape,kw", [
        ("loop_body", dict(nt_len=4, arm_trips=12)),
        ("multi_exit_far", dict(nt_len=4, far_gap=48)),
    ])
    def test_dynamic_backend_accepts(self, shape, kw):
        scheme = self._run_scheme(shape, "acb-dmp-reconv", **kw)
        assert scheme.learned >= 1


class TestBehaviorWiring:
    def test_slow_source_adds_compare_load(self):
        workload = gen(hammock=HammockSpec(shape="if", nt_len=4, p=0.4,
                                           slow_source=True))
        program = workload.program
        pc = program.cond_branch_pcs()[0]
        # the two instructions before the branch: load then compare
        assert program[pc - 1].dst == FLAGS
        assert program[pc - 2].uop is UopClass.LOAD

    def test_followers_are_backward_branches(self):
        workload = gen(hammock=HammockSpec(shape="if", nt_len=4, p=0.4,
                                           followers=2))
        program = workload.program
        backward = [
            p for p in program.cond_branch_pcs()
            if not program[p].is_forward_branch
        ]
        assert len(backward) == 2
        for p in backward:
            assert workload.behaviors[program[p].behavior].source == "h0"

    def test_join_feeds_chain(self):
        workload = gen(hammock=HammockSpec(shape="if", nt_len=4, p=0.4,
                                           join_feeds_chain=True))
        program = workload.program
        pc = program.cond_branch_pcs()[0]
        join = program[pc].target
        # join consumer writes R3, then the chain feed reads (R1, R3) -> R1
        assert program[join + 1].dst == 1
        assert set(program[join + 1].srcs) == {1, 3}

    def test_training_variant_shifts_bernoulli(self):
        workload = gen(
            hammock=HammockSpec(shape="if", nt_len=4, p=0.40),
            train_shift=-0.2,
        )
        assert workload.behaviors["h0"].p == pytest.approx(0.40)
        assert workload.train.behaviors["h0"].p == pytest.approx(0.20)

    def test_memory_modes(self):
        for mode in ("none", "strided", "random", "chase"):
            workload = gen("if", memory=mode, mem_span_kb=128)
            has_loads = any(i.is_load for i in workload.program)
            assert has_loads == (mode != "none")

    def test_inner_loop_emits_backward_branch(self):
        workload = gen("if", inner_loop=(8, 2))
        program = workload.program
        assert any(
            not program[p].is_forward_branch for p in program.cond_branch_pcs()
        )
