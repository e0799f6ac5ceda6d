"""Tests for the DDI distributed-array layer."""

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.x1 import DDIArray, DynamicLoadBalancer, Engine, SymmetricHeap, X1Config
from repro.x1.ddi import block_ranges


class TestBlockRanges:
    def test_covers_everything(self):
        for n, p in [(10, 3), (7, 7), (5, 8), (100, 13)]:
            ranges = block_ranges(n, p)
            assert len(ranges) == p
            assert ranges[0][0] == 0
            assert ranges[-1][1] == n
            for (a, b), (c, d) in zip(ranges, ranges[1:]):
                assert b == c

    def test_near_even(self):
        sizes = [hi - lo for lo, hi in block_ranges(100, 7)]
        assert max(sizes) - min(sizes) <= 1


class TestDDIArray:
    def setup_method(self):
        self.cfg = X1Config(n_msps=4)
        self.heap = SymmetricHeap(4)
        self.A = DDIArray(self.heap, "A", 10, 3, msps_per_node=4)
        full = np.arange(30, dtype=float).reshape(10, 3)
        for r, (lo, hi) in enumerate(self.A.ranges):
            self.A.set_local(r, full[lo:hi])
        self.full = full

    def run(self, prog):
        eng = Engine(self.cfg, self.heap)
        eng.run([prog] * 4)
        return eng

    def test_owner_of(self):
        owners = [self.A.owner_of(r) for r in range(10)]
        assert owners == sorted(owners)
        assert owners[0] == 0 and owners[-1] == 3

    def test_get_rows_arbitrary_order(self):
        got = {}

        def prog(proc, h):
            if proc.rank == 2:
                rows = np.array([9, 0, 4, 4, 7])
                got["data"] = yield from self.A.iget_rows(proc, rows)
            else:
                yield proc.compute(0.0)

        self.run(prog)
        assert np.allclose(got["data"], self.full[[9, 0, 4, 4, 7]])

    def test_acc_rows_accumulates(self):
        def prog(proc, h):
            data = np.full((2, 3), float(proc.rank + 1))
            yield from self.A.iacc_rows(proc, np.array([0, 9]), data)

        self.run(prog)
        # every rank added rank+1 to rows 0 and 9: total += 1+2+3+4 = 10
        assert np.allclose(self.heap.segment("A", 0)[0], self.full[0] + 10)
        blk3 = self.heap.segment("A", 3)
        assert np.allclose(blk3[-1], self.full[9] + 10)

    def test_col_block_roundtrip(self):
        got = {}

        def prog(proc, h):
            if proc.rank == 1:
                got["cols"] = yield from self.A.iget_col_block(proc, 1, 3)
            else:
                yield proc.compute(0.0)

        self.run(prog)
        assert np.allclose(got["cols"], self.full[:, 1:3])

    def test_acc_col_block(self):
        def prog(proc, h):
            if proc.rank == 0:
                yield from self.A.iacc_col_block(proc, 0, 1, np.ones((10, 1)))
            else:
                yield proc.compute(0.0)

        self.run(prog)
        assembled = np.vstack(
            [self.heap.segment("A", r) for r in range(4)]
        )
        assert np.allclose(assembled[:, 0], self.full[:, 0] + 1)
        assert np.allclose(assembled[:, 1:], self.full[:, 1:])

    def test_trace_mode_charges_bytes(self):
        heap = SymmetricHeap(4)
        B = DDIArray(heap, "B", 100, 5, numeric=False)

        def prog(proc, h):
            if proc.rank == 0:
                out = yield from B.iget_rows(proc, np.arange(50))
                assert out is None
            else:
                yield proc.compute(0.0)

        eng = Engine(self.cfg, heap)
        eng.run([prog] * 4)
        assert eng.stats[0].bytes_received == 50 * 5 * 8


class TestExactlyOnceAccumulate:
    """A tagged accumulate lands once per owner, however often it is issued."""

    def setup_method(self):
        self.cfg = X1Config(n_msps=4)
        self.heap = SymmetricHeap(4)
        self.fi = FaultInjector(FaultPlan())  # hooks attached, nothing injected
        self.A = DDIArray(self.heap, "A", 10, 3, msps_per_node=4, faults=self.fi)
        self.A.alloc_commit_tags(2)
        self.full = np.arange(30, dtype=float).reshape(10, 3)
        for r, (lo, hi) in enumerate(self.A.ranges):
            self.A.set_local(r, self.full[lo:hi])

    def run_on_rank0(self, acc):
        def prog(proc, h):
            if proc.rank == 0:
                for _ in range(2):
                    yield from acc(proc)
            else:
                yield proc.compute(0.0)

        Engine(self.cfg, self.heap, faults=self.fi).run([prog] * 4)
        return np.vstack([self.heap.segment("A", r) for r in range(4)])

    def dedup(self):
        return self.fi.counts().get("faults.recovered.acc_dedup", 0)

    def test_rows_added_once(self):
        data = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        got = self.run_on_rank0(
            lambda proc: self.A.iacc_rows(proc, np.array([0, 9]), data, tag=0)
        )
        want = self.full.copy()
        want[[0, 9]] += data
        assert np.array_equal(got, want)
        # rows 0 and 9 live on owners 0 and 3: the second call skips both
        assert self.dedup() == 2

    def test_col_block_added_once(self):
        got = self.run_on_rank0(
            lambda proc: self.A.iacc_col_block(proc, 0, 1, np.ones((10, 1)), tag=1)
        )
        want = self.full.copy()
        want[:, 0] += 1.0
        assert np.array_equal(got, want)
        # the column block spans all four owners, each skipped once
        assert self.dedup() == 4

    def test_tag_requires_allocation(self):
        B = DDIArray(self.heap, "B", 10, 3)

        def prog(proc, h):
            yield from B.iacc_rows(proc, np.array([0]), np.ones((1, 3)), tag=0)

        with pytest.raises(RuntimeError, match="alloc_commit_tags"):
            Engine(self.cfg, self.heap).run([prog] * 4)


class TestDLB:
    def test_tasks_unique_and_complete(self):
        cfg = X1Config(n_msps=5)
        heap = SymmetricHeap(5)
        dlb = DynamicLoadBalancer(heap)
        taken = []

        def prog(proc, h):
            while True:
                t = yield from dlb.inext(proc)
                if t >= 13:
                    break
                taken.append(t)
                yield proc.compute(0.001)

        Engine(cfg, heap).run([prog] * 5)
        assert sorted(taken) == list(range(13))

    def test_reset(self):
        heap = SymmetricHeap(2)
        dlb = DynamicLoadBalancer(heap)
        heap.segment(dlb.name, 0)[0] = 55
        dlb.reset()
        assert heap.segment(dlb.name, 0)[0] == 0

    def test_counter_contention_costs_time(self):
        # hammering the DLB server must take at least n * atomic_overhead
        cfg = X1Config(n_msps=4)
        heap = SymmetricHeap(4)
        dlb = DynamicLoadBalancer(heap)

        def prog(proc, h):
            for _ in range(50):
                yield from dlb.inext(proc)

        eng = Engine(cfg, heap).run([prog] * 4)
        elapsed = max(s.finish_time for s in eng)
        # 150 remote fadds serialize at rank 0's memory port (rank 0's own
        # 50 are local and uncontended)
        assert elapsed >= 150 * X1Config().atomic_overhead * 0.9
