"""Planned exchange vs the envelope protocol: byte-for-byte identity.

A :class:`~repro.comm.exchange.HaloExchange` with no fault injector and
no tracer runs the precomputed indexed copy; attaching a ``Tracer`` arms
the per-message envelope path.  Both must fill identical ghosts, give
identical solves, and record identical message rows, exchange counts and
communicator counters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bricks import BrickGrid
from repro.comm import CartTopology, HaloExchange, LocalPeriodicExchange, SimComm
from repro.faults.plan import FaultPlan, FaultSpec
from repro.gmg import GMGSolver, SolverConfig
from repro.gmg.boundary import BoundaryCondition
from repro.instrument import Recorder
from repro.obs import Tracer
from tests.test_exchange import check_ghosts_against_global, make_rank_fields

BOUNDARIES = ("periodic", "dirichlet", "neumann")
RANK_DIMS = ((1, 1, 1), (2, 1, 1), (2, 2, 2))


def _comm_counters(comm) -> tuple:
    if comm is None:
        return None
    return comm.sent_messages, comm.sent_bytes, dict(comm.bytes_by_pair)


def _exchange_both(dims, boundary, ordering, split, rng):
    """Run one two-field exchange on the planned and on the envelope
    path over the same random fields; return both sides' observable
    state."""
    grid = BrickGrid((2, 2, 2), 4, ordering=ordering)
    bc = BoundaryCondition(boundary)
    topo = CartTopology(dims, periodic=bc is BoundaryCondition.PERIODIC)
    N = tuple(8 * d for d in dims)
    dense = [rng.random(N) for _ in range(2)]
    sides = []
    for tracer in (None, Tracer()):
        comm = SimComm(topo.size)
        rec = Recorder()
        ex = HaloExchange(grid, topo, comm, rec, bc, tracer=tracer)
        per_field = [make_rank_fields(topo, grid, d) for d in dense]
        fields = [list(fs) for fs in zip(*per_field)]
        if split:
            ex.finish(ex.begin(1, fields))
        else:
            ex.exchange(1, fields)
        comm.assert_drained()
        sides.append((ex.path, fields, rec, _comm_counters(comm)))
    return sides


class TestExchangerIdentity:
    @pytest.mark.parametrize("split", [False, True], ids=["sync", "split"])
    @pytest.mark.parametrize("dims", RANK_DIMS)
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_ghost_bytes_and_accounting(
        self, boundary, dims, split, ordering, rng
    ):
        (p_path, p_fields, p_rec, p_comm), (e_path, e_fields, e_rec, e_comm) = (
            _exchange_both(dims, boundary, ordering, split, rng)
        )
        assert (p_path, e_path) == ("planned", "envelope")
        for p_rank, e_rank in zip(p_fields, e_fields):
            for p, e in zip(p_rank, e_rank):
                assert p.data.tobytes() == e.data.tobytes()
        assert p_rec.messages == e_rec.messages
        assert dict(p_rec.exchanges) == dict(e_rec.exchanges) == {1: 1}
        assert p_comm == e_comm
        assert list(p_comm[2]) == list(e_comm[2])  # first-use order too

    def test_local_plan_is_the_periodic_wrap(self):
        grid = BrickGrid((3, 2, 2), 4, ordering="surface-major")
        (pair,) = LocalPeriodicExchange(grid).plan.pairs
        dst, src, ghost, source = pair
        wrap_ghost, wrap_source = grid.periodic_wrap_pairs
        assert (dst, src) == (0, 0)
        assert np.array_equal(ghost, wrap_ghost)
        assert np.array_equal(source, wrap_source)

    def test_local_nonperiodic_plan_is_empty(self):
        grid = BrickGrid((2, 2, 2), 4)
        ex = LocalPeriodicExchange(grid, boundary=BoundaryCondition.DIRICHLET)
        assert ex.plan.pairs == ()

    def test_eight_rank_plan_has_one_entry_per_rank_pair(self):
        grid = BrickGrid((2, 2, 2), 4)
        ex = HaloExchange(grid, CartTopology((2, 2, 2)), SimComm(8))
        assert len(ex.plan.pairs) == 56
        assert len(ex.plan.messages) == 8 * 26

    def test_plan_is_shared_by_congruent_exchangers(self):
        topo = CartTopology((2, 1, 1))
        a = HaloExchange(BrickGrid((2, 2, 2), 4), topo, SimComm(2))
        b = HaloExchange(BrickGrid((2, 2, 2), 4), topo, SimComm(2))
        assert a.plan is b.plan

    def test_path_rule(self):
        grid = BrickGrid((2, 2, 2), 4)
        topo = CartTopology((2, 1, 1))
        assert HaloExchange(grid, topo, SimComm(2)).path == "planned"
        traced = HaloExchange(grid, topo, SimComm(2), tracer=Tracer())
        assert traced.path == "envelope"
        assert "tracer" in traced.path_reason
        local = LocalPeriodicExchange(grid, tracer=Tracer())
        assert local.path == "planned"

    @settings(max_examples=20, deadline=None)
    @given(
        dims=st.tuples(*(st.integers(1, 3),) * 3),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_ghosts_match_global_reference(self, dims, seed):
        """Planned ghosts equal the ``np.roll``-periodic global data."""
        rng = np.random.default_rng(seed)
        grid = BrickGrid((2, 2, 2), 4, ordering="surface-major")
        topo = CartTopology(dims)
        dense = rng.random(tuple(8 * d for d in dims))
        fields = make_rank_fields(topo, grid, dense)
        ex = HaloExchange(grid, topo, SimComm(topo.size))
        assert ex.path == "planned"
        ex.exchange(0, [[f] for f in fields])
        check_ghosts_against_global(topo, grid, fields, dense)


def small_config(**overrides) -> SolverConfig:
    base = dict(
        global_cells=16, num_levels=2, brick_dim=4, max_smooths=4,
        bottom_smooths=12, max_vcycles=4,
    )
    base.update(overrides)
    return SolverConfig(**base)


def _solve_both(config):
    """``(planned, enveloped)`` solver/result pairs for one config."""
    out = []
    for tracer in (None, Tracer()):
        solver = GMGSolver(config, tracer=tracer)
        out.append((solver, solver.solve()))
    return out


def _assert_solves_identical(config):
    (p_solver, p_res), (e_solver, e_res) = _solve_both(config)
    if p_solver.comm is not None:
        assert p_solver.exchangers[0].path == "planned"
        assert e_solver.exchangers[0].path == "envelope"
    assert p_res.residual_history == e_res.residual_history
    assert p_solver.solution().tobytes() == e_solver.solution().tobytes()
    assert p_res.recorder.messages == e_res.recorder.messages
    assert dict(p_res.recorder.exchanges) == dict(e_res.recorder.exchanges)
    assert _comm_counters(p_solver.comm) == _comm_counters(e_solver.comm)


class TestSolveIdentity:
    @pytest.mark.parametrize("overlap", [False, True], ids=["sync", "overlap"])
    @pytest.mark.parametrize("dims", RANK_DIMS)
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_histories_solutions_and_records(self, boundary, dims, overlap):
        _assert_solves_identical(
            small_config(boundary=boundary, rank_dims=dims, overlap=overlap)
        )

    @pytest.mark.parametrize(
        "dims, extra",
        [
            ((2, 2, 2), dict(agglomerate_threshold=512)),
            # the middle level runs over a 2-rank SubComm of global ranks
            ((4, 2, 2), dict(agglomerate_threshold=512)),
            ((2, 2, 2), dict(batch_ranks=True)),
        ],
        ids=["agglomerated", "agglomerated-subcomm", "batched"],
    )
    def test_multi_rank_variants(self, dims, extra):
        _assert_solves_identical(
            small_config(global_cells=32, num_levels=3, rank_dims=dims, **extra)
        )


class TestArmedPaths:
    def test_faults_still_inject_detect_and_retransmit(self):
        config = small_config(rank_dims=(2, 1, 1), max_vcycles=20)
        ref_solver = GMGSolver(config)
        ref = ref_solver.solve()
        assert ref.status == "converged"
        plan = FaultPlan(
            specs=(
                FaultSpec("drop", vcycle=1, level=0),
                FaultSpec("corrupt", vcycle=2, level=0),
            )
        )
        solver = GMGSolver(config, fault_plan=plan)
        assert all(ex.path == "envelope" for ex in solver.exchangers)
        result = solver.solve()
        counts = result.fault_counts
        assert counts["inject_drop"] == counts["detect_drop"] == 1
        assert counts["inject_corrupt"] == counts["detect_corrupt"] == 1
        assert counts["retransmit"] == 2
        assert result.status == "converged"
        assert result.residual_history == ref.residual_history
        np.testing.assert_array_equal(solver.solution(), ref_solver.solution())

    def test_traced_solve_keeps_rank_spans_and_critical_path(self):
        from repro.obs.rank import critical_paths

        tracer = Tracer()
        solver = GMGSolver(
            small_config(rank_dims=(2, 2, 2), max_vcycles=2), tracer=tracer
        )
        solver.solve()
        assert sorted(tracer.children) == list(range(8))
        for child in tracer.children.values():
            names = {s.name for s in child.spans}
            assert {"isend", "irecv"} <= names
        paths = critical_paths(tracer)
        assert paths and all(p.steps for p in paths)
