"""MAP solver: proposals, closed-form updates, greedy ascent, initialization."""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import aodlattice as al
from aodlattice import map_solver, parallel
from aodlattice.map_solver import (
    SHAPE_FLOOR,
    Workspace,
    _draw_block,
    _draw_tau,
    _draw_theta,
    _hyper_step,
    _theta_conc,
    sweep_regions,
)
from aodlattice.model import _gather_neighbours, floor_simplex, gmrf_roughness

from conftest import random_scene, random_state, rebalance, tiny_library
from oracles import golden_max, oracle_neighbours, oracle_sweep_regions


def _class_tau_draw(state, lat, colour, seed, sweep, delta):
    """The kernel's tau draw for a whole colour class: (members, mean, raw)."""
    members = lat.classes[colour]
    conc = _theta_conc(_gather_neighbours(state.theta, lat, members), lat.n_p[members])
    z, _, _ = _draw_block(seed, sweep, colour, conc, mh=False)
    mean, raw = _draw_tau(_gather_neighbours(state.tau, lat, members), lat.n_p[members],
                          delta, z)
    return members, mean, raw


class CountingTable:
    """A forward table that counts the rows eval_batch is asked for."""

    def __init__(self, table):
        self._table = table
        self.rows = 0

    def __getattr__(self, name):
        return getattr(self._table, name)

    def eval_batch(self, tau, theta):
        self.rows += len(tau)
        return self._table.eval_batch(tau, theta)


class TestProposeTau:
    """The tau proposal as the sweep kernel draws it, a class at a time."""

    def test_tiny_width_limit_hits_neighbor_mean(self, small_table):
        rng = np.random.default_rng(0)
        lat = al.build_lattice(5, 4)
        state = random_state(rng, lat.n_regions, 3, 4)
        nbrs = oracle_neighbours(5, 4)
        for colour in (0, 1):
            members, mean, raw = _class_tau_draw(state, lat, colour, 1, 1, 1e-12)
            want = [state.tau[nbrs[p]].mean() for p in members]
            np.testing.assert_allclose(mean, want, rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(raw, want, rtol=0.0, atol=1e-9)
        # through the kernel, class 0 as one share: every accepted tau is its mean
        scene = random_scene(small_table, rng, 5, 4)
        hyper = al.HyperParams.uniform(3)
        cfg = al.SolverConfig(hyper=hyper, seed=1, delta=1e-12)
        members, mean, _ = _class_tau_draw(state, lat, 0, cfg.seed, 1, cfg.delta)
        ws = Workspace(scene, small_table, lat, hyper, state)
        _, acc_t, _ = sweep_regions(ws, 1, cfg, "greedy", [(0, [members])], map)
        moved = ws.tau[members] != state.tau[members]
        assert acc_t == moved.sum()
        assert acc_t > 0
        np.testing.assert_allclose(ws.tau[members][moved], mean[moved], rtol=0.0, atol=1e-9)

    def test_deterministic_given_seed(self, small_table):
        """Draws are a function of (seed, sweep, colour): two sweeps from
        one state agree bitwise, and changing any key changes the block."""
        rng = np.random.default_rng(2)
        scene = random_scene(small_table, rng, 4, 4)
        lat = al.build_lattice(4, 4)
        hyper = al.HyperParams.uniform(3)
        cfg = al.SolverConfig(hyper=hyper, seed=7, delta=0.05)
        init = random_state(rng, lat.n_regions, 3, 4)
        runs = []
        for _ in range(2):
            ws = Workspace(scene, small_table, lat, hyper, init)
            runs.append((sweep_regions(ws, 3, cfg, "mh"), ws.tau, ws.theta))
        assert runs[0][0] == runs[1][0]
        np.testing.assert_array_equal(runs[0][1], runs[1][1])
        np.testing.assert_array_equal(runs[0][2], runs[1][2])
        conc = np.full((8, 3), 0.5)

        def drawn(*key):
            z, gammas, u = _draw_block(*key, conc, mh=True)
            return z, gammas(), u

        block = drawn(7, 3, 0)
        again = drawn(7, 3, 0)
        for a, b in zip(block, again):
            np.testing.assert_array_equal(a, b)
        for key in ((8, 3, 0), (7, 4, 0), (7, 3, 1)):
            other = drawn(*key)
            for a, b in zip(block, other):
                assert not np.array_equal(a, b)

    def test_monte_carlo_mean(self):
        # neighbors {0.1, 0.3}, width 0.05 -> mean 0.2 within 3 standard errors
        n = 100_000
        ntau = np.tile([0.1, 0.3, 0.0, 0.0], (n, 1))
        z, _, _ = _draw_block(3, 1, 0, np.ones((n, 3)), mh=False)
        mean, raw = _draw_tau(ntau, np.full(n, 2), 0.05, z)
        assert np.all(mean == 0.2)
        se = 0.05 / math.sqrt(n)
        assert abs(raw.mean() - 0.2) < 3 * se
        assert raw.std() == pytest.approx(0.05, rel=0.02)

    def test_clamped_to_bounds(self):
        """Wide proposals leave [tau_lo, tau_hi]; the kernel clamps them to
        the workspace's bounds, the table's knot range [0, 1] here, and a
        truth on a bound makes the clamped candidates win."""
        table = al.build_synthetic_table(tiny_library(), channels=4, knots=9, tau_max=1.0,
                                         seed=5)
        lat = al.build_lattice(6, 6)
        hyper = al.HyperParams(alpha=np.ones(3))
        cfg = al.SolverConfig(hyper=hyper, seed=4, delta=3.0)
        theta = np.full((lat.n_regions, 3), 1 / 3)
        for bound in (0.0, 1.0):
            radiance = table.eval_batch(np.full(lat.n_regions, bound), theta)
            scene = al.Scene(6, 6, 4, radiance, np.ones(4, dtype=bool))
            init = al.RetrievalState(tau=np.full(lat.n_regions, 0.5), theta=theta,
                                     sigma2=np.full(4, 1e-2), kappa=1e-6)
            ws = Workspace(scene, table, lat, hyper, init)
            assert (ws.tau_lo, ws.tau_hi) == (0.0, 1.0)
            _, _, raw = _class_tau_draw(init, lat, 0, cfg.seed, 1, cfg.delta)
            assert np.any(raw < 0.0) and np.any(raw > 1.0)
            sweep_regions(ws, 1, cfg)
            assert np.all((ws.tau >= 0.0) & (ws.tau <= 1.0))
            assert np.any(ws.tau == bound)


class TestProposeTheta:
    """The theta proposal as the sweep kernel draws it, a class at a time."""

    def test_always_on_simplex(self, small_table):
        rng = np.random.default_rng(5)
        lat = al.build_lattice(8, 8)
        state = random_state(rng, lat.n_regions, 3, 4)
        # near-corner rows in class 1 push class 0's Gamma shapes to SHAPE_FLOOR
        odd = lat.classes[1]
        state.theta[odd] = floor_simplex(rng.dirichlet(np.full(3, 0.01), size=odd.size))
        for colour, members in enumerate(lat.classes):
            conc = _theta_conc(_gather_neighbours(state.theta, lat, members),
                               lat.n_p[members])
            assert np.all(conc >= SHAPE_FLOOR)
            if colour == 0:
                assert conc.min() == SHAPE_FLOOR
            rows = _draw_theta(_draw_block(1, 1, colour, conc, mh=False)[1]())
            assert np.all(rows > 0.0)
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        # the uniform fallback for a row whose gammas all underflow
        rows = _draw_theta(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 3.0]]))
        np.testing.assert_array_equal(rows[0], np.full(3, 1 / 3))
        assert abs(rows[1].sum() - 1.0) <= 1e-12
        scene = random_scene(small_table, rng, 8, 8)
        ws = Workspace(scene, small_table, lat, al.HyperParams.uniform(3), state)
        _, _, acc_h = sweep_regions(ws, 1, al.SolverConfig(hyper=al.HyperParams.uniform(3)),
                                    "mh")
        assert acc_h > 0
        al.validate_state(ws.to_state(), al.HyperParams.uniform(3))

    def test_concentrates_on_dominant_neighbor_component(self):
        lat = al.build_lattice(2, 2)
        theta = np.tile(np.array([0.98, 0.01, 0.01]), (4, 1))
        members = lat.classes[0]
        conc = _theta_conc(_gather_neighbours(theta, lat, members), lat.n_p[members])
        np.testing.assert_allclose(conc, theta[:2], rtol=1e-15)
        n = 100_000
        rows = _draw_theta(_draw_block(6, 1, 0, np.repeat(conc, n // 2, axis=0), mh=False)[1]())
        means = rows.mean(axis=0)
        assert means[0] > means[1] and means[0] > means[2]
        # the Dirichlet(conc) mean, conc / sum(conc)
        np.testing.assert_allclose(means, [0.98, 0.01, 0.01], atol=0.005)

    def test_deterministic_given_seed(self):
        lat = al.build_lattice(3, 3)
        theta = np.random.default_rng(6).dirichlet(np.ones(3), size=9)
        members = lat.classes[1]
        conc = _theta_conc(_gather_neighbours(theta, lat, members), lat.n_p[members])
        a = _draw_theta(_draw_block(3, 2, 1, conc, mh=False)[1]())
        b = _draw_theta(_draw_block(3, 2, 1, conc, mh=False)[1]())
        np.testing.assert_array_equal(a, b)


class TestSweepKernel:
    def test_accepted_moves_are_the_public_draws_and_deltas(self, small_table):
        """A greedy step on a one-region share [p] that accepts both moves
        takes p's row of its colour's draw block, and its delta is the
        public deltas' sum, bitwise."""
        rng = np.random.default_rng(11)
        scene = random_scene(small_table, rng, 4, 4)
        lat = al.build_lattice(4, 4)
        hyper = al.HyperParams(alpha=np.array([0.7, 1.3, 2.0]))
        cfg = al.SolverConfig(hyper=hyper, seed=3)
        init = al.init_state(scene, small_table, "flat", hyper)
        init.tau[:] = rng.uniform(0.1, 0.4, lat.n_regions)
        init.theta[:] = rng.dirichlet(np.ones(3), size=lat.n_regions)
        sweep = 1
        for p in reversed(range(lat.n_regions)):  # late rows: class_pos > 0
            colour = (p // lat.width + p % lat.width) % 2
            ws = Workspace(scene, small_table, lat, hyper, init)
            dsum, acc_t, acc_h = sweep_regions(ws, sweep, cfg, "greedy",
                                               [(colour, [np.array([p])])], map)
            if acc_t == 1 and acc_h == 1 and lat.class_pos[p] > 0:
                break
        else:
            pytest.fail("no region accepted both moves")
        tau_new, theta_new = ws.tau[p], ws.theta[p]

        # the class's concentration from plain per-region neighbor means
        nbrs = oracle_neighbours(4, 4)
        members = lat.classes[colour]
        conc = np.maximum(
            np.stack([init.theta[nbrs[q]].mean(axis=0) for q in members]), SHAPE_FLOOR
        )
        z, gammas, u = _draw_block(cfg.seed, sweep, colour, conc, mh=False)
        assert u is None
        gammas = gammas()
        i = lat.class_pos[p]
        mean = init.tau[nbrs[p]].mean()
        assert tau_new == min(max(mean + cfg.delta * z[i], ws.tau_lo), ws.tau_hi)
        np.testing.assert_array_equal(theta_new, floor_simplex(gammas[i] / gammas[i].sum()))

        d_tau = al.delta_log_posterior_tau(init, scene, lat, small_table, p, tau_new)
        moved = init.copy()
        moved.tau[p] = tau_new
        d_theta = al.delta_log_posterior_theta(moved, scene, lat, small_table, p, theta_new, hyper)
        assert dsum == d_tau + d_theta

    @pytest.mark.parametrize("mode", ["greedy", "mh"])
    def test_matches_scalar_oracle_random_shapes(self, small_table, mode):
        """Three sweeps of the vectorised kernel against the region-by-region
        loop on the same draw blocks: state bitwise, delta sums to 1e-12."""
        rng = np.random.default_rng(40 if mode == "greedy" else 41)
        accepted = 0
        for trial in range(8):
            w, h = (int(x) for x in rng.integers(2, 9, size=2))
            scene = random_scene(small_table, rng, w, h)
            lat = al.build_lattice(w, h)
            hyper = al.HyperParams(alpha=rng.uniform(0.5, 2.0, 3))
            cfg = al.SolverConfig(hyper=hyper, seed=trial, delta=0.2)
            init = random_state(rng, lat.n_regions, 3, small_table.n_channels)
            ws = Workspace(scene, small_table, lat, hyper, init)
            ref = Workspace(scene, small_table, lat, hyper, init)
            for sweep in (1, 2, 3):
                got = sweep_regions(ws, sweep, cfg, mode)
                want = oracle_sweep_regions(ref, sweep, cfg, mode)
                np.testing.assert_array_equal(ws.tau, ref.tau)
                np.testing.assert_array_equal(ws.theta, ref.theta)
                np.testing.assert_array_equal(ws.pred, ref.pred)
                assert got[1:] == want[1:]
                assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
                accepted += got[1] + got[2]
        assert accepted > 100

    def test_patch_shares_equal_the_whole_class(self, small_table):
        """The share path the patch threads run, on one shared workspace:
        each colour class split into shares in any order gives the
        whole-class visit's state bitwise; ascending runs in ascending
        order also give its delta_sum bitwise."""
        rng = np.random.default_rng(42)
        scene = random_scene(small_table, rng, 7, 5)
        lat = al.build_lattice(7, 5)
        hyper = al.HyperParams.uniform(3)
        init = random_state(rng, lat.n_regions, 3, small_table.n_channels)
        for mode in ("greedy", "mh"):
            cfg = al.SolverConfig(hyper=hyper, seed=5)
            whole = Workspace(scene, small_table, lat, hyper, init)
            want = sweep_regions(whole, 1, cfg, mode)
            for contiguous in (False, True):
                classes = []
                for colour, members in enumerate(lat.classes):
                    if not contiguous:
                        members = rng.permutation(members)
                    classes.append((colour, np.array_split(members, 3)))
                split = Workspace(scene, small_table, lat, hyper, init)
                got = sweep_regions(split, 1, cfg, mode, classes, map)
                np.testing.assert_array_equal(split.tau, whole.tau)
                np.testing.assert_array_equal(split.theta, whole.theta)
                np.testing.assert_array_equal(split.pred, whole.pred)
                assert got[1:] == want[1:]
                if contiguous:
                    assert got[0] == want[0]



def _eager_map(f, xs):
    return [f(x) for x in xs]


class TestGammaBlockDrawnOnce:
    """The class's Gamma block is drawn after the shares go to the mapper,
    once, by whichever thread asks first; no stream or bit moves."""

    @staticmethod
    def _problem(small_table):
        rng = np.random.default_rng(43)
        scene = random_scene(small_table, rng, 9, 7)
        lat = al.build_lattice(9, 7)
        hyper = al.HyperParams(alpha=np.array([0.8, 1.0, 1.5]))
        init = random_state(rng, lat.n_regions, 3, small_table.n_channels)
        return scene, lat, hyper, init

    @staticmethod
    def _shares(lat, n):
        return [(colour, np.array_split(members, n)) for colour, members in
                enumerate(lat.classes)]

    @pytest.mark.parametrize("mode", ["greedy", "mh"])
    def test_pool_and_eager_maps_equal_the_lazy_map(self, small_table, mode):
        """Four sweeps of three shares per class through a thread pool's map
        and through an eager mapper give the builtin map's one-share-per-class
        sweeps bit for bit: workspace, deltas and accept counts."""
        scene, lat, hyper, init = self._problem(small_table)
        cfg = al.SolverConfig(hyper=hyper, seed=9, delta=0.2)
        classes = self._shares(lat, 3)
        runs = []
        with ThreadPoolExecutor(max_workers=3) as pool:
            for shares, mapper in ((None, map), (classes, pool.map), (classes, _eager_map)):
                ws = Workspace(scene, small_table, lat, hyper, init)
                steps = []
                for sweep in range(1, 5):
                    steps.append(sweep_regions(ws, sweep, cfg, mode, shares, mapper))
                    steps.append(_hyper_step(ws))
                runs.append((steps, ws))
        (want, ref), *others = runs
        assert sum(step[1] + step[2] for step in want[::2]) > 0
        for got, ws in others:
            assert got == want
            for name in ("tau", "theta", "pred", "sigma2"):
                np.testing.assert_array_equal(getattr(ws, name), getattr(ref, name))
            assert ws.kappa == ref.kappa

    def test_eager_mapper_does_not_wait_on_the_calling_thread(self, small_table):
        """An eager mapper runs every share before the calling thread asks
        for the block; the first theta step draws it and nothing hangs."""
        scene, lat, hyper, init = self._problem(small_table)
        cfg = al.SolverConfig(hyper=hyper, seed=9)
        ws = Workspace(scene, small_table, lat, hyper, init)
        done = []
        worker = threading.Thread(target=lambda: done.append(
            sweep_regions(ws, 1, cfg, "greedy", self._shares(lat, 2), _eager_map)), daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert done, "sweep_regions with an eager mapper did not return"

    @pytest.mark.parametrize("n_shares", [1, 2, 8])
    def test_one_gamma_draw_per_class_per_sweep(self, small_table, monkeypatch, n_shares):
        """Up to 8 threads on a short switch interval: each class's Gamma
        block is drawn once per sweep, and the state is the lazy map's."""
        scene, lat, hyper, init = self._problem(small_table)
        cfg = al.SolverConfig(hyper=hyper, seed=9)
        ref = Workspace(scene, small_table, lat, hyper, init)
        for sweep in (1, 2, 3):
            sweep_regions(ref, sweep, cfg, "mh")
        calls = []
        real = map_solver.proposal_rng

        class Spy:
            def __init__(self, seed, sweep, colour):
                self.key = (sweep, colour)
                self.rng = real(seed, sweep, colour)

            def standard_normal(self, *args):
                return self.rng.standard_normal(*args)

            def standard_gamma(self, conc):
                calls.append(self.key)
                return self.rng.standard_gamma(conc)

        monkeypatch.setattr(map_solver, "proposal_rng", Spy)
        ws = Workspace(scene, small_table, lat, hyper, init)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=n_shares) as pool:
                mapper = map if n_shares == 1 else pool.map
                for sweep in (1, 2, 3):
                    sweep_regions(ws, sweep, cfg, "mh", self._shares(lat, n_shares), mapper)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == [(sweep, c) for sweep in (1, 2, 3) for c in (0, 1)]
        np.testing.assert_array_equal(ws.tau, ref.tau)
        np.testing.assert_array_equal(ws.theta, ref.theta)


STATIC = ("rows", "nbr", "mask", "n_p")  # a plan's arrays


class TestWorkspacePlans:
    """The workspace's padded buffers and per-class plans: static data
    built once per run, which no sweep may move."""

    def test_tau_and_theta_are_length_p_views_of_the_pads(self, small_table):
        rng = np.random.default_rng(31)
        scene = random_scene(small_table, rng, 5, 4)
        lat = al.build_lattice(5, 4)
        init = random_state(rng, lat.n_regions, 3, small_table.n_channels)
        ws = Workspace(scene, small_table, lat, al.HyperParams.uniform(3), init)
        P = lat.n_regions
        for own, pad in ((ws.tau, ws.tau_pad), (ws.theta, ws.theta_pad)):
            assert own.shape[0] == P and pad.shape[0] == P + 1
            assert own.base is pad and np.shares_memory(own, pad)
            assert pad[P].tobytes() == bytes(pad[P].nbytes)  # +0.0, not -0.0
        assert ws.tau.tobytes() == init.tau.tobytes()
        assert ws.theta.tobytes() == init.theta.tobytes()

    def test_class_plans_gather_what_the_lattice_gathers(self, small_table):
        """A class plan's slots index the pad's zero row where the lattice
        has no neighbor, so one take gives _gather_neighbours' bits."""
        rng = np.random.default_rng(32)
        lat = al.build_lattice(6, 5)
        scene = random_scene(small_table, rng, 6, 5)
        init = random_state(rng, lat.n_regions, 3, small_table.n_channels)
        ws = Workspace(scene, small_table, lat, al.HyperParams.uniform(3), init)
        for colour, members in enumerate(lat.classes):
            plan = ws.plans[colour]
            np.testing.assert_array_equal(plan.rows, members)
            assert plan.pos == slice(0, members.size)
            np.testing.assert_array_equal(plan.mask, lat.nbr_mask[members])
            np.testing.assert_array_equal(plan.n_p, lat.n_p[members])
            assert np.all(plan.nbr[~plan.mask] == lat.n_regions)
            assert np.all(plan.nbr[plan.mask] == lat.nbr_index[members][plan.mask])
            for pad, own in ((ws.tau_pad, ws.tau), (ws.theta_pad, ws.theta)):
                assert (pad[plan.nbr].tobytes()
                        == _gather_neighbours(own, lat, members).tobytes())

    def test_ascending_run_shares_are_views_of_the_class_plan(self, small_table):
        """The patch scheduler's shares, and any ascending run of a class,
        read slices of the class plan: no per-share copy."""
        rng = np.random.default_rng(33)
        lat = al.build_lattice(7, 5)
        scene = random_scene(small_table, rng, 7, 5)
        init = random_state(rng, lat.n_regions, 3, small_table.n_channels)
        ws = Workspace(scene, small_table, lat, al.HyperParams.uniform(3), init)
        for n_patches in (1, 3, 7):
            classes = parallel._patch_shares(ws, parallel.partition(lat, n_patches))
            for colour, plans in classes:
                whole = ws.plans[colour]
                assert sum(plan.rows.size for plan in plans) == whole.rows.size
                for plan in plans:
                    assert isinstance(plan.pos, slice)
                    for name in STATIC:
                        assert np.shares_memory(getattr(plan, name), getattr(whole, name))
        members = lat.classes[1]
        shuffled = ws.plan(1, rng.permutation(members)[:5])
        for name in STATIC:
            assert not np.shares_memory(getattr(shuffled, name), getattr(ws.plans[1], name))
        np.testing.assert_array_equal(members[shuffled.pos], shuffled.rows)

    def test_every_driver_leaves_the_zero_row_at_zero(self, small_table, monkeypatch):
        """After greedy and MH sweeps through run_map, run_mcmc, mh_sweep
        and run_map_parallel (1 and 3 patches), the pads' row P is still
        exactly +0.0 and the plans are unchanged."""
        made = []

        class Recording(Workspace):
            def __init__(self, *args):
                super().__init__(*args)
                made.append((self, [{name: getattr(plan, name).copy() for name in STATIC}
                                    for plan in self.plans]))

        monkeypatch.setattr(map_solver, "Workspace", Recording)
        rng = np.random.default_rng(34)
        scene = random_scene(small_table, rng, 5, 5)
        lat = al.build_lattice(5, 5)
        hyper = al.HyperParams.uniform(3)
        init = random_state(rng, lat.n_regions, 3, small_table.n_channels)
        cfg = al.SolverConfig(hyper=hyper, seed=4, max_sweeps=5, delta=0.3)
        mcfg = al.McmcConfig(hyper=hyper, iterations=5, burn_in=1, thin=1, seed=4, delta=0.3)
        al.run_map(scene, small_table, lat, cfg, init)
        al.run_mcmc(scene, small_table, lat, mcfg, init)
        al.mh_sweep(init, scene, small_table, lat, mcfg, sweep=2)
        for n_patches in (1, 3):
            al.run_map_parallel(scene, small_table, lat, cfg, n_patches, init)
        assert len(made) == 5
        P = lat.n_regions
        for ws, before in made:
            assert not np.array_equal(ws.tau, init.tau)  # the sweeps moved rows
            assert ws.tau_pad[P:].tobytes() == bytes(8)
            assert ws.theta_pad[P:].tobytes() == bytes(ws.theta_pad[P:].nbytes)
            for plan, copies in zip(ws.plans, before):
                for name, copy in copies.items():
                    assert getattr(plan, name).tobytes() == copy.tobytes()


class TestUpdateKappa:
    def test_hand_enumerated_2x2(self):
        state = al.RetrievalState(
            tau=np.array([0.1, 0.1, 0.1, 0.2]),
            theta=np.full((4, 3), 1 / 3),
            sigma2=np.ones(4),
            kappa=1.0,
        )
        lat = al.build_lattice(2, 2)
        # edges (0,1), (0,2), (1,3), (2,3): S = 0 + 0 + 0.01 + 0.01 = 0.02
        kappa, degenerate = al.update_kappa(state, lat)
        assert not degenerate
        assert kappa == pytest.approx((4 - 3) / 0.02, rel=1e-12)

    def test_constant_field_capped_and_flagged(self):
        state = al.RetrievalState(
            tau=np.full(4, 0.3), theta=np.full((4, 3), 1 / 3), sigma2=np.ones(4), kappa=1.0
        )
        lat = al.build_lattice(2, 2)
        kappa, degenerate = al.update_kappa(state, lat)
        assert degenerate
        assert kappa == 1e12

    def test_matches_golden_section_argmax(self):
        rng = np.random.default_rng(7)
        lat = al.build_lattice(3, 3)
        P = 9
        for _ in range(100):
            state = random_state(rng, P, 3, 4)
            kappa, _ = al.update_kappa(state, lat)
            S = gmrf_roughness(state.tau, lat)

            def slice_value(log_k):
                k = math.exp(log_k)
                return 0.5 * (P - 3) * log_k - 0.5 * k * S

            best = math.exp(golden_max(slice_value, math.log(1e-8), math.log(1e14)))
            assert kappa == pytest.approx(best, rel=1e-6)


class TestUpdateSigma:
    def test_perfect_fit_floors(self, small_table):
        rng = np.random.default_rng(8)
        state = random_state(rng, 9, 3, 4)
        radiance = small_table.eval_batch(state.tau, state.theta)
        scene = al.Scene(3, 3, 4, radiance, np.ones(4, dtype=bool))
        out = al.update_sigma(state, scene, small_table)
        np.testing.assert_array_equal(out, np.full(4, 1e-12))

    def test_direct_arithmetic_two_regions(self, small_table):
        # residuals {0.3, 0.4} on one channel with P = 2: (0.09+0.16)/4
        state = al.RetrievalState(
            tau=np.array([0.5, 1.0]),
            theta=np.full((2, 3), 1 / 3),
            sigma2=np.ones(1),
            kappa=1.0,
        )
        pred = small_table.eval_batch(state.tau, state.theta)[:, :1]
        table1 = al.RadianceTable(small_table.tau_knots, small_table.values[:, :, :1])
        radiance = pred + np.array([[0.3], [0.4]])
        scene = al.Scene(2, 1, 1, radiance, np.ones(1, dtype=bool))
        out = al.update_sigma(state, scene, table1)
        assert out[0] == pytest.approx(0.0625, rel=1e-12)

    def test_masked_channels_pass_through(self, small_table):
        rng = np.random.default_rng(9)
        scene = random_scene(small_table, rng)
        scene.channel_mask[2] = False
        state = random_state(rng, 9, 3, 4)
        out = al.update_sigma(state, scene, small_table)
        assert out[2] == state.sigma2[2]

    def test_matches_kernel_step(self, small_table):
        """The solver's guarded per-sweep hyper step moves every sigma2
        channel it does not skip to exactly update_sigma's value."""
        rng = np.random.default_rng(16)
        lat = al.build_lattice(3, 3)
        hyper = al.HyperParams.uniform(3)
        moved = 0
        for _ in range(40):
            scene = random_scene(small_table, rng)
            state = random_state(rng, 9, 3, 4)
            want = al.update_sigma(state, scene, small_table)
            ws = Workspace(scene, small_table, lat, hyper, state)
            _hyper_step(ws)
            for c in range(4):
                if ws.sigma2[c] != state.sigma2[c]:
                    assert ws.sigma2[c] == want[c]
                    moved += 1
        assert moved > 100  # the guard skips only rounding-level steps

    def test_matches_golden_section_argmax(self, small_table):
        rng = np.random.default_rng(10)
        P = 9
        for _ in range(100):
            scene = random_scene(small_table, rng)
            state = random_state(rng, P, 3, 4)
            out = al.update_sigma(state, scene, small_table)
            pred = small_table.eval_batch(state.tau, state.theta)
            sse = np.sum((scene.radiance - pred) ** 2, axis=0)
            c = int(rng.integers(0, 4))

            def slice_value(log_s):
                s = math.exp(log_s)
                return -0.5 * (P + 2) * math.log(2 * math.pi * s) - sse[c] / (2 * s)

            best = math.exp(golden_max(slice_value, math.log(1e-14), math.log(1e4)))
            assert out[c] == pytest.approx(best, rel=1e-6)


class TestSweepLoop:
    def test_every_driver_runs_kernel_then_hyper_step(self, small_table, monkeypatch):
        """run_map, run_map_parallel, run_mcmc and mh_sweep all sweep through
        the one loop and the one kernel entry, sweep_regions: per sweep
        index one kernel call, then one hyper step."""
        calls = []
        kernel, hyper_step = map_solver.sweep_regions, map_solver._hyper_step

        def record_kernel(ws, sweep, *args, **kwargs):
            calls.append(sweep)
            return kernel(ws, sweep, *args, **kwargs)

        def record_hyper(ws):
            calls.append("hyper")
            return hyper_step(ws)

        monkeypatch.setattr(map_solver, "sweep_regions", record_kernel)
        monkeypatch.setattr(parallel, "sweep_regions", record_kernel)
        monkeypatch.setattr(map_solver, "_hyper_step", record_hyper)
        rng = np.random.default_rng(23)
        scene = random_scene(small_table, rng, 4, 4)
        lat = al.build_lattice(4, 4)
        hyper = al.HyperParams.uniform(3)
        init = al.init_state(scene, small_table, "flat", hyper)
        cfg = al.SolverConfig(hyper=hyper, seed=3, max_sweeps=6)
        mcfg = al.McmcConfig(hyper=hyper, iterations=5, burn_in=1, thin=1, seed=3)

        def steps(sweeps):
            return [step for k in sweeps for step in (k, "hyper")]

        _, trace = al.run_map(scene, small_table, lat, cfg, init)
        assert trace.sweeps >= 1 and calls == steps(range(1, trace.sweeps + 1))
        calls.clear()
        _, trace, _ = al.run_map_parallel(scene, small_table, lat, cfg, 2, init)
        assert trace.sweeps >= 1 and calls == steps(range(1, trace.sweeps + 1))
        calls.clear()
        al.run_mcmc(scene, small_table, lat, mcfg, init)
        assert calls == steps(range(1, mcfg.iterations + 1))
        calls.clear()
        al.mh_sweep(init, scene, small_table, lat, mcfg, sweep=7)
        assert calls == steps([7])


class TestRunMap:
    def _problem(self, table, seed, width=6, height=6):
        rng = np.random.default_rng(seed)
        scene = random_scene(table, rng, width, height)
        lat = al.build_lattice(width, height)
        hyper = al.HyperParams.uniform(table.n_components)
        cfg = al.SolverConfig(hyper=hyper, seed=seed, max_sweeps=15, epsilon=1e-9)
        init = al.init_state(scene, table, "flat", hyper)
        return scene, lat, cfg, init

    def test_monotone_ascent_exact(self, small_table):
        for seed in range(4):
            scene, lat, cfg, init = self._problem(small_table, seed)
            state, trace = al.run_map(scene, small_table, lat, cfg, init)
            lp = np.array([trace.initial_log_posterior] + trace.log_posterior)
            assert np.all(np.diff(lp) >= 0.0)

    def test_deterministic(self, small_table):
        scene, lat, cfg, init = self._problem(small_table, 11)
        s1, t1 = al.run_map(scene, small_table, lat, cfg, init)
        s2, t2 = al.run_map(scene, small_table, lat, cfg, init)
        np.testing.assert_array_equal(s1.tau, s2.tau)
        np.testing.assert_array_equal(s1.theta, s2.theta)
        np.testing.assert_array_equal(s1.sigma2, s2.sigma2)
        assert s1.kappa == s2.kappa
        assert t1.log_posterior == t2.log_posterior

    def test_invariants_hold_every_sweep(self, small_table):
        scene, lat, cfg, init = self._problem(small_table, 12)
        seen = []

        def watch(sweep, state, f):
            al.validate_state(state, cfg.hyper)
            seen.append(sweep)

        al.run_map(scene, small_table, lat, cfg, init, on_sweep=watch)
        assert len(seen) >= 1

    def test_fixed_point_returns_after_one_sweep(self, small_table):
        scene, lat, cfg, init = self._problem(small_table, 13)
        full_cfg = replace(cfg, max_sweeps=60, epsilon=None, epsilon_rel=1e-3)
        state, trace = al.run_map(scene, small_table, lat, full_cfg, init)
        again_cfg = replace(full_cfg, epsilon=max(trace.epsilon, 1e-6))
        state2, trace2 = al.run_map(scene, small_table, lat, again_cfg, state)
        assert trace2.converged
        assert trace2.sweeps == 1

    def test_one_small_gain_does_not_stop(self, small_table):
        """A run stops only on two successive sweeps below epsilon: every
        converged trace ends so, and no earlier pair of sweeps does."""
        for seed in (13, 20, 21):
            scene, lat, cfg, init = self._problem(small_table, seed)
            full_cfg = replace(cfg, max_sweeps=60, epsilon=None, epsilon_rel=1e-3)
            _, trace = al.run_map(scene, small_table, lat, full_cfg, init)
            assert trace.converged
            gains = np.abs(np.diff([trace.initial_log_posterior] + trace.log_posterior))
            small = gains < trace.epsilon
            assert small[-1] and small[-2]
            assert not np.any(small[:-2] & small[1:-1])

    def test_perfect_fit_truth_is_a_fixed_point(self, small_table):
        """On a perfect-fit scene with floored noise every proposal raises
        the misfit, so a run converges once kappa reaches its closed form;
        restarted from that state it stops after one sweep, unchanged."""
        rng = np.random.default_rng(13)
        lat = al.build_lattice(6, 6)
        truth = random_state(rng, lat.n_regions, 3, small_table.n_channels)
        radiance = small_table.eval_batch(truth.tau, truth.theta)
        scene = al.Scene(6, 6, small_table.n_channels, radiance,
                         np.ones(small_table.n_channels, dtype=bool))
        hyper = al.HyperParams.uniform(3)
        cfg = al.SolverConfig(hyper=hyper, seed=13, max_sweeps=60, epsilon_rel=1e-3)
        init = al.RetrievalState(tau=truth.tau, theta=truth.theta,
                                 sigma2=al.update_sigma(truth, scene, small_table), kappa=1.0)
        state, trace = al.run_map(scene, small_table, lat, cfg, init)
        assert trace.converged
        again_cfg = replace(cfg, epsilon=max(trace.epsilon, 1e-6))
        state2, trace2 = al.run_map(scene, small_table, lat, again_cfg, state)
        assert trace2.converged
        assert trace2.sweeps == 1
        np.testing.assert_array_equal(state2.tau, state.tau)
        np.testing.assert_array_equal(state2.theta, state.theta)

    def test_endpoint_near_optimal_around_one_region(self, small_table):
        """Over a 9 x 9 grid of (tau, share) moves around one region's
        endpoint coordinates, the greedy endpoint sits near the bottom of
        the negative log-posterior: within the plateau the stop rule leaves."""
        sim = al.make_sim_scene(small_table, 4, 4, seed=1)
        lat = al.build_lattice(4, 4)
        hyper = al.HyperParams.uniform(3)
        cfg = al.SolverConfig(hyper=hyper, seed=1, max_sweeps=300, epsilon=1e-13)
        init = al.init_state(sim.scene, small_table, "flat", hyper)
        state, _ = al.run_map(sim.scene, small_table, lat, cfg, init)
        p, m = 5, 0
        t0 = float(np.clip(state.tau[p], 0.13, 5.87))
        h0 = float(np.clip(state.theta[p, m], 0.11, 0.89))
        f = al.log_posterior(sim.scene, state, hyper, small_table)
        values = np.empty((9, 9))
        for j, share in enumerate(np.linspace(h0 - 0.1, h0 + 0.1, 9)):
            row = rebalance(state.theta[p], m, share)
            d_theta = al.delta_log_posterior_theta(state, sim.scene, lat, small_table, p, row,
                                                   hyper)
            mod = state.copy()
            mod.theta[p] = row
            for i, tau in enumerate(np.linspace(t0 - 0.12, t0 + 0.12, 9)):
                values[i, j] = -(f + d_theta + al.delta_log_posterior_tau(
                    mod, sim.scene, lat, small_table, p, float(tau)))
        assert values[4, 4] <= values.min() + 0.25 * (values.max() - values.min())

    def test_incremental_matches_full_recomputation(self, small_table):
        scene, lat, cfg, init = self._problem(small_table, 14)
        state, trace = al.run_map(scene, small_table, lat, cfg, init)
        assert trace.log_posterior[-1] == pytest.approx(trace.final_log_posterior, rel=1e-9)

    def test_nonfinite_init_raises_with_diagnostic(self, small_table):
        scene, lat, cfg, init = self._problem(small_table, 16)
        init.kappa = 0.0  # log(kappa) term is -inf
        with pytest.raises(al.InitializationError, match="kappa_term"):
            al.run_map(scene, small_table, lat, cfg, init)

    def test_masked_channels_end_to_end(self, table36):
        """A scene with unavailable channels retrieves normally; the masked
        noise entries pass through untouched."""
        sim = al.make_sim_scene(table36, 8, 8, seed=30)
        sim.scene.channel_mask[[3, 17, 30]] = False
        lat = al.build_lattice(8, 8)
        hyper = al.HyperParams.uniform(8)
        cfg = al.SolverConfig(hyper=hyper, seed=30, epsilon_rel=3e-3)
        init = al.init_state(sim.scene, table36, "flat", hyper)
        sigma_masked_at_init = init.sigma2[[3, 17, 30]].copy()
        state, trace = al.run_map(sim.scene, table36, lat, cfg, init)
        assert trace.converged
        al.validate_state(state, hyper)
        rmse = al.compute_metrics(state.tau, sim.truth_tau).rmse
        assert rmse < 0.1
        np.testing.assert_array_equal(state.sigma2[[3, 17, 30]], sigma_masked_at_init)


class TestInitState:
    def test_flat_satisfies_invariants(self, small_table):
        rng = np.random.default_rng(17)
        scene = random_scene(small_table, rng)
        hyper = al.HyperParams.uniform(3)
        state = al.init_state(scene, small_table, "flat", hyper)
        al.validate_state(state, hyper)
        assert np.all(state.tau == 0.2)
        np.testing.assert_array_equal(state.theta, np.full((9, 3), 1 / 3))
        assert state.kappa == 1.0

    def test_random_varies_with_seed(self, small_table):
        rng = np.random.default_rng(18)
        scene = random_scene(small_table, rng)
        hyper = al.HyperParams.uniform(3)
        a = al.init_state(scene, small_table, "random", hyper, seed=1)
        b = al.init_state(scene, small_table, "random", hyper, seed=2)
        al.validate_state(a, hyper)
        assert not np.array_equal(a.tau, b.tau)

    def test_starts_inside_a_shifted_aod_domain(self, small_table):
        """On a table whose knots start at 0.5 every strategy starts inside
        its AOD domain [0.5, 6.5], and a 3-sweep run_map from it runs."""
        shifted = al.RadianceTable(small_table.tau_knots + 0.5, small_table.values)
        rng = np.random.default_rng(29)
        scene = random_scene(small_table, rng, 4, 4)
        lat = al.build_lattice(4, 4)
        hyper = al.HyperParams.uniform(3)
        cfg = al.SolverConfig(hyper=hyper, seed=2, max_sweeps=3, epsilon=1e-300)
        for strategy in map_solver.INIT_STRATEGIES:
            init = al.init_state(scene, shifted, strategy, hyper, seed=4)
            assert np.all((init.tau >= 0.5) & (init.tau <= shifted.tau_max)), strategy
            state, trace = al.run_map(scene, shifted, lat, cfg, init)
            assert trace.sweeps == 3
            assert np.all((state.tau >= 0.5) & (state.tau <= shifted.tau_max))
        flat = al.init_state(scene, shifted, "flat", hyper)
        assert np.all(flat.tau == 0.5)

    def test_coarse_grid_start_at_the_top_of_the_domain(self):
        """Radiance brighter than the table pins every grid winner to the
        top level 5.9; the neighbor means of 5.9 round above it (3 * 5.9 /
        3 > 5.9), and the start is clipped back into the domain."""
        table = al.build_synthetic_table(tiny_library(), channels=4, knots=9, tau_max=5.9,
                                         seed=5)
        top = table.eval_batch(np.full(1, 5.9), np.full((1, 3), 1 / 3))
        scene = al.Scene(3, 3, 4, np.repeat(10.0 * top, 9, axis=0), np.ones(4, dtype=bool))
        state = al.init_state(scene, table, "coarse_grid", al.HyperParams.uniform(3))
        assert np.all(state.tau == 5.9)

    def test_unknown_strategy_rejected(self, small_table):
        rng = np.random.default_rng(19)
        scene = random_scene(small_table, rng)
        with pytest.raises(al.ConfigurationError):
            al.init_state(scene, small_table, "bogus", al.HyperParams.uniform(3))

    def test_coarse_grid_smoothing_equals_region_loop(self, small_table):
        """The masked-gather neighbor averaging of the coarse-grid start is
        the per-region loop's, bitwise, on random lattice shapes."""
        from aodlattice.baselines import GridSearchConfig, grid_search_retrieve

        rng = np.random.default_rng(23)
        hyper = al.HyperParams.uniform(3)
        for _ in range(12):
            w, h = (int(x) for x in rng.integers(2, 10, size=2))
            scene = random_scene(small_table, rng, w, h)
            tau, _, _ = grid_search_retrieve(
                scene, small_table, GridSearchConfig.defaults(small_table, scene))
            want = tau.copy()
            for p, nb in enumerate(oracle_neighbours(w, h)):
                want[p] = (tau[p] + tau[nb].sum()) / (1 + len(nb))
            got = al.init_state(scene, small_table, "coarse_grid", hyper)
            np.testing.assert_array_equal(got.tau, want)

    def test_start_rows_and_workspace_arrays(self, table36):
        """A flat start asks eval_batch for the one row its regions share,
        and its sigma2 has the bits of the closed form over all P rows,
        more than two _MIX_BLOCK blocks; a random start asks for P rows.  The
        state holds its four variables only, and a Workspace evaluates all
        P rows from arrays of its own."""
        from aodlattice.forward import _MIX_BLOCK

        scene = al.make_sim_scene(table36, 48, 48, noise_level=0.1, seed=3).scene
        scene.channel_mask[::5] = False
        P = scene.n_regions
        assert P > 2 * _MIX_BLOCK
        hyper = al.HyperParams.uniform(8)
        lat = al.build_lattice(48, 48)
        for strategy, rows in (("flat", 1), ("random", P)):
            table = CountingTable(table36)
            state = al.init_state(scene, table, strategy, hyper, seed=4)
            assert table.rows == rows
            assert sorted(vars(state)) == ["kappa", "sigma2", "tau", "theta"]
            start = al.RetrievalState(state.tau, state.theta, np.ones(scene.channels), 1.0)
            assert state.sigma2.tobytes() == al.update_sigma(start, scene, table36).tobytes()
            table.rows = 0
            ws = Workspace(scene, table, lat, hyper, state)
            assert table.rows == P
            assert ws.pred.tobytes() == table36.eval_batch(state.tau, state.theta).tobytes()
            for name in ("tau", "theta", "sigma2"):
                own, given = getattr(ws, name), getattr(state, name)
                assert own.tobytes() == given.tobytes()
                assert not np.shares_memory(own, given)

    def test_coarse_grid_no_worse_than_flat(self, table36, library):
        sim = al.make_sim_scene(table36, 8, 8, seed=21)
        hyper = al.HyperParams.uniform(8)
        flat = al.init_state(sim.scene, table36, "flat", hyper)
        coarse = al.init_state(sim.scene, table36, "coarse_grid", hyper)
        al.validate_state(coarse, hyper)
        rmse_flat = al.compute_metrics(flat.tau, sim.truth_tau).rmse
        rmse_coarse = al.compute_metrics(coarse.tau, sim.truth_tau).rmse
        assert np.isfinite(rmse_coarse)
        assert rmse_coarse <= rmse_flat
