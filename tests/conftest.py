import numpy as np
import pytest

import aodlattice as al


@pytest.fixture(scope="session")
def library():
    return al.default_library()


@pytest.fixture(scope="session")
def table36(library):
    return al.build_synthetic_table(library, channels=36, knots=25, tau_max=6.0, seed=0)


def tiny_library():
    """Three components spanning the size/albedo axes, for fast tests."""
    records = [
        {"id": 1, "category": "small_bright", "r_min": 0.001, "r_max": 0.4,
         "r_c": 0.03, "width": 1.65, "ssa_558": 1.0},
        {"id": 2, "category": "small_absorbing", "r_min": 0.001, "r_max": 0.75,
         "r_c": 0.06, "width": 1.7, "ssa_558": 0.85},
        {"id": 3, "category": "coarse", "r_min": 0.1, "r_max": 6.0,
         "r_c": 1.0, "width": 2.0, "ssa_558": 0.95},
    ]
    return al.ComponentLibrary.from_records(records)


@pytest.fixture(scope="session")
def small_table():
    return al.build_synthetic_table(tiny_library(), channels=4, knots=9, tau_max=6.0, seed=5)


def random_state(rng, P, M, C):
    return al.RetrievalState(
        tau=rng.uniform(0.0, 3.0, P),
        theta=rng.dirichlet(np.ones(M), size=P),
        sigma2=rng.uniform(1e-4, 5e-2, C),
        kappa=float(rng.uniform(0.2, 20.0)),
    )


def rebalance(row, m, share):
    """Row with component m's share set to `share` and the others scaled to
    keep their ratios and the unit sum; row[m] must be below 1."""
    out = row * ((1.0 - share) / (1.0 - row[m]))
    out[m] = share
    return out


def random_scene(table, rng, width=3, height=3):
    """A small scene with observations near (but not equal to) a random
    forward rendering, so residuals are generic."""
    P = width * height
    truth = random_state(rng, P, table.n_components, table.n_channels)
    radiance = table.eval_batch(truth.tau, truth.theta)
    radiance = np.maximum(0.0, radiance * (1.0 + 0.05 * rng.standard_normal(radiance.shape)))
    scene = al.Scene(
        width=width,
        height=height,
        channels=table.n_channels,
        radiance=radiance,
        channel_mask=np.ones(table.n_channels, dtype=bool),
    )
    return scene
