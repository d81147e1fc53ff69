"""Forward radiance model: component library and tau -> radiance lookup table.

The retrieval treats the radiative transfer solution as a black box that
maps (tau, theta) to a C-vector of top-of-atmosphere radiances.  Here that
black box is a per-component lookup table: piecewise-linear interpolation
in tau through each component's knot values, mixed linearly over
components with the simplex weights theta.

The forward interface is RadianceTable.eval_batch (n AODs and n x M
weights -> n x C radiances) plus the attributes n_components, n_channels,
tau_min and tau_max; the solvers, the grid search and the renderer use
nothing else, so any object with that surface (for instance a reader over
a precomputed radiative-transfer dataset) can replace the synthetic table
without touching them.  eval_batch evaluates each row by two contractions
over the components, one per bracketing knot, that never mix rows, so
one row and n rows give the same bits and a rendered scene re-evaluates
to zero misfit.

The synthetic table is deterministic in its seed and built so that

  - radiance is strictly increasing in tau for every component and channel,
  - the tau = 0 row is a pure surface signal, identical across components,
  - absorbing components (low single-scattering albedo) produce
    systematically lower radiance than non-absorbing ones at equal tau,

which gives the retrieval problem the absorbing-vs-AOD trade-off that the
prior-comparison experiments probe.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from importlib import resources

import numpy as np

from .model import ConfigurationError


class DomainError(ValueError):
    """tau outside the table's knot range; solvers must clamp first."""


@dataclass(frozen=True)
class AerosolComponent:
    """One aerosol component: particle-size parameters and albedo.

    r_min, r_max, r_c are radii in micrometers; width is the size
    distribution width; ssa_558 the single-scattering albedo at 558 nm.
    """

    id: int
    category: str
    r_min: float
    r_max: float
    r_c: float
    width: float
    ssa_558: float

    def validate(self) -> None:
        if not (0 < self.r_min < self.r_c < self.r_max):
            raise ConfigurationError(
                f"component {self.id}: need 0 < r_min < r_c < r_max"
            )
        if not (0 < self.ssa_558 <= 1):
            raise ConfigurationError(f"component {self.id}: ssa_558 must be in (0, 1]")


@dataclass(frozen=True)
class ComponentLibrary:
    components: tuple

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def ids(self) -> list:
        return [c.id for c in self.components]

    def validate(self) -> None:
        if self.n_components < 2:
            raise ConfigurationError("library needs at least 2 components")
        ids = self.ids
        if len(set(ids)) != len(ids):
            raise ConfigurationError("component ids must be unique")
        for c in self.components:
            c.validate()

    def to_records(self) -> list:
        return [asdict(c) for c in self.components]

    @classmethod
    def from_records(cls, records) -> "ComponentLibrary":
        """Build and validate a library from a list of component records,
        each a mapping with exactly AerosolComponent's fields, numbers
        everywhere but the category."""
        if not isinstance(records, list):
            raise ConfigurationError(
                f"component library must be a list of records, got {type(records).__name__}"
            )
        keys = {f.name for f in fields(AerosolComponent)}
        for i, r in enumerate(records):
            if not isinstance(r, dict) or set(r) != keys:
                raise ConfigurationError(
                    f"component record {i} must have exactly the keys {sorted(keys)}"
                )
            if not all(isinstance(r[k], (int, float)) and not isinstance(r[k], bool)
                       for k in keys - {"category"}):
                raise ConfigurationError(f"component record {i}: non-numeric field")
        lib = cls(components=tuple(AerosolComponent(**r) for r in records))
        lib.validate()
        return lib


def default_library() -> ComponentLibrary:
    """The 8 standard aerosol components shipped with the package."""
    text = resources.files("aodlattice.data").joinpath("misr_v22_components.json").read_text()
    return ComponentLibrary.from_records(json.loads(text))


def load_library(path) -> ComponentLibrary:
    with open(path) as fh:
        return ComponentLibrary.from_records(json.load(fh))


class RadianceTable:
    """Per-component tau -> radiance lookup with linear mixing over theta.

    tau_knots: strictly ascending AOD grid (length K).
    values: M x K x C radiances, one curve per component and channel.
    """

    def __init__(self, tau_knots: np.ndarray, values: np.ndarray):
        self.tau_knots = np.array(tau_knots, dtype=float)
        self.values = np.array(values, dtype=float)
        if self.tau_knots.ndim != 1 or self.tau_knots.size < 2:
            raise ConfigurationError("need at least 2 tau knots")
        if np.any(np.diff(self.tau_knots) <= 0):
            raise ConfigurationError("tau_knots must be strictly ascending")
        if self.values.ndim != 3 or self.values.shape[1] != self.tau_knots.size:
            raise ConfigurationError("values must be M x K x C with K = len(tau_knots)")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ConfigurationError("table values must be finite and >= 0")
        # Knot-major copy (K x M x C) for eval_batch's gathers.  The table
        # owns all three arrays and freezes them, so the copy cannot go
        # stale.
        self._knot_major = np.ascontiguousarray(self.values.transpose(1, 0, 2))
        for a in (self.tau_knots, self.values, self._knot_major):
            a.flags.writeable = False

    @property
    def n_components(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[2]

    @property
    def tau_min(self) -> float:
        return float(self.tau_knots[0])

    @property
    def tau_max(self) -> float:
        return float(self.tau_knots[-1])

    def eval_batch(self, tau: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Radiance for n regions at once: tau (n,), theta (n, M) -> (n, C).

        Per row, two contractions over the components: theta * (1 - w)
        against the knot values below tau, theta * w against those above,
        then the two sums are added.  np.einsum with its default
        optimize=False sums each output element over the components in
        order and never hands the contraction to BLAS, so a row's bits do
        not depend on the other rows: one row alone, any split of the rows
        and the whole batch give the same bits.  (A GEMM per knot interval
        is faster but blocks rows, and its bits move with the batch.)
        Rows go in blocks of _MIX_BLOCK, which bounds the temporaries; a
        batch of at most _MIX_BLOCK rows is one block.  A tau outside the
        knot range, NaN included, raises DomainError.
        """
        tau = np.asarray(tau, dtype=float)
        theta = np.asarray(theta, dtype=float)
        knots = self.tau_knots
        if not ((tau >= knots[0]) & (tau <= knots[-1])).all():
            raise DomainError("tau values outside table range")
        idx = np.searchsorted(knots, tau, side="right") - 1
        np.minimum(np.maximum(idx, 0, out=idx), knots.size - 2, out=idx)
        k_lo = knots[idx]
        w = (tau - k_lo) / (knots[idx + 1] - k_lo)
        v = self._knot_major
        out = np.empty((tau.size, self.n_channels))
        if tau.size <= _MIX_BLOCK:
            return _mix(theta, w[:, None], v, idx, out)
        for start in range(0, tau.size, _MIX_BLOCK):
            rows = slice(start, start + _MIX_BLOCK)
            _mix(theta[rows], w[rows, None], v, idx[rows], out[rows])
        return out


def _mix(theta, w_hi, v, lo, out):
    """eval_batch's two contractions for one block of rows, into out:
    theta * (1 - w_hi) against the knot values v[lo] below, plus theta *
    w_hi against v[lo + 1] above; returns out.  The caller allocates out
    before the knot gathers: allocated between them, it raised map16's
    peak RSS by about 0.4 MB."""
    np.einsum("km,kmc->kc", theta * (1.0 - w_hi), v[lo], out=out)
    out += np.einsum("km,kmc->kc", theta * w_hi, v[lo + 1])
    return out


# Rows per interpolation block.  Each block gathers two 256 x M x C knot
# slices, 0.59 MB each at M = 8, C = 36, so both stay in a 2 MB L2 cache.
_MIX_BLOCK = 256


# Band wavelengths (nm) and camera view angles (degrees from nadir) used to
# lay out the synthetic channel structure.
_BAND_WAVELENGTHS = np.array([446.0, 558.0, 672.0, 866.0])
_VIEW_ANGLES = np.array([-70.5, -60.0, -45.6, -26.1, 0.0, 26.1, 45.6, 60.0, 70.5])


def _channel_layout(channels: int):
    """Assign each channel a (wavelength, view angle) pair, band-major."""
    if channels == _BAND_WAVELENGTHS.size * _VIEW_ANGLES.size:
        wl = np.repeat(_BAND_WAVELENGTHS, _VIEW_ANGLES.size)
        ang = np.tile(_VIEW_ANGLES, _BAND_WAVELENGTHS.size)
        return wl, ang
    c = np.arange(channels)
    band = (4 * c) // max(channels, 1)
    band = np.clip(band, 0, 3)
    wl = _BAND_WAVELENGTHS[band]
    # spread each band's channels smoothly across the angle range
    pos = np.zeros(channels)
    for b in range(4):
        sel = band == b
        n = int(sel.sum())
        if n == 1:
            pos[sel] = 0.0
        elif n > 1:
            pos[sel] = np.linspace(-70.5, 70.5, n)
    return wl, pos


def _component_stream(seed: int, comp: AerosolComponent) -> np.random.Generator:
    # Jitter is keyed by the size/shape parameters only, never the albedo
    # or the id, so components differing solely in SSA share their jitter
    # and the SSA ordering of the curves is exact by construction.
    key = [int(round(x * 1e9)) for x in (comp.r_min, comp.r_max, comp.r_c, comp.width)]
    return np.random.default_rng([seed, 17, *key])


# A table holds knots x M x C values per copy: 10 000 knots at 8 components
# and 36 channels is about 23 MB, far past any useful AOD resolution (the
# defaults use 25), while 10**12 would ask for terabytes before any check.
MAX_KNOTS = 10_000


def check_table_args(channels: int, knots: int, tau_max: float,
                     names=("channels", "knots", "tau_max")) -> None:
    """build_synthetic_table's argument rules: at least 1 channel, 2 to
    MAX_KNOTS knots and a finite tau_max > 0.  An error names the argument
    by its entry of names (a caller's key for it)."""
    if knots < 2:
        raise ConfigurationError(f"{names[1]} must be >= 2, got {knots}")
    if knots > MAX_KNOTS:
        raise ConfigurationError(f"{names[1]} must be <= {MAX_KNOTS}, got {knots}")
    if channels < 1:
        raise ConfigurationError(f"{names[0]} must be >= 1, got {channels}")
    if not (math.isfinite(tau_max) and tau_max > 0):
        raise ConfigurationError(f"{names[2]} must be finite and > 0, got {tau_max}")


def build_synthetic_table(
    library: ComponentLibrary,
    channels: int = 36,
    knots: int = 25,
    tau_max: float = 6.0,
    seed: int = 0,
) -> RadianceTable:
    """Build the deterministic synthetic lookup table for a library.

    Per component m and channel c the curve is

        L(tau) = L_surf(c) + A_mc * (1 - exp(-g_mc * tau))

    with amplitude A and curvature g both scaled by the component's albedo
    (so lower SSA means lower radiance everywhere at tau > 0) and with an
    Angstrom-like wavelength slope driven by the characteristic radius
    (small particles brighten the short-wavelength channels more).  A small
    seeded jitter, shared between SSA-twins, decorrelates the curves.
    """
    check_table_args(channels, knots, tau_max)
    library.validate()
    rng = np.random.default_rng([seed, 3])
    M = library.n_components
    wl, ang = _channel_layout(channels)
    slant = 1.0 / np.cos(np.radians(ang))  # 1 at nadir, ~3 at 70.5 deg

    # Surface signal: band-dependent base reflectance with smooth angular
    # droop and a small per-channel jitter; identical for every component.
    band_surf = {446.0: 0.10, 558.0: 0.09, 672.0: 0.10, 866.0: 0.13}
    surf = np.array([band_surf[w] for w in wl])
    surf = surf * (1.0 + 0.05 * (slant - 1.0)) * (1.0 + 0.03 * rng.standard_normal(channels))
    surf = np.maximum(surf, 0.01)

    tau_knots = np.linspace(0.0, float(tau_max), int(knots))
    values = np.empty((M, knots, channels))
    for m, comp in enumerate(library.components):
        crng = _component_stream(seed, comp)
        jitter_a = 1.0 + 0.08 * crng.standard_normal(channels)
        jitter_g = 1.0 + 0.10 * crng.standard_normal(channels)
        angstrom = 1.8 * math.exp(-comp.r_c / 0.25)
        wl_slope = (wl / 558.0) ** (-angstrom)
        amp = 0.22 * comp.ssa_558 * wl_slope * (0.85 + 0.25 * (slant - 1.0))
        amp = amp * np.clip(jitter_a, 0.5, 1.5)
        g = 0.28 * slant * (0.7 + 0.3 * comp.ssa_558) * np.clip(jitter_g, 0.5, 1.5)
        curve = 1.0 - np.exp(-np.outer(tau_knots, g))  # (K, C)
        values[m] = surf[None, :] + amp[None, :] * curve
    return RadianceTable(tau_knots, values)

