"""Synthetic scalar-field generators for the experiment drivers.

Two families:

* Gaussian-peak ensembles: four large peaks of similar height with five
  smaller peaks on the flank of the first one. Heights, positions, and
  widths jitter per member within small ranges, so the identity of the
  global maximum flips across members. The outlier variant adds a fifth
  central peak and omits it in one flagged member.
* Periodic series: a train of bumps translating across the grid with
  wrap-around, periodic in the frame index, plus a small deterministic
  drift so that larger time lags cost slightly more.

All generators are deterministic functions of their spec and seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MTDistError
from .fields import ScalarField2D


# simplification threshold that strips sweep artifacts from the peak
# ensembles while keeping every real peak's branch
PEAK_SIMPLIFY_THRESHOLD = 0.05


@dataclass(frozen=True)
class PeakSpec:
    """One Gaussian bump in unit-square coordinates with jitter ranges."""

    cx: float
    cy: float
    amplitude: float
    width: float
    center_jitter: float = 0.0
    amplitude_jitter: float = 0.0
    width_jitter: float = 0.0
    omit_in_outlier: bool = False


@dataclass(frozen=True)
class EnsembleSpec:
    members: int
    peaks: tuple[PeakSpec, ...]
    rows: int = 64
    cols: int = 64
    outlier_index: int | None = None
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.members < 1:
            raise MTDistError("ensemble needs at least one member")
        if self.rows < 1 or self.cols < 1:
            raise MTDistError("field dimensions must be positive")
        if self.outlier_index is not None and not 0 <= self.outlier_index < self.members:
            raise MTDistError("outlier index outside the ensemble")


def four_peak_spec(
    members: int = 20,
    seed: int = 1,
    rows: int = 64,
    cols: int = 64,
    outlier_index: int | None = None,
    noise: float = 0.0,
) -> EnsembleSpec:
    """The four-large/five-small peak layout used by the experiments.

    With an ``outlier_index`` a fifth peak sits between the four large ones
    in every member but that one.
    """
    large = dict(amplitude=1.0, width=0.07, center_jitter=0.012, amplitude_jitter=0.04, width_jitter=0.004)
    peaks = [
        PeakSpec(cx=0.24, cy=0.24, **large),
        PeakSpec(cx=0.76, cy=0.24, **large),
        PeakSpec(cx=0.24, cy=0.76, **large),
        PeakSpec(cx=0.76, cy=0.76, **large),
    ]
    for k in range(5):
        angle = 2.0 * np.pi * k / 5.0
        peaks.append(
            PeakSpec(
                cx=0.24 + 0.20 * np.cos(angle),
                cy=0.24 + 0.20 * np.sin(angle),
                amplitude=0.30,
                width=0.030,
                center_jitter=0.006,
                amplitude_jitter=0.02,
                width_jitter=0.002,
            )
        )
    if outlier_index is not None:
        peaks.append(
            PeakSpec(
                cx=0.5,
                cy=0.5,
                amplitude=0.60,
                width=0.07,
                center_jitter=0.008,
                amplitude_jitter=0.02,
                width_jitter=0.002,
                omit_in_outlier=True,
            )
        )
    return EnsembleSpec(
        members=members,
        peaks=tuple(peaks),
        rows=rows,
        cols=cols,
        outlier_index=outlier_index,
        noise=noise,
        seed=seed,
    )


def outlier_spec(members: int = 20, outlier_index: int | None = None, seed: int = 1, **kw) -> EnsembleSpec:
    """:func:`four_peak_spec` with its outlier at ``outlier_index``, by
    default member 7, or the last member of a smaller ensemble."""
    if outlier_index is None:
        outlier_index = min(7, members - 1)
    return four_peak_spec(members=members, seed=seed, outlier_index=outlier_index, **kw)


def _render(rows, cols, peaks, rng, noise, skip_omitted):
    ys = (np.arange(rows) + 0.5) / rows
    xs = (np.arange(cols) + 0.5) / cols
    gy, gx = np.meshgrid(ys, xs, indexing="ij")
    total = np.zeros((rows, cols))
    for p in peaks:
        # jitter draws are consumed for every peak, so an omitted peak does
        # not shift the remaining peaks' randomness
        cx = p.cx + rng.uniform(-p.center_jitter, p.center_jitter)
        cy = p.cy + rng.uniform(-p.center_jitter, p.center_jitter)
        amp = p.amplitude + rng.uniform(-p.amplitude_jitter, p.amplitude_jitter)
        width = max(1e-3, p.width + rng.uniform(-p.width_jitter, p.width_jitter))
        if skip_omitted and p.omit_in_outlier:
            continue
        total += amp * np.exp(-((gx - cx) ** 2 + (gy - cy) ** 2) / (2.0 * width**2))
    if noise:
        total += noise * rng.standard_normal((rows, cols))
    return total.reshape(-1)


def generate_ensemble(spec: EnsembleSpec) -> list[ScalarField2D]:
    out = []
    for k in range(spec.members):
        rng = np.random.default_rng([spec.seed, k])
        values = _render(spec.rows, spec.cols, spec.peaks, rng, spec.noise, k == spec.outlier_index)
        out.append(ScalarField2D(rows=spec.rows, cols=spec.cols, values=values))
    return out


def generate_periodic_series(
    length: int,
    period: int,
    rows: int = 20,
    cols: int = 60,
    seed: int = 0,
    variation: float = 0.001,
    bumps: int = 3,
    drift: float | None = None,
) -> list[ScalarField2D]:
    """Fields whose bump configuration is periodic in the frame index.

    A train of ``bumps`` Gaussian bumps translates across the grid, wrapping
    around in x and completing one spacing per ``period`` frames. A fixed
    spatial envelope modulates bump heights, so the merge tree's branch
    values change over a cycle and return exactly after one period.
    ``variation`` adds a seeded per-frame amplitude wiggle plus a slow
    linear trend (``drift``, defaulting to ``40 * variation``); with
    ``variation=0`` frames at the same phase are bit-identical.
    """
    if period < 2:
        raise MTDistError("period must be >= 2")
    if bumps < 1:
        raise MTDistError("bumps must be >= 1")
    if rows < 1 or cols < 1:
        raise MTDistError("field dimensions must be positive")
    if length < 2 * period:
        raise MTDistError("length must be >= 2 * period")
    if drift is None:
        drift = 40.0 * variation
    rng = np.random.default_rng(seed)
    wiggle = rng.uniform(-1.0, 1.0, size=length) if variation else np.zeros(length)
    ys = (np.arange(rows) + 0.5) / rows
    xs = (np.arange(cols) + 0.5) / cols
    gy, gx = np.meshgrid(ys, xs, indexing="ij")
    spacing = 1.0 / bumps
    sigma = 0.35 * spacing

    def envelope(x):
        # deliberately asymmetric so distinct phases have distinct height sets
        return (
            1.0
            + 0.30 * np.sin(2.0 * np.pi * x)
            + 0.18 * np.sin(4.0 * np.pi * x + 1.0)
            + 0.10 * np.sin(6.0 * np.pi * x + 2.0)
        )

    out = []
    for i in range(length):
        phase = (i % period) / period
        total = np.zeros((rows, cols))
        amp = 1.0 + drift * i / length + variation * wiggle[i]
        for k in range(bumps):
            cx = (k + phase) * spacing % 1.0
            dx = np.abs(gx - cx)
            dx = np.minimum(dx, 1.0 - dx)  # wrap-around in x
            dy = gy - 0.5
            total += amp * envelope(cx) * np.exp(-(dx**2 + dy**2) / (2.0 * sigma**2))
        out.append(ScalarField2D(rows=rows, cols=cols, values=total.reshape(-1)))
    return out
