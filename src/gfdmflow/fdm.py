"""Reference upwind finite-difference discretization on Cartesian grids.

Node-centered five-point two-point-flux system with the same constitutive
laws as the meshless one but a completely independent spatial
discretization: pair coefficients are plain ``1/dx^2`` / ``1/dy^2`` lattice
transmissibilities, closed sides are handled by omitting the missing flux,
and no stencil/least-squares machinery is involved.  Like the meshless
:class:`~gfdmflow.assembly.ImplicitSystem`, :class:`FdmSystem` is a
:class:`~gfdmflow.assembly.PairFluxSystem` that
:func:`~gfdmflow.solver.simulate` marches with the same Newton and time-step
control.  Unknowns sit on the same lattice coordinates as a Cartesian node
cloud, so fields compare without interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .assembly import PairFluxSystem, robin_triples
from .cloud import CORNER_ORDER, SIDES, lattice_sides
from .config import SegmentBC
from .errors import SetupError
from .physics import ReservoirModel

__all__ = ["FdmGrid", "FdmSystem", "relative_error"]


@dataclass(frozen=True)
class FdmGrid:
    """Vertex-centered rectangular grid from the origin; node ``ix * ny + iy``
    sits at ``(ix * dx, iy * dy)``."""

    nx: int
    ny: int
    dx: float
    dy: float

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise SetupError("grid needs at least 2 nodes per direction")
        if self.dx <= 0 or self.dy <= 0:
            raise SetupError("grid spacings must be positive")

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny

    def index(self, ix, iy):
        return np.asarray(ix) * self.ny + np.asarray(iy)

    def positions(self) -> np.ndarray:
        ix, iy = np.divmod(np.arange(self.n_nodes), self.ny)
        return np.column_stack([ix * self.dx, iy * self.dy])


class FdmSystem(PairFluxSystem):
    """Implicit five-point system; ``side_specs`` maps each rectangle side to
    its :class:`~gfdmflow.config.SegmentBC`.

    A Dirichlet side holds its values.  A robin side with ``a == 0`` and
    ``g == 0`` for both variables is closed (zero normal derivative): its
    nodes keep flow rows and simply miss the flux across the side.  Any other
    condition raises :class:`SetupError` naming the side.  A corner on two
    Dirichlet sides takes the vertical side's values
    (:data:`~gfdmflow.cloud.CORNER_ORDER`), as on the node clouds.
    """

    def __init__(self, grid: FdmGrid, model: ReservoirModel, side_specs: Mapping[str, SegmentBC]):
        nx, ny = grid.nx, grid.ny
        _, _, incidence = lattice_sides(nx, ny)
        values = []  # (p, Sw) of each Dirichlet side
        held = np.full(grid.n_nodes, -1)  # the entry of values a node holds
        for side in CORNER_ORDER:
            bc = side_specs.get(side)
            if bc is None:
                raise SetupError(f"missing boundary spec for side {side}")
            if bc.kind == "dirichlet":
                held[incidence[:, SIDES.index(side)] & (held < 0)] = len(values)
                values.append((bc.p_value, bc.sw_value))
            elif any(a != 0.0 or g != 0.0 for a, _, g in robin_triples(bc)):
                raise SetupError(
                    f"side {side}: the five-point reference supports Dirichlet or closed "
                    f"(robin a = g = 0) sides only, not {bc}"
                )

        flow_ids = np.flatnonzero(held < 0)
        pi, pj, coef = [], [], []
        ix, iy = np.divmod(flow_ids, ny)
        for dix, diy, c in ((1, 0, 1.0 / grid.dx**2), (-1, 0, 1.0 / grid.dx**2),
                            (0, 1, 1.0 / grid.dy**2), (0, -1, 1.0 / grid.dy**2)):
            jx, jy = ix + dix, iy + diy
            ok = (jx >= 0) & (jx < nx) & (jy >= 0) & (jy < ny)
            pi.append(flow_ids[ok])
            pj.append(grid.index(jx[ok], jy[ok]))
            coef.append(np.full(int(ok.sum()), c))

        # a value row u - g for p and for Sw of every held node
        held_ids = np.flatnonzero(held >= 0)
        row = (2 * held_ids[:, None] + np.arange(2)).ravel()
        g = np.array(values, dtype=float).reshape(-1, 2)[held[held_ids]].ravel()
        super().__init__(
            model, grid.n_nodes, flow_ids, np.concatenate(pi), np.concatenate(pj), np.concatenate(coef),
            row=row, ref=row, a=np.ones(len(row)), g=g,
        )


def relative_error(u, u_ref) -> float:
    """Two-norm relative deviation ``||u - u_ref|| / ||u_ref||``."""
    u = np.asarray(u, dtype=float)
    u_ref = np.asarray(u_ref, dtype=float)
    if u.shape != u_ref.shape:
        raise ValueError("fields must have equal lengths")
    denom = float(np.linalg.norm(u_ref))
    if denom == 0.0:
        raise ValueError("reference field has zero norm")
    return float(np.linalg.norm(u - u_ref)) / denom
