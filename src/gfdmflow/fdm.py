"""Reference upwind finite-difference solver on Cartesian grids.

Node-centered five-point two-point-flux discretization with the same
constitutive laws and Newton/time machinery as the meshless solver, but a
completely independent spatial discretization: pair coefficients are plain
``1/dx^2`` / ``1/dy^2`` lattice transmissibilities, closed sides are handled
by omitting the missing flux, and no stencil/least-squares machinery is
involved.  Unknowns sit on the same lattice coordinates as a Cartesian node
cloud, so fields compare without interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .assembly import AffineRow, BoundarySpec, DirichletBC, PairFluxSystem, RobinBC
from .errors import SetupError
from .physics import ReservoirModel, SimState
from .solver import TimeControl, simulate

__all__ = ["FdmGrid", "FdmSystem", "run_fdm", "relative_error"]


@dataclass(frozen=True)
class FdmGrid:
    """Vertex-centered rectangular grid; node index = ix * ny + iy."""

    nx: int
    ny: int
    dx: float
    dy: float
    x0: float = 0.0
    y0: float = 0.0

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
        return np.column_stack([self.x0 + ix * self.dx, self.y0 + iy * self.dy])


#: Sides that ``side_specs`` must cover; closed sides simply omit fluxes.
_SIDES = ("left", "right", "top", "bottom")


def _is_closed(bc) -> bool:
    return isinstance(bc, RobinBC) and bc.a == 0.0 and bc.g == 0.0


class FdmSystem(PairFluxSystem):
    """Implicit five-point system; ``side_specs`` maps each side to a
    :class:`BoundarySpec`.

    A side whose p and Sw specs are both :class:`DirichletBC` holds those
    values; a side whose specs are both :class:`RobinBC` with ``a == 0`` and
    ``g == 0`` is closed (zero normal derivative).  Any other spec raises
    :class:`SetupError` naming the side.  Corners on two Dirichlet sides take
    the left/right value (vertical sides win, mirroring the cloud generator's
    priority rule).
    """

    def __init__(self, grid: FdmGrid, model: ReservoirModel, side_specs: Mapping[str, BoundarySpec]):
        for side in _SIDES:
            if side not in side_specs:
                raise SetupError(f"missing boundary spec for side {side}")

        nx, ny = grid.nx, grid.ny
        dirichlet = np.zeros(grid.n_nodes, dtype=bool)
        dirichlet_vals: dict[int, tuple[float, float]] = {}

        def mark(ids, side):
            spec = side_specs[side]
            if _is_closed(spec.p) and _is_closed(spec.sw):
                return
            if not (isinstance(spec.p, DirichletBC) and isinstance(spec.sw, DirichletBC)):
                raise SetupError(
                    f"side {side}: the five-point reference supports Dirichlet or closed "
                    f"(robin a = g = 0) sides only, not {spec}"
                )
            for i in np.asarray(ids).ravel():
                dirichlet[i] = True
                dirichlet_vals[int(i)] = (float(spec.p.value), float(spec.sw.value))

        # horizontal sides first so vertical (left/right) values win corners
        mark(grid.index(np.arange(nx), 0), "bottom")
        mark(grid.index(np.arange(nx), ny - 1), "top")
        mark(grid.index(0, np.arange(ny)), "left")
        mark(grid.index(nx - 1, np.arange(ny)), "right")

        flow_ids = np.flatnonzero(~dirichlet)

        pi, pj, coef = [], [], []
        ix, iy = np.divmod(flow_ids, ny)
        for dix, diy, c in ((1, 0, 1.0 / grid.dx**2), (-1, 0, 1.0 / grid.dx**2),
                            (0, 1, 1.0 / grid.dy**2), (0, -1, 1.0 / grid.dy**2)):
            jx, jy = ix + dix, iy + diy
            ok = (jx >= 0) & (jx < nx) & (jy >= 0) & (jy < ny)
            pi.append(flow_ids[ok])
            pj.append(grid.index(jx[ok], jy[ok]))
            coef.append(np.full(int(ok.sum()), c))

        const_rows = [
            AffineRow(2 * i + k, 1.0, 2 * i + k, value)
            for i in np.flatnonzero(dirichlet)
            for k, value in enumerate(dirichlet_vals[int(i)])
        ]
        super().__init__(
            model, grid.n_nodes, flow_ids, np.concatenate(pi), np.concatenate(pj), np.concatenate(coef), const_rows
        )


def run_fdm(
    model: ReservoirModel,
    grid: FdmGrid,
    side_specs: Mapping[str, BoundarySpec],
    tc: TimeControl,
    p_init: float,
    sw_init: float,
    output_times=(),
):
    """March the reference solver; returns ``({time: SimState}, report)``.

    ``side_specs`` maps each side to a :class:`BoundarySpec`, as
    :class:`FdmSystem` takes it.
    """
    system = FdmSystem(grid, model, side_specs)
    x0 = SimState(np.full(grid.n_nodes, p_init), np.full(grid.n_nodes, sw_init)).to_vector()
    raw, report = simulate(system, x0, tc, output_times)
    states = {t: SimState.from_vector(x, t) for t, x in raw.items()}
    return states, report


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
