"""Entanglement verdicts and the (b_q, sigma2_q) region scanner.

The primary criterion: an inferred state is entangled when its largest
eigenvalue exceeds 1/2 (a sufficient condition; the boundary value 1/2 is
classified as not entangled).  The partial-transpose test provides an
independent cross-check for arbitrary two-qubit states.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import EmptyGrid
from .bell import B_MAX
from .inference import InferredState, infer_spectra
from .smallmat import hermitian_eigen, partial_transpose

if TYPE_CHECKING:
    import numpy as np

#: verdict margins smaller than this count as a boundary tie
MARGIN_TOL = 1e-12


class Verdict(NamedTuple):
    entangled: bool
    margin: float


def criterion_verdict(s: InferredState) -> Verdict:
    """Largest-eigenvalue criterion: entangled iff lambda_max > 1/2 (strict); takes arrays too."""
    margin = s.lambda_max - 0.5
    return Verdict(entangled=margin > MARGIN_TOL, margin=margin)


def ppt_verdict(rho) -> Verdict:
    """Peres criterion: entangled iff the partial transpose is not PSD.

    The margin is the smallest eigenvalue of the partial transpose, so a
    negative margin signals entanglement here (opposite sign convention
    from the eigenvalue criterion).
    """
    margin = float(hermitian_eigen(partial_transpose(rho, "B")).eigenvalues[0])
    return Verdict(entangled=margin < -MARGIN_TOL, margin=margin)


class RegionGrid(NamedTuple):
    """Rasterized scan of the data domain, row-major with b varying fastest.

    Infeasible cells (uncertainty relation violated) carry lambda_max = nan
    and entangled = False.  Each grid row's feasible cells come first, as b rises along it.
    """

    q: float
    n: int
    b_q: np.ndarray
    sigma2_q: np.ndarray
    feasible: np.ndarray
    lambda_max: np.ndarray
    entangled: np.ndarray


def scan_region(q: float, n: int, rows: slice = slice(None)) -> RegionGrid:
    """Uniform n x n scan of b in [0, 2*sqrt(2)] by sigma2 in [0, 8], or its grid rows in rows.

    One vectorised pass of infer_spectra, cell by cell: repeated scans are byte-identical,
    and blocks of rows (a sigma2 each) join into the whole grid.
    """
    import numpy as np
    if n < 2:
        raise ValueError(f"grid resolution must be at least 2, got {n}")
    s2 = np.linspace(0.0, 8.0, n)[rows]
    b_grid, s2_grid = np.tile(np.linspace(0.0, B_MAX, n), s2.size), np.repeat(s2, n)
    batch = infer_spectra(q, b_grid, s2_grid)
    return RegionGrid(q=q, n=n, b_q=b_grid, sigma2_q=s2_grid,
                      feasible=batch.feasible, lambda_max=batch.lambda_max,
                      entangled=criterion_verdict(batch).entangled)


def area_fraction(g: RegionGrid) -> float:
    """Entangled fraction of the feasible cells."""
    feasible = int(g.feasible.sum())
    if feasible == 0:
        raise EmptyGrid("region grid has no feasible cells")
    return float(g.entangled.sum()) / feasible
