import io
import math
import tracemalloc

import numpy as np
import pytest

from qmaxent.bell import B_MAX, bell_projectors
from qmaxent.entangle import (
    RegionGrid,
    area_fraction,
    criterion_verdict,
    ppt_verdict,
    scan_region,
)
import qmaxent.cli as cli
from qmaxent.cli import region_to_csv
from qmaxent.errors import (
    DimensionError,
    EmptyGrid,
    QmaxentError,
    QOutOfDomain,
    UncertaintyViolated,
)
from qmaxent.inference import infer_spectra, infer_state, to_density_matrix, validate_constraints


def inferred(q, b=math.sqrt(2.0), s2=6.0):
    return infer_state(validate_constraints(q, b, s2))


class TestCriterionVerdict:
    def test_separable_point(self):
        v = criterion_verdict(inferred(2.0))
        assert not v.entangled
        assert abs(v.margin - (-0.0729490168751577)) < 1e-12

    def test_entangled_point(self):
        v = criterion_verdict(inferred(0.5))
        assert v.entangled
        assert abs(v.margin - 0.3928571428571429) < 1e-12

    def test_negative_b_dust_agrees_with_ppt(self):
        # validation accepts b_q = -5e-13; raw weights put the top eigenvalue on psi_minus,
        # which lambda_max does not read
        for q in (1e-15, 1e-9, 1e-6):
            s = inferred(q, -5e-13, 5.0)
            v, p = criterion_verdict(s), ppt_verdict(to_density_matrix(s))
            assert v.entangled == p.entangled and abs(v.margin) <= 1e-12, (q, v, p)
            batch = infer_spectra(q, np.array([-5e-13]), np.array([5.0]))
            assert batch.lambda_max[0] == s.lambda_max

    def test_weights_below_clamp_agree_with_infer_state(self):
        # validation accepts s2 - 2*sqrt(2)*b down to -1e-12, so w_plus and w_minus can sit
        # below the -1e-13 clamp on a feasible cell; both paths give them root 0
        for q in (0.5, 1.0, 2.0):
            s = inferred(q, -1e-12, -3.8e-12)
            with np.errstate(all="raise"):
                batch = infer_spectra(q, np.array([-1e-12]), np.array([-3.8e-12]))
            assert batch.feasible[0] and batch.lambda_max[0] == s.lambda_max == 0.5

    def test_boundary_tie_is_separable(self):
        for q in (0.5, 1.0, 2.0):
            v = criterion_verdict(inferred(q, 0.0, 8.0))
            assert v.margin == 0.0
            assert not v.entangled


class TestPptVerdict:
    def test_maximally_entangled(self):
        v = ppt_verdict(bell_projectors()["phi_plus"])
        assert v.entangled
        assert abs(v.margin - (-0.5)) < 1e-12

    def test_maximally_mixed(self):
        v = ppt_verdict(np.eye(4) / 4)
        assert not v.entangled
        assert abs(v.margin - 0.25) < 1e-12

    def test_agrees_with_criterion_on_inferred_state(self):
        state = inferred(0.5)
        assert ppt_verdict(to_density_matrix(state)).entangled
        assert criterion_verdict(state).entangled

    def test_rejects_single_qubit(self):
        with pytest.raises(DimensionError):
            ppt_verdict(np.eye(2) / 2)


class TestScanRegion:
    def test_grid_shape_and_ordering(self):
        g = scan_region(2.0, 8)
        assert g.b_q.size == 64
        # b varies fastest: the first row of cells sweeps b at sigma2 = 0
        assert np.allclose(g.sigma2_q[:8], 0.0)
        assert np.all(np.diff(g.b_q[:8]) > 0)

    def test_pure_corner_cell(self):
        g = scan_region(2.0, 8)
        assert g.feasible[-1]
        assert g.lambda_max[-1] == 1.0
        assert g.entangled[-1]

    def test_infeasible_cell(self):
        g = scan_region(2.0, 8)
        # last cell of the first row: b = 2*sqrt(2), sigma2 = 0
        assert not g.feasible[7]
        assert math.isnan(g.lambda_max[7])
        assert not g.entangled[7]

    def test_feasible_count_is_upper_triangle(self):
        g = scan_region(1.5, 50)
        assert int(g.feasible.sum()) == 50 * 51 // 2

    def test_worker_count_does_not_change_results(self):
        """Repeated scans give the same arrays."""
        grids = [scan_region(0.9, 24) for _ in range(3)]
        for g in grids[1:]:
            assert np.array_equal(g.lambda_max, grids[0].lambda_max, equal_nan=True)
            assert np.array_equal(g.entangled, grids[0].entangled)

    def test_peak_memory_per_cell(self):
        # numpy reports its buffers to tracemalloc; the returned grid alone holds 26 bytes a cell
        tracemalloc.start()
        try:
            scan_region(2.0, 400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 400**2 < 60

    def test_rejects_bad_arguments(self):
        with pytest.raises(QOutOfDomain):
            scan_region(0.0, 10)
        with pytest.raises(ValueError):
            scan_region(2.0, 1)


#: q values of the kernel-vs-scalar comparison: both Gibbs-seam sides, the
#: small-q regime where unshifted roots underflow, and a nearly flat large q
KERNEL_QS = (1e-3, 0.1, 0.5, 0.9, 1.0, 1.0 + 1e-7, 1.5, 2.0, 5.0, 600.0)


def _per_cell_csv(grid):
    """The CSV as formatted one cell at a time, the reference for region_to_csv."""
    def fmt(x):
        return "nan" if math.isnan(x) else f"{x:.9g}"

    lines = ["b_q,sigma2_q,feasible,lambda_max,entangled"]
    for i in range(grid.b_q.size):
        lines.append(f"{fmt(float(grid.b_q[i]))},{fmt(float(grid.sigma2_q[i]))},"
                     f"{int(grid.feasible[i])},{fmt(float(grid.lambda_max[i]))},"
                     f"{int(grid.entangled[i])}")
    return "\n".join(lines) + "\n"


def _csv(grid):
    """The header and what region_to_csv writes for a grid."""
    out = io.BytesIO()
    out.write(b"b_q,sigma2_q,feasible,lambda_max,entangled\n")
    region_to_csv(grid, out)
    return out.getvalue()


class TestKernelAgainstScalarPath:
    @pytest.mark.parametrize("q", KERNEL_QS)
    def test_scan_matches_per_cell_inference(self, q):
        g = scan_region(q, 40)
        for i in range(g.b_q.size):
            try:
                state = infer_state(validate_constraints(q, float(g.b_q[i]), float(g.sigma2_q[i])))
            except UncertaintyViolated:
                assert not g.feasible[i] and not g.entangled[i]
                assert math.isnan(g.lambda_max[i])
                continue
            assert g.feasible[i]
            assert g.entangled[i] == criterion_verdict(state).entangled
            assert abs(g.lambda_max[i] - state.lambda_max) <= 4 * np.spacing(state.lambda_max)

    @pytest.mark.parametrize("q", KERNEL_QS)
    def test_csv_matches_per_cell_formatting(self, q):
        g = scan_region(q, 40)
        assert _csv(g) == _per_cell_csv(g).encode()

    @pytest.mark.parametrize("q", KERNEL_QS)
    def test_cli_scan_matches_per_cell_formatting(self, q, tmp_path, capsysbinary, monkeypatch):
        """The streamed scan, to --out and to stdout, against one full-grid scan formatted per cell."""
        rng = np.random.default_rng(KERNEL_QS.index(q))
        target, blocks = tmp_path / "region.csv", (cli._BLOCK_CELLS, 97)
        # blocks hold whole grid rows: 200 rows are 81 + 81 + 38 at 16384 cells a block;
        # at 97 cells, sizes below 49 hold several rows a block, and those that
        # 97 // n does not divide end on a shorter one, as 25 rows do (3 a block, 1 last)
        for n in (2, 3, 25, 100, 200, *rng.integers(3, 90, size=3).tolist()):
            want = _per_cell_csv(scan_region(q, n)).encode()
            for block_cells in blocks:
                monkeypatch.setattr(cli, "_BLOCK_CELLS", block_cells)
                argv = ["scan", "--q", repr(q), "--grid", str(n)]
                assert cli.run([*argv, "--out", str(target)]) == 0
                assert target.read_bytes() == want, (block_cells, n)
                assert cli.run(argv) == 0
                assert capsysbinary.readouterr().out == want, (block_cells, n)

    @pytest.mark.parametrize("q", ("0.5", "2.0", "5.0"))
    def test_benchmark_scans_match_per_cell_formatting(self, q, tmp_path):
        """The scans the benchmark times: grid 400 at the default block size."""
        target = tmp_path / "region.csv"
        assert cli.run(["scan", "--grid", "400", "--q", q, "--out", str(target)]) == 0
        assert target.read_bytes() == _per_cell_csv(scan_region(float(q), 400)).encode()

    def test_csv_needs_each_rows_feasible_cells_first(self):
        g = scan_region(2.0, 6)
        feasible = g.feasible.copy()
        assert feasible[6:12].tolist() == [True, True, False, False, False, False]
        feasible[9] = True  # row 1 now has a feasible cell after its infeasible cell 8
        out = io.BytesIO()
        with pytest.raises(ValueError, match="feasible cell after an infeasible one"):
            region_to_csv(g._replace(feasible=feasible), out)
        assert out.getvalue() == b""

    @pytest.mark.parametrize("q", (0.5, 2.0))
    def test_csv_of_smallest_grid_and_of_a_fully_feasible_last_row(self, q):
        # the top row, sigma2 = 8, is feasible throughout, so its block has no infeasible run
        n = 7
        for g in (scan_region(q, 2), scan_region(q, n, slice(n - 3, n))):
            assert g.feasible[-g.n:].all()
            assert _csv(g) == _per_cell_csv(g).encode()

    def test_csv_of_forced_lambda_max_matches_per_cell_formatting(self, monkeypatch):
        half = [(k + 0.5) / 1e9 for k in (100_000_000, 249_999_999, 250_000_000, 333_333_333,
                                          499_999_999, 500_000_000, 876_543_209, 999_999_999)]
        near_half = [(k + 0.5 + d) / 1e9 for k in (250_000_000, 500_000_000, 999_999_999)
                     for d in (-2e-6, -1e-7, 1e-7, 2e-6)]
        hard = [*half, *near_half, 0.25, 1.0, 1 - 4e-10, 1 - 6e-10, 0.1, 0.5, 0.100000001]
        neighbours = [np.nextafter(x, t) for x in hard for t in (0.0, 2.0)]
        outside = [0.0, -0.0, 0.05, 0.0999999999, 1.5, 1 + 1e-10, -0.3, 5e-324, 1e-300,
                   123456.789, math.inf, -math.inf]
        rng = np.random.default_rng(7)
        values = np.array([*hard, *neighbours, *outside, *rng.uniform(0.25, 1.0, 500)])

        g = scan_region(2.0, 60)
        cells = np.flatnonzero(g.feasible)
        assert cells.size >= values.size
        lam = g.lambda_max.copy()
        lam[cells] = np.resize(values, cells.size)
        forced = g._replace(lambda_max=lam)
        assert np.isnan(forced.lambda_max[~forced.feasible]).all()

        formatted = []
        fmt = cli._fmt
        monkeypatch.setattr(cli, "_fmt", lambda x: formatted.append(x) or fmt(x))
        assert _csv(forced) == _per_cell_csv(forced).encode()
        # ties and everything outside [0.1, 1] went through format(), the rest did not
        fallback = set(formatted)
        assert set(half) <= fallback and set(outside) <= fallback
        assert not {0.25, 1.0, 1 - 4e-10, 1 - 6e-10} & fallback

    def test_mask_follows_every_domain_inequality(self):
        tol = 1e-12
        cases = [  # (b_q, sigma2_q, accepted by validate_constraints)
            (-2 * tol, 4.0, False), (-0.5 * tol, 4.0, True),
            (B_MAX + 0.5 * tol, 8.0 + 0.9 * tol, True), (B_MAX + 2 * tol, 8.0, False),
            (1.0, 8.0 + 0.5 * tol, True), (1.0, 8.0 + 2 * tol, False), (1.0, 2.0, False),
            (math.nan, 4.0, False), (math.inf, 8.0, False), (0.0, -math.inf, False),
        ]
        for b, s2, accepted in cases:
            if accepted:
                validate_constraints(2.0, b, s2)
            else:
                with pytest.raises(QmaxentError):
                    validate_constraints(2.0, b, s2)
        b, s2, accepted = zip(*cases)
        assert infer_spectra(2.0, np.array(b), np.array(s2)).feasible.tolist() == list(accepted)

    def test_rejects_bad_q(self):
        for q in (0.0, -1.0, math.inf, math.nan, 1e-310):
            with pytest.raises(QOutOfDomain):
                infer_spectra(q, np.zeros(2), np.zeros(2))


class TestAreaFraction:
    def test_all_entangled(self):
        g = RegionGrid(q=1.0, n=2, b_q=np.zeros(4), sigma2_q=np.zeros(4),
                       feasible=np.ones(4, bool), lambda_max=np.ones(4),
                       entangled=np.ones(4, bool))
        assert area_fraction(g) == 1.0

    def test_none_entangled(self):
        g = RegionGrid(q=1.0, n=2, b_q=np.zeros(4), sigma2_q=np.zeros(4),
                       feasible=np.ones(4, bool), lambda_max=np.full(4, 0.3),
                       entangled=np.zeros(4, bool))
        assert area_fraction(g) == 0.0

    def test_empty_grid(self):
        g = RegionGrid(q=1.0, n=2, b_q=np.zeros(4), sigma2_q=np.zeros(4),
                       feasible=np.zeros(4, bool), lambda_max=np.full(4, np.nan),
                       entangled=np.zeros(4, bool))
        with pytest.raises(EmptyGrid):
            area_fraction(g)

    def test_entangled_area_shrinks_with_q(self):
        fractions = [area_fraction(scan_region(q, 40)) for q in (0.1, 0.5, 0.9, 1.5, 2.0, 5.0)]
        assert all(a > b for a, b in zip(fractions, fractions[1:]))
