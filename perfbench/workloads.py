"""The workloads: inputs made from a seed, one operation, and its check.

Every workload runs in whole rounds of ``round_size`` operations whose mix
does not depend on the seed, so throughput and medians compare across seeds.
Each check compares the program's output with the independent reference in
``reference.py``, never with the program's own functions.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import reference as ref

B_MAX = 2.0 * math.sqrt(2.0)
HERE = Path(__file__).resolve().parent

#: q range of the per-point workloads, where the program's outputs pass the
#: checks (see the FOUND lines of CHANGES.md): below 0.3 the matrix mutual
#: entropy drifts from the closed form by more than 1e-9, and the split oracle
#: misses its 1e-7 agreement above about 7 and within about 2% of q = 1,
#: coming within a factor 3 of it out to 10%.
POINT_Q_RANGE = (0.3, 5.0)
POINT_Q_SKIP = (0.9, 1.1)
#: data are drawn at u, v in [MARGIN, 1 - MARGIN] of the feasible triangle,
#: so every finite-difference stencil of legendre_report stays inside it
MARGIN = 0.05


class CheckFailed(Exception):
    """An output of the program disagrees with the reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def interior_point(rng: random.Random, q_lo: float, q_hi: float, skip=None):
    """(q, b_q, sigma2_q): q log-uniform on [q_lo, q_hi] outside ``skip``, data interior.

    b_q = 2*sqrt(2)*u and sigma2_q = 2*sqrt(2)*b_q + v*(8 - 2*sqrt(2)*b_q), so
    the uncertainty gap, 8 - sigma2_q and b_q all stay at least ~0.02.
    """
    while True:
        q = math.exp(rng.uniform(math.log(q_lo), math.log(q_hi)))
        if skip is None or not skip[0] < q < skip[1]:
            break
    u = rng.uniform(MARGIN, 1.0 - MARGIN)
    v = rng.uniform(MARGIN, 1.0 - MARGIN)
    b = B_MAX * u
    return q, b, B_MAX * b + v * (8.0 - B_MAX * b)


def half_ulp9(x: float) -> float:
    """Largest rounding error of ``x`` printed with nine significant digits."""
    if x == 0.0 or not math.isfinite(x):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 8)


def printed_close(printed, exact: float) -> bool:
    """Whether a figure printed with nine significant digits reads ``exact``."""
    return abs(float(printed) - exact) <= 1.01 * half_ulp9(exact) + 1e-15


def escort_data(lam, q):
    """(b_q, sigma2_q) rebuilt in float from a slot-ordered spectrum."""
    powers = [x ** q for x in lam]
    total = sum(powers)
    return B_MAX * (powers[0] - powers[1]) / total, 8.0 * (powers[0] + powers[1]) / total


def tie(lambda_max: float) -> bool:
    """Within 1e-12 of the criterion's threshold 1/2, where verdicts may differ."""
    return abs(lambda_max - 0.5) <= 1e-12


def _reference_mutual(lam, q_prime) -> float:
    """Mutual entropy (q' != 1) of a Bell-diagonal state, whose marginals are I/2."""
    powers = sum(float(x) ** q_prime for x in lam)
    return (1.0 - 4.0 ** (q_prime - 1.0) * powers) / (1.0 - q_prime)


# ---------------------------------------------------------------- cli-calls

def _parse_plain(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


class CliCalls:
    """Fresh-process ``python -m qmaxent.cli`` calls: infer --json, mutual, thermo, verify."""

    name = "cli-calls"
    round_size = 4
    in_process = False

    def __init__(self, seed: int, root: Path, out_dir: Path):
        self.rng = random.Random(seed)
        self.root = root
        self.out_dir = out_dir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.tracer = None
        self.importtimes = []  # -X importtime reports of the traced calls

    def inputs(self, i: int):
        return (("infer", "mutual", "thermo", "verify")[i % 4],
                interior_point(self.rng, *POINT_Q_RANGE, skip=POINT_Q_SKIP))

    def argv(self, command, point):
        q, b, s2 = point
        args = [command, "--q", repr(q), "--b", repr(b), "--sigma2", repr(s2)]
        return args + ["--json"] if command == "infer" else args

    def warmup(self):
        self.run(self.inputs(0))

    def run(self, item):
        command, point = item
        if self.tracer is None:
            cmd = [sys.executable, "-m", "qmaxent.cli", *self.argv(command, point)]
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True)
            return proc.returncode, proc.stdout.decode(), proc.stderr.decode()
        return self._run_traced(command, point)

    def _run_traced(self, command, point):
        spans_file = self.out_dir / "cli-child-spans.json"
        cmd = [sys.executable, "-X", "importtime", str(HERE / "cli_child.py"),
               str(spans_file), *self.argv(command, point)]
        spawned = time.monotonic()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True)
        ended = time.monotonic()
        child = json.loads(spans_file.read_text())
        parent = self.tracer.current()
        self.tracer.add("import.interpreter", spawned, child["started"], parent)
        self.tracer.add("import.qmaxent", child["started"], child["imported"], parent)
        self.tracer.add("exit.interpreter", child["finished"], ended, parent)
        offset = len(self.tracer.spans)
        for name, start, end, child_parent in child["spans"]:
            self.tracer.add(name, start, end, parent if child_parent < 0 else offset + child_parent)
        self.importtimes.append(proc.stderr.decode())
        return proc.returncode, proc.stdout.decode(), ""

    def check(self, item, result):
        command, (q, b, s2) = item
        code, stdout, stderr = result
        require(code == 0, f"{command} exited {code}: {stderr.strip()[-300:]}")
        lam_ref = [float(x) for x in ref.spectrum(ref.escort_from_data(b, s2), q)]
        if command == "infer":
            self._check_infer(json.loads(stdout), q, b, s2, lam_ref)
        elif command == "mutual":
            self._check_mutual(_parse_plain(stdout), lam_ref, q)
        elif command == "thermo":
            self._check_thermo(_parse_plain(stdout), q, b, s2)
        else:
            self._check_verify(_parse_plain(stdout), lam_ref, q)

    @staticmethod
    def _check_infer(payload, q, b, s2, lam_ref):
        eig = payload["eigenvalues"]
        lam = [eig["phi_plus"], eig["psi_minus"], eig["phi_minus"], eig["psi_plus"]]
        rounding = [half_ulp9(x) for x in lam]
        require(abs(sum(lam) - 1.0) <= 1.01 * sum(rounding) + 1e-15,
                f"eigenvalues sum to {sum(lam)!r}")
        for got, want, h in zip(lam, lam_ref, rounding):
            require(abs(got - want) <= 1.01 * h + 1e-15, f"eigenvalue {got} vs reference {want}")
        # the spectrum is printed with nine digits; the rebuilt data may move by
        # as much as those roundings propagate, and by 1e-9 beyond that
        b_rec, s2_rec = escort_data(lam, q)
        slack_b = slack_s2 = 0.0
        for k, h in enumerate(rounding):
            bumped = list(lam)
            bumped[k] += h
            bb, ss = escort_data(bumped, q)
            slack_b += abs(bb - b_rec)
            slack_s2 += abs(ss - s2_rec)
        require(abs(b_rec - b) <= 1e-9 + 2.0 * slack_b, f"b_q rebuilt as {b_rec} from {b}")
        require(abs(s2_rec - s2) <= 1e-9 + 2.0 * slack_s2, f"sigma2_q rebuilt as {s2_rec} from {s2}")
        lam_max = max(lam_ref)
        require(printed_close(payload["lambda_max"], lam_max), "lambda_max off the reference")
        if not tie(lam_max):
            require(payload["entangled"] == (lam_max > 0.5), "entangled disagrees with lambda_max > 1/2")

    @staticmethod
    def _check_mutual(out, lam_ref, q):
        matrix, closed = float(out["K_qprime"]), float(out["closed_form"])
        require(matrix >= 0.0 and closed >= 0.0, f"negative mutual entropy {matrix}, {closed}")
        require(abs(matrix - closed) <= 1e-9 + half_ulp9(matrix) + half_ulp9(closed),
                f"matrix {matrix} vs closed form {closed}")
        want = _reference_mutual(lam_ref, q)
        require(abs(closed - want) <= 1e-9 + half_ulp9(closed), f"closed form {closed} vs reference {want}")

    @staticmethod
    def _check_thermo(out, q, b, s2):
        for key in ("dS_db_fd", "dS_dsigma2_fd", "lambda_1", "lambda_2",
                    "rel_err_1", "rel_err_2", "path_residual"):
            require(math.isfinite(float(out[key])), f"{key} = {out[key]}")
        # the multipliers are the gradient of S_q in the data: compare them
        # with a central difference of the reference entropy at 30 digits
        h = Decimal("1e-9")

        def entropy(db, ds):
            bd, sd = Decimal(b) + db, Decimal(s2) + ds
            return ref.tsallis_entropy(ref.spectrum(ref.escort_from_data(bd, sd), q), q)

        grad_b = float((entropy(h, 0) - entropy(-h, 0)) / (2 * h))
        grad_s = float((entropy(0, h) - entropy(0, -h)) / (2 * h))
        for key, want in (("lambda_1", grad_b), ("lambda_2", grad_s)):
            got = float(out[key])
            require(abs(got - want) <= 1e-7 * max(1.0, abs(want)) + half_ulp9(got),
                    f"{key} = {got}, reference gradient {want}")

    @staticmethod
    def _check_verify(out, lam_ref, q):
        require(out["passed"] == "true", f"verify did not pass: {out}")
        require(float(out["max_eigenvalue_diff"]) < 1e-7, "split oracle off by 1e-7")
        want = float(ref.tsallis_entropy(lam_ref, q))
        for key in ("achieved_entropy", "closed_form_entropy"):
            got = float(out[key])
            require(abs(got - want) <= 1e-9 + half_ulp9(got), f"{key} {got} vs reference {want}")


# -------------------------------------------------------------- scan-raster

SCAN_GRID = 400
#: fixed cycle of q values; the seed only rotates the order
SCAN_QS = (0.5, 2.0, 5.0)
SCAN_HEADER = "b_q,sigma2_q,feasible,lambda_max,entangled"


class ScanRaster:
    """``qmaxent.cli.run(["scan", ...])`` at grid 400 in one long-lived process.

    A round is one scan: a scan costs the same at every q of the cycle.
    """

    name = "scan-raster"
    round_size = 1
    in_process = True

    def __init__(self, seed: int, root: Path, out_dir: Path):
        import qmaxent.cli
        self.cli = qmaxent.cli
        start = random.Random(seed).randrange(len(SCAN_QS))
        self.cycle = SCAN_QS[start:] + SCAN_QS[:start]
        self.out_dir = out_dir
        self.verified = {}  # q -> (sha256 of the checked CSV, entangled count)
        self.last_csv_bytes = 0
        self.feasible_ratio = 0.0

    def inputs(self, i: int):
        q = self.cycle[i % len(self.cycle)]
        return q, self.out_dir / f"scan-q{q:g}.csv"

    def warmup(self):
        path = self.out_dir / "scan-warmup.csv"
        code = self.cli.run(["scan", "--grid", "16", "--q", "2", "--out", str(path)])
        require(code == 0, f"warm-up scan exited {code}")

    def run(self, item):
        q, path = item
        return self.cli.run(["scan", "--grid", str(SCAN_GRID), "--q", repr(q), "--out", str(path)])

    def check(self, item, code):
        q, path = item
        require(code == 0, f"scan exited {code}")
        data = path.read_bytes()
        self.last_csv_bytes = len(data)
        digest = hashlib.sha256(data).hexdigest()
        if q in self.verified:
            require(digest == self.verified[q][0], f"scan at q={q} differs from its checked output")
            return
        entangled, feasible = self._check_csv(q, data.decode())
        self.verified[q] = (digest, entangled)
        self.feasible_ratio = feasible / SCAN_GRID**2
        counts = [self.verified[x][1] for x in sorted(self.verified)]
        require(all(a > b for a, b in zip(counts, counts[1:])),
                f"entangled counts {counts} do not fall as q rises")

    @staticmethod
    def _check_csv(q: float, text: str):
        """Check a scan against the reference, cell by cell; count entangled and feasible cells."""
        n = SCAN_GRID
        # on the grid 2*sqrt(2)*b_i = 8i/(n-1) and sigma2_j = 8j/(n-1), so every
        # escort weight is k/(2(n-1)) for an integer k: 2n-1 reference roots
        inv_q = 1 / Decimal(q)
        roots = []
        for k in range(2 * n - 1):
            w = Decimal(k) / (2 * (n - 1))
            roots.append(float((w.ln() * inv_q).exp()) if k else 0.0)
        lines = text.split("\n")
        require(lines[0] == SCAN_HEADER, f"header {lines[0]!r}")
        require(len(lines) == n * n + 2 and lines[-1] == "", f"{len(lines) - 2} rows, want {n * n}")
        feasible = entangled = 0
        b_texts = []  # b_q of each column as printed in the first row, once checked
        for row, line in enumerate(lines[1:-1]):
            i, j = row % n, row // n
            b_text, s2_text, f_text, lam_text, e_text = line.split(",")
            if j == 0:
                require(printed_close(b_text, B_MAX * i / (n - 1)), f"row {row}: b_q {b_text}")
                b_texts.append(b_text)
            if i == 0:
                require(printed_close(s2_text, 8.0 * j / (n - 1)), f"row {row}: sigma2_q {s2_text}")
                s2_row_text = s2_text
            require(b_text == b_texts[i] and s2_text == s2_row_text,
                    f"row {row}: grid point ({b_text}, {s2_text}) out of place")
            if j < i:
                require(f_text == "0" and lam_text == "nan" and e_text == "0",
                        f"row {row}: infeasible cell reads {line}")
                continue
            require(f_text == "1", f"row {row}: feasible cell marked {f_text}")
            feasible += 1
            w_plus, w_minus, w_zero = roots[j + i], roots[j - i], roots[n - 1 - j]
            lam_max = max(w_plus, w_zero) / (w_plus + w_minus + 2.0 * w_zero)
            require(abs(float(lam_text) - lam_max) <= 1e-9,
                    f"row {row}: lambda_max {lam_text} vs reference {lam_max}")
            require(e_text in ("0", "1"), f"row {row}: entangled {e_text}")
            entangled += e_text == "1"
            if not tie(lam_max):
                require((e_text == "1") == (lam_max > 0.5), f"row {row}: verdict {e_text} at {lam_max}")
        require(feasible == n * (n + 1) // 2, f"{feasible} feasible cells")
        return entangled, feasible


# ------------------------------------------------------------ library-batch

class LibraryBatch:
    """The whole per-point library pipeline on a seeded stream of interior points."""

    name = "library-batch"
    round_size = 100
    in_process = True

    def __init__(self, seed: int, root: Path, out_dir: Path):
        import qmaxent
        self.qm = qmaxent
        self.rng = random.Random(seed)
        self.split_iterations = []

    def inputs(self, i: int):
        return interior_point(self.rng, *POINT_Q_RANGE, skip=POINT_Q_SKIP)

    def warmup(self):
        self.run((2.0, math.sqrt(2.0), 6.0))

    def run(self, point):
        qm = self.qm
        q, b, s2 = point
        c = qm.validate_constraints(q, b, s2)
        state = qm.infer_state(c)
        mult = qm.lagrange_multipliers(state)
        residual = qm.fixed_point_residual(state, mult)
        rho = qm.to_density_matrix(state)
        return {
            "state": state,
            "residual": residual,
            "criterion": qm.criterion_verdict(state),
            "ppt": qm.ppt_verdict(rho),
            "mutual_matrix": qm.mutual_entropy(rho, q).value,
            "mutual_closed": qm.mutual_entropy_closed_form(state, q),
            "free_energy": qm.free_energy(state),
            "legendre": qm.legendre_report(c),
            "split": qm.maxent_split_oracle(c),
        }

    def check(self, point, out):
        q, b, s2 = point
        lam_ref = [float(x) for x in ref.spectrum(ref.escort_from_data(b, s2), q)]
        lam = out["state"].eigenvalues()
        require(max(abs(x - y) for x, y in zip(lam, lam_ref)) <= 1e-9,
                f"spectrum {lam} vs reference {lam_ref}")
        b_rec, s2_rec = escort_data(lam, q)
        require(max(abs(b_rec - b), abs(s2_rec - s2)) <= 1e-9, f"data rebuilt as {b_rec}, {s2_rec}")
        require(out["residual"] < 1e-10, f"fixed-point residual {out['residual']}")
        lam_max = max(lam_ref)
        ppt, criterion = out["ppt"], out["criterion"]
        require(abs(ppt.margin - (0.5 - lam_max)) <= 1e-9,
                f"smallest partial-transpose eigenvalue {ppt.margin} vs {0.5 - lam_max}")
        if not tie(lam_max):
            require(criterion.entangled == ppt.entangled == (lam_max > 0.5),
                    "criterion and PPT verdicts disagree")
        matrix, closed = out["mutual_matrix"], out["mutual_closed"]
        require(abs(matrix - closed) <= 1e-9 and abs(closed - _reference_mutual(lam_ref, q)) <= 1e-9,
                f"mutual entropies {matrix}, {closed}")
        split = sorted(out["split"].eigenvalues)
        require(max(abs(x - y) for x, y in zip(split, sorted(lam_ref))) < 1e-7,
                f"split oracle spectrum {split}")
        self.split_iterations.append(out["split"].iterations)
        entropy = float(ref.tsallis_entropy(lam_ref, q))
        require(abs(out["free_energy"].S_q - entropy) <= 1e-9, "free-energy entropy off the reference")
        require(all(math.isfinite(x) for x in (out["free_energy"].F_q, out["legendre"].lambda_1,
                                                out["legendre"].lambda_2)), "non-finite thermodynamics")


# ----------------------------------------------------------- oracle-general

class OracleGeneral:
    """``maxent_general_oracle`` at its default budget over a fixed list of pairs.

    Not an end-to-end workload: seconds-long calls leave too few samples for
    steady figures in a run, so it serves as the traced general-oracle pass.
    """

    name = "oracle-general"
    in_process = True

    def __init__(self, seed: int, root: Path, out_dir: Path):
        import qmaxent
        self.qm = qmaxent
        pairs = json.loads((HERE / "oracle_pairs.json").read_text())["pairs"]
        random.Random(seed).shuffle(pairs)
        self.pairs = pairs
        self.round_size = len(pairs)
        self.entropy = {}
        self.tracer = None
        self.traced_evals = []  # OracleResult.iterations of the traced calls

    def inputs(self, i: int):
        return self.pairs[i % len(self.pairs)]

    def warmup(self):
        cheapest = min(self.pairs, key=lambda p: p["evals"])
        self.run(cheapest)

    def run(self, pair):
        c = self.qm.validate_constraints(pair["q"], pair["b"], pair["sigma2"])
        return self.qm.maxent_general_oracle(c, seed=pair["seed"])

    def check(self, pair, result):
        key = (pair["q"], pair["b"], pair["sigma2"])
        if key not in self.entropy:
            self.entropy[key] = float(ref.tsallis_entropy(ref.state(*key), pair["q"]))
        excess = result.achieved_entropy - self.entropy[key]
        require(excess <= 1e-6, f"oracle beat the reference entropy by {excess}")
        require(result.constraint_residual <= 1e-6, f"residual {result.constraint_residual}")
        if self.tracer is not None:
            self.traced_evals.append(result.iterations)


WORKLOADS = {w.name: w for w in (CliCalls, ScanRaster, LibraryBatch, OracleGeneral)}
