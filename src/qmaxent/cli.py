"""Command-line front door.

Subcommands: infer, scan, mutual, thermo, verify.  Exit codes: 0 success,
2 usage error or unusable --out, 3 domain or constraint error, 4 verification failure.
Float output is fixed at nine significant digits so repeated runs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

from .errors import BoundaryDivergence, BudgetExhausted, QmaxentError
from .entangle import RegionGrid, criterion_verdict, scan_region
from .inference import (
    _check_q,
    infer_state,
    lagrange_multipliers,
    to_density_matrix,
    validate_constraints,
)
# mutual_entropy and to_density_matrix go unused here, but perfbench/tracing.py wraps them by name
from .measures import mutual_entropy, mutual_entropy_closed_form, mutual_entropy_of_state
from .oracle import compare_states, maxent_general_oracle, maxent_split_oracle
from .thermo import entropy_of_state, legendre_report

def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _scalar(value) -> str:
    """Text of one payload value: null, true/false, an integer, a float or a string."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, float):
        return _fmt(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _json_value(value, indent: int) -> str:
    if isinstance(value, dict):
        pad = "  " * (indent + 1)
        items = [f'{pad}{json.dumps(k)}: {_json_value(value[k], indent + 1)}'
                 for k in sorted(value)]
        return "{\n" + ",\n".join(items) + "\n" + "  " * indent + "}"
    return json.dumps(value) if isinstance(value, str) else _scalar(value)


def to_json(obj: dict) -> str:
    return _json_value(obj, 0) + "\n"


def _flatten(obj, prefix=""):
    for key in sorted(obj):
        value = obj[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _flatten(value, prefix=f"{name}.")
        else:
            yield name, value


def to_plain(obj: dict) -> str:
    return "".join(f"{name} = {_scalar(value)}\n" for name, value in _flatten(obj))


class _StdoutText:
    """A binary file object that hands sys.stdout text, so that any text stream works."""
    def write(self, data: bytes) -> None:
        sys.stdout.write(data.decode())


def _output(out_path):
    return open(out_path, "wb") if out_path else contextlib.nullcontext(_StdoutText())


def _emit(payload: str, out_path):
    with _output(out_path) as out:
        out.write(payload.encode())


#: grid cells in a block of whole grid rows (at least one); bounds the scan's scratch arrays
_BLOCK_CELLS = 1 << 15
#: largest --grid: one grid row then fits in a block, so every accepted scan's memory is bounded
_MAX_GRID = _BLOCK_CELLS
#: a lambda_max whose x*1e9 lies this close to a half-integer is left to _fmt:
#: the product carries at most 6e-8 of rounding error there, so rint is exact further out
_TIE_TOL = 1e-6


def _words(texts):
    """ASCII texts as rows of 4-byte words, each text zero-padded to the longest one."""
    import numpy as np
    words = -(-max([1, *map(len, texts)]) // 4)
    text = np.array([t.encode() for t in texts], dtype=f"S{4 * words}")
    return text.view(np.uint32).reshape(len(texts), words)


@functools.cache
def _word_tables():
    """The word tables of region_to_csv: group, "000" to "999", then the same with trailing
    zeros dropped, then "nan"; head, "{feasible}," and then "", "0." or "1" (other cells,
    fast cells, cells that round to 1), indexed 3*feasible + kind; tail, ",{entangled}\n".
    """
    digits = [f"{g:03d}" for g in range(1000)]
    group = _words(digits + [d.rstrip("0") for d in digits] + ["nan"]).ravel()
    head = _words([f"{f},{x}" for f in "01" for x in ("", "0.", "1")]).ravel()
    tail = _words([f",{e}\n" for e in "01"]).ravel()
    return group, head, tail


@functools.lru_cache(maxsize=1)
def _axis_words(values: tuple):
    """The words of "{x}," for each x of a grid axis; every block of a scan has the same b axis."""
    return _words([f"{_fmt(x)}," for x in values])


def region_to_csv(grid: RegionGrid, out) -> None:
    """Write a scan's CSV lines after the header to the binary file out, b varying fastest.

    Byte for byte the text of formatting every cell with _fmt, in one block; the scan
    command bounds memory by passing blocks of grid rows.  A cell is a row of zero-padded
    words, zeros then dropped: %.9g of x in [0.1, 1] is "1" when x rounds to 1e9 units of
    the ninth digit, else "0." and those nine digits without trailing zeros, in three
    groups of three.  NaN prints "nan"; other values and near ties go through _fmt.
    """
    import numpy as np
    group, head, tail = _word_tables()
    n, lam = grid.n, grid.lambda_max
    inside = (lam >= 0.1) & (lam <= 1.0)
    y = np.where(inside, lam, 0.0) * 1e9
    fast = inside & (np.abs(y - np.floor(y) - 0.5) > _TIE_TOL)
    nan = np.isnan(lam)
    slow = np.flatnonzero(~fast & ~nan)
    slow_words = _words([_fmt(x) for x in lam[slow].tolist()])
    k = np.rint(np.where(fast, y, 0.0)).astype(np.int64)
    one = k == 10**9
    k[one] = 0
    hi, rest = np.divmod(k, 10**6)
    mid, lo = np.divmod(rest, 1000)

    b_words = _axis_words(tuple(grid.b_q[:n].tolist()))
    s2_words = _words([f"{_fmt(x)}," for x in grid.sigma2_q[::n].tolist()])
    # b_q, | sigma2_q, | feasible,head | three digit groups | ,entangled\n
    rows, nb, ns = len(s2_words), b_words.shape[1], s2_words.shape[1]
    at = nb + ns + 1
    line = np.zeros((rows, n, at + max(3, slow_words.shape[1]) + 1), dtype=np.uint32)
    line[:, :, :nb] = b_words
    line[:, :, nb:nb + ns] = s2_words[:, None, :]
    line = line.reshape(rows * n, -1)
    line[:, at - 1] = head[3 * grid.feasible + fast + one]
    line[:, at] = group[np.where(nan, 2000, hi + 1000 * ((mid == 0) & (lo == 0)))]
    line[:, at + 1] = group[mid + 1000 * (lo == 0)]
    line[:, at + 2] = group[lo + 1000]
    line[slow, at:at + slow_words.shape[1]] = slow_words
    line[:, -1] = tail[grid.entangled.astype(np.intp)]
    out.write(line.tobytes().translate(None, b"\0"))


def _cmd_infer(args) -> int:
    state = infer_state(validate_constraints(args.q, args.b, args.sigma2))
    verdict = criterion_verdict(state)
    entropy = entropy_of_state(state)
    try:
        lam1, lam2 = lagrange_multipliers(state)
        free = lam1 * state.constraints.b_q + lam2 * state.constraints.sigma2_q - entropy
    except BoundaryDivergence:
        lam1 = lam2 = free = None
    payload = {
        "F_q": free,
        "S_q": entropy,
        "Z_q": state.Z_q,
        "b_q": state.constraints.b_q,
        "c_q": state.c_q,
        "eigenvalues": {
            "phi_plus": state.eig_phi_plus,
            "phi_minus": state.eig_deg,
            "psi_plus": state.eig_deg,
            "psi_minus": state.eig_psi_minus,
        },
        "entangled": verdict.entangled,
        "lambda_1": lam1,
        "lambda_2": lam2,
        "lambda_max": state.lambda_max,
        "q": state.constraints.q,
        "sigma2_q": state.constraints.sigma2_q,
        "weights": state.weights._asdict(),
    }
    _emit(to_json(payload) if args.json else to_plain(payload), args.out)
    return 0


def _cmd_scan(args) -> int:
    _check_q(args.q)  # before --out is opened, so that a bad q leaves no file
    n, rows = args.grid, max(1, _BLOCK_CELLS // args.grid)
    with _output(args.out) as out:
        out.write(b"b_q,sigma2_q,feasible,lambda_max,entangled\n")
        for j in range(0, n, rows):
            region_to_csv(scan_region(args.q, n, slice(j, j + rows)), out)
    return 0


def _cmd_mutual(args) -> int:
    qprime = args.qprime if args.qprime is not None else args.q
    state = infer_state(validate_constraints(args.q, args.b, args.sigma2))
    payload = {
        "K_qprime": mutual_entropy_of_state(state, qprime),
        "closed_form": mutual_entropy_closed_form(state, qprime),
        "b_q": args.b,
        "q": args.q,
        "qprime": qprime,
        "sigma2_q": args.sigma2,
    }
    _emit(to_json(payload) if args.json else to_plain(payload), args.out)
    return 0


def _cmd_thermo(args) -> int:
    payload = legendre_report(validate_constraints(args.q, args.b, args.sigma2),
                              h=args.fd_step)._asdict()
    _emit(to_json(payload) if args.json else to_plain(payload), args.out)
    return 0


#: verify thresholds: spectrum agreement for the split oracle, entropy
#: headroom for the general one
_SPLIT_TOL = 1e-7
_ENTROPY_TOL = 1e-6


def _cmd_verify(args) -> int:
    c = validate_constraints(args.q, args.b, args.sigma2)
    state = infer_state(c)
    closed = entropy_of_state(state)
    if args.oracle == "split":
        result = maxent_split_oracle(c)
        diff = compare_states(state, result)
        payload = {"max_eigenvalue_diff": diff, "passed": diff < _SPLIT_TOL}
        failure = f"spectrum mismatch {diff:.3g} exceeds {_SPLIT_TOL}"
    else:
        result = maxent_general_oracle(c, seed=args.seed, budget=args.budget)
        excess = result.achieved_entropy - closed
        payload = {
            "entropy_excess": excess,
            "note": ("falsifier only: failure to beat the closed form is "
                     "evidence, not a proof of optimality"),
            "passed": excess <= _ENTROPY_TOL,
            "seed": args.seed,
        }
        failure = f"oracle exceeded the closed-form entropy by {excess:.3g}"
    payload.update(achieved_entropy=result.achieved_entropy, closed_form_entropy=closed,
                   constraint_residual=result.constraint_residual,
                   iterations=result.iterations, oracle=args.oracle)
    _emit(to_json(payload) if args.json else to_plain(payload), args.out)
    if not payload["passed"]:
        print(f"verify failed: {failure}", file=sys.stderr)
        return 4
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmaxent",
        description="Maximum-Tsallis-entropy inference from two-qubit correlation data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p):
        p.add_argument("--q", type=float, required=True, help="entropic index (> 0)")
        p.add_argument("--b", type=float, required=True, help="correlation datum b_q")
        p.add_argument("--sigma2", type=float, required=True, help="dispersion datum sigma2_q")

    def add_output_flags(p):
        p.add_argument("--json", action="store_true", help="emit JSON instead of plain text")
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("infer", help="closed-form state for the given data")
    add_data_flags(p)
    add_output_flags(p)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("scan", help="rasterize the data domain to CSV")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--grid", type=int, default=100, help="cells per axis (>= 2)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("mutual", help="generalized mutual entropy of the inferred state")
    add_data_flags(p)
    p.add_argument("--qprime", type=float, default=None,
                   help="divergence order (default: the value of --q)")
    add_output_flags(p)
    p.set_defaults(func=_cmd_mutual)

    p = sub.add_parser("thermo", help="finite-difference audit of the Legendre structure")
    add_data_flags(p)
    p.add_argument("--fd-step", type=float, default=1e-5, help="central-difference step")
    add_output_flags(p)
    p.set_defaults(func=_cmd_thermo)

    p = sub.add_parser("verify", help="check the closed form against a numerical oracle")
    add_data_flags(p)
    p.add_argument("--oracle", choices=("split", "general"), default="split")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=6000)
    add_output_flags(p)
    p.set_defaults(func=_cmd_verify)
    return parser


def _validate_flags(args) -> str | None:
    for name in ("q", "b", "sigma2", "qprime", "fd_step"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            return f"--{name.replace('_', '-')} must be finite, got {value}"
    if getattr(args, "grid", 2) < 2:
        return f"--grid must be at least 2, got {args.grid}"
    if getattr(args, "grid", 2) > _MAX_GRID:
        return f"--grid must be at most {_MAX_GRID}, got {args.grid}"
    if hasattr(args, "fd_step") and not 1e-8 <= args.fd_step <= 1e-3:
        return f"--fd-step must lie in [1e-8, 1e-3], got {args.fd_step}"
    if getattr(args, "budget", 6000) < 1000:
        return f"--budget must be at least 1000, got {args.budget}"
    if getattr(args, "seed", 0) < 0:
        return f"--seed must be non-negative, got {args.seed}"
    return None


def run(argv) -> int:
    """Parse and execute one invocation, returning the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    problem = _validate_flags(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except BudgetExhausted as exc:
        print(f"verify failed: {exc}", file=sys.stderr)
        return 4
    except QmaxentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # an --out path that cannot be opened or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
