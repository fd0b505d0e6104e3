"""Command-line front door.

Subcommands: infer, scan, mutual, thermo, verify.  Exit codes: 0 success,
2 usage error, 3 domain or constraint error, 4 verification failure.
Float output is fixed at nine significant digits so repeated runs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from .errors import BoundaryDivergence, BudgetExhausted, QmaxentError
from .entangle import RegionGrid, criterion_verdict, scan_region
from .inference import (
    infer_state,
    lagrange_multipliers,
    to_density_matrix,
    validate_constraints,
)
from .measures import mutual_entropy, mutual_entropy_closed_form
from .oracle import compare_states, maxent_general_oracle, maxent_split_oracle
from .thermo import entropy_of_state, legendre_report

_FLOAT_DIGITS = 9


def _fmt(x: float) -> str:
    return f"{x:.{_FLOAT_DIGITS}g}"


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


def _emit(payload: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def region_to_csv(grid: RegionGrid) -> str:
    """Serialize a scan: header plus n*n rows, b varying fastest, LF endings."""
    n = grid.n
    b_text = [_fmt(x) for x in grid.b_q[:n].tolist()]
    s2_text = [_fmt(x) for x in grid.sigma2_q[::n].tolist()]
    rows = ["b_q,sigma2_q,feasible,lambda_max,entangled\n"]
    grids = (a.reshape(n, n) for a in (grid.feasible, grid.lambda_max, grid.entangled))
    for s2, f_row, lam_row, e_row in zip(s2_text, *grids):
        cells = zip(b_text, f_row.tolist(), lam_row.tolist(), e_row.tolist())
        rows.append("".join([f"{b},{s2},{int(f)},{_fmt(x)},{int(e)}\n" for b, f, x, e in cells]))
    return "".join(rows)


def _infer_payload(q, b, s2):
    state = infer_state(validate_constraints(q, b, s2))
    verdict = criterion_verdict(state)
    entropy = entropy_of_state(state)
    try:
        mult = lagrange_multipliers(state)
        lam1, lam2 = mult.lambda_1, mult.lambda_2
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
        "weights": asdict(state.weights),
    }
    return state, payload


def _cmd_infer(args) -> int:
    _, payload = _infer_payload(args.q, args.b, args.sigma2)
    _emit(to_json(payload) if args.json else to_plain(payload), args.out)
    return 0


def _cmd_scan(args) -> int:
    _emit(region_to_csv(scan_region(args.q, args.grid)), args.out)
    return 0


def _cmd_mutual(args) -> int:
    qprime = args.qprime if args.qprime is not None else args.q
    state, _ = _infer_payload(args.q, args.b, args.sigma2)
    result = mutual_entropy(to_density_matrix(state), qprime)
    payload = {
        "K_qprime": result.value,
        "closed_form": mutual_entropy_closed_form(state, qprime),
        "b_q": args.b,
        "q": args.q,
        "qprime": qprime,
        "sigma2_q": args.sigma2,
    }
    _emit(to_json(payload) if args.json else to_plain(payload), args.out)
    return 0


def _cmd_thermo(args) -> int:
    payload = asdict(legendre_report(validate_constraints(args.q, args.b, args.sigma2),
                                     h=args.fd_step))
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
        payload = {
            "achieved_entropy": result.achieved_entropy,
            "closed_form_entropy": closed,
            "constraint_residual": result.constraint_residual,
            "iterations": result.iterations,
            "max_eigenvalue_diff": diff,
            "oracle": "split",
            "passed": diff < _SPLIT_TOL,
        }
        failure = None if diff < _SPLIT_TOL else (
            f"spectrum mismatch {diff:.3g} exceeds {_SPLIT_TOL}")
    else:
        result = maxent_general_oracle(c, seed=args.seed, budget=args.budget)
        excess = result.achieved_entropy - closed
        payload = {
            "achieved_entropy": result.achieved_entropy,
            "closed_form_entropy": closed,
            "constraint_residual": result.constraint_residual,
            "entropy_excess": excess,
            "iterations": result.iterations,
            "note": ("falsifier only: failure to beat the closed form is "
                     "evidence, not a proof of optimality"),
            "oracle": "general",
            "passed": excess <= _ENTROPY_TOL,
            "seed": args.seed,
        }
        failure = None if excess <= _ENTROPY_TOL else (
            f"oracle exceeded the closed-form entropy by {excess:.3g}")
    _emit(to_json(payload) if args.json else to_plain(payload), args.out)
    if failure is not None:
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
    if hasattr(args, "fd_step") and not 1e-8 <= args.fd_step <= 1e-3:
        return f"--fd-step must lie in [1e-8, 1e-3], got {args.fd_step}"
    if getattr(args, "budget", 6000) < 1000:
        return f"--budget must be at least 1000, got {args.budget}"
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


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
