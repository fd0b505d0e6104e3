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


#: grid cells in a block of whole grid rows (at least one); bounds the scan's scratch arrays
_BLOCK_CELLS = 1 << 14
#: largest --grid; a block holds one grid row at least, so every accepted scan's memory is bounded
_MAX_GRID = 32768
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
    """The word tables of region_to_csv's feasible lines: group, "000" to "999", then the same
    with trailing zeros dropped; head, "1," and then "", "0." or "1" (other cells, fast cells,
    cells that round to 1); tail, ",{entangled}\n", then the same followed by a row-end mark.
    """
    digits = [f"{g:03d}" for g in range(1000)]
    group = _words(digits + [d.rstrip("0") for d in digits]).ravel()
    head = _words(["1,", "1,0.", "1,1"]).ravel()
    tail = _words([f",{e}\n{mark}" for mark in ("", "\x01") for e in "01"]).ravel()
    return group, head, tail


@functools.lru_cache(maxsize=2)
def _axis(values: tuple):
    """A grid axis's "{x}," texts as bytes and as words; the cache keeps b's across blocks."""
    texts = [f"{_fmt(x)}," for x in values]
    return [t.encode() for t in texts], _words(texts)


def region_to_csv(grid: RegionGrid, out) -> None:
    """Write a scan's CSV lines after the header to the binary file out, b varying fastest.

    Byte for byte the text of formatting every cell with _fmt, in one write; the scan command
    bounds memory by passing blocks of grid rows.  Each grid row's feasible cells must come
    first (RegionGrid), else ValueError; its infeasible run, "{b},{sigma2},0,nan,0" lines, is
    one join over the b axis texts.  A feasible cell is a row of zero-padded words, zeros then
    dropped: %.9g of x in [0.1, 1] is "1" when x rounds to 1e9 units of the ninth digit, else
    "0." and those nine digits without trailing zeros, in three groups of three; other values
    and near ties go through _fmt.  A \x01 ends each row's feasible text.
    """
    import numpy as np
    n = grid.n
    feasible = grid.feasible.reshape(-1, n)
    count = feasible.sum(axis=1)
    if not np.array_equal(feasible, np.arange(n) < count[:, None]):
        raise ValueError("a grid row has a feasible cell after an infeasible one")
    group, head, tail = _word_tables()
    cells = np.flatnonzero(feasible)
    row, col = np.divmod(cells, n)
    lam = grid.lambda_max[cells]
    inside = (lam >= 0.1) & (lam <= 1.0)
    y = np.where(inside, lam, 0.0) * 1e9
    fast = inside & (np.abs(y - np.floor(y) - 0.5) > _TIE_TOL)
    slow = np.flatnonzero(~fast)
    slow_words = _words([_fmt(x) for x in lam[slow].tolist()])
    k = np.rint(np.where(fast, y, 0.0)).astype(np.int64)
    one = k == 10**9
    k[one] = 0
    hi, rest = np.divmod(k, 10**6)
    mid, lo = np.divmod(rest, 1000)
    kind = grid.entangled[cells].astype(np.intp)
    kind[np.cumsum(count)[count > 0] - 1] += 2

    b_texts, b_words = _axis(tuple(grid.b_q[:n].tolist()))
    s2_texts, s2_words = _axis(tuple(grid.sigma2_q[::n].tolist()))
    # b_q, | sigma2_q, | 1,head | three digit groups | ,entangled\n and the row-end mark
    at = b_words.shape[1] + s2_words.shape[1] + 1
    width = at + max(3, slow_words.shape[1]) + 1
    buf = bytearray(4 * cells.size * width)
    line = np.frombuffer(buf, dtype=np.uint32).reshape(cells.size, width)
    line[:, :b_words.shape[1]] = np.take(b_words, col, axis=0)
    line[:, b_words.shape[1]:at - 1] = np.take(s2_words, row, axis=0)
    line[:, at - 1] = head[np.where(one, 2, fast)]
    line[:, at] = group[hi + 1000 * ((mid == 0) & (lo == 0))]
    line[:, at + 1] = group[mid + 1000 * (lo == 0)]
    line[:, at + 2] = group[lo + 1000]
    line[slow, at:at + slow_words.shape[1]] = slow_words
    line[:, -1] = tail[kind]
    data = buf.translate(None, b"\0")
    del line, buf
    view, start, pieces = memoryview(data), 0, []
    for s2_text, c in zip(s2_texts, count.tolist()):
        if c:
            end = data.find(b"\x01", start)
            pieces.append(view[start:end])
            start = end + 1
        if c < n:
            x = s2_text + b"0,nan,0\n"
            pieces += (x.join(b_texts[c:]), x)
    out.write(b"".join(pieces))


def _cmd_infer(args):
    state = infer_state(validate_constraints(args.q, args.b, args.sigma2))
    verdict = criterion_verdict(state)
    entropy = entropy_of_state(state)
    try:
        lam1, lam2 = lagrange_multipliers(state)
        free = lam1 * state.constraints.b_q + lam2 * state.constraints.sigma2_q - entropy
    except BoundaryDivergence:
        lam1 = lam2 = free = None
    return {
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
    }, None


def _cmd_scan(args):
    _check_q(args.q)  # before --out is opened, so that a bad q leaves no file
    n, rows = args.grid, max(1, _BLOCK_CELLS // args.grid)
    with _output(args.out) as out:
        out.write(b"b_q,sigma2_q,feasible,lambda_max,entangled\n")
        for j in range(0, n, rows):
            region_to_csv(scan_region(args.q, n, slice(j, j + rows)), out)
    return None, None


def _cmd_mutual(args):
    qprime = args.qprime if args.qprime is not None else args.q
    state = infer_state(validate_constraints(args.q, args.b, args.sigma2))
    return {
        "K_qprime": mutual_entropy_of_state(state, qprime),
        "closed_form": mutual_entropy_closed_form(state, qprime),
        "b_q": args.b,
        "q": args.q,
        "qprime": qprime,
        "sigma2_q": args.sigma2,
    }, None


def _cmd_thermo(args):
    c = validate_constraints(args.q, args.b, args.sigma2)
    return legendre_report(c, h=args.fd_step)._asdict(), None


#: verify thresholds: spectrum agreement for the split oracle, entropy
#: headroom for the general one
_SPLIT_TOL = 1e-7
_ENTROPY_TOL = 1e-6


def _cmd_verify(args):
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
        # the closed form is the maximum at every feasible datum, so the oracle is judged at
        # the data its state reached; S_q is even in b, and the reached b can dip below 0
        b, s2 = result.reached
        excess = result.achieved_entropy - entropy_of_state(
            infer_state(validate_constraints(args.q, abs(b), s2)))
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
    return payload, None if payload["passed"] else failure


@functools.cache
def _parser() -> argparse.ArgumentParser:
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
    """Parse and execute one invocation, returning the process exit code.

    Each _cmd_* returns (payload, failure): the dict to print, or None for scan, which streams
    its own CSV, and None or a failed verification's text.  The payload is complete before
    --out opens, so a data error leaves no file.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    problem = _validate_flags(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        payload, failure = args.func(args)
        if payload is not None:
            text = to_json(payload) if args.json else to_plain(payload)
            with _output(args.out) as out:
                out.write(text.encode())
    except BudgetExhausted as exc:
        failure = exc
    except (QmaxentError, OSError) as exc:  # OSError: an unusable --out path
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, QmaxentError) else 2
    if failure is not None:
        print(f"verify failed: {failure}", file=sys.stderr)
    return 0 if failure is None else 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
