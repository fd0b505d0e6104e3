"""Traced stand-in for ``python -m qmaxent.cli``, used by the traced cli-calls pass.

    python3 -X importtime perfbench/cli_child.py SPANS_FILE SUBCOMMAND [FLAGS...]

It stamps the clock when the interpreter reaches this file, after
``import qmaxent.cli`` and before it exits; it runs ``qmaxent.cli.run`` with the CLI's calls into
the other layers wrapped in spans, writes those spans to SPANS_FILE and
exits with the CLI's exit code.
"""

import time

started = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

import qmaxent.cli  # noqa: E402

imported = time.monotonic()

from tracing import CLI_BINDINGS, Tracer  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install(CLI_BINDINGS)
    index = tracer.open(f"cli.run_{argv[0]}")
    code = qmaxent.cli.run(argv)
    tracer.close(index)
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump({"started": started, "imported": imported, "finished": time.monotonic(),
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
