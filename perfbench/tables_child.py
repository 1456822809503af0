"""Traced ``repro`` CLI run: the child process of a traced ``tables``
iteration.

    python perfbench/tables_child.py SPANS.npz run --profile quick e1 ...

Imports ``repro.cli`` (timed), installs the span tracer, runs the CLI
with the remaining arguments and writes the spans to ``SPANS.npz`` when
the CLI returns.  The CLI's stdout and exit code pass through.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402
from workloads import import_cli  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import_s = import_cli()
    from repro.cli import main as cli_main

    tracer = Tracer()
    tracer.imports.append(import_s)
    tracer.install()
    try:
        code = tracer.span(lambda: cli_main(cli_args))
    finally:
        tracer.uninstall()
    tracer.settle()
    sys.stdout.flush()
    tracer.save(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
