"""Start ``repro serve`` in this process, optionally with span wrappers.

Usage::

    python3 serve_launcher.py [--trace-dir DIR] -- serve MODEL [serve options]

With ``--trace-dir`` the serve-path wrappers of :mod:`spans` are installed
before :func:`repro.cli.main` runs, and the recorded spans are written to
``DIR/spans-<pid>.jsonl`` once the server has shut down.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1 :]
    trace_dir = Path(own[own.index("--trace-dir") + 1]) if own else None

    from repro import cli

    tracer = None
    if trace_dir is not None:
        import spans

        tracer = spans.Tracer()
        spans.install_serve(tracer)
    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            spans.save_spans(trace_dir, os.getpid(), tracer.spans)


if __name__ == "__main__":
    sys.exit(main())
