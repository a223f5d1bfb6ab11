#!/usr/bin/env python3
"""``repro serve`` with the layer tracer installed (traced serve-mixed runs).

Usage: serve_traced.py SPANS_OUT [repro serve arguments...]

Serves until shut down, then writes the span totals of every server thread
to SPANS_OUT as JSON.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from hbench.layers import LayerTracer  # noqa: E402
from repro.cli import main as repro_main  # noqa: E402


def main(argv) -> int:
    spans_out, serve_args = Path(argv[0]), argv[1:]
    tracer = LayerTracer()
    for target in tracer.install():
        print(f"trace target absent: {target}", file=sys.stderr)
    try:
        code = repro_main(["serve", *serve_args])
    finally:
        tracer.uninstall()
    spans_out.write_text(json.dumps(tracer.snapshot()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
