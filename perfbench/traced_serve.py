"""Run ``repro serve`` with every layer wrapped by ``layertrace``.

Usage (from the repository root)::

    python3 perfbench/traced_serve.py SPAN_FILE serve [serve options ...]

The arguments after SPAN_FILE go to ``python -m repro``.  When the server
drains and stops (SIGTERM or SIGINT), the spans are written to SPAN_FILE.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from layertrace import LayerTrace  # noqa: E402
from repro import cli  # noqa: E402


def main():
    span_file, argv = sys.argv[1], sys.argv[2:]
    layers = LayerTrace()
    layers.install()
    try:
        code = cli.main(argv)
    finally:
        layers.uninstall()
        layers.dump(span_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
