"""Run one k3census CLI command with the layer tracer installed.

    K3BENCH_TRACE_OUT=<prefix> python bench/launch.py verify lemma-5.2 --format json

Installs the wrappers in this fresh process, calls `k3census.cli.main(argv)`
and, when it returns, writes the call counts, self times and counters to
<prefix>.summary.json and the spans to <prefix>.spans.json.gz.  The exit
code is the CLI's.
"""

from __future__ import annotations

import json
import os
import sys

import layers


def main(argv) -> int:
    prefix = os.environ["K3BENCH_TRACE_OUT"]
    tracer = layers.Tracer().install()
    from k3census import cli

    tracer.op = " ".join(argv)
    try:
        return cli.main(argv)
    finally:
        with open(prefix + ".summary.json", "w") as fh:
            json.dump(tracer.summary(), fh)
        tracer.dump(prefix + ".spans.json.gz")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
