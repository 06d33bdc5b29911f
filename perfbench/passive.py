"""Passive party process of a traced TCP run.

    python3 perfbench/passive.py TRACE_JSON serve-b [fedsplit serve-b options]

Installs the tracer, runs `fedsplit serve-b` in this process, and writes the
tracer's report to TRACE_JSON when the session ends. Untraced runs start
`python -m fedsplit serve-b` instead.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_path, argv = Path(sys.argv[1]), sys.argv[2:]
    from fedsplit import cli

    tracer = Tracer(default_party="passive").install()
    try:
        return cli.main(argv)
    finally:
        trace_path.write_text(json.dumps(tracer.report()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
