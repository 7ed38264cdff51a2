"""Run ``quakewait.cli.main(argv)`` under the benchmark's span wrappers.

    python3 perfbench/cli_child.py SPANS_NPZ ARG...

The CLI prints to stdout as usual; the spans and counters go to SPANS_NPZ
and the exit code is the CLI's.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

harness.pin_threads()
harness.use_source_tree()

import tracing  # noqa: E402


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        code = sys.modules["quakewait.cli"].main(argv)
    tracer.save(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
