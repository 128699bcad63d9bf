"""Run `mmk` under the benchmark's tracer.

    PYTHONPATH=src python -X importtime perfbench/cli_traced.py <mmk arguments>

Behaves as `python -m mmk.cli`, and in the end prints one line
`PERFBENCH_TRACE {...}` on stderr with the layer totals and spans.
"""

import json
import sys

import tracer as tracing


def main():
    tracer = tracing.Tracer(tracing.LAYERS + tracing.CLI_CHILD_LAYERS)
    tracer.phase = "loop"
    import mmk.cli

    tracer.install()
    try:
        return mmk.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        line = json.dumps({
            "stats": tracer.stats.get("loop", {}),
            "counts": tracer.counts.get("loop", {}),
            "spans": tracer.spans,
            "missing": {k: sorted(v) for k, v in tracer.missing.items()},
        })
        print("PERFBENCH_TRACE " + line, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
