"""Run one ``mesoc-kit`` command with span recording, for the traced run.

Usage: ``python3 perfbench/cli_child.py SPANS.json <mesoc-kit arguments>``.
Behaves like ``python -m mesoc_kit <arguments>`` (same stdout, same exit
code) and, at exit, writes the spans it recorded to ``SPANS.json``.  The
``cli.main`` span covers the whole of ``main()``; the parent subtracts it from
the process wall time to get the process overhead.
"""

import json
import sys

import tracing


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import mesoc_kit
    from mesoc_kit import cli

    tracer = tracing.Tracer()
    tracing.install(tracer, mesoc_kit)
    idx = tracer.open("cli.main")
    try:
        code = cli.main(argv)
    finally:
        tracer.close(idx)
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
