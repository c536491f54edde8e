"""Run one ``repro`` CLI command with span wrappers installed.

    python perfbench/launch.py --spans DIR [--trace] -- attack --corpus c.txt ...

Without ``--trace`` only the two attack-engine entry points are wrapped,
which is enough to split set-up time from attack time.  With ``--trace``
every target in :data:`tracing.TARGETS` is wrapped.  The command runs
through ``repro.cli.main`` exactly as ``python -m repro`` would run it;
forked shard workers inherit the wrappers and write their own span files.
At exit the launcher writes its spans and ``usage-<pid>.json`` holding
the largest resident set of this process and of any child it waited for.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (path set up above)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="directory for span files")
    parser.add_argument("--trace", action="store_true", help="wrap every layer")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    recorder = tracing.SpanRecorder(Path(args.spans))
    targets = tracing.TARGETS if args.trace else tracing.ENGINE_TARGETS
    missing = tracing.install(recorder, targets)
    if args.trace:
        tracing.install_feedback(recorder)
    for name in missing:
        print(f"perfbench: trace target {name} not found", file=sys.stderr)

    from repro import cli

    code = 1
    try:
        code = cli.main(command)
    finally:
        recorder.flush()
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        usage = {"maxrss_kb": max(own, children)}
        Path(args.spans, f"usage-{os.getpid()}.json").write_text(json.dumps(usage))
    return code


if __name__ == "__main__":
    sys.exit(main())
