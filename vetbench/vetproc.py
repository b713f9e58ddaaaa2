"""Run vet command lines through ``vulnvet.cli.main`` in one process.

    python3 vetbench/vetproc.py --commands FILE
    python3 vetbench/vetproc.py --spans OUT [--pass-id N] -- VET_ARGS...

``--commands`` runs each argument list of a JSON file in order (the
benchmark's knowledge-base set-up) and stops at the first one that exits
non-zero. ``--spans`` runs one command under the layer tracer, removes the
wrappers again and writes the spans to OUT. The exit code is that of the
last command run. vulnvet is imported from ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def _vet(argv) -> int:
    from vulnvet.cli import main
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="vetproc")
    p.add_argument("--commands")
    p.add_argument("--spans")
    p.add_argument("--pass-id", type=int, default=0)
    p.add_argument("vet_args", nargs="*")
    args = p.parse_args(argv)
    if args.commands:
        code = 0
        for command in json.loads(Path(args.commands).read_text(encoding="utf-8")):
            code = _vet(command)
            if code != 0:
                print("vetproc: %s exited %d" % (" ".join(command), code), file=sys.stderr)
                break
        return code
    from vetbench.tracer import Tracer
    tracer = Tracer(args.pass_id)
    with tracer:
        code = _vet(args.vet_args)
    tracer.write(args.spans, args.vet_args)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
