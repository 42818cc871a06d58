"""Child process that stamps when it is up, imported and done.

    python perfbench/child.py setup <workload> <seed>
        import fermat_pdde, call default_context(), run the workload's
        first op once (the set-up of a run), then print the stamps; exits
        with 0 unless the op raised.
    python perfbench/child.py cli <fermat-pdde arguments...>
        run one CLI command the way `python -m fermat_pdde` does, then
        print the stamps and exit with the command's code.

The stamps are one JSON line, last on stdout, on CLOCK_MONOTONIC, which
the parent shares, so it can split the process into interpreter start
(spawn to `start`), import (`start` to `imported`) and command.
"""

import time

START = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import sys  # noqa: E402


def _stamp() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        import fermat_pdde  # noqa: F401

        imported = _stamp()
        fermat_pdde.default_context()
        import tracing
        import workloads

        # the warm-up's answer is judged in the timed loop, not here
        op = workloads.build_ops(rest[0], int(rest[1]))[0]
        if op.warm is not None:
            op.warm()
        else:
            op.run(tracing.NullTracer())
        code = 0
    elif mode == "cli":
        import fermat_pdde.cli

        imported = _stamp()
        code = fermat_pdde.cli.main(rest)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    done = _stamp()
    sys.stdout.flush()
    print(json.dumps({"start": START, "imported": imported, "done": done}), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
