"""One benchmark sample: a single dualpolar CLI command in a fresh interpreter.

    python3 sample.py RESULT_JSON TRACE SPACES_JSON -- CLI_ARGS...

Imports dualpolar and builds every PolarSpace in SPACES_JSON (a list of
[n, p]), then records ``setup_end`` on the system-wide monotonic clock that
the parent also reads. The CLI gets those prebuilt spaces, so construction is
paid once, in set-up. With TRACE=1 the calls into each layer are traced and
the originals are put back before the result is written. Exits with the
CLI's exit code.
"""

from __future__ import annotations

import json
import sys
import time


def cache_entries(module) -> int:
    """Entries held by the module-level memo dicts and lru caches of ``module``."""
    total = 0
    for name, value in vars(module).items():
        if isinstance(value, dict) and name.endswith("_cache"):
            total += len(value)
        elif callable(getattr(value, "cache_info", None)) and value.__module__ == module.__name__:
            total += value.cache_info().currsize
    return total


def main() -> int:
    result_path, trace, spaces, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: sample.py RESULT_JSON TRACE SPACES_JSON -- CLI_ARGS...")

    import dualpolar.cli as cli
    from dualpolar import morphisms, reporting
    from dualpolar.polar import PolarSpace

    prebuilt = {}
    for n, p in json.loads(spaces):
        prebuilt.setdefault((n, p), []).append(PolarSpace(n, p))
    setup_end = time.perf_counter()

    def polar_space(n, p):
        ready = prebuilt.get((n, p))
        return ready.pop() if ready else PolarSpace(n, p)

    tracer = None
    if trace == "1":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cli.PolarSpace = polar_space
    try:
        code = cli.main(cli_args)
    finally:
        cli.PolarSpace = PolarSpace
        restored = tracer.restore() if tracer else True
    result = {
        "setup_end": setup_end,
        "exit_code": code,
        "program": cli.__file__,
        "volatile_keys": list(reporting.VOLATILE_KEYS),
        "morphisms_cache_entries": cache_entries(morphisms),
        "restored": restored,
        "spans": tracer.records() if tracer else [],
    }
    with open(result_path, "w") as f:
        json.dump(result, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
