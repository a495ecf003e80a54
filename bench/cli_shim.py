"""Run the modunits command line traced, for the benchmark's traced cli_cold passes.

    python -X importtime bench/cli_shim.py <modunits cli arguments>

modunits is imported before the tracer, so -X importtime reports its real
import cost.  The tracer's counters go to stderr as one "BENCH_TRACE <json>"
line; stdout and the exit code are the command line's own.
"""
import json
import sys

import modunits.cli
from modunits import classical, cusps, cycloq, qseries, thetag, units, verify

from tracer import Tracer


def main() -> int:
    tracer = Tracer({
        "classical": classical, "cusps": cusps, "cycloq": cycloq, "qseries": qseries,
        "thetag": thetag, "units": units, "verify": verify,
    })
    tracer.install()
    try:
        code = modunits.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        print("BENCH_TRACE " + json.dumps(tracer.state()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
