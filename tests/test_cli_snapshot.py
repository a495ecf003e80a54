"""Byte-identity of the cusp commands: the sha256 of what ``cusps``, ``divisor`` and ``rank`` print.

``divisor`` runs on seeded index vectors at every level 2..60, ``cusps`` at every level 2..60 and
``rank`` at levels 2..12, each in JSON and in text; one digest covers one command, level and
format.  A change to how divisors are built or stored that keeps every order exact leaves the
digests unchanged.  To re-record after a deliberate change of output, run
``PYTHONPATH=src python tests/test_cli_snapshot.py`` and write its output to
``cli_snapshot_sha256.json``.
"""
import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from modunits.cli import main

SNAPSHOT = Path(__file__).with_name("cli_snapshot_sha256.json")
VECTORS_PER_LEVEL = 3


def _index_vectors(rng, N):
    """Numerator pairs (i, j) in 0..3N-1, not both divisible by N, written as i/N and j/N."""
    out = []
    while len(out) < VECTORS_PER_LEVEL:
        i, j = rng.randrange(3 * N), rng.randrange(3 * N)
        if i % N or j % N:
            out.append((f"{i}/{N}", f"{j}/{N}"))
    return out


def cases():
    """(name, argv lists) of the snapshot set, drawn from one seeded generator."""
    rng = random.Random(26)
    out = []
    for N in range(2, 61):
        vectors = _index_vectors(rng, N)
        for fmt in ("json", "text"):
            out.append((f"divisor N={N} {fmt}", [["divisor", r, s, str(N), "--format", fmt] for r, s in vectors]))
            out.append((f"cusps N={N} {fmt}", [["cusps", str(N), "--format", fmt]]))
    for N in range(2, 13):
        for fmt in ("json", "text"):
            out.append((f"rank N={N} {fmt}", [["rank", str(N), "--format", fmt]]))
    return out


def _stdout(argv) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    assert code == 0, argv
    return buffer.getvalue()


def digests() -> dict[str, str]:
    return {
        name: hashlib.sha256("".join(_stdout(argv) for argv in argvs).encode()).hexdigest()
        for name, argvs in cases()
    }


def test_cusp_commands_match_the_recorded_snapshot():
    recorded = json.loads(SNAPSHOT.read_text())
    got = digests()
    assert list(got) == list(recorded)
    assert [name for name in got if got[name] != recorded[name]] == []


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1))
