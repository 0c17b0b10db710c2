"""Byte-for-byte gate on `gsc` stdout: `check all` at a fixed seed and the
oracle reports for every configuration that runs in seconds.

The files under tests/golden/ are the reference.  Regenerate them only when
an output change is intended, from the repository root:

    GSC_SEED=1729 PYTHONPATH=src python3 -m gscalars.cli check all \
        > tests/golden/check-all-seed1729.txt
    for c in 2-2 2-3 3-2 3-3 4-2; do
        PYTHONPATH=src python3 -m gscalars.cli oracle \
            --lambda "${c%-*}" --field "${c#*-}" > "tests/golden/oracle-$c.txt"
    done
"""

import io
from pathlib import Path

import pytest

from gscalars.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    ("check-all-seed1729", ["check", "all"]),
    *(
        (f"oracle-{lam}-{p}", ["oracle", "--lambda", str(lam), "--field", str(p)])
        for lam, p in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]
    ),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_stdout_matches_golden(name, argv, monkeypatch):
    monkeypatch.setenv("GSC_SEED", "1729")
    buf = io.StringIO()
    code = main(argv, out=buf)
    assert code == 0
    assert buf.getvalue().encode() == (GOLDEN / f"{name}.txt").read_bytes()
