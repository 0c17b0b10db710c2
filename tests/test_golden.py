"""Byte-for-byte gate on `gsc` stdout: `check all` at a fixed seed, the
oracle reports for every configuration that runs in seconds, a
transcript of fixed `eval`/`classify`/`eq`/`sum` queries under three
filters, and one of comparisons under the cofinite ones.

The files under tests/golden/ are the reference.  Regenerate them only when
an output change is intended, from the repository root:

    GSC_SEED=1729 PYTHONPATH=src python3 -m gscalars.cli check all \
        > tests/golden/check-all-seed1729.txt
    for c in 2-2 2-3 3-2 3-3 4-2 4-3; do
        PYTHONPATH=src python3 -m gscalars.cli oracle \
            --lambda "${c%-*}" --field "${c#*-}" > "tests/golden/oracle-$c.txt"
    done
    PYTHONPATH=src python3 tests/test_golden.py > tests/golden/queries.txt
    PYTHONPATH=src python3 tests/test_golden.py comparisons \
        > tests/golden/cofinite-comparisons.txt
"""

import io
import shlex
import sys
from pathlib import Path

import pytest

from gscalars.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

FILTERS = ["frechet", "frechet:0 mod 2", "principal:0 mod 2"]

# (subcommand, operands): every one runs under each of FILTERS.
QUERIES = [
    *(("eval", [e]) for e in [
        "n", "1/(n+1)", "shift(n*n)", "invert(n + 1)", "le(1/(n+1), 0)", "class(n*ind(1 mod 2))",
        "st(1/(n+1))", "st(2 + 1/(n+1))", "st(n)", "st(ind(0 mod 2))", "st(n*ind(1 mod 2))",
        "st(0 except {0: 7})", "limit(1/(n+1))", "limit(3 except {0: 5})", "limit(ind(0 mod 2))",
        "limit(n)", "sum(1)", "sum(ind(0 mod 2) - ind(1 mod 2))", "sum(0 except {0: 1/2, 2: 1/3})",
        "st(sum(0 except {0: 1/2, 2: 1/3}))", "limit(sum(n))",
    ]),
    *(("classify", [e]) for e in [
        "n", "1/(n+1)", "ind(0 mod 2)", "n*ind(0 mod 2)", "0 except {0: 7}", "st(1/(n+1)) + n",
        "sum(ind(0 mod 2) - ind(1 mod 2))",
    ]),
    *(("eq", pair) for pair in [
        ["sum(1)", "n + 1"], ["shift(n) - n", "1"], ["ind(0 mod 2)", "1"], ["st(2 + 1/(n+1))", "2"],
        ["limit(3 except {0: 5})", "3"],
    ]),
    *(("sum", [e]) for e in [
        "0", "1", "n", "ind(0 mod 2) - ind(1 mod 2)", "0 except {0: 1/2, 2: 1/3}", "ind(0 mod 3)",
        "n*n - 3*n + 2", "1/(n+1)", "st(1/(n+1))",
    ]),
]


def query_transcript() -> str:
    """Each query as `$ gsc ...`, then its stdout and `exit <code>`."""
    buf = io.StringIO()
    for command, operands in QUERIES:
        for filt in FILTERS:
            argv = [command, f"--filter={filt}", "--", *operands]
            print("$ gsc " + shlex.join(argv), file=buf)
            print(f"exit {main(argv, out=buf)}", file=buf)
    return buf.getvalue()


# Under a cofinite filter `eq` and `le` compare the operands' branches at
# infinity and never build their difference, so these pairs, whose
# difference would hold 6000 overrides or need a common denominator of
# degree 26, get answers.  Operands are written by name in the transcript.
NAMED = {
    "A": "0 except {" + ", ".join(f"{k}: 1" for k in range(3000)) + "}",
    "B": "0 except {" + ", ".join(f"{k}: 1" for k in range(3000, 6000)) + "}",
    "p": "*".join(["n"] * 13),
}
COMPARISONS = [
    ("eq", ["{A}", "{B}"]), ("eval", ["le({A}, {B})"]), ("eval", ["le({B}, ({A}) + 1)"]),
    ("eq", ["1/({p}+1)", "1/({p}+2)"]), ("eval", ["le(1/({p}+1), 1/({p}+2))"]),
    ("eval", ["le(1/({p}+2), 1/({p}+1))"]),
]


def comparison_transcript() -> str:
    """Each comparison under each cofinite filter of FILTERS, as in the
    queries transcript, with the operands named in a header."""
    buf = io.StringIO()
    for name, text in NAMED.items():
        shown = text if len(text) < 80 else f"{text[:38]} ... {text[-19:]}"
        print(f"# {name} = {shown}", file=buf)
    for command, operands in COMPARISONS:
        for filt in FILTERS[:2]:
            argv = [command, f"--filter={filt}", "--", *operands]
            print("$ gsc " + shlex.join(argv), file=buf)
            argv[3:] = [o.format(**NAMED) for o in operands]
            print(f"exit {main(argv, out=buf)}", file=buf)
    return buf.getvalue()


def stdout_of(argv) -> str:
    buf = io.StringIO()
    assert main(argv, out=buf) == 0
    return buf.getvalue()


CASES = [
    ("check-all-seed1729", lambda: stdout_of(["check", "all"])),
    *(
        (f"oracle-{lam}-{p}", lambda lam=lam, p=p: stdout_of(["oracle", "--lambda", str(lam), "--field", str(p)]))
        for lam, p in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)]
    ),
    ("queries", query_transcript),
    ("cofinite-comparisons", comparison_transcript),
]


@pytest.mark.parametrize("name,produce", CASES, ids=[name for name, _ in CASES])
def test_stdout_matches_golden(name, produce, monkeypatch):
    monkeypatch.setenv("GSC_SEED", "1729")
    assert produce().encode() == (GOLDEN / f"{name}.txt").read_bytes()


if __name__ == "__main__":
    sys.stdout.write(comparison_transcript() if sys.argv[1:] == ["comparisons"] else query_transcript())
