"""The mutant catalogue: small faults in src/chevkit, each with the tests
that must catch it.

For each entry the script copies src/ to a temporary directory, replaces
the entry's old text, which must occur exactly once in its file, by its
new text, and runs the entry's pytest node ids with -x against the copy.
An entry whose tests all pass is a surviving mutant.  Before the mutants,
the union of every entry's node ids runs once against an unmutated copy,
so that a test failure counts as a kill only when the mutation caused it.
The script exits 1 when a mutant survives, when an old text does not
occur exactly once, so that an edit to the code makes the catalogue
follow it, when a node id fails on the unmutated copy, or when pytest
cannot run an entry's node ids.

    python tests/mutants.py

It uses the standard library only, and pytest does not collect it.  When
a change rests on a check that a plausible slip would break, add that
slip here with the tests that catch it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str
    new: str
    nodes: tuple


JETS = "chevkit/jets.py"
ECHELON = "tests/test_jets.py::TestEchelon::"

MUTANTS = [
    Mutant(
        "echelon heap popped lowest degree first", JETS,
        """\
            heap = [keys[c] for c in queued]
            heapify(heap)
            while heap:
                c = heappop(heap)[1]
                if c in row:
                    prow = pivot_rows[c]
                    _combine(row, prow, c)
                    for j in prow:
                        if j in pivot_rows and j not in queued:
                            queued.add(j)
                            heappush(heap, keys[j])
""",
        """\
            heap = [(-keys[c][0], c) for c in queued]
            heapify(heap)
            while heap:
                c = heappop(heap)[1]
                if c in row:
                    prow = pivot_rows[c]
                    _combine(row, prow, c)
                    for j in prow:
                        if j in pivot_rows and j not in queued:
                            queued.add(j)
                            heappush(heap, (-keys[j][0], j))
""",
        (ECHELON + "test_prefix_reads_match_fresh_eliminations_on_folds",
         ECHELON + "test_heap_reduction_keeps_the_scanned_echelon"),
    ),
    Mutant(
        "echelon row stored without _primitive", JETS,
        "                _primitive(row)\n",
        "",
        (ECHELON + "test_rows_with_content_keep_the_scanned_echelon",
         ECHELON + "test_heap_reduction_keeps_the_scanned_echelon"),
    ),
    Mutant(
        "echelon row pivots at its last staged column", JETS,
        "key = min(map(keys.__getitem__, row))",
        "key = max(map(keys.__getitem__, row))",
        (ECHELON + "test_prefix_reads_match_fresh_eliminations_on_folds",
         ECHELON + "test_heap_reduction_keeps_the_scanned_echelon"),
    ),
    Mutant(
        "_combine skips scaling the row by pv/g", "chevkit/linalg.py",
        """\
    if a != 1:
        for j in row:
            row[j] *= a
""",
        "",
        ("tests/test_linalg.py::TestRowOperation",
         ECHELON + "test_rows_with_content_keep_the_scanned_echelon"),
    ),
    Mutant(
        "staged_elimination breaks pivot ties by the highest row",
        "chevkit/linalg.py",
        "(best is None or abs(v) < low)",
        "(best is None or abs(v) <= low)",
        ("tests/test_linalg.py::TestDenseOracleParity"
         "::test_sparse_kernel_matches_dense_oracle",),
    ),
    Mutant(
        "principal_vertices takes the largest term as leading",
        "chevkit/staircase.py",
        "return tuple(min(g.terms, key=mono_key) for g in self.recentered)",
        "return tuple(max(g.terms, key=mono_key) for g in self.recentered)",
        ("tests/test_staircase.py::TestPrincipalStaircase",),
    ),
]


def pytest_on_copy(nodes, file=None, text=None):
    """(pytest's exit code, the last lines it printed) for nodes run with
    -x against a copy of src/ in which file, when given, holds text; the
    code is None when chevkit does not import from the copy."""
    with tempfile.TemporaryDirectory(prefix="chevkit-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        if file is not None:
            (src / file).write_text(text, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src),
                   PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run(
            [sys.executable, "-c", "import chevkit; print(chevkit.__file__)"],
            env=env, capture_output=True, text=True)
        if not where.stdout.startswith(str(src)):
            return None, f"chevkit imports from {where.stdout.strip()!r}"
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *nodes],
            cwd=ROOT, env=env, capture_output=True, text=True)
    return done.returncode, "\n".join(done.stdout.splitlines()[-5:])


def run(mutant):
    """('killed' | 'survived' | 'error', detail) for one entry, run on a
    mutated copy of src/."""
    text = (ROOT / "src" / mutant.file).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        return "error", f"old text occurs {count} times in {mutant.file}"
    code, tail = pytest_on_copy(mutant.nodes, mutant.file,
                                text.replace(mutant.old, mutant.new))
    if code == 1:
        return "killed", ""
    if code == 0:
        return "survived", "every test passed"
    return "error", tail if code is None else f"pytest exit {code}:\n{tail}"


def main():
    nodes = list(dict.fromkeys(n for m in MUTANTS for n in m.nodes))
    code, tail = pytest_on_copy(nodes)
    if code != 0:
        detail = tail if code is None else f"pytest exit {code}:\n{tail}"
        print(f"error     the entries' tests on unmutated src/: {detail}")
        return 1
    failed = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict, detail = run(mutant)
        seconds = time.perf_counter() - start
        print(f"{verdict:9} {mutant.name} ({seconds:.1f} s)"
              + (f": {detail}" if detail else ""), flush=True)
        failed += verdict != "killed"
    print(f"{failed} of {len(MUTANTS)} entries not killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
