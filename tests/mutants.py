"""The mutation catalogue: each mutant breaks the program at one exact piece of
text, and names the tests that must catch it.

Run from anywhere, with the interpreter the suite runs under:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the named mutants

Each mutant runs in its own temporary copy of src/, tests/ and pyproject.toml:
its text is replaced there, and only its named tests run.  The mutant is
killed when every named test fails (a name without a parameter id counts as
failed when any of its cases fails), and a named test that passes lets it
survive.  Before any mutant, the named tests run once on an unmutated copy
and must all pass.  A mutant whose text is not found exactly once in its file
is an error: the code moved, and the entry must move with it.  The exit status
is 0 when every mutant is killed, 1 otherwise.

pytest does not collect this file: its name has no test_ prefix.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 300


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in path
    new: str
    tests: tuple[str, ...]  # pytest node ids, each expected to fail


_FORKED = "tests/test_hurwitz.py::test_forked_build_"
_LANES = "tests/test_hurwitz.py::test_row_lanes_flush_before_they_pass_the_bound"

MUTANTS = (
    Mutant(
        "witness constructor checks nothing",
        "src/hcl/holproj.py",
        "        if failed:\n            raise ValueError(f\"witness fails conditions: {failed}\")\n",
        "",
        ("tests/test_holproj.py::test_witness_constructor_rejects_each_failed_condition",),
    ),
    Mutant(
        "parent trusts the slice size, not readinto's count",
        "src/hcl/hurwitz.py",
        "        got = source.readinto(theirs)\n",
        "        source.readinto(theirs)\n        got = theirs.nbytes\n",
        (_FORKED + "detects_a_short_slice_from_a_child_that_exits_zero",),
    ),
    Mutant(
        "representation index not normalised",
        "src/hcl/dichotomy.py",
        "        i = range(len(self))[i]\n",
        "",
        ("tests/test_dichotomy.py::test_evidence_is_a_lazy_read_only_sequence",),
    ),
    Mutant(
        "sieve cache unbounded",
        "src/hcl/arith.py",
        "@lru_cache(maxsize=1)\ndef sieve_primes(",
        "@lru_cache(maxsize=None)\ndef sieve_primes(",
        ("tests/test_package.py::test_every_cache_is_bounded",),
    ),
    Mutant(
        "child reaped only when the parent does not raise",
        "src/hcl/hurwitz.py",
        "        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])\n    if status",
        "    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])\n    if status",
        (_FORKED + "reaps_the_child_when_the_parent_raises",),
    ),
    Mutant(
        "byte count unchecked",
        "src/hcl/hurwitz.py",
        "    if got != theirs.nbytes:\n",
        "    if False:\n",
        (_FORKED + "detects_a_short_slice_from_a_child_that_exits_zero",),
    ),
    Mutant(
        "exit status unchecked",
        "src/hcl/hurwitz.py",
        "    if status != 0:\n",
        "    if False:\n",
        (
            _FORKED + "raises_when_the_child_raises[before sending]",
            _FORKED + "raises_when_the_child_raises[after sending]",
        ),
    ),
    Mutant(
        "h values multiplied in the table's int32",
        "src/hcl/dichotomy.py",
        "table.values[fundamental].astype(np.int64) * pow(12, -1, ell)",
        "table.values[fundamental] * pow(12, -1, ell)",
        ("tests/test_dichotomy.py::test_classify_h_values_do_not_wrap_on_int32_tables",),
    ),
    Mutant(
        "nonzero h values counted on the D column",
        "src/hcl/dichotomy.py",
        "np.count_nonzero(report.h_values[:, 1])",
        "np.count_nonzero(report.h_values[:, 0])",
        ("tests/test_dichotomy.py::test_report_json_counts_h_values",),
    ),
    Mutant(
        "hurwitz enumerates D == 2 (mod 4)",
        "src/hcl/hurwitz.py",
        "    if D % 4 in (1, 2):\n        return 0\n",
        "    if D % 4 == 1:\n        return 0\n",
        ("tests/test_hurwitz.py::test_hurwitz_zero_pattern",),
    ),
    Mutant(
        "no mid-window flush",
        "src/hcl/hurwitz.py",
        "                    _flush(values, lanes, w_lo)\n                    bound = 0\n",
        "                    bound = 0\n",
        (_LANES,),
    ),
    Mutant(
        "no bound check: the running bound never grows",
        "src/hcl/hurwitz.py",
        "                bound += top\n",
        "",
        (_LANES,),
    ),
    Mutant(
        "bound checked before the row is counted",
        "src/hcl/hurwitz.py",
        "if bound + top > _LANE_BOUND:",
        "if bound > _LANE_BOUND:",
        (_LANES,),
    ),
    Mutant(
        "theta sums not doubled in the completed part",
        "src/hcl/holproj.py",
        "Fraction(2 * theta + square, 2)",
        "Fraction(theta + square, 2)",
        (
            "tests/test_holproj.py::test_exact_projection_classical_regression",
            "tests/test_holproj.py::test_exact_projection_decomposes",
            "tests/test_holproj.py::test_exact_projection_matches_qseries_composition",
            "tests/test_holproj.py::test_exact_projection_completed_part_matches_the_root_route",
        ),
    ),
    Mutant(
        "classify indexes the columns of an empty evidence",
        "src/hcl/dichotomy.py",
        "rows.local.items() if rows else ()",
        "rows.local.items()",
        ("tests/test_dichotomy.py::test_classify_matches_row_oracle",),
    ),
    Mutant(
        "fundamental divisibility and inconclusive swapped",
        "src/hcl/dichotomy.py",
        "DichotomyCase.INCONCLUSIVE, None, None\n"
        "    if residues.size and not residues.any():\n"
        "        case = DichotomyCase.FUNDAMENTAL_DIVISIBILITY\n",
        "DichotomyCase.FUNDAMENTAL_DIVISIBILITY, None, None\n"
        "    if residues.size and not residues.any():\n"
        "        case = DichotomyCase.INCONCLUSIVE\n",
        ("tests/test_dichotomy.py::test_classify_matches_row_oracle",),
    ),
    Mutant(
        "non-constant local data not raised",
        "src/hcl/dichotomy.py",
        "            raise ArithmeticError(\n",
        "            ArithmeticError(\n",
        ("tests/test_dichotomy.py::test_classify_rejects_non_constant_local_data",),
    ),
    Mutant(
        "table claims one D past its values",
        "src/hcl/hurwitz.py",
        "        return self.values.size - 1\n",
        "        return self.values.size\n",
        ("tests/test_congruence.py::test_verify_requires_table_coverage",),
    ),
    Mutant(
        "table claims one D short of its values",
        "src/hcl/hurwitz.py",
        "        return self.values.size - 1\n",
        "        return self.values.size - 2\n",
        ("tests/test_acceptance.py::test_01_known_congruences_reproduce",),
    ),
    Mutant(
        "square-class base verdict read from the last u",
        "src/hcl/cli.py",
        "if failures and failures[0][0] == 1:",
        "if failures and failures[-1][0] == 1:",
        ("tests/test_cli.py::test_square_class_failures",),
    ),
    Mutant(
        "Kronecker symbols indexed by D, not -D",
        "src/hcl/dichotomy.py",
        "np.unique(-D % period, return_inverse=True)",
        "np.unique(D % period, return_inverse=True)",
        (
            "tests/test_acceptance.py::test_05_dichotomy_classification",
            "tests/test_dichotomy.py::test_enumerate_matches_row_oracle",
        ),
    ),
    Mutant(
        "12H(0) read as 0",
        "src/hcl/hurwitz.py",
        "    if D == 0:\n        return -1\n",
        "    if D == 0:\n        return 0\n",
        (
            "tests/test_hurwitz.py::test_hurwitz_examples",
            "tests/test_acceptance.py::test_09_enumeration_oracle_agreement",
        ),
    ),
    Mutant(
        "eisenstein_hol reads one value short",
        "src/hcl/qseries.py",
        "table.values[: top + 1].tolist()",
        "table.values[:top].tolist()",
        (
            "tests/test_qseries.py::test_eisenstein_examples",
            "tests/test_holproj.py::test_exact_projection_matches_qseries_composition",
        ),
    ),
    Mutant(
        "square classes keyed by b*u, not b*u^2",
        "src/hcl/congruence.py",
        "residues = {u: b * u * u % a for",
        "residues = {u: b * u % a for",
        (
            "tests/test_congruence.py::test_square_class_check_passes_on_known",
            "tests/test_congruence.py::test_square_class_verifies_each_residue_once",
            "tests/test_acceptance.py::test_03_square_class_property",
        ),
    ),
    Mutant(
        "class number formula drops the Kronecker term",
        "src/hcl/hurwitz.py",
        "hecke_factor(p**e, kronecker(-D, p), p)",
        "hecke_factor(p**e, 0, p)",
        (
            "tests/test_hurwitz.py::test_formula_examples",
            "tests/test_acceptance.py::test_06_class_number_formula",
        ),
    ),
)


def _copy_tree(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        else:
            shutil.copy2(source, dest / name)


def _failed(tree: Path, tests: tuple[str, ...]) -> list[str]:
    """Run tests in tree; the node ids pytest reports as failed or in error."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=tree,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    failed = [
        line.split(" ", 1)[1].split(" - ")[0]
        for line in run.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    if run.returncode not in (0, 1) or (run.returncode == 1) != bool(failed):
        raise RuntimeError(f"pytest exited with {run.returncode}:\n{run.stdout}{run.stderr}")
    return failed


def _caught_by(test: str, failed: list[str]) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failed)


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.path
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise LookupError(f"{mutant.name}: its text occurs {count} times in {mutant.path}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"no such mutant: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        _copy_tree(clean)
        everything = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        if _failed(clean, everything):
            raise SystemExit("the named tests do not all pass on the unmutated tree")
        survivors = 0
        for i, mutant in enumerate(chosen):
            tree = Path(tmp) / f"mutant{i}"
            _copy_tree(tree)
            _apply(tree, mutant)
            failed = _failed(tree, mutant.tests)
            passed = [t for t in mutant.tests if not _caught_by(t, failed)]
            survivors += bool(passed)
            verdict = f"SURVIVED: {', '.join(passed)} passed" if passed else "killed"
            print(f"{mutant.name}: {verdict}", flush=True)
            shutil.rmtree(tree)
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
