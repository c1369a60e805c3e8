"""A standing mutation check: each listed mutant must fail the tests that guard it.

Each entry of MUTANTS replaces one exact source fragment, which must occur
once in its file, and names the test ids that must then fail.  The runner
copies src/ and tests/ (with pyproject.toml, for the pytest settings) to a
temporary directory and first runs every named id there, unmutated: all
must pass.  Then each mutant gets a fresh copy with its one fragment
replaced, and its ids run with a per-mutant timeout.  The runner prints
killed, survived or timeout and the seconds each mutant took, and exits 1
if a mutant that states no reason to survive is not killed.

A script beside the tests, not a test module, so the suite never collects
it.  From the repository root: python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

# Seconds each mutant's tests may take.
TIMEOUT = 60.0


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    # Why no test can kill it; None for a mutant that must be killed.
    survives: str | None = None


SIEVE, ARITH = "src/klehmer/sieve.py", "src/klehmer/arith.py"
T_SIEVE, T_ARITH = "tests/test_sieve.py", "tests/test_arith.py"

MUTANTS = (
    # Segmentation and the count's bookkeeping.
    Mutant("count-cuts", SIEVE,
           "*(c for c in cuts if lo < c < hi), hi}", "hi}",
           (f"{T_SIEVE}::TestCountTable::test_reference_columns_to_1e2",)),
    Mutant("cumulative-entry", SIEVE,
           "row[min(k, K_CAP) - 1]", "row[min(k, K_CAP - 1)]",
           (f"{T_SIEVE}::TestCountTable::test_reference_columns_to_1e2",)),
    Mutant("ks-order", SIEVE,
           "tuple(sorted(keys))", "tuple(keys)",
           (f"{T_SIEVE}::TestCountTable::test_ks_ascend_once_each_with_inf_last",
            "tests/test_cli.py::TestCount::test_rows_follow_ascending_k")),
    Mutant("pool-run-order", SIEVE,
           "runs[(a + b - 2 * lo) * size // (2 * total)]",
           "runs[size - 1 - (a + b - 2 * lo) * size // (2 * total)]",
           (f"{T_SIEVE}::TestCountTable::test_deterministic_across_segments_and_workers",)),
    # The totient sieve.
    Mutant("fill-steps-stride", SIEVE,
           "np.add(buf[:step], 2 * filled,", "np.add(buf[:step], filled,",
           (f"{T_SIEVE}::TestTotientSieve::test_first_ten",)),
    Mutant("tiled-rotation", SIEVE,
           "buf[:head] = pattern[r : r + head]", "buf[:head] = pattern[:head]",
           (f"{T_SIEVE}::TestTiledTotientPatterns::test_windows_on_the_pattern_seam",)),
    Mutant("walk-top-power", SIEVE,
           "while q < (root + 1) ** 2:", "while q * p < (root + 1) ** 2:",
           (f"{T_SIEVE}::TestTiledTotientPatterns::test_windows_at_tiled_prime_powers",)),
    Mutant("large-prime-fold", SIEVE,
           "    np.maximum(rem, 1, out=rem)\n", "",
           (f"{T_SIEVE}::TestTotientSieve::test_first_ten",)),
    # The classify scan's filter and certificate.
    Mutant("filter-residue", SIEVE,
           "out[(1 - first) * pow(2, -1, q) % q :: q]",
           "out[(first - 1) * pow(2, -1, q) % q :: q]",
           (f"{T_SIEVE}::TestExclusionFilter::test_matches_linear_iteration",)),
    Mutant("one-squaring-fewer", SIEVE,
           "range((top_cut - 1).bit_length())", "range((top_cut - 1).bit_length() - 1)",
           (f"{T_SIEVE}::TestSquaringCertificate::test_index_at_the_squaring_cutoff",)),
    # The Korselt scan.
    Mutant("korselt-pad", SIEVE,
           "        buf[length:size] = 0\n", "",
           (f"{T_SIEVE}::TestKorseltResidueOracle::test_pad_ignores_buffer_garbage",)),
    Mutant("hit-steps", SIEVE,
           "_HIT_STEPS = np.arange(_LOOP_HITS)", "_HIT_STEPS = np.arange(_LOOP_HITS - 1)",
           (f"{T_SIEVE}::TestKorseltResidueOracle::test_windows_around_each_stride",)),
    Mutant("korselt-tiled-prime", SIEVE,
           "buf[(t - first) // 2] //= t", "buf[(t - first) // 2] //= 1",
           (f"{T_SIEVE}::TestEnumerate::test_carmichael_lists",)),
    # The per-number path.
    Mutant("lehmer-cutoff", "src/klehmer/lehmer.py",
           "max(phi.bit_length() - 1, 1)", "max(phi.bit_length() - 2, 1)",
           ("tests/test_lehmer.py::TestLehmerIndex::test_big_integer_oracle_to_3000",)),
    Mutant("factored-prime-check", ARITH,
           "            if not is_prime(p):\n"
           "                raise ValueError(f\"listed factor {p} is not prime\")\n", "",
           (f"{T_ARITH}::TestFactoredIntegerInvariants::test_structure_validation",)),
    Mutant("witness-37", ARITH,
           "(1 << 64, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))",
           "(1 << 64, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))",
           (f"{T_ARITH}::TestIsPrime::test_known_strong_pseudoprimes_rejected",)),
    Mutant("square-shortcut", ARITH,
           "    if r * r == n:\n        return r\n", "",
           (f"{T_ARITH}::TestFactorize::test_square_splits_without_rho",)),
    Mutant("lucas-jacobi-zero", ARITH,
           "        if j == 0 and n != abs(D):\n            return False\n", "",
           (f"{T_ARITH}::TestIsPrime::test_bpsw_range_against_sympy",
            f"{T_ARITH}::TestIsPrime::test_square_overflow_and_bounds"),
           survives="only an n above 2^64 that passes the base-2 strong test and "
                    "shares a prime of 67 or more with a Selfridge D tried before "
                    "the first D of Jacobi -1 reaches it; no known input does"),
    Mutant("lucas-square-check", ARITH,
           "    if r * r == n:\n        return False\n", "",
           (f"{T_ARITH}::TestIsPrime::test_perfect_squares_above_64_bits",),
           survives="a square that passes the base-2 strong test is m^2 with every "
                    "prime of m a Wieferich prime, and with the two known, 1093 and "
                    "3511, every such square that passes lies below 2^64"),
    # The CLI.
    Mutant("cli-ceiling", "src/klehmer/cli.py",
           "10**8 if args.allow_large else 10**7", "10**8 if args.allow_large else 10**8",
           ("tests/test_cli.py::TestCount::test_ceiling_message",)),
)


def _copy(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", dest)


def _env(root: Path) -> dict[str, str]:
    # Only the copy's src, and no bytecode: a mutant of the same size as
    # its fragment must never load a cached original.
    return {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def _pytest(root: Path, tests, timeout: float) -> int | None:
    """pytest's exit code on ``tests`` in the copy at ``root``, or None when
    it ran past ``timeout`` seconds (then its process group is killed, pool
    workers included)."""
    # addopts is cleared so that a slow-marked id is not deselected.
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-o", "addopts=", *tests]
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def _check_fragments() -> None:
    for m in MUTANTS:
        found = (ROOT / m.path).read_text().count(m.old)
        if found != 1:
            raise SystemExit(f"{m.name}: fragment occurs {found} times in {m.path}")


def _baseline() -> None:
    tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _copy(root)
        where = subprocess.run(
            [sys.executable, "-c", "import klehmer; print(klehmer.__file__)"],
            cwd=root, env=_env(root), capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(where).is_relative_to(root):
            raise SystemExit(f"the copy imports klehmer from {where}, not from itself")
        start = time.perf_counter()
        rc = _pytest(root, tests, TIMEOUT * len(MUTANTS))
        if rc != 0:
            raise SystemExit(f"unmutated copy: pytest exit {rc} on the named tests")
    print(f"unmutated: {len(tests)} tests pass, {time.perf_counter() - start:.1f} s")


def _run(m: Mutant) -> tuple[str, float]:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _copy(root)
        path = root / m.path
        path.write_text(path.read_text().replace(m.old, m.new))
        start = time.perf_counter()
        rc = _pytest(root, m.tests, TIMEOUT)
        seconds = time.perf_counter() - start
    if rc is None:
        return "timeout", seconds
    if rc == 0:
        return "survived", seconds
    # 1 is a failed test; anything else (say, a collection error) is an
    # entry to fix, not a kill.
    return ("killed" if rc == 1 else f"error {rc}"), seconds


def main() -> int:
    _check_fragments()
    _baseline()
    failed = []
    for m in MUTANTS:
        outcome, seconds = _run(m)
        ok = outcome == "killed" or (outcome == "survived" and m.survives)
        note = f"  ({m.survives})" if m.survives else ""
        print(f"{outcome:9} {seconds:6.1f} s  {m.name:22} {m.path}{note}", flush=True)
        if not ok:
            failed.append(m.name)
    if failed:
        print(f"not killed: {', '.join(failed)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed or survive for a stated reason")
    return 0


if __name__ == "__main__":
    sys.exit(main())
