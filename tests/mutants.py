"""A standing mutation check: each listed mutant must fail the tests that guard it.

Each entry of MUTANTS replaces one exact source fragment, which must occur
once in its file, and names the test ids that must then fail.  The runner
copies src/, tests/, bench/, demos/ and README.md (with pyproject.toml,
for the pytest settings) to a temporary directory, so that any test of the
suite can guard a mutant, and first runs every named id there, unmutated:
all must pass.  Then each mutant gets a fresh copy with its one fragment
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
    # Each power's row counts only the members above the power before it.
    Mutant("bucket-sum", SIEVE,
           "np.cumsum(np.cumsum(hist[:, 1:], axis=0), axis=1)", "np.cumsum(hist[:, 1:], axis=1)",
           (f"{T_SIEVE}::TestCountTable::test_inf_always_present",)),
    Mutant("bucket-side", SIEVE,
           "np.searchsorted(powers, n)", 'np.searchsorted(powers, n, side="right")',
           (f"{T_SIEVE}::TestCountTable::test_reference_columns_to_1e2",),
           survives="the two sides differ only at a member equal to a power of ten, "
                    "and every member is 1 or odd while every power is even"),
    Mutant("cumulative-entry", SIEVE,
           "row[min(k, K_CAP) - 1]", "row[min(k, K_CAP - 1)]",
           (f"{T_SIEVE}::TestCountTable::test_reference_columns_to_1e2",)),
    Mutant("ks-order", SIEVE,
           "tuple(sorted(keys))", "tuple(keys)",
           (f"{T_SIEVE}::TestCountTable::test_ks_ascend_once_each_with_inf_last",
            "tests/test_cli.py::TestCount::test_rows_follow_ascending_k")),
    Mutant("classify-segment", SIEVE,
           "size = max(_DEFAULT_SEGMENT // buffers, 1)", "size = _DEFAULT_SEGMENT",
           (f"{T_SIEVE}::TestSegmentMemory::test_count_scan_in_classify_segments",
            "tests/test_cli.py::TestCount::test_memory_variable_is_ignored")),
    Mutant("pool-run-order", SIEVE,
           "runs[(a + b - 2 * lo) * size // (2 * total)]",
           "runs[size - 1 - (a + b - 2 * lo) * size // (2 * total)]",
           (f"{T_SIEVE}::TestBufferReuse::test_same_under_any_segmentation[7777-2]",)),
    # The prime sieve and the tiles of every scan.
    Mutant("tiled-rotation", SIEVE,
           "buf[:head] = pattern[r : r + head]", "buf[:head] = pattern[:head]",
           (f"{T_SIEVE}::TestTiledTotientPatterns::test_windows_on_the_pattern_seam",)),
    # Each prime's step starts at n = p itself, so it clears p.
    Mutant("sieve-first-hit", SIEVE,
           "primes * primes // 2", "primes // 2",
           (f"{T_SIEVE}::TestPrimeMask::test_matches_conftest_mask",)),
    Mutant("tiled-primes-prime", SIEVE,
           "mask[(t - first) // 2] = 1", "mask[(t - first) // 2] = 0",
           (f"{T_SIEVE}::TestPrimeMask::test_matches_conftest_mask",)),
    # The count's pi(10^j): the largest prime <= cbrt(x) moves into the
    # batch of the second phase, and a batch prime's rank pi(p - 1) is
    # one too high.
    Mutant("lucy-first-phase", SIEVE,
           'int(np.searchsorted(primes, _icbrt(x), side="right"))',
           'int(np.searchsorted(primes, _icbrt(x), side="right")) - 1',
           (f"{T_SIEVE}::TestPrimeCounts::test_matches_conftest_mask_to_1e7",)),
    Mutant("lucy-rank", SIEVE,
           "rank = np.arange(first, primes.size)", "rank = np.arange(first + 1, primes.size + 1)",
           (f"{T_SIEVE}::TestPrimeCounts::test_matches_conftest_mask_to_1e7",)),
    # The bulk index loop: an n with no index within 32 steps keeps the
    # count of its nonzero powers.
    Mutant("bulk-index-none", SIEVE,
           "    index[acc != 0] = 0\n", "",
           (f"{T_SIEVE}::TestBulkIndexes::test_no_index_reads_zero",)),
    # The member totients' trial division.
    Mutant("divides-edge", SIEVE,
           "<= plan.bound[a:b]", "< plan.bound[a:b]",
           (f"{T_SIEVE}::TestMemberTotients::test_squarefree_n_with_the_largest_plan",)),
    Mutant("stage-bound", SIEVE,
           "rem[live] >= plan.p[a] ** 2", "rem[live] >= plan.p[a + 1] ** 2",
           (f"{T_SIEVE}::TestMemberTotients::test_squarefree_n_with_the_largest_plan",)),
    Mutant("cofactor-fold", SIEVE,
           "    phi *= rem\n", "",
           (f"{T_SIEVE}::TestMemberTotients::test_members_with_a_prime_above_the_root",)),
    # A cofactor of 1 gives phi 0.
    Mutant("large-prime-fold", SIEVE,
           "    np.maximum(rem, 1, out=rem)\n", "",
           (f"{T_SIEVE}::TestTotientSieve::test_first_ten",)),
    # Both step tables of the classify scan stop short of (root + 1)^2, so
    # a table cached for a root misses the primes of the larger hi it serves.
    Mutant("classify-steps-top", SIEVE,
           "top = (root + 1) ** 2", "top = root * root",
           (f"{T_SIEVE}::TestLinfResiduePass::test_members_with_a_prime_above_the_root",)),
    # The step applier of every scan, _apply_steps.
    Mutant("walk-start", SIEVE,
           "np.maximum(start, start % stride)", "np.maximum(start, -start % stride)",
           (f"{T_SIEVE}::TestApplySteps::test_matches_per_position_loop",
            f"{T_SIEVE}::TestOddTotientSieve::test_matches_full_sieve",
            f"{T_SIEVE}::TestKorseltResidueOracle::test_matches_reference")),
    Mutant("walk-hit-count", SIEVE,
           "count = (length - 1 - start) // stride + 1", "count = (length - 1 - start) // stride",
           (f"{T_SIEVE}::TestWalkScatter::test_step_at_the_loop_threshold",
            f"{T_SIEVE}::TestKorseltResidueOracle::test_windows_around_each_stride")),
    Mutant("walk-run-head", SIEVE,
           "h[:-1] * (c[:-1] - 1)", "h[:-1] * c[:-1]",
           (f"{T_SIEVE}::TestWalkScatter::test_scatter_cut_into_runs",
            f"{T_SIEVE}::TestKorseltResidueOracle::test_windows_around_each_stride")),
    Mutant("walk-last-run", SIEVE,
           "for a, b in zip(edges, edges[1:]):", "for a, b in zip(edges, edges[1:-1]):",
           (f"{T_SIEVE}::TestWalkScatter::test_scatter_cut_into_runs",
            f"{T_SIEVE}::TestKorseltResidueOracle::test_windows_around_each_stride")),
    # Every scattered step that hits once is dropped.
    Mutant("hit-steps", SIEVE,
           "(count > 0) & ~looped", "(count > 1) & ~looped",
           (f"{T_SIEVE}::TestWalkScatter::test_two_scattered_steps_hit_one_n",
            f"{T_SIEVE}::TestKorseltResidueOracle::test_windows_around_each_stride")),
    # Each looped step skips its first hit.
    Mutant("loop-first-hit", SIEVE,
           "view = buf[i::h]", "view = buf[i + h::h]",
           (f"{T_SIEVE}::TestWalkScatter::test_step_at_the_loop_threshold",
            f"{T_SIEVE}::TestKorseltResidueOracle::test_windows_around_each_stride")),
    # The classify scan's residue pass with modulus p rad(p - 1).
    # The primes above sqrt(hi) are dropped.
    Mutant("linf-large-primes", SIEVE,
           "else is_prime(p))", "else False)",
           (f"{T_SIEVE}::TestLinfResiduePass::test_members_with_a_prime_above_the_root",
            f"{T_SIEVE}::TestSquaringCertificate::test_index_at_the_squaring_cutoff")),
    # Korselt's p - 1 in place of rad(p - 1) above the tiled primes.
    Mutant("linf-modulus", SIEVE,
           "found += p, r", "found += p, even",
           (f"{T_SIEVE}::TestClassifyRange::test_composites_below_100",
            f"{T_SIEVE}::TestLinfResiduePass::test_large_primes_match_rad_sieve")),
    Mutant("linf-tiled-rad", SIEVE,
           "_TILED_RAD = (2, 2, 6, 10, 6)", "_TILED_RAD = (2, 2, 6, 10, 12)",
           (f"{T_SIEVE}::TestLinfResiduePass::test_windows_on_the_tile_seam",)),
    # Each prime's first hit at n = p itself, in both residue passes.
    Mutant("residue-first-hit", SIEVE,
           "p * (1 + m) // 2", "p // 2",
           (f"{T_SIEVE}::TestEnumerate::test_l2_composites",
            f"{T_SIEVE}::TestEnumerate::test_carmichael_lists")),
    Mutant("linf-one", SIEVE,
           "        if first == 1:  # phi(1) = 1 divides (1 - 1)^1\n"
           "            members = np.concatenate(([1], members))\n", "",
           (f"{T_SIEVE}::TestClassifyRange::test_singletons",
            f"{T_SIEVE}::TestCountTable::test_inf_always_present")),
    # The hit search that both residue passes share, guarded through the
    # Korselt scan.
    Mutant("korselt-pad", SIEVE,
           "    buf[length:size] = 0\n", "",
           (f"{T_SIEVE}::TestKorseltResidueOracle::test_pad_ignores_buffer_garbage",)),
    Mutant("block-bar-up", SIEVE,
           "bar = _korselt_bar(head)", "bar = _korselt_bar(head + 2 * _BLOCK)",
           (f"{T_SIEVE}::TestEnumerate::test_carmichael_lists",)),
    Mutant("block-bar-strict", SIEVE,
           "blocks.max(axis=1) >= bar", "blocks.max(axis=1) > bar",
           (f"{T_SIEVE}::TestKorseltResidueOracle::test_hit_at_a_block_edge",),
           survives="a hit's log sum, a Carmichael number's or an L_inf member's, is "
                    "at least floor(8 log2 n) - 7, two above the bar of its block's "
                    "first n, so no block that holds one has its maximum at the bar"),
    Mutant("korselt-tiled-prime", SIEVE,
           "buf[(t - first) // 2] -= _log8(t)", "buf[(t - first) // 2] -= 0",
           (f"{T_SIEVE}::TestEnumerate::test_carmichael_lists",)),
    Mutant("log-threshold", SIEVE,
           "_log8(n) - np.uint8(9)", "_log8(n) - np.uint8(14)",
           (f"{T_SIEVE}::TestEnumerate::test_carmichael_lists",
            f"{T_SIEVE}::TestKorseltLogBound::test_margins_at_every_odd_n_below_2e5")),
    Mutant("log-threshold-up", SIEVE,
           "_log8(n) - np.uint8(9)", "_log8(n) - np.uint8(6)",
           (f"{T_SIEVE}::TestEnumerate::test_carmichael_lists",
            f"{T_SIEVE}::TestKorseltLogBound::test_margins_at_every_carmichael_number_to_1e8",
            f"{T_SIEVE}::TestKorseltLogBound::test_margins_at_every_odd_n_below_2e5"),
           survives="the proof lets a hit's log sum fall up to 7 below "
                    "floor(8 log2 n), but no Carmichael number and no L_inf "
                    "composite below 10^8 falls more than 4, so a bar 3 higher "
                    "still admits every one that a test reaches"),
    # The one floor(8 log2) of the weights and the bar, one too high.
    Mutant("log-weight", SIEVE,
           'side="right").astype(np.uint8)', 'side="right").astype(np.uint8) + 1',
           (f"{T_SIEVE}::TestKorseltLogBound::test_log_weight_is_floor_of_8_log2",
            f"{T_SIEVE}::TestKorseltLogBound::test_margins_at_every_odd_n_below_2e5")),
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
    # The record base and the interned indexes.
    Mutant("record-eq", ARITH,
           "return self._astuple() == other._astuple()",
           "return self._astuple()[:1] == other._astuple()[:1]",
           (f"{T_ARITH}::TestRecords::test_record_contract",)),
    Mutant("record-hash", ARITH,
           "return hash(self._astuple())", "return hash(self._astuple()[:-1])",
           (f"{T_ARITH}::TestRecords::test_record_contract",)),
    Mutant("record-frozen", ARITH,
           'raise AttributeError(f"cannot assign to field {name!r}")',
           "object.__setattr__(self, name, value)",
           (f"{T_ARITH}::TestRecords::test_record_contract",)),
    Mutant("index-table", "src/klehmer/lehmer.py",
           "_INDEXES[k] if k <= K_CAP", "_INDEXES[k - 1] if k <= K_CAP",
           ("tests/test_lehmer.py::TestLehmerIndexType::test_finite_indexes_are_interned",)),
    # The CLI.
    Mutant("cli-ceiling", "src/klehmer/cli.py",
           "10**8 if args.allow_large else 10**7", "10**8 if args.allow_large else 10**8",
           ("tests/test_cli.py::TestCount::test_ceiling_message",)),
)


def _copy(dest: Path) -> None:
    for name in ("src", "tests", "bench", "demos"):
        # bench/out holds benchmark records, which no test reads.
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", "out"))
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, dest)


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
