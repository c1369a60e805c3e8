import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import klehmer
from klehmer import cli
from klehmer.cli import classification_report, emit_bfile, main

from conftest import segments_of, swap_arith


def run_cli(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def usage_error(capsys, *args):
    """The last stderr line of a command that must fail with its usage."""
    rc, out, err = run_cli(capsys, *args)
    assert (rc, out) == (1, "") and err.startswith(f"usage: klehmer {args[0]} ")
    return err.splitlines()[-1]


class TestClassify:
    def test_561_golden(self, capsys):
        rc, out, _ = run_cli(capsys, "classify", "561")
        assert rc == 0
        assert out == (
            '{\n  "n": "561",\n  "factorization": [\n    [\n      "3",\n'
            '      1\n    ],\n    [\n      "11",\n      1\n    ],\n    [\n'
            '      "17",\n      1\n    ]\n  ],\n  "phi": "320",\n'
            '  "lambda": "80",\n  "rad_phi": "10",\n  "lehmer_index": 2,\n'
            '  "is_carmichael": true,\n  "pseudoprime_base": "103",\n'
            '  "base_degenerate": false\n}\n'
        )
        payload = json.loads(out)
        assert payload["lehmer_index"] == 2 and payload["is_carmichael"] is True

    def test_not_in_linf_renders_none(self, capsys):
        rc, out, _ = run_cli(capsys, "classify", "9")
        assert json.loads(out)["lehmer_index"] == "none"

    def test_degenerate_base_flagged(self, capsys):
        rc, out, _ = run_cli(capsys, "classify", "15")
        payload = json.loads(out)
        assert payload["pseudoprime_base"] == "1"
        assert payload["base_degenerate"] is True

    def test_prime_omits_base(self, capsys):
        rc, out, _ = run_cli(capsys, "classify", "97")
        payload = json.loads(out)
        assert "pseudoprime_base" not in payload
        assert payload["lehmer_index"] == 1

    def test_128_bit_input(self, capsys):
        rc, out, _ = run_cli(capsys, "classify", "330019822807208371201")
        payload = json.loads(out)
        assert payload["is_carmichael"] is True
        assert payload["lehmer_index"] == 10

    # 12358409426137806301 is a product of two 32-bit safe primes: its phi
    # is 4 * p'q', a balanced semiprime that only n's primes give away.
    @pytest.mark.parametrize("n", [2, 9, 15, 97, 561, 2**127 - 1, 330019822807208371201,
                                   12358409426137806301])
    def test_factors_n_once(self, factorize_calls, n):
        report = classification_report(n)
        # phi(n) is derived from n's primes: factorize sees n and each p - 1
        expected = [n] + [p - 1 for p, _ in report.factorization]
        assert sorted(factorize_calls) == sorted(expected)

    def test_zero_is_usage_error(self, capsys):
        rc, out, err = run_cli(capsys, "classify", "0")
        assert rc == 1 and out == "" and "error" in err

    def test_unsplit_factor_is_exit_2(self, capsys, monkeypatch):
        def fail(n):
            raise ArithmeticError(f"failed to split {n}")

        monkeypatch.setattr("klehmer.arith._split_composite", fail)
        n = 1_000_003 * 1_000_033  # no prime factor below 4096, so rho must split it
        rc, out, err = run_cli(capsys, "classify", str(n))
        assert (rc, out, err) == (2, "", f"error: failed to split {n}\n")

    def test_csv_format(self, capsys):
        rc, out, _ = run_cli(capsys, "classify", "561", "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["phi"] == "320" and rows[0]["is_carmichael"] == "true"


class TestCount:
    def test_golden_csv(self, capsys):
        rc, out, _ = run_cli(capsys, "count", "--limit", "100", "--k", "2",
                             "--format", "csv")
        assert rc == 0
        assert out == "k,X,count\n2,10,5\n2,100,26\n"

    def test_json_multi_k(self, capsys):
        rc, out, _ = run_cli(capsys, "count", "--limit", "1000", "--k", "2,inf")
        payload = json.loads(out)
        rows = {(r["k"], r["X"]): r["count"] for r in payload["rows"]}
        assert rows[(2, 1000)] == 170
        assert rows[("inf", 1000)] == 188

    def test_rows_follow_ascending_k(self, capsys):
        rc, out, _ = run_cli(capsys, "count", "--limit", "100", "--k", "inf,200,5,2,2",
                             "--format", "csv")
        assert rc == 0
        ks = [row["k"] for row in csv.DictReader(io.StringIO(out))]
        assert ks == ["2", "2", "5", "5", "200", "200", "inf", "inf"]

    def test_scientific_limit(self, capsys):
        rc, out, _ = run_cli(capsys, "count", "--limit", "1e2", "--k", "2",
                             "--format", "csv")
        assert rc == 0 and out.endswith("2,100,26\n")

    def test_limit_above_ceiling_is_exit_2(self, capsys):
        rc, out, err = run_cli(capsys, "count", "--limit", "1e8", "--k", "2")
        assert rc == 2 and "exceeds" in err

    @pytest.mark.parametrize("argv, ceiling", [
        (("count", "--limit", "1e8"), 10**7),
        (("list", "--set", "carmichael", "--limit", "2e7"), 10**7),
        (("alpha", "--k", "1", "--limit", "2e8", "--allow-large"), 10**8),
    ])
    def test_ceiling_message(self, capsys, argv, ceiling):
        limit = int(float(argv[argv.index("--limit") + 1]))
        assert run_cli(capsys, *argv) == (
            2, "", f"error: limit {limit} exceeds the configured maximum {ceiling}\n",
        )

    @pytest.mark.parametrize("argv, message", [
        # The domain is checked before the ceiling ...
        (("count", "--limit", "0"), "limit must be >= 1, got 0"),
        (("count", "--limit", str(10**40)), "limit exceeds 2**127 - 1"),
        # ... and argparse reports a malformed argument before any handler.
        # These ids name the fault, as they did when the handlers reported it.
        pytest.param(("count", "--limit", "1e9", "--k", "x"),
                     "klehmer count: error: argument --k: must be an integer, got 'x'",
                     id="argv2-k must be an integer, got 'x'"),
        pytest.param(("list", "--set", "lk-composites:x", "--limit", "1e9"),
                     "klehmer list: error: argument --set: k must be an integer, got 'x'",
                     id="argv3-k must be an integer, got 'x'"),
    ])
    def test_other_faults_before_the_ceiling(self, capsys, argv, message):
        if message.startswith("klehmer "):
            assert usage_error(capsys, *argv) == message
        else:
            assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

    def test_bad_limit_is_usage_error(self, capsys):
        rc, _, _ = run_cli(capsys, "count", "--limit", "banana", "--k", "2")
        assert rc == 1
        rc, _, _ = run_cli(capsys, "count", "--limit", "5000", "--k", "2")
        assert rc == 1

    def test_identical_across_workers(self, capsys):
        rc1, out1, _ = run_cli(capsys, "count", "--limit", "1e5", "--k",
                               "2,3,4,5,inf", "--format", "csv")
        with segments_of(7777):
            rc2, out2, _ = run_cli(capsys, "count", "--limit", "1e5", "--k",
                                   "2,3,4,5,inf", "--format", "csv", "--workers", "2")
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_one_allowed_cpu_runs_without_a_pool(self, capsys, monkeypatch):
        # Two cores in the machine, one in the process's affinity mask: a
        # pool of 2 would put both workers on that one core.
        argv = ("count", "--limit", "1e5", "--format", "csv")
        one = run_cli(capsys, *argv)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        pools = []
        monkeypatch.setattr("klehmer.sieve.ProcessPoolExecutor",
                            lambda max_workers: pools.append(max_workers))
        assert run_cli(capsys, *argv, "--workers", "2") == one
        assert one[0] == 0 and pools == []

    @pytest.mark.parametrize("value", ["1", "zero"])
    def test_memory_variable_is_ignored(self, capsys, monkeypatch, value):
        # Korselt segments are always 4 * 10^6 values and classify segments
        # 2 * 10^6; no environment variable, however malformed, changes
        # them or stops a command.  The limit is 10^7, so that a classify
        # segment of either length would show.
        from klehmer import sieve
        from klehmer.sieve import _segment_bounds

        commands = (("count", "--limit", "1e7", "--format", "csv"),
                    ("list", "--set", "lk-composites:3", "--limit", "1e7"))
        default = [run_cli(capsys, *command) for command in commands]
        monkeypatch.setenv("KLEHMER_MEMORY_MIB", value)
        assert _segment_bounds(1, 10**6 + 1) == [(1, 10**6 + 1)]
        scanned = []
        scan = sieve._classify_scan
        monkeypatch.setattr(sieve, "_classify_scan",
                            lambda bounds: scanned.append(bounds) or scan(bounds))
        assert [run_cli(capsys, *command) for command in commands] == default
        assert all(rc == 0 for rc, _, _ in default)
        # The count's segments end at each 10^j + 1 and at each 2k * 10^6 + 1.
        edges = [2 * k * 10**6 + 1 for k in range(1, 5)]
        assert scanned == [
            [(1, 11), (11, 101), (101, 1001), (1001, 10_001), (10_001, 100_001),
             (100_001, 10**6 + 1), (10**6 + 1, edges[0]),
             *zip(edges, edges[1:]), (edges[-1], 10**7 + 1)],
            [(1, edges[0]), *zip(edges, edges[1:]), (edges[-1], 10**7 + 1)],
        ]


class TestList:
    def test_bfile_golden(self, capsys):
        rc, out, _ = run_cli(capsys, "list", "--set", "l2-composites",
                             "--limit", "3000", "--format", "bfile")
        assert rc == 0
        assert out == "1 561\n2 1105\n3 1729\n4 2465\n"

    def test_empty_bfile(self, capsys):
        rc, out, _ = run_cli(capsys, "list", "--set", "l2-composites",
                             "--limit", "500", "--format", "bfile")
        assert rc == 0 and out == ""

    def test_json_values_are_strings(self, capsys):
        rc, out, _ = run_cli(capsys, "list", "--set", "carmichael",
                             "--limit", "3000")
        payload = json.loads(out)
        assert payload["values"] == ["561", "1105", "1729", "2465", "2821"]
        assert payload["count"] == 5

    def test_lk_parameterized_set(self, capsys):
        rc, out, _ = run_cli(capsys, "list", "--set", "lk-composites:3",
                             "--limit", "100", "--format", "csv")
        assert out == "n\n15\n85\n91\n"

    def test_carmichael_accepts_workers(self, capsys):
        # The Korselt sieve runs in process; --workers is accepted and changes
        # nothing.  The benchmark's carmichael-alpha command lines pass it to both.
        for argv, lines in (
            (("list", "--set", "carmichael", "--limit", "1e5", "--format", "csv"), 17),
            (("alpha", "--k", "1", "--limit", "1e4"), 8),
        ):
            one = run_cli(capsys, *argv)
            assert run_cli(capsys, *argv, "--workers", "2") == one, argv
            assert one[0] == 0 and one[1].count("\n") == lines, argv

    def test_unknown_set(self, capsys):
        rc, _, err = run_cli(capsys, "list", "--set", "mersenne", "--limit", "10")
        assert rc == 1 and "unknown set" in err


class TestAlpha:
    def test_search_json(self, capsys):
        rc, out, _ = run_cli(capsys, "alpha", "--k", "1", "--limit", "1e4")
        payload = json.loads(out)
        assert payload == {"k": 1, "found": True, "n": "561", "omega": 3,
                           "in_next": True, "bound": "10000"}

    def test_not_found(self, capsys):
        rc, out, _ = run_cli(capsys, "alpha", "--k", "9", "--limit", "1000")
        payload = json.loads(out)
        assert payload == {"k": 9, "found": False, "bound": "1000"}
        assert rc == 0

    def test_verify_golden(self, capsys):
        rc, out, _ = run_cli(capsys, "alpha-verify", "--k", "3", "--n", "838201")
        assert rc == 0
        assert out == (
            '{\n  "k": 3,\n  "found": true,\n  "n": "838201",\n'
            '  "omega": 4,\n  "in_next": true,\n  "bound": "0"\n}\n'
        )

    def test_verify_128_bit(self, capsys):
        rc, out, _ = run_cli(capsys, "alpha-verify", "--k", "9",
                             "--n", "330019822807208371201")
        payload = json.loads(out)
        assert payload["omega"] == 10 and payload["in_next"] is True

    def test_verify_failure_is_exit_3(self, capsys):
        rc, out, err = run_cli(capsys, "alpha-verify", "--k", "2", "--n", "561")
        assert rc == 3 and "L_2" in err
        rc, _, err = run_cli(capsys, "alpha-verify", "--k", "1", "--n", "15")
        assert rc == 3

    def test_csv_output(self, capsys):
        rc, out, _ = run_cli(capsys, "alpha", "--k", "2", "--limit", "1e4",
                             "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["n"] == "2821" and rows[0]["found"] == "true"

    def test_allow_large_raises_the_ceiling(self, capsys):
        rc, out, err = run_cli(capsys, "alpha", "--k", "1", "--limit", "2e7")
        assert rc == 2 and out == "" and "exceeds" in err
        rc, out, _ = run_cli(capsys, "alpha", "--k", "1", "--limit", "2e7",
                             "--allow-large")
        assert rc == 0 and json.loads(out)["n"] == "561"


class TestChernick:
    def test_single(self, capsys):
        rc, out, _ = run_cli(capsys, "chernick", "--k", "3", "--m", "1")
        payload = json.loads(out)
        assert payload["value"] == "1729"
        assert payload["observed_index"] == 2
        assert payload["guaranteed_index_k"] is False

    def test_scan_csv(self, capsys):
        rc, out, _ = run_cli(capsys, "chernick", "--k", "3", "--m-max", "6",
                             "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6
        assert rows[0]["value"] == "1729"
        assert rows[5]["value"] == "294409"
        assert rows[5]["guaranteed_index_k"] == "true"

    def test_overflow_is_exit_2(self, capsys):
        rc, _, err = run_cli(capsys, "chernick", "--k", "40", "--m", "1000000")
        assert rc == 2 and "2**127" in err

    def test_k_too_small_is_usage_error(self, capsys):
        rc, _, _ = run_cli(capsys, "chernick", "--k", "2", "--m", "1")
        assert rc == 1

    @pytest.mark.parametrize("flag", ["--m", "--m-max"])
    def test_bad_m_names_its_option(self, capsys, flag):
        assert usage_error(capsys, "chernick", "--k", "3", flag, "1e30") == (
            f"klehmer chernick: error: argument {flag}: "
            "must be an integer or a whole float up to 1e18, got '1e30'"
        )

    @pytest.mark.parametrize("m_max", ["100001", "1e9", str(10**20)])
    def test_m_max_above_ceiling_is_exit_2(self, capsys, m_max):
        rc, out, err = run_cli(capsys, "chernick", "--k", "3", "--m-max", m_max)
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1 and "exceeds the maximum 100000" in err

    def test_scan_overflow_is_exit_2_from_the_largest_m(self, capsys):
        rc, out, err = run_cli(capsys, "chernick", "--k", "6", "--m-max", "1e5")
        assert (rc, out, err) == (2, "", "error: U_6(100000) exceeds 2**127 - 1\n")

    def test_m_max_ceiling_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_CHERNICK_M_MAX", 6)
        rc, out, _ = run_cli(capsys, "chernick", "--k", "3", "--m-max", "6")
        assert rc == 0 and len(json.loads(out)["candidates"]) == 6
        rc, out, _ = run_cli(capsys, "chernick", "--k", "3", "--m-max", "7")
        assert (rc, out) == (2, "")


class TestSemiprime:
    def test_golden_csv(self, capsys):
        rc, out, _ = run_cli(capsys, "semiprime", "7", "13", "--k", "3",
                             "--format", "csv")
        assert out == "p,q,a,b,d,alpha,beta,k,criterion,direct\n7,13,1,2,3,1,1,3,true,true\n"

    def test_proves_p_and_q_once(self, capsys, monkeypatch):
        calls = []

        def recording(original, n):
            calls.append(n)
            return original(n)

        swap_arith(monkeypatch, "is_prime", recording)
        rc, out, _ = run_cli(capsys, "semiprime", "7", "13", "--k", "3")
        assert (rc, calls.count(7), calls.count(13)) == (0, 1, 1)
        assert out == (
            '{\n  "p": "7",\n  "q": "13",\n  "a": 1,\n  "b": 2,\n  "d": "3",\n'
            '  "alpha": "1",\n  "beta": "1",\n  "k": 3,\n  "criterion": true,\n'
            '  "direct": true\n}\n'
        )

    def test_json_without_k(self, capsys):
        rc, out, _ = run_cli(capsys, "semiprime", "5", "13")
        payload = json.loads(out)
        assert payload == {"p": "5", "q": "13", "a": 2, "b": 2, "d": "1",
                           "alpha": "1", "beta": "3"}

    def test_composite_input_is_usage_error(self, capsys):
        rc, _, err = run_cli(capsys, "semiprime", "9", "13")
        assert rc == 1

    # Balanced pairs: for the second, two safe primes, alpha * beta = p'q'
    # is again a balanced semiprime.  Neither product may reach factorize.
    @pytest.mark.parametrize("p, q", [(36028797018976327, 72057594038026711),
                                      (33042149106911783, 19762248964260059)])
    def test_balanced_products_never_reach_factorize(self, capsys, factorize_calls, p, q):
        rc, out, _ = run_cli(capsys, "semiprime", str(p), str(q), "--k", "3")
        payload = json.loads(out)
        assert rc == 0 and payload["criterion"] is payload["direct"] is False
        alpha_beta = int(payload["alpha"]) * int(payload["beta"])
        assert factorize_calls and not {p * q, alpha_beta} & set(factorize_calls)

    def test_product_past_domain_is_usage_error(self, capsys):
        rc, out, err = run_cli(capsys, "semiprime", str(2**61 - 1), str(2**89 - 1),
                               "--k", "3")
        assert (rc, out) == (1, "") and "2**127 - 1" in err


class TestPseudoBase:
    def test_561(self, capsys):
        rc, out, _ = run_cli(capsys, "pseudo-base", "561")
        payload = json.loads(out)
        assert payload == {"n": "561", "base": "103", "degenerate": False,
                           "fermat_to_base": True}

    def test_degenerate(self, capsys):
        rc, out, _ = run_cli(capsys, "pseudo-base", "15")
        payload = json.loads(out)
        assert payload["degenerate"] is True and payload["base"] == "1"

    def test_prime_rejected(self, capsys):
        rc, _, _ = run_cli(capsys, "pseudo-base", "97")
        assert rc == 1


class TestUsage:
    def test_unknown_flag(self, capsys):
        rc, _, err = run_cli(capsys, "count", "--limit", "100", "--wibble")
        assert rc == 1 and "usage" in err

    @pytest.mark.parametrize("argv", [
        ("count", "--limit", "1e3", "--bogus"),
        ("classify", "561", "--bogus"),
    ])
    def test_unknown_flag_after_command_gets_its_usage(self, capsys, argv):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err.startswith(f"usage: klehmer {argv[0]} ")
        assert err.endswith(f"klehmer {argv[0]}: error: unrecognized arguments: --bogus\n")

    def test_unknown_flag_before_command_gets_root_usage(self, capsys):
        rc, out, err = run_cli(capsys, "--bogus", "count", "--limit", "1e3")
        assert (rc, out) == (1, "")
        assert err.startswith("usage: klehmer [-h]")
        assert err.endswith("klehmer: error: unrecognized arguments: --bogus\n")

    @pytest.mark.parametrize("argv, name, text", [
        (("classify", "abc"), "n", "abc"),
        (("classify", "1e3"), "n", "1e3"),
        (("alpha-verify", "--k", "2", "--n", "abc"), "--n", "abc"),
        (("semiprime", "x", "5"), "p", "x"),
        (("semiprime", "5", "y"), "q", "y"),
        (("pseudo-base", "1e3"), "n", "1e3"),
    ])
    def test_non_integer_n_names_its_argument(self, capsys, argv, name, text):
        assert usage_error(capsys, *argv) == (
            f"klehmer {argv[0]}: error: argument {name}: must be an integer, got {text!r}"
        )

    @pytest.mark.parametrize("argv, name, message", [
        (("count", "--limit", "x"), "--limit",
         "must be an integer or a whole float up to 1e18, got 'x'"),
        (("count", "--limit", "1e19"), "--limit",
         "must be an integer or a whole float up to 1e18, got '1e19'"),
        (("count", "--limit", "10", "--k", "2,x"), "--k", "must be an integer, got 'x'"),
        (("count", "--limit", "10", "--k", ","), "--k", "empty k list"),
        (("list", "--set", "mersenne", "--limit", "10"), "--set",
         "unknown set 'mersenne'"),
        (("list", "--set", "lk-composites:x", "--limit", "10"), "--set",
         "k must be an integer, got 'x'"),
    ])
    def test_malformed_argument_gets_usage(self, capsys, argv, name, message):
        assert usage_error(capsys, *argv) == (
            f"klehmer {argv[0]}: error: argument {name}: {message}"
        )

    def test_unknown_command(self, capsys):
        rc, _, _ = run_cli(capsys, "transmogrify")
        assert rc == 1

    def test_no_command(self, capsys):
        rc, _, _ = run_cli(capsys)
        assert rc == 1

    def test_help_exits_zero(self, capsys):
        rc, out, _ = run_cli(capsys, "--help")
        assert rc == 0 and "classify" in out

    def test_bfile_not_available_for_classify(self, capsys):
        rc, _, _ = run_cli(capsys, "classify", "15", "--format", "bfile")
        assert rc == 1
        rc, out, _ = run_cli(capsys, "count", "--limit", "100", "--format", "yaml")
        assert rc == 1 and out == ""

    def test_parser_built_once(self, capsys, monkeypatch):
        assert run_cli(capsys, "count", "--limit", "100", "--k", "2")[0] == 0
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        assert run_cli(capsys, "classify", "561")[0] == 0
        assert built == []

    def test_segment_size_is_not_an_option(self, capsys):
        commands = (
            ("count", "--limit", "1e7"),
            ("list", "--set", "carmichael", "--limit", "1e7"),
            ("alpha", "--k", "4", "--limit", "1e7"),
        )
        for command in commands:
            rc, out, err = run_cli(capsys, *command, "--segment-size", "1")
            assert (rc, out) == (1, ""), command
            assert err.startswith("usage: ") and "--segment-size" in err, command

    def test_bad_workers_is_usage_error(self, capsys):
        commands = (
            ("count", "--limit", "100", "--k", "2"),
            ("list", "--set", "carmichael", "--limit", "100"),
            ("alpha", "--k", "1", "--limit", "100"),
        )
        for command in commands:
            for workers in ("0", "-1"):
                rc, out, err = run_cli(capsys, *command, "--workers", workers)
                assert (rc, out) == (1, ""), (command, workers)
                assert "--workers" in err

    @pytest.mark.parametrize("argv", [
        ("alpha", "--k", "x", "--limit", "10"),
        ("alpha-verify", "--k", "x", "--n", "561"),
        ("chernick", "--k", "x", "--m", "1"),
        ("semiprime", "3", "5", "--k", "x"),
    ])
    def test_non_integer_k_names_no_helper(self, capsys, argv):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err.splitlines()[-1] == (
            f"klehmer {argv[0]}: error: argument --k: must be an integer, got 'x'"
        )

    @pytest.mark.parametrize("workers", ["x", "1.5", ""])
    def test_non_integer_workers_names_no_helper(self, capsys, workers):
        rc, out, err = run_cli(capsys, "count", "--limit", "1e3", "--workers", workers)
        assert (rc, out) == (1, "")
        assert err.splitlines()[-1] == (
            f"klehmer count: error: argument --workers: must be an integer, got {workers!r}"
        )


# Tokens for fuzzed command lines: values of each kind an argument takes,
# edges included, and junk that any argument may get instead.  Bulk limits
# and chernick scans that pass their ceilings stay at or below 10^4, so
# every line runs in moments.
_BIG = "99999999999999999999"  # inside the 127-bit domain, past int64
_JUNK = ["", "x", "nan", "inf", "-inf", "1e400", "1.5", "0x10", "-1", "0", _BIG,
         str(10**40)]
_TOKENS = {
    "n": ["1", "2", "9", "15", "97", "561", "41471521", "330019822807208371201",
          str(2**61 - 1), str(2**127 - 1), str(2**127)],
    "prime": ["2", "3", "5", "7", "13", "9", "15", str(2**61 - 1), str(2**89 - 1),
              str(2**127 - 1)],
    "limit": ["1", "10", "1e2", "1e3", "1e4", "10000", "5000", "-1e4", "1e9", "3e9", "1e18"],
    "k": ["1", "2", "3", "4", "9", "44", "45", "46", "127", "128", "100000"],
    "ks": ["2,3,4,5,inf", "inf", "1", ",", "2,,inf", "inf,inf,2", "1e3", "0,2", "3, 2",
           "200"],
    "set": ["carmichael", "l2-composites", "lk-composites:3", "lk-composites:",
            "lk-composites:0", "lk-composites:-1", "lk-composites:" + _BIG,
            "lk-composites:x", "l3-composites"],
    "m": ["1", "6", "1073742435", "1e18", "1e30", str(2**127)],
    "m_max": ["1", "6", "1e3", "1e4", "1e9"],
    "workers": ["1", "2", "64"],
    "format": ["json", "csv", "bfile", "yaml"],
}
_BULK = {"--format": "format", "--workers": "workers", "--allow-large": None}
# command: (positional kinds, required options, other options)
_COMMANDS = {
    "classify": (["n"], {}, {"--format": "format"}),
    "count": ([], {"--limit": "limit"}, {**_BULK, "--k": "ks"}),
    "list": ([], {"--set": "set", "--limit": "limit"}, _BULK),
    "alpha": ([], {"--k": "k", "--limit": "limit"}, _BULK),
    "alpha-verify": ([], {"--k": "k", "--n": "n"}, {"--format": "format"}),
    "chernick": ([], {"--k": "k"}, {"--m": "m", "--m-max": "m_max", "--format": "format"}),
    "semiprime": (["prime", "prime"], {}, {"--k": "k", "--format": "format"}),
    "pseudo-base": (["n"], {}, {"--format": "format"}),
}


@st.composite
def command_lines(draw):
    """A command with its arguments: required ones mostly present, the
    rest half the time; a quarter of the values are junk."""

    def value(kind):
        pool = _TOKENS[kind] if draw(st.integers(0, 3)) else _JUNK
        return draw(st.sampled_from(pool))

    command = draw(st.sampled_from(sorted(_COMMANDS)))
    positionals, required, optional = _COMMANDS[command]
    argv = [command] + [value(kind) for kind in positionals if draw(st.integers(0, 7))]
    options = {**required, **optional}
    for flag in draw(st.permutations(sorted(options))):
        if draw(st.integers(0, 7)) if flag in required else draw(st.booleans()):
            argv += [flag] if options[flag] is None else [flag, value(options[flag])]
    return argv


def check_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if rc:
        assert out.getvalue() == "" and err.getvalue(), argv
        # A malformed argument gets a usage block; anything else one line.
        if err.getvalue().startswith("usage: "):
            assert rc == 1, argv
            assert re.match(r"klehmer( \S+)?: error: ", err.getvalue().splitlines()[-1]), argv
        else:
            assert re.fullmatch(r"error: [^\n]*\n", err.getvalue()), argv


class TestFuzzedCommandLines:
    """Every command line exits 0, 1, 2 or 3; a failure writes an error
    message and no stdout, and no exception escapes main()."""

    @settings(max_examples=150, deadline=None)
    @given(argv=command_lines())
    @example(argv=["chernick", "--k", "100000", "--m", "1"])
    @example(argv=["chernick", "--k", _BIG, "--m-max", "1e4"])
    @example(argv=["count", "--limit", "1e4", "--k", ","])
    @example(argv=["semiprime", str(2**61 - 1), str(2**89 - 1), "--k", "3"])
    @example(argv=["semiprime", "33042149106911783", "19762248964260059", "--k", "3"])
    def test_exit_code_contract(self, argv):
        check_exit_contract(argv)

    @pytest.mark.slow
    @settings(max_examples=3000, deadline=None)
    @given(argv=command_lines())
    def test_exit_code_contract_long(self, argv):
        check_exit_contract(argv)


class TestModuleEntryPoints:
    """`python -m klehmer.cli` and `python -m klehmer` behave like main()."""

    @staticmethod
    def run_python(*args):
        src = str(Path(klehmer.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def run_module(self, module, *args, flags=()):
        return self.run_python(*flags, "-m", module, *args)

    def test_docstrings_stripped(self):
        # python -OO drops every docstring; the CLI must not need them.
        plain = self.run_module("klehmer.cli", "classify", "561")
        stripped = self.run_module("klehmer.cli", "classify", "561", flags=("-OO",))
        assert (stripped.returncode, stripped.stdout, stripped.stderr) == (0, plain.stdout, "")
        assert plain.returncode == 0 and '"n": "561"' in plain.stdout

    @pytest.mark.parametrize("module", ["klehmer.cli", "klehmer"])
    def test_stdout_and_exit_code(self, module):
        done = self.run_module(module, "count", "--limit", "1e2", "--k", "2", "--format", "csv")
        assert (done.returncode, done.stdout, done.stderr) == (
            0, "k,X,count\n2,10,5\n2,100,26\n", "",
        )
        done = self.run_module(module, "count", "--limit", "1e8", "--k", "2")
        assert (done.returncode, done.stdout) == (2, "")
        assert "exceeds" in done.stderr

    PER_NUMBER = (("classify", "561"),
                  ("alpha-verify", "--k", "9", "--n", "330019822807208371201"),
                  ("semiprime", "7", "13", "--k", "3"),
                  ("pseudo-base", "561"),
                  ("chernick", "--k", "3", "--m", "1"))

    def test_per_number_commands_leave_numpy_unloaded(self):
        # Only the bulk commands import the sieve, and with it numpy.
        script = "\n".join([
            "import contextlib, io, sys",
            "import klehmer, klehmer.cli",
            "def run(*argv):",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert klehmer.cli.main(list(argv)) == 0, argv",
            "    return 'numpy' in sys.modules",
            "assert 'numpy' not in sys.modules",
            f"for argv in {self.PER_NUMBER!r}:",
            "    assert not run(*argv), argv",
            "assert run('count', '--limit', '1e2')",
        ])
        done = self.run_python("-c", script)
        assert (done.returncode, done.stderr) == (0, "")

    def test_per_number_commands_leave_dataclasses_and_inspect_unloaded(self):
        # The records need neither; importing both cost over half of
        # `import klehmer`.  Only modules that start-up has not loaded count.
        script = "\n".join([
            "import contextlib, io, sys",
            "heavy = {'dataclasses', 'inspect'} - set(sys.modules)",
            "import klehmer, klehmer.cli",
            "assert not heavy & set(sys.modules), heavy & set(sys.modules)",
            f"for argv in {self.PER_NUMBER!r}:",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert klehmer.cli.main(list(argv)) == 0, argv",
            "    assert not heavy & set(sys.modules), (argv, heavy & set(sys.modules))",
        ])
        done = self.run_python("-c", script)
        assert (done.returncode, done.stderr) == (0, "")


# Whole stdout of one command per format not pinned above, including the
# header-only CSV, the empty b-file and the not-found row with empty cells.
GOLDEN_STDOUT = [
    (("classify", "561", "--format", "csv"),
     "n,factorization,phi,lambda,rad_phi,lehmer_index,is_carmichael,pseudoprime_base,"
     "base_degenerate\n561,3^1 11^1 17^1,320,80,10,2,true,103,false\n"),
    (("pseudo-base", "15", "--format", "csv"),
     "n,base,degenerate,fermat_to_base\n15,1,true,true\n"),
    (("chernick", "--k", "3", "--m", "1"),
     '{\n  "k": 3,\n  "m": "1",\n  "factors": [\n    "7",\n    "13",\n    "19"\n'
     '  ],\n  "value": "1729",\n  "all_prime": true,\n  "divisibility_ok": true,\n'
     '  "is_carmichael": true,\n  "guaranteed_index_k": false,\n'
     '  "observed_index": 2\n}\n'),
    (("chernick", "--k", "3", "--m", "1", "--format", "csv"),
     "k,m,value,factors,all_prime,divisibility_ok,is_carmichael,guaranteed_index_k,"
     "observed_index\n3,1,1729,7 13 19,true,true,true,false,2\n"),
    (("alpha-verify", "--k", "9", "--n", "330019822807208371201", "--format", "csv"),
     "k,found,n,omega,in_next,bound\n9,true,330019822807208371201,10,true,0\n"),
    (("alpha", "--k", "9", "--limit", "1000", "--format", "csv"),
     "k,found,n,omega,in_next,bound\n9,false,,,,1000\n"),
    (("list", "--set", "carmichael", "--limit", "500"),
     '{\n  "set": "carmichael",\n  "limit": 500,\n  "count": 0,\n  "values": []\n}\n'),
    (("list", "--set", "carmichael", "--limit", "500", "--format", "csv"), "n\n"),
    (("list", "--set", "carmichael", "--limit", "500", "--format", "bfile"), ""),
    (("count", "--limit", "100", "--k", "2,inf"),
     '{\n  "limit": 100,\n  "rows": [\n'
     '    {\n      "k": 2,\n      "X": 10,\n      "count": 5\n    },\n'
     '    {\n      "k": 2,\n      "X": 100,\n      "count": 26\n    },\n'
     '    {\n      "k": "inf",\n      "X": 10,\n      "count": 5\n    },\n'
     '    {\n      "k": "inf",\n      "X": 100,\n      "count": 30\n    }\n'
     '  ]\n}\n'),
]


class TestGoldenStdout:
    @pytest.mark.parametrize("argv, expected", GOLDEN_STDOUT,
                             ids=[" ".join(argv) for argv, _ in GOLDEN_STDOUT])
    def test_whole_stdout(self, capsys, argv, expected):
        assert run_cli(capsys, *argv) == (0, expected, "")


_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# The bulk command lines whose outputs a change to the sieve must keep byte
# for byte: (argv, SHA-256 of stdout, SHA-256 of stderr, exit code).  The
# 10^8 count rows are the paper's table C_k(10^8) for k = 2, 3, 4, 5, inf.
# A change that means to alter one of these outputs updates its line here.
GOLDEN_DIGESTS = [
    (("list", "--set", "carmichael", "--limit", "1e8", "--allow-large"),
     "18f52c6a5a9522c4c72c268c8b36cdbada78d7b8de33eddcd5efc32fd306eb42", _EMPTY, 0),
    (("alpha", "--k", "1", "--limit", "5e7", "--allow-large"),
     "bbeda2feceb2c164bf4b52c8e578114f5bf3b43282d5677c22dfa08814c5bea6", _EMPTY, 0),
    (("alpha", "--k", "2", "--limit", "5e7", "--allow-large"),
     "d13a6ec23afb7861363a2505a618779eba9d7b380874bbdd722c28d0d1e5ccf9", _EMPTY, 0),
    (("alpha", "--k", "3", "--limit", "5e7", "--allow-large"),
     "c71e3f03286964520d02a997307c28c43da54f59cd4b963aa84a70731e48ea19", _EMPTY, 0),
    (("alpha", "--k", "4", "--limit", "5e7", "--allow-large"),
     "d7b13662778372a15d07ab4d17cb9fde2b022b21813e06f99b3804095a73d48a", _EMPTY, 0),
    (("count", "--limit", "1e7"),
     "5cf1e5ac0a2aeeb5bb6a093dd5ac63ec99c1eb08942af64599db014dd1019843", _EMPTY, 0),
    (("count", "--limit", "1e8", "--allow-large"),
     "647a5a69fb89d042cb6ca0098e5242371b64da0d14edd1304940804f0d6c636e", _EMPTY, 0),
    (("count", "--limit", "1e8", "--allow-large", "--format", "csv"),
     "c5580bf8d3930cb47e8f5d33a8131f9dcc18744babe771a2c466d698ce0ccb52", _EMPTY, 0),
    (("count", "--limit", "1e8", "--allow-large", "--format", "json"),
     "647a5a69fb89d042cb6ca0098e5242371b64da0d14edd1304940804f0d6c636e", _EMPTY, 0),
    (("count", "--limit", "1e8", "--allow-large", "--workers", "2"),
     "647a5a69fb89d042cb6ca0098e5242371b64da0d14edd1304940804f0d6c636e", _EMPTY, 0),
    (("list", "--set", "lk-composites:3", "--limit", "1e7"),
     "072b4aaffff86b6bc6677ca0a11e78d25e96b242a283a81192d4cc63c2706a24", _EMPTY, 0),
    (("list", "--set", "l2-composites", "--limit", "1e7", "--format", "bfile"),
     "af13a0536dacaa886d64cb5586553ff6eaf3126429ddfc4626fded907d777c0f", _EMPTY, 0),
]


@pytest.mark.slow
class TestGoldenDigests:
    @pytest.mark.parametrize("argv, out_sha, err_sha, rc", GOLDEN_DIGESTS,
                             ids=[" ".join(argv) for argv, *_ in GOLDEN_DIGESTS])
    def test_digest(self, capsys, argv, out_sha, err_sha, rc):
        got_rc, out, err = run_cli(capsys, *argv)
        digest = [hashlib.sha256(s.encode()).hexdigest() for s in (out, err)]
        assert (got_rc, *digest) == (rc, out_sha, err_sha)


class TestEmitBfile:
    def test_a173703_prefix(self):
        text = emit_bfile([561, 1105, 1729, 2465, 6601])
        assert text == "1 561\n2 1105\n3 1729\n4 2465\n5 6601\n"

    def test_a207080_prefix(self):
        text = emit_bfile([561, 2821, 838201], offset=1)
        assert text == "1 561\n2 2821\n3 838201\n"

    def test_empty(self):
        assert emit_bfile([]) == ""

    def test_offset(self):
        assert emit_bfile([5, 7], offset=10) == "10 5\n11 7\n"

    def test_requires_ascending(self):
        with pytest.raises(ValueError):
            emit_bfile([5, 5])
        with pytest.raises(ValueError):
            emit_bfile([7, 5])


class TestReportConsistency:
    def test_fields_mutually_consistent(self):
        from klehmer.arith import euler_phi, radical, factorize, carmichael_lambda

        for n in (2, 9, 15, 91, 561, 1105, 8481, 41041):
            rep = classification_report(n)
            f = dict(rep.factorization)
            import math as _math

            assert _math.prod(p**e for p, e in f.items()) == n
            assert rep.phi == euler_phi(factorize(n))
            assert rep.lam == carmichael_lambda(factorize(n))
            assert rep.rad_phi == radical(factorize(rep.phi))
