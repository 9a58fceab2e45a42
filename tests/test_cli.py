import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcartan import cli, gram
from gcartan.qlaurent import LaurentPoly, quantum_int


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # the parser's refusal of a usage error
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _term_loop_latex(p):
    """The term-by-term LaTeX writer that cli.poly_latex replaced by a
    rewrite of str(p), kept as the reference its output must match."""
    if p.is_zero:
        return "0"
    n = len(p)
    if p == LaurentPoly.const(1):
        return "1"
    if n >= 2 and p.max_exp % (n - 1) == 0:
        s = p.max_exp // (n - 1)
        if s >= 1 and p == quantum_int(n, s):
            return f"[{n}]" if s == 1 else f"[{n}]_{{{s}}}"
    bits = []
    for e, c in sorted(p.terms.items(), reverse=True):
        coeff = "" if abs(c) == 1 and e != 0 else str(abs(c))
        if e == 0:
            body = str(abs(c))
        elif e == 1:
            body = f"{coeff}v"
        else:
            body = f"{coeff}v^{{{e}}}"
        bits.append(("+ " if c > 0 else "- ") + body if bits else ("-" + body if c < 0 else body))
    return " ".join(bits)


_BRACKETS = [quantum_int(n, s) for n in range(1, 9) for s in range(1, 5)]
_coefficients = st.one_of(
    st.sampled_from([1, -1]),
    st.integers(-30, 30),
    st.integers(2**64, 2**70),
    st.integers(-(2**70), -(2**64)),
)
_polys = st.dictionaries(st.integers(-12, 12), _coefficients, max_size=5).map(LaurentPoly)


class TestPolyLatex:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("s", range(1, 5))
    def test_brackets(self, n, s):
        for p in (quantum_int(n, s), -quantum_int(n, s)):
            assert cli.poly_latex(p) == _term_loop_latex(p)

    @settings(max_examples=400, deadline=None)
    @given(_polys, st.sampled_from([LaurentPoly()] + _BRACKETS))
    def test_matches_the_term_loop(self, p, bracket):
        # a polynomial, and a bracket plus or times it: brackets that must be
        # recognised, and near misses that must not
        for q in (p, bracket + p, bracket * p):
            assert cli.poly_latex(q) == _term_loop_latex(q)

    def test_examples(self):
        p = LaurentPoly({-3: 1, 0: -1, 1: 2, 12: -(2**65)})
        assert cli.poly_latex(p) == f"-{2**65}v^{{12}} + 2v - 1 + v^{{-3}}"
        assert cli.poly_latex(quantum_int(3, 2)) == "[3]_{2}"


class TestGramCommand:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "gram", "--ell", "2", "--d", "2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["d"] == 2 and obj["diagram"] == "ell=2"
        # entries are rows, the shape `snf --input` reads
        entries = [[LaurentPoly.from_json(e) for e in row] for row in obj["entries"]]
        assert entries[0][0] == LaurentPoly({2: 1, 0: 1, -2: 1})
        assert entries[0][1] == quantum_int(2) ** 2

    def test_trivial_weight(self, capsys):
        code, out, _ = run(capsys, "gram", "--diagram", "A:1", "--d", "0")
        assert code == 0
        obj = json.loads(out)
        assert obj["entries"] == [[{"terms": {"0": "1"}}]]

    def test_blocks_mode(self, capsys):
        code, out, _ = run(capsys, "gram", "--blocks", "4", "--ell", "2")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["blocks"]) == 1
        assert obj["blocks"][0]["label"]["weight"] == 2

    def test_csv_and_latex(self, capsys):
        code, out, _ = run(capsys, "gram", "--ell", "2", "--d", "1", "--format", "csv")
        assert code == 0 and "1*v^1 + 1*v^-1" in out
        code, out, _ = run(capsys, "gram", "--ell", "2", "--d", "1", "--format", "latex")
        assert code == 0 and "[2]" in out and "pmatrix" in out

    def test_csv_of_degree_zero(self, capsys):
        # the one index at d = 0 is the empty colored partition
        code, out, _ = run(capsys, "gram", "--ell", "2", "--d", "0", "--format", "csv")
        assert (code, out) == (0, "index,()\n(),1*v^0\n")

    def test_csv_of_a_block_sum_writes_zero_cells(self, capsys):
        # rank 7 at ell=2: blocks of 2 and 3 rows, and 0 between them
        code, out, _ = run(capsys, "gram", "--ell", "2", "--blocks", "7", "--format", "csv")
        rows = [line.split(",") for line in out.splitlines()]
        assert code == 0 and len(rows) == 6 and all(len(row) == 6 for row in rows)
        assert [row[3:] for row in rows[1:3]] == [["0", "0", "0"]] * 2
        assert [row[1:3] for row in rows[3:]] == [["0", "0"]] * 3

    def test_size_guard(self, capsys):
        code, _, err = run(capsys, "gram", "--ell", "5", "--d", "3", "--limit", "10")
        assert code == 2 and "--force" in err
        # the whole block sum is guarded: rank 8 at ell=2 has blocks of
        # weights 4 and 1, 5 + 1 rows in all, each within a limit of 5
        args = ("gram", "--blocks", "8", "--ell", "2")
        for limit in ("3", "5"):
            code, out, err = run(capsys, *args, "--limit", limit)
            assert code == 2 and f"6 x 6 (> {limit})" in err and "--force" in err and not out
            code, out, _ = run(capsys, *args, "--limit", limit, "--force")
            assert code == 0 and len(json.loads(out)["blocks"]) == 2
        code, _, _ = run(capsys, *args, "--limit", "6")
        assert code == 0

    def test_size_guard_at_the_class_regular_count(self, capsys):
        # rank 20 at ell=2 has |CRP_2(20)| = 64 rows over all its blocks
        args = ("gram", "--ell", "2", "--blocks", "20")
        code, out, err = run(capsys, *args, "--limit", "63")
        assert (code, out) == (2, "") and "matrix would be 64 x 64 (> 63)" in err
        code, out, _ = run(capsys, *args, "--limit", "64")
        assert code == 0 and sum(len(b["gram"]["index"]) for b in json.loads(out)["blocks"]) == 64

    @pytest.mark.parametrize("ring", ["qlaurent", "zlaurent"])
    def test_output_is_snf_input(self, capsys, tmp_path, ring):
        # the matrix JSON gram writes is the one snf --input reads
        from gcartan.gram import cartan_graded
        from gcartan.snf import snf_laurent_field

        code, out, _ = run(capsys, "gram", "--ell", "3", "--d", "2")
        assert code == 0
        f = tmp_path / "g.json"
        f.write_text(out)
        code, out, err = run(capsys, "snf", "--input", str(f), "--ring", ring)
        assert (code, err) == (0, "")
        obj = json.loads(out)
        want = snf_laurent_field(cartan_graded(3, 2).entries).to_json()["elements"]
        assert obj["status"] == "VERIFIED" and obj["invariants"] == want

    def test_negative_weight_is_usage(self, capsys):
        # refused before the size guard counts the matrix
        code, out, err = run(capsys, "gram", "--ell", "3", "--d", "-1")
        assert (code, out, err) == (2, "", "error: d must be nonnegative\n")

    def test_a_repeat_gives_the_same_output(self, capsys):
        args = ("gram", "--ell", "3", "--d", "2")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0 and out1 == out2


class TestNoState:
    # gcart reads its arguments and, for snf, its --input file; it writes
    # stdout and stderr and nothing else
    def test_a_successful_run_writes_nothing_to_stderr(self, capsys):
        code, out, err = run(capsys, "gram", "--ell", "3", "--d", "2")
        assert code == 0 and out and err == ""

    def test_runs_leave_no_files(self, tmp_path):
        home, work = tmp_path / "home", tmp_path / "work"
        home.mkdir()
        work.mkdir()
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, HOME=str(home), XDG_CACHE_HOME=str(home),
                   PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
        for argv in (
            ["gram", "--ell", "3", "--d", "2"],
            ["det", "--ell", "3", "--d", "2"],
            ["table", "--ell", "3", "--dmax", "3"],
            ["twisted", "--diagram", "tA2:3", "--d", "2"],
        ):
            proc = subprocess.run([sys.executable, "-m", "gcartan.cli", *argv], cwd=work,
                                  env=env, capture_output=True, text=True, timeout=60)
            assert (proc.returncode, bool(proc.stdout)) == (0, True), proc.stderr
        assert list(home.iterdir()) == list(work.iterdir()) == []


class TestExitCodes:
    @pytest.mark.parametrize(
        "error",
        [AssertionError, ArithmeticError, ZeroDivisionError, TypeError, KeyError, RecursionError],
    )
    def test_internal_error_exits_3(self, capsys, monkeypatch, error):
        def broken(args):
            raise error("inexact division")

        monkeypatch.setattr(cli, "cmd_table", broken)
        code, out, err = run(capsys, "table", "--ell", "2")
        assert code == 3 and out == ""
        assert "internal error" in err and "inexact division" in err

    def test_exhausted_recursion_exits_3(self):
        # under a recursion limit of 45 the walk of Par(40) recurses past it:
        # an internal error, not the verification-failure exit of a
        # traceback.  The same run at d = 5 passes under the same limit, so
        # the partition walk is the recursion
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        procs = {}
        for d in (40, 5):
            code = (
                "import sys\n"
                "from gcartan import cli\n"
                "sys.setrecursionlimit(45)\n"
                "raise SystemExit(cli.main(['verify', 'tsaigo', '--p', '2', '--r', '1',"
                f" '--d', '{d}', '--u', '1']))\n"
            )
            procs[d] = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
            )
        deep, shallow = procs[40], procs[5]
        assert (deep.returncode, deep.stdout) == (3, ""), deep.stderr
        assert deep.stderr.startswith("internal error: RecursionError: ")
        assert deep.stderr.count("\n") == 1
        assert shallow.returncode == 0, shallow.stderr
        assert json.loads(shallow.stdout)["ok"] is True

    def test_bunkaito_at_a_large_r_passes(self, capsys):
        # only the powers p^h <= a are parts of Psi^{p,r}_a: 2^2000 once
        # recursed once per power and exited 3
        code, out, err = run(capsys, "verify", "bunkaito", "--p", "2", "--r", "2000", "--d", "3")
        assert (code, err) == (0, "")
        assert json.loads(out)["ok"] is True

    def test_value_error_is_still_usage(self, capsys, monkeypatch):
        def bad_input(args):
            raise ValueError("d must be nonnegative")

        monkeypatch.setattr(cli, "cmd_table", bad_input)
        code, _, err = run(capsys, "table", "--ell", "2")
        assert code == 2 and "d must be nonnegative" in err


class TestDetCommand:
    def test_value_and_check(self, capsys):
        code, out, _ = run(capsys, "det", "--ell", "2", "--d", "2", "--check")
        assert code == 0
        obj = json.loads(out)
        assert LaurentPoly.from_json(obj["value"]) == quantum_int(2) ** 2 * quantum_int(2, 2)
        assert obj["check"] == {"gram_det_equals_formula": True}

    def test_check_mismatch(self, capsys, monkeypatch):
        # a Gram determinant that differs from the closed formula exits 1
        # with both in the payload and the pair on stderr
        monkeypatch.setattr(cli, "gram_det", lambda dg, d: LaurentPoly.const(3))
        code, out, err = run(capsys, "det", "--ell", "2", "--d", "2", "--check")
        assert code == 1
        check = json.loads(out)["check"]
        assert check["gram_det_equals_formula"] is False
        assert LaurentPoly.from_json(check["gram_det"]) == LaurentPoly.const(3)
        formula = quantum_int(2) ** 2 * quantum_int(2, 2)
        assert f"determinant mismatch:\n  formula: {formula}\n  gram:    3\n" in err

    @pytest.mark.parametrize("fmt", ["csv", "latex"])
    def test_check_mismatch_exits_1_in_every_format(self, capsys, fmt, monkeypatch):
        # the failure prints the text the format renders, not a usage error
        argv = ("det", "--ell", "2", "--d", "2", "--format", fmt)
        code, want, _ = run(capsys, *argv)
        assert code == 0 and want
        monkeypatch.setattr(cli, "gram_det", lambda dg, d: LaurentPoly.const(1))
        code, out, err = run(capsys, *argv, "--check")
        assert (code, out) == (1, want) and err.startswith("determinant mismatch:\n")

    def test_check_is_refused_before_the_formula(self, capsys, monkeypatch):
        # the Gram matrix at ell=4, d=8 has 810 rows; the closed formula there
        # takes seconds, and a refused --check must not compute it first
        monkeypatch.setattr(cli.qc, "shapovalov_det_formula", TestOptionPolicy._never)
        argv = ("det", "--ell", "4", "--d", "8", "--check", "--limit", "10")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "810 x 810 (> 10)" in err and "--force" in err

    def test_x_is_refused_without_check(self):
        # the closed formula takes the determinant of the 199-row [X]; in a
        # subprocess with a timeout, so that a formula run before the guard
        # fails here rather than slowing the suite
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
        argv = ["det", "--ell", "200", "--d", "1", "--limit", "10"]
        proc = subprocess.run(
            [sys.executable, "-m", "gcartan.cli", *argv],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "matrix would be 199 x 199 (> 10)" in proc.stderr

    def test_negative_weight_is_usage(self, capsys):
        # the empty product over s <= d would claim determinant 1
        code, out, err = run(capsys, "det", "--ell", "3", "--d", "-1")
        assert (code, out, err) == (2, "", "error: d must be >= 0\n")

    def test_unparsable_diagram_is_usage(self, capsys):
        code, out, err = run(capsys, "det", "--diagram", "Q:3", "--d", "2")
        assert code == 2 and not out and "unrecognized diagram label 'Q:3'" in err

    def test_e8(self, capsys):
        from gcartan.qlaurent import cyclotomic

        code, out, _ = run(capsys, "det", "--diagram", "E:8", "--d", "1")
        assert code == 0
        obj = json.loads(out)
        assert LaurentPoly.from_json(obj["value"]) == LaurentPoly({-8: 1}) * cyclotomic(60)

    def test_d_zero(self, capsys):
        code, out, _ = run(capsys, "det", "--ell", "3", "--d", "0")
        assert code == 0
        assert LaurentPoly.from_json(json.loads(out)["value"]) == LaurentPoly.const(1)

    def test_latex_brackets(self, capsys):
        code, out, _ = run(capsys, "det", "--ell", "2", "--d", "2", "--format", "latex")
        assert code == 0 and "([2])^{2}" in out and "[2]_{2}" in out


class TestVerifyCommand:
    def test_pass_cases(self, capsys):
        cases = [
            ("verify", "conjcheck", "--p", "2", "--r", "2", "--dmax", "4"),
            ("verify", "tsaigo", "--p", "3", "--r", "2", "--d", "6", "--u", "1"),
            ("verify", "saigo2", "--ell", "4", "--n", "6"),
            ("verify", "bhmulti", "--ell", "6", "--n", "5"),
            ("verify", "conjequiv", "--p", "2", "--r", "1", "--n", "5"),
            ("verify", "bunkaito", "--p", "2", "--r", "1", "--d", "5"),
            ("verify", "schur-orth", "--nmax", "4"),
            ("verify", "nformula", "--pmax", "4", "--dmax", "6"),
            ("verify", "folding", "--diagram", "tD4", "--tmax", "6"),
        ]
        for argv in cases:
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            assert json.loads(out)["ok"] is True

    def test_schur_orth_output(self, capsys):
        for nmax in range(9):
            code, out, err = run(capsys, "verify", "schur-orth", "--nmax", str(nmax))
            assert code == 0
            assert out == (
                '{\n  "identity": "schur-orth",\n  "ok": true,\n'
                f'  "params": {{\n    "nmax": {nmax}\n  }}\n}}\n'
            )
            assert err == ""

    def test_unknown_identity(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "nope"])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "argument identity: invalid choice: 'nope'" in err

    def test_missing_params(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "conjcheck", "--p", "2"])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "required: --r, --dmax" in err

    def test_nformula_disagreement_is_a_verification_failure(self, capsys, monkeypatch):
        # the command checks that the two closed forms of N agree, so a
        # disagreement exits 1 with its payload, not 3 as an internal error
        real = cli.qc._exponents_multipartition

        def off_by_one(colors, d):
            out = list(real(colors, d))
            out[-1] += d == 3
            return tuple(out)

        monkeypatch.setattr(cli.qc, "_exponents_multipartition", off_by_one)
        code, out, _ = run(capsys, "verify", "nformula", "--pmax", "4", "--dmax", "6")
        assert code == 1
        obj = json.loads(out)
        assert obj["ok"] is False and obj["params"] == {"pmax": 4, "dmax": 6}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("conjcheck", "--p", "4", "--r", "1", "--dmax", "4"), "p must be prime, got 4"),
            (("conjcheck", "--p", "6", "--r", "1", "--dmax", "4"), "p must be prime, got 6"),
            (("tsaigo", "--p", "2", "--r", "0", "--d", "5", "--u", "1"), "r must be >= 1"),
            (("tsaigo", "--p", "2", "--r", "-1", "--d", "5", "--u", "1"), "r must be >= 1"),
        ],
    )
    def test_out_of_range_p_r_is_usage(self, capsys, argv, message):
        # I^v_{p,r} is defined for prime p and r >= 1 only
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and not out and message in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("conjcheck", "--p", "2", "--r", "1", "--dmax", "-1"), "dmax must be >= 0"),
            (("schur-orth", "--nmax", "-1"), "nmax must be >= 0"),
            (("nformula", "--pmax", "1", "--dmax", "4"), "pmax >= 2"),
            (("nformula", "--pmax", "4", "--dmax", "-1"), "dmax >= 0"),
            (("folding", "--diagram", "tD4", "--tmax", "0"), "tmax must be >= 1"),
        ],
        ids=["conjcheck-dmax", "schur-orth-nmax", "nformula-pmax", "nformula-dmax", "folding-tmax"],
    )
    def test_empty_range_is_usage(self, capsys, argv, message):
        # a check over an empty range checks nothing, so it may not report ok
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and not out and message in err

    def test_failure_exit_code(self, capsys, monkeypatch):
        # plumbing test: a failing verifier must yield exit code 1
        monkeypatch.setattr(cli.inv, "verify_saigo2", lambda ell, n: False)
        code, out, _ = run(capsys, "verify", "saigo2", "--ell", "2", "--n", "2")
        assert code == 1
        assert json.loads(out)["ok"] is False


    @pytest.mark.parametrize("unit", [-1, LaurentPoly({2: 1})], ids=["minus-one", "v-squared"])
    def test_folding_fails_on_gamma_off_by_a_unit(self, capsys, monkeypatch, unit):
        # det Y^(t) is compared with gamma_{X,t} exactly, not up to a unit
        from gcartan.qcartan import TwistedDiagram

        gamma = TwistedDiagram.gamma
        monkeypatch.setattr(TwistedDiagram, "gamma", lambda td, t: gamma(td, t) * unit)
        code, out, _ = run(capsys, "verify", "folding", "--diagram", "tD4", "--tmax", "2")
        assert code == 1 and json.loads(out)["ok"] is False

    def test_folding_fails_on_a_wrong_count(self, capsys, monkeypatch):
        # f_{X,t} is compared with |I(t)|, the nodes whose weight divides t
        from gcartan.qcartan import TwistedDiagram

        f = TwistedDiagram.f
        monkeypatch.setattr(TwistedDiagram, "f", lambda td, t: f(td, t) + 1)
        code, out, _ = run(capsys, "verify", "folding", "--diagram", "tA2:3", "--tmax", "2")
        assert code == 1 and json.loads(out)["ok"] is False


class TestIrredCommand:
    def test_reducible_case(self, capsys):
        code, out, _ = run(capsys, "irred", "--diagram", "A:4", "--ell", "10")
        assert code == 0
        obj = json.loads(out)
        assert obj["irreducible"] is False
        assert obj["modes"] == {"closed_form": False, "exact": False}

    def test_irreducible_case(self, capsys):
        code, out, _ = run(capsys, "irred", "--ell", "7", "--diagram", "E:8")
        assert code == 0 and json.loads(out)["irreducible"] is True

    def test_each_mode_against_a_disagreeing_closed_form(self, capsys, monkeypatch):
        # the exact test finds A_4 reducible at ell = 10; the patched closed
        # form says irreducible.  exact reports the exact answer alone, and
        # only both cross-checks
        real = cli.qc.irreducible_at
        calls = []

        def patched(dg, ell, mode):
            calls.append(mode)
            return not real(dg, ell, mode) if mode == "closed_form" else real(dg, ell, mode)

        monkeypatch.setattr(cli.qc, "irreducible_at", patched)
        base = ("irred", "--diagram", "A:4", "--ell", "10")
        expected = {
            "closed_form": (0, True, ["closed_form"]),
            "exact": (0, False, ["exact"]),
            "both": (1, True, ["closed_form", "exact"]),
        }
        for mode, (want_code, want, want_calls) in expected.items():
            calls.clear()
            code, out, _ = run(capsys, *base, "--mode", mode)
            obj = json.loads(out)
            assert (code, obj["irreducible"], obj["mode"], calls) == (want_code, want, mode, want_calls)
            if mode == "both":
                assert obj["modes"] == {"closed_form": True, "exact": False}
            else:
                assert "modes" not in obj
        code, out, _ = run(capsys, *base, "--mode", "exact", "--format", "csv")
        assert (code, out) == (0, "A:4,10,False\n")


    def test_disagreement_exits_1_in_csv(self, capsys, monkeypatch):
        real = cli.qc.irreducible_at
        monkeypatch.setattr(
            cli.qc,
            "irreducible_at",
            lambda dg, ell, mode: real(dg, ell, mode) ^ (mode == "closed_form"),
        )
        code, out, _ = run(capsys, "irred", "--diagram", "A:4", "--ell", "10", "--format", "csv")
        assert (code, out) == (1, "A:4,10,True\n")


class TestTwistedCommand:
    def test_banner_and_value(self, capsys):
        code, out, _ = run(capsys, "twisted", "--diagram", "tA2e:1", "--d", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "CONJECTURAL"
        assert LaurentPoly.from_json(obj["value"]) == quantum_int(3)
        assert obj["epsilon"] == 1

    def test_every_run_writes_the_note(self, capsys):
        args = ("twisted", "--diagram", "tA2:3", "--d", "2", "--format", "csv")
        note = "# CONJECTURAL: evaluated from an unproven closed formula\n"
        code1, out1, err1 = run(capsys, *args)
        code2, out2, err2 = run(capsys, *args)
        assert code1 == code2 == 0 and out1 == out2
        assert err1 == err2 == note

    def test_negative_weight_is_usage(self, capsys):
        code, out, err = run(capsys, "twisted", "--diagram", "tE6", "--d", "-1")
        assert (code, out, err) == (2, "", "error: d must be >= 0\n")

    def test_requires_twisted_label(self, capsys):
        code, _, err = run(capsys, "twisted", "--diagram", "A:2", "--d", "1")
        assert code == 2


class TestSnfCommand:
    def test_zint(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"rows": [[2, 0], [0, 6]]}))
        code, out, _ = run(capsys, "snf", "--input", str(f), "--ring", "zint")
        assert code == 0
        obj = json.loads(out)
        assert obj["invariants"] == ["2", "6"] and obj["status"] == "VERIFIED"
        assert obj["checks"]["product_equals_abs_det"] is True

    def test_zint_singular(self, capsys, tmp_path):
        # a singular matrix takes the dense loop, the only path that gives zeros
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"rows": [[2, 4], [1, 2]]}))
        code, out, _ = run(capsys, "snf", "--input", str(f), "--ring", "zint")
        assert code == 0
        obj = json.loads(out)
        assert obj["invariants"] == ["1", "0"] and obj["status"] == "VERIFIED"
        assert obj["checks"] == {"product_equals_abs_det": True, "divisibility_chain": True}

    def test_qlaurent_singular(self, capsys, tmp_path):
        # det [[v, 1], [v^2, v]] = 0: the product check asks for a zero product
        v = LaurentPoly({1: 1})
        f = tmp_path / "m.json"
        rows = [[v, LaurentPoly.const(1)], [v * v, v]]
        f.write_text(json.dumps({"entries": [[e.to_json() for e in row] for row in rows]}))
        code, out, _ = run(capsys, "snf", "--input", str(f), "--ring", "qlaurent")
        assert code == 0
        obj = json.loads(out)
        invariants = [LaurentPoly.from_json(e) for e in obj["invariants"]]
        assert invariants == [LaurentPoly.const(1), LaurentPoly.const(0)]
        assert obj["status"] == "VERIFIED"
        assert obj["checks"] == {"product_matches_det_up_to_unit": True}

    @pytest.mark.parametrize(
        "rows, want", [([[3, 4], [4, 8]], ["1", "8"]), ([[2, 4], [1, 2]], ["1", "0"])],
        ids=["nonsingular", "singular"],
    )
    def test_zint_runs_bareiss_once(self, capsys, tmp_path, monkeypatch, rows, want):
        # one |det| serves the route and the product check: a second
        # Bareiss on the full matrix took 5 s at 315 rows
        from gcartan import linalg, snf

        calls = []

        def counted(matrix):
            calls.append(len(matrix))
            return linalg.int_det(matrix)

        monkeypatch.setattr(cli, "int_det", counted)
        monkeypatch.setattr(snf, "int_det", counted)
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"rows": rows}))
        code, out, _ = run(capsys, "snf", "--input", str(f), "--ring", "zint")
        assert code == 0
        obj = json.loads(out)
        assert obj["invariants"] == want and obj["status"] == "VERIFIED"
        assert obj["checks"]["product_equals_abs_det"] is True
        assert calls == [2]

    def test_qlaurent(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        entries = [[quantum_int(2).to_json(), LaurentPoly().to_json()],
                   [LaurentPoly().to_json(), (quantum_int(2) * quantum_int(3)).to_json()]]
        f.write_text(json.dumps({"entries": entries}))
        code, out, _ = run(capsys, "snf", "--input", str(f), "--ring", "qlaurent")
        assert code == 0
        assert json.loads(out)["status"] == "VERIFIED"

    def test_zlaurent(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        entries = [[quantum_int(4).to_json()]]
        f.write_text(json.dumps({"entries": entries}))
        code, out, _ = run(capsys, "snf", "--input", str(f), "--ring", "zlaurent")
        assert code == 0
        assert json.loads(out)["status"] == "VERIFIED"

    def test_zlaurent_inconclusive_says_why(self, capsys, tmp_path):
        from gcartan.gram import cartan_graded

        f = tmp_path / "m.json"
        entries = [[e.to_json() for e in row] for row in cartan_graded(3, 3).entries]
        f.write_text(json.dumps({"entries": entries}))
        code, out, _ = run(capsys, "snf", "--input", str(f), "--ring", "zlaurent")
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "INCONCLUSIVE" and obj["checks"]["stopped"] == "stalled"

    def test_zint_checks_the_product_above_thirty_rows(self, capsys, tmp_path):
        # 36 rows: the product-versus-determinant check used to stop at 30
        # rows and still report VERIFIED
        from gcartan.gram import cartan_graded

        f = tmp_path / "m.json"
        f.write_text(json.dumps({"rows": cartan_graded(3, 5).at_one()}))
        code, out, _ = run(capsys, "snf", "--input", str(f), "--ring", "zint")
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "VERIFIED" and len(obj["invariants"]) == 36
        assert obj["checks"]["product_equals_abs_det"] is True

    def test_qlaurent_checks_the_product_above_twenty_rows(self, capsys, tmp_path):
        # 21 rows: the check used to stop at 20 rows and still report VERIFIED
        from gcartan.gram import permanent_matrix
        from gcartan.qcartan import quantized_cartan, type_a

        f = tmp_path / "m.json"
        p = permanent_matrix(quantized_cartan(type_a(4)), 1, 5)
        f.write_text(json.dumps({"entries": [[e.to_json() for e in row] for row in p]}))
        code, out, _ = run(capsys, "snf", "--input", str(f), "--ring", "qlaurent")
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "VERIFIED" and len(obj["invariants"]) == 21
        assert obj["checks"]["product_matches_det_up_to_unit"] is True

    @pytest.mark.parametrize(
        "ring, key, rows, wrong_det, check",
        [
            # 2v+2 = 2[2]: the field invariants are 1 and v+1, whose product
            # is no unit times 7
            ("qlaurent", "entries", [[LaurentPoly({1: 2, 0: 2}), LaurentPoly()],
                                     [LaurentPoly(), LaurentPoly.const(3)]],
             LaurentPoly.const(7), "product_matches_det_up_to_unit"),
            # a |det| of 0 sends the matrix to the dense engine, which finds
            # the invariants 2 and 6, whose product is not 0
            ("zint", "rows", [[2, 0], [0, 6]], 0, "product_equals_abs_det"),
        ],
        ids=["qlaurent", "zint"],
    )
    def test_a_failed_check_is_failed(self, capsys, tmp_path, monkeypatch, ring, key, rows,
                                      wrong_det, check):
        monkeypatch.setattr(cli, "laurent_det" if ring == "qlaurent" else "int_det",
                            lambda m: wrong_det)
        f = tmp_path / "m.json"
        if ring == "qlaurent":
            rows = [[e.to_json() for e in row] for row in rows]
        f.write_text(json.dumps({key: rows}))
        code, out, _ = run(capsys, "snf", "--input", str(f), "--ring", ring)
        obj = json.loads(out)
        assert (code, obj["status"], obj["checks"][check]) == (1, "FAILED", False)

    def test_zint_on_the_empty_matrix(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"rows": []}))
        code, out, err = run(capsys, "snf", "--input", str(f), "--ring", "zint")
        obj = json.loads(out)
        assert (code, err, obj["invariants"], obj["status"]) == (0, "", [], "VERIFIED")
        assert obj["checks"] == {"product_equals_abs_det": True, "divisibility_chain": True}

    @pytest.mark.parametrize(
        "text, ring",
        [
            ('{"rows": [[2.7, 0], [0, 4.9]]}', "zint"),
            ('{"rows": [[true, 0], [0, 2]]}', "zint"),
            ('{"entries": [[{"terms": {"0": 2.5}}]]}', "qlaurent"),
            ('{"entries": [[{"0": "1"}]]}', "zlaurent"),
            ('{"rows": [[1, 0], [0]]}', "zint"),
            (None, "zint"),
            ('{"entries": [[{"terms": {"1": "2", "01": "3"}}]]}', "zlaurent"),
            ('{"entries": [[{"terms": {"1": "2", "1": "3"}}]]}', "zlaurent"),
            ('{"rows": [[1]], "rows": [[2]]}', "zint"),
        ],
        ids=[
            "float", "bool", "float-coefficient", "no-terms", "ragged", "missing-file",
            "repeated-exponent", "repeated-key-terms", "repeated-key-rows",
        ],
    )
    def test_malformed_input_is_usage_error(self, capsys, tmp_path, text, ring):
        f = tmp_path / "m.json"
        if text is not None:
            f.write_text(text)
        code, out, err = run(capsys, "snf", "--input", str(f), "--ring", ring)
        assert code == 2 and out == "" and err.startswith("error: ")


class TestInvariantsCommand:
    def test_prime_power(self, capsys):
        code, out, _ = run(
            capsys,
            "invariants", "--p", "2", "--r", "1", "--partition", "1,1",
        )
        assert code == 0
        rows = {r["provenance"]: r for r in json.loads(out)["invariants"]}
        assert rows["Hill"]["value"] == "8"
        assert LaurentPoly.from_json(rows["GradedHill"]["value"]) == quantum_int(2) * quantum_int(4)
        assert rows["KOR"]["value"] == "2"

    def test_composite(self, capsys):
        code, out, _ = run(capsys, "invariants", "--ell", "6", "--partition", "1,1,1")
        assert code == 0
        rows = {r["provenance"]: r for r in json.loads(out)["invariants"]}
        assert set(rows) == {"KOR", "Hill", "ASY"}

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "invariants", "--p", "2", "--r", "1", "--partition", "1,1", "--format", "csv",
        )
        assert code == 0
        assert out == (
            "Hill,8\n"
            "GradedHill,1*v^4 + 2*v^2 + 2*v^0 + 2*v^-2 + 1*v^-4\n"
            "KOR,2\n"
            "GradedKOR,1*v^1 + 1*v^-1\n"
            "ASY,1*v^4 + 2*v^2 + 2*v^0 + 2*v^-2 + 1*v^-4\n"
        )


class TestReportCommand:
    def test_report(self, capsys):
        code, out, _ = run(capsys, "report", "--p", "2", "--r", "1", "--d", "3")
        assert code == 0
        obj = json.loads(out)
        assert [lay["status"] for lay in obj["layers"]].count("FAILED") == 0
        assert obj["params"] == {"p": 2, "r": 1, "d": 3, "ell": 2}


    @staticmethod
    def _never(*args, **kwargs):
        raise AssertionError("the report ran")

    def test_unrendered_format_is_refused_before_the_report(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.inv, "conjecture_report", self._never)
        with pytest.raises(SystemExit) as exc:
            cli.main(["report", "--p", "5", "--r", "1", "--d", "3", "--format", "csv"])
        assert exc.value.code == 2 and "invalid choice: 'csv'" in capsys.readouterr().err

    def test_negative_weight_is_usage(self, capsys, monkeypatch):
        # refused before the size guard counts the matrix
        monkeypatch.setattr(cli.inv, "conjecture_report", self._never)
        code, out, err = run(capsys, "report", "--p", "2", "--r", "1", "--d", "-1")
        assert (code, out, err) == (2, "", "error: d must be nonnegative\n")

    def test_size_guard(self, capsys, monkeypatch):
        # the Gram matrix at p=2, r=1, d=4 has 5 rows
        argv = ("report", "--p", "2", "--r", "1", "--d", "4", "--limit", "4")
        real = cli.inv.conjecture_report
        monkeypatch.setattr(cli.inv, "conjecture_report", self._never)
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and "5 x 5 (> 4)" in err and "--force" in err
        monkeypatch.setattr(cli.inv, "conjecture_report", real)
        code, out, _ = run(capsys, *argv, "--force")
        assert code == 0 and json.loads(out)["params"]["d"] == 4


    def test_size_guard_precedes_the_primality_test(self, capsys, monkeypatch):
        # trial division of p = 10^15 + 37 took 2.4 s before the refusal
        def never(p):
            raise AssertionError("p was tested for primality")

        monkeypatch.setattr(cli.inv.pt, "is_prime", never)
        code, out, err = run(
            capsys, "report", "--p", "1000000000000037", "--r", "1", "--d", "2",
            "--limit", "10",
        )
        assert (code, out) == (2, "") and "(> 10); pass --force to proceed" in err


class TestTableCommand:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "table", "--ell", "2", "--dmax", "3")
        assert code == 0
        obj = json.loads(out)
        assert [r["dimension"] for r in obj["rows"]] == [1, 1, 2, 3]

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "table", "--ell", "3", "--dmax", "2", "--format", "latex")
        assert code == 0 and "tabular" in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--ell", "2", "--dmax", "3", "--format", "csv")
        assert code == 0
        assert out == (
            "d,dimension,determinant\n"
            "0,1,1\n"
            "1,1,([2])^1\n"
            "2,2,([2])^2 ([2]_{2})^1\n"
            "3,3,([2])^4 ([2]_{2})^1 ([2]_{3})^1\n"
        )

    def test_negative_dmax_is_usage(self, capsys):
        # an empty range of weights would print a table of no rows
        code, out, err = run(capsys, "table", "--ell", "3", "--dmax", "-1")
        assert (code, out, err) == (2, "", "error: dmax must be >= 0\n")


class TestOptionPolicy:
    # a tiny valid invocation of each command, and of each identity of
    # verify; a new command or identity needs one here
    TINY = {
        "gram": ["--ell", "2", "--d", "1"],
        "det": ["--ell", "2", "--d", "1", "--check"],
        "verify conjcheck": ["--p", "2", "--r", "1", "--dmax", "2"],
        "verify tsaigo": ["--p", "2", "--r", "1", "--d", "2", "--u", "1"],
        "verify saigo2": ["--ell", "2", "--n", "2"],
        "verify bhmulti": ["--ell", "2", "--n", "2"],
        "verify conjequiv": ["--p", "2", "--r", "1", "--n", "2"],
        "verify bunkaito": ["--p", "2", "--r", "1", "--d", "2"],
        "verify schur-orth": ["--nmax", "1"],
        "verify nformula": ["--pmax", "2", "--dmax", "1"],
        "verify folding": ["--diagram", "tD4", "--tmax", "1"],
        "irred": ["--ell", "2"],
        "twisted": ["--diagram", "tD4", "--d", "1"],
        "snf": ["--ring", "zint", "--input"],
        "invariants": ["--ell", "2", "--partition", "1"],
        "report": ["--p", "2", "--r", "1", "--d", "1"],
        "table": ["--ell", "2", "--dmax", "1"],
    }

    # (argv, what the refusal says), each exiting 2 before any work
    REFUSED = [
        # a foreign, mixed or out-of-range option, which used to pass
        (("verify", "schur-orth", "--nmax", "2", "--p", "5"), "unrecognized arguments: --p 5"),
        # another identity's --p does not abbreviate --pmax
        (
            ("verify", "nformula", "--pmax", "2", "--dmax", "1", "--p", "5"),
            "unrecognized arguments: --p 5",
        ),
        (
            ("det", "--diagram", "A:2", "--ell", "5", "--d", "1"),
            "argument --ell: not allowed with argument --diagram",
        ),
        (
            ("gram", "--blocks", "2", "--ell", "2", "--d", "7"),
            "argument --d: not allowed with argument --blocks",
        ),
        (
            ("gram", "--blocks", "2", "--ell", "2", "--diagram", "E:6"),
            "argument --diagram: not allowed with argument --ell",
        ),
        (("gram", "--blocks", "2", "--diagram", "E:6"), "it takes no --diagram"),
        (
            ("invariants", "--p", "2", "--r", "1", "--ell", "6", "--partition", "1,1"),
            "got --p --r --ell",
        ),
        (("invariants", "--p", "2", "--ell", "6", "--partition", "1"), "got --p --ell"),
        (("table", "--ell", "3", "--dmax", "-1"), "dmax must be >= 0"),
        # p = 1 makes ell = 1, so the check used to pass on two empty sides
        (("verify", "bunkaito", "--p", "1", "--r", "1", "--d", "3"), "p must be prime"),
        # a negative d used to reach the partition enumeration's message
        (
            ("verify", "tsaigo", "--p", "2", "--r", "1", "--d", "-2", "--u", "1"),
            "d must be nonnegative",
        ),
        # ell = 0 used to divide by zero (exit 3), and ell = -2 to sum no block
        (("gram", "--ell", "0", "--blocks", "3"), "ell must be >= 2"),
        (("gram", "--ell", "-2", "--blocks", "3"), "ell must be >= 2"),
        # no command reads an abbreviated option: irred's --diagram does not
        # take det's --d, nor det's --check a --che
        (("irred", "--d", "3", "--ell", "2"), "unrecognized arguments: --d 3"),
        (("det", "--ell", "3", "--d", "2", "--che"), "unrecognized arguments: --che"),
        # refused before as well, now by the parser
        (("verify", "nope"), "argument identity: invalid choice: 'nope'"),
        (("verify", "conjcheck", "--p", "2"), "required: --r, --dmax"),
        (("det", "--diagram", "tD4", "--d", "1"), "--diagram: tD4 is not a finite"),
        (("twisted", "--diagram", "A:3", "--d", "1"), "--diagram: A:3 is not a twisted"),
        # a weight over --limit, refused without counting its u(m, d) >= d rows
        (
            ("gram", "--ell", "3", "--d", "11", "--limit", "10"),
            "error: matrix would have 11 rows or more, over --limit (> 10); pass --force",
        ),
        (("det", "--ell", "3", "--d", "11", "--check", "--limit", "10"), "have 11 rows or more"),
        (("report", "--p", "3", "--r", "1", "--d", "11", "--limit", "10"), "have 11 rows or more"),
    ]

    @classmethod
    def _commands(cls, parser=None, path=()):
        """{command path: parser} for every parser that runs a command, each
        identity of verify its own."""
        parser = parser or cli.build_parser()
        subs = [a for a in parser._actions if isinstance(a, cli.argparse._SubParsersAction)]
        if not subs:
            return {" ".join(path): parser}
        return {
            leaf: p
            for sub in subs
            for name, child in sub.choices.items()
            for leaf, p in cls._commands(child, path + (name,)).items()
        }

    @staticmethod
    def _option(parser, flag):
        found = [a for a in parser._actions if flag in a.option_strings]
        return found[0] if found else None

    def test_every_offered_format_renders(self, capsys, tmp_path):
        # the parser offers a command only the formats it renders, so every
        # choice it offers runs to exit 0
        matrix = tmp_path / "m.json"
        matrix.write_text(json.dumps({"rows": [[2]]}))
        commands = self._commands()
        assert set(commands) == set(self.TINY)
        for name, parser in commands.items():
            argv = [*name.split(), *self.TINY[name]] + ([str(matrix)] if name == "snf" else [])
            for fmt in self._option(parser, "--format").choices:
                code, out, err = run(capsys, *argv, "--format", fmt)
                assert (code, bool(out)) == (0, True), (name, fmt, err)

    def test_size_guard_only_where_a_gram_matrix_is_built(self):
        commands = self._commands()
        for flag in ("--limit", "--force"):
            takers = {name for name, parser in commands.items() if self._option(parser, flag)}
            assert takers == {"gram", "det", "report"}, flag

    def test_each_identity_declares_exactly_its_options(self):
        # verify conjcheck takes --p --r --dmax, all required, and no option
        # that only another identity reads
        commands = self._commands()
        for name, (params, _) in cli.VERIFY.items():
            actions = commands[f"verify {name}"]._actions
            flags = {a.option_strings[-1] for a in actions} - {"--help"}
            assert flags == {f"--{k}" for k in params} | {"--format"}, name
            required = {a.option_strings[-1] for a in actions if a.required}
            assert required == {f"--{k}" for k in params}, name

    @staticmethod
    def _never(*args, **kwargs):
        raise AssertionError("a refused invocation did work")

    @pytest.mark.parametrize(
        "argv, message", REFUSED, ids=[" ".join(argv) for argv, _ in REFUSED]
    )
    def test_refused_before_any_work(self, capsys, monkeypatch, argv, message):
        # work would raise AssertionError, an exit 3
        for module, fn in [
            (cli, "block_sum"), (cli, "gram_matrix"), (cli, "schur_orthonormality"),
            (cli.qc, "shapovalov_det_formula"), (cli.qc, "twisted_det_formula"),
            (cli.qc, "exponent_N"), (cli.qc, "exponent_formulas_agree"),
            (cli.pt, "u_count"), (cli.inv, "hill_invariant"), (cli.inv, "kor_invariant"),
            (cli.inv, "verify_conjcheck"),
        ]:
            monkeypatch.setattr(module, fn, self._never)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and message in err, err


class TestHugeSizeGuard:
    # the guard counts u(m, d) rows in O(d^2) steps for any m, so a huge ell
    # or r is refused at once; in a subprocess with a timeout, so that a
    # guard that loops m times fails here rather than hanging the suite
    @pytest.mark.parametrize(
        "argv, rows",
        [
            (["gram", "--ell", "100000000", "--d", "2"], 5000000049999999),
            (["report", "--p", "2", "--r", "40", "--d", "1"], 2**40 - 1),
        ],
        ids=["gram", "report"],
    )
    def test_refused_at_once(self, argv, rows):
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-m", "gcartan.cli", *argv],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert f"matrix would be {rows} x {rows} (> 2000)" in proc.stderr

    def test_block_sum_is_refused_before_any_enumeration(self):
        # the guard used to walk Par(N - ell*d) for every weight d: 43.6 s
        # at N = 60 before it refused; a rank N >= 10 over --limit is now
        # refused uncounted, as at least N rows
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-m", "gcartan.cli", "gram", "--ell", "2", "--blocks", "60",
             "--limit", "10"],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "matrix would have 60 rows or more, over --limit (> 10)" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--p", "3", "--r", "10000000", "--d", "0"],
            ["report", "--p", "1000000000000037", "--r", "1", "--d", "400"],
            ["report", "--p", "3", "--r", "1000000", "--d", "400"],
        ],
        ids=["huge-r", "huge-count", "huge-r-count"],
    )
    def test_count_of_too_many_digits(self, argv):
        # forming 3^(10^7) took 11 s, and CPython writes no int of more than
        # 4300 digits as text; counting u(2^14284, 400) rows took 21 s; in a
        # subprocess with a timeout, so that a guard that forms p^r or counts
        # the rows of its stand-in fails here rather than hanging the suite
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "gcartan.cli", *argv, "--limit", "10"],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert time.monotonic() - start < 2
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "--limit" in proc.stderr and "--force" in proc.stderr
        assert "Traceback" not in proc.stderr


    @pytest.mark.parametrize(
        "argv, rows",
        [
            (["gram", "--ell", "3", "--d", "10000"], "10000"),
            (["report", "--p", "3", "--r", "1000000", "--d", "10000"], "2^14284"),
        ],
        ids=["gram", "report-huge-r"],
    )
    def test_weight_over_the_limit_is_not_counted(self, argv, rows):
        # u(m, d) >= d for m, d >= 1, so a d over --limit is refused as it
        # stands: counting u(2, 10000) took 9.1 s, and u(0, 10000), the
        # report's count beside its stand-in for p^r - 1 nodes, 5.6 s
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "gcartan.cli", *argv, "--limit", "10"],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert time.monotonic() - start < 2
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: matrix would have {rows} rows or more, over --limit"
                               " (> 10); pass --force to proceed\n")

    def test_rank_over_the_limit_is_not_counted(self):
        # |CRP_ell(N)| >= q(N) >= N for N >= 10, q the count of partitions
        # into distinct parts: counting |CRP_2(10000)| took 2.9 s
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "gcartan.cli", "gram", "--ell", "2", "--blocks", "10000",
             "--limit", "10"],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert time.monotonic() - start < 2
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("error: matrix would have 10000 rows or more, over --limit"
                               " (> 10); pass --force to proceed\n")

    def test_a_rank_below_ten_is_counted(self, capsys):
        # |CRP_2(9)| = 8 < 9: below 10 the rank is no lower bound, so the
        # count decides
        code, out, _ = run(capsys, "gram", "--ell", "2", "--blocks", "9", "--limit", "8")
        assert code == 0 and sum(len(b["gram"]["index"]) for b in json.loads(out)["blocks"]) == 8
        code, _, err = run(capsys, "gram", "--ell", "2", "--blocks", "9", "--limit", "7")
        assert code == 2 and "matrix would be 8 x 8 (> 7)" in err


class TestXSizeGuard:
    # [X] has ell - 1 rows at every weight and rank; the guard counts them
    # beside the Gram matrix, so a command that builds [X] before its guard
    # exits 3 here
    @pytest.mark.parametrize(
        "argv, rows",
        [
            (("gram", "--ell", "3001", "--d", "0"), 3000),
            (("gram", "--ell", "3001", "--blocks", "1"), 3000),
            (("report", "--p", "1009", "--r", "1", "--d", "0"), 1008),
        ],
        ids=["gram", "blocks", "report"],
    )
    def test_refused_before_x_is_built(self, capsys, monkeypatch, argv, rows):
        monkeypatch.setattr(gram, "quantized_cartan", TestOptionPolicy._never)
        code, out, err = run(capsys, *argv, "--limit", "10")
        assert (code, out) == (2, "")
        assert err == f"error: matrix would be {rows} x {rows} (> 10); pass --force to proceed\n"

    def test_forced(self, capsys):
        argv = ("gram", "--ell", "30", "--d", "0", "--limit", "10", "--force")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(json.loads(out)["entries"]) == 1


class TestOptimisedInterpreter:
    # exactness checks raise rather than assert, so `python -O`, which strips
    # every assert, must run the same pipeline to the same output
    @pytest.mark.parametrize(
        "argv",
        [
            ["det", "--ell", "3", "--d", "3"],
            ["report", "--p", "2", "--r", "1", "--d", "3"],
        ],
        ids=["det", "report"],
    )
    def test_same_output_under_dash_o(self, argv):
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        outs = []
        for flags in ([], ["-O"]):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "gcartan.cli", *argv],
                env=env,
                capture_output=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            # wall-clock fields differ between any two runs, -O or not
            outs.append(re.sub(rb'"elapsed_ms": [0-9]+', b'"elapsed_ms": _', proc.stdout))
        assert outs[0] and outs[0] == outs[1]
