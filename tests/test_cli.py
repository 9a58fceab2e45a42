import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gcartan import cli
from gcartan.qlaurent import LaurentPoly, quantum_int


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # the parser's refusal of a usage error
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


class TestGramCommand:
    def test_json(self, capsys, cache_dir):
        code, out, _ = run(
            capsys, "gram", "--ell", "2", "--d", "2", "--format", "json", "--cache-dir", cache_dir
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["d"] == 2 and obj["diagram"] == "ell=2"
        # entries are rows, the shape `snf --input` reads
        entries = [[LaurentPoly.from_json(e) for e in row] for row in obj["entries"]]
        assert entries[0][0] == LaurentPoly({2: 1, 0: 1, -2: 1})
        assert entries[0][1] == quantum_int(2) ** 2

    def test_trivial_weight(self, capsys, cache_dir):
        code, out, _ = run(capsys, "gram", "--diagram", "A:1", "--d", "0", "--cache-dir", cache_dir)
        assert code == 0
        obj = json.loads(out)
        assert obj["entries"] == [[{"terms": {"0": "1"}}]]

    def test_blocks_mode(self, capsys, cache_dir):
        code, out, _ = run(
            capsys, "gram", "--blocks", "4", "--ell", "2", "--cache-dir", cache_dir
        )
        assert code == 0
        obj = json.loads(out)
        assert len(obj["blocks"]) == 1
        assert obj["blocks"][0]["label"]["weight"] == 2

    def test_csv_and_latex(self, capsys, cache_dir):
        code, out, _ = run(
            capsys, "gram", "--ell", "2", "--d", "1", "--format", "csv", "--cache-dir", cache_dir
        )
        assert code == 0 and "1*v^1 + 1*v^-1" in out
        code, out, _ = run(
            capsys, "gram", "--ell", "2", "--d", "1", "--format", "latex", "--cache-dir", cache_dir
        )
        assert code == 0 and "[2]" in out and "pmatrix" in out

    def test_size_guard(self, capsys, cache_dir):
        code, _, err = run(
            capsys, "gram", "--ell", "5", "--d", "3", "--limit", "10", "--cache-dir", cache_dir
        )
        assert code == 2 and "--force" in err
        # the whole block sum is guarded: rank 8 at ell=2 has blocks of
        # weights 4 and 1, 5 + 1 rows in all, each within a limit of 5
        args = ("gram", "--blocks", "8", "--ell", "2", "--cache-dir", cache_dir)
        for limit in ("3", "5"):
            code, out, err = run(capsys, *args, "--limit", limit)
            assert code == 2 and f"6 x 6 (> {limit})" in err and "--force" in err and not out
            code, out, _ = run(capsys, *args, "--limit", limit, "--force")
            assert code == 0 and len(json.loads(out)["blocks"]) == 2
        code, _, _ = run(capsys, *args, "--limit", "6")
        assert code == 0

    @pytest.mark.parametrize("ring", ["qlaurent", "zlaurent"])
    def test_output_is_snf_input(self, capsys, tmp_path, ring):
        # the matrix JSON gram writes is the one snf --input reads
        from gcartan.gram import cartan_graded
        from gcartan.snf import snf_laurent_field

        code, out, _ = run(capsys, "gram", "--ell", "3", "--d", "2", "--cache-dir", "")
        assert code == 0
        f = tmp_path / "g.json"
        f.write_text(out)
        code, out, err = run(capsys, "snf", "--input", str(f), "--ring", ring, "--cache-dir", "")
        assert (code, err) == (0, "")
        obj = json.loads(out)
        want = snf_laurent_field(cartan_graded(3, 2).entries).to_json()["elements"]
        assert obj["status"] == "VERIFIED" and obj["invariants"] == want

    def test_negative_weight_is_usage(self, capsys):
        # refused before the size guard counts the matrix
        code, out, err = run(capsys, "gram", "--ell", "3", "--d", "-1", "--cache-dir", "")
        assert (code, out, err) == (2, "", "error: d must be nonnegative\n")

    def test_cache_idempotent(self, capsys, cache_dir):
        args = ("gram", "--ell", "3", "--d", "2", "--cache-dir", cache_dir)
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0 and out1 == out2


class TestCacheCounts:
    def test_miss_then_hit(self, capsys, cache_dir):
        # each run looks up its output once: absent the first time, found
        # the second
        args = ("gram", "--ell", "3", "--d", "2", "--cache-dir", cache_dir)
        code1, out1, err1 = run(capsys, *args)
        code2, out2, err2 = run(capsys, *args)
        assert code1 == code2 == 0 and out1 == out2
        assert err1 == "# cache: 0 hit(s), 1 miss(es)\n"
        assert err2 == "# cache: 1 hit(s), 0 miss(es)\n"

    def test_key_leaves_out_the_location_but_not_the_guard(self, capsys, cache_dir, monkeypatch):
        # the cache's location never changes an output, so a trailing slash
        # or the same path from GCART_CACHE_DIR finds the first run's entry
        args = ("gram", "--ell", "3", "--d", "2")
        code1, out1, err1 = run(capsys, *args, "--cache-dir", cache_dir)
        code2, out2, err2 = run(capsys, *args, "--cache-dir", cache_dir + "/")
        monkeypatch.setenv("GCART_CACHE_DIR", cache_dir)
        code3, out3, err3 = run(capsys, *args)
        assert code1 == code2 == code3 == 0 and out1 == out2 == out3
        assert err1 == "# cache: 0 hit(s), 1 miss(es)\n"
        assert err2 == err3 == "# cache: 1 hit(s), 0 miss(es)\n"
        # --force is in the key: a forced run's entry never answers a request
        # the size guard refuses
        args = ("gram", "--ell", "5", "--d", "3", "--limit", "10")
        code, out, _ = run(capsys, *args, "--force")
        assert code == 0 and out
        code, out, err = run(capsys, *args)
        assert code == 2 and not out and "--force" in err

    def test_an_unreadable_entry_is_a_miss(self, capsys, cache_dir):
        # an entry that is not JSON is recomputed and overwritten, not a
        # traceback with the verification-failure exit code
        args = ("det", "--ell", "2", "--d", "2", "--cache-dir", cache_dir)
        code1, out1, _ = run(capsys, *args)
        (entry,) = [f for f in Path(cache_dir).glob("*/*") if not f.name.startswith(".")]
        entry.write_text("{not json")
        code2, out2, err2 = run(capsys, *args)
        assert code1 == code2 == 0 and out2 == out1
        assert err2.endswith("# cache: 0 hit(s), 1 miss(es)\n")
        assert json.loads(entry.read_text())["stdout"] == out1
        code3, out3, err3 = run(capsys, *args)
        assert code3 == 0 and out3 == out1 and err3.endswith("# cache: 1 hit(s), 0 miss(es)\n")

    def test_a_cache_that_cannot_be_written_costs_a_note(self, capsys, tmp_path):
        # --cache-dir names a regular file: the run succeeds as without a
        # cache, and says that it was not stored
        args = ("gram", "--ell", "2", "--d", "1")
        code0, out0, err0 = run(capsys, *args, "--cache-dir", "")
        blocked = tmp_path / "file"
        blocked.write_text("")
        code, out, err = run(capsys, *args, "--cache-dir", str(blocked))
        assert (code0, err0) == (0, "") and (code, out) == (0, out0)
        note, counts = err.splitlines(keepends=True)
        assert note.startswith("# cache: not stored: ") and "Not a directory" in note
        assert counts == "# cache: 0 hit(s), 1 miss(es)\n"
        assert blocked.read_text() == ""

    def test_a_failed_store_leaves_no_temp_file(self, capsys, cache_dir):
        # the entry's path is a directory: the lookup is a miss, the rename
        # fails, and the temp file is removed
        args = ("det", "--ell", "2", "--d", "2", "--cache-dir", cache_dir)
        code1, out1, _ = run(capsys, *args)
        (entry,) = Path(cache_dir).glob("*/*")
        entry.unlink()
        (entry / "inside").mkdir(parents=True)
        code2, out2, err2 = run(capsys, *args)
        assert code1 == code2 == 0 and out2 == out1
        note, counts = err2.splitlines(keepends=True)
        assert note.startswith("# cache: not stored: ")
        assert counts == "# cache: 0 hit(s), 1 miss(es)\n"
        assert sorted(entry.parent.iterdir()) == [entry]

    def test_no_line_without_a_cache(self, capsys):
        code, out, err = run(capsys, "gram", "--ell", "3", "--d", "2", "--cache-dir", "")
        assert code == 0 and out and err == ""


class TestCacheKey:
    def test_key_changes_with_source_digest(self, monkeypatch):
        # a code change must not be served output cached by older code
        cache = cli.DiskCache(None)
        monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
        before = cache.key("output", "det", "{}")
        assert cache.key("output", "det", "{}") == before
        monkeypatch.setattr(cli, "_source_digest", lambda: "1" * 64)
        assert cache.key("output", "det", "{}") != before


class TestExitCodes:
    @pytest.mark.parametrize(
        "error",
        [AssertionError, ArithmeticError, ZeroDivisionError, TypeError, KeyError, RecursionError],
    )
    def test_internal_error_exits_3(self, capsys, cache_dir, monkeypatch, error):
        def broken(args):
            raise error("inexact division")

        monkeypatch.setattr(cli, "cmd_table", broken)
        code, out, err = run(capsys, "table", "--ell", "2", "--cache-dir", cache_dir)
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
                f" '--d', '{d}', '--u', '1', '--cache-dir', '']))\n"
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
        code, out, err = run(capsys, "verify", "bunkaito", "--p", "2", "--r", "2000", "--d", "3",
                             "--cache-dir", "")
        assert (code, err) == (0, "")
        assert json.loads(out)["ok"] is True

    def test_value_error_is_still_usage(self, capsys, cache_dir, monkeypatch):
        def bad_input(args):
            raise ValueError("d must be nonnegative")

        monkeypatch.setattr(cli, "cmd_table", bad_input)
        code, _, err = run(capsys, "table", "--ell", "2", "--cache-dir", cache_dir)
        assert code == 2 and "d must be nonnegative" in err


class TestDetCommand:
    def test_value_and_check(self, capsys, cache_dir):
        code, out, _ = run(
            capsys, "det", "--ell", "2", "--d", "2", "--check", "--cache-dir", cache_dir
        )
        assert code == 0
        obj = json.loads(out)
        assert LaurentPoly.from_json(obj["value"]) == quantum_int(2) ** 2 * quantum_int(2, 2)
        assert obj["check"] == {"gram_det_equals_formula": True}

    def test_check_mismatch(self, capsys, cache_dir, monkeypatch):
        # a Gram determinant that differs from the closed formula exits 1
        # with both in the payload and the pair on stderr
        monkeypatch.setattr(cli, "gram_det", lambda dg, d: LaurentPoly.const(3))
        code, out, err = run(
            capsys, "det", "--ell", "2", "--d", "2", "--check", "--cache-dir", cache_dir
        )
        assert code == 1
        check = json.loads(out)["check"]
        assert check["gram_det_equals_formula"] is False
        assert LaurentPoly.from_json(check["gram_det"]) == LaurentPoly.const(3)
        formula = quantum_int(2) ** 2 * quantum_int(2, 2)
        assert f"determinant mismatch:\n  formula: {formula}\n  gram:    3\n" in err

    @pytest.mark.parametrize("fmt", ["csv", "latex"])
    def test_check_mismatch_exits_1_in_every_format(self, capsys, fmt, monkeypatch):
        # the failure prints the text the format renders, not a usage error
        argv = ("det", "--ell", "2", "--d", "2", "--format", fmt, "--cache-dir", "")
        code, want, _ = run(capsys, *argv)
        assert code == 0 and want
        monkeypatch.setattr(cli, "gram_det", lambda dg, d: LaurentPoly.const(1))
        code, out, err = run(capsys, *argv, "--check")
        assert (code, out) == (1, want) and err.startswith("determinant mismatch:\n")

    def test_negative_weight_is_usage(self, capsys):
        # the empty product over s <= d would claim determinant 1
        code, out, err = run(capsys, "det", "--ell", "3", "--d", "-1", "--cache-dir", "")
        assert (code, out, err) == (2, "", "error: d must be >= 0\n")

    def test_e8(self, capsys, cache_dir):
        from gcartan.qlaurent import cyclotomic

        code, out, _ = run(capsys, "det", "--diagram", "E:8", "--d", "1", "--cache-dir", cache_dir)
        assert code == 0
        obj = json.loads(out)
        assert LaurentPoly.from_json(obj["value"]) == LaurentPoly({-8: 1}) * cyclotomic(60)

    def test_d_zero(self, capsys, cache_dir):
        code, out, _ = run(capsys, "det", "--ell", "3", "--d", "0", "--cache-dir", cache_dir)
        assert code == 0
        assert LaurentPoly.from_json(json.loads(out)["value"]) == LaurentPoly.const(1)

    def test_latex_brackets(self, capsys, cache_dir):
        code, out, _ = run(
            capsys, "det", "--ell", "2", "--d", "2", "--format", "latex", "--cache-dir", cache_dir
        )
        assert code == 0 and "([2])^{2}" in out and "[2]_{2}" in out


class TestVerifyCommand:
    def test_pass_cases(self, capsys, cache_dir):
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
            code, out, _ = run(capsys, *argv, "--cache-dir", cache_dir)
            assert code == 0, argv
            assert json.loads(out)["ok"] is True

    def test_schur_orth_output(self, capsys, cache_dir):
        for nmax in range(9):
            code, out, err = run(
                capsys, "verify", "schur-orth", "--nmax", str(nmax), "--cache-dir", cache_dir
            )
            assert code == 0
            assert out == (
                '{\n  "identity": "schur-orth",\n  "ok": true,\n'
                f'  "params": {{\n    "nmax": {nmax}\n  }}\n}}\n'
            )
            assert err == "# cache: 0 hit(s), 0 miss(es)\n"

    def test_unknown_identity(self, capsys, cache_dir):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "nope", "--cache-dir", cache_dir])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "argument identity: invalid choice: 'nope'" in err

    def test_missing_params(self, capsys, cache_dir):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "conjcheck", "--p", "2", "--cache-dir", cache_dir])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "required: --r, --dmax" in err

    def test_nformula_disagreement_is_a_verification_failure(self, capsys, cache_dir, monkeypatch):
        # the command checks that the two closed forms of N agree, so a
        # disagreement exits 1 with its payload, not 3 as an internal error
        real = cli.qc._exponents_multipartition

        def off_by_one(colors, d):
            out = list(real(colors, d))
            out[-1] += d == 3
            return tuple(out)

        monkeypatch.setattr(cli.qc, "_exponents_multipartition", off_by_one)
        code, out, _ = run(
            capsys, "verify", "nformula", "--pmax", "4", "--dmax", "6", "--cache-dir", cache_dir
        )
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
    def test_out_of_range_p_r_is_usage(self, capsys, cache_dir, argv, message):
        # I^v_{p,r} is defined for prime p and r >= 1 only
        code, out, err = run(capsys, "verify", *argv, "--cache-dir", cache_dir)
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
        code, out, err = run(capsys, "verify", *argv, "--cache-dir", "")
        assert code == 2 and not out and message in err

    def test_failure_exit_code(self, capsys, cache_dir, monkeypatch):
        # plumbing test: a failing verifier must yield exit code 1
        monkeypatch.setattr(cli.inv, "verify_saigo2", lambda ell, n: False)
        code, out, _ = run(capsys, "verify", "saigo2", "--ell", "2", "--n", "2", "--cache-dir", cache_dir)
        assert code == 1
        assert json.loads(out)["ok"] is False


class TestIrredCommand:
    def test_reducible_case(self, capsys, cache_dir):
        code, out, _ = run(
            capsys, "irred", "--diagram", "A:4", "--ell", "10", "--cache-dir", cache_dir
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["irreducible"] is False
        assert obj["modes"] == {"closed_form": False, "exact": False}

    def test_irreducible_case(self, capsys, cache_dir):
        code, out, _ = run(
            capsys, "irred", "--ell", "7", "--diagram", "E:8", "--cache-dir", cache_dir
        )
        assert code == 0 and json.loads(out)["irreducible"] is True

    def test_each_mode_against_a_disagreeing_closed_form(self, capsys, cache_dir, monkeypatch):
        # the exact test finds A_4 reducible at ell = 10; the patched closed
        # form says irreducible.  exact reports the exact answer alone, and
        # only both cross-checks
        real = cli.qc.irreducible_at
        calls = []

        def patched(dg, ell, mode):
            calls.append(mode)
            return not real(dg, ell, mode) if mode == "closed_form" else real(dg, ell, mode)

        monkeypatch.setattr(cli.qc, "irreducible_at", patched)
        base = ("irred", "--diagram", "A:4", "--ell", "10", "--cache-dir", cache_dir)
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
        code, out, _ = run(
            capsys, "irred", "--diagram", "A:4", "--ell", "10", "--format", "csv", "--cache-dir", ""
        )
        assert (code, out) == (1, "A:4,10,True\n")


class TestTwistedCommand:
    def test_banner_and_value(self, capsys, cache_dir):
        code, out, _ = run(
            capsys, "twisted", "--diagram", "tA2e:1", "--d", "1", "--cache-dir", cache_dir
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "CONJECTURAL"
        assert LaurentPoly.from_json(obj["value"]) == quantum_int(3)
        assert obj["epsilon"] == 1

    def test_cache_hit_replays_the_note(self, capsys, cache_dir):
        args = ("twisted", "--diagram", "tA2:3", "--d", "2", "--format", "csv")
        args += ("--cache-dir", cache_dir)
        note = "# CONJECTURAL: evaluated from an unproven closed formula\n"
        code1, out1, err1 = run(capsys, *args)
        code2, out2, err2 = run(capsys, *args)
        assert code1 == code2 == 0 and out1 == out2
        assert err1 == note + "# cache: 0 hit(s), 1 miss(es)\n"
        assert err2 == note + "# cache: 1 hit(s), 0 miss(es)\n"

    def test_negative_weight_is_usage(self, capsys):
        code, out, err = run(capsys, "twisted", "--diagram", "tE6", "--d", "-1", "--cache-dir", "")
        assert (code, out, err) == (2, "", "error: d must be >= 0\n")

    def test_requires_twisted_label(self, capsys, cache_dir):
        code, _, err = run(
            capsys, "twisted", "--diagram", "A:2", "--d", "1", "--cache-dir", cache_dir
        )
        assert code == 2


class TestSnfCommand:
    def test_zint(self, capsys, tmp_path, cache_dir):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"rows": [[2, 0], [0, 6]]}))
        code, out, _ = run(
            capsys, "snf", "--input", str(f), "--ring", "zint", "--cache-dir", cache_dir
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["invariants"] == ["2", "6"] and obj["status"] == "VERIFIED"
        assert obj["checks"]["product_equals_abs_det"] is True

    def test_zint_singular(self, capsys, tmp_path, cache_dir):
        # a singular matrix takes the dense loop, the only path that gives zeros
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"rows": [[2, 4], [1, 2]]}))
        code, out, _ = run(
            capsys, "snf", "--input", str(f), "--ring", "zint", "--cache-dir", cache_dir
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["invariants"] == ["1", "0"] and obj["status"] == "VERIFIED"
        assert obj["checks"] == {"product_equals_abs_det": True, "divisibility_chain": True}

    @pytest.mark.parametrize(
        "rows, want", [([[3, 4], [4, 8]], ["1", "8"]), ([[2, 4], [1, 2]], ["1", "0"])],
        ids=["nonsingular", "singular"],
    )
    def test_zint_runs_bareiss_once(self, capsys, tmp_path, cache_dir, monkeypatch, rows, want):
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
        code, out, _ = run(
            capsys, "snf", "--input", str(f), "--ring", "zint", "--cache-dir", cache_dir
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["invariants"] == want and obj["status"] == "VERIFIED"
        assert obj["checks"]["product_equals_abs_det"] is True
        assert calls == [2]

    def test_qlaurent(self, capsys, tmp_path, cache_dir):
        f = tmp_path / "m.json"
        entries = [[quantum_int(2).to_json(), LaurentPoly().to_json()],
                   [LaurentPoly().to_json(), (quantum_int(2) * quantum_int(3)).to_json()]]
        f.write_text(json.dumps({"entries": entries}))
        code, out, _ = run(
            capsys, "snf", "--input", str(f), "--ring", "qlaurent", "--cache-dir", cache_dir
        )
        assert code == 0
        assert json.loads(out)["status"] == "VERIFIED"

    def test_zlaurent(self, capsys, tmp_path, cache_dir):
        f = tmp_path / "m.json"
        entries = [[quantum_int(4).to_json()]]
        f.write_text(json.dumps({"entries": entries}))
        code, out, _ = run(
            capsys, "snf", "--input", str(f), "--ring", "zlaurent", "--cache-dir", cache_dir
        )
        assert code == 0
        assert json.loads(out)["status"] == "VERIFIED"

    def test_zlaurent_inconclusive_says_why(self, capsys, tmp_path, cache_dir):
        from gcartan.gram import cartan_graded

        f = tmp_path / "m.json"
        entries = [[e.to_json() for e in row] for row in cartan_graded(3, 3).entries]
        f.write_text(json.dumps({"entries": entries}))
        code, out, _ = run(
            capsys, "snf", "--input", str(f), "--ring", "zlaurent", "--cache-dir", cache_dir
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "INCONCLUSIVE" and obj["checks"]["stopped"] == "stalled"

    def test_zint_checks_the_product_above_thirty_rows(self, capsys, tmp_path, cache_dir):
        # 36 rows: the product-versus-determinant check used to stop at 30
        # rows and still report VERIFIED
        from gcartan.gram import cartan_graded

        f = tmp_path / "m.json"
        f.write_text(json.dumps({"rows": cartan_graded(3, 5).at_one()}))
        code, out, _ = run(
            capsys, "snf", "--input", str(f), "--ring", "zint", "--cache-dir", cache_dir
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "VERIFIED" and len(obj["invariants"]) == 36
        assert obj["checks"]["product_equals_abs_det"] is True

    def test_qlaurent_checks_the_product_above_twenty_rows(self, capsys, tmp_path, cache_dir):
        # 21 rows: the check used to stop at 20 rows and still report VERIFIED
        from gcartan.gram import permanent_matrix
        from gcartan.qcartan import quantized_cartan, type_a

        f = tmp_path / "m.json"
        p = permanent_matrix(quantized_cartan(type_a(4)), 1, 5)
        f.write_text(json.dumps({"entries": [[e.to_json() for e in row] for row in p]}))
        code, out, _ = run(
            capsys, "snf", "--input", str(f), "--ring", "qlaurent", "--cache-dir", cache_dir
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "VERIFIED" and len(obj["invariants"]) == 21
        assert obj["checks"]["product_matches_det_up_to_unit"] is True

    @pytest.mark.parametrize(
        "text, ring",
        [
            ('{"rows": [[2.7, 0], [0, 4.9]]}', "zint"),
            ('{"rows": [[true, 0], [0, 2]]}', "zint"),
            ('{"entries": [[{"terms": {"0": 2.5}}]]}', "qlaurent"),
            ('{"entries": [[{"0": "1"}]]}', "zlaurent"),
            ('{"rows": [[1, 0], [0]]}', "zint"),
            (None, "zint"),
        ],
        ids=["float", "bool", "float-coefficient", "no-terms", "ragged", "missing-file"],
    )
    def test_malformed_input_is_usage_error(self, capsys, tmp_path, cache_dir, text, ring):
        f = tmp_path / "m.json"
        if text is not None:
            f.write_text(text)
        code, out, err = run(
            capsys, "snf", "--input", str(f), "--ring", ring, "--cache-dir", cache_dir
        )
        assert code == 2 and out == "" and err.startswith("error: ")


class TestInvariantsCommand:
    def test_prime_power(self, capsys, cache_dir):
        code, out, _ = run(
            capsys,
            "invariants", "--p", "2", "--r", "1", "--partition", "1,1",
            "--cache-dir", cache_dir,
        )
        assert code == 0
        rows = {r["provenance"]: r for r in json.loads(out)["invariants"]}
        assert rows["Hill"]["value"] == "8"
        assert LaurentPoly.from_json(rows["GradedHill"]["value"]) == quantum_int(2) * quantum_int(4)
        assert rows["KOR"]["value"] == "2"

    def test_composite(self, capsys, cache_dir):
        code, out, _ = run(
            capsys, "invariants", "--ell", "6", "--partition", "1,1,1", "--cache-dir", cache_dir
        )
        assert code == 0
        rows = {r["provenance"]: r for r in json.loads(out)["invariants"]}
        assert set(rows) == {"KOR", "Hill", "ASY"}

    def test_csv(self, capsys, cache_dir):
        code, out, _ = run(
            capsys,
            "invariants", "--p", "2", "--r", "1", "--partition", "1,1", "--format", "csv",
            "--cache-dir", cache_dir,
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
    def test_report(self, capsys, cache_dir):
        code, out, _ = run(
            capsys, "report", "--p", "2", "--r", "1", "--d", "3", "--cache-dir", cache_dir
        )
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
        code, out, err = run(capsys, "report", "--p", "2", "--r", "1", "--d", "-1", "--cache-dir", "")
        assert (code, out, err) == (2, "", "error: d must be nonnegative\n")

    def test_size_guard(self, capsys, monkeypatch):
        # the Gram matrix at p=2, r=1, d=4 has 5 rows
        argv = ("report", "--p", "2", "--r", "1", "--d", "4", "--limit", "4", "--cache-dir", "")
        real = cli.inv.conjecture_report
        monkeypatch.setattr(cli.inv, "conjecture_report", self._never)
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and "5 x 5 (> 4)" in err and "--force" in err
        monkeypatch.setattr(cli.inv, "conjecture_report", real)
        code, out, _ = run(capsys, *argv, "--force")
        assert code == 0 and json.loads(out)["params"]["d"] == 4


class TestTableCommand:
    def test_json(self, capsys, cache_dir):
        code, out, _ = run(
            capsys, "table", "--ell", "2", "--dmax", "3", "--cache-dir", cache_dir
        )
        assert code == 0
        obj = json.loads(out)
        assert [r["dimension"] for r in obj["rows"]] == [1, 1, 2, 3]

    def test_latex(self, capsys, cache_dir):
        code, out, _ = run(
            capsys, "table", "--ell", "3", "--dmax", "2", "--format", "latex", "--cache-dir", cache_dir
        )
        assert code == 0 and "tabular" in out

    def test_csv(self, capsys, cache_dir):
        code, out, _ = run(
            capsys, "table", "--ell", "2", "--dmax", "3", "--format", "csv", "--cache-dir", cache_dir
        )
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
        code, out, err = run(capsys, "table", "--ell", "3", "--dmax", "-1", "--cache-dir", "")
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
                code, out, err = run(capsys, *argv, "--format", fmt, "--cache-dir", "")
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
            assert flags == {f"--{k}" for k in params} | {"--format", "--cache-dir"}, name
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
        code, out, err = run(capsys, *argv, "--cache-dir", "")
        assert (code, out) == (2, "") and message in err, err


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
                [sys.executable, *flags, "-m", "gcartan.cli", *argv, "--cache-dir", ""],
                env=env,
                capture_output=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            # wall-clock fields differ between any two runs, -O or not
            outs.append(re.sub(rb'"elapsed_ms": [0-9]+', b'"elapsed_ms": _', proc.stdout))
        assert outs[0] and outs[0] == outs[1]
