import hashlib
import json
import os
import subprocess
import sys
import threading
import time

import pytest

import isodescent
from isodescent import cli, descent
from isodescent.cli import load_bundle, main
from isodescent.errors import BundleFormatError
from isodescent.exactfield import MAX_CONDUCTOR, MAX_ELL, MAX_RESIDUE_DEGREE

from conftest import BUNDLE_DIR, bundle_path

# the descend result block of bundles/q8_split_ell5.json
Q8_DESCEND_SHA256 = "a54d8cbdbbfcf91c454c1551ed122bf98aec613bc037b8b71c6164b56a57251b"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def result_sha256(path):
    """The sha256 of a report file's result block in canonical JSON."""
    result = json.loads(path.read_text())["result"]
    blob = json.dumps(result, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def parse_report(out):
    report = json.loads(out)
    assert set(report) == {"version", "command", "input_sha256",
                           "result", "timing_seconds"}
    return report


def minimal_bundle(gram_entry="1"):
    return {
        "schema": 1,
        "field": {"n": 1, "ell": 5, "subgroup": [1], "prime_choice": 0,
                  "involution": None},
        "form": {"kind": "symmetric", "twist": 0,
                 "gram": [[gram_entry]]},
        "generators": [[["1"]]],
        "options": {},
    }


class TestExitCodes:
    def test_descend_success(self, capsys):
        code, out, err = run(capsys, "descend", str(bundle_path("q8_split_ell5")))
        assert code == 0
        report = parse_report(out)
        assert report["command"] == "descend"
        certs = report["result"]["certificates"]
        assert all(certs.values())
        assert "descend:" in err and "faithful=yes" in err

    def test_descend_hypothesis_failure_exits_two(self, capsys):
        code, out, err = run(capsys, "descend", str(bundle_path("prop5_ell5")))
        assert code == 2
        report = parse_report(out)
        certs = report["result"]["certificates"]
        assert not certs["faithful"]
        assert not certs["hypothesis_2e_lt_ell_minus_1"]
        assert certs["charpoly_preserved"]

    def test_a_reduced_form_the_generators_do_not_preserve_exits_two(self, tmp_path,
                                                                     monkeypatch):
        # one diagonal entry of the first block's gram moved by one: B_3 x
        # B_2 permutes that block's basis, so some generator's image no
        # longer preserves f0, while the block stays nondegenerate
        reduced_gram = descent._reduced_gram
        reduced = []

        def bent(*args):
            rg = reduced_gram(*args)
            if not reduced:  # descend reduces the form on the lattice first
                last = len(rg) - 1  # the first block holds the trailing indices
                rg[last][last] = rg[last][last] + rg[last][last].field.one
            reduced.append(rg)
            return rg

        monkeypatch.setattr(descent, "_reduced_gram", bent)
        out = tmp_path / "report.json"
        assert cli.cmd_descend(str(bundle_path("block_b3xb2_q5")), str(out)) == 2
        result = json.loads(out.read_text())["result"]
        assert result["block_dims"] == [3, 2]
        certs = result["certificates"]
        assert not certs["kind_correct"]
        assert all(v for k, v in certs.items() if k != "kind_correct")

    def test_verify_exit_codes(self, capsys):
        assert run(capsys, "verify", "lemma", "--ell", "5")[0] == 0
        assert run(capsys, "verify", "prop5", "--ell", "5")[0] == 0
        assert run(capsys, "verify", "prop6", "--ell", "5")[0] == 0

    def test_char_two_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "verify", "lemma", "--ell", "2")
        assert code == 1
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_enum_cap_must_be_positive(self, capsys, cap):
        code, out, err = run(capsys, "verify", "prop6", "--ell", "5", "--enum-cap", cap)
        assert code == 1
        assert out == ""
        assert "--enum-cap" in err

    def test_enum_cap_one_skips_enumeration(self, capsys):
        code, out, _ = run(capsys, "verify", "prop6", "--ell", "5", "--enum-cap", "1")
        assert code == 0
        result = parse_report(out)["result"]
        assert result["details"]["routes"] == ["identity"]
        assert result["counts"]["enumerated"] == 0

    @pytest.mark.parametrize("tag, ell, cap", [("lemma", "5", "124"), ("prop5", "5", "749"),
                                               ("lemma", "101", None), ("prop5", "37", None)])
    def test_exhaustive_search_over_the_cap_exits_one(self, capsys, tag, ell, cap):
        # lemma enumerates ell^3 grams, prop5 ell^4 + ell^3 candidates
        argv = ["verify", tag, "--ell", ell] + (["--enum-cap", cap] if cap else [])
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "--enum-cap" in err

    @pytest.mark.parametrize("tag, cap", [("lemma", "125"), ("prop5", "750")])
    def test_exhaustive_search_at_the_cap_runs(self, capsys, tag, cap):
        code, out, _ = run(capsys, "verify", tag, "--ell", "5", "--enum-cap", cap)
        assert code == 0
        assert parse_report(out)["result"]["verdict"]

    # a 401-digit odd number, and the first prime over the ceiling
    @pytest.mark.parametrize("ell", ["1" * 400 + "3", "1000003"])
    def test_ell_over_the_ceiling_exits_one(self, capsys, ell):
        code, out, err = run(capsys, "verify", "prop6", "--ell", ell)
        assert code == 1
        assert out == ""
        assert "error:" in err and "--ell" in err

    def test_ell_under_the_ceiling_runs(self, capsys):
        # the largest prime below MAX_VERIFY_ELL = 10^6; the cap keeps the
        # run to the identity route instead of enumerating ell forms
        code, out, _ = run(capsys, "verify", "prop6", "--ell", "999983",
                           "--enum-cap", "1")
        assert code == 0
        assert parse_report(out)["result"]["verdict"]

    def test_ell_under_the_ceiling_enumerates(self, capsys):
        # the default cap enumerates all 999983 forms, one Pfaffian step each
        code, out, _ = run(capsys, "verify", "prop6", "--ell", "999983")
        assert code == 0
        result = parse_report(out)["result"]
        assert result["verdict"]
        assert result["counts"]["enumerated"] == result["counts"]["degenerate"] == 999983

    @pytest.mark.parametrize("key, value, cap", [("n", MAX_CONDUCTOR + 1, MAX_CONDUCTOR),
                                                 ("ell", 1009, MAX_ELL),
                                                 ("ell", 10 ** 18 + 9, MAX_ELL)])
    def test_field_over_its_cap_exits_one_fast(self, capsys, tmp_path, key, value, cap):
        # 1009 is the least prime over MAX_ELL; 10^18 + 9 is prime too
        bundle = minimal_bundle()
        bundle["field"][key] = value
        p = tmp_path / "capped.json"
        p.write_text(json.dumps(bundle))
        started = time.perf_counter()
        code, out, err = run(capsys, "descend", str(p))
        assert time.perf_counter() - started < 1.0
        assert code == 1
        assert out == ""
        assert f"at most {cap}" in err

    def test_dimension_over_the_ceiling_exits_one_fast(self, capsys, tmp_path):
        # an identity gram and the generator -I, one dimension over MAX_DIM
        n = cli.MAX_DIM + 1
        bundle = minimal_bundle()
        bundle["form"]["gram"] = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
        bundle["generators"] = [[["-1" if i == j else "0" for j in range(n)] for i in range(n)]]
        p = tmp_path / "wide.json"
        p.write_text(json.dumps(bundle))
        started = time.perf_counter()
        code, out, err = run(capsys, "descend", str(p))
        assert time.perf_counter() - started < 1.0
        assert code == 1
        assert out == ""
        assert f"dimension {n} exceeds the ceiling {cli.MAX_DIM}" in err

    def test_residue_degree_over_its_cap_exits_one_fast(self, capsys, tmp_path):
        # 3 has order 18 mod 19, the least residue degree over 16 that a
        # conductor <= 64 attains; 61 has order 58 mod 59
        assert MAX_RESIDUE_DEGREE == 16
        for n, ell, f in ((19, 3, 18), (59, 61, 58)):
            bundle = minimal_bundle()
            bundle["field"].update(n=n, ell=ell)
            p = tmp_path / "capped.json"
            p.write_text(json.dumps(bundle))
            started = time.perf_counter()
            code, out, err = run(capsys, "descend", str(p))
            assert time.perf_counter() - started < 1.0
            assert code == 1
            assert out == ""
            assert f"is {f}; it must be at most {MAX_RESIDUE_DEGREE}" in err

    # isometries of infinite order: a trace that is not an algebraic integer,
    # and an integral trace 3 of a 2 x 2 matrix, past any sum of two roots of unity
    @pytest.mark.parametrize("ell, gram, gen", [
        (5, [["1", "0"], ["0", "-1"]], [["5/3", "4/3"], ["4/3", "5/3"]]),
        (7, [["2", "-1"], ["-1", "-2"]], [["2", "1"], ["1", "1"]]),
    ])
    def test_infinite_group_exits_one_fast(self, capsys, tmp_path, ell, gram, gen):
        bundle = minimal_bundle()
        bundle["field"]["ell"] = ell
        bundle["form"]["gram"] = gram
        bundle["generators"] = [gen]
        p = tmp_path / "infinite.json"
        p.write_text(json.dumps(bundle))
        started = time.perf_counter()
        code, out, err = run(capsys, "descend", str(p))
        assert time.perf_counter() - started < 1.0
        assert code == 1
        assert out == ""
        assert "the group is infinite" in err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_group_cap_flag_must_be_positive(self, capsys, monkeypatch, value):
        # refused before the bundle is read, so before any field or closure work
        def no_field(*args, **kwargs):
            raise AssertionError("the field was built before the flag was checked")

        monkeypatch.setattr(cli, "make_descriptor", no_field)
        for command in ("descend", "balance", "charpoly"):
            code, out, err = run(capsys, command, str(bundle_path("q8_split_ell5")),
                                 "--max-group-order", value)
            assert code == 1
            assert out == ""
            assert f"--max-group-order: must be a positive integer, got {value}" in err

    @pytest.mark.parametrize("where, value", [
        ("field.n", True),
        ("field.ell", True),
        ("field.prime_choice", False),
        ("field.involution", True),
        ("field.subgroup", [True]),
        ("form.twist", True),
        ("options.max_group_order", True),
        ("form.gram", [[True]]),
        ("form.gram", [[[True]]]),
        ("generators", [[[False]]]),
    ])
    def test_json_booleans_are_not_integers(self, capsys, tmp_path, where, value):
        # JSON true and false load as bool, which Python counts as int
        bundle = minimal_bundle()
        *outer, key = where.split(".")
        part = bundle
        for name in outer:
            part = part[name]
        part[key] = value
        p = tmp_path / "boolean.json"
        p.write_text(json.dumps(bundle))
        code, out, err = run(capsys, "descend", str(p))
        assert code == 1
        assert out == ""
        assert f"error: {where}" in err

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "descend", "/nonexistent/bundle.json")
        assert code == 1
        assert "error:" in err

    def test_malformed_json(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{\n  \"schema\": 1,\n")
        code, out, err = run(capsys, "descend", str(p))
        assert code == 1
        assert "line" in err and "column" in err

    def test_deeply_nested_json(self, tmp_path):
        # json.loads raises RecursionError here, not JSONDecodeError; the CLI
        # must still end with one error line, not a traceback
        p = tmp_path / "nested.json"
        p.write_text("[" * 200000)
        with pytest.raises(BundleFormatError):
            load_bundle(str(p))
        src = os.path.dirname(os.path.dirname(os.path.abspath(isodescent.__file__)))
        proc = subprocess.run([sys.executable, "-m", "isodescent", "descend", str(p)],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "error:" in proc.stderr and "nested too deeply" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_integer_over_the_digit_limit(self, capsys, tmp_path):
        # json.loads raises a plain ValueError past int()'s 4300-digit
        # limit, not JSONDecodeError
        p = tmp_path / "digits.json"
        p.write_text('{"schema": 1, "field": {"n": 1, "ell": 5}, "x": ' + "7" * 5000 + "}")
        with pytest.raises(BundleFormatError, match="invalid JSON"):
            load_bundle(str(p))
        code, out, err = run(capsys, "descend", str(p))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {p}: invalid JSON") and err.count("\n") == 1

    def test_wrong_schema(self, capsys, tmp_path):
        bundle = minimal_bundle()
        bundle["schema"] = 2
        p = tmp_path / "schema2.json"
        p.write_text(json.dumps(bundle))
        code, out, err = run(capsys, "descend", str(p))
        assert code == 1
        assert "schema" in err

    def test_bad_entry_has_field_path(self, capsys, tmp_path):
        bundle = minimal_bundle(gram_entry="not-a-number")
        p = tmp_path / "badentry.json"
        p.write_text(json.dumps(bundle))
        code, out, err = run(capsys, "descend", str(p))
        assert code == 1
        assert "form.gram[0][0]" in err

    @pytest.mark.parametrize("value", ["1e100000", "2.5"])
    def test_only_integer_and_fraction_strings(self, capsys, tmp_path, value):
        # "1e100000" is nine characters, but Fraction would read it as 10^100000
        bundle = json.loads(bundle_path("q8_split_ell5").read_text())
        bundle["form"]["gram"][0][1][0] = value
        cases = [(bundle, "form.gram[0][1]: bad coefficient vector"),
                 (minimal_bundle(gram_entry=value), "form.gram[0][0]: bad rational")]
        for i, (raw, message) in enumerate(cases):
            p = tmp_path / f"notation{i}.json"
            p.write_text(json.dumps(raw))
            started = time.perf_counter()
            code, out, err = run(capsys, "descend", str(p))
            assert time.perf_counter() - started < 1.0
            assert code == 1
            assert out == ""
            assert message in err

    @pytest.mark.parametrize("value", ["1/0", "1e3", "0x1", " 1", "1_0", "2.5"])
    def test_entry_strings_are_refused_with_their_texts(self, capsys, tmp_path, value):
        # int() would read "0x1"'s digits only with a base, " 1" and "1_0" as
        # 1 and 10; the regex refuses them first, and "1/0" is refused in
        # Fraction's words
        why = ("Fraction(1, 0)" if value == "1/0"
               else f"{value!r} is not an integer or p/q")
        bundle = json.loads(bundle_path("q8_split_ell5").read_text())
        bundle["form"]["gram"][0][1][0] = value
        cases = [(bundle, f"form.gram[0][1]: bad coefficient vector ({why})"),
                 (minimal_bundle(gram_entry=value),
                  f"form.gram[0][0]: bad rational {value!r} ({why})")]
        for i, (raw, message) in enumerate(cases):
            p = tmp_path / f"entry{i}.json"
            p.write_text(json.dumps(raw))
            code, out, err = run(capsys, "descend", str(p))
            assert code == 1
            assert out == ""
            assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["descend", str(bundle_path("q8_split_ell5")), "--max-group-order", "abc"],
        ["frobnicate"],
    ], ids=["non-integer-flag", "unknown-subcommand"])
    def test_usage_errors_exit_one(self, capsys, argv):
        # argparse would exit 2, which reads as a false certificate
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "usage:" in out

    def test_group_cap_flag(self, capsys):
        code, out, err = run(capsys, "descend", str(bundle_path("q8_split_ell5")),
                             "--max-group-order", "3")
        assert code == 1
        assert "error:" in err


class TestReports:
    def test_input_digest_matches_file_bytes(self, capsys):
        path = bundle_path("q8_split_ell5")
        code, out, _ = run(capsys, "descend", str(path))
        report = parse_report(out)
        expected = hashlib.sha256(path.read_bytes()).hexdigest()
        assert report["input_sha256"] == expected

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_bundle_read_once_from_a_pipe(self, capsys, tmp_path):
        # a FIFO yields its bytes once: the digest and the parse must share
        # them.  The command runs in a subprocess, so a second open of the
        # FIFO, which would wait for a writer forever, ends in the timeout
        path = bundle_path("q8_split_ell5")
        fifo = tmp_path / "bundle.fifo"
        os.mkfifo(fifo)

        def write():
            with open(fifo, "wb") as fh:
                fh.write(path.read_bytes())
        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        src = os.path.dirname(os.path.dirname(os.path.abspath(isodescent.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "isodescent", "descend", str(fifo),
             "--out", str(tmp_path / "pipe.json")],
            capture_output=True, text=True, timeout=20, env={**os.environ, "PYTHONPATH": src})
        writer.join(timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert run(capsys, "descend", str(path), "--out", str(tmp_path / "file.json"))[0] == 0
        piped, read = (json.loads((tmp_path / f"{n}.json").read_text()) for n in ("pipe", "file"))
        assert piped["result"] == read["result"]
        assert piped["input_sha256"] == read["input_sha256"] == hashlib.sha256(
            path.read_bytes()).hexdigest()

    def test_verify_digest_is_canonical(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma", "--ell", "3")
        report = parse_report(out)
        expected = hashlib.sha256(
            json.dumps({"ell": 3, "tag": "lemma"}, sort_keys=True).encode()
        ).hexdigest()
        assert report["input_sha256"] == expected
        assert report["result"]["certificates"] == {"verdict": True}

    def test_verify_digest_records_a_given_enum_cap(self, capsys):
        # the cap decides the routes, so two caps give two digests, and a
        # given cap is distinguished from the default one
        digests = {}
        for cap in (None, "1", "5"):
            argv = ["verify", "prop6", "--ell", "5"] + (["--enum-cap", cap] if cap else [])
            _, out, _ = run(capsys, *argv)
            digests[cap] = parse_report(out)["input_sha256"]
        assert len(set(digests.values())) == 3
        assert digests["1"] == hashlib.sha256(json.dumps(
            {"ell": 5, "enum_cap": 1, "tag": "prop6"}, sort_keys=True).encode()).hexdigest()

    def test_reports_are_deterministic(self, capsys):
        _, out1, _ = run(capsys, "descend", str(bundle_path("q8_split_ell5")))
        _, out2, _ = run(capsys, "descend", str(bundle_path("q8_split_ell5")))
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("timing_seconds")
        r2.pop("timing_seconds")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_out_flag_routes_streams(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        code, out, err = run(capsys, "descend", str(bundle_path("q8_split_ell5")),
                             "--out", str(dest))
        assert code == 0
        # human summary moves to stdout once the JSON has a file to go to
        assert "descend:" in out
        assert err == ""
        report = json.loads(dest.read_text())
        assert report["command"] == "descend"
        assert all(report["result"]["certificates"].values())

    def test_balance_report(self, capsys):
        code, out, err = run(capsys, "balance", str(bundle_path("remark4_ell7")))
        assert code == 0
        report = parse_report(out)
        result = report["result"]
        assert result["certificates"] == {"chain_terminated": True,
                                          "invariants_binary": True}
        assert result["invariant_exponents"] == [1, 1, 0, 0]
        assert "balance:" in err

    def test_charpoly_report(self, capsys):
        code, out, err = run(capsys, "charpoly", str(bundle_path("q8_split_ell5")))
        assert code == 0
        report = parse_report(out)
        result = report["result"]
        assert result["group_order"] == 8
        assert len(result["rows"]) == 8
        assert sum(c["count"] for c in result["classes"]) == 8
        assert result["certificates"] == {"closure_complete": True}
        for row in result["rows"]:
            assert row["charpoly_mod_lambda"] is not None

    def test_charpoly_trivial_group(self, capsys, tmp_path):
        p = tmp_path / "trivial.json"
        p.write_text(json.dumps(minimal_bundle()))
        code, out, _ = run(capsys, "charpoly", str(p))
        assert code == 0
        result = parse_report(out)["result"]
        assert result["group_order"] == 1
        assert len(result["classes"]) == 1
        # charpoly of the identity on a line is t - 1
        assert result["classes"][0]["charpoly"] == [["-1"], ["1"]]

    def test_large_block_bundle_result(self, capsys, tmp_path):
        # B_3 x B_2 over Q at ell = 5, order 384, dimension 5: written by
        # perfbench.workloads.write_bundle from block_group(make_descriptor(1, 5),
        # 3, 2, 3, _rngs("descend_groups", 0, "block-Q5-B3xB2-k3")).  The
        # digest pins the result block byte for byte, on two calls in a row
        # through main's one parser.
        for i in range(2):
            dest = tmp_path / f"b3xb2-{i}.json"
            code, _, _ = run(capsys, "descend", str(bundle_path("block_b3xb2_q5")),
                             "--out", str(dest))
            assert code == 0
            result = json.loads(dest.read_text())["result"]
            assert (result["group_order"], result["block_dims"],
                    result["chain_steps"]) == (384, [3, 2], 2)
            assert result_sha256(dest) == \
                "5c28df7c51e7a9706ba198b05c605eaca5b91bd57f997b98ffbdb54e6f872a42"

    @pytest.mark.parametrize("name,command,digest", [
        ("block_b3xb2_q5", "balance",
         "358c0f60ea24e313f3f0c6cd08c3fe23884258c76c7b5e43715ff71e45c792e2"),
        ("block_b3xb2_q5", "charpoly",
         "c7de9476787bc93971904354e24999c3bd73f4fa3ed34165a2bfc79e517982ac"),
        ("prop5_ell5", "balance",
         "d35d77ede18554d70a928eeabb402f08f8d31b3c48232945f0e614c9ec451a07"),
        ("prop5_ell5", "charpoly",
         "ec2ce0a49a092185b97422134757b10dba28c53358a74f186c757f19bfd0b563"),
        ("q8_split_ell5", "balance",
         "f511d8ab5be326d1b6c2bf98fea86ae58697b247de722f1df22727fd0e9cb91f"),
        ("q8_split_ell5", "charpoly",
         "4f7f68bc28aeb3b7f2c45fd40d352e90fb28788e8dbb7ce542b8e4ea44500873"),
        ("remark4_ell7", "balance",
         "73cfb7c553cff89a28c1c87d4d7c9c9ba29c9ea83848d2897729da0ac1cb4537"),
        ("remark4_ell7", "charpoly",
         "532d19d970b4b31866c8bf40b10a396031a982e146cd1645cf283c5aac16200b"),
        ("z4_hermitian_inert_ell7", "balance",
         "8afdf34dd2b5b98b3365bef58d2303429fb9ec376b624e28b914832d102da3e5"),
        ("z4_hermitian_inert_ell7", "charpoly",
         "24d19e1a3c391434017e20a87d89547f68b6047aa92364a713c247f9476612a9"),
    ])
    def test_balance_and_charpoly_results(self, capsys, tmp_path, name, command, digest):
        # the canonical result block of every committed bundle, byte for
        # byte, on two calls in a row through main's one parser
        for i in range(2):
            dest = tmp_path / f"{name}-{command}-{i}.json"
            code, _, _ = run(capsys, command, str(bundle_path(name)), "--out", str(dest))
            assert code == 0
            assert result_sha256(dest) == digest

    @pytest.mark.parametrize("name,code,digest", [
        ("prop5_ell5", 2,
         "59047e546ff9b4306dffb0a699762be8b4625d93952283a25492979e801f2628"),
        ("q8_split_ell5", 0, Q8_DESCEND_SHA256),
        ("remark4_ell7", 0,
         "d85101cf0e6899e330dca9b06e5682bf565b08066aef1652d8529b1a1a2a5f65"),
        ("z4_hermitian_inert_ell7", 0,
         "99ee577993498bd5089e21169a56c8918e1e09a50d2a793ebc7face9faf79744"),
    ])
    def test_descend_results(self, capsys, tmp_path, name, code, digest):
        # the canonical descend result block of every committed bundle, byte
        # for byte, on two calls in a row through main's one parser
        # (block_b3xb2_q5 is pinned by test_large_block_bundle_result)
        for i in range(2):
            dest = tmp_path / f"{name}-descend-{i}.json"
            assert run(capsys, "descend", str(bundle_path(name)),
                       "--out", str(dest))[0] == code
            assert result_sha256(dest) == digest

    def test_descend_result_fields(self, capsys):
        _, out, _ = run(capsys, "descend", str(bundle_path("z4_hermitian_inert_ell7")))
        result = parse_report(out)["result"]
        for key in ("field", "group_order", "image_order", "scale_power",
                    "chain_steps", "invariant_exponents", "block_dims",
                    "block_kinds", "lattice_basis", "dual_basis",
                    "reduced_form_gram", "reduced_generators",
                    "charpoly_table", "charpoly_table_mod_lambda",
                    "charpoly_classes", "kernel_explanations", "certificates"):
            assert key in result, key
        assert result["block_kinds"] == ["hermitian", "hermitian"]

    @pytest.mark.parametrize("name", sorted(p.stem for p in BUNDLE_DIR.glob("*.json")))
    def test_charpoly_rows_match_descend(self, capsys, tmp_path, name):
        # the census reduces each charpoly over K, descend takes the charpoly
        # of the reduced action over k; z4 is one-dimensional over F_49, where
        # Berkowitz's recursion ends at its 1 x 1 case
        census, descended = tmp_path / "charpoly.json", tmp_path / "descend.json"
        assert run(capsys, "charpoly", str(bundle_path(name)), "--out", str(census))[0] == 0
        run(capsys, "descend", str(bundle_path(name)), "--out", str(descended))
        rows = json.loads(census.read_text())["result"]["rows"]
        result = json.loads(descended.read_text())["result"]
        assert len(rows) == len(result["charpoly_table"]) == result["group_order"]
        for i, row in enumerate(rows):
            assert row["element_index"] == i
            assert row["charpoly"] == result["charpoly_table"][i]
            assert row["charpoly_mod_lambda"] == result["charpoly_table_mod_lambda"][i]
            assert None not in row["charpoly_mod_lambda"]


class TestLoader:
    def test_load_bundle_roundtrip(self):
        rep, opts = load_bundle(str(bundle_path("q8_split_ell5")))
        assert rep.order == 8
        assert opts["max_group_order"] == 100000

    def test_former_precision_start_option_is_ignored(self, capsys, tmp_path):
        # the committed bundles still carry it; unread option keys are ignored
        bundle = minimal_bundle()
        bundle["options"] = {"precision_start": 200000}
        p = tmp_path / "precision.json"
        p.write_text(json.dumps(bundle))
        rep, opts = load_bundle(str(p))
        assert opts == {"max_group_order": 100000}
        assert run(capsys, "descend", str(p))[0] == 0

    def test_flag_overrides(self):
        from isodescent.errors import GroupTooLarge
        with pytest.raises(GroupTooLarge):
            load_bundle(str(bundle_path("q8_split_ell5")), max_group_order=5)

    def test_generator_shape_checked(self, tmp_path):
        bundle = minimal_bundle()
        bundle["generators"] = [[["1", "0"]]]
        p = tmp_path / "badgen.json"
        p.write_text(json.dumps(bundle))
        with pytest.raises(BundleFormatError):
            load_bundle(str(p))

    def test_unknown_kind_rejected(self, tmp_path):
        bundle = minimal_bundle()
        bundle["form"]["kind"] = "quadratic"
        p = tmp_path / "badkind.json"
        p.write_text(json.dumps(bundle))
        with pytest.raises(BundleFormatError):
            load_bundle(str(p))


class TestCachedParser:
    def test_parser_keeps_no_state_between_calls(self, capsys, tmp_path):
        # main builds its parser once per process; a refused call must leave
        # nothing behind for the next one
        assert cli._build_parser() is cli._build_parser()
        assert main(["verify", "lemma"]) == 1
        assert main(["verify", "lemma", "--ell", "5",
                     "--out", str(tmp_path / "lemma.json")]) == 0
        q8 = str(bundle_path("q8_split_ell5"))
        assert run(capsys, "descend", q8, "--max-group-order", "4")[0] == 1
        dest = tmp_path / "q8.json"
        assert run(capsys, "descend", q8, "--out", str(dest))[0] == 0
        assert result_sha256(dest) == Q8_DESCEND_SHA256
