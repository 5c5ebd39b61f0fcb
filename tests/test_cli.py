import argparse
import json
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sporbits
from sporbits import cli, groebner, symplectic
from sporbits.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION_FAILED,
    main,
)
from sporbits.involutions import FpfInvolution
from sporbits.orders import FIELD_MASK


#: small arbitrary JSON values
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def exit_code(argv):
    """main's exit code, or argparse's when it exits on a usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestEnumerate:
    def test_2n4(self, capsys):
        code, blob = run_json(capsys, "enumerate", "--n", "2")
        assert code == EXIT_OK
        assert blob["count"] == 3
        assert sorted(blob["involutions"]) == [
            [2, 1, 4, 3],
            [3, 4, 1, 2],
            [4, 3, 2, 1],
        ]

    def test_deterministic(self, capsys):
        _, first = run(capsys, "enumerate", "--n", "3")
        _, second = run(capsys, "enumerate", "--n", "3")
        assert first == second

    def test_over_cap_is_usage_error(self, capsys):
        assert main(["enumerate", "--n", "7"]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err
        assert main(["verify-all", "--n", "7"]) == EXIT_USAGE
        # the Hasse diagram stops at n = 5 and refuses before listing anything
        for fmt in ("json", "dot"):
            start = time.process_time()
            assert main(["poset", "--n", "6", "--format", fmt]) == EXIT_USAGE
            assert time.process_time() - start < 1
            captured = capsys.readouterr()
            assert captured.out == "" and "Hasse diagram bound 5" in captured.err


class TestPoset:
    def test_json_edges(self, capsys):
        code, blob = run_json(capsys, "poset", "--n", "2")
        assert code == EXIT_OK
        assert [[4, 3, 2, 1], [3, 4, 1, 2]] in blob["edges_lower_to_upper"]

    def test_dot(self, capsys):
        code, out = run(capsys, "poset", "--n", "2", "--format", "dot")
        assert code == EXIT_OK
        assert out.startswith("digraph")

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_json_edges_are_the_dot_edges(self, capsys, n):
        code, blob = run_json(capsys, "poset", "--n", str(n))
        assert code == EXIT_OK
        code, out = run(capsys, "poset", "--n", str(n), "--format", "dot")
        assert code == EXIT_OK
        arrows = [line.strip(" ;").split(" -> ") for line in out.splitlines() if " -> " in line]
        dot = [[FpfInvolution.from_any(name.strip('"')).to_json() for name in pair] for pair in arrows]
        assert dot == blob["edges_lower_to_upper"]
        assert len(dot) > 0 or n == 1


class TestWiringAndBoxes:
    def test_wiring(self, capsys):
        code, out = run(capsys, "wiring", "--iota", "2143")
        assert code == EXIT_OK
        assert "word: 2,1,4,3" in out

    def test_boxes(self, capsys):
        code, blob = run_json(capsys, "boxes", "--iota", "216543")
        assert code == EXIT_OK
        assert blob["symplectic_essential_boxes"] == [[3, 5, 2]]
        assert blob["odd_rank_constraint_holds"] is True

    def test_bad_iota_is_usage_error(self, capsys):
        code = main(["boxes", "--iota", "1234"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "command",
        ["wiring", "boxes", "basics", "pairperms", "orbit-ideal", "verify-km", "verify-degeneration"],
    )
    def test_empty_word_is_usage_error(self, capsys, command):
        flag = "--pi" if command == "verify-km" else "--iota"
        assert main([command, flag, ""]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: empty word\n"


class TestBasicsAndPairperms:
    def test_basics(self, capsys):
        code, blob = run_json(capsys, "basics", "--iota", "351624")
        assert code == EXIT_OK
        assert blob["glb_matches"] is True
        assert blob["glb"] == [3, 5, 1, 6, 2, 4]
        assert len(blob["decomposition"]) == 2

    def test_basics_at_2n_12(self, capsys):
        # the rank rule decides the meet without listing the 10,395
        # involutions at n = 6, so the enumeration bound does not apply
        word = "4,3,2,1,6,5,8,7,10,9,12,11"
        code, blob = run_json(capsys, "basics", "--iota", word)
        assert code == EXIT_OK
        assert blob["glb_matches"] is True
        assert blob["glb"] == [int(v) for v in word.split(",")]

    def test_pairperms(self, capsys):
        code, blob = run_json(capsys, "pairperms", "--iota", "4321")
        assert code == EXIT_OK
        assert blob["length"] == 2
        assert sorted(blob["pair_permutations"]) == [[1, 3, 4, 2], [3, 1, 2, 4]]


class TestContract:
    """Any input to the combinatorial commands exits 0 or 2, with no
    traceback, and a usage error writes nothing to stdout."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        argv=st.builds(
            lambda command, fmt, n: [command, f"--n={n}", "--format", fmt],
            st.sampled_from(["enumerate", "poset"]),
            st.sampled_from(["json", "dot"]),
            st.integers(-2, 8),
        )
        | st.builds(
            lambda command, iota: [command, f"--iota={iota}"],
            st.sampled_from(["boxes", "wiring", "basics", "pairperms"]),
            st.sampled_from(["21", "4321", "351624", "2,1,4,3,6,5,9,10,7,8", "4,3,2,1,6,5,8,7,10,9,12,11"])
            | st.text(alphabet="0123456789, ", max_size=14)
            | st.text(max_size=8),
        )
    )
    def test_any_input_ends_in_a_contract_exit(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        captured = capsys.readouterr()
        assert code in (EXIT_OK, EXIT_USAGE)
        assert "Traceback" not in captured.err
        assert code == EXIT_OK or captured.out == ""

    # words and counts small enough that every example stays fast: free text
    # of at most 5 characters is a word of size at most 5
    _WORDS = st.sampled_from(["21", "4321", "3412", "351624", "216543", "2,1,4,3"]) | st.text(
        alphabet="0123456789, ", max_size=5
    ) | st.text(max_size=4)
    _PERMS = st.sampled_from(["1", "2143", "15432", "3,1,2", "54321"]) | st.text(alphabet="0123456789, ", max_size=5)
    _CAPS = st.lists(
        st.sampled_from(["--deep", "--max-pairs=-1", "--max-pairs=0", "--max-pairs=3", "--max-degree=2", "--max-seconds=nan"]),
        max_size=2,
    )
    _MATRICES = st.lists(
        st.lists(st.sampled_from(["0", "1", "-1", "2", "1/2", "1/0", "x", 3, None]), min_size=0, max_size=4),
        max_size=4,
    ) | _JSON

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        argv=st.builds(
            lambda command, word, fmt, caps: [command, f"--iota={word}", "--format", fmt, *caps],
            st.sampled_from(["verify-degeneration", "orbit-ideal"]),
            _WORDS,
            st.sampled_from(["json", "text"]),
            _CAPS,
        )
        | st.builds(lambda word, caps: ["verify-km", f"--pi={word}", *caps], _PERMS, _CAPS)
        | st.builds(
            lambda n, samples, caps: ["verify-all", f"--n={n}", f"--samples={samples}", *caps],
            st.integers(-2, 3),
            st.integers(-1, 2),
            _CAPS,
        )
        | st.builds(lambda rows: ["classify", rows], _MATRICES),
    )
    def test_any_verifier_input_ends_in_a_contract_exit(self, capsys, tmp_path, argv):
        if argv[0] == "classify":
            path = tmp_path / "matrix.json"
            path.write_text(json.dumps(argv[1]))
            argv = ["classify", "--matrix", str(path)]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        captured = capsys.readouterr()
        assert code in (EXIT_OK, EXIT_VERIFICATION_FAILED, EXIT_USAGE, EXIT_BUDGET)
        assert "Traceback" not in captured.err
        assert code != EXIT_VERIFICATION_FAILED or argv[0] in ("verify-km", "verify-degeneration", "verify-all")
        assert code != EXIT_USAGE or captured.out == ""
        # exit 1 means a verifier said no, never that a budget ran out
        if argv[0] == "verify-all" and code == EXIT_VERIFICATION_FAILED:
            assert json.loads(captured.out)["failures"]


class TestGroebner:
    def test_ideal_file(self, capsys, tmp_path):
        blob = {
            "variables": ["x", "y"],
            "generators": ["x^2 - 1", "x*y - 1"],
        }
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(blob))
        code, blob = run_json(capsys, "groebner", "--ideal", str(path), "--order", "lex")
        assert code == EXIT_OK
        assert sorted(blob["reduced_basis"]) == ["x-y", "y^2-1"]

    @pytest.mark.parametrize("order", ["lex", "grevlex"])
    def test_overflowing_lcm_is_usage_error(self, capsys, tmp_path, order):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"variables": ["x", "y"], "generators": ["x^20000*y", "x*y^20000"]}))
        assert main(["groebner", "--ideal", str(path), "--order", order]) == EXIT_USAGE
        assert "overflows" in capsys.readouterr().err

    def test_missing_generators_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"variables": ["x", "y"]}))
        assert main(["groebner", "--ideal", str(path)]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "blob",
        [
            {"matrix_size": "abc", "generators": ["m[1,1]"]},
            {"matrix_size": 13, "generators": ["m[1,1]"]},
            {"matrix_size": 0, "generators": []},
            {"variables": ["x", 1], "generators": ["x"]},
            {"variables": "xy", "generators": ["x"]},
            {"variables": ["x"], "generators": [1]},
            {"variables": ["x"], "generators": ["1/0*x"]},
        ],
        ids=["size-not-int", "size-over-cap", "size-zero", "variable-not-str",
             "variables-not-list", "generator-not-str", "generator-zero-denominator"],
    )
    def test_malformed_ideal_is_usage_error(self, capsys, tmp_path, blob):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(blob))
        assert main(["groebner", "--ideal", str(path)]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        blob=st.fixed_dictionaries(
            {
                "variables": st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=3, unique=True),
                "generators": st.lists(st.sampled_from(["x^2-y", "x*y - 1", "y*z^2-x", "2/3*x", "1", "0", "x+"]), max_size=3),
            },
            optional={"matrix_size": st.integers(-1, 13)},
        )
        | st.fixed_dictionaries(
            {
                "matrix_size": st.integers(-1, 13),
                "generators": st.lists(st.sampled_from(["m[1,1]^2", "m[1,2]*m[2,1]-1", "m[2,2]", "1/0"]), max_size=3),
            }
        )
        | st.fixed_dictionaries({}, optional={key: _JSON for key in ("variables", "generators", "matrix_size")})
    )
    def test_any_ideal_file_ends_in_a_contract_exit(self, capsys, tmp_path, blob):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(blob))
        code = main(["groebner", "--ideal", str(path), "--max-seconds", "2"])
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_BUDGET)
        capsys.readouterr()

    @pytest.mark.parametrize(
        "generators, flags",
        [([f"x^{FIELD_MASK + 1} - y"], []), ([f"x - y^{FIELD_MASK}", "x^2"], ["--max-degree", str(2 * FIELD_MASK)])],
        ids=["term", "product"],
    )
    def test_over_wide_exponent_is_usage_error(self, capsys, tmp_path, generators, flags):
        # a term, or a product during reduction, that overflows its key field
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"variables": ["x", "y"], "generators": generators}))
        assert main(["groebner", "--ideal", str(path), *flags]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_budget_exit_code(self, capsys, tmp_path):
        blob = {"variables": ["x", "y"], "generators": ["x^3 - 2*x*y", "x^2*y - 2*y^2 + x"]}
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(blob))
        code, blob = run_json(
            capsys, "groebner", "--ideal", str(path), "--max-pairs", "1"
        )
        assert code == EXIT_BUDGET
        assert blob["budget_exhausted"]

    @pytest.mark.parametrize("command", ["verify-km", "groebner"])
    def test_budget_exit_in_text_format(self, capsys, tmp_path, command):
        # every budget exit is written by main, in the format asked for
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"variables": ["x", "y"], "generators": ["x^2 - y", "x*y - 1"]}))
        argv = {"verify-km": ["--pi", "54321"], "groebner": ["--ideal", str(path)]}[command]
        assert main([command, *argv, "--max-pairs", "0", "--format", "text"]) == EXIT_BUDGET
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "budget_exhausted: pair cap" and lines[1].startswith("stats: {'pairs_processed': ")


class TestOrbitIdealAndClassify:
    def test_orbit_ideal(self, capsys):
        code, blob = run_json(capsys, "orbit-ideal", "--iota", "4321")
        assert code == EXIT_OK
        assert len(blob["generators"]) == 2

    def test_orbit_ideal_456123(self, capsys):
        code, blob = run_json(capsys, "orbit-ideal", "--iota", "456123")
        assert code == EXIT_OK
        assert len(blob["generators"]) == 3

    @pytest.mark.parametrize("command", ["orbit-ideal", "verify-degeneration"])
    @pytest.mark.parametrize(
        "word",
        [
            # box (9,10,8): pf(1..10) would expand to C(6,5) * 10! terms
            "2,1,4,3,6,5,8,7,11,12,9,10",
            # box (8,10,6): pfaffians of 8 x 8 and 10 x 10 on {1..10}
            "2,1,4,3,6,5,11,12,10,9,7,8",
            # 4321 padded to 2n = 14, above the size cap
            "4,3,2,1,6,5,8,7,10,9,12,11,14,13",
        ],
    )
    def test_oversize_orbit_ideal_refused_before_expanding(self, capsys, command, word):
        start = time.process_time()
        assert main([command, "--iota", word]) == EXIT_USAGE
        assert time.process_time() - start < 1.0
        assert capsys.readouterr().err.startswith("error:")

    def test_out_of_memory_is_budget_exit(self, capsys, monkeypatch):
        def exhaust(iota):
            raise MemoryError

        monkeypatch.setattr(cli, "orbit_ideal", exhaust)
        assert main(["orbit-ideal", "--iota", "2143"]) == EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.out == '{\n  "budget_exhausted": "memory",\n  "stats": {}\n}\n'
        assert captured.err == ""

    def test_out_of_memory_while_writing_the_report(self, capsys, monkeypatch):
        # the report is written after the handler ends: within it, the
        # traceback's frames still hold the failed call's memory
        def exhaust(iota):
            raise MemoryError

        dumps = json.dumps

        def dumps_out_of_memory_while_handling(*args, **kwargs):
            if sys.exc_info()[0] is not None:
                raise MemoryError
            return dumps(*args, **kwargs)

        monkeypatch.setattr(cli, "orbit_ideal", exhaust)
        monkeypatch.setattr(json, "dumps", dumps_out_of_memory_while_handling)
        assert main(["orbit-ideal", "--iota", "2143"]) == EXIT_BUDGET
        assert capsys.readouterr().out == '{\n  "budget_exhausted": "memory",\n  "stats": {}\n}\n'

    def test_out_of_memory_in_text_format(self, capsys, monkeypatch):
        # written like a budget exit, in the format asked for
        def exhaust(iota):
            raise MemoryError

        monkeypatch.setattr(cli, "orbit_ideal", exhaust)
        assert main(["orbit-ideal", "--iota", "2143", "--format", "text"]) == EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.out == "budget_exhausted: memory\nstats: {}\n"
        assert captured.err == ""

    def test_classify(self, capsys, tmp_path):
        rows = [
            ["1", "0", "0", "0"],
            ["0", "1", "0", "0"],
            ["0", "0", "1", "0"],
            ["0", "0", "0", "1"],
        ]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(rows))
        code, blob = run_json(capsys, "classify", "--matrix", str(path))
        assert code == EXIT_OK
        assert blob["iota"] == [2, 1, 4, 3]

    def test_classify_zero_denominator_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([["1/0", "0"], ["0", "1"]]))
        assert main(["classify", "--matrix", str(path)]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [["01", "10"], [["0", "1"], "10"], {"01": "10"}, "0110"])
    def test_classify_row_that_is_no_list_is_usage_error(self, capsys, tmp_path, rows):
        # a string row would be read digit by digit
        path = tmp_path / "m.json"
        path.write_text(json.dumps(rows))
        assert main(["classify", "--matrix", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert "must be a JSON list of row lists" in captured.err


class TestDeepJson:
    @pytest.mark.parametrize(
        "argv",
        [["classify", "--matrix", "{}"], ["groebner", "--ideal", "{}"], ["--config", "{}", "enumerate", "--n", "2"]],
        ids=["matrix", "ideal", "config"],
    )
    def test_deeply_nested_json_is_usage_error(self, capsys, tmp_path, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        try:
            code = main([arg.format(path) for arg in argv])
        except SystemExit as exc:  # a bad --config is reported by argparse
            code = exc.code
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err


class TestVerifiers:
    def test_verify_km(self, capsys):
        code, blob = run_json(capsys, "verify-km", "--pi", "2143")
        assert code == EXIT_OK
        assert blob["groebner_basis"] is True

    def test_verify_km_takes_a_comma_list(self, capsys):
        digits = run(capsys, "verify-km", "--pi", "132")
        assert digits[0] == EXIT_OK
        assert run(capsys, "verify-km", "--pi", "1,3,2") == digits
        code, blob = run_json(capsys, "verify-km", "--pi", "10,9,8,7,6,5,4,3,2,1")
        assert code == EXIT_OK
        assert blob["groebner_basis"] is True

    @pytest.mark.parametrize(
        "word",
        [
            # box (11,11,10): one 11 x 11 minor of 11! terms
            "1,2,3,4,5,6,7,8,9,10,12,11",
            # above the size cap
            "13,12,11,10,9,8,7,6,5,4,3,2,1",
        ],
    )
    def test_oversize_verify_km_refused_before_expanding(self, capsys, word):
        start = time.process_time()
        assert main(["verify-km", "--pi", word]) == EXIT_USAGE
        assert time.process_time() - start < 1.0
        assert capsys.readouterr().err.startswith("error:")

    def test_non_permutation_iota_is_usage_error(self, capsys):
        assert main(["boxes", "--iota", "2,1,4,4"]) == EXIT_USAGE
        assert "not a permutation of 1..4" in capsys.readouterr().err

    def test_verify_degeneration(self, capsys):
        code, blob = run_json(capsys, "verify-degeneration", "--iota", "4321")
        assert code == EXIT_OK
        assert blob["equal"] is True

    def test_verify_degeneration_budget(self, capsys):
        code, blob = run_json(
            capsys, "verify-degeneration", "--iota", "4321", "--max-pairs", "0"
        )
        assert code == EXIT_BUDGET
        assert blob["equal"] is None

    def test_verify_degeneration_time_cap_stops_the_pfaffian_expansion(self, capsys, monkeypatch):
        # the verifier's clock moves 1,000 s a reading, so the cap of 600 s
        # passes once the first of 7,3,2,10,9,8,1,6,5,4's 47 pfaffians (its
        # 1,170,050 terms) is written, before any Groebner step
        ticks = iter(range(0, 10**9, 1000))
        monkeypatch.setattr(groebner, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
        start = time.process_time()
        code, blob = run_json(capsys, "verify-degeneration", "--iota", "7,3,2,10,9,8,1,6,5,4")
        assert time.process_time() - start < 5.0
        assert code == EXIT_BUDGET
        assert blob["equal"] is None
        assert blob["budget_exhausted"] == "time cap: {'pfaffians_written': 1, 'pfaffians': 47}"
        assert blob["left_initial_generators"] == [] and blob["timings"] == {}

    def test_verify_degeneration_time_cap_in_the_certificate(self, capsys, monkeypatch):
        # the clock passes the cap once G_L is computed, so the
        # certificate's first check stops it: no verdict, exit 3
        now = [0.0]
        monkeypatch.setattr(groebner, "time", SimpleNamespace(monotonic=lambda: now[0]))
        initial_basis = symplectic.keyed_initial_basis

        def late_initial_basis(*args):
            out = initial_basis(*args)
            now[0] = 1000.0
            return out

        monkeypatch.setattr(symplectic, "keyed_initial_basis", late_initial_basis)
        code, blob = run_json(capsys, "verify-degeneration", "--iota", "216543")
        assert code == EXIT_BUDGET
        assert blob["equal"] is None
        assert blob["budget_exhausted"] == "time cap: {'pfaffians_written': 2, 'pfaffians': 2, 'pair_permutations_checked': 0}"
        assert blob["left_initial_generators"] == [] and blob["right_initial_generators"] == []
        assert list(blob["timings"]) == ["left_seconds"]

    def test_verify_degeneration_time_cap_in_the_intersection(self, capsys, monkeypatch):
        # 215634 has one pair permutation, so the intersection for A is the
        # last step that reads the clock; the clock passes the cap as it
        # starts, and the intersection's own check stops the run
        now = [0.0]
        monkeypatch.setattr(groebner, "time", SimpleNamespace(monotonic=lambda: now[0]))
        minimal = symplectic._minimal

        def late_minimal(*args):
            now[0] = 1000.0
            return minimal(*args)

        monkeypatch.setattr(symplectic, "_minimal", late_minimal)
        code, blob = run_json(capsys, "verify-degeneration", "--iota", "215634")
        assert code == EXIT_BUDGET
        assert blob["equal"] is None
        assert blob["budget_exhausted"] == "time cap: {'pfaffians_written': 1, 'pfaffians': 1, 'pair_permutations_checked': 0}"
        assert list(blob["timings"]) == ["left_seconds"]

    @pytest.mark.parametrize(
        "cap",
        [["--max-seconds", "nan"], ["--max-seconds", "inf"], ["--max-seconds", "-1"], ["--max-pairs", "-1"], ["--max-degree", "-1"]],
        ids=["nan", "inf", "negative-seconds", "negative-pairs", "negative-degree"],
    )
    @pytest.mark.parametrize("command", [["verify-km", "--pi", "321"], ["verify-all", "--n", "1"]])
    def test_unusable_cap_is_usage_error(self, capsys, command, cap):
        # nan compares false with everything, so it would lift the cap; a
        # negative cap would stop at once and blame the cap
        assert main([*command, *cap]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {cap[0]} must be finite")

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-1"])
    def test_unusable_cap_in_config_is_usage_error(self, capsys, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"max_seconds": {value}}}')
        assert main(["--config", str(cfg), "verify-km", "--pi", "321"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: --max-seconds must be finite")

    def test_verify_all_small(self, capsys):
        code, blob = run_json(
            capsys, "verify-all", "--n", "2", "--samples", "3", "--seed", "1"
        )
        assert code == EXIT_OK
        assert blob["failures"] == []
        names = [row[0] for row in blob["checks"]]
        assert "length_formula_2n=4" in names
        assert "degeneration_4321" in names

    def test_verify_all_budget_row_is_no_failure(self, capsys):
        # running out of budget is null and exit 3, never a failed check
        code, blob = run_json(capsys, "verify-all", "--n", "1", "--samples", "1", "--max-pairs", "0")
        assert code == EXIT_BUDGET
        assert blob["failures"] == []
        rows = {name: (ok, detail) for name, ok, detail in blob["checks"]}
        assert rows["degeneration_4321"][0] is None
        assert rows["degeneration_4321"][1].startswith("pair cap: ")

    def test_verify_all_every_check_at_every_size(self, capsys):
        code, blob = run_json(capsys, "verify-all", "--n", "5", "--samples", "2")
        assert code == EXIT_OK
        assert blob["failures"] == []
        per_size = [row[0] for row in blob["checks"]][:20]
        assert per_size == [
            f"{name}_2n={size}"
            for size in (2, 4, 6, 8, 10)
            for name in ("length_formula", "odd_rank_constraint", "basic_decomposition", "pair_permutation_length")
        ]

    @pytest.mark.parametrize("flag,value", [("n", 0), ("n", -1), ("samples", 0), ("samples", -1)])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_verify_all_that_would_run_nothing_is_usage_error(self, capsys, tmp_path, flag, value, source):
        # --n 0 runs no per-size check and --samples 0 no classification sample
        argv = ["verify-all", f"--{flag}", str(value)]
        if source == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag: value}))
            argv = ["--config", str(cfg), "verify-all"]
        start = time.process_time()
        assert main(argv) == EXIT_USAGE
        assert time.process_time() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: --{flag} must be at least 1\n"

    def test_verify_all_readme_example(self, capsys):
        # the README example: every row, in order
        code, blob = run_json(
            capsys, "verify-all", "--n", "3", "--seed", "7", "--samples", "20"
        )
        assert code == EXIT_OK
        names = [
            "length_formula_2n=2",
            "odd_rank_constraint_2n=2",
            "basic_decomposition_2n=2",
            "pair_permutation_length_2n=2",
            "length_formula_2n=4",
            "odd_rank_constraint_2n=4",
            "basic_decomposition_2n=4",
            "pair_permutation_length_2n=4",
            "length_formula_2n=6",
            "odd_rank_constraint_2n=6",
            "basic_decomposition_2n=6",
            "pair_permutation_length_2n=6",
            "degeneration_2143",
            "degeneration_3412",
            "degeneration_4321",
            "classification_invariance_2n=4",
        ]
        assert blob == {"checks": [[name, True, ""] for name in names], "failures": []}


class TestConfig:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2}))
        code, blob = run_json(capsys, "--config", str(cfg), "verify-all", "--samples", "2")
        assert code == EXIT_OK
        assert not any(name.endswith("2n=6") for name, *_ in blob["checks"])

    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3}))
        code, blob = run_json(
            capsys, "--config", str(cfg), "verify-all", "--n", "2", "--samples", "2"
        )
        assert code == EXIT_OK
        assert not any(name.endswith("2n=6") for name, *_ in blob["checks"])

    def test_bad_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        with pytest.raises(SystemExit):
            main(["--config", str(cfg), "enumerate", "--n", "2"])

    def test_config_list_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([1, 2]))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "enumerate", "--n", "2"])
        assert exc.value.code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg",
        [{"samples": [1]}, {"n": True}, {"max_pairs": 1.5}, {"deep": "yes"}, {"seed": {"a": 1}}, {"format": "xml"}],
        ids=["list", "bool-for-int", "float-for-int", "string-for-flag", "dict", "outside-choices"],
    )
    def test_config_value_of_wrong_kind_is_usage_error(self, capsys, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(path), "verify-all", "--n", "1"])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: bad config file" in err and "Traceback" not in err

    def test_config_values_of_the_right_kind(self, capsys, tmp_path):
        # an int for a float option, a bool for a flag, a string converted by
        # argparse; keys that name no option, "func" among them, are ignored
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_seconds": 60, "deep": False, "n": "1", "func": 1, "other": [1]}))
        code, blob = run_json(capsys, "--config", str(cfg), "verify-all", "--samples", "1")
        assert code == EXIT_OK
        assert not any(name.endswith("2n=4") and not name.startswith("classification") for name, *_ in blob["checks"])

    def test_no_config_value_outlives_its_run(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "text", "max_pairs": 0, "n": 1}))
        for argv in (["enumerate", "--n", "2"], ["verify-km", "--pi", "321"]):
            plain = run(capsys, *argv)
            assert run(capsys, "--config", str(cfg), *argv) != plain
            assert run(capsys, *argv) == plain

    @pytest.mark.parametrize(
        "argv,code",
        [(["verify-all"], EXIT_USAGE), (["verify-all", "--n", "1", "--samples", "1"], EXIT_OK), (["verify-km", "--pi", "21"], EXIT_OK)],
        ids=["converted", "flag-given", "no-such-option"],
    )
    def test_config_string_converted_only_when_used(self, capsys, tmp_path, argv, code):
        # "x" is no int, but it is converted only where --n takes it from the config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "x"}))
        assert exit_code(["--config", str(cfg), *argv]) == code
        assert "Traceback" not in capsys.readouterr().err

    def test_required_option_never_comes_from_the_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iota": "2143"}))
        assert exit_code(["--config", str(cfg), "boxes"]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_hyphenated_key_names_the_option(self, capsys, tmp_path):
        outputs = []
        for key in ("max-pairs", "max_pairs"):
            cfg = tmp_path / f"{key}.json"
            cfg.write_text(json.dumps({key: 0}))
            outputs.append(run(capsys, "--config", str(cfg), "verify-km", "--pi", "321"))
        assert outputs[0] == outputs[1] and outputs[0][0] == EXIT_BUDGET

    def test_main_builds_no_parser(self, capsys, monkeypatch):
        # the parser is built once, when the module is imported
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args or kwargs)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["enumerate", "--n", "2"]) == EXIT_OK
        assert main(["verify-km", "--pi", "21"]) == EXIT_OK
        assert built == []

    def test_importing_the_package_leaves_the_cli_out(self):
        # the parser is built by `sporbits.cli` alone, so `import sporbits` pays nothing for it
        code = "import sys, sporbits; print(sorted({'argparse', 'sporbits.cli'} & set(sys.modules)))"
        src = os.path.dirname(os.path.dirname(sporbits.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert out.stdout == "[]\n"
