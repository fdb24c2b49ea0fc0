"""Command-line surface: parsing, JSON output, exit codes, reproducibility."""

import hashlib
import json
import sys
from fractions import Fraction

import pytest

from dagiso import cli, randomized
from dagiso.cli import main

CHAIN = {"n": 3, "edges": [[0, 1], [1, 2]]}
FORK = {"n": 3, "edges": [[0, 1], [0, 2]]}
COLLIDER = {"n": 3, "edges": [[0, 2], [1, 2]]}
SINGULAR_LIMIT = {"mat": [[1, 0, 1, 0], [0, 1, 0, 1],
                          [1, 0, 1, 0], [0, 1, 0, 1]]}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, payload in (("chain", CHAIN), ("fork", FORK),
                          ("collider", COLLIDER), ("sigma", SINGULAR_LIMIT)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


class TestIsoCommand:
    def test_yes_exit_zero(self, capsys, files):
        code, payload, _ = run(capsys, ["iso", files["chain"], files["fork"],
                                        "--m", "5"])
        assert code == 0
        assert payload["answer"] == "yes"
        assert payload["params"]["m"] == 5

    def test_no_exit_one(self, capsys, files):
        code, payload, _ = run(capsys, ["iso", files["chain"],
                                        files["collider"]])
        assert code == 1
        assert payload["answer"] == "no"

    def test_eps_drives_round_count(self, capsys, files):
        code, payload, _ = run(capsys, ["iso", files["chain"], files["fork"],
                                        "--eps", "1/1000000000000"])
        assert code == 0
        assert payload["params"]["m"] >= 2

    @pytest.mark.parametrize("command", ["iso", "equiv"])
    def test_eps_certificate_uses_the_pairs_degree(self, capsys, files,
                                                   tmp_path, command):
        # a chain against a single edge: |E| + |E'| + 2n = 2 + 1 + 6 = 9
        edge = tmp_path / "edge.json"
        edge.write_text(json.dumps({"n": 3, "edges": [[0, 1]]}))
        _, payload, _ = run(capsys, [command, files["chain"], str(edge),
                                     "--eps", "1"])
        assert payload["params"]["d_bound"] == 9
        assert payload["certificate"]["failure_bound"] == (
            "60/1073741819" if command == "iso" else "10/1073741819")

    @pytest.mark.parametrize("command", ["iso", "equiv"])
    def test_eps_with_unequal_node_counts_is_a_no(self, capsys, files,
                                                  tmp_path, command):
        # the larger graph has more edges than two nodes can hold; the
        # round count is sized for it, and the answer is a structural no
        edge = tmp_path / "edge.json"
        edge.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
        code, payload, _ = run(capsys, [command, str(edge), files["chain"],
                                        "--eps", "1e-6"])
        assert code == 1
        assert payload["answer"] == "no"

    @pytest.mark.parametrize("command", ["iso", "equiv"])
    def test_eps_exponent_past_the_digit_limit_exit_two(self, capsys, files,
                                                        command):
        # Fraction would build 10**1000000 and the round search would run
        # for minutes; the exponent obeys the digit limit of JSON integers
        code, payload, err = run(capsys, [command, files["chain"],
                                          files["fork"], "--eps", "1e-1000000"])
        assert code == 2 and payload is None
        assert json.loads(err)["error"] == "InputError"

    @pytest.mark.parametrize("command", ["iso", "equiv"])
    @pytest.mark.parametrize("rounds", [["--m", "500"], ["--eps", "1e-4300"]])
    def test_certificate_past_the_digit_limit_exit_two_before_any_draw(
            self, capsys, files, monkeypatch, command, rounds):
        # its decimal numerator and denominator could not be printed
        draws = []
        real = randomized._draw
        monkeypatch.setattr(randomized, "_draw", lambda *args: draws.append(
            args) or real(*args))
        code = main([command, files["chain"], files["chain"], *rounds])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and draws == []
        assert json.loads(captured.err)["error"] == "InputError"

    @pytest.mark.parametrize("command, digest", [
        ("iso",
         "108e231eadd454765139590ff55311cb13e29837b229ea6e84118d55ca3bad5d"),
        ("equiv",
         "095a317379d46df5bc51185737301646c5a966959823a7eb6a052b10292cb654")])
    def test_certificate_within_the_digit_limit_prints(self, capsys, files,
                                                       command, digest):
        assert main([command, files["chain"], files["chain"],
                     "--m", "400"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("command", ["iso", "equiv"])
    def test_composite_modulus_past_two_to_the_64_exit_two(self, capsys,
                                                           files, command):
        # a strong pseudoprime to every Miller-Rabin base up to 37
        code, payload, err = run(capsys, [
            command, files["chain"], files["fork"],
            "--q", "3317044064679887385961981"])
        assert code == 2 and payload is None
        assert json.loads(err)["error"] == "FieldArithmeticError"

    def test_unwritable_out_prints_no_verdict(self, capsys, files, tmp_path):
        # --out names a directory: the file is written before the verdict
        # is printed, so the failed run prints nothing to stdout
        code = main(["iso", files["chain"], files["chain"],
                     "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert json.loads(captured.err)["error"]

    def test_node_guard_exit_two_before_the_colour_precheck(self, capsys,
                                                              tmp_path):
        # a chain and a collider on 13 nodes: their colours differ, but
        # the guard still answers first
        paths = []
        for name, edges in (("chain", [[0, 1], [1, 2]]),
                            ("collider", [[0, 2], [1, 2]])):
            paths.append(tmp_path / f"{name}13.json")
            paths[-1].write_text(json.dumps({"n": 13, "edges": edges}))
        code, payload, err = run(capsys, ["iso", *map(str, paths)])
        assert code == 2 and payload is None
        assert json.loads(err)["error"] == "ParameterError"

    def test_same_seed_byte_identical(self, capsys, files):
        main(["iso", files["chain"], files["fork"], "--seed", "4"])
        first = capsys.readouterr().out
        main(["iso", files["chain"], files["fork"], "--seed", "4"])
        second = capsys.readouterr().out
        assert first == second

    def test_bad_file_exit_two(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.json")
        code, _, err = run(capsys, ["iso", missing, missing])
        assert code == 2
        assert json.loads(err)["error"]

    @pytest.mark.parametrize("text", [
        '{"n": 1' + "0" * 5000 + ', "edges": []}',  # past the digit limit
        "[" * 100000 + "]" * 100000,  # past the recursion limit
    ], ids=["digit-limit", "recursion-limit"])
    def test_unreadable_json_exit_two(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        for argv in (["iso", str(bad), str(bad)],
                     ["ci-gaussian", str(bad), "--a", "0", "--b", "1"]):
            code, _, err = run(capsys, argv)
            assert code == 2
            assert json.loads(err)["error"] == "InputError"

    @pytest.mark.parametrize("command", ["iso", "equiv"])
    def test_non_prime_modulus_exit_two_for_every_pair(self, capsys, files,
                                                       tmp_path, command):
        wider = tmp_path / "wider.json"
        wider.write_text(json.dumps({"n": 4, "edges": [[0, 1]]}))
        edge = tmp_path / "edge.json"
        edge.write_text(json.dumps({"n": 3, "edges": [[0, 1]]}))
        for other in (files["fork"], str(edge), str(wider)):
            code, payload, err = run(capsys, [command, files["chain"], other,
                                              "--q", "1000"])
            assert code == 2 and payload is None
            assert json.loads(err)["error"] == "FieldArithmeticError"

    def test_cyclic_input_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "cyclic.json"
        bad.write_text(json.dumps({"n": 2, "edges": [[0, 1], [1, 0]]}))
        code, _, err = run(capsys, ["iso", str(bad), str(bad)])
        assert code == 2
        assert json.loads(err)["error"] == "CycleError"

    @pytest.mark.parametrize("payload, flags", [
        ({"n": 2.7, "edges": []}, []),
        ({"n": True, "edges": []}, []),
        ({"n": 2, "edges": [["0", 1]]}, []),
        ({"n": 2, "edges": [["0", 1]]}, ["--one-based"]),
        ({"n": 2, "edges": [[True, 2]]}, ["--one-based"]),
        ({"n": 2, "edges": [[[0], 1]]}, []),
    ])
    def test_non_integer_ids_exit_two(self, capsys, tmp_path, payload,
                                      flags):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code, _, err = run(capsys, ["iso", str(bad), str(bad), *flags])
        assert code == 2
        assert json.loads(err)["error"] == "DagError"


class TestEquivCommand:
    def test_equivalent_reversal(self, capsys, files, tmp_path):
        rev = tmp_path / "rev.json"
        rev.write_text(json.dumps({"n": 3, "edges": [[2, 1], [1, 0]]}))
        code, payload, _ = run(capsys, ["equiv", files["chain"], str(rev)])
        assert code == 0 and payload["answer"] == "yes"

    def test_chain_fork_not_equivalent(self, capsys, files):
        code, payload, _ = run(capsys, ["equiv", files["chain"],
                                        files["fork"]])
        assert code == 1 and payload["answer"] == "no"

    @pytest.mark.parametrize("n, eps, m", [(20, "1e-6", 1), (20, "0.5", 1),
                                           (10, "1e-12", 2)])
    def test_eps_rounds_leave_out_the_permutations(
            self, capsys, tmp_path, n, eps, m):
        # a chain and its reversal are Markov equivalent; with the n!
        # factor of the isomorphism bound, n = 20 could not be certified
        # at all and n = 10 would take 15 rounds
        paths = []
        for name, edge in (("fwd", lambda i: [i, i + 1]),
                           ("bwd", lambda i: [i + 1, i])):
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps({"n": n, "edges": [
                edge(i) for i in range(n - 1)]}))
            paths.append(str(p))
        code, payload, _ = run(capsys, ["equiv", *paths, "--eps", eps])
        assert code == 0 and payload["answer"] == "yes"
        assert payload["params"]["m"] == m
        assert Fraction(payload["certificate"]["failure_bound"]) \
            <= Fraction(eps)


class TestDsepCommand:
    def test_separated(self, capsys, files):
        code, payload, _ = run(capsys, ["dsep", files["chain"],
                                        "--i", "0", "--j", "2",
                                        "--cond", "1"])
        assert code == 0
        assert payload == {"i": 0, "j": 2, "cond": [1], "d_separated": True}

    def test_connected_exit_one(self, capsys, files):
        code, payload, _ = run(capsys, ["dsep", files["chain"],
                                        "--i", "0", "--j", "2"])
        assert code == 1
        assert payload["d_separated"] is False

    def test_one_based_applies_to_file_and_indices(self, capsys, tmp_path):
        chain_1b = tmp_path / "chain1.json"
        chain_1b.write_text(json.dumps({"n": 3, "edges": [[1, 2], [2, 3]]}))
        code, payload, _ = run(capsys, ["dsep", str(chain_1b), "--one-based",
                                        "--i", "1", "--j", "3", "--cond", "2"])
        assert code == 0
        assert payload == {"i": 0, "j": 2, "cond": [1], "d_separated": True}


class TestRelationsCommand:
    def test_minors_with_labels(self, capsys, files):
        code, payload, _ = run(capsys, ["relations", files["chain"],
                                        "--kind", "minors"])
        assert code == 0
        assert payload["minors"] == [{"rows": [2, 1], "cols": [0, 1],
                                      "label": "|sigma_{32,12}|"}]

    def test_toposorted_default(self, capsys, files):
        code, payload, _ = run(capsys, ["relations", files["chain"]])
        assert payload["statements"] == [{"i": 2, "j": 0, "cond": [1]}]

    def test_implied(self, capsys, files):
        _, payload, _ = run(capsys, ["relations", files["chain"],
                                     "--kind", "implied"])
        assert payload["statements"] == [{"i": 0, "j": 2, "cond": [1]}]

    def test_tree_relations(self, capsys, files):
        _, payload, _ = run(capsys, ["relations", files["chain"],
                                     "--kind", "tree"])
        assert payload["relations"] == [{"kind": "quadratic",
                                         "i": 0, "j": 2, "k": 1}]

    def test_marginalize(self, capsys, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps(
            {"n": 4, "edges": [[0, 1], [0, 2], [1, 3], [2, 3]]}))
        _, payload, _ = run(capsys, ["relations", str(g),
                                     "--marginalize", "3"])
        assert payload["statements"] == [{"i": 1, "j": 2, "cond": [0]}]


class TestOneProcess:
    def test_commands_repeat_byte_for_byte(self, capsys, files):
        # main builds its parser once per process; the same argv must give
        # the same exit code and stdout bytes whatever ran before it
        sample = ["sample", files["chain"], "--seed", "7"]
        iso = ["iso", files["chain"], files["collider"], "--seed", "2"]
        results = []
        for argv in (sample, iso, sample, iso):
            code = main(argv)
            results.append((code, capsys.readouterr().out))
        assert [code for code, _ in results] == [0, 1, 0, 1]
        assert results[0] == results[2] and results[1] == results[3]
        assert results[0][1] != results[1][1]


class TestSampleCommand:
    def test_sample_is_reproducible_and_on_variety(self, capsys, files):
        code, payload, _ = run(capsys, ["sample", files["chain"],
                                        "--seed", "7"])
        assert code == 0
        from dagiso import Dag, PrimeField, SymPoint, on_variety
        point = SymPoint(PrimeField(payload["q"]), payload["mat"])
        assert on_variety(point, Dag.from_json_dict(CHAIN))
        main(["sample", files["chain"], "--seed", "7"])
        again = json.loads(capsys.readouterr().out)
        assert again == payload

    def test_small_q(self, capsys, files):
        code, payload, _ = run(capsys, ["sample", files["chain"],
                                        "--q", "101", "--seed", "3"])
        assert code == 0 and payload["q"] == 101


class TestClassifyCommand:
    def test_two_nodes(self, capsys):
        code, payload, _ = run(capsys, ["classify-trees", "--n", "2"])
        assert code == 0
        assert payload["class_count"] == 1

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, payload, _ = run(capsys, ["classify-trees", "--n", "3",
                                        "--mode", "oracle",
                                        "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text()) == payload
        assert payload["class_count"] == 2

    @pytest.mark.parametrize("argv", [
        ["--n", "3", "--mode", "randomized", "--q", "4", "--m", "0"],
        ["--n", "3", "--mode", "cross-check", "--q", "9"],
        ["--n", "3", "--mode", "randomized", "--m", "0"],
        ["--n", "5", "--q", "1000000"],
        ["--n", "0", "--mode", "oracle"],
        ["--n", "9", "--mode", "oracle"],
    ])
    def test_bad_request_exit_two(self, capsys, argv):
        code, payload, err = run(capsys, ["classify-trees", *argv])
        assert code == 2 and payload is None
        assert json.loads(err)["error"] == "ClassifyError"


    def test_modulus_at_the_tree_degree_bound_exit_two(self, capsys):
        # 17 is prime but not above 4n - 2 = 18
        code, payload, err = run(capsys, ["classify-trees", "--n", "5",
                                          "--mode", "randomized",
                                          "--q", "17"])
        assert code == 2 and payload is None
        assert json.loads(err)["error"] == "ClassifyError"

class TestCiGaussianCommand:
    def test_dependent_exit_one(self, capsys, files):
        code, payload, _ = run(capsys, ["ci-gaussian", files["sigma"],
                                        "--a", "0", "--b", "2",
                                        "--c", "1,3"])
        assert code == 1
        assert payload["independent"] is False

    def test_independent(self, capsys, files):
        code, payload, _ = run(capsys, ["ci-gaussian", files["sigma"],
                                        "--a", "0", "--b", "1"])
        assert code == 0
        assert payload["independent"] is True

    def test_rational_entries(self, capsys, tmp_path):
        sigma = tmp_path / "frac.json"
        sigma.write_text(json.dumps(
            {"mat": [[1, "1/2"], ["1/2", 1]]}))
        code, payload, _ = run(capsys, ["ci-gaussian", str(sigma),
                                        "--a", "0", "--b", "1"])
        assert code == 1 and payload["independent"] is False

    def test_decimal_entries_are_exact(self, capsys, tmp_path):
        # sigma_01 = sigma_02 * sigma_12 exactly, so 0 and 1 are
        # independent given 2; binary floats would break the equality
        sigma = tmp_path / "decimal.json"
        sigma.write_text("{\"mat\": [[1, 0.06, 0.2], [0.06, 1, 0.3], "
                         "[0.2, 0.3, 1]]}")
        code, payload, _ = run(capsys, ["ci-gaussian", str(sigma),
                                        "--a", "0", "--b", "1", "--c", "2"])
        assert code == 0 and payload["independent"] is True

    @pytest.mark.parametrize("text, error", [
        ('{"mat": [[true, 0], [0, 1]]}', "InputError"),  # not read as 1
        ('{"mat": [[1, 0.5], [0.2, 1]]}', "CiError"),  # not symmetric
        ('{"matrix": [[1, 0], [0, 1]]}', "InputError"),  # no "mat" key
        ('{"mat": [[1, "half"], ["half", 1]]}', "InputError"),
        # decimal exponents past the digit limit, read as JSON numbers and
        # as "p/q" strings: Fraction alone would take seconds on each
        ('{"mat": [[1, 1e10000000], [1e10000000, 1]]}', "InputError"),
        ('{"mat": [[1, "1E-10000000"], ["1E-10000000", 1]]}', "InputError"),
    ])
    def test_bad_matrix_exit_two(self, capsys, tmp_path, text, error):
        sigma = tmp_path / "bad.json"
        sigma.write_text(text)
        code, payload, err = run(capsys, ["ci-gaussian", str(sigma),
                                          "--a", "0", "--b", "1"])
        assert code == 2 and payload is None
        assert json.loads(err)["error"] == error

    def test_decimal_exponent_up_to_the_digit_limit(self, capsys, tmp_path):
        limit = sys.get_int_max_str_digits()
        sigma = tmp_path / "tiny.json"
        for exponent, want in ((limit, 1), (limit + 1, 2)):
            sigma.write_text('{"mat": [[1, 1e-%d], [1e-%d, 1]]}'
                             % (exponent, exponent))
            code, _, _ = run(capsys, ["ci-gaussian", str(sigma),
                                      "--a", "0", "--b", "1"])
            assert code == want, exponent

    def test_bad_node_list_exit_two(self, capsys, files):
        code, _, err = run(capsys, ["ci-gaussian", files["sigma"],
                                    "--a", "0", "--b", "one"])
        assert code == 2
        assert json.loads(err)["error"] == "InputError"


class TestInternalError:
    def test_crash_exits_three_not_one(self, capsys, files, monkeypatch):
        def broken(args):
            raise RuntimeError("bug")

        monkeypatch.setattr(cli, "_cmd_sample", broken)
        code, payload, err = run(capsys, ["sample", files["chain"]])
        assert code == 3 and payload is None
        report = json.loads(err)
        assert (report["error"], report["type"], report["message"]) \
            == ("internal-error", "RuntimeError", "bug")
        assert "in broken" in report["traceback"]

    def test_library_value_error_is_not_an_input_error(self, capsys, files,
                                                       monkeypatch):
        def broken(args):
            raise ValueError("bug")

        monkeypatch.setattr(cli, "_cmd_sample", broken)
        code, _, _ = run(capsys, ["sample", files["chain"]])
        assert code == 3


class TestLiesBelowCommand:
    def test_fork_below(self, capsys, files, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps(
            {"n": 4, "edges": [[0, 1], [0, 2], [1, 3], [2, 3]]}))
        code, payload, _ = run(capsys, ["lies-below", files["fork"], str(g),
                                        "--map", "0,1,2"])
        assert code == 0 and payload["lies_below"] is True

    def test_chain_not_below(self, capsys, files, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps(
            {"n": 4, "edges": [[0, 1], [0, 2], [1, 3], [2, 3]]}))
        code, payload, _ = run(capsys, ["lies-below", files["chain"], str(g),
                                        "--map", "0,2,3"])
        assert code == 1 and payload["lies_below"] is False
