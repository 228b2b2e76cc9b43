import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fza import Commodity, GenSpec, Instance, PricingFunction, Tree, gen_random, normalize
from fza.cli import build_parser, main, parse_clauses
from fza.files import read_instance, solution_to_json, write_instance
from fza.generators import MAX_FORMULA_VARS, MAX_GEN_COMMODITIES, Formula2CNF
from fza.model import MAX_VERTICES
from conftest import random_instance


class TestFiles:
    def test_round_trip_identity(self, tmp_path):
        inst = gen_random(GenSpec("random-tree", 9, 7, pricing="capped", seed=5))
        p = tmp_path / "inst.json"
        write_instance(inst, p)
        first = p.read_bytes()
        write_instance(read_instance(p), p)
        assert p.read_bytes() == first

    def test_fractional_weights_survive(self, tmp_path):
        t = Tree(3, ((0, 1), (1, 2)))
        inst = normalize(
            Instance.create(
                t, PricingFunction.linear(3), [Commodity(0, 2, 1, Fraction(3, 7))]
            )
        )
        p = tmp_path / "inst.json"
        write_instance(inst, p)
        again = read_instance(p)
        assert again.commodities[0].weight == Fraction(3, 7)

    def test_rejects_bad_version(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"version": 99}))
        from fza import InvalidInstanceError

        with pytest.raises(InvalidInstanceError):
            read_instance(p)

    def test_rejects_non_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("not json at all")
        from fza import InvalidInstanceError

        with pytest.raises(InvalidInstanceError):
            read_instance(p)


class TestParseClauses:
    def test_basic(self):
        phi = parse_clauses("1 -2, -1 -2")
        assert phi.num_vars == 2
        assert phi.clauses == (((0, False), (1, True)), ((0, True), (1, True)))

    def test_bad_literal(self):
        from fza import InvalidInstanceError

        with pytest.raises(InvalidInstanceError):
            parse_clauses("1 0")

    @pytest.mark.parametrize("text", ["1 2 3", "1 x"])
    def test_malformed_clause(self, text):
        from fza import InvalidInstanceError

        with pytest.raises(InvalidInstanceError):
            parse_clauses(text)

    # `int` alone reads both: Arabic-Indic 1 as 1, "1_0" as 10
    @pytest.mark.parametrize("text", ["\u0661 -2", "1_0 -2"])
    def test_gen_refuses_non_ascii_literal(self, tmp_path, capsys, text):
        out = tmp_path / "x.json"
        assert main(["gen", "star-sat", "--clauses", text, "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: bad literal")
        assert not out.exists()

    def test_gen_refuses_literal_past_int_string_limit(self, tmp_path, capsys):
        # `int` raises ValueError on more digits than sys.get_int_max_str_digits()
        out, literal = tmp_path / "x.json", "-" + "9" * 5000
        assert main(["gen", "star-sat", "--clauses", f"1 {literal}", "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: bad literal {repr(literal)[:40]}... (5003 characters)\n"
        assert not out.exists()

    def test_gen_names_literal_beyond_num_vars(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        argv = ["gen", "path-sat", "--clauses", "1 -2", "--num-vars", "1", "--output", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: literal -2 out of range: variables are 1..1\n"

    # the variable count is checked before the formula sizes anything by it
    @pytest.mark.parametrize(
        "flags", [["--clauses", "1 -2", "--num-vars", "100000000000000000000"], ["--clauses", "1 -100000000000000000000"]]
    )
    def test_gen_refuses_num_vars_over_cap(self, tmp_path, capsys, flags):
        out = tmp_path / "x.json"
        assert main(["gen", "star-sat", *flags, "--output", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"capacity error: formula limited to {MAX_FORMULA_VARS} variables, got 100000000000000000000\n"
        )
        assert not out.exists()

    def test_formula_at_cap_accepted(self):
        top = MAX_FORMULA_VARS - 1
        assert Formula2CNF(MAX_FORMULA_VARS, (((0, False), (top, True)),)).num_vars == MAX_FORMULA_VARS
        assert parse_clauses(f"1 -{MAX_FORMULA_VARS}").num_vars == MAX_FORMULA_VARS

    # the path-sat instance of n variables has 10 * n + 1 vertices, so the
    # formula cap refuses before a path over the vertex cap is built; no
    # instance is built at the cap, as its root-path table alone is about 1.1 GB
    def test_formula_cap_follows_vertex_cap(self, tmp_path, capsys):
        assert 10 * MAX_FORMULA_VARS + 1 <= MAX_VERTICES
        out = tmp_path / "x.json"
        argv = ["gen", "path-sat", "--clauses", f"1 -{MAX_FORMULA_VARS + 1}", "--output", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == "capacity error: formula limited to 9999 variables, got 10000\n"
        assert not out.exists()


class TestCli:
    def test_parser_built_once(self):
        # `main` reuses one parser per process; the other CLI tests run
        # every subcommand through it in turn
        assert build_parser() is build_parser()

    def test_gen_solve_validate(self, tmp_path, capsys):
        inst_path = tmp_path / "i.json"
        out_path = tmp_path / "o.json"
        assert main(
            [
                "gen", "random", "--vertices", "8", "--commodities", "6",
                "--seed", "3", "--output", str(inst_path),
            ]
        ) == 0
        assert main(["validate", "--input", str(inst_path)]) == 0
        assert main(
            [
                "solve", "--algo", "brute", "--input", str(inst_path),
                "--output", str(out_path),
            ]
        ) == 0
        sol = json.loads(out_path.read_text())
        assert sol["algorithm"] == "brute"
        assert Fraction(sol["revenue"]) >= 0

    def test_solve_missing_file_exit_2(self):
        assert main(["solve", "--algo", "brute", "--input", "/nonexistent.json"]) == 2

    VALID = {
        "version": 1,
        "num_vertices": 3,
        "edges": [[0, 1], [1, 2]],
        "pricing": ["0", "1", "2"],
        "commodities": [{"s": 0, "t": 2, "u": 1, "w": "1"}],
    }

    def test_validate_accepts_valid_file(self, tmp_path):
        p = tmp_path / "ok.json"
        p.write_text(json.dumps(self.VALID))
        assert main(["validate", "--input", str(p)]) == 0

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda d: [d], id="top-level-list"),
            pytest.param(lambda d: {**d, "edges": [[0, 1, 2], [1, 2]]}, id="three-element-edge"),
            pytest.param(lambda d: {**d, "edges": [[0, 1.0], [1, 2]]}, id="float-endpoint"),
            pytest.param(lambda d: {**d, "num_vertices": 3.9}, id="float-num-vertices"),
            pytest.param(
                lambda d: {**d, "commodities": [{"s": 0, "t": 2, "u": True, "w": "1"}]},
                id="bool-budget",
            ),
            pytest.param(
                lambda d: {**d, "commodities": [{"s": 0, "t": 2, "u": 1.7, "w": "1"}]},
                id="float-budget",
            ),
            pytest.param(
                lambda d: {**d, "commodities": [{"s": 0.0, "t": 2, "u": 1, "w": "1"}]},
                id="float-source",
            ),
            pytest.param(
                lambda d: {**d, "commodities": [{"s": 0, "t": 2, "u": 1, "w": True}]},
                id="bool-weight",
            ),
            # `Fraction` would expand an exponent digit by digit; '1e10000000' hung
            pytest.param(
                lambda d: {**d, "commodities": [{"s": 0, "t": 2, "u": 1, "w": "1e3"}]},
                id="exponent-weight",
            ),
            pytest.param(lambda d: {**d, "pricing": ["0", "1e3", "2E3"]}, id="exponent-price"),
            # the file format takes ASCII digits only, with no '_' separators
            pytest.param(
                lambda d: {**d, "commodities": [{"s": 0, "t": 2, "u": 1, "w": "1_000"}]},
                id="underscore-weight",
            ),
            pytest.param(lambda d: {**d, "pricing": ["0", "\u0661", "\u0662"]}, id="non-ascii-price"),
            pytest.param(lambda d: {**d, "pricing": [0, True, True]}, id="bool-price"),
            pytest.param(lambda d: {**d, "pricing": "012"}, id="string-pricing"),
            pytest.param(lambda d: {**d, "version": True}, id="bool-version"),
            pytest.param(lambda d: {**d, "version": 1.0}, id="float-version"),
            pytest.param(lambda d: {**d, "commodities": {}}, id="object-commodities"),
            pytest.param(
                lambda d: {**d, "num_vertices": 1, "edges": {}, "pricing": ["0"], "commodities": []},
                id="object-edges",
            ),
            pytest.param(
                lambda d: {**d, "num_vertices": 4, "edges": [[0, 1], [1, 2], [2, 0]], "pricing": ["0"] * 4},
                id="cycle-and-isolated-vertex",
            ),
            pytest.param(lambda d: {**d, "edges": [[0, 1], [1, 3]]}, id="edge-endpoint-out-of-range"),
            pytest.param(
                lambda d: {**d, "num_vertices": 0, "edges": [], "pricing": [], "commodities": []},
                id="zero-vertices",
            ),
            pytest.param(
                lambda d: {**d, "commodities": [{"s": 0, "t": 3, "u": 1, "w": "1"}]},
                id="commodity-endpoint-out-of-range",
            ),
            pytest.param(
                lambda d: {**d, "commodities": [{"s": 1, "t": 1, "u": 1, "w": "1"}]},
                id="coinciding-endpoints",
            ),
            pytest.param(lambda d: {**d, "commodities": [{"s": 0, "t": 2, "u": -1, "w": "1"}]}, id="negative-budget"),
            pytest.param(lambda d: {**d, "commodities": [{"s": 0, "t": 2, "u": 1, "w": "0"}]}, id="zero-weight"),
            pytest.param(lambda d: {**d, "pricing": ["0", "1"]}, id="pricing-shorter-than-n"),
            pytest.param(lambda d: {**d, "pricing": []}, id="empty-pricing"),
            pytest.param(lambda d: {**d, "commodities": [{"s": 0, "t": 2, "u": 1}]}, id="missing-weight"),
        ],
    )
    def test_validate_rejects_malformed_file(self, tmp_path, capsys, mutate):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(mutate(self.VALID)))
        assert main(["validate", "--input", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "commodity",
        [
            pytest.param({"s": 0, "t": 2, "u": 1, "w": "1." + "5" * 10**6}, id="million-digit-weight"),
            pytest.param({"s": "7" * 10**6, "t": 2, "u": 1, "w": "1"}, id="million-character-endpoint"),
        ],
    )
    def test_huge_value_is_not_echoed(self, tmp_path, capsys, commodity):
        # the error line names the value by its first characters and its length
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({**self.VALID, "commodities": [commodity]}))
        assert main(["validate", "--input", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 200

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b"\xff", id="non-utf8"),
            pytest.param(b"[" * 100000, id="deep"),
            # past Python's 4300-digit int-string limit, which json.loads enforces
            pytest.param(b'{"version": 1, "num_vertices": ' + b"1" * 5000 + b"}", id="long-int"),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "solve", "bench-config", "bench-instance"])
    def test_unreadable_file_exits_2(self, tmp_path, capsys, command, content):
        good = tmp_path / "ok.json"
        good.write_text(json.dumps(self.VALID))
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({"instances": [str(good)], "algorithms": ["brute"]}))
        argv = {
            "validate": ["validate", "--input", str(bad)],
            "solve": ["solve", "--algo", "brute", "--input", str(bad)],
            "bench-config": ["bench", "--config", str(bad), "--output-dir", str(tmp_path / "o")],
            "bench-instance": ["bench", "--config", str(config), "--output-dir", str(tmp_path / "o")],
        }[command]
        if command == "bench-instance":
            # the same config runs with a readable instance file
            assert main(argv) == 0
            capsys.readouterr()
            config.write_text(json.dumps({"instances": [str(bad)], "algorithms": ["brute"]}))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("diagnostics", [[], ["--diagnostics"]])
    def test_revenue_beyond_float_exits_2(self, tmp_path, capsys, diagnostics):
        # a valid instance whose exact revenue has no float form
        p = tmp_path / "huge.json"
        huge = {**self.VALID, "pricing": ["1", "2", "3"]}
        huge["commodities"] = [{"s": 0, "t": 2, "u": 2, "w": "1" + "0" * 400}]
        p.write_text(json.dumps(huge))
        assert main(["validate", "--input", str(p)]) == 0
        capsys.readouterr()
        out = tmp_path / "sol.json"
        assert main(["solve", "--algo", "brute", "--input", str(p), "--output", str(out), *diagnostics]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "float" in err
        assert not out.exists()

    def test_capacity_exit_3(self, tmp_path):
        inst_path = tmp_path / "big.json"
        main(
            [
                "gen", "random", "--vertices", "30", "--commodities", "2",
                "--seed", "1", "--output", str(inst_path),
            ]
        )
        assert main(["solve", "--algo", "brute", "--input", str(inst_path)]) == 3

    @pytest.mark.parametrize(
        "option, value", [("--vertices", "1_0"), ("--seed", "\u0661"), ("--cuts", "1_0")]
    )
    def test_integer_option_refuses_other_forms(self, tmp_path, capsys, option, value):
        # `int` alone reads "1_0" as 10 and Arabic-Indic 1 as 1; an integer option
        # takes only the signed ASCII form the instance format and --clauses take
        inst_path, out = tmp_path / "p.json", tmp_path / "o.json"
        t = Tree(12, tuple((i, i + 1) for i in range(11)))
        write_instance(
            normalize(Instance.create(t, PricingFunction.linear(12), [Commodity(0, 11, 10, Fraction(1))])),
            inst_path,
        )
        if option == "--cuts":
            argv = ["solve", "--algo", "gen-rooted-path", "--input", str(inst_path)]
        else:
            argv = ["gen", "random"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--output", str(out), option, value])
        assert exc.value.code == 2 and not out.exists()
        assert f"argument {option}: invalid integer {value!r}\n" in capsys.readouterr().err

    def test_integer_option_refuses_digits_past_int_string_limit(self, tmp_path, capsys):
        out, value = tmp_path / "x.json", "9" * 5000
        with pytest.raises(SystemExit) as exc:
            main(["gen", "random", "--seed", value, "--output", str(out)])
        assert exc.value.code == 2 and not out.exists()
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"fza gen: error: argument --seed: invalid integer {repr(value)[:40]}... (5002 characters)"

    def test_integer_option_keeps_sign(self, tmp_path):
        out, expected = tmp_path / "x.json", tmp_path / "e.json"
        assert main(["gen", "random", "--seed", "-3", "--output", str(out)]) == 0
        write_instance(gen_random(GenSpec("random-tree", 10, 10, seed=-3)), expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_gen_star_sat(self, tmp_path):
        out = tmp_path / "star.json"
        code = main(
            ["gen", "star-sat", "--clauses", "1 -2, -1 -2", "--output", str(out)]
        )
        assert code == 0
        inst = read_instance(out)
        assert inst.tree.num_vertices == 5

    def test_gen_path_sat(self, tmp_path):
        out = tmp_path / "path.json"
        code = main(
            ["gen", "path-sat", "--clauses", "1 -1", "--big-m", "2", "--output", str(out)]
        )
        assert code == 0
        inst = read_instance(out)
        assert inst.tree.num_edges == 10

    def test_gen_path_sat_default_big_m(self, tmp_path):
        # without --big-m, M is the clause count plus one
        clauses = ["--clauses", "1 -2, -1 -2, 2 1"]
        default, given = tmp_path / "default.json", tmp_path / "given.json"
        assert main(["gen", "path-sat", *clauses, "--output", str(default)]) == 0
        assert main(["gen", "path-sat", *clauses, "--big-m", "4", "--output", str(given)]) == 0
        assert default.read_bytes() == given.read_bytes()

    def test_gen_path_sat_refuses_exponent_big_m(self, tmp_path, capsys):
        out = tmp_path / "path.json"
        code = main(
            ["gen", "path-sat", "--clauses", "1 -1", "--big-m", "1e3", "--output", str(out)]
        )
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_gen_sat_requires_clauses(self, tmp_path, capsys):
        assert main(["gen", "star-sat", "--output", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err == "error: --clauses is required for SAT families\n"

    def test_gen_rooted_path_needs_cuts(self, tmp_path):
        inst_path = tmp_path / "p.json"
        main(
            [
                "gen", "random", "--shape", "path", "--vertices", "6",
                "--commodities", "0", "--seed", "2", "--output", str(inst_path),
            ]
        )
        assert main(
            ["solve", "--algo", "gen-rooted-path", "--input", str(inst_path)]
        ) == 2

    def test_gen_rooted_path_refuses_tree(self, tmp_path, capsys):
        inst_path = tmp_path / "t.json"
        write_instance(random_instance(4, 8, 5, "linear"), inst_path)
        argv = ["solve", "--algo", "gen-rooted-path", "--input", str(inst_path), "--cuts", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: tree is not a path\n"

    def test_gen_rooted_path_refuses_inner_root(self, tmp_path, capsys):
        t = Tree(5, tuple((i, i + 1) for i in range(4)))
        inst = normalize(
            Instance.create(t, PricingFunction.linear(5), [Commodity(0, 4, 2, Fraction(1))])
        )
        inst_path = tmp_path / "p.json"
        write_instance(inst, inst_path)
        argv = ["solve", "--algo", "gen-rooted-path", "--input", str(inst_path), "--cuts", "1"]
        assert main(argv + ["--root", "2"]) == 2
        assert capsys.readouterr().err == "error: root 2 is not an endpoint of the path\n"

    def test_solve_to_stdout_matches_output_file(self, tmp_path, capsys):
        inst_path = tmp_path / "i.json"
        out = tmp_path / "sol.json"
        write_instance(random_instance(5, 9, 6, "affine"), inst_path)
        argv = ["solve", "--algo", "sublog", "--input", str(inst_path), "--diagnostics"]
        assert main(argv + ["--output", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()

    def test_gen_rooted_path_solve(self, tmp_path):
        # path with identity labels: vertex 0 is an endpoint
        t = Tree(5, tuple((i, i + 1) for i in range(4)))
        inst = normalize(
            Instance.create(
                t, PricingFunction.linear(5), [Commodity(0, 4, 2, Fraction(1))]
            )
        )
        inst_path = tmp_path / "p.json"
        write_instance(inst, inst_path)
        out = tmp_path / "sol.json"
        code = main(
            [
                "solve", "--algo", "gen-rooted-path", "--input", str(inst_path),
                "--cuts", "2", "--root", "0", "--output", str(out),
            ]
        )
        assert code == 0
        sol = json.loads(out.read_text())
        assert len(sol["cuts"]) == 2
        assert Fraction(sol["revenue"]) == 2

    def test_solver_output_deterministic(self, tmp_path):
        inst = random_instance(12, 10, 7, "affine")
        from fza import single_density, simplified_single_density
        from fza.sublog import sublog

        for solver in (single_density, simplified_single_density, sublog):
            a = solution_to_json(solver(inst, 99))
            b = solution_to_json(solver(inst, 99))
            assert a == b

    def test_bench_subcommand(self, tmp_path):
        inst_path = tmp_path / "i.json"
        main(
            [
                "gen", "random", "--vertices", "7", "--commodities", "5",
                "--seed", "4", "--output", str(inst_path),
            ]
        )
        config = tmp_path / "bench.json"
        config.write_text(
            json.dumps(
                {
                    "instances": [str(inst_path)],
                    "algorithms": ["brute", "sublog"],
                    "seeds": [0, 1],
                    "oracle": "brute",
                }
            )
        )
        outdir = tmp_path / "out"
        assert main(["bench", "--config", str(config), "--output-dir", str(outdir)]) == 0
        assert (outdir / "report.csv").exists()
        assert (outdir / "summary.json").exists()
        assert (outdir / "timings.csv").exists()

    def test_bench_bad_config_exit_2(self, tmp_path):
        config = tmp_path / "bench.json"
        config.write_text("{}")
        assert main(
            ["bench", "--config", str(config), "--output-dir", str(tmp_path / "o")]
        ) == 2

    @pytest.mark.parametrize(
        "options, fragment",
        [
            (["--vertices", "0"], "at least one vertex"),
            (["--commodities", "-1"], "must be non-negative"),
            (["--vertices", "1"], "at least two vertices"),
            (["--max-weight", "0"], "max_weight must be at least 1"),
        ],
    )
    def test_gen_random_rejects_bad_spec(self, tmp_path, capsys, options, fragment):
        out = tmp_path / "i.json"
        assert main(["gen", "random", "--output", str(out), *options]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and fragment in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--vertices", str(MAX_VERTICES + 1)], f"{MAX_VERTICES} vertices, got {MAX_VERTICES + 1}"),
            (["--commodities", str(MAX_GEN_COMMODITIES + 1)], f"{MAX_GEN_COMMODITIES} commodities, got {MAX_GEN_COMMODITIES + 1}"),
        ],
    )
    def test_gen_random_refuses_sizes_over_cap(self, tmp_path, capsys, options, message):
        out = tmp_path / "i.json"
        assert main(["gen", "random", "--output", str(out), *options]) == 3
        assert capsys.readouterr().err == f"capacity error: random instance limited to {message}\n"
        assert not out.exists()

    def test_bench_unreadable_instance_makes_no_output_dir(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({key: v for key, v in self.VALID.items() if key != "num_vertices"}))
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({"instances": [str(inst)], "algorithms": ["brute"]}))
        outdir = tmp_path / "o"
        assert main(["bench", "--config", str(config), "--output-dir", str(outdir)]) == 2
        assert capsys.readouterr().err == "error: malformed instance file: 'num_vertices'\n"
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda d: {**d, "seeds": [1.7, True]}, id="float-and-bool-seeds"),
            pytest.param(lambda d: {**d, "seeds": [True]}, id="bool-seed"),
            pytest.param(lambda d: {**d, "seeds": "12"}, id="string-seeds"),
            pytest.param(lambda d: {**d, "seeds": []}, id="empty-seeds"),
            pytest.param(lambda d: {**d, "instances": d["instances"][0]}, id="string-instances"),
            pytest.param(lambda d: {**d, "algorithms": "brute"}, id="string-algorithms"),
            pytest.param(lambda d: {**d, "algorithms": [1]}, id="int-algorithm"),
            pytest.param(lambda d: [d], id="top-level-list"),
            pytest.param(lambda d: {**d, "instances": d["instances"] * 2}, id="duplicate-instances"),
            pytest.param(lambda d: {**d, "algorithms": ["brute", "brute"]}, id="duplicate-algorithms"),
            pytest.param(lambda d: {**d, "seeds": [1, 0, 1]}, id="duplicate-seeds"),
            pytest.param(lambda d: {**d, "oracle": "sublog"}, id="approximate-oracle"),
            pytest.param(lambda d: {**d, "instances": []}, id="empty-instances"),
            pytest.param(lambda d: {**d, "algorithms": []}, id="empty-algorithms"),
        ],
    )
    def test_bench_rejects_malformed_config(self, tmp_path, capsys, mutate):
        inst_path = tmp_path / "i.json"
        main(["gen", "random", "--vertices", "5", "--commodities", "3", "--output", str(inst_path)])
        valid = {"instances": [str(inst_path)], "algorithms": ["brute"], "seeds": [0, 1]}
        argv = ["bench", "--output-dir", str(tmp_path / "o"), "--config"]
        config = tmp_path / "bench.json"
        config.write_text(json.dumps(valid))
        assert main(argv + [str(config)]) == 0
        capsys.readouterr()
        config.write_text(json.dumps(mutate(valid)))
        assert main(argv + [str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_every_algorithm_through_cli(self, tmp_path):
        # a path instance rooted at vertex 0 satisfies every solver's
        # preconditions at once
        t = Tree(6, tuple((i, i + 1) for i in range(5)))
        comms = [
            Commodity(0, 5, 2, Fraction(3)),
            Commodity(0, 3, 1, Fraction(2)),
            Commodity(0, 2, 0, Fraction(1)),
        ]
        inst = normalize(Instance.create(t, PricingFunction.affine(6), comms))
        inst_path = tmp_path / "p.json"
        write_instance(inst, inst_path)
        from fza.bench import SOLVERS

        assert set(SOLVERS) == {
            "brute", "rooted", "gen-rooted-path", "single-density", "single-density-path",
            "single-density-base", "simplified", "sublog", "dp-umax", "dp-pmax", "dp-cong",
        }
        for algo in SOLVERS:
            out = tmp_path / f"{algo}.json"
            argv = [
                "solve", "--algo", algo, "--input", str(inst_path),
                "--seed", "5", "--root", "0", "--output", str(out),
            ]
            if algo == "gen-rooted-path":
                argv += ["--cuts", "2"]
            assert main(argv) == 0, algo
            sol = json.loads(out.read_text())
            assert Fraction(sol["revenue"]) >= 0
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--algo", "nope", "--input", str(inst_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("shape", ["tree", "path"])
    def test_every_algorithm_on_one_vertex(self, tmp_path, shape):
        # one vertex and no commodity: the smallest instance `fza gen` makes
        inst_path = tmp_path / "one.json"
        assert main(
            [
                "gen", "random", "--vertices", "1", "--commodities", "0",
                "--shape", shape, "--pricing", "affine", "--output", str(inst_path),
            ]
        ) == 0
        from fza.bench import SOLVERS

        for algo in SOLVERS:
            out = tmp_path / f"{algo}.json"
            argv = ["solve", "--algo", algo, "--input", str(inst_path), "--output", str(out)]
            if algo == "gen-rooted-path":
                argv += ["--cuts", "0"]
            assert main(argv) == 0, algo
            sol = json.loads(out.read_text())
            assert (sol["cuts"], sol["revenue"]) == ([], "0"), algo

    def test_rooted_requires_rooted_instance(self, tmp_path):
        t = Tree(4, ((0, 1), (1, 2), (2, 3)))
        inst = normalize(
            Instance.create(
                t, PricingFunction.linear(4), [Commodity(1, 3, 1, Fraction(1))]
            )
        )
        inst_path = tmp_path / "u.json"
        write_instance(inst, inst_path)
        assert main(
            ["solve", "--algo", "rooted", "--input", str(inst_path), "--root", "0"]
        ) == 2


def test_package_imports_only_the_standard_library():
    # fza has no runtime dependency: importing it and its CLI loads no module
    # from outside the standard library but its own
    import fza

    code = (
        "import sys; before = set(sys.modules); import fza, fza.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fza.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = done.stdout.split()
    assert "fza.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] not in (*sys.stdlib_module_names, "fza")] == []
