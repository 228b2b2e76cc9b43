import json
from fractions import Fraction

import pytest

from fza import Commodity, GenSpec, Instance, PricingFunction, Tree, gen_random, normalize
from fza.cli import main, parse_clauses
from fza.files import read_instance, solution_to_json, write_instance
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


class TestCli:
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
            pytest.param(lambda d: {**d, "pricing": [0, True, True]}, id="bool-price"),
            pytest.param(lambda d: {**d, "pricing": "012"}, id="string-pricing"),
            pytest.param(lambda d: {**d, "version": True}, id="bool-version"),
            pytest.param(lambda d: {**d, "version": 1.0}, id="float-version"),
            pytest.param(lambda d: {**d, "commodities": {}}, id="object-commodities"),
            pytest.param(
                lambda d: {**d, "num_vertices": 1, "edges": {}, "pricing": ["0"], "commodities": []},
                id="object-edges",
            ),
        ],
    )
    def test_validate_rejects_malformed_file(self, tmp_path, capsys, mutate):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(mutate(self.VALID)))
        assert main(["validate", "--input", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_capacity_exit_3(self, tmp_path):
        inst_path = tmp_path / "big.json"
        main(
            [
                "gen", "random", "--vertices", "30", "--commodities", "2",
                "--seed", "1", "--output", str(inst_path),
            ]
        )
        assert main(["solve", "--algo", "brute", "--input", str(inst_path)]) == 3

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

    def test_gen_sat_requires_clauses(self, tmp_path):
        assert main(["gen", "star-sat", "--output", str(tmp_path / "x.json")]) == 2

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
