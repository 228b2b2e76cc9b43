"""The instance reader against `conftest.reference_read`, the read path with
no shortcut: same instances field by field, same refusals with the same
one-line messages."""

import copy
import json
from random import Random

import pytest

from fza import GenSpec, InvalidInstanceError, gen_random
from fza.cli import main
from fza.files import dict_to_instance, read_instance, write_instance
from conftest import assert_same_instance, reference_read

# a 6-vertex tree with rationals in several written forms
BASE = {
    "version": 1,
    "num_vertices": 6,
    "edges": [[0, 1], [1, 2], [1, 3], [3, 4], [3, 5]],
    "pricing": ["1", "3/2", "2", "5/2", 3, "3"],
    "commodities": [
        {"s": 0, "t": 4, "u": 2, "w": "1"},
        {"s": 5, "t": 2, "u": 9, "w": "2/3"},
        {"s": 2, "t": 5, "u": 3, "w": 3},
        {"s": 4, "t": 0, "u": 2, "w": "1.5"},
    ],
}


def read_both(tmp_path, data):
    """(read_instance of `data` written to a file, reference_read of the same data)."""
    p = tmp_path / "i.json"
    p.write_text(json.dumps(data))
    return read_instance(p), reference_read(json.loads(p.read_text()))


class TestEquivalence:
    @pytest.mark.parametrize("fractional", [False, True], ids=["int-weights", "fractional-weights"])
    @pytest.mark.parametrize("pricing", ["linear", "affine", "capped"])
    @pytest.mark.parametrize("family", ["random-tree", "random-path"])
    def test_generated_files(self, tmp_path, family, pricing, fractional):
        for seed in range(3):
            inst = gen_random(GenSpec(family, 40, 60, pricing=pricing, fractional_weights=fractional, seed=seed))
            write_instance(inst, tmp_path / "i.json")
            got = read_instance(tmp_path / "i.json")
            assert_same_instance(got, reference_read(json.loads((tmp_path / "i.json").read_text())))
            assert_same_instance(got, inst)

    def test_non_canonical_file(self, tmp_path):
        data = {
            **BASE,
            "commodities": [
                {"s": 5, "t": 0, "u": 1, "w": "2"},     # reversed endpoints
                {"s": 2, "t": 4, "u": 7, "w": "1/3"},   # budget above |P_i| = 3
                {"s": 0, "t": 5, "u": 1, "w": "1/2"},   # merges with the first
                {"s": 4, "t": 2, "u": 3, "w": "1"},     # clamped first one's twin: merges
                {"s": 1, "t": 0, "u": 0, "w": "5"},     # sorts first
                {"s": 0, "t": 5, "u": 2, "w": "1"},     # same path, other budget: kept apart
            ],
        }
        got, want = read_both(tmp_path, data)
        assert_same_instance(got, want)
        assert [(c.source, c.target, c.budget, str(c.weight)) for c in got.commodities] == [
            (0, 1, 0, "5"), (0, 5, 1, "5/2"), (0, 5, 2, "1"), (2, 4, 3, "4/3"),
        ]

    def test_other_rational_forms(self, tmp_path):
        weights = [4, "+3", " 4 ", "007", "6/4", "2.50", ".5"]
        data = {
            **BASE,
            "pricing": [".5", "6/4", "2.50", "+3", "3.5", " 4 "],
            "commodities": [{"s": 0, "t": t, "u": 2, "w": w} for t, w in zip([1, 2, 3, 4, 5, 4, 5], weights)],
        }
        for pricing in (data["pricing"], [0, 1, 2, 3, 4, 5]):
            got, want = read_both(tmp_path, {**data, "pricing": pricing})
            assert_same_instance(got, want)
        assert [str(v) for v in got.pricing.values] == ["0", "1", "2", "3", "4", "5"]


VALID = {
    "version": 1,
    "num_vertices": 3,
    "edges": [[0, 1], [1, 2]],
    "pricing": ["0", "1", "2"],
    "commodities": [{"s": 0, "t": 2, "u": 1, "w": "1"}],
}

# strings next to the fast path's forms '7' and '7/3' that must take the full grammar
BOUNDARY = [
    "²", "١٢", "٣/4", "7/0", "7/", "/7", "", "1_0", "1e3",
    "1" * 4301, "1/" + "1" * 4301,
]


class TestRefusals:
    @pytest.mark.parametrize("text", BOUNDARY, ids=lambda t: repr(t)[:12])
    @pytest.mark.parametrize("where", ["weight", "price"])
    def test_fast_path_boundary(self, tmp_path, capsys, text, where):
        if where == "weight":
            data = {**VALID, "commodities": [{**VALID["commodities"][0], "w": text}]}
        else:
            data = {**VALID, "pricing": ["0", text, "2"]}
        with pytest.raises(InvalidInstanceError) as want:
            reference_read(data)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        assert main(["validate", "--input", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {want.value}\n"

    def test_boundary_messages(self):
        def message(text):
            with pytest.raises(InvalidInstanceError) as err:
                dict_to_instance({**VALID, "commodities": [{**VALID["commodities"][0], "w": text}]})
            return str(err.value)

        assert message("7/0") == "not a rational: '7/0'"
        assert message("1e3") == "not a rational (no exponent notation): '1e3'"
        assert message("1" * 4301).startswith("not a rational (a digit group over 4300 digits): '111")

    @pytest.mark.parametrize("first", [1, "1"], ids=["int", "string"])
    @pytest.mark.parametrize("later", [True, 1.0])
    def test_bool_or_float_after_an_equal_rational(self, tmp_path, capsys, first, later):
        # the price "1" and the first weight come before the refused one
        data = {
            **VALID,
            "commodities": [{"s": 0, "t": 2, "u": 1, "w": first}, {"s": 0, "t": 1, "u": 1, "w": later}],
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        assert main(["validate", "--input", str(p)]) == 2
        assert capsys.readouterr().err == f"error: not a rational: {later!r}\n"


# values a mutation writes into one field
MUTANTS = [
    None, True, False, 0, 1, 2, 3, 5, 6, -1, 0.5, 1.0, 2**70, -(10**30),
    [], [1], [0, 1], [0, 1, 2], [[0, 1]], {}, {"s": 0}, {"s": 0, "t": 1, "u": 0, "w": "1"},
    "", " ", "x", "1/0", "1e3", "²", "١", "1_0", "--1", "1.2.3", "/7", "7/", "+", ".",
    "0", "1", "2", "3/2", ".5", " 2 ", "007", "9" * 30,
]


# values a file may hold in most fields
PLAUSIBLE = [0, 1, 2, 3, 4, 5, "1", "2", "5/2", "3", " 4 ", "007", ".5", "3.0"]


def fields(value):
    """Every (container, key) under `value`, the containers themselves included."""
    keys = sorted(value) if isinstance(value, dict) else range(len(value)) if isinstance(value, list) else ()
    for key in keys:
        yield value, key
        yield from fields(value[key])


def mutate(data, rng: Random):
    """A copy of `data` with one field, at any depth, replaced by a value from
    `MUTANTS` or `PLAUSIBLE`, or, one time in ten for an object's field, removed."""
    out = copy.deepcopy(data)
    holder, key = rng.choice(list(fields(out)))
    if isinstance(holder, dict) and rng.random() < 0.1:
        del holder[key]
    else:
        holder[key] = rng.choice(rng.choice((MUTANTS, PLAUSIBLE)))
    return out


def test_mutations_accepted_as_reference_or_refused_in_one_line():
    rng = Random(2020)
    accepted = refused = 0
    for trial in range(2000):
        data = mutate(BASE, rng)
        try:
            want = reference_read(data)
        except InvalidInstanceError as exc:
            with pytest.raises(InvalidInstanceError) as got:
                dict_to_instance(data)
            assert str(got.value) == str(exc) and "\n" not in str(exc), (trial, data)
            refused += 1
        else:
            assert_same_instance(dict_to_instance(data), want)
            accepted += 1
    assert accepted >= 200 and refused >= 1000, (accepted, refused)
