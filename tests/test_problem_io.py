import json
from collections import Counter, namedtuple
from enum import Enum, IntEnum
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from polydiv.classify import gorenstein, rational_singularities
from polydiv.curves import (
    EC_ORIGIN,
    P1_INFINITY,
    AbstractAffineCurve,
    AbstractProjectiveCurve,
    AffineLine,
    EllipticCurveQ,
    EllipticPoint,
    LabelPoint,
    ProjectiveLine,
    RationalPoint,
    divisor,
    p1_point,
)
import polydiv.cli as cli
import polydiv.pdiv as pdiv
import polydiv.problem_io as problem_io
from polydiv.errors import InvalidInputError, ParseError, ShapeError
from polydiv.geometry import make_cone, make_polyhedron
from polydiv.pdiv import AffineSpace, is_proper, polyhedral_divisor
from polydiv.problem_io import (
    MAX_AFFINE_DIM,
    MAX_COEFFICIENTS,
    MAX_DIGITS,
    MAX_GENUS,
    MAX_LATTICE_RANK,
    MAX_RAYS,
    MAX_VERTICES,
    emit_report,
    parse_problem,
    report_payload,
)
from polydiv.verdicts import Verdict

from reference_problem_io import emit_problem, json_report, payload, rational

DATA = Path(__file__).parent / "data"

P1 = ProjectiveLine()
RAY = ((1,),)


def halfline(vertex):
    return make_polyhedron([(Fraction(vertex),)], make_cone(RAY, 1))


def read(name: str) -> str:
    return (DATA / name).read_text()


def test_parse_golden_document():
    d = parse_problem(read("golden_one.json"))
    expected = polyhedral_divisor(
        P1,
        1,
        RAY,
        {
            p1_point(0): halfline(Fraction(-1, 4)),
            p1_point(1): halfline(Fraction(-1, 4)),
            P1_INFINITY: halfline(Fraction(3, 4)),
        },
    )
    assert d == expected


def test_parse_affine_space_document():
    d = parse_problem(read("affine_plane.json"))
    assert d.base == AffineSpace(2)
    assert [k for k, _ in d.coefficients] == [1, 2]
    assert d.coefficient(1).vertices == ((Fraction(-1, 2),),)


def test_parse_elliptic_document():
    d = parse_problem(read("elliptic_pair.json"))
    assert d.base == EllipticCurveQ(-1, 0)
    assert [k for k, _ in d.coefficients] == [EC_ORIGIN, EllipticPoint(0, 0)]
    assert is_proper(d).verdict is Verdict.YES


def test_round_trip_is_identity():
    for name in ("golden_one.json", "affine_plane.json", "elliptic_pair.json"):
        d = parse_problem(read(name))
        again = parse_problem(emit_problem(d))
        assert again == d, name


def test_emit_canonicalizes():
    d = parse_problem(read("golden_one.json"))
    doc = json.loads(emit_problem(d))
    assert list(doc) == ["lattice_rank", "tail_cone", "base", "coefficients"]
    assert doc["tail_cone"] == {"rays": [[1]]}
    assert doc["coefficients"][0] == {"point": "0", "vertices": [["-1/4"]]}
    assert doc["coefficients"][-1] == {"point": "inf", "vertices": [["3/4"]]}


def test_integer_rationals_are_accepted():
    text = json.dumps(
        {
            "lattice_rank": 1,
            "tail_cone": {"rays": [[1]]},
            "base": {"kind": "P1"},
            "coefficients": [{"point": 2, "vertices": [[-1]]}],
        }
    )
    d = parse_problem(text)
    assert d.coefficient(p1_point(2)).vertices == ((Fraction(-1),),)


def test_extra_rays_inside_the_tail_are_tolerated():
    text = json.dumps(
        {
            "lattice_rank": 1,
            "tail_cone": {"rays": [[1]]},
            "base": {"kind": "P1"},
            "coefficients": [
                {"point": "0", "vertices": [["1/2"]], "extra_rays": [[2]]}
            ],
        }
    )
    d = parse_problem(text)
    assert d.coefficient(p1_point(0)).vertices == ((Fraction(1, 2),),)


def test_extra_rays_outside_the_tail_are_rejected():
    text = json.dumps(
        {
            "lattice_rank": 1,
            "tail_cone": {"rays": [[1]]},
            "base": {"kind": "P1"},
            "coefficients": [
                {"point": "0", "vertices": [["1/2"]], "extra_rays": [[-1]]}
            ],
        }
    )
    with pytest.raises(InvalidInputError) as exc:
        parse_problem(text)
    assert any("extra_rays[0]" in v for v in exc.value.violations)


def test_non_pointed_tail_reports_the_documents_own_violations_first():
    text = json.dumps(
        {
            "lattice_rank": 2,
            "tail_cone": {"rays": [[1, -1], [-1, 1]]},
            "base": {"kind": "affine_space", "dim": 1},
            "coefficients": [
                {"point": {"hyperplane": 1}, "vertices": [[0, 0]], "extra_rays": [[1, 0]]}
            ],
        }
    )
    with pytest.raises(InvalidInputError) as exc:
        parse_problem(text)
    assert exc.value.violations == [
        "coefficients[0].extra_rays[0]: ray ('1', '0') is not in the tail cone"
    ]
    with pytest.raises(ShapeError, match="the tail cone must be pointed"):
        parse_problem(text.replace(', "extra_rays": [[1, 0]]', ""))


def test_parse_builds_the_tail_cone_once(monkeypatch):
    calls = []
    real = problem_io.make_cone

    def counting(rays, rank):
        calls.append((tuple(map(tuple, rays)), rank))
        return real(rays, rank)

    monkeypatch.setattr(problem_io, "make_cone", counting)
    monkeypatch.setattr(pdiv, "make_cone", counting)
    problem_io._tail_cone.cache_clear()
    rays = [[i, i * i, 1] for i in range(6)] + [[2, 5, 1]]
    doc = {
        "lattice_rank": 3,
        "tail_cone": {"rays": rays},
        "base": {"kind": "affine_line"},
        "coefficients": [{"point": "0", "vertices": [[0, 0, 1], [1, 1, 1]]}],
    }
    d = parse_problem(json.dumps(doc))
    assert calls == [(tuple(tuple(Fraction(x) for x in r) for r in rays), 3)]
    assert len(d.tail.rays) == 6
    # another document with the same tail builds nothing and shares the Cone
    doc["base"] = {"kind": "P1"}
    assert parse_problem(json.dumps(doc)).tail is d.tail
    assert len(calls) == 1


def random_tail_rays(rng, rank, shape):
    """Tail rays as a document writes them: none, the orthant's scaled axes,
    the orthant with sums, duplicates and scaled copies mixed in, a cone
    holding a ray and its negative, or one ray with a coordinate too many;
    shuffled, some entries written as strings."""
    axes = [[int(i == j) for j in range(rank)] for i in range(rank)]
    if shape == "trivial":
        return []
    rays = [[rng.randint(1, 3) * x for x in a] for a in axes]
    if shape == "redundant":
        rays += [[sum(col) for col in zip(*rng.sample(axes, rng.randint(1, rank)))]]
        rays += [rng.choice(rays), [2 * x for x in rng.choice(rays)]]
    elif shape == "non-pointed":
        rays.append([-x for x in rng.choice(rays)])
    elif shape == "wrong rank":
        rays.append([1] * (rank + 1))
    rng.shuffle(rays)
    return [[str(x) if rng.random() < 0.3 else x for x in r] for r in rays]


def tail_document(rng, rank, rays):
    base = rng.choice([{"kind": "P1"}, {"kind": "affine_line"}, {"kind": "abstract", "genus": 1}])
    vertex = [f"{rng.randint(-5, 5)}/{rng.randint(1, 4)}" for _ in range(rank)]
    point = str(rng.randint(0, 3)) if base["kind"] != "abstract" else "p"
    return json.dumps(
        {
            "lattice_rank": rank,
            "tail_cone": {"rays": rays},
            "base": base,
            "coefficients": [{"point": point, "vertices": [vertex]}],
        }
    )


def parsed_tail(text):
    """The parsed tail cone, or the error the parse raised as comparable data."""
    try:
        return parse_problem(text).tail
    except ShapeError as exc:
        return ("ShapeError", str(exc))
    except InvalidInputError as exc:
        return ("InvalidInputError", exc.violations)


def test_documents_with_equal_tails_share_one_cone_a_fresh_build_equals():
    """Random tails at ranks 1 to 3, each parsed in two different documents,
    and now and then an earlier tail again after others may have pushed it
    out: equal tail rays give the identical Cone, which equals a fresh
    make_cone build with its dual and dual_dd; a non-pointed tail raises
    its ShapeError and a ray of the wrong rank its violation on every
    parse; and no more than TAIL_CONES_KEPT cones are ever kept."""
    rng = Random(20261022)
    problem_io._tail_cone.cache_clear()
    seen = Counter()
    earlier = []
    for _ in range(150):
        if earlier and rng.random() < 0.25:
            rank, shape, rays = rng.choice(earlier)
        else:
            rank = rng.randint(1, 3)
            shape = rng.choice(("trivial", "orthant", "redundant", "non-pointed", "wrong rank"))
            rays = random_tail_rays(rng, rank, shape)
            earlier.append((rank, shape, rays))
        first, second = (parsed_tail(tail_document(rng, rank, rays)) for _ in range(2))
        assert problem_io._tail_cone.cache_info().currsize <= problem_io.TAIL_CONES_KEPT
        seen[shape] += 1
        if shape == "non-pointed":
            assert first == second == ("ShapeError", "the tail cone must be pointed")
            continue
        if shape == "wrong rank":
            kind, violations = first
            assert first == second and kind == "InvalidInputError"
            assert [v for v in violations if v.startswith("tail_cone")] == [
                f"tail_cone.rays[{[len(r) for r in rays].index(rank + 1)}]: "
                f"expected {rank} coordinates, got {rank + 1}"
            ]
            continue
        fresh = make_cone([tuple(Fraction(x) for x in r) for r in rays], rank)
        assert second is first
        assert first == fresh and first.dual == fresh.dual and first.dual_dd == fresh.dual_dd
    assert problem_io._tail_cone.cache_info().currsize == problem_io.TAIL_CONES_KEPT
    assert min(seen.values()) >= 15, seen


def test_a_boolean_tail_entry_is_a_violation_next_to_its_equal_integer():
    # True == 1 and hash(True) == hash(1): the cone of [[1]] is kept, and
    # [[true]] still never reaches it
    text = tail_document(Random(1), 1, [[1]])
    assert parsed_tail(text) is parsed_tail(text)
    for rays, i in (([[True]], 0), ([[1], [True]], 1)):
        assert parsed_tail(text.replace("[[1]]", json.dumps(rays))) == (
            "InvalidInputError",
            [f"tail_cone.rays[{i}][0]: expected a rational, got a boolean"],
        )


def _sized_document(rank=1, dim=1, coefficients=1, vertices=1):
    return json.dumps(
        {
            "lattice_rank": rank,
            "tail_cone": {"rays": []},
            "base": {"kind": "affine_space", "dim": dim},
            "coefficients": [
                {"point": {"hyperplane": 1}, "vertices": [[k] + [0] * (rank - 1) for k in range(vertices)]}
            ] * coefficients,
        }
    )


def test_lattice_rank_is_capped():
    parse_problem(_sized_document(rank=MAX_LATTICE_RANK))
    with pytest.raises(InvalidInputError) as exc:
        parse_problem(_sized_document(rank=MAX_LATTICE_RANK + 1))
    assert exc.value.violations == [f"lattice_rank: at most {MAX_LATTICE_RANK} is supported"]


def test_affine_dimension_is_capped():
    parse_problem(_sized_document(dim=MAX_AFFINE_DIM))
    with pytest.raises(InvalidInputError) as exc:
        parse_problem(_sized_document(dim=MAX_AFFINE_DIM + 1))
    assert exc.value.violations == [f"base.dim: at most {MAX_AFFINE_DIM} is supported"]


def test_number_of_coefficients_is_capped():
    points = [{"point": str(k), "vertices": [["1/2"]]} for k in range(MAX_COEFFICIENTS)]
    doc = {"lattice_rank": 1, "tail_cone": {"rays": [[1]]}, "base": {"kind": "P1"}}
    assert len(parse_problem(json.dumps({**doc, "coefficients": points})).coefficients) == MAX_COEFFICIENTS
    with pytest.raises(InvalidInputError) as exc:
        parse_problem(_sized_document(coefficients=MAX_COEFFICIENTS + 1))
    assert exc.value.violations == [f"coefficients: at most {MAX_COEFFICIENTS} are supported"]


def test_number_of_vertices_is_capped():
    parse_problem(_sized_document(vertices=MAX_VERTICES))
    with pytest.raises(InvalidInputError) as exc:
        parse_problem(_sized_document(vertices=MAX_VERTICES + 1))
    assert exc.value.violations == [f"coefficients[0].vertices: at most {MAX_VERTICES} are supported"]


def test_number_of_tail_rays_is_capped():
    def fan_document(count):
        return json.dumps(
            {
                "lattice_rank": 2,
                "tail_cone": {"rays": [[1, k] for k in range(count)]},
                "base": {"kind": "affine_space", "dim": 1},
                "coefficients": [{"point": {"hyperplane": 1}, "vertices": [[0, 0]]}],
            }
        )

    assert parse_problem(fan_document(MAX_RAYS)).tail.rays == ((1, 0), (1, MAX_RAYS - 1))
    with pytest.raises(InvalidInputError) as exc:
        parse_problem(fan_document(MAX_RAYS + 1))
    assert exc.value.violations == [f"tail_cone.rays: at most {MAX_RAYS} are supported"]


def test_genus_of_an_abstract_base_is_capped():
    def genus_document(genus):
        return json.dumps(
            {
                "lattice_rank": 1,
                "tail_cone": {"rays": [[1]]},
                "base": {"kind": "abstract", "genus": genus},
                "coefficients": [{"point": "p", "vertices": [["1/2"]]}],
            }
        )

    assert parse_problem(genus_document(MAX_GENUS)).base.genus == MAX_GENUS
    for genus in (MAX_GENUS + 1, 100000):
        with pytest.raises(InvalidInputError) as exc:
            parse_problem(genus_document(genus))
        assert exc.value.violations == [f"base.genus: at most {MAX_GENUS} is supported"]


def test_number_of_extra_rays_is_capped():
    def extra_document(count):
        return json.dumps(
            {
                "lattice_rank": 1,
                "tail_cone": {"rays": [[1]]},
                "base": {"kind": "P1"},
                "coefficients": [{"point": "0", "vertices": [["1/2"]], "extra_rays": [[k + 1] for k in range(count)]}],
            }
        )

    parse_problem(extra_document(MAX_RAYS))
    with pytest.raises(InvalidInputError) as exc:
        parse_problem(extra_document(MAX_RAYS + 1))
    assert exc.value.violations == [f"coefficients[0].extra_rays: at most {MAX_RAYS} are supported"]


def test_malformed_json_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_problem("{\n  \"lattice_rank\": 1,\n}")
    assert exc.value.line == 3


def test_floats_are_rejected_with_path():
    text = json.dumps(
        {
            "lattice_rank": 1,
            "tail_cone": {"rays": [[1]]},
            "base": {"kind": "P1"},
            "coefficients": [{"point": "0", "vertices": [[0.25]]}],
        }
    )
    with pytest.raises(InvalidInputError) as exc:
        parse_problem(text)
    assert any("coefficients[0].vertices[0][0]" in v for v in exc.value.violations)
    assert any("floating-point" in v for v in exc.value.violations)


def _vertex_doc(literal: str) -> str:
    """A one-point P1 document whose vertex is the given JSON literal."""
    return (
        '{"lattice_rank": 1, "tail_cone": {"rays": [[1]]}, "base": {"kind": "P1"},'
        f' "coefficients": [{{"point": "0", "vertices": [[{literal}]]}}]}}'
    )


@pytest.mark.parametrize(
    "literal",
    [
        '"1e-200000"',
        '"-1e-2000"',
        '"1_000"',
        '"1.5"',
        '" 1/2"',
        '"1/-2"',
        '"1/0"',
        f'"{"7" * (MAX_DIGITS + 1)}/3"',
        f'"3/{"7" * (MAX_DIGITS + 1)}"',
        "7" * (MAX_DIGITS + 1),
        "-" + "7" * 5000,
    ],
    ids=[
        "exponent",
        "negative-exponent",
        "underscore",
        "decimal",
        "whitespace",
        "signed-denominator",
        "zero-denominator",
        "long-numerator",
        "long-denominator",
        "long-json-integer",
        "huge-json-integer",
    ],
)
def test_rationals_outside_the_grammar_are_violations(literal):
    with pytest.raises(InvalidInputError) as exc:
        parse_problem(_vertex_doc(literal))
    assert len(exc.value.violations) == 1
    violation = exc.value.violations[0]
    assert violation.startswith("coefficients[0].vertices[0][0]: ")
    assert len(violation) < 200


@pytest.mark.parametrize(
    "literal,value",
    [
        ('"+3/4"', Fraction(3, 4)),
        ('"-007/014"', Fraction(-1, 2)),
        (f'"-{"9" * MAX_DIGITS}/{"9" * MAX_DIGITS}"', Fraction(-1)),
        ("-" + "9" * MAX_DIGITS, Fraction(-(10**MAX_DIGITS - 1))),
    ],
)
def test_rationals_inside_the_grammar_are_read_exactly(literal, value):
    d = parse_problem(_vertex_doc(literal))
    assert d.coefficient(p1_point(0)).vertices == ((value,),)


@pytest.mark.parametrize(
    "literal",
    [
        "0", "-17", "true", "false", "null", "0.25", "-0.0", "1e3", "[1]", '{"x": 1}',
        '"3"', '"-3/4"', '"+0/5"', '"1/0"', '"-0/0"', '"x"', '""', '"1/2/3"', '"9" ',
        "7" * (MAX_DIGITS + 1), "-" + "7" * (MAX_DIGITS + 1), "7" * MAX_DIGITS,
        f'"{"7" * (MAX_DIGITS + 1)}"', f'"1/{"7" * (MAX_DIGITS + 1)}"',
        f'"{"a" * 39}"', f'"{"a" * 40}"', f'"{"a" * 41}"', '"\\u00e9/2"', '"1/\\n2"',
    ],
)
def test_rationals_read_as_the_isinstance_chain_reads_them(literal):
    # exact type tests first, then the rest: the same value or the same text
    value = problem_io._DECODER.decode(literal)
    got, want = [], []
    assert problem_io._rational(value, "p", got) == rational(value, "p", want)
    assert got == want


def test_long_integers_are_rejected_outside_rationals_too():
    text = '{"lattice_rank": ' + "1" * (MAX_DIGITS + 1) + ', "tail_cone": {"rays": []},' \
        ' "base": {"kind": "P1"}}'
    with pytest.raises(InvalidInputError) as exc:
        parse_problem(text)
    assert exc.value.violations == ["lattice_rank: expected a positive integer"]


def test_violations_are_collected_together():
    text = json.dumps(
        {
            "lattice_rank": 1,
            "tail_cone": {"rays": [[1]]},
            "base": {"kind": "P1"},
            "coefficients": [
                {"point": "0", "vertices": [["1/0"]]},
                {"point": "nope/", "vertices": [["1"]]},
                {"point": "2", "vertices": [["1"], ["1", "2"]]},
            ],
        }
    )
    with pytest.raises(InvalidInputError) as exc:
        parse_problem(text)
    joined = "\n".join(exc.value.violations)
    assert "coefficients[0].vertices[0][0]" in joined
    assert "coefficients[1].point" in joined
    assert "coefficients[2].vertices[1]" in joined
    assert len(exc.value.violations) == 3


def test_unknown_keys_and_kinds_are_flagged():
    with pytest.raises(InvalidInputError) as exc:
        parse_problem(json.dumps({"lattice_rank": 1, "tail": {}, "base": {}}))
    joined = "\n".join(exc.value.violations)
    assert "unknown key 'tail'" in joined
    assert "missing required key 'tail_cone'" in joined

    with pytest.raises(InvalidInputError) as exc:
        parse_problem(
            json.dumps(
                {
                    "lattice_rank": 1,
                    "tail_cone": {"rays": []},
                    "base": {"kind": "parabola"},
                }
            )
        )
    assert any("base.kind" in v for v in exc.value.violations)


def test_boolean_rank_is_rejected():
    text = json.dumps(
        {"lattice_rank": True, "tail_cone": {"rays": [[1]]}, "base": {"kind": "P1"}}
    )
    with pytest.raises(InvalidInputError):
        parse_problem(text)


def test_abstract_base_parsing():
    proper = parse_problem(
        json.dumps(
            {
                "lattice_rank": 1,
                "tail_cone": {"rays": [[1]]},
                "base": {"kind": "abstract", "genus": 2},
                "coefficients": [{"point": "p", "vertices": [["1/2"]]}],
            }
        )
    )
    assert proper.base.genus == 2
    with pytest.raises(InvalidInputError) as exc:
        parse_problem(
            json.dumps(
                {
                    "lattice_rank": 1,
                    "tail_cone": {"rays": [[1]]},
                    "base": {"kind": "abstract", "genus": 2, "proper": False},
                }
            )
        )
    assert any("proper abstract curves" in v for v in exc.value.violations)


def abstract_doc(base, point="p"):
    return json.dumps(
        {
            "lattice_rank": 1,
            "tail_cone": {"rays": [[1]]},
            "base": base,
            "coefficients": [{"point": point, "vertices": [["1/2"]]}],
        }
    )


def test_abstract_base_without_properness_is_an_affine_curve():
    d = parse_problem(abstract_doc({"kind": "abstract", "proper": False}))
    assert isinstance(d.base, AbstractAffineCurve)
    assert not d.base.projective
    assert [key for key, _ in d.coefficients] == [LabelPoint("p")]


@pytest.mark.parametrize("proper", [1, "yes", None])
def test_non_boolean_properness_is_a_violation(proper):
    with pytest.raises(InvalidInputError) as exc:
        parse_problem(abstract_doc({"kind": "abstract", "genus": 1, "proper": proper}))
    assert exc.value.violations == ["base.proper: expected true or false"]


def test_empty_point_label_is_a_violation():
    with pytest.raises(InvalidInputError) as exc:
        parse_problem(abstract_doc({"kind": "abstract", "genus": 1}, point=""))
    assert any("expected a nonempty point label" in v for v in exc.value.violations)


def test_boolean_coordinate_is_a_violation():
    text = json.dumps(
        {
            "lattice_rank": 1,
            "tail_cone": {"rays": [[1]]},
            "base": {"kind": "P1"},
            "coefficients": [{"point": "0", "vertices": [[True]]}],
        }
    )
    with pytest.raises(InvalidInputError) as exc:
        parse_problem(text)
    assert any("expected a rational, got a boolean" in v for v in exc.value.violations)


@pytest.mark.parametrize(
    "base, points",
    [
        (AbstractProjectiveCurve(2), [LabelPoint("p"), LabelPoint("q")]),
        (AbstractAffineCurve(), [LabelPoint("p"), LabelPoint("q")]),
        (AffineLine(), [RationalPoint(Fraction(0)), RationalPoint(Fraction(-3, 2))]),
    ],
    ids=["abstract proper", "abstract affine", "affine line"],
)
def test_round_trip_on_label_and_rational_points(base, points):
    slopes = (Fraction(1, 2), Fraction(-1, 3))
    d = polyhedral_divisor(base, 1, RAY, {pt: halfline(v) for pt, v in zip(points, slopes)})
    text = emit_problem(d)
    assert parse_problem(text) == d
    assert emit_problem(parse_problem(text)) == text


def test_off_curve_point_is_a_violation():
    text = json.dumps(
        {
            "lattice_rank": 1,
            "tail_cone": {"rays": [[1]]},
            "base": {"kind": "elliptic", "a": "-1", "b": "0"},
            "coefficients": [{"point": {"x": "2", "y": "2"}, "vertices": [["1/2"]]}],
        }
    )
    with pytest.raises(InvalidInputError) as exc:
        parse_problem(text)
    assert any("does not satisfy" in v for v in exc.value.violations)


def test_report_payload_for_classification_reports():
    d = parse_problem(read("golden_one.json"))
    payload = report_payload(rational_singularities(d))
    assert payload == {
        "verdict": "no",
        "criterion": "floor-degrees-at-least-minus-one",
        "witness": [1],
    }
    gor = report_payload(gorenstein(d))
    assert gor["verdict"] == "yes"
    assert gor["canonical_index"] == "1"
    assert gor["vertical_multiplicities"] == [["0", "-1"], ["1", "-1"], ["inf", "0"]]
    assert gor["canonical_difference"] == [["0", "-1"], ["1", "-1"], ["inf", "2"]]


def test_emit_report_text_format():
    d = parse_problem(read("golden_one.json"))
    text = emit_report(rational_singularities(d), format="text")
    assert "verdict: no" in text.splitlines()
    assert "witness: [1]" in text.splitlines()
    nested = emit_report(gorenstein(d), format="text")
    assert "vertical_multiplicities[0]: [0, -1]" in nested.splitlines()
    with pytest.raises(ShapeError):
        emit_report(rational_singularities(d), format="yaml")


def test_emit_report_json_is_stable():
    d = parse_problem(read("golden_one.json"))
    parsed = json.loads(emit_report(rational_singularities(d)))
    assert list(parsed) == ["verdict", "criterion", "witness"]


def _reports_emitted(monkeypatch, runs):
    """Every object the CLI hands to emit_report while it makes the runs."""
    reports = []

    def recording(obj, format="json"):
        reports.append(obj)
        return problem_io.emit_report(obj, format=format)

    monkeypatch.setattr(cli, "emit_report", recording)
    for run in runs:
        run()
    return reports


def test_emit_report_matches_json_dumps_on_the_golden_reports(monkeypatch):
    from test_golden_cli import golden_cases, run_cli

    runs = [lambda argv=argv: run_cli(argv) for _, argv in golden_cases()]
    reports = _reports_emitted(monkeypatch, runs)
    assert len(reports) == len(runs)
    for obj in reports:
        assert emit_report(obj) == json_report(obj)
        assert report_payload(obj) == payload(obj)


def test_emit_report_matches_json_dumps_on_the_benchmark_corpora(monkeypatch):
    from corpus_digest import WORKLOADS, generate, run

    for workload in WORKLOADS:
        docs = generate(workload, 7)
        runs = [lambda doc=doc: run(doc["argv"], doc["text"]) for doc in docs]
        reports = _reports_emitted(monkeypatch, runs)
        assert len(reports) == len(runs)
        for obj in reports:
            assert emit_report(obj) == json_report(obj), workload
            assert report_payload(obj) == payload(obj), workload


ABSTRACT_LABELS = divisor(
    AbstractProjectiveCurve(2),
    {LabelPoint("caf\u00e9 \u2603"): Fraction(1, 2), LabelPoint("\U0001f600\x01"): Fraction(-3)},
)


@pytest.mark.parametrize(
    "obj",
    [
        ABSTRACT_LABELS,
        {"label \u00e9": "\u03a9\u2081", "astral": "\U0001f600"},
        {'quote " key': 'a "quoted" back\\slash', "controls": "\x00\x01\x1f\x7f\b\f\n\r\t"},
        [],
        {},
        [[]],
        [{}],
        {"a": [], "b": {}, "c": [[], {}, [[]]]},
        [[[{}]], {"x": [{}, []]}],
        [True, False, None, "true", "null"],
        {"yes": True, "no": False, "none": None},
        [-1, 0, -(2**70), 2**64, 2**64 + 1, 10**40],
        ["", " ", "  \n  "],
        "a bare string",
        -17,
        None,
        True,
    ],
)
def test_emit_report_matches_json_dumps_on_hand_built_payloads(obj):
    assert emit_report(obj) == json_report(obj)


class Shade(Enum):
    DARK = "dark"


class Level(IntEnum):
    HIGH = 2


Pair = namedtuple("Pair", "a b")


@pytest.mark.parametrize(
    "bad",
    [1.5, [float("nan")], {1, 2}, {"x": {3}}, [b"bytes"], {1: "key"}]
    + [Level.HIGH, Shade.DARK, Pair(1, 2)],
)
def test_the_report_writer_refuses_what_no_payload_holds(bad):
    # reports hold no floats, sets, bytes, non-str keys, enums other than
    # the str enum Verdict, or tuple subclasses, so one reaching the writer
    # is a bug, not a number; the text format reads the same writer
    with pytest.raises(TypeError):
        problem_io._json_text(bad, "")
    with pytest.raises(TypeError):
        emit_report(bad, format="text")


def test_report_payload_writes_points_as_strings_and_divisors_as_pairs():
    # points and divisors are dataclasses, but neither becomes an object
    assert report_payload(p1_point(3, 2)) == "3/2"
    assert report_payload(P1_INFINITY) == "inf"
    assert report_payload(ABSTRACT_LABELS) == [["caf\u00e9 \u2603", "1/2"], ["\U0001f600\x01", "-3"]]


@pytest.mark.parametrize("text", ["\ufeff{}", "", "{", "[1,", '{"a": 1} x', "nul"])
def test_the_shared_decoder_fails_where_json_loads_fails(text):
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(text)
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert (exc.value.line, exc.value.column) == (expected.value.lineno, expected.value.colno)
    assert str(exc.value).startswith(expected.value.msg)


def test_deep_nesting_is_a_parse_error_without_a_position():
    with pytest.raises(ParseError) as exc:
        parse_problem("[" * 100_000)
    assert exc.value.line is None
