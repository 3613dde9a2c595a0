"""The benchmark's own tests: python3 -m pytest bench -q

They need no polydiv: the generator, the oracles and the span arithmetic are
checked on their own, the oracles against the known answers of the golden
triples.
"""

from fractions import Fraction

import pytest

import corpus
import oracles
import spans


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = corpus.generate(workload, 7)
    assert corpus.generate(workload, 7) == first
    assert corpus.digest(corpus.generate(workload, 8)) != corpus.digest(first)
    assert len(first) >= 100  # at least ten documents beyond p90


@pytest.mark.parametrize("name, witness, gorenstein, index", [
    ("golden_one", 1, "yes", 1),
    ("golden_two", 1, "yes", 1),
    ("golden_three", 2, "no", 3),
])
def test_rank1_oracle_reproduces_golden_triples(name, witness, gorenstein, index):
    points, slopes = corpus.GOLDEN[name]
    ans = oracles.rank1_answers({"kind": "p1_rank1", "points": points, "slopes": slopes})
    assert ans["elliptic"] == ("yes", "unique-floor-degree-minus-two")
    hits = [m for m, d in enumerate(ans["elliptic_profile"]) if m and d == -2]
    assert hits == [witness]
    assert ans["gorenstein"][0] == gorenstein
    assert ans["index"] == index
    assert ans["h1_total"] == 1
    assert ans["rational"] == "no"
    assert ans["minimal"] == gorenstein


def test_ring_oracle_reproduces_golden_one():
    points, slopes = corpus.GOLDEN["golden_one"]
    dims = [max(0, d + 1) for d in oracles.floor_degrees(slopes, 12)]
    assert tuple(dims) == (1, 0, 0, 1, 2, 0, 1, 2, 3, 1, 2, 3, 4)
    finite = [None if z == "inf" else Fraction(z) for z in points]
    assert oracles.ring_generator_degrees(finite, slopes, 12) == [3, 4, 4]
    assert oracles.monomial_count([3, 4, 4], 8) == 3


def test_check_flags_a_wrong_answer():
    doc = corpus.p1_rank1("g", ["rational"], *corpus.GOLDEN["golden_one"])
    good = '{"verdict": "no", "criterion": "floor-degrees-at-least-minus-one", "witness": [1]}'
    assert oracles.check(doc, 0, good) == []
    assert oracles.check(doc, 0, good.replace('"no"', '"yes"'))
    assert oracles.check(doc, 0, good.replace("[1]", "[2]"))  # D(2) = -1 violates nothing
    assert oracles.check(doc, 3, good)


def test_orthant_oracle_both_branches():
    def cleared(verts):
        return [[(tuple(int(x * 12) for x in v), 12) for v in vs] for vs in verts]

    third = Fraction(1, 3)
    rational = cleared([[(-third, -Fraction(1, 2))], [(third + Fraction(1, 5), Fraction(1, 2) + Fraction(1, 5))]])
    assert oracles.orthant_rational(rational, 2) == "yes"
    two3 = Fraction(-2, 3)
    golden_like = cleared([[(two3, two3)], [(two3, two3)], [(Fraction(17, 12),) * 2]])
    assert oracles.orthant_rational(golden_like, 2) == "no"
    assert oracles.orthant_eval(golden_like, (2, 0)) == -2


def test_ec_principality_in_two_torsion():
    three = [("(0,0)", 1), ("(1,0)", 1), ("(-1,0)", 1), ("O", -3)]
    assert oracles.ec_principal(three)
    assert not oracles.ec_principal([("(0,0)", 1), ("O", -1)])
    assert oracles.ec_principal([("(0,0)", 2), ("O", -2)])


def test_toric_oracle_on_affine_plane():
    doc = corpus.affine_doc("a", ["toric"], **corpus.AFFINE_PLANE)
    want = oracles.toric_answers(doc["oracle"])
    assert want["rays"] == [(-1, 2, 0), (1, 0, 0), (2, 0, 3)]
    assert (want["simplicial"], want["multiplicity"], want["smooth"]) == (True, 6, False)
    assert oracles.column_reduce([[2, 4], [1, 2]]) == [2]  # rank one
    assert oracles.column_reduce([[0, 0, 5], [0, 3, 0]]) == [5, 3]


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]


def test_summarize_layers_per_doc_and_hit_ratio():
    rec = spans.Recorder()
    rec.names = ["cli.main", "classify.decide_floor_bound", "linalg.solve", "pdiv.evaluate",
                 "pdiv.is_proper", "curves.floor_divisor"]
    # doc 0 (classify): main > is_proper, main > dfb > {solve, solve, evaluate, floor_divisor}
    rows = [(0, 0.0, 10.0, -1, 0), (4, 0.5, 1.5, 0, 0), (1, 2.0, 9.0, 0, 0),
            (2, 3.0, 4.0, 2, 0), (2, 4.0, 5.0, 2, 0), (3, 5.0, 6.0, 2, 0), (5, 6.0, 7.0, 2, 0),
            # doc 1 (not classify): main > evaluate, outside the search
            (0, 20.0, 22.0, -1, 1), (3, 20.5, 21.0, 7, 1)]
    for fn, s, e, p, d in rows:
        rec.fn.append(fn)
        rec.start.append(s)
        rec.end.append(e)
        rec.parent.append(p)
        rec.doc.append(d)
    out = spans.summarize(rec, classify_docs={0})
    assert out["cli.calls"] == 2 and out["cli.self_s"] == (10 - 1 - 7) + (2 - 0.5)
    assert out["classify.decide_floor_bound.self_s"] == 7 - 4
    assert out["pdiv.calls"] == 3 and out["pdiv.evaluate.calls"] == 2
    assert out["pdiv.is_proper.per_doc"] == 1
    assert out["classify.decide_floor_bound.per_doc"] == 1
    assert out["classify.search_hit_ratio"] == 1 / 2
    names = {m["name"] for m in spans.per_layer_metrics()}
    assert names - set(out) == {"problem_io.emit_bytes", "trace.overhead_ratio"}
