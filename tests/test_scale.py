"""Answers at 10^3-10^4 generators, pinned in `pinned/scale_answers.json`:
the U-module homology of two triple connected sums of cables, the
structural report of one, and the nonexistence token of the local-map
search from cable3 to cable2^3."""

import json
from pathlib import Path

import pytest

from knotfloer.homology import hfk_minus
from knotfloer.knotlib import build_cable
from knotfloer.localequiv import LocalSearchSpec, search_local_map
from knotfloer.morphism import enumerate_almost_iotas
from knotfloer.tensorsum import product_iota, tensor, tensor_many

PINNED = json.loads((Path(__file__).parent / "pinned"
                     / "scale_answers.json").read_text())
CABLES = {"cable2": build_cable(2), "cable3": build_cable(3)}


def _sum(name: str):
    return tensor_many([CABLES[part] for part in name.split("#")])


@pytest.mark.parametrize("name", ["cable2#cable2#cable3",
                                  "cable2#cable3#cable3"])
def test_hfk_minus_of_triple_sums(name):
    C, want = _sum(name), PINNED[name]
    d = hfk_minus(C)
    assert len(C) == want["generators"]
    assert list(d.tower_gradings) == want["tower_gradings"]
    assert [list(s) for s in d.torsion] == [
        [order, gr] for order, gr, count in want["torsion_counts"]
        for _ in range(count)]


def test_validate_of_a_triple_sum():
    report = _sum("cable2#cable2#cable3").validate()
    want = PINNED["cable2#cable2#cable3"]["validate"]
    assert (report.d_squared, report.grading_law, report.reduced,
            report.grading_symmetric, list(report.messages)) == (
        want["d_squared"], want["grading_law"], want["reduced"],
        want["grading_symmetric"], want["messages"])


def test_cable3_to_cable2_cubed_token():
    k2 = CABLES["cable2"]
    i2 = enumerate_almost_iotas(k2)[0]
    T2 = tensor(k2, k2)
    i22 = product_iota(k2, i2, k2, i2, 1, T2)
    T3 = tensor(T2, k2)
    target = (T3, product_iota(T2, i22, k2, i2, 1, T3))
    cert = search_local_map(LocalSearchSpec((CABLES["cable3"], None), target))
    assert not cert.exists
    assert (cert.token.render()
            == PINNED["cable3->cable2#cable2#cable2"]["token"])
