"""The box strict CQ read off the multiplier vertices
(``kkt.strict_cq_by_vertices``) against the reference route, one double
description per vertex (``kkt.check_strict_cq``): equal verdicts and
achieved cones at every vertex, and every new witness a nonzero solution
of the polar rows of its vertex's annihilator section."""

import numpy as np
import pytest

import kkt2.kkt
from kkt2.errors import UsageError
from kkt2.examples import build_example1, build_example2
from kkt2.kkt import check_strict_cq, multiplier_set, strict_cq_by_vertices

from helpers import many_multiplier_spec, random_stationary_problem

FEAS = 1e-9


def _random_boxes():
    """Seeded stationary box problems with a bounded multiplier polytope:
    (label, problem, point)."""
    rng = np.random.default_rng(1985)
    out = []
    for k in range(120):
        p, x, _, _ = random_stationary_problem(rng, max_dim=5, max_constraints=4)
        if multiplier_set(p, x).vertices:
            out.append((f"random{k}", p, x))
    return out


def _instances():
    ex1 = build_example1(24)
    return ([(f"many{s}", *many_multiplier_spec(s)) for s in range(4)]
            + [("example1", ex1.problem, ex1.xbar)] + _random_boxes())


INSTANCES = _instances()


def _reference(mset, monkeypatch):
    """``check_strict_cq`` at every vertex, with the polar rows (eq, ineq)
    that its double description received."""
    rows = []
    real = kkt2.kkt.cone_is_trivial

    def recording(dim, eq, ineq, tol):
        rows.append(([a for a, _ in eq], [a for a, _ in ineq]))
        return real(dim, eq, ineq, tol)

    with monkeypatch.context() as m:
        m.setattr(kkt2.kkt, "cone_is_trivial", recording)
        verdicts = [check_strict_cq(mset, v) for v in mset.vertices]
    assert len(rows) == len(verdicts)
    return verdicts, rows


def test_the_random_boxes_have_one_vertex_and_several():
    counts = [len(multiplier_set(p, x).vertices) for label, p, x in INSTANCES
              if label.startswith("random")]
    assert counts.count(1) >= 20 and sum(c > 1 for c in counts) >= 10


@pytest.mark.parametrize("label, p, x", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_vertex_route_matches_the_double_description(label, p, x, monkeypatch):
    mset = multiplier_set(p, x)
    new = strict_cq_by_vertices(mset)
    old, polar_rows = _reference(mset, monkeypatch)
    assert len(new) == len(old) == len(mset.vertices)
    for a, b, (eq, ineq) in zip(new, old, polar_rows):
        assert (a.holds, a.achieved_cone) == (b.holds, b.achieved_cone)
        assert a.holds == (len(mset.vertices) == 1)
        if a.holds:
            assert a.witness is None and b.witness is None
            continue
        nu = a.witness
        assert np.max(np.abs(nu)) == 1.0  # nonzero, scaled like the DD's rows
        assert all(abs(float(r @ nu)) <= FEAS * (1.0 + np.abs(r).max()) for r in eq)
        assert all(float(r @ nu) <= FEAS * (1.0 + np.abs(r).max()) for r in ineq)


def test_example1_reads_both_half_lines():
    ex = build_example1(24)
    mset = multiplier_set(ex.problem, ex.xbar)
    verdicts = strict_cq_by_vertices(mset)
    assert [v.achieved_cone for v in verdicts] == ["[0, inf)", "(-inf, 0]"]
    assert [v.witness.tolist() for v in verdicts] == [[-1.0], [1.0]]
    assert not any(v.holds for v in verdicts)


def test_witness_is_the_first_other_vertex_difference():
    mset = multiplier_set(*many_multiplier_spec(0))
    V = np.array(mset.vertices)
    for j, v in enumerate(strict_cq_by_vertices(mset)):
        d = V[j] - V[1 if j == 0 else 0]
        assert np.array_equal(v.witness, d / np.abs(d).max() + 0.0)


def test_invalid_vertices_are_rejected():
    """The vertices are validated together, with the sign and normal-cone
    tests of ``validate_multipliers``."""
    p, x = many_multiplier_spec(1)
    mset = multiplier_set(p, x)
    v = mset.vertices[0]
    mset.__dict__["vertices"] = (v, -v)  # mu < 0 on an active inequality
    with pytest.raises(UsageError, match="nonnegative"):
        strict_cq_by_vertices(mset)
    mset.__dict__["vertices"] = (v, 10.0 * v)  # lambda off the free coordinates' = 0
    with pytest.raises(UsageError, match="normal-cone"):
        strict_cq_by_vertices(mset)


def test_hulls_keep_the_double_description():
    ex = build_example2(8)
    with pytest.raises(UsageError, match="box"):
        strict_cq_by_vertices(multiplier_set(ex.problem, ex.xbar))
