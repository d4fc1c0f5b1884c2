"""Facets of finitely generated cones (``linalg.cone_facets``) and what they
decide: hull and ray-set membership of ``GeneratedConeSet`` and membership
of ray-based ``CriticalCone``s (their section generators are checked in
``test_sections.py``).

Membership is checked against ``linalg.conic_distance``, the NNLS distance.
"""

import numpy as np
import pytest

from kkt2.cones import CriticalCone
from kkt2.examples import build_example2, point_p, point_q
from kkt2.linalg import cone_facets, conic_distance
from kkt2.model import GeneratedConeSet

from helpers import random_ray_cone

SEEDS = range(0, 300, 5)


def probes(rng, rays, count=40):
    """Nonnegative combinations of the rays (members) and gaussian points."""
    R = np.array(rays)
    w = rng.exponential(size=(count, len(R)))
    w[: count // 4] *= rng.random((count // 4, len(R))) < 0.3  # on faces
    return [*(w @ R), *rng.standard_normal((count, R.shape[1]))]


def assert_agrees(member: bool, distance: float, h) -> str:
    """A clear member is accepted and a clear non-member rejected; points
    within 1e-6 of the boundary are not judged.  Returns the judgement."""
    scale = 1.0 + float(np.max(np.abs(h)))
    if distance <= 1e-12 * scale:
        assert member
        return "in"
    if distance > 1e-6 * scale:
        assert not member
        return "out"
    return "unjudged"


class TestConeFacets:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_generators_satisfy_the_facets_tightly(self, seed):
        """Every ray meets the facets, and the rays tight on each facet span,
        with the lineality basis, a hyperplane: the facet is a real one."""
        cone = random_ray_cone(seed, 3, 7)
        L, R = cone_facets(cone.dim, cone.base_rays)
        G = np.array(cone.base_rays)
        assert np.all(np.abs(G @ L.T) <= 1e-9 * np.abs(G).max())
        assert np.all(G @ R.T <= 1e-9 * np.abs(G).max())
        for r in R:
            tight = G[np.abs(G @ r) <= 1e-9 * np.abs(G).max()]
            assert np.linalg.matrix_rank(np.vstack([tight, L]), tol=1e-9) == cone.dim - 1

    def test_no_generators_is_the_origin(self):
        L, R = cone_facets(3, [])
        assert L.tolist() == np.eye(3).tolist() and len(R) == 0


class TestRaySetMembership:
    @pytest.mark.parametrize("seed", SEEDS[::2])
    def test_matches_conic_distance(self, seed):
        rng = np.random.default_rng(seed)
        cone = random_ray_cone(seed, 3, 7)
        base = rng.standard_normal(cone.dim)
        cset = GeneratedConeSet(base=base, rays=cone.base_rays)
        unrestricted = CriticalCone(cone.weights, None, cone.base_rays, (), (), None, 0.0)
        judged = set()
        for h in probes(rng, cone.base_rays, 20):
            d = conic_distance(cone.base_rays, h)
            judged.add(assert_agrees(cset.contains(base + h, 1e-9), d, h))
            assert_agrees(unrestricted.contains(h), d, h)
        assert {"in", "out"} <= judged

    def test_tolerance_is_used(self):
        """The ray-only branch honours its tol argument."""
        cset = GeneratedConeSet(base=np.zeros(2), rays=np.array([[1.0, 0.0]]))
        assert not cset.contains(np.array([1.0, 1e-6]), 1e-9)
        assert cset.contains(np.array([1.0, 1e-6]), 1e-5)


class TestHullMembership:
    @pytest.mark.parametrize("trunc", [2, 4, 8, 12, 15, 29, 40])
    def test_example2_matches_a_reference(self, trunc):
        """x in conv(points) iff (x, 1) in cone{(p, 1)}; probes are hull
        combinations (some on faces), the generating points, the limit ray's
        unit point and gaussian points at the hull's scale.  The dense
        simplex, asked the same question, failed at 12, 15, 29 and 40."""
        hull = build_example2(trunc).problem.abstract_set
        lifted = [np.append(p, 1.0) for p in hull.hull_points]
        rng = np.random.default_rng(trunc)
        P = np.array(hull.hull_points)
        w = rng.exponential(size=(30, len(P))) * (rng.random((30, len(P))) < 0.4)
        w[:, 0] += 1e-3
        inside = (w / w.sum(axis=1, keepdims=True)) @ P
        xs = [*inside, *P, np.array([0.0, 1.0, 0.0]), *(0.3 * rng.standard_normal((30, 3)))]
        judged = set()
        for x in xs:
            z = np.append(x, 1.0)
            d = conic_distance(lifted, z)
            judged.add(assert_agrees(hull.contains(x, 1e-9), d, z))
        assert {"in", "out"} <= judged

    @pytest.mark.parametrize("trunc", range(2, 41))
    def test_generating_points_are_members(self, trunc):
        """The whole range, because the dense simplex of ``solve_lp``, asked
        the same question as an LP, rejects the origin at 15, 18, 23, 26 and
        39 and hits its pivot limit at 29, 31, 33, 36, 37, 38 and 40."""
        hull = build_example2(trunc).problem.abstract_set
        assert hull.contains(np.zeros(3), 1e-9)
        for n in (1, 2, trunc):
            assert hull.contains(point_p(n), 1e-9) and hull.contains(point_q(n), 1e-9)
        assert not hull.contains(np.array([0.0, 1.0, 0.0]), 1e-9)
