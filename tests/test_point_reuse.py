"""Per-point data computed once: one multiplier set per run, read by every
check, one box tangent pattern per run, the strict CQ on the set's point
data, vertex dedup with one array test per vertex, descent directions
evaluated once, and a battery's form columns evaluated once per cone and
point object.  Each fast path is compared with the direct computation it
replaces, bit for bit."""

import json
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import kkt2.cli
import kkt2.cones
import kkt2.examples.example1
import kkt2.kkt
import kkt2.model
from kkt2 import curvature, linalg, stages
from kkt2.cones import FREE, NONPOS, ZERO, SignPatternCone, critical_cone, tangent_cone_box
from kkt2.config import DEFAULT_BUDGET, DEFAULT_TOLERANCES, SearchBudget
from kkt2.curvature import (_battery_values, check_snc, check_snc_fixed_multiplier, check_ssc,
                            fixed_mu_value, q_of_h)
from kkt2.examples.certify import run_example1_certification
from kkt2.examples import build_example1, build_example2
from kkt2.kkt import check_strict_cq, multiplier_set
from kkt2.linalg import PolytopeH, enumerate_vertices
from kkt2.model import BoxSet, SmoothFunction, check_feasible
from kkt2.report import new_report

from helpers import many_multiplier_problem, many_multiplier_spec

BUDGET = SearchBudget(random=256, seed=3)


def _instances():
    """(label, problem, point): the many-multiplier boxes of seeds 0-3,
    example1 (a box) and example2 (a hull)."""
    out = [(f"many{s}", *many_multiplier_spec(s)) for s in range(4)]
    ex1, ex2 = build_example1(24), build_example2(8)
    return out + [("example1", ex1.problem, ex1.xbar), ("example2", ex2.problem, ex2.xbar)]


INSTANCES = _instances()


def _direct(p, x, mset):
    """``mset`` with its point data computed directly from the problem, as
    each check computed them for itself before it read them off the set:
    the derivatives, the box pattern, and K's pattern from the active set."""
    G = np.array(p.constraint_gradients(x), dtype=float).reshape(p.n_constraints, p.dim)
    k_codes = np.full(p.n_constraints, FREE)
    for i in check_feasible(p, x).info.active:
        k_codes[i] = ZERO if i < p.m1 else NONPOS
    box = isinstance(p.abstract_set, BoxSet)
    return replace(mset, c_pattern=tangent_cone_box(p.abstract_set, x) if box else None,
                   k_pattern=SignPatternCone(k_codes),
                   f_grad=np.asarray(p.objective.gradient(x), dtype=float), g_grads=G)


class TestStrictCQOnMultiplierSet:
    @pytest.mark.parametrize("label, p, x", INSTANCES, ids=[i[0] for i in INSTANCES])
    def test_same_verdict_at_every_vertex(self, label, p, x):
        mset = multiplier_set(p, x)
        direct_set = _direct(p, x, mset)
        assert len(mset.vertices)
        for vert in mset.vertices:
            direct, reused = check_strict_cq(direct_set, vert), check_strict_cq(mset, vert)
            assert (reused.holds, reused.achieved_cone) == (direct.holds, direct.achieved_cone)
            if direct.witness is None:
                assert reused.witness is None
            else:
                assert reused.witness.tobytes() == direct.witness.tobytes()

    def test_strict_stage_checks_feasibility_once_per_point(self, monkeypatch):
        """With the polytope built, the per-vertex loop calls check_feasible
        the same number of times (none) whatever the vertex count."""
        counts = {}
        for label, p, x in INSTANCES[:4]:
            ctx = stages.RunContext(p, x, DEFAULT_TOLERANCES, BUDGET,
                                    new_report(label, "", BUDGET.seed, x), 0.0)
            n_vertices = len(ctx.multipliers.vertices)
            calls = []
            real = kkt2.kkt.check_feasible
            monkeypatch.setattr(kkt2.kkt, "check_feasible",
                                lambda *a, **k: calls.append(1) or real(*a, **k))
            stages.strict_cq(ctx)
            monkeypatch.setattr(kkt2.kkt, "check_feasible", real)
            counts[n_vertices] = len(calls)
        assert len(counts) > 1  # the instances differ in their vertex counts
        assert set(counts.values()) == {0}


def _count_cone_probes(monkeypatch) -> list:
    """Counts calls of ``linalg.cone_is_trivial`` under every kkt2 alias."""
    calls = []
    real = linalg.cone_is_trivial
    for name, mod in list(sys.modules.items()):
        if name.startswith("kkt2") and getattr(mod, "cone_is_trivial", None) is real:
            monkeypatch.setattr(mod, "cone_is_trivial",
                                lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def _box_file(tmp_path, shape):
    """A many-multiplier box problem file and its point file."""
    problem, point = many_multiplier_problem(np.random.default_rng(0), *shape)
    ppath, xpath = tmp_path / f"p{shape}.json", tmp_path / f"x{shape}.json"
    ppath.write_text(json.dumps(problem))
    xpath.write_text(json.dumps({"point": point}))
    return str(ppath), str(xpath)


class TestBoxCQProbes:
    # (n, m, n_lower, rank, scale): 1, 2, 5 and 80 multiplier vertices
    SHAPES = [(6, 2, 2, 2, 0.01), (8, 3, 2, 2, 0.01), (10, 4, 3, 2, 0.05),
              (24, 8, 6, 3, 0.01)]

    def test_strict_cq_probes_the_same_whatever_the_vertex_count(self, tmp_path, monkeypatch,
                                                                 capsys):
        """``check-cq --strict`` reads a box's verdicts off the vertex list,
        so the number of polar probes does not grow with the vertices."""
        counts = {}
        for shape in self.SHAPES:
            ppath, xpath = _box_file(tmp_path, shape)
            with monkeypatch.context() as m:
                calls = _count_cone_probes(m)
                code = kkt2.cli.main(["check-cq", ppath, "--at", xpath, "--strict",
                                      "--format", "json"])
            records = [r for r in json.loads(capsys.readouterr().out)["checks"]
                       if r["name"].startswith("strict_cq")]
            assert code == (0 if len(records) == 1 else 1)
            counts[len(records)] = len(calls)
        assert sorted(counts) == [1, 2, 5, 80]
        assert len(set(counts.values())) == 1

    def test_rzkcq_and_weaker_share_one_probe(self, tmp_path, monkeypatch, capsys):
        """On a box both surjectivity CQs have the same polar system: plain
        ``check-cq`` runs it once, and the records match it."""
        ppath, xpath = _box_file(tmp_path, self.SHAPES[-1])
        calls = _count_cone_probes(monkeypatch)
        assert kkt2.cli.main(["check-cq", ppath, "--at", xpath, "--format", "json"]) == 0
        assert len(calls) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [(r["name"], r["verdict"]) for r in checks[1:]] == \
            [("rzkcq", "holds"), ("weaker_cq", "holds")]


def _pairwise_scaled_vertices(p, s, tol):
    """``linalg._scaled_vertices`` with the pairwise dedup loop it replaced."""
    Z = np.hstack([p.A, -p.b[:, None] / s])
    L, R = linalg._double_description(p.dim + 1, Z[: p.n_eq],
                                      np.vstack([Z[p.n_eq :], -np.eye(p.dim + 1)[-1:]]),
                                      tol.feasibility)
    finite = R[:, -1] > 0.0
    if not finite.any():
        return []
    if len(L) or not finite.all():
        return None
    vertices = []
    for r in R:
        x = s * r[:-1] / r[-1]
        if not any(np.max(np.abs(x - v), initial=0.0) <= tol.vertex_dedup for v in vertices):
            vertices.append(linalg._frozen(x + 0.0))
    return sorted(vertices, key=tuple)


def _assert_same_vertices(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.tobytes() == b.tobytes() and not a.flags.writeable


def _pairwise(poly, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(linalg, "_scaled_vertices", _pairwise_scaled_vertices)
        return enumerate_vertices(poly)


class TestVertexDedup:
    @pytest.mark.parametrize("seed", range(4))
    def test_multiplier_polytopes(self, seed, monkeypatch):
        poly = multiplier_set(*many_multiplier_spec(seed)).polytope
        new = enumerate_vertices(poly)
        assert len(new) >= 6
        _assert_same_vertices(new, _pairwise(poly, monkeypatch))

    def test_near_duplicate_rays(self, monkeypatch):
        """The unit square cut by x + y <= 2 - 5e-9: the double description
        returns two rays within vertex_dedup of (1, 1), and one is kept."""
        rows = np.vstack([np.kron(np.eye(2), [[1.0], [-1.0]]), np.ones(2)])
        poly = PolytopeH(rows, np.array([1.0, 0.0, 1.0, 0.0, 2.0 - 5e-9]))
        new = enumerate_vertices(poly)
        assert len(new) == 4
        _assert_same_vertices(new, _pairwise(poly, monkeypatch))

    def test_greedy_chains(self, monkeypatch):
        """Rays where a is within vertex_dedup of b and b of c, but a is not
        within it of c: the first-kept rule keeps a and c, in that order."""
        tol = DEFAULT_TOLERANCES.vertex_dedup
        rng = np.random.default_rng(0)
        base = rng.standard_normal((40, 3))
        jitter = rng.choice([0.0, 0.6 * tol, 1.2 * tol, 3.0 * tol], size=(120, 3))
        X = np.repeat(base, 3, axis=0) + jitter
        R = np.hstack([X, np.ones((len(X), 1))])[rng.permutation(len(X))]
        monkeypatch.setattr(linalg, "_double_description", lambda *a: (np.zeros((0, 4)), R))
        poly = PolytopeH(np.zeros((0, 3)), np.zeros(0))
        new = linalg._scaled_vertices(poly, 1.0, DEFAULT_TOLERANCES)
        old = _pairwise_scaled_vertices(poly, 1.0, DEFAULT_TOLERANCES)
        assert 40 < len(new) < 120
        _assert_same_vertices(new, old)


class TestSingleEvaluation:
    """Descent candidates carry the value a replay computes, and each
    accepted direction is evaluated once in its search."""

    @pytest.fixture()
    def spies(self, monkeypatch):
        """Per search, the candidates its descent accepted, the bytes of
        every direction ``_max_form`` evaluated, and the ``q_of_h`` calls,
        recorded while the search runs."""
        searches, running = [], []
        real_search, real_descend, real_form, real_q = (
            curvature._search_min, curvature._descend, curvature._max_form, curvature.q_of_h)

        def search(*args):
            searches.append(([], [], []))
            running.append(True)
            try:
                return real_search(*args)
            finally:
                running.pop()

        def descend(*args):
            out = real_descend(*args)
            searches[-1][0].extend(out[0])
            return out

        def form(mset, h, mus):
            if running:
                searches[-1][1].append(np.asarray(h).tobytes())
            return real_form(mset, h, mus)

        def q(mset, h):
            if running:
                searches[-1][2].append(np.asarray(h).tobytes())
            return real_q(mset, h)

        monkeypatch.setattr(curvature, "_search_min", search)
        monkeypatch.setattr(curvature, "_descend", descend)
        monkeypatch.setattr(curvature, "_max_form", form)
        monkeypatch.setattr(curvature, "q_of_h", q)
        return searches

    @pytest.mark.parametrize("seed", range(4))
    def test_sup_form(self, seed, spies):
        p, x = many_multiplier_spec(seed)
        mset = multiplier_set(p, x)
        check_snc(mset, budget=BUDGET)
        check_ssc(mset, eta=0.1, alpha_target=0.5, budget=BUDGET)
        assert any(accepted for accepted, _, _ in spies)
        for accepted, evaluated, q_calls in spies:
            assert not q_calls  # the search evaluates through _max_form alone
            for cand in accepted:
                assert evaluated.count(cand.h.tobytes()) == 1
                value, mu = q_of_h(mset, cand.h)
                assert cand.value == value and cand.mu.tobytes() == mu.tobytes()

    def test_fixed_multiplier(self, spies):
        p, x = many_multiplier_spec(0)
        mset = multiplier_set(p, x)
        mu = np.mean(mset.vertices, axis=0)
        check_snc_fixed_multiplier(mset, mu, budget=BUDGET)
        (accepted, evaluated, q_calls), = spies
        assert accepted and not q_calls  # a fixed-mu search never calls q_of_h
        for cand in accepted:
            assert evaluated.count(cand.h.tobytes()) == 1
            assert cand.value == fixed_mu_value(mset, cand.h, mu)


def _count_calls(monkeypatch) -> Counter:
    """Wraps ``check_feasible``, ``multiplier_set`` and ``tangent_cone_box``
    under every name a kkt2 module holds them by, as a tracer does, and
    counts their calls."""
    counts = Counter()
    for fn in (kkt2.model.check_feasible, kkt2.kkt.multiplier_set, kkt2.cones.tangent_cone_box):
        def wrapper(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == "kkt2" or name.startswith("kkt2.")):
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        monkeypatch.setattr(mod, attr, wrapper)
    return counts


class TestOnePointObjectPerRun:
    """Every CLI subcommand and both chains build at most one multiplier set
    and check feasibility at most twice: once for the feasibility record and
    once in ``multiplier_set``.  Runs that read neither build no set.  A box
    run builds its tangent pattern once, in ``multiplier_set``, and every
    later check reads it off the point object; a hull run builds none.  The
    Hessians at x are taken once per point object."""

    # (subcommand, multiplier sets, feasibility checks) on a box problem file
    RUNS = [
        (["check-foc"], 1, 2),
        (["check-cq"], 1, 2),
        (["check-cq", "--rzkcq", "--weaker", "--strict"], 1, 2),
        (["multipliers"], 1, 2),
        (["check-snc"], 1, 2),
        (["check-ssc", "--eta", "0.1", "--alpha", "0.5"], 1, 2),
        (["validate-derivatives"], 0, 0),
    ]

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("runs")
        problem, point = many_multiplier_problem(np.random.default_rng(7), n=12, m=5,
                                                 n_lower=3, rank=2, scale=0.01)
        (d / "p.json").write_text(json.dumps(problem))
        (d / "x.json").write_text(json.dumps({"point": point}))
        (d / "e1.json").write_text(json.dumps({"builtin": "example1", "grid": 12}))
        (d / "e2.json").write_text(json.dumps({"builtin": "example2", "trunc": 4}))
        return d

    @pytest.mark.parametrize("argv, sets, feasible", RUNS)
    def test_file_subcommands(self, files, argv, sets, feasible, monkeypatch, capsys):
        """On a box problem file: one pattern per multiplier set."""
        counts = _count_calls(monkeypatch)
        kkt2.cli.main([argv[0], str(files / "p.json"), "--at", str(files / "x.json"),
                       *argv[1:], "--format", "json"])
        assert json.loads(capsys.readouterr().out)["checks"]
        assert (counts["multiplier_set"], counts["check_feasible"]) == (sets, feasible)
        assert counts["tangent_cone_box"] == sets

    @pytest.mark.parametrize("argv", [argv for argv, _, _ in RUNS], ids=" ".join)
    def test_hull_file_subcommands_build_no_box_pattern(self, files, argv, monkeypatch, capsys):
        counts = _count_calls(monkeypatch)
        kkt2.cli.main([argv[0], str(files / "e2.json"), *argv[1:], "--format", "json"])
        assert json.loads(capsys.readouterr().out)["checks"]
        assert counts["tangent_cone_box"] == 0

    def test_growth_builds_no_multiplier_set(self, files, monkeypatch, capsys):
        counts = _count_calls(monkeypatch)
        kkt2.cli.main(["growth", str(files / "e1.json"), "--alpha", "0.5", "--eps", "0.05",
                       "--samples", "50", "--format", "json"])
        assert json.loads(capsys.readouterr().out)["checks"]
        assert (counts["multiplier_set"], counts["check_feasible"]) == (0, 1)
        assert counts["tangent_cone_box"] == 0

    @pytest.mark.parametrize("argv", [["example1", "--grid", "12"], ["example2", "--trunc", "4"]])
    def test_chains(self, argv, monkeypatch, capsys):
        counts = _count_calls(monkeypatch)
        kkt2.cli.main(["repro", *argv, "--format", "json"])
        assert json.loads(capsys.readouterr().out)["checks"]
        assert (counts["multiplier_set"], counts["check_feasible"]) == (1, 2)
        assert counts["tangent_cone_box"] == (1 if argv[0] == "example1" else 0)

    def test_example1_chain_builds_each_hessian_twice(self, monkeypatch, capsys):
        """``repro example1`` calls each function's ``hessian()`` twice: once
        in derivative validation and once on the point object, whose forms
        every second-order check reads (the sufficient and necessary
        conditions and the eleven fixed-multiplier searches)."""
        calls = Counter()

        def counted(**fields):
            hessian = fields["hessian"]

            def wrapper(x, _name=fields["name"]):
                calls[_name] += 1
                return hessian(x)

            return SmoothFunction(**{**fields, "hessian": wrapper})

        monkeypatch.setattr(kkt2.examples.example1, "SmoothFunction", counted)
        assert kkt2.cli.main(["repro", "example1", "--grid", "12", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["checks"]
        assert calls == {"f": 2, "g": 2}

    def test_cq_without_strict_does_not_enumerate_vertices(self, files, monkeypatch, capsys):
        """The RZKCQ and the weaker CQ read only the point data, so the
        double description of the multiplier polytope never starts."""
        calls = []
        real = kkt2.kkt.enumerate_vertices
        monkeypatch.setattr(kkt2.kkt, "enumerate_vertices",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        kkt2.cli.main(["check-cq", str(files / "p.json"), "--at", str(files / "x.json")])
        assert "rzkcq" in capsys.readouterr().out
        assert not calls



def _search(mset, cone, mu):
    """The sup-form search (mu None) or the fixed-mu search over ``cone``."""
    if mu is None:
        return check_snc(mset, cone=cone)
    return check_snc_fixed_multiplier(mset, mu, cone=cone)


def _verdict_bytes(v) -> tuple:
    return (v.kind, v.sampled_min, v.directions_evaluated, v.witness_value,
            v.witness_normalized, *(None if a is None else np.asarray(a).tobytes()
                                    for a in (v.witness, v.witness_mu)))


def _display_cone_case():
    """Example1's display cone with the sup form and the chain's 11 fixed
    multipliers."""
    ex = build_example1(480)
    mset = multiplier_set(ex.problem, ex.xbar)
    return mset, ex.display_critical_cone, [np.array([mu]) for mu in np.linspace(0.0, 1.0, 11)]


def _many_multiplier_case():
    """The first many-multiplier box on its critical cone, with the sup form,
    four vertices and the barycenter as fixed multipliers."""
    mset = multiplier_set(*many_multiplier_spec(0))
    mus = [*mset.vertices[:4], np.mean(mset.vertices, axis=0)]
    return mset, lambda m: critical_cone(m, 0.0), mus


def _count_block_quads(monkeypatch) -> Counter:
    """Counts the ``quad_rows`` calls on row blocks (more than one row) by
    form and block, for every form built after this call: battery blocks
    and screened descent ladders.  One-row calls are the ``quad`` of chosen
    directions and of descent rungs tried alone.  The blocks are kept
    alive, so no two of them share a key."""
    calls, blocks = Counter(), []
    real_init = linalg.BilinearForm.__init__

    def init(form, quad_rows, apply_rows=None):
        def spy(H):
            if len(H) > 1:
                blocks.append(H)
                calls[id(form), H.__array_interface__["data"][0], H.shape] += 1
            return quad_rows(H)

        real_init(form, spy, apply_rows)

    monkeypatch.setattr(linalg.BilinearForm, "__init__", init)
    return calls


class TestBatteryColumnsOncePerCone:
    """A cone's battery evaluates f''(x)h^2 and g''(x)h^2 once per point
    object; every search over the cone combines those cached columns with
    its multiplier or the vertices, and reports what a search over a fresh
    battery reports."""

    @pytest.mark.parametrize("case", [_display_cone_case, _many_multiplier_case],
                             ids=["example1_display", "many0"])
    def test_cached_values_equal_fresh_ones(self, case):
        mset, make_cone, mus = case()
        cone = make_cone(mset)
        searches = [None, *mus]
        verdicts = [_search(mset, cone, mu) for mu in searches]
        battery = curvature._battery(cone, DEFAULT_BUDGET)
        assert battery.mset is mset
        for mu, verdict in zip(searches, verdicts):
            mus = mset.vertices if mu is None else mu[None]
            n2, fresh = _battery_values(mset, battery.H, cone.weights, mus)
            cached = curvature._block_values(battery.blocks, mus)
            assert cached.tobytes() == fresh.tobytes()
            assert battery.n2.tobytes() == n2.tobytes()
            # the same search over a new cone draws and evaluates a new battery
            assert _verdict_bytes(verdict) == _verdict_bytes(_search(mset, make_cone(mset), mu))
            if verdict.witness is not None:
                replay = q_of_h(mset, verdict.witness)[0] if mu is None else \
                    fixed_mu_value(mset, verdict.witness, mu)
                assert verdict.witness_value == replay
                assert verdict.witness.base is None  # a copy, not a battery row

    def test_example1_chain_evaluates_each_block_once(self, monkeypatch):
        """``repro example1`` evaluates each form once per row block of each
        battery: the display cone's sup form and its 11 fixed multipliers
        share one pass of 576 rows instead of 12."""
        calls = _count_block_quads(monkeypatch)
        _, report = run_example1_certification(480)
        assert report.checks[-1].verdict == "pass"
        assert max(calls.values()) == 1
        rows = Counter()
        for (form, _, shape), _ in calls.items():
            rows[form] += shape[0]
        # two forms (f and g), each over the two ssc cones and the display cone
        assert len(rows) == 2 and all(r >= 576 for r in rows.values())

    def test_second_point_object_recomputes(self, monkeypatch):
        """Columns are kept with the point object that computed them: a search
        with another ``MultiplierSet`` over the same cone evaluates the forms
        again, and reports what the first one did."""
        calls = _count_block_quads(monkeypatch)
        p, x = many_multiplier_spec(0)
        first, second = multiplier_set(p, x), multiplier_set(p, x)
        cone = critical_cone(first, 0.0)
        verdict = check_snc(first, cone=cone, budget=BUDGET)
        once = sum(calls.values())
        assert once == len(calls) > 0 and len({form for form, _, _ in calls}) == 1 + first.m
        check_snc_fixed_multiplier(first, first.vertices[0], cone=cone, budget=BUDGET)
        assert sum(calls.values()) == once
        again = check_snc(second, cone=cone, budget=BUDGET)
        assert sum(calls.values()) == 2 * once
        assert curvature._battery(cone, BUDGET).mset is second
        assert _verdict_bytes(again) == _verdict_bytes(verdict)

    def test_ssc_holds_one_battery_at_a_time(self):
        """``check_ssc`` drops the extended cone, with its battery and form
        columns, before the eta = 0 cone draws its own, and no verdict keeps
        a battery row.  With 16,448 directions in R^24 a battery is 3.2 MB
        and its columns 1.3 MB; the search peaked at 10.9 MB with both
        batteries alive and peaks at 7.9 MB without."""
        mset = multiplier_set(*many_multiplier_spec(0))
        mset.f_form, mset.g_forms, mset.vertices  # point data, built before measuring
        tracemalloc.start()
        try:
            verdict = check_ssc(mset, eta=0.1, alpha_target=0.5, budget=SearchBudget(random=16384))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.kind == "ssc_holds"
        assert peak < 9.0e6
