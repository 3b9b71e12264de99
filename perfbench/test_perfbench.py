"""Tests of the benchmark's own machinery: self time, where the wrappers are
installed, failure accounting, and what the seed changes.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import itertools

import pytest

from perfbench import run, workloads
from perfbench.tracer import Target, Tracer, layer_totals, self_times
from weilrep import catmap, fqlin as la, heiwei, symp
from weilrep.gfq import FieldCtx


def ticking_clock():
    """A clock that advances by one on every reading."""
    return itertools.count().__next__


def test_self_time_of_a_synthetic_nested_call():
    tracer = Tracer(clock=ticking_clock())

    def countdown(n):
        return traced(n - 1) if n else 0

    traced = tracer.wrap(countdown, "countdown")
    traced(2)
    # begin 2 @0, begin 1 @1, begin 0 @2, end 0 @3, end 1 @4, end 2 @5
    assert [(s.start, s.end) for s in tracer.spans] == [(0, 5), (1, 4), (2, 3)]
    assert self_times(tracer.spans) == [2, 2, 1]
    totals = layer_totals(tracer.spans)["countdown"]
    assert totals == {"calls": 3, "self_s": 5, "built": 0, "nested": 2}


def test_self_time_excludes_every_child():
    readings = iter([0.0, 1.0, 3.0, 4.0, 6.5, 10.0])
    tracer = Tracer(clock=lambda: next(readings))
    outer = tracer.begin("outer")
    for _ in range(2):
        tracer.end(tracer.begin("inner"))
    tracer.end(outer)
    totals = layer_totals(tracer.spans)
    assert totals["outer"]["self_s"] == pytest.approx(10.0 - 2.0 - 2.5)
    assert totals["inner"]["calls"] == 2
    assert totals["inner"]["self_s"] == pytest.approx(4.5)


def test_wrapper_sees_the_call_through_the_catmap_binding():
    original = symp.centralizer_torus
    assert catmap.centralizer_torus is original  # from .symp import centralizer_torus
    tracer = Tracer()
    tracer.install()
    try:
        assert catmap.centralizer_torus is not original
        catmap.HeckeContext(catmap.LatticeAutomorphism(catmap.CAT2_DEFAULT), 7)
    finally:
        tracer.uninstall()
    assert catmap.centralizer_torus is original
    assert "weilrep.catmap.centralizer_torus" in tracer.bindings
    span = next(s for s in tracer.spans if s.name == "symp.centralizer_torus")
    assert tracer.spans[span.parent].name == "catmap.HeckeContext"
    totals = layer_totals(tracer.spans)
    # decompose builds one Weil operator per torus element, none cached yet
    assert totals["heiwei.weil_op"]["calls"] == totals["heiwei.weil_op"]["built"] > 0
    assert totals["heiwei.char_phase_table.prime"]["calls"] > 0


def test_method_wrapper_splits_by_field_degree():
    tracer = Tracer()
    target = Target("heiwei.char_phase_table", "weilrep.heiwei", "WeilRep.char_phase_table",
                    variant=lambda args: "ext" if args[0].ctx.m > 1 else "prime")
    tracer.install([target])
    try:
        rep = heiwei.WeilRep(symp.SympSpace(FieldCtx(3, 2), 1))
        rep.weil_op(la.freeze([[rep.ctx.el(2), rep.ctx.zero], [rep.ctx.zero, rep.ctx.el(2)]]))
    finally:
        tracer.uninstall()
    assert [s.name for s in tracer.spans] == ["heiwei.char_phase_table.ext"]


def small_cat2(primes):
    w = workloads.build("hecke-cat2", 0)
    w.primes = primes
    return w


def test_doctored_ratio_is_a_failed_item(monkeypatch):
    real = catmap.hecke_que_experiment

    def doctored(A, p, xi_max=None):
        row = real(A, p, xi_max)
        if p == 7:
            row["max_ratio"] = 1.5
        return row

    monkeypatch.setattr(catmap, "hecke_que_experiment", doctored)
    _, results = run.run_pass(small_cat2([5, 7, 11]))
    status = {r.id: r.status for r in results}
    assert status == {"p=5": "skipped", "p=7": "wrong", "p=11": "ok"}
    wrong = results[1]
    assert wrong.failed and any("max_ratio = 1.5" in f for f in wrong.failures)


def test_exception_is_a_failed_item_and_the_pass_goes_on(monkeypatch):
    real = catmap.hecke_que_experiment

    def breaks_at_7(A, p, xi_max=None):
        if p == 7:
            raise ValueError("centralizer generator does not preserve the symplectic form")
        return real(A, p, xi_max)

    monkeypatch.setattr(catmap, "hecke_que_experiment", breaks_at_7)
    _, results = run.run_pass(small_cat2([7, 11]))
    assert [r.status for r in results] == ["error", "ok"]
    assert results[0].error["type"] == "ValueError"
    assert "symplectic form" in results[0].error["message"]


def test_less_work_than_recorded_is_wrong():
    expected = {"checks": {"a": 10, "b": 5}, "skipped": {"c": "reason"}}
    results = [
        workloads.ItemResult("a", "ok", 0.1, checks=9),
        workloads.ItemResult("b", "skipped", 0.0, skipped="new reason"),
        workloads.ItemResult("c", "skipped", 0.0, skipped="reason"),
    ]
    workloads.check_work(results, expected)
    assert [r.status for r in results] == ["wrong", "wrong", "skipped"]
    assert sum(r.failed for r in results) == 2


def test_pass_p90_leaves_out_the_warm_up_pass():
    assert run.pass_p90([9.0, 1.0, 2.0]) == pytest.approx(1.9)
    assert run.pass_p90([5.0]) == 5.0


def test_seed_moves_only_the_ext_field_inputs():
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 1).inputs()
        b = workloads.build(name, 2).inputs()
        assert (a != b) == (name == "ext-field"), name


def test_seed_reaches_the_sl2_samples(monkeypatch):
    seen = []

    def fake_restrict(rep, ms, n_samples, seed):
        seen.append(seed)
        return {"sigma_identity_checked": 24, "sigma_identity_failures": 0,
                "psi_identity_checked": 0, "psi_identity_failures": 0,
                "n_operator_tests": 0, "max_operator_distance": 0.0}

    monkeypatch.setattr(heiwei, "restrict_to_extension", fake_restrict)
    workloads.build("ext-field", 7).items()[0].run()
    assert seen == [7]


def test_different_seeds_draw_different_sl2_samples(monkeypatch):
    """The samples are drawn inside restrict_to_extension; spy on the
    SL(2, GF(9)) elements it hands to the block representation."""
    space = symp.SympSpace(FieldCtx(3), 2)
    ms = symp.module_structure(symp.build_maximal_torus(space, ["irreducible2"]))
    real = heiwei.WeilRep.weil_op
    drawn = []

    def spy(self, g):
        if self.N == 1:
            drawn[-1].add(la.freeze(g))
        return real(self, g)

    monkeypatch.setattr(heiwei.WeilRep, "weil_op", spy)
    for seed in (1, 2, 1):
        drawn.append(set())
        heiwei.restrict_to_extension(heiwei.WeilRep(space), ms, n_samples=4, seed=seed)
    assert drawn[0] == drawn[2]
    assert drawn[0] != drawn[1]
