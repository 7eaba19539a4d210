import math

import numpy as np
import pytest

import stasis.quadrules as qr
from stasis.errors import BudgetError
from stasis.quadrules import (DEFAULT_BUDGET, KRONROD_NODES, MAX_ROUNDS,
                              adaptive_complex, panel_complex, phase_edges)


def _monomial(d):
    return lambda x: x ** d + 0j


class TestPanelRule:
    @pytest.mark.parametrize("d", range(14))
    def test_g7_estimate_vanishes_to_degree_13(self, d):
        a, b = np.array([-1.0, 0.2]), np.array([0.2, 1.1])
        val, err = panel_complex(_monomial(d), a, b)
        assert np.all(err <= 1e-15 * np.maximum(1.0, np.abs(val)))

    def test_g7_estimate_sees_degree_14(self):
        _, err = panel_complex(_monomial(14), np.array([-1.0]), np.array([1.0]))
        assert err[0] > 1e-4

    @pytest.mark.parametrize("d", range(23))
    def test_k15_exact_to_degree_22(self, d):
        a, b = np.array([-1.0, 0.2]), np.array([0.2, 1.1])
        val, _ = panel_complex(_monomial(d), a, b)
        exact = (b ** (d + 1) - a ** (d + 1)) / (d + 1)
        assert np.allclose(val, exact, rtol=1e-14, atol=1e-15)

    def test_one_pass_of_15_nodes_per_panel(self):
        seen = []

        def f(x):
            seen.append(x.size)
            return np.exp(1j * x)

        edges = np.linspace(0.0, 3.0, 7)
        panel_complex(f, edges[:-1], edges[1:])
        assert sum(seen) == KRONROD_NODES * 6

    def test_chunks_match_one_pass(self, monkeypatch):
        edges = np.linspace(0.0, 5.0, 41)
        f = lambda x: np.exp(3j * x) / (1.0 + x)  # noqa: E731
        whole = panel_complex(f, edges[:-1], edges[1:])
        monkeypatch.setattr(qr, "_CHUNK", 4 * KRONROD_NODES + 1)
        chunked = panel_complex(f, edges[:-1], edges[1:])
        np.testing.assert_allclose(chunked[0], whole[0], rtol=1e-15)
        np.testing.assert_allclose(chunked[1], whole[1], rtol=1e-12)


def _recording(monkeypatch):
    """Record the panels of every panel_complex call the engine makes."""
    calls = []
    inner = qr.panel_complex

    def rec(f, a, b):
        calls.append((np.array(a), np.array(b)))
        return inner(f, a, b)

    monkeypatch.setattr(qr, "panel_complex", rec)
    return calls


def _peaked(x):
    return np.exp(2j * x) / ((x - 0.3) ** 2 + 1e-4)


class TestAdaptive:
    def test_result_is_fresh_sum_over_final_partition(self, monkeypatch):
        calls = _recording(monkeypatch)
        edges = np.linspace(0.0, 1.0, 5)
        value, err, count = adaptive_complex(_peaked, edges, tol=1e-10)
        monkeypatch.undo()
        final = np.unique(np.concatenate([np.r_[a, b] for a, b in calls]))
        val, errs = panel_complex(_peaked, final[:-1], final[1:])
        assert count == final.size - 1
        assert value == pytest.approx(val.sum(), rel=1e-14)
        assert err == pytest.approx(errs.sum(), rel=1e-12)
        # only split panels are re-evaluated: every split adds one panel to
        # the partition and costs two panel evaluations
        evaluated = sum(a.size for a, _ in calls)
        assert len(calls) > 2
        assert evaluated == (edges.size - 1) + 2 * (count - (edges.size - 1))

    @pytest.mark.parametrize("tol, rel_tol", [(1e-9, 0.0), (0.0, 1e-9),
                                              (1e-3, 1e-12), (1e-14, 1e-6)])
    def test_stop_rule(self, tol, rel_tol):
        exact = 2.0 * np.sin(40.0) / 40.0 + 0j     # int_{-1}^{1} e^(40 i x)
        value, err, count = adaptive_complex(lambda x: np.exp(40j * x),
                                             [-1.0, 1.0], tol=tol,
                                             rel_tol=rel_tol)
        assert count > 1
        assert err <= max(tol, rel_tol * abs(value))
        assert abs(value - exact) <= max(err, 1e-15)

    def test_met_target_needs_no_split(self, monkeypatch):
        calls = _recording(monkeypatch)
        value, err, count = adaptive_complex(_monomial(5), [0.0, 0.5, 1.0],
                                             tol=1e-12)
        assert count == 2 and len(calls) == 1
        assert value == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_round_cap_returns_the_estimate_reached(self, monkeypatch):
        calls = _recording(monkeypatch)
        value, err, count = adaptive_complex(
            lambda x: np.abs(x - 1.0 / 3.0) ** -0.5 + 0j, [-1.0, 1.0],
            tol=1e-300)
        exact = 2.0 * (np.sqrt(4.0 / 3.0) + np.sqrt(2.0 / 3.0))
        assert len(calls) == MAX_ROUNDS + 1
        assert err > 1e-300 and abs(value - exact) < 1e-3

    def test_budget_error_with_diagnostics(self, monkeypatch):
        monkeypatch.setattr(qr, "DEFAULT_BUDGET", 200)
        with pytest.raises(BudgetError) as exc:
            adaptive_complex(lambda x: np.exp(400j * x), [0.0, 1.0],
                             tol=1e-12, label="probe")
        diag = exc.value.diagnostics
        assert diag["label"] == "probe" and diag["budget"] == 200
        assert diag["evaluations"] <= 200 < diag["evaluations"] + diag["next_pass"]
        assert diag["error"] > 1e-12 and diag["panels"] > 1
        assert "probe" in str(exc.value)

    def test_budget_checked_before_first_pass(self, monkeypatch):
        monkeypatch.setattr(qr, "DEFAULT_BUDGET", 149)
        seen = []

        def f(x):
            seen.append(x.size)
            return np.ones_like(x) + 0j

        with pytest.raises(BudgetError):
            adaptive_complex(f, np.linspace(0.0, 1.0, 11))
        assert seen == []


def _phase_edges_loop(omega, rho, s_lo, s_hi, cap):
    """Per-panel loop version of the length cap in ``phase_edges``."""
    edges = phase_edges("probe", omega, rho, s_lo, s_hi, np.inf)
    out = [edges[0]]
    for i in range(edges.size - 1):
        width = edges[i + 1] - edges[i]
        if width > cap:
            m = int(np.ceil(width / cap))
            out.extend(np.linspace(edges[i], edges[i + 1], m + 1)[1:])
        else:
            out.append(edges[i + 1])
    return np.unique(np.asarray(out))


class TestPhaseEdges:
    @pytest.mark.parametrize("omega, rho, s_lo, s_hi, cap, binds", [
        (0.0, 1.0, 0.0, 1.0, 0.125, True),
        (1.0, 2.0, 0.0, 1.0, 0.125, True),
        (10.0, 1.0, 0.0, 1.0, 0.125, True),
        (50.0, 2.0, 0.0, 1.0, 0.125, True),
        (1e3, 3.0, 0.01, 2.0, 0.05, True),
        (1e3, 3.0, 0.01, 2.0, 0.25, False),
        (1e4, 1.0, 1e-3, 1.0, 0.125, False),
        (1e5, 1.5, 0.01, 0.7, 0.0875, False),
        (37.0, 2.0, 0.3, 0.9, np.inf, False),
        (5e-324, 1.0, 0.0, 1.0, 0.125, True),
        (1e-315, 2.0, 0.0, 1.0, 0.125, True),
    ])
    def test_phase_edges_properties(self, omega, rho, s_lo, s_hi, cap, binds):
        edges = phase_edges("probe", omega, rho, s_lo, s_hi, cap)
        uncapped = phase_edges("probe", omega, rho, s_lo, s_hi, np.inf)
        assert (edges.size > uncapped.size) == binds
        if omega > 0.0:
            assert np.array_equal(edges, _phase_edges_loop(omega, rho, s_lo,
                                                           s_hi, cap))
        assert np.all(np.diff(edges) > 0.0)
        assert edges[0] == s_lo and edges[-1] == s_hi
        assert np.all(np.diff(edges) <= cap * (1.0 + 1e-12))
        # the phase step is pi up to the rounding of the phase w s^rho itself
        slack = 8.0 * np.finfo(float).eps * omega * s_hi ** rho
        assert np.all(omega * np.diff(edges ** rho)
                      <= math.pi * (1.0 + 1e-12) + slack)

    def test_budget_refused_before_any_edge(self, monkeypatch):
        # pi-phase panels alone past the budget: BudgetError, by label,
        # before np.linspace lays an edge
        class NoEdges:
            def __getattr__(self, name):
                if name == "linspace":
                    raise AssertionError("edges laid past the budget")
                return getattr(np, name)

        monkeypatch.setattr(qr, "np", NoEdges())
        # w (s_hi^rho - s_lo^rho) / pi just past DEFAULT_BUDGET / 15 - 16
        omega = math.pi * (DEFAULT_BUDGET / KRONROD_NODES - 15.0) / 3.0
        with pytest.raises(BudgetError, match="probe") as exc:
            phase_edges("probe", omega, 2.0, 1.0, 2.0, 0.125)
        assert set(exc.value.diagnostics) == {"evaluations_needed", "budget",
                                              "omega"}
