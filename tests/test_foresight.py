"""A perfect-foresight bound on unmet demand: no dispatch rule goes below it.

least_unmet solves one linear program over a whole run that knows every
day's generation and demand in advance, the yardstick Sioshansi et al.
("Estimating the value of electricity storage in PJM", Energy Economics
31(2), 2009) use for storage. Its variables, per day: one flow per source
edge, one per load edge, and each system's end-of-day store. Its
constraints, per day: a source gives at most its energy, a load takes at
most its demand, a system's start-of-day store plus its inflow fits its
capacity, and each store is the last one plus inflow minus draws. It
maximizes the energy served, so the bound is total demand minus that.

The program holds every run of the engine, whatever its flags: a day charges
before it discharges, a system's capacity does not shrink with SoH, and
loads are served only from storage. So each arm's total_unmet_mwd is at
least the bound, up to the slack below.

The slack. HiGHS (Huangfu and Hall, Math. Prog. Comp. 10, 2018) stops when
every row and bound holds within its primal feasibility tolerance and every
reduced cost within its dual one, both TOL = 1e-7. least_unmet divides all
data by its largest value, scale, first, so every flow and store of a
feasible point is at most 1. For HiGHS' point x and duals y at optimum, weak
duality gives served* - served(x) <= TOL * sum|y_r| + TOL * sum x*_j. One
more unit of energy in any row serves at most one more unit of demand, so
|y_r| <= 1, and x*_j <= 1, so the bound is at most TOL * (rows + columns) *
scale above the true one. The engine's own rounding, a few ulps of each
day's flows, is far below that.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import sparse
from scipy.optimize import linprog
from test_oracle import run_state, run_topology, runs

from hybridgrid import compare, initialize_state
from hybridgrid.engine import _run
from hybridgrid.scenario import load_scenario

TOL = 1e-7  # HiGHS' default primal and dual feasibility tolerances

ALL_ARMS = [(True, True), (True, False), (False, True), (False, False)]


def incidence(rows, height):
    """[height, len(rows)]: column e holds a 1 in row rows[e]."""
    return sparse.csr_matrix((np.ones(len(rows)), (rows, np.arange(len(rows)))),
                            shape=(height, len(rows)))


def least_unmet(state):
    """(bound, slack): the least total unmet demand, in MWd, that any dispatch
    reaches on the state's grid, generation and demand, and its slack. It
    reads the topology's systems, not the state's units, which a run moves."""
    w, days, systems = state.topology.wiring, state.cfg.days, state.topology.systems
    n, stored = len(systems), np.array([s.energy.sum() for s in systems])
    # A system may start up to REL_TOL above its capacity, with no room to charge.
    cap = np.maximum([s.capacity_mwd for s in systems], stored)
    gen, demand = state.generation, state.demand
    scale = max(cap.max(initial=0.0), gen.max(initial=0.0), demand.max(initial=0.0)) or 1.0
    # Per edge: its source or load, and its system row.
    src = incidence(np.repeat(np.arange(len(w.source_rows)), [len(r) for r in w.source_rows]),
                    len(w.source_rows))
    load = incidence(np.repeat(np.arange(len(w.load_rows)), [len(r) for r in w.load_rows]),
                     len(w.load_rows))
    into, out = incidence(sum(w.source_rows, []), n), incidence(sum(w.load_rows, []), n)
    # A day's columns are [source flows, load flows, end-of-day stores]. Its
    # rows: source energy, load demand, and store + draws (the start-of-day
    # store plus inflow) within capacity; then the store balances, each
    # store less the day before's.
    n_f, n_g, eye = src.shape[1], load.shape[1], sparse.eye(n)
    a_ub = sparse.kron(sparse.eye(days), sparse.bmat(
        [[src, None, None], [None, load, None], [None, out, eye]]))
    a_eq = (sparse.kron(sparse.eye(days), sparse.hstack([-into, out, eye]))
            - sparse.kron(sparse.eye(days, k=-1),
                          sparse.eye(n, n_f + n_g + n, k=n_f + n_g)))
    b_ub = np.hstack([gen, demand, np.broadcast_to(cap, (days, n))]) / scale
    b_eq = np.zeros((days, n))
    b_eq[0] = stored / scale
    c = np.tile(np.r_[np.zeros(n_f), -np.ones(n_g), np.zeros(n)], days)
    res = linprog(c, a_ub, b_ub.ravel(), a_eq, b_eq.ravel(), method="highs")
    assert res.status == 0, res.message
    rows, cols = a_ub.shape[0] + a_eq.shape[0], a_ub.shape[1]
    return (demand.sum() / scale + res.fun) * scale, TOL * (rows + cols) * scale


def assert_above_bound(state, traces):
    bound, slack = least_unmet(state)
    for trace in traces:
        unmet = trace.summary.total_unmet_mwd
        assert unmet >= bound - slack, (trace.config_echo["effective"], unmet, bound, slack)


@pytest.mark.parametrize("path", ["scenarios/reference.json", "scenarios/stress.json"],
                         ids=["reference-seed-1", "stress-seed-42"])
def test_compare_priority_is_above_the_foresight_bound(path):
    cfg, topo = load_scenario(path)
    report = compare(cfg, topo, "priority")
    assert_above_bound(initialize_state(cfg, topo), [report.treatment, report.baseline])


@settings(deadline=None, max_examples=50)
@given(run=runs())
def test_every_arm_is_above_the_foresight_bound(run):
    systems, sources, loads, per_day, _, weights = run
    state = run_state(run_topology(systems, sources, loads), per_day, ALL_ARMS, weights)
    assert_above_bound(state, _run(state))
