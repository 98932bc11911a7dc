"""Dispatch, settlement, unit moves and the whole day against the sequential oracle.

The package runs the grid-level day on wiring index lists with hand-written
loops, and moves units as [system, unit] arrays; tests/oracle.py states the
same rules by id, and per unit, in plain Python. On any grid the two must
agree bit for bit: every flow, curtailment, inflow, served and unmet amount
and every system's draw, every unit's amount, energy and SoH after a charge
and a discharge, and every trace value of a run of days with one arm or two
stacked, compared by float.hex.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from hybridgrid import (
    EnergySource,
    GridTopology,
    GridUnits,
    LoadCenter,
    ScenarioConfig,
    SimulationState,
    SolarPlantParams,
    StorageSystem,
    allocate_equal,
    allocate_priority,
    prioritize,
    settle_loads,
)
from hybridgrid.engine import TRACE_FIELDS, _run
from hybridgrid.scenario import ScoreWeights

# Zeros and repeated values make ties in priority, saturated slots and
# exactly drained pools common, not just possible; thirds of integers round,
# so sums taken in another order come out different in the last bits.
MWD = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 3.0, 10.0]), st.floats(0.0, 100.0),
                st.integers(1, 300_000).map(lambda n: n / 3000.0))


@st.composite
def grids(draw):
    """1-6 systems in a shuffled id order, 1-4 sources and 1-5 loads, each
    wired to a non-empty subset of them in a random connection order, and a
    value per system, source and load."""
    ids = draw(st.lists(st.integers(0, 20), min_size=1, max_size=6, unique=True))

    def wired(n_max):
        keys = draw(st.lists(st.integers(0, 20), min_size=1, max_size=n_max, unique=True))
        return {key: draw(st.permutations(ids))[: draw(st.integers(1, len(ids)))] for key in keys}

    sources, loads = wired(4), wired(5)
    per = {name: {key: draw(MWD) for key in keys}
           for name, keys in (("deficit", ids), ("headroom", ids), ("stored", ids),
                              ("energy", sources), ("demand", loads))}
    return ids, sources, loads, per


def topology(ids, sources, loads):
    return GridTopology(
        systems=[StorageSystem(sid, np.ones(1)) for sid in ids],
        loads=[LoadCenter(lid, tuple(conn)) for lid, conn in loads.items()],
        sources=[EnergySource(k, "solar", SolarPlantParams(1000.0, 0.2), tuple(conn), f"site-{k}")
                 for k, conn in sources.items()],
    )


def same_bits(got, want):
    assert [x.hex() for x in got] == [x.hex() for x in want]


def check_dispatch(topo, got, want, ids):
    """got is the package's (flow, curtailed, inflow), want the oracle's (gifts, curtailed)."""
    w = topo.wiring
    (flow, curtailed, into), (gifts, want_curtailed) = got, want
    edges = list(zip(topo.sources, w.source_rows))
    same_bits([g for gs in flow for g in gs],
              [gifts[src.id, ids[i]] for src, rows in edges for i in rows])
    same_bits(curtailed, [want_curtailed[src.id] for src in topo.sources])
    sources = {src.id: [ids[i] for i in rows] for src, rows in edges}
    want_in = oracle.inflow(sources, gifts)
    same_bits(into, [want_in.get(sid, 0.0) for sid in ids])


def spread(rnd, n):
    """n thirds of integers over four decades, none zero."""
    return [rnd.randint(1, 30_000) / 3000.0 * 10.0 ** rnd.randint(-2, 2) for _ in range(n)]


@settings(deadline=None, max_examples=300)
@given(grid=grids(), seed=st.integers(0, 2**32 - 1))
def test_dispatch_and_settlement_match_the_oracle_bit_for_bit(grid, seed):
    listed, sources, loads, per = grid
    topo = topology(listed, sources, loads)
    w, ids, load_ids = topo.wiring, [s.id for s in topo.systems], [l.id for l in topo.loads]
    assert ids == sorted(listed)
    deficit = [per["deficit"][sid] for sid in ids]
    headroom = [per["headroom"][sid] for sid in ids]
    energy = [per["energy"][src.id] for src in topo.sources]

    order = prioritize(deficit)
    assert [ids[i] for i in order] == oracle.priority_order(per["deficit"])
    check_dispatch(topo, allocate_priority(w, order, deficit, list(headroom), energy),
                   oracle.dispatch_priority(sources, per["deficit"], per["headroom"],
                                            per["energy"]), ids)
    check_dispatch(topo, allocate_equal(w, list(headroom), energy),
                   oracle.dispatch_equal(sources, per["headroom"], per["energy"]), ids)

    served, unmet, took = settle_loads(w.load_rows, [per["demand"][lid] for lid in load_ids],
                                       [per["stored"][sid] for sid in ids])
    want_served, want_unmet, want_drawn = oracle.settle(loads, per["demand"], per["stored"])
    same_bits(served, [want_served[lid] for lid in load_ids])
    same_bits(unmet, [want_unmet[lid] for lid in load_ids])
    same_bits(took, [want_drawn[sid] for sid in ids])

    # Two more priority dispatches on the grid, every deficit, room and energy
    # non-zero and spread over four decades, with room past each deficit. A system
    # often takes from a short source and a long one in pass 1 and gets the
    # long one's leftover in pass 2, which is where a gift added in two parts
    # moves the last bits of its inflow; the draws above seldom do that.
    rnd = random.Random(seed)
    for _ in range(2):
        deficit = dict(zip(ids, spread(rnd, len(ids))))
        room = {sid: deficit[sid] + x for sid, x in zip(ids, spread(rnd, len(ids)))}
        energy = dict(zip(sources, spread(rnd, len(sources))))
        d = [deficit[sid] for sid in ids]
        check_dispatch(topo, allocate_priority(w, prioritize(d), d, [room[sid] for sid in ids],
                                               [energy[src.id] for src in topo.sources]),
                       oracle.dispatch_priority(sources, deficit, room, energy), ids)


SHARE = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
RATE = st.sampled_from([0.0, 0.2, 0.25]) | st.floats(0.0, 1.0)
# A unit's (cap, fill share, soh, r_charge, r_discharge).
UNIT = st.tuples(st.sampled_from([1.0, 10.0, 100.0, 7.0 / 3.0]) | st.floats(0.1, 200.0), SHARE,
                 st.sampled_from([100.0, 90.0, 80.5]) | st.floats(0.0, 100.0), RATE, RATE)


def storage_system(sid, units):
    cap, fill, soh, r_charge, r_discharge = zip(*units)
    return StorageSystem(sid, cap, [f * c for f, c in zip(fill, cap)], soh, r_charge, r_discharge)


@st.composite
def fleets(draw):
    """1-6 systems of 1-5 units each, so rows are ragged, with tie-prone unit
    state, a ranked flag per system, score weights, and per system a share
    of its headroom to charge and then of its store to discharge."""
    systems = [storage_system(sid, draw(st.lists(UNIT, min_size=1, max_size=5)))
               for sid in range(draw(st.integers(1, 6)))]
    n_sys = len(systems)
    ranked = draw(st.lists(st.booleans(), min_size=n_sys, max_size=n_sys))
    weights = draw(st.sampled_from([(0.5, 0.5), (1.0, 0.0), (0.0, 1.0)])
                   | st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    moves = draw(st.lists(st.tuples(SHARE, SHARE), min_size=n_sys, max_size=n_sys))
    return systems, ranked, weights, moves


def unit_state(units, i, system):
    """Row i's energy and SoH lists, its pads left out."""
    n = len(system.cap)
    return units.energy[i, :n].tolist(), units.soh[i, :n].tolist()


def check_units(units, systems, got, want):
    """got is a move's [system, unit] amounts, want the oracle's (amounts,
    energy, soh) per system, worked out before the move; headroom is
    capacity - stored, floored at 0.0, as of the move."""
    for i, (s, (amounts, energy, soh)) in enumerate(zip(systems, want)):
        now_energy, now_soh = unit_state(units, i, s)
        same_bits(got[i, : len(s.cap)].tolist(), amounts)
        same_bits(now_energy, energy)
        same_bits(now_soh, soh)
    same_bits(units.headroom.tolist(), np.maximum(0.0, units.capacity - units.stored).tolist())


@settings(deadline=None, max_examples=300)
@given(fleet=fleets())
def test_unit_moves_match_the_oracle_bit_for_bit(fleet):
    # The moves raise on any float error, so work on units that do not move
    # can never warn.
    systems, ranked, (w_soh, w_soc), moves = fleet
    units = GridUnits(systems)
    q = [c * room for (c, _), room in zip(moves, units.headroom.tolist())]
    want = [oracle.charge_units(q[i], ranked[i], *unit_state(units, i, s), s.cap.tolist(),
                                s.r_charge.tolist(), w_soh, w_soc) for i, s in enumerate(systems)]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = units.charge(q, ranked, w_soh, w_soc)
    check_units(units, systems, got, want)

    d = [c * stored for (_, c), stored in zip(moves, units.stored.tolist())]
    want = [oracle.discharge_units(d[i], *unit_state(units, i, s), s.cap.tolist(),
                                   s.r_discharge.tolist()) for i, s in enumerate(systems)]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = units.discharge(d)
    check_units(units, systems, got, want)


# A day's values come from one draw each: zeros, repeats and thirds of integers.
DAY_MWD = st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0, 10.0, 100.0,
                           *(n / 3.0 for n in range(1, 300, 7))])


@st.composite
def runs(draw):
    """1-6 systems of 1-5 units, 1-4 sources and 1-5 loads wired at random,
    every system fed by at least one source; 1-10 days of generation, demand
    and charge targets; one arm or two with any flag pairs, and score weights."""
    ids = draw(st.lists(st.integers(0, 20), min_size=1, max_size=6, unique=True))
    systems = [storage_system(sid, draw(st.lists(UNIT, min_size=1, max_size=5))) for sid in ids]

    def wired(n_max):
        keys = draw(st.lists(st.integers(0, 20), min_size=1, max_size=n_max, unique=True))
        return {key: draw(st.permutations(ids))[: draw(st.integers(1, len(ids)))] for key in keys}

    sources, loads = wired(4), wired(5)
    for sid in ids:
        if not any(sid in conn for conn in sources.values()):
            sources[draw(st.sampled_from(sorted(sources)))].append(sid)
    n_days = draw(st.integers(1, 10))
    per_day = {name: [{key: draw(DAY_MWD) for key in keys} for _ in range(n_days)]
               for name, keys in (("energy", sources), ("demand", loads), ("targets", ids))}
    arms = draw(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=2))
    w_soh = draw(st.sampled_from([0.5, 1.0, 0.0, 0.3]))
    return systems, sources, loads, per_day, arms, (w_soh, 1.0 - w_soh)


def run_topology(systems, sources, loads):
    """The grid of a runs() draw, every source a solar plant at one site."""
    return GridTopology(
        systems=systems,
        loads=[LoadCenter(lid, tuple(conn)) for lid, conn in loads.items()],
        sources=[EnergySource(k, "solar", SolarPlantParams(1000.0, 0.2), tuple(conn), "site")
                 for k, conn in sources.items()],
    )


def run_state(topo, per_day, arms, weights):
    """A state of topo with these arms and score weights, its generation,
    demand and targets replaced by per_day's as [days, width] arrays in
    ascending id. Set-up built the first two; targets wait for first use, so
    assigning them first means no fit is involved."""
    n_days = len(per_day["energy"])
    state = SimulationState(ScenarioConfig(n_days, 0, weights=ScoreWeights(*weights)), topo, arms)
    for name, of, attr in (("energy", "sources", "generation"), ("demand", "loads", "demand"),
                           ("targets", "systems", "targets")):
        ids = [e.id for e in getattr(topo, of)]
        setattr(state, attr, np.array([[day[key] for key in ids] for day in per_day[name]]))
    return state


@settings(deadline=None, max_examples=100)
@given(run=runs())
def test_stacked_days_match_the_oracle_bit_for_bit(run):
    systems, sources, loads, per_day, arms, (w_soh, w_soc) = run
    topo = run_topology(systems, sources, loads)
    n_days = len(per_day["energy"])
    traces = _run(run_state(topo, per_day, arms, (w_soh, w_soc)))
    cols = {of: [e.id for e in getattr(topo, of)] for of in ("systems", "loads", "sources")}
    assert len(traces) == len(arms)
    for trace, (priority, ranked) in zip(traces, arms):
        units = {s.id: [s.energy.tolist(), s.soh.tolist(), s.cap.tolist(), s.r_charge.tolist(),
                        s.r_discharge.tolist()] for s in topo.systems}
        for d in range(n_days):
            want = oracle.day(sources, loads, units, per_day["energy"][d], per_day["demand"][d],
                              per_day["targets"][d], priority, ranked, w_soh, w_soc)
            for field, of in TRACE_FIELDS.items():
                same_bits(getattr(trace, field)[d].tolist(), [want[field][i] for i in cols[of]])
