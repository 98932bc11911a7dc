"""Dispatch and settlement on random grids against the sequential oracle.

The package runs the grid-level day on wiring index lists with hand-written
loops; tests/oracle.py states the same rules by id in plain Python. On any
grid the two must agree bit for bit: every flow, curtailment, inflow, served
and unmet amount and every system's draw, compared by float.hex.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from hybridgrid import (
    EnergySource,
    GridTopology,
    LoadCenter,
    SolarPlantParams,
    StorageSystem,
    allocate_equal,
    allocate_priority,
    inflow,
    positions_by_id,
    prioritize,
    settle_loads,
)

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
    """got is the package's (flow, curtailed), want the oracle's (gifts, curtailed)."""
    w = topo.wiring
    (flow, curtailed), (gifts, want_curtailed) = got, want
    same_bits([g for gs in flow for g in gs],
              [gifts[src.id, ids[i]] for src, rows in zip(w.sources, w.source_rows) for i in rows])
    same_bits(curtailed, [want_curtailed[src.id] for src in w.sources])
    sources = {src.id: [ids[i] for i in rows] for src, rows in zip(w.sources, w.source_rows)}
    want_in = oracle.inflow(sources, gifts)
    same_bits(inflow(w, flow), [want_in.get(sid, 0.0) for sid in ids])


@settings(deadline=None, max_examples=300)
@given(grid=grids())
def test_dispatch_and_settlement_match_the_oracle_bit_for_bit(grid):
    ids, sources, loads, per = grid
    topo = topology(ids, sources, loads)
    w = topo.wiring
    deficit = [per["deficit"][sid] for sid in ids]
    headroom = [per["headroom"][sid] for sid in ids]
    energy = [per["energy"][src.id] for src in w.sources]

    order = prioritize(deficit, positions_by_id(ids))
    assert [ids[i] for i in order] == oracle.priority_order(per["deficit"])
    check_dispatch(topo, allocate_priority(w, order, deficit, list(headroom), energy),
                   oracle.dispatch_priority(sources, per["deficit"], per["headroom"],
                                            per["energy"]), ids)
    check_dispatch(topo, allocate_equal(w, list(headroom), energy),
                   oracle.dispatch_equal(sources, per["headroom"], per["energy"]), ids)

    served, unmet, took = settle_loads(w.load_rows, [per["demand"][lid] for lid in w.load_ids],
                                       [per["stored"][sid] for sid in ids])
    want_served, want_unmet, want_drawn = oracle.settle(loads, per["demand"], per["stored"])
    same_bits(served, [want_served[lid] for lid in w.load_ids])
    same_bits(unmet, [want_unmet[lid] for lid in w.load_ids])
    same_bits(took, [want_drawn[sid] for sid in ids])
