import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqcircuit import (CircuitBuilder, CircuitError, GenSpec, NodeKind,
                        emit_aiger, generate, isomorphic, parse_aiger,
                        random_spec, validate)
from seqcircuit.schedule import node_plan


def test_validate_clean_diamond():
    b = CircuitBuilder()
    a = b.add_pi()
    x = b.add_not(a)
    y = b.add_and(a, x)
    z = b.add_and(x, y)
    b.set_outputs([z])
    assert validate(b.build(check=False)) == []


def test_arity_violation_reported():
    b = CircuitBuilder()
    a = b.add_pi()
    g = b.add_and(a, a)
    b.fanins[g] = (a,)  # corrupt: AND with one fanin
    bad = validate(b.build(check=False))
    assert any(v.rule == "arity" and v.node == g for v in bad)


def test_combinational_loop_detected():
    b = CircuitBuilder()
    a = b.add_pi()
    g1 = b.add_and(a, a)
    g2 = b.add_not(g1)
    g3 = b.add_and(a, g2)  # downstream of the loop
    b.add_not(a)  # outside the loop
    b.fanins[g1] = (a, g2)  # two-gate loop with no FF
    g = b.build(check=False)
    bad = validate(g)
    assert [str(v) for v in bad] == [
        "node 1: acyclicity (combinational loop through 3 nodes)"]
    assert (bad[0].node, bad[0].detail) == (g1, "combinational loop through 3 nodes")
    # The loop and what lies behind it have no place in the order.
    assert set(g.gate_order) == set(g.gates) - {g1, g2, g3}


def test_gate_order_is_topological():
    with_feedback = 0
    for seed in range(10):
        g = generate(GenSpec(n_pi=4, n_and=24, n_not=8, n_ff=4, seed=seed,
                             feedback_prob=0.8))
        with_feedback += bool((node_plan(g)["region"] >= 0).any())
        order = g.gate_order
        assert sorted(order) == g.gates
        place = {v: i for i, v in enumerate(order)}
        for v in order:
            for u in g.fanins[v]:
                assert g.kinds[u] in (NodeKind.PI, NodeKind.FF) or place[u] < place[v]
    assert with_feedback


def test_sccs_are_closed_in_fanin_order():
    # Against plain reachability: nodes share a component iff each reaches
    # the other over fanins, and every fanin's component closes first.
    multi = 0
    for seed in range(6):
        g = generate(GenSpec(n_pi=3, n_and=14, n_not=5, n_ff=4, seed=seed,
                             feedback_prob=0.8))
        reach = []
        for v in range(g.n):
            seen, stack = {v}, [v]
            while stack:
                for u in g.fanins[stack.pop()]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            reach.append(seen)
        comp_of = {v: k for k, comp in enumerate(g.sccs) for v in comp}
        assert sorted(comp_of) == list(range(g.n))
        for v in range(g.n):
            assert {u for u in reach[v] if v in reach[u]} == \
                set(g.sccs[comp_of[v]])
            assert all(comp_of[u] <= comp_of[v] for u in g.fanins[v])
        multi += sum(len(c) > 1 for c in g.sccs)
    assert multi


def test_ff_cycle_is_legal():
    b = CircuitBuilder()
    ff = b.add_ff()
    inv = b.add_not(ff)
    b.set_ff_input(ff, inv)
    b.add_pi()
    assert validate(b.build(check=False)) == []


def test_builder_not_dedup_and_collapse():
    b = CircuitBuilder()
    a = b.add_pi()
    n1 = b.make_not(a)
    assert b.make_not(a) == n1
    assert b.make_not(n1) == a  # double negation cancels


def test_generate_deterministic():
    spec = GenSpec(n_pi=4, n_and=20, n_not=10, n_ff=4, seed=7)
    g1 = generate(spec)
    g2 = generate(spec)
    assert g1.kinds == g2.kinds and g1.fanins == g2.fanins and g1.pos == g2.pos


def _full_graph_has_cycle(g):
    # Independent iterative DFS cycle check over all edges.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * g.n
    for root in range(g.n):
        if color[root] != WHITE:
            continue
        stack = [(root, 0)]
        color[root] = GRAY
        while stack:
            v, i = stack[-1]
            if i < len(g.fanouts[v]):
                stack[-1] = (v, i + 1)
                w = g.fanouts[v][i]
                if color[w] == GRAY:
                    return True
                if color[w] == WHITE:
                    color[w] = GRAY
                    stack.append((w, 0))
            else:
                color[v] = BLACK
                stack.pop()
    return False


def test_no_feedback_means_acyclic():
    for seed in range(10):
        g = generate(GenSpec(n_pi=3, n_and=12, n_not=5, n_ff=4, seed=seed,
                             feedback_prob=0.0))
        assert not _full_graph_has_cycle(g)


def test_feedback_creates_cycle():
    hits = 0
    for seed in range(10):
        g = generate(GenSpec(n_pi=3, n_and=12, n_not=5, n_ff=4, seed=seed,
                             feedback_prob=1.0))
        if _full_graph_has_cycle(g):
            hits += 1
    assert hits == 10  # forcing step makes feedback reliable at prob 1


def test_generation_summary_reports_feedback():
    g, summary = generate(GenSpec(n_pi=3, n_and=10, n_not=4, n_ff=2, seed=3,
                                  feedback_prob=1.0), return_summary=True)
    assert summary["counts"]["FF"] == 2
    assert any(summary["feedback_achieved"])
    assert summary["outputs"] == len(g.pos)


def test_generate_infeasible():
    with pytest.raises(CircuitError):
        generate(GenSpec(n_pi=1, n_and=1, n_not=0, n_ff=0, seed=0))
    with pytest.raises(CircuitError):
        generate(GenSpec(n_pi=0, n_and=0, n_not=0, n_ff=1, seed=0))
    with pytest.raises(CircuitError):
        GenSpec(n_pi=2, n_and=1, n_not=1, n_ff=1, seed=0,
                feedback_prob=1.5).check()


def test_generated_counts_match_spec():
    spec = GenSpec(n_pi=5, n_and=30, n_not=12, n_ff=6, seed=11)
    g = generate(spec)
    c = g.counts()
    assert (c["PI"], c["AND"], c["NOT"], c["FF"]) == (5, 30, 12, 6)


def test_corpus_size_statistics():
    # Mean node count over many sampled specs tracks the target distribution.
    totals = []
    for seed in range(1000):
        s = random_spec(seed)
        totals.append(s.n_pi + s.n_and + s.n_not + s.n_ff)
    assert abs(np.mean(totals) - 214.35) < 25.0
    assert 60.0 < np.std(totals) < 130.0


@settings(max_examples=25, deadline=None)
@given(n_pi=st.integers(1, 6), n_and=st.integers(0, 25),
       n_not=st.integers(0, 10), n_ff=st.integers(0, 5),
       seed=st.integers(0, 2 ** 32 - 1),
       feedback=st.sampled_from([0.0, 0.5, 1.0]))
def test_generated_graphs_validate_and_roundtrip(n_pi, n_and, n_not, n_ff,
                                                 seed, feedback):
    if n_and > 0 and n_pi + n_ff < 2:
        n_pi = 2
    g = generate(GenSpec(n_pi=n_pi, n_and=n_and, n_not=n_not, n_ff=n_ff,
                         seed=seed, feedback_prob=feedback))
    assert validate(g) == []
    assert isomorphic(g, parse_aiger(emit_aiger(g)))


def test_isomorphic_rejects_rewiring():
    g1 = generate(GenSpec(n_pi=3, n_and=8, n_not=3, n_ff=2, seed=1))
    b = CircuitBuilder()
    b.kinds = list(g1.kinds)
    b.fanins = [list(f) for f in g1.fanins]
    and_nodes = [v for v, k in enumerate(g1.kinds) if k == NodeKind.AND]
    v = and_nodes[-1]
    f0, f1 = b.fanins[v]
    b.fanins[v] = (f1, f0) if f0 != f1 else (f0, 0)
    b.fanins = [tuple(f) for f in b.fanins]
    b.pos = list(g1.pos)
    g2 = b.build(check=False)
    if g1.fanins != g2.fanins:
        assert not isomorphic(g1, g2)
