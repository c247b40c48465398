import json

import pytest
from hypothesis import given, settings, strategies as st

from seqcircuit import (CircuitBuilder, CircuitError, GenSpec, NodeKind,
                        SimConfig, Workload, detect_cycles, generate, levelize,
                        parse_bench, simulate)
from seqcircuit.schedule import node_plan
from tests.test_bench import S27
from tests.conftest import (accumulator_bench, region_levels_reference,
                            region_waves_reference, toggle_ff)


def test_two_pi_and_levels():
    b = CircuitBuilder()
    a = b.add_pi()
    c = b.add_pi()
    g = b.add_and(a, c)
    b.set_outputs([g])
    plan = levelize(b.build())
    assert plan.levels == ((a, c), (g,))
    assert plan.cyclic_regions == ()


def test_ff_output_is_level_zero_source():
    b = CircuitBuilder()
    pi = b.add_pi()
    ff = b.add_ff()
    g = b.add_and(pi, ff)
    b.set_ff_input(ff, g)
    b.set_outputs([ff])
    plan = levelize(b.build())
    assert plan.levels[1] == (g,)       # consumes the FF output at level 0
    assert plan.levels[2] == (ff,)      # FF update point after its D settles
    assert plan.ff_update_points == (ff,)


def _longest_path_levels(g):
    """Independent DFS longest-path over the FF-cut graph."""
    import functools
    import sys

    sys.setrecursionlimit(100000)

    @functools.lru_cache(maxsize=None)
    def depth(v):
        if g.kinds[v] == NodeKind.PI:
            return 0
        best = 0
        for u in g.fanins[v]:
            src = 0 if g.kinds[u] in (NodeKind.PI, NodeKind.FF) else depth(u)
            best = max(best, src)
        return best + 1

    return max(depth(v) for v in range(g.n) if g.kinds[v] != NodeKind.PI)


def _node_level(plan):
    return {v: i for i, lvl in enumerate(plan.levels) for v in lvl}


def test_s27_level_count_matches_longest_path():
    g = parse_bench(S27)
    plan = levelize(g)
    assert len(plan.levels) == _longest_path_levels(g) + 1


def test_levels_partition_non_sources():
    for seed in range(8):
        g = generate(GenSpec(n_pi=4, n_and=15, n_not=6, n_ff=3, seed=seed,
                             feedback_prob=0.5))
        plan = levelize(g)
        assert list(plan.levels[0]) == sorted(g.pis)
        rest = [v for lvl in plan.levels[1:] for v in lvl]
        assert sorted(rest) == sorted(v for v in range(g.n)
                                      if g.kinds[v] != NodeKind.PI)
        assert len(rest) == len(set(rest))
        node_level = _node_level(plan)
        for v in rest:
            for u in g.fanins[v]:
                src = 0 if g.kinds[u] in (NodeKind.PI, NodeKind.FF) \
                    else node_level[u]
                assert node_level[v] > src


def assert_exact_levels(g):
    """Every non-PI node sits exactly one level above its deepest source,
    where PIs and FF outputs count as 0, and ``g.levels`` holds the gates'
    levels of the plan and 0 at the PIs and FFs."""
    node_level = _node_level(levelize(g))
    for v in range(g.n):
        if g.kinds[v] == NodeKind.PI:
            assert node_level[v] == 0
            continue
        src = [0 if g.kinds[u] in (NodeKind.PI, NodeKind.FF) else node_level[u]
               for u in g.fanins[v]]
        assert node_level[v] == 1 + max(src)
    gates = set(g.gates)
    assert g.levels.tolist() == [node_level[v] if v in gates else 0
                                 for v in range(g.n)]


def test_levels_are_exact():
    for seed in range(8):
        assert_exact_levels(generate(GenSpec(n_pi=4, n_and=30, n_not=10,
                                             n_ff=6, seed=seed,
                                             feedback_prob=0.5)))
    assert_exact_levels(parse_bench(S27))


def ff_fed_by_ff():
    """One region f2 -> g1 -> g2 -> f1 -> f2, where FF f2 reads FF f1."""
    b = CircuitBuilder()
    pi = b.add_pi()
    f1, f2 = b.add_ff(), b.add_ff()
    g1 = b.add_and(pi, f2)
    g2 = b.add_not(g1)
    b.set_ff_input(f1, g2)
    b.set_ff_input(f2, f1)  # reads f1's output, not its update level
    b.set_outputs([f2])
    return b.build(), (pi, f1, f2, g1, g2)


def test_ff_fed_by_ff_updates_at_level_one():
    g, (pi, f1, f2, g1, g2) = ff_fed_by_ff()
    assert_exact_levels(g)
    assert levelize(g).levels == ((pi,), (f2, g1), (g2,), (f1,))


def test_levels_are_read_only():
    g = parse_bench(S27)
    with pytest.raises(ValueError):
        g.levels[0] = 1


def _loop_graph():
    b = CircuitBuilder()
    a = b.add_pi()
    g1 = b.add_and(a, a)
    g2 = b.add_not(g1)
    b.fanins[g1] = (a, g2)  # two-gate loop with no FF
    b.set_outputs([g2])
    return b.build(check=False)


def _bad_arity_graph():
    b = CircuitBuilder()
    a = b.add_pi()
    g1 = b.add_and(a, a)
    b.fanins[g1] = (a,)
    b.set_outputs([g1])
    return b.build(check=False)


@pytest.mark.parametrize("make, rule", [(_loop_graph, "acyclicity"),
                                        (_bad_arity_graph, "arity")])
def test_simulate_rejects_invalid_graph(make, rule):
    g = make()
    with pytest.raises(CircuitError, match=f"fails validation: .*{rule}"):
        simulate(g, Workload.random(g, 0), SimConfig(n_patterns=8, n_cycles=2))
    if rule == "acyclicity":
        with pytest.raises(CircuitError, match="combinational loop"):
            g.levels


def test_levels_name_a_gate_without_fanins():
    b = CircuitBuilder()
    a = b.add_pi()
    g1 = b.add_and(a, a)
    b.fanins[g1] = ()
    b.set_outputs([b.add_not(g1)])
    g = b.build(check=False)
    with pytest.raises(CircuitError, match=f"node {g1}: arity .*AND has no fanins"):
        g.levels


def test_pipeline_has_no_regions():
    b = CircuitBuilder()
    pi = b.add_pi()
    f1 = b.add_ff()
    f2 = b.add_ff()
    b.set_ff_input(f1, pi)
    b.set_ff_input(f2, f1)
    b.set_outputs([f2])
    assert detect_cycles(b.build()) == []


def test_toggle_ff_region():
    g, ids = toggle_ff()
    regions = detect_cycles(g)
    assert len(regions) == 1
    assert regions[0].ffs == (ids["ff"],)
    assert regions[0].nodes == {ids["ff"], ids["inv"]}


def test_cross_coupled_ffs_one_region():
    b = CircuitBuilder()
    pi = b.add_pi()
    f1 = b.add_ff()
    f2 = b.add_ff()
    g1 = b.add_and(f2, pi)
    g2 = b.add_and(f1, pi)
    b.set_ff_input(f1, g1)
    b.set_ff_input(f2, g2)
    b.set_outputs([f1, f2])
    regions = detect_cycles(b.build())
    assert len(regions) == 1
    assert regions[0].ffs == (f1, f2)
    assert regions[0].nodes == {f1, f2, g1, g2}


def _cone(g, starts, direction):
    seen = set(starts)
    work = list(starts)
    adj = g.fanouts if direction == "out" else g.fanins
    while work:
        v = work.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                work.append(w)
    return seen


def test_region_equals_cone_intersection():
    # The feedback-affected set equals fanout-cone(FFs) intersected with
    # fanin-cone(FFs) for the region's trigger FFs.
    for seed in range(12):
        g = generate(GenSpec(n_pi=4, n_and=18, n_not=7, n_ff=4, seed=seed,
                             feedback_prob=0.7))
        for region in detect_cycles(g):
            expected = _cone(g, region.ffs, "out") & _cone(g, region.ffs, "in")
            assert region.nodes == expected


def test_region_without_ffs_is_acyclic_inside():
    for seed in range(12):
        g = generate(GenSpec(n_pi=4, n_and=18, n_not=7, n_ff=4, seed=seed,
                             feedback_prob=0.7))
        for region in detect_cycles(g):
            inner = {v for v in region.nodes if g.kinds[v] != NodeKind.FF}
            # Kahn over edges internal to the combinational remainder.
            indeg = {v: sum(1 for u in g.fanins[v] if u in inner)
                     for v in inner}
            ready = [v for v, d in indeg.items() if d == 0]
            seen = 0
            while ready:
                v = ready.pop()
                seen += 1
                for w in g.fanouts[v]:
                    if w in inner:
                        indeg[w] -= 1
                        if indeg[w] == 0:
                            ready.append(w)
            assert seen == len(inner)


def test_region_internal_levels_cover_region():
    g, ids = toggle_ff()
    plan = levelize(g)
    region = plan.cyclic_regions[0]
    flat = [v for lvl in region.internal_levels for v in lvl]
    assert sorted(flat) == sorted(region.nodes)
    assert flat.index(ids["inv"]) < flat.index(ids["ff"])


def assert_plan_matches_region_walk(g):
    """``node_plan``'s arrays and ``levelize``'s JSON against a walk of
    every gate per region; regions run by (lowest level, lowest node id)."""
    plan = node_plan(g)
    regions = levelize(g).cyclic_regions
    assert sorted(regions, key=lambda r: min(r.nodes)) == detect_cycles(g)
    level = plan["level"].tolist()
    keys = [(min(level[v] for v in r.nodes), min(r.nodes)) for r in regions]
    assert keys == sorted(keys)
    want = [region_levels_reference(g, r.nodes) for r in regions]
    region, inner = [-1] * g.n, [0] * g.n
    for k, levels in enumerate(want):
        for i, nodes in enumerate(levels):
            for v in nodes:
                region[v], inner[v] = k, i + 1
    assert plan["region"].tolist() == region
    assert plan["region_level"].tolist() == inner
    assert plan["wave"].tolist() == region_waves_reference(g, regions)
    doc = json.loads(levelize(g).to_json())
    assert [r["internal_levels"] for r in doc["cyclic_regions"]] == [
        [list(nodes) for nodes in levels] for levels in want]
    return len(regions)


def test_plan_matches_region_walk_on_feedback_circuits():
    counts = [assert_plan_matches_region_walk(generate(GenSpec(
        n_pi=4, n_and=30, n_not=10, n_ff=8, seed=seed, feedback_prob=0.7)))
        for seed in range(12)]
    assert sum(c > 1 for c in counts) >= 6


def test_plan_matches_region_walk_on_accumulator():
    assert assert_plan_matches_region_walk(parse_bench(accumulator_bench(16))) == 16


def test_plan_matches_region_walk_when_an_ff_reads_an_ff():
    g, (_, f1, f2, g1, g2) = ff_fed_by_ff()
    assert assert_plan_matches_region_walk(g) == 1
    assert levelize(g).cyclic_regions[0].internal_levels == ((f2, g1), (g2,), (f1,))


def test_node_plan_names_violations():
    b = CircuitBuilder()
    a = b.add_pi()
    g1 = b.add_and(a, a)
    b.fanins[g1] = (a,)
    b.set_outputs([g1])
    with pytest.raises(CircuitError, match=f"fails validation: node {g1}: arity"):
        node_plan(b.build(check=False))


def test_plan_json_dump():
    g, _ = toggle_ff()
    doc = json.loads(levelize(g).to_json())
    assert "levels" in doc and "cyclic_regions" in doc
    assert doc["cyclic_regions"][0]["ffs"]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), feedback=st.sampled_from([0.0, 0.6]))
def test_update_schedule_unique_per_pass(seed, feedback):
    g = generate(GenSpec(n_pi=3, n_and=12, n_not=5, n_ff=3, seed=seed,
                         feedback_prob=feedback))
    plan = levelize(g)
    flat = [v for lvl in plan.levels[1:] for v in lvl]
    assert len(flat) == len(set(flat))
    for region in plan.cyclic_regions:
        rf = [v for lvl in region.internal_levels for v in lvl]
        assert len(rf) == len(set(rf))
        assert set(rf) == region.nodes
