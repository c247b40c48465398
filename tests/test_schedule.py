import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqcircuit import (CircuitBuilder, CircuitError, GenSpec, NodeKind,
                        SimConfig, Workload, generate, parse_aiger,
                        parse_bench, simulate)
from seqcircuit.schedule import node_plan, plan_document
from tests.test_bench import S27
from tests.conftest import (accumulator_bench, region_levels_reference,
                            region_waves_reference, toggle_ff)


def test_two_pi_and_levels():
    b = CircuitBuilder()
    a = b.add_pi()
    c = b.add_pi()
    g = b.add_and(a, c)
    b.set_outputs([g])
    plan = node_plan(b.build())
    assert plan["level"][[a, c, g]].tolist() == [0, 0, 1]
    assert plan["region"].tolist() == [-1] * 3 and not len(plan["wave"])


def test_ff_output_is_level_zero_source():
    b = CircuitBuilder()
    pi = b.add_pi()
    ff = b.add_ff()
    g = b.add_and(pi, ff)
    b.set_ff_input(ff, g)
    b.set_outputs([ff])
    level = node_plan(b.build())["level"]
    assert level[g] == 1    # consumes the FF output at level 0
    assert level[ff] == 2   # FF update point after its D settles


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


def test_s27_level_count_matches_longest_path():
    g = parse_bench(S27)
    assert node_plan(g)["level"].max() == _longest_path_levels(g)


def test_levels_partition_non_sources():
    for seed in range(8):
        g = generate(GenSpec(n_pi=4, n_and=15, n_not=6, n_ff=3, seed=seed,
                             feedback_prob=0.5))
        node_level = node_plan(g)["level"].tolist()
        assert [v for v in range(g.n) if node_level[v] == 0] == sorted(g.pis)
        for v in range(g.n):
            for u in g.fanins[v]:
                src = 0 if g.kinds[u] in (NodeKind.PI, NodeKind.FF) \
                    else node_level[u]
                assert node_level[v] > src


def assert_exact_levels(g):
    """Every non-PI node sits exactly one level above its deepest source,
    where PIs and FF outputs count as 0, and ``g.levels`` holds the gates'
    levels of the plan and 0 at the PIs and FFs."""
    node_level = node_plan(g)["level"].tolist()
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
    assert node_plan(g)["level"][[pi, f2, g1, g2, f1]].tolist() == [0, 1, 1, 2, 3]


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


def _regions(g):
    """Each region's node set, in region id order."""
    region = node_plan(g)["region"]
    return [set(np.flatnonzero(region == k).tolist())
            for k in range(region.max(initial=-1) + 1)]


def test_pipeline_has_no_regions():
    b = CircuitBuilder()
    pi = b.add_pi()
    f1 = b.add_ff()
    f2 = b.add_ff()
    b.set_ff_input(f1, pi)
    b.set_ff_input(f2, f1)
    b.set_outputs([f2])
    assert _regions(b.build()) == []


def test_toggle_ff_region():
    g, ids = toggle_ff()
    assert _regions(g) == [{ids["ff"], ids["inv"]}]


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
    assert _regions(b.build()) == [{f1, f2, g1, g2}]


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
        for nodes in _regions(g):
            ffs = [v for v in nodes if g.kinds[v] == NodeKind.FF]
            assert nodes == _cone(g, ffs, "out") & _cone(g, ffs, "in")


def test_region_without_ffs_is_acyclic_inside():
    for seed in range(12):
        g = generate(GenSpec(n_pi=4, n_and=18, n_not=7, n_ff=4, seed=seed,
                             feedback_prob=0.7))
        for nodes in _regions(g):
            inner = {v for v in nodes if g.kinds[v] != NodeKind.FF}
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
    plan = node_plan(g)
    inside = plan["region"] == 0
    assert inside.any() and (plan["region_level"][inside] >= 1).all()
    assert (plan["region_level"][~inside] == 0).all()
    assert plan["region_level"][ids["inv"]] < plan["region_level"][ids["ff"]]


def assert_plan_matches_region_walk(g):
    """``node_plan``'s arrays and ``plan_document`` against a walk of every
    gate per region; regions run by (lowest level, lowest node id)."""
    plan = node_plan(g)
    regions = _regions(g)
    level = plan["level"].tolist()
    keys = [(min(level[v] for v in r), min(r)) for r in regions]
    assert keys == sorted(keys)
    want = [region_levels_reference(g, r) for r in regions]
    region, inner = [-1] * g.n, [0] * g.n
    for k, levels in enumerate(want):
        for i, nodes in enumerate(levels):
            for v in nodes:
                region[v], inner[v] = k, i + 1
    assert plan["region"].tolist() == region
    assert plan["region_level"].tolist() == inner
    assert plan["wave"].tolist() == region_waves_reference(g, regions)
    doc = plan_document(g)
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
    assert node_plan(g)["region_level"][[f2, g1, g2, f1]].tolist() == [1, 1, 2, 3]


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
    doc = plan_document(g)
    assert "levels" in doc and "cyclic_regions" in doc
    assert doc["cyclic_regions"][0]["ffs"]


def test_plan_document_lists_level_zero_of_an_empty_graph():
    doc = plan_document(parse_aiger("aag 0 0 0 0 0\n"))
    assert doc == {"levels": [[]], "ff_update_points": [], "cyclic_regions": []}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), feedback=st.sampled_from([0.0, 0.6]))
def test_update_schedule_unique_per_pass(seed, feedback):
    g = generate(GenSpec(n_pi=3, n_and=12, n_not=5, n_ff=3, seed=seed,
                         feedback_prob=feedback))
    doc = plan_document(g)
    flat = [v for lvl in doc["levels"][1:] for v in lvl]
    assert len(flat) == len(set(flat))
    for region in doc["cyclic_regions"]:
        rf = [v for lvl in region["internal_levels"] for v in lvl]
        assert len(rf) == len(set(rf))
        assert sorted(rf) == region["nodes"]
