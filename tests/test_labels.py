import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqcircuit import (CircuitBuilder, CircuitError, CircuitGraph, GenSpec,
                        NodeKind, SimConfig, Workload, build_labelset,
                        ff_pair_eligible, ff_similarity, generate, parse_aiger,
                        reconvergence_pairs, sample_f_pairs,
                        truth_table_distance)
from seqcircuit import labels
from seqcircuit.labels import (LabelError, LabelSet, pair_distances,
                               sample_ffsim_pairs, sequential_depths,
                               support_masks, transitive_pi_support)
from seqcircuit.simulate import (exhaustive_stats, pack_patterns, simulate,
                                 unpack_patterns)
from tests.conftest import (eval_graph, f_pair_list, sample_f_pairs_reference,
                            sample_ffsim_pairs_reference,
                            transitive_pi_support_reference,
                            truth_table_reference)


def random_aig(seed, n_pi, n_ff, n_gates, const=True):
    """Random AIG whose gates draw each fanin from the sources or from
    recent nodes, so that supports widen with depth, followed by one AND
    chain over every source in random order, whose gates have supports of
    2 up to all sources; FF inputs come from random gates."""
    rng = np.random.default_rng(seed)
    b = CircuitBuilder()
    nodes = [b.add_pi() for _ in range(n_pi)]
    if const:
        nodes.append(b.const_false())
    ffs = [b.add_ff() for _ in range(n_ff)]
    nodes += ffs
    first_gate = len(nodes)

    def pick():
        if rng.random() < 0.4:
            return nodes[int(rng.integers(first_gate))]
        return nodes[max(0, len(nodes) - int(rng.geometric(0.1)))]
    for _ in range(n_gates):
        if rng.random() < 0.25:
            nodes.append(b.add_not(pick()))
        else:
            nodes.append(b.add_and(pick(), pick()))
    chain = [int(v) for v in rng.permutation(nodes[:first_gate])]
    acc = chain[0]
    for v in chain[1:]:
        acc = b.add_and(acc, v)
    gates = list(range(first_gate, len(b.kinds)))
    for f in ffs:
        b.set_ff_input(f, gates[int(rng.integers(len(gates)))])
    return b.build()


def grouped_supports(n_groups, width, extra):
    """Groups of width + extra PIs, each with an AND chain over its first
    width PIs and, per extra PI p, NOT(AND(chain end, p)) and
    NOT(AND(NOT chain end, p)): gates of width + 1 sources, whose pairs
    across groups exceed 16 sources for width >= 8."""
    b = CircuitBuilder()
    for _ in range(n_groups):
        pis = [b.add_pi() for _ in range(width + extra)]
        acc = pis[0]
        for p in pis[1:width]:
            acc = b.add_and(acc, p)
        for p in pis[width:]:
            for x in (acc, b.add_not(acc)):
                b.add_not(b.add_and(x, p))
    return b.build(check=False)


def chi_square_limit(dof, false_alarm):
    """Upper quantile of chi-square(dof) at ``false_alarm``, by the
    Wilson-Hilferty cube-root normal approximation."""
    lo, hi = 0.0, 40.0
    for _ in range(200):  # the normal quantile, by bisection
        z = (lo + hi) / 2
        lo, hi = (z, hi) if math.erfc(z / math.sqrt(2)) / 2 > false_alarm \
            else (lo, z)
    h = 2 / (9 * dof)
    return dof * (1 - h + z * math.sqrt(h)) ** 3


class TestReconvergence:
    def test_independent_inputs(self):
        b = CircuitBuilder()
        a = b.add_pi()
        c = b.add_pi()
        g = b.add_and(a, c)
        pairs = reconvergence_pairs(b.build(check=False))
        assert pairs == [(a, c, g, 0)]

    def test_diamond_reconverges(self):
        b = CircuitBuilder()
        a = b.add_pi()
        x = b.add_not(a)
        y = b.add_not(x)  # NOT(NOT(a)) built explicitly
        g = b.add_and(x, y)
        pairs = reconvergence_pairs(b.build(check=False))
        assert pairs == [(x, y, g, 1)]

    def test_same_node_twice_label_one(self):
        b = CircuitBuilder()
        a = b.add_pi()
        g = b.add_and(a, a)
        assert reconvergence_pairs(b.build())[0][3] == 1

    def _brute_force_ancestors(self, g, v):
        seen = {v}
        work = [v]
        while work:
            u = work.pop()
            if g.kinds[u] in (NodeKind.PI, NodeKind.FF):
                continue
            for p in g.fanins[u]:
                if p not in seen:
                    seen.add(p)
                    work.append(p)
        return seen

    def test_matches_ancestor_set_oracle(self):
        for seed in range(20):
            g = generate(GenSpec(n_pi=4, n_and=18, n_not=7, n_ff=3, seed=seed,
                                 feedback_prob=0.5))
            for a, c, v, label in reconvergence_pairs(g):
                expect = int(bool(self._brute_force_ancestors(g, a)
                                  & self._brute_force_ancestors(g, c)))
                assert label == expect

    def test_cones_meeting_only_at_the_constant(self):
        # AND 4 reads AND(x, 1) and AND(y, 1), where 1 is NOT(constant):
        # the free supports {x} and {y} are disjoint, and the two cones
        # share the inverter and the constant behind it.
        g = parse_aiger("aag 5 2 0 1 3\n2\n4\n10\n6 2 1\n8 4 1\n10 6 8\n")
        a, c = g.fanins[4]
        sup = support_masks(g)
        assert g.kinds[4] == NodeKind.AND and sup[a] & sup[c] == 0
        pairs = reconvergence_pairs(g)
        assert (a, c, 4, 1) in pairs
        for a, c, v, label in pairs:
            assert label == int(bool(self._brute_force_ancestors(g, a)
                                     & self._brute_force_ancestors(g, c)))

    def test_gate_without_fanins_raises(self):
        # The cones of AND 5's fanins meet only at NOT 2, which has no
        # fanins and so reaches no source: the cones meet without a common
        # source.  The graph fails validation, and the labels refuse it.
        pi, inv, gate = NodeKind.PI, NodeKind.NOT, NodeKind.AND
        g = CircuitGraph(kinds=(pi, pi, inv, gate, gate, gate),
                         fanins=((), (), (), (0, 2), (1, 2), (3, 4)))
        with pytest.raises(CircuitError, match="no fanins"):
            reconvergence_pairs(g)

    def test_working_memory_without_cone_masks(self):
        # The labels keep no per-node mask over non-source node ids: such
        # cone masks took 4.5 MB here and grew with the square of the size.
        g = generate(GenSpec(n_pi=200, n_and=5600, n_not=1700, n_ff=100,
                             seed=1, feedback_prob=0.3))
        g.levels  # the graph's cached order and levels are not the labels'
        tracemalloc.start()
        try:
            reconvergence_pairs(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


class TestTruthTableDistance:
    def test_duplicate_gate_distance_zero(self):
        b = CircuitBuilder()
        a = b.add_pi()
        c = b.add_pi()
        g1 = b.add_and(a, c)
        g2 = b.add_and(a, c)
        g = b.build(check=False)
        assert truth_table_distance(g, g1, g2) == 0.0

    def test_complement_distance_one(self):
        b = CircuitBuilder()
        a = b.add_pi()
        c = b.add_pi()
        g1 = b.add_and(a, c)
        g2 = b.add_not(g1)
        g = b.build(check=False)
        assert truth_table_distance(g, g1, g2) == 1.0

    def test_and_vs_or_half(self):
        # Four-row enumeration: AND column 0001 vs OR column 0111 differ in
        # rows 01 and 10, so the normalized distance is 2/4.
        b = CircuitBuilder()
        a = b.add_pi()
        c = b.add_pi()
        g_and = b.add_and(a, c)
        na = b.make_not(a)
        nc = b.make_not(c)
        inner = b.add_and(na, nc)
        g_or = b.make_not(inner)
        g = b.build(check=False)
        assert truth_table_distance(g, g_and, g_or) == 0.5

    def test_support_cap(self):
        b = CircuitBuilder()
        pis = [b.add_pi() for _ in range(18)]
        acc = b.add_and(pis[0], pis[1])
        for p in pis[2:]:
            acc = b.add_and(acc, p)
        other = b.add_not(pis[0])
        g = b.build(check=False)
        with pytest.raises(LabelError):
            truth_table_distance(g, acc, other)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(4)
        for seed in range(8):
            g = generate(GenSpec(n_pi=4, n_and=10, n_not=5, n_ff=2, seed=seed,
                                 feedback_prob=0.4))
            sup = support_masks(g)
            gates = g.gates
            for _ in range(6):
                i, j = rng.choice(gates, size=2, replace=False)
                sources = [v for v in range(g.n) if (sup[i] | sup[j]) >> v & 1]
                diff = 0
                for bits in itertools.product([False, True], repeat=len(sources)):
                    env = dict(zip(sources, bits))
                    ev = eval_graph(g, env, env)
                    diff += ev(int(i)) != ev(int(j))
                expect = diff / (2 ** len(sources)) if sources else 0.0
                assert truth_table_distance(g, int(i), int(j)) \
                    == pytest.approx(expect, abs=1e-12)

    def test_symmetry_and_triangle(self):
        g = generate(GenSpec(n_pi=4, n_and=12, n_not=5, n_ff=1, seed=9))
        gates = g.gates[:6]
        for i, j in itertools.combinations(gates, 2):
            assert truth_table_distance(g, i, j) \
                == truth_table_distance(g, j, i)
        for i, j, k in itertools.combinations(gates, 3):
            dij = truth_table_distance(g, i, j)
            djk = truth_table_distance(g, j, k)
            dik = truth_table_distance(g, i, k)
            assert dik <= dij + djk + 1e-12

    def _check_batched(self, g, pairs):
        sup = support_masks(g)
        want = [truth_table_reference(g, i, j, sup) for i, j in pairs]
        assert pair_distances(g, pairs, sup) == want
        assert [truth_table_distance(g, i, j) for i, j in pairs] == want

    def test_batched_matches_cone_walk_small_supports(self):
        # k < 6: one word per pair, with the bits past 2^k masked; the
        # pinned constant input sits inside several cones.
        b = CircuitBuilder()
        x, y, z = b.add_pi(), b.add_pi(), b.add_pi()
        c = b.const_false()
        nc = b.add_not(c)
        g1 = b.add_and(x, nc)            # x, through NOT(const)
        g2 = b.add_and(y, c)             # always 0
        g3 = b.add_not(g2)               # always 1
        g4 = b.add_and(b.add_not(x), z)
        g5 = b.add_and(g1, g4)
        g6 = b.add_not(nc)               # support 0: const only
        g = b.build()
        gates = [g1, g2, g3, g4, g5, g6]
        pairs = list(itertools.combinations(gates, 2))
        self._check_batched(g, pairs)
        assert pair_distances(g, [(g2, g3)], support_masks(g)) == [1.0]
        assert pair_distances(g, [(g2, g6)], support_masks(g)) == [0.0]

    def test_batched_matches_cone_walk_k6_and_k16(self):
        b = CircuitBuilder()
        pis = [b.add_pi() for _ in range(16)]
        c = b.const_false()
        acc6 = b.add_and(pis[0], pis[1])
        for p in pis[2:6]:
            acc6 = b.add_and(b.add_not(acc6), p)
        par = pis[0]
        for p in pis[1:16]:  # XOR chain: NOT(AND(NOT(a&~b), NOT(~a&b)))
            na, nb = b.add_not(par), b.add_not(p)
            par = b.add_not(b.add_and(b.add_not(b.add_and(par, nb)),
                                      b.add_not(b.add_and(na, p))))
        acc16 = b.add_and(pis[15], b.add_not(c))
        for p in pis[:15]:
            acc16 = b.add_not(b.add_and(acc16, b.add_not(p)))
        other6 = b.add_and(pis[5], pis[0])
        g = b.build()
        sup = support_masks(g)
        assert bin(sup[acc6] | sup[other6]).count("1") == 6
        assert bin(sup[par] | sup[acc16]).count("1") == 16
        pairs = [(acc6, other6), (other6, acc6), (par, acc16), (acc6, par),
                 (acc16, acc16), (acc6, acc16)]
        self._check_batched(g, pairs)
        assert pair_distances(g, [(par, acc6)], sup)[0] == 0.5

    @pytest.mark.parametrize("chunk_words", [1, 64, labels.CHUNK_WORDS])
    def test_batched_pairs_sharing_cones(self, monkeypatch, chunk_words):
        # Every eligible pair of one circuit: their cones overlap, so one
        # chunk's rows serve many pairs at the default bound, and every pair
        # is alone in its chunk at a bound of one word.
        monkeypatch.setattr(labels, "CHUNK_WORDS", chunk_words)
        for seed in range(3):
            g = random_aig(seed, n_pi=9, n_ff=3, n_gates=30)
            pairs = f_pair_list(g, support_masks(g))
            pairs += [(j, i) for i, j in pairs[::7]]
            sup = support_masks(g)
            want = [truth_table_reference(g, i, j, sup) for i, j in pairs]
            assert pair_distances(g, pairs, sup) == want

    @pytest.mark.parametrize("chunk_words", [64, 4096])
    def test_chunks_are_greedy_cone_unions(self, monkeypatch, chunk_words):
        # Each chunk sweeps exactly the union of its pairs' cones, stays
        # within rows x words of CHUNK_WORDS unless it holds one pair, and
        # could not have taken the next pair.
        monkeypatch.setattr(labels, "CHUNK_WORDS", chunk_words)
        chunks = []
        sweep = labels._chunk_distances

        def spy(pairs, sup, rows, table):
            chunks.append((list(pairs), rows.tolist()))
            return sweep(pairs, sup, rows, table)
        monkeypatch.setattr(labels, "_chunk_distances", spy)
        g = random_aig(1, n_pi=9, n_ff=3, n_gates=30)
        sup = support_masks(g)
        pairs = f_pair_list(g, sup)
        pair_distances(g, pairs, sup)
        assert [p for chunk, _ in chunks for p in chunk] == pairs
        assert any(len(chunk) > 1 for chunk, _ in chunks)

        def cones(chunk):
            return set().union(*(TestReconvergence()._brute_force_ancestors(g, v)
                                 for pair in chunk for v in pair))

        def words(chunk):
            return sum(labels._table_words(bin(sup[i] | sup[j]).count("1"))
                       for i, j in chunk)
        for k, (chunk, rows) in enumerate(chunks):
            assert rows == sorted(cones(chunk))
            assert len(chunk) == 1 or len(rows) * words(chunk) <= chunk_words
            if k + 1 < len(chunks):
                grown = chunk + chunks[k + 1][0][:1]
                assert len(cones(grown)) * words(grown) > chunk_words

    def test_combinational_loop_raises(self):
        b = CircuitBuilder()
        a, c = b.add_pi(), b.add_pi()
        g1 = b.add_and(a, a)
        g2 = b.add_not(g1)
        g3 = b.add_and(c, g2)
        g4 = b.add_and(a, c)
        b.fanins[g1] = (a, g2)  # two-gate loop with no FF
        g = b.build(check=False)
        sup = support_masks(g)
        with pytest.raises(CircuitError, match="combinational loop"):
            truth_table_distance(g, g3, g4, sup)
        with pytest.raises(CircuitError, match="combinational loop"):
            pair_distances(g, [(g3, g4)], sup)


class TestFPairSampling:
    def test_single_and_has_no_pairs(self):
        b = CircuitBuilder()
        a = b.add_pi()
        c = b.add_pi()
        b.add_and(a, c)
        assert sample_f_pairs(b.build(check=False), 10, seed=0) == []

    def test_duplicated_cones_show_distance_zero(self):
        b = CircuitBuilder()
        a = b.add_pi()
        c = b.add_pi()
        g1 = b.add_and(a, c)
        g2 = b.add_and(a, c)
        pairs = sample_f_pairs(b.build(check=False), 100, seed=0)
        assert (g1, g2, 0.0) in pairs

    def test_target_count_and_support_bound(self):
        g = generate(GenSpec(n_pi=5, n_and=30, n_not=12, n_ff=4, seed=3,
                             feedback_prob=0.5))
        target = 40
        pairs = sample_f_pairs(g, target, seed=7)
        elig = f_pair_list(g, support_masks(g))
        assert len(pairs) == min(target, len(elig))
        sup = support_masks(g)
        for i, j, d in pairs:
            assert bin(sup[i] | sup[j]).count("1") <= 16
            assert 0.0 <= d <= 1.0

    def test_deterministic(self):
        g = generate(GenSpec(n_pi=4, n_and=20, n_not=8, n_ff=3, seed=5))
        assert sample_f_pairs(g, 25, seed=3) == sample_f_pairs(g, 25, seed=3)

    @pytest.mark.parametrize("chunk_words", [7, labels.CHUNK_WORDS])
    def test_matches_listed_enumeration(self, monkeypatch, chunk_words):
        # Gates whose own support exceeds 16 sources are in every circuit
        # here; a bound of 7 words splits the eligibility test into slices
        # of a few pairs, and the draw must not depend on it.
        monkeypatch.setattr(labels, "CHUNK_WORDS", chunk_words)
        for seed in range(4):
            g = random_aig(seed, n_pi=20, n_ff=4, n_gates=40)
            sup = support_masks(g)
            assert any(bin(sup[v]).count("1") > 16 for v in g.gates)
            for target in (1, 40, 200):
                assert sample_f_pairs(g, target, seed) \
                    == sample_f_pairs_reference(g, target, seed)

    def test_working_memory_bounded(self):
        # About 1.3M pairs of this 2,010-node circuit are eligible: a list of
        # them took some 80 MB, the rejection draw takes a few.
        g = generate(GenSpec(n_pi=40, n_and=1400, n_not=420, n_ff=150, seed=1))
        sample_f_pairs(g, 1, 0)  # builds the cached standard table
        tracemalloc.start()
        try:
            pairs = sample_f_pairs(g, None, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pairs) == round(labels.F_PAIRS_PER_CIRCUIT * g.n
                                   / labels.REFERENCE_NODES)
        assert peak < 16 * 2 ** 20

    def test_chunk_memory_without_cone_masks(self):
        # A chunk's rows come from a walk from its pairs' ends, not from
        # cone masks of every node, which took 5.8 MB here.
        g = generate(GenSpec(n_pi=200, n_and=5600, n_not=1700, n_ff=100,
                             seed=1, feedback_prob=0.3))
        sup = support_masks(g)
        pairs = [(i, j) for i, j, _ in sample_f_pairs(g, 500, 1)]
        tracemalloc.start()
        try:
            pair_distances(g, pairs, sup)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20

    def test_defaults_match_listed_enumeration(self):
        for seed in range(3):
            g = generate(GenSpec(n_pi=6, n_and=40, n_not=12, n_ff=5,
                                 seed=seed, feedback_prob=0.5))
            target = max(1, round(labels.F_PAIRS_PER_CIRCUIT * g.n
                                  / labels.REFERENCE_NODES))
            assert sample_f_pairs(g, None, seed) \
                == sample_f_pairs_reference(g, target, seed)

    def test_triangle_inverse_exact(self):
        listed = [(a, b) for b in range(60) for a in range(b)]
        a, b = labels._triangle_pairs(np.arange(len(listed)))
        assert list(zip(a.tolist(), b.tolist())) == listed
        # Row b starts at b(b-1)/2: past 2^31 from b = 65,537, and near
        # 2^53 at the last b here, where the float root of the row's last
        # index rounds up to b + 1.
        for b in (65536, 65537, 92682, 92683, 3_037_000, 1 << 27):
            start = b * (b - 1) // 2
            a, row = labels._triangle_pairs(np.array([start - 1, start,
                                                      start + b - 1]))
            assert list(zip(a.tolist(), row.tolist())) \
                == [(b - 2, b - 1), (0, b), (b - 1, b)]

    def test_candidates_linear_in_target(self, monkeypatch):
        # Of the ~1.6M gate pairs of this 2,010-node circuit, only the
        # drawn candidates are tested for eligibility, each once.
        g = generate(GenSpec(n_pi=40, n_and=1400, n_not=420, n_ff=150, seed=1))
        tested = []
        eligible = labels._eligible

        def counted(words, a, b):
            tested.append(len(a))
            return eligible(words, a, b)
        monkeypatch.setattr(labels, "_eligible", counted)
        monkeypatch.setattr(labels, "pair_distances",
                            lambda g, pairs, sup: [0.0] * len(pairs))
        pairs = sample_f_pairs(g, None, 7)
        assert 0 < sum(tested) <= 4 * len(pairs)

    def test_no_repeats_and_every_pair_eligible(self):
        for g in (grouped_supports(4, 9, 6),
                  random_aig(1, n_pi=20, n_ff=4, n_gates=40)):
            sup = support_masks(g)
            eligible = set(f_pair_list(g, sup))
            for seed in range(5):
                for target in (1, 300, 3000):
                    pairs = [(i, j) for i, j, _
                             in sample_f_pairs(g, target, seed)]
                    assert len(pairs) == min(target, len(eligible))
                    assert len(set(pairs)) == len(pairs)
                    assert set(pairs) <= eligible
                    assert pairs == sorted(pairs)

    def test_target_above_eligible_returns_each_pair_once(self):
        g = grouped_supports(3, 9, 2)
        sup = support_masks(g)
        listed = f_pair_list(g, sup)
        assert len(listed) < len(g.gates) * (len(g.gates) - 1) // 2
        pairs = sample_f_pairs(g, 10 * len(listed), seed=4)
        assert [(i, j) for i, j, _ in pairs] == listed

    def test_distances_match_cone_walk(self):
        g = random_aig(2, n_pi=20, n_ff=4, n_gates=40)
        sup = support_masks(g)
        for i, j, d in sample_f_pairs(g, 150, seed=5):
            assert d == truth_table_reference(g, i, j, sup)

    @pytest.mark.parametrize("g, target", [
        pytest.param(grouped_supports(4, 9, 6), 1000, id="doubled-draw"),
        pytest.param(grouped_supports(4, 9, 6), 3000, id="every-pair-drawn"),
        pytest.param(random_aig(3, n_pi=20, n_ff=4, n_gates=40), 300,
                     id="first-draw")])
    def test_uniform_over_eligible_pairs(self, monkeypatch, g, target):
        # Each eligible pair is kept in a fraction target / E of the draws.
        # Over N independent seeds its count c has mean N p and variance
        # N p (1 - p); the counts of one draw sum to the target, so the
        # statistic below is chi-square with E - 1 degrees of freedom.  Its
        # limit is the Wilson-Hilferty quantile at a 1e-6 false alarm.
        monkeypatch.setattr(labels, "pair_distances",
                            lambda g, pairs, sup: [0.0] * len(pairs))
        listed = f_pair_list(g, support_masks(g))
        column = {pair: c for c, pair in enumerate(listed)}
        n_seeds = 400
        counts = np.zeros(len(listed))
        for seed in range(n_seeds):
            for i, j, _ in sample_f_pairs(g, target, seed):
                counts[column[(i, j)]] += 1
        e = len(listed)
        p = target / e
        stat = (e - 1) / e * ((counts - n_seeds * p) ** 2).sum() \
            / (n_seeds * p * (1 - p))
        assert stat <= chi_square_limit(e - 1, 1e-6)


class TestFFPairs:
    def test_same_pi_same_depth_eligible(self):
        b = CircuitBuilder()
        pi = b.add_pi()
        f1 = b.add_ff()
        f2 = b.add_ff()
        inv = b.add_not(pi)
        b.set_ff_input(f1, pi)
        b.set_ff_input(f2, inv)
        g = b.build(check=False)
        assert ff_pair_eligible(g, f1, f2)

    def test_disjoint_supports_ineligible(self):
        b = CircuitBuilder()
        p1 = b.add_pi()
        p2 = b.add_pi()
        f1 = b.add_ff()
        f2 = b.add_ff()
        b.set_ff_input(f1, p1)
        b.set_ff_input(f2, p2)
        g = b.build(check=False)
        assert not ff_pair_eligible(g, f1, f2)

    def test_pipeline_stages_differ_in_depth(self):
        b = CircuitBuilder()
        pi = b.add_pi()
        f1 = b.add_ff()
        f2 = b.add_ff()
        b.set_ff_input(f1, pi)
        b.set_ff_input(f2, f1)
        g = b.build(check=False)
        depth = sequential_depths(g)
        assert depth[f1] == 1 and depth[f2] == 2  # BFS oracle by hand
        assert not ff_pair_eligible(g, f1, f2)

    def test_depth_through_gates_is_free(self):
        b = CircuitBuilder()
        pi = b.add_pi()
        n1 = b.add_not(pi)
        n2 = b.add_not(n1)
        f1 = b.add_ff()
        b.set_ff_input(f1, n2)
        g = b.build(check=False)
        assert sequential_depths(g)[f1] == 1

    def test_transitive_support_crosses_ffs(self):
        b = CircuitBuilder()
        pi = b.add_pi()
        f1 = b.add_ff()
        f2 = b.add_ff()
        b.set_ff_input(f1, pi)
        b.set_ff_input(f2, f1)
        g = b.build(check=False)
        sup = transitive_pi_support(g)
        assert sup[f2] == 1 << pi

    def test_transitive_support_matches_fixpoint(self):
        for seed in range(6):
            g = random_aig(seed, n_pi=5, n_ff=6, n_gates=40, const=seed % 2 == 0)
            assert transitive_pi_support(g) == transitive_pi_support_reference(g)
            g = generate(GenSpec(n_pi=3, n_and=30, n_not=10, n_ff=8, seed=seed,
                                 feedback_prob=0.8))
            assert transitive_pi_support(g) == transitive_pi_support_reference(g)

    def test_sampling_matches_listed_enumeration(self):
        # Many FFs on few PIs, so several (support, depth) groups hold more
        # than two FFs; some FFs see no PI and others sit on a
        # PI-unreachable loop (infinite depth).
        for seed in range(6):
            g = random_aig(seed, n_pi=2, n_ff=14, n_gates=30)
            stats = simulate(g, Workload.random(g, seed), SimConfig(64, 8, seed))
            for target in (1, 5, None, 10 ** 6):
                want = sample_ffsim_pairs_reference(
                    g, stats, target if target is not None else
                    max(1, round(labels.FF_PAIRS_PER_CIRCUIT * g.n
                                 / labels.REFERENCE_NODES)), seed)
                assert sample_ffsim_pairs(g, stats, target, seed) == want


def bool_similarity(a, b):
    """``ff_similarity`` of two (P, T) bool traces."""
    return ff_similarity(pack_patterns(a.T), pack_patterns(b.T), a.shape[0])


class TestFFSimilarity:
    def test_identical_traces(self):
        t = np.array([[0, 1, 1, 0, 1]], dtype=bool)
        assert bool_similarity(t, t) == 1.0

    def test_hand_worked_example(self):
        # A = 0,1,1,0 and B = 0,1,0,0: states match at t-1 for t in {1, 2};
        # the transition also matches only for t = 1, so the ratio is 1/2.
        a = np.array([[0, 1, 1, 0]], dtype=bool)
        b = np.array([[0, 1, 0, 0]], dtype=bool)
        assert bool_similarity(a, b) == 0.5

    def test_complementary_traces_skipped(self):
        a = np.array([[0, 1, 0, 1]], dtype=bool)
        assert bool_similarity(a, ~a) is None

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.random((4, 9)) < 0.5
            b = rng.random((4, 9)) < 0.5
            assert bool_similarity(a, b) == bool_similarity(b, a)

    def test_matches_indicator_oracle(self):
        # Random state words fill every lane, as a simulation's last partial
        # word does, so the padding lanes past P must be masked out.
        rng = np.random.default_rng(1)
        for P in (1, 3, 63, 65, 1000):
            for _ in range(3):
                words = rng.integers(0, 2 ** 64, size=(2, 12, -(-P // 64)),
                                     dtype=np.uint64)
                a, b = (unpack_patterns(x, P).T for x in words)
                num = den = 0
                for p in range(P):
                    for t in range(1, 12):
                        phi_state = int(a[p, t - 1] == b[p, t - 1])
                        phi_trans = phi_state and int(a[p, t] == b[p, t])
                        den += phi_state
                        num += phi_trans
                expect = num / den if den else None
                assert ff_similarity(words[0], words[1], P) == expect

    def test_misaligned_traces_rejected(self):
        with pytest.raises(LabelError):
            ff_similarity(np.zeros((5, 1), np.uint64),
                          np.zeros((6, 1), np.uint64), 2)


class TestBuildLabelset:
    def test_toggle_circuit(self):
        from tests.conftest import toggle_ff

        g, ids = toggle_ff()
        w = Workload({ids["pi"]: (0.5, 0.5)})
        ls = build_labelset(g, w, SimConfig(100, 20, 1), seed=2)
        assert ls.ptr[ids["ff"]] == 1.0
        assert ls.ffsim_pairs == []  # single FF, no pair

    def test_twin_toggle_ffs_similarity_one(self):
        b = CircuitBuilder()
        pi = b.add_pi()
        f1 = b.add_ff()
        f2 = b.add_ff()
        i1 = b.add_not(f1)
        i2 = b.add_not(f2)
        a1 = b.add_and(pi, i1)
        a2 = b.add_and(pi, i2)
        b.set_ff_input(f1, a1)
        b.set_ff_input(f2, a2)
        b.set_outputs([f1, f2])
        g = b.build()
        w = Workload({pi: (0.6, 0.4)})
        ls = build_labelset(g, w, SimConfig(200, 30, 4), seed=1)
        assert len(ls.ffsim_pairs) == 1
        # identical dynamics from identical structure means identical traces
        assert ls.ffsim_pairs[0] == (f1, f2, 1.0)

    def test_counts_bookkeeping(self):
        g = generate(GenSpec(n_pi=4, n_and=25, n_not=10, n_ff=4, seed=8,
                             feedback_prob=0.5))
        w = Workload.random(g, 2)
        ls = build_labelset(g, w, SimConfig(100, 20, 0), f_target=17,
                            ffsim_target=3, seed=5)
        assert len(ls.rc_pairs) == 25
        assert len(ls.f_pairs) == min(17, len(f_pair_list(g, support_masks(g))))
        assert len(ls.f_pairs) == 17
        assert (0 <= ls.p1).all() and (ls.p1 <= 1).all()

    def test_exact_statistics_give_no_ffsim_labels(self):
        # Exact statistics carry no FF traces: FF-similarity labels fail
        # with a located error, and every other label is built.
        g = generate(GenSpec(n_pi=3, n_and=10, n_not=4, n_ff=4, seed=100,
                             feedback_prob=0.7))
        w = Workload.random(g, 0)
        cfg = SimConfig(64, 10, 0)
        exact = exhaustive_stats(g, w, cfg)
        assert sample_ffsim_pairs(g, simulate(g, w, cfg), None, 0)[0]
        with pytest.raises(LabelError, match="need simulated traces"):
            build_labelset(g, w, cfg, stats=exact)
        ls = build_labelset(g, w, cfg, ffsim_target=0, stats=exact)
        assert np.array_equal(ls.p1, exact.p1) and ls.ffsim_pairs == []

    def test_json_record_roundtrip(self):
        g = generate(GenSpec(n_pi=3, n_and=12, n_not=5, n_ff=3, seed=4,
                             feedback_prob=0.6))
        w = Workload.random(g, 6)
        cfg = SimConfig(80, 15, 9)
        ls = build_labelset(g, w, cfg, f_target=10, ffsim_target=5, seed=1)
        line = ls.to_json_record("c.aag", w, cfg)
        path, w2, cfg2, ls2 = LabelSet.from_json_record(line)
        assert path == "c.aag"
        assert w2 == w
        assert cfg2 == cfg
        assert np.array_equal(ls.p1, ls2.p1)
        assert np.array_equal(ls.ptr, ls2.ptr)
        assert ls.rc_pairs == [tuple(r) for r in ls2.rc_pairs]
        assert ls.f_pairs == ls2.f_pairs
        assert ls.ffsim_pairs == ls2.ffsim_pairs
