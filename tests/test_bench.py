import itertools

import pytest

from seqcircuit import NodeKind, parse_bench
from seqcircuit.bench import BenchError
from tests.conftest import eval_graph

S27 = """
# s27 benchmark
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
"""


def test_nand_lowering():
    g = parse_bench("INPUT(A)\nINPUT(B)\nOUTPUT(G1)\nG1 = NAND(A, B)\n")
    nid = g.name_map["G1"]
    assert g.kinds[nid] == NodeKind.NOT
    inner = g.fanins[nid][0]
    assert g.kinds[inner] == NodeKind.AND
    assert g.fanins[inner] == (g.name_map["A"], g.name_map["B"])


def test_or_lowering_de_morgan():
    g = parse_bench("INPUT(A)\nINPUT(B)\nOUTPUT(G2)\nG2 = OR(A, B)\n")
    nid = g.name_map["G2"]
    assert g.kinds[nid] == NodeKind.NOT
    inner = g.fanins[nid][0]
    assert g.kinds[inner] == NodeKind.AND
    for f in g.fanins[inner]:
        assert g.kinds[f] == NodeKind.NOT


def test_s27_counts():
    g = parse_bench(S27)
    assert len(g.ffs) == 3
    assert len(g.pis) == 4
    assert len(g.pos) == 1


def test_s27_validates_and_names_survive():
    g = parse_bench(S27)
    for name in ("G0", "G5", "G10", "G17"):
        assert name in g.name_map
    synth = [n for n in g.name_map if n.startswith("$")]
    assert synth, "lowering should synthesize intermediate names"


TRUTH = {
    "AND": lambda bits: all(bits),
    "NAND": lambda bits: not all(bits),
    "OR": lambda bits: any(bits),
    "NOR": lambda bits: not any(bits),
    "NOT": lambda bits: not bits[0],
}


@pytest.mark.parametrize("gate", sorted(TRUTH))
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_lowering_truth_tables_exhaustive(gate, arity):
    if gate == "NOT" and arity != 1:
        pytest.skip("NOT is unary")
    if gate != "NOT" and arity == 1:
        pytest.skip("multi-input gates only")
    names = [f"I{k}" for k in range(arity)]
    src = "".join(f"INPUT({n})\n" for n in names)
    src += "OUTPUT(Y)\n"
    src += f"Y = {gate}({', '.join(names)})\n"
    g = parse_bench(src)
    out = g.name_map["Y"]
    for bits in itertools.product([False, True], repeat=arity):
        env = {g.name_map[n]: v for n, v in zip(names, bits)}
        assert eval_graph(g, env)(out) == TRUTH[gate](list(bits))


def test_unknown_gate():
    with pytest.raises(BenchError):
        parse_bench("INPUT(A)\nOUTPUT(Y)\nY = XOR(A, A)\n")


def test_dangling_net():
    with pytest.raises(BenchError) as err:
        parse_bench("INPUT(A)\nOUTPUT(Y)\nY = AND(A, B)\n")
    assert "B" in str(err.value)


@pytest.mark.parametrize("text", ["", "# comment only\n\n", "OUTPUT(Y)\n"])
def test_file_without_nets_rejected(text):
    with pytest.raises(BenchError) as err:
        parse_bench(text)
    assert "no nets" in str(err.value)


def test_redefined_net():
    with pytest.raises(BenchError):
        parse_bench("INPUT(A)\nY = NOT(A)\nY = NOT(A)\n")


def test_combinational_loop_rejected():
    src = "INPUT(A)\nOUTPUT(X)\nX = AND(A, Y)\nY = NOT(X)\n"
    with pytest.raises(BenchError) as err:
        parse_bench(src)
    assert "loop" in str(err.value)


def test_dff_feedback_allowed():
    src = "INPUT(A)\nOUTPUT(Q)\nQ = DFF(D)\nD = NOT(Q)\n"
    g = parse_bench(src)
    ff = g.name_map["Q"]
    assert g.kinds[ff] == NodeKind.FF
    assert g.kinds[g.fanins[ff][0]] == NodeKind.NOT


def test_s27_matches_direct_semantics():
    # One simulation step with all-zero state and chosen inputs must match a
    # hand evaluation of the original gate equations.
    g = parse_bench(S27)
    nm = g.name_map
    for bits in itertools.product([False, True], repeat=4):
        env = {nm[f"G{k}"]: bits[k] for k in range(4)}
        ffv = {nm[n]: False for n in ("G5", "G6", "G7")}
        ev = eval_graph(g, env, ffv)
        g0, g1, g2, g3 = bits
        g5 = g6 = g7 = False
        g14 = not g0
        g8 = g14 and g6
        g12 = not (g1 or g7)
        g11_inner = None  # G11 depends on G9 which depends on G15/G16
        g16 = g3 or g8
        g13 = not (g2 and g12)
        g15 = g12 or g8
        g9 = not (g16 and g15)
        g11 = not (g5 or g9)
        g17 = not g11
        g10 = not (g14 or g11)
        assert ev(nm["G17"]) == g17
        assert ev(nm["G10"]) == g10
        assert ev(nm["G13"]) == g13
