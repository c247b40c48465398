import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqcircuit import tensor as tz
from tests.conftest import (attn_reference, numeric_gradients, relative_errors,
                            tensor_sum)


@pytest.fixture(autouse=True)
def float64_mode():
    # Op-level gradient oracles want clean numerics; float32 behavior is
    # covered by the dedicated tests below and the acceptance suite.
    with tz.precision("float64"):
        yield


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestForwardOps:
    def test_matmul_identity(self):
        x = tz.constant(rand((4, 3), 1))
        eye = tz.constant(np.eye(4))
        out = tz.matmul(eye, x)
        assert np.allclose(out.data, x.data)

    def test_softmax_single_element(self):
        one = np.array([0])
        assert tz._segment_softmax(np.array([2.7]), one, one).tolist() == [1.0]

    def test_softmax_cols_rows_sum_to_one(self):
        starts = np.array([0, 3, 4, 9])
        out = tz._segment_softmax(rand(15, 2), starts, tz.segment_owner(starts, 15))
        assert np.allclose(np.add.reduceat(out, starts), 1.0)

    def test_nonfinite_trips(self):
        with pytest.raises(tz.NumericsError):
            tz.log(tz.constant([[0.0, 1.0]]))
        with pytest.raises(tz.NumericsError), np.errstate(over="ignore"):
            # overflow in float32 surfaces as a non-finite product
            with tz.precision("float32"):
                t = tz.constant(np.full((1, 2), 1e30))
                tz.mul(t, t)

    def test_nonfinite_error_names_op(self):
        big = np.full((2, 2), 1e30)
        with tz.precision("float32"), np.errstate(over="ignore"):
            with pytest.raises(tz.NumericsError, match=r"in matmul$"):
                tz.matmul(tz.constant(big), tz.constant(big))

    def test_shape_mismatch(self):
        with pytest.raises(tz.ShapeError):
            tz.matmul(tz.constant(rand((2, 3))), tz.constant(rand((2, 3))))
        with pytest.raises(tz.ShapeError):
            tz.add(tz.constant(rand((2, 3))), tz.constant(rand((3, 2))))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_bounded_inputs_stay_finite(self, seed):
        rng = np.random.default_rng(seed)
        x = tz.constant(rng.uniform(-10, 10, size=(3, 4)))
        y = tz.constant(rng.uniform(-10, 10, size=(3, 4)))
        for op in (tz.add, tz.sub, tz.mul):
            assert np.isfinite(op(x, y).data).all()
        for op in (tz.sigmoid, tz.relu, tz.absolute):
            assert np.isfinite(op(x).data).all()
        starts = np.array([0, 4, 8])
        assert np.isfinite(tz._segment_softmax(
            x.data.ravel(), starts, tz.segment_owner(starts, 12))).all()

    def test_sigmoid_matches_masked_form_without_overflow(self):
        def masked(x):
            y = np.empty_like(x)
            pos = x >= 0
            y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            y[~pos] = ex / (1.0 + ex)
            return y

        for dtype, tol in ((np.float32, 1.2e-7), (np.float64, 2.2e-16)):
            x = np.concatenate([np.linspace(-1e4, 1e4, 2001),
                                np.linspace(-40, 40, 2001)]).astype(dtype)
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                y = tz._sigmoid(x)
            assert y.dtype == dtype
            ref = masked(x)
            assert (np.abs(y - ref) <= tol * ref).all()


class TestGradients:
    def _check(self, build, store, h=1e-6, tol=1e-8):
        loss = build()
        loss.backward()
        fd = numeric_gradients(build, store, h=h)
        for name in store.names():
            ad = store[name].grad
            assert ad is not None, name
            worst = relative_errors(ad, fd[name]).max()
            assert worst < tol, f"{name}: {worst}"
        store.zero_grads()

    def test_random_op_graph(self):
        store = tz.ParamStore()
        a = store.create("a", rand((5, 4), 3))
        b = store.create("b", rand((4, 4), 4))
        c = store.create("c", rand((1, 4), 5))

        def build():
            h = tz.relu(tz.add(tz.matmul(a, b), c))
            h = tz.mul(tz.sigmoid(h), tz.sigmoid(h))
            return tz.mean_all(h)
        self._check(build, store)

    def test_softmax_and_concat(self):
        # One set of six predecessors, the rows of m, mixed by attention.
        store = tz.ParamStore()
        cell = make_cell(store, "c", 3, 3, 7)
        m = store.create("m", rand((6, 3), 8))
        h = tz.constant(rand((1, 3), 9))

        def build():
            mixed = tz.space_update(tz.take_rows(m, range(6)), h, [0], None, [cell])
            stacked = tz.concat_cols([mixed, tz.scale(mixed, -0.5)])
            return tensor_sum(tz.absolute(stacked))
        self._check(build, store)

    def test_rows_ops(self):
        store = tz.ParamStore()
        m = store.create("m", rand((6, 3), 9))
        r = store.create("r", rand((2, 3), 10))

        def build():
            picked = tz.take_rows(m, [1, 4, 1])
            table = tz.RowTable(rand((6, 3), 11))
            table.scatter([0, 5], tz.add(r, tz.take_rows(m, [2, 2])))
            merged = table.current
            return tz.add(tz.mean_all(picked), tz.mean_all(tz.mul(merged, merged)))
        self._check(build, store)

    def test_div_sqrt_log(self):
        store = tz.ParamStore()
        a = store.create("a", np.abs(rand((3, 3), 11)) + 0.5)
        b = store.create("b", np.abs(rand((3, 3), 12)) + 0.5)

        def build():
            return tz.mean_all(tz.log(tz.div(tz.sqrt(a), b)))
        self._check(build, store)

    def test_softmax_cols_gradient(self):
        # Row-wise softmax over three predecessors that share one source:
        # segment i holds rows i, 3 - i and 2 * row i of s.
        store = tz.ParamStore()
        s = store.create("s", rand((4, 3), 13))
        cell = make_cell(store, "c", 3, 3, 15)
        h = tz.constant(rand((4, 3), 16))
        idx = [j for i in range(4) for j in (i, 3 - i, i)]
        factor = tz.constant(np.tile([[1.0], [1.0], [2.0]], (4, 1)))

        def build():
            preds = tz.mul(tz.take_rows(s, idx), factor)
            out = tz.space_update(preds, h, [0, 3, 6, 9], None, [cell])
            return tz.mean_all(tz.mul(out, s))
        self._check(build, store)

    def test_backward_linearity(self):
        store = tz.ParamStore()
        a = store.create("a", rand((2, 2), 14))

        def term1():
            return tz.mean_all(tz.mul(a, a))

        def term2():
            return tensor_sum(tz.sigmoid(a))

        loss = tz.add(term1(), term2())
        loss.backward()
        combined = store["a"].grad.copy()
        store.zero_grads()
        term1().backward()
        g1 = store["a"].grad.copy()
        store.zero_grads()
        term2().backward()
        g2 = store["a"].grad.copy()
        assert np.allclose(combined, g1 + g2, atol=1e-12)


class TestRowTable:
    def _fd_check(self, build, store, tol=1e-8):
        build().backward()
        fd = numeric_gradients(build, store, h=1e-6)
        for name in store.names():
            assert store[name].grad is not None, name
            worst = relative_errors(store[name].grad, fd[name]).max()
            assert worst < tol, f"{name}: {worst}"

    def test_gather_scatter_sequence_gradcheck(self):
        store = tz.ParamStore()
        r = store.create("r", rand((2, 3), 20))
        w = store.create("w", rand((3, 3), 21))
        init = rand((5, 3), 22)
        c = tz.constant(rand((4, 3), 23))

        def build():
            t = tz.RowTable(init)
            t.scatter([1, 3], tz.sigmoid(tz.matmul(r, w)))
            # Row 1 is read (twice in one group) before it is overwritten.
            before = tz.take_rows(t.current, [1, 1, 3, 0])
            t.scatter([1, 4], tz.sigmoid(tz.take_rows(before, [2, 0])))
            # Row 3 read here is not an ancestor of the scatter that writes
            # it next, so only creation order puts its backward after it.
            side = tz.take_rows(t.current, [3, 4])
            t.scatter([3], tz.matmul(tz.take_rows(t.current, [1]), w))
            after = tz.take_rows(t.current, [1, 3, 3, 4])
            loss = tz.add(tensor_sum(tz.mul(before, c)),
                          tensor_sum(tz.mul(after, tz.scale(c, -0.7))))
            loss = tz.add(loss, tensor_sum(tz.mul(side, side)))
            return tz.add(loss, tz.mean_all(tz.mul(t.current, t.current)))
        self._fd_check(build, store)

    def test_column_block_reads_gradcheck(self):
        # Column blocks of a table version and of a plain tensor, repeated
        # rows included, beside a whole-row read.
        store = tz.ParamStore()
        m = store.create("m", rand((4, 6), 30))
        r = store.create("r", rand((2, 6), 31))
        c = tz.constant(rand((3, 2), 32))

        def build():
            t = tz.RowTable(rand((5, 6), 33))
            t.scatter([1, 3], tz.sigmoid(r))
            blocks = [tz.take_rows(t.current, [3, 1, 3], slice(lo, lo + 2))
                      for lo in (0, 2, 4)]
            blocks.append(tz.take_rows(m, [0, 2, 2], slice(2, 4)))
            loss = tensor_sum(tz.mul(tz.take_rows(t.current, [1, 4]),
                                     tz.take_rows(m, [3, 0])))
            for k, block in enumerate(blocks):
                loss = tz.add(loss, tensor_sum(tz.mul(tz.scale(block, k + 1.0), c)))
            return loss
        self._fd_check(build, store)
        assert np.array_equal(tz.take_rows(tz.constant(rand((4, 6), 34)), [2],
                                           slice(4, 6)).data, rand((4, 6), 34)[[2], 4:])

    def test_scatter_in_place_over_a_private_copy(self):
        init = rand((4, 2), 24)
        kept = init.copy()
        t = tz.RowTable(init)
        first = t.current
        second = t.scatter([2], tz.constant(np.ones((1, 2))))
        assert np.array_equal(init, kept)
        assert second.data is first.data is t.data
        assert np.array_equal(t.data[2], [1.0, 1.0])
        assert second.parents == ()  # constant rows record no tape

    def test_no_grad_scatter_records_nothing(self):
        store = tz.ParamStore()
        r = store.create("r", rand((1, 2), 25))
        t = tz.RowTable(rand((3, 2), 26))
        with tz.no_grad():
            out = t.scatter([0], r)
        assert not out.requires and out.parents == ()
        assert np.array_equal(t.data[0], r.data[0])

    def test_scatter_shape_mismatch(self):
        t = tz.RowTable(rand((3, 2), 27))
        with pytest.raises(tz.ShapeError):
            t.scatter([0, 1], tz.constant(rand((1, 2), 28)))

    def test_backward_consumes_op_nodes_keeps_leaves(self):
        store = tz.ParamStore()
        a = store.create("a", rand((2, 2), 29))
        hidden = tz.sigmoid(a)
        loss = tensor_sum(hidden)
        loss.backward()
        assert a.grad is not None
        assert hidden.grad is None and hidden.parents == ()


class TestMlp3:
    def test_zero_params_sigmoid_half(self):
        store = tz.ParamStore()
        rng = np.random.default_rng(0)
        tz.init_mlp3(store, "m", 4, 4, 1, rng)
        for name in list(store.params):
            store.params[name].data = np.zeros_like(store.params[name].data)
        out = tz.mlp3(tz.constant(rand((3, 4))), store, "m")
        assert np.allclose(out.data, 0.5)

    def test_hand_computed_chain(self):
        # 1-dim identity-like weights: layer k computes relu(x + k), and the
        # head takes the sigmoid of the last layer.
        store = tz.ParamStore()
        for k in (1, 2, 3):
            store.create(f"m.w{k}", [[1.0]])
            store.create(f"m.b{k}", [[float(k)]])
        out = tz.mlp3(tz.constant([[0.25]]), store, "m")
        assert out.data[0, 0] == pytest.approx(1.0 / (1.0 + np.exp(-6.25)))
        out_neg = tz.mlp3(tz.constant([[-10.0]]), store, "m")
        # relu(-10 + 1) = 0, then relu(0 + 2) = 2, then 2 + 3
        assert out_neg.data[0, 0] == pytest.approx(1.0 / (1.0 + np.exp(-5.0)))

    def test_gradcheck(self):
        store = tz.ParamStore()
        tz.init_mlp3(store, "m", 3, 5, 2, np.random.default_rng(3))
        x = tz.constant(rand((4, 3), 5))
        y = tz.constant(np.random.default_rng(6).random((4, 2)))

        def build():
            return tz.mean_all(tz.absolute(tz.sub(tz.mlp3(x, store, "m"), y)))
        loss = build()
        loss.backward()
        fd = numeric_gradients(build, store)
        for name in store.names():
            assert relative_errors(store[name].grad, fd[name]).max() < 1e-8


def make_cell(store, prefix, width, d, seed):
    """One space's (w2, wx, wh, b): attention over ``width`` columns and a
    GRU of state size ``d``."""
    rng = np.random.default_rng(seed)
    tz.init_attention(store, f"{prefix}.attn", width, rng)
    tz.init_gru(store, f"{prefix}.gru", width, d, rng)
    return tuple(store[f"{prefix}.{k}"] for k in ("attn.w2", "gru.wx", "gru.wh", "gru.b"))


def make_cells(store, d, seed, pinned=False):
    """Cells of a three-space group (AND/NOT), or with its first space
    pinned (FF): space s attends over (s + 1) d columns."""
    return [None if pinned and s == 0 else
            make_cell(store, f"s{s}", (s + 1) * d, d, seed + s) for s in range(3)]


def readout_cell(w2, d):
    """A one-space cell whose output is exactly tanh of the attention sum
    when the state is zero: z = 0 (to 2e-22), r = 1, no recurrence, and the
    candidate's input weights are the identity."""
    wx = np.zeros((d, 3 * d))
    wx[:, 2 * d:] = np.eye(d)
    b = np.concatenate([np.full(d, -50.0), np.full(d, 50.0), np.zeros(d)])
    return (tz.constant(w2), tz.constant(wx), tz.constant(np.zeros((d, 3 * d))),
            tz.constant(b.reshape(1, -1)))


def attend(preds, starts, w2):
    """tanh of the op's attention sums, read through ``readout_cell``."""
    d = preds.shape[1]
    h = tz.constant(np.zeros((len(starts), d)))
    return tz.space_update(tz.constant(preds), h, starts, None,
                           [readout_cell(w2, d)])


class TestGru:
    """The GRU half of ``space_update``: one space, one predecessor per
    node, so that the GRU input is that predecessor's row."""

    def test_update_gate_one_passes_state_through(self):
        store = tz.ParamStore()
        cell = make_cell(store, "g", 4, 4, 1)
        store.params["g.gru.b"].data = np.concatenate(
            [np.full((1, 4), 50.0), np.zeros((1, 8))], axis=1)
        h = tz.constant(rand((1, 4), 2))
        out = tz.space_update(tz.constant(rand((1, 4), 3)), h, [0], None, [cell])
        assert np.allclose(out.data, h.data, atol=1e-6)

    def test_no_reset_no_recurrence_is_tanh_of_input(self):
        store = tz.ParamStore()
        cell = make_cell(store, "g", 4, 4, 4)
        b = np.zeros((1, 12))
        b[0, :4] = -50.0   # z = 0
        b[0, 4:8] = 50.0   # r = 1
        store.params["g.gru.b"].data = b
        store.params["g.gru.wh"].data = np.zeros((4, 12))
        x = rand((1, 4), 5)
        wx = store.params["g.gru.wx"].data
        out = tz.space_update(tz.constant(x), tz.constant(rand((1, 4), 6)),
                              [0], None, [cell])
        assert np.allclose(out.data, np.tanh(x @ wx[:, 8:]), atol=1e-6)

    def test_gradcheck(self):
        # Every space's w2, wx, wh and b, in a three-space group and in one
        # whose structure space is pinned.
        for pinned in (False, True):
            store = tz.ParamStore()
            cells = make_cells(store, 2, 7, pinned)
            preds = tz.constant(rand((5, 6), 8))
            h = tz.constant(rand((2, 6), 9))

            def build():
                return tz.mean_all(tz.space_update(preds, h, [0, 3], None, cells))
            build().backward()
            fd = numeric_gradients(build, store)
            assert len(store.names()) == (8 if pinned else 12)
            for name in store.names():
                assert relative_errors(store[name].grad, fd[name]).max() < 1e-8

    def test_gradcheck_inputs(self):
        # Gradients with respect to the neighbour rows and the own rows; a
        # pinned space passes its gradient through.
        for pinned in (False, True):
            store = tz.ParamStore()
            cells = make_cells(store, 2, 10, pinned)
            x = store.create("x", rand((5, 6), 11))
            h = store.create("h", rand((2, 6), 12))
            c = tz.constant(rand((2, 6), 13))

            def build():
                return tensor_sum(tz.mul(tz.space_update(x, h, [0, 2], None, cells), c))
            build().backward()
            fd = numeric_gradients(build, store, names=["x", "h"])
            for name in ("x", "h"):
                assert relative_errors(store[name].grad, fd[name]).max() < 1e-8
            if pinned:
                assert np.array_equal(h.grad[:, :2], c.data[:, :2])

    def test_pinned_space_keeps_its_columns(self):
        store = tz.ParamStore()
        cells = make_cells(store, 3, 20, pinned=True)
        h = tz.constant(rand((2, 9), 21))
        out = tz.space_update(tz.constant(rand((4, 9), 22)), h, [0, 1], None, cells)
        assert np.array_equal(out.data[:, :3], h.data[:, :3])
        assert not np.array_equal(out.data[:, 3:], h.data[:, 3:])

    def test_one_tape_node(self):
        store = tz.ParamStore()
        cells = make_cells(store, 2, 14)
        x = store.create("x", rand((2, 6), 15))
        h = store.create("h", rand((2, 6), 16))
        out = tz.space_update(x, h, [0, 1], None, cells)
        assert out.parents == (x, h) + cells[0] + cells[1] + cells[2]

    def test_overflowing_preactivation_trips(self):
        # Saturated gates would hide an infinite preactivation in the output.
        with tz.precision("float32"), np.errstate(over="ignore"):
            store = tz.ParamStore()
            cell = make_cell(store, "g", 3, 3, 18)
            store.params["g.gru.wx"].data = np.full((3, 9), 1e10, dtype=np.float32)
            x = tz.constant(np.full((1, 3), 1e30))
            with pytest.raises(tz.NumericsError,
                               match=r"^non-finite intermediate value in space_update$"):
                tz.space_update(x, tz.constant(rand((1, 3), 19)), [0], None, [cell])
            # An overflowing attention score trips too.
            store.params["g.attn.w2"].data = np.full((3, 1), 1e10, dtype=np.float32)
            with pytest.raises(tz.NumericsError, match=r"in space_update$"):
                tz.space_update(x, tz.constant(rand((1, 3), 19)), [0], None, [cell])

    def test_shape_mismatch(self):
        store = tz.ParamStore()
        cells = make_cells(store, 2, 17)
        with pytest.raises(tz.ShapeError, match="space_update"):
            tz.space_update(tz.constant(rand((2, 6))), tz.constant(rand((3, 6))),
                            [0, 1], None, cells)
        with pytest.raises(tz.ShapeError):  # state width is not 3 d
            tz.space_update(tz.constant(rand((2, 6))), tz.constant(rand((2, 4))),
                            [0, 1], None, cells)
        with pytest.raises(tz.ShapeError):  # cells of another width
            tz.space_update(tz.constant(rand((2, 9))), tz.constant(rand((2, 9))),
                            [0, 1], None, cells)


def csr(sizes):
    """Segment starts of consecutive segments with the given sizes."""
    return np.cumsum([0] + list(sizes[:-1]))


RAGGED = [3, 1, 9, 2, 7, 1, 4, 5, 8, 6]


class TestAttention:
    """The attention half of ``space_update``, read through a GRU whose
    output is tanh of its input (``readout_cell``), and its gradients."""

    def test_zero_weights_uniform(self):
        preds = rand((2, 4), 2)
        out = attend(preds, [0], np.zeros((4, 1)))
        assert np.allclose(out.data, np.tanh(preds.mean(axis=0, keepdims=True)))

    def test_single_predecessor_identity(self):
        pred = rand((1, 4), 4)
        out = attend(pred, [0], rand((4, 1), 6))
        assert np.array_equal(out.data, np.tanh(pred))

    def test_grouped_matches_set_version(self):
        # Five sets of three; the reference adds a query term the op lacks.
        rng = np.random.default_rng(7)
        w1 = rng.standard_normal((4, 1))
        w2 = rng.standard_normal((3, 1))
        q_rows = rng.standard_normal((5, 4))
        ps = rng.standard_normal((15, 3))
        grouped = attend(ps, csr([3] * 5), w2)
        for r in range(5):
            single = attn_reference(q_rows[r], ps[3 * r:3 * r + 3], w1, w2)
            assert np.allclose(grouped.data[r], np.tanh(single), atol=1e-12)

    def test_query_term_cancels_on_ragged_sets(self):
        rng = np.random.default_rng(11)
        preds = rng.standard_normal((sum(RAGGED), 5))
        w2 = rng.standard_normal((5, 1))
        starts = csr(RAGGED)
        out = attend(preds, starts, w2)
        for r, (lo, k) in enumerate(zip(starts, RAGGED)):
            query, w1 = rng.standard_normal(7) * 10, rng.standard_normal((7, 1))
            ref = attn_reference(query, preds[lo:lo + k], w1, w2)
            assert np.abs(out.data[r] - np.tanh(ref)).max() < 1e-12

    def test_grouped_single_pred_exact(self):
        rng = np.random.default_rng(8)
        p0 = rng.standard_normal((6, 3))
        out = attend(p0, np.arange(6), rng.standard_normal((3, 1)))
        assert np.array_equal(out.data, np.tanh(p0))

    def test_empty_predecessors_rejected(self):
        w2 = rand((4, 1))
        for rows, starts in ((1, []), (2, [0, 1, 1]), (2, [0, 2]), (0, [0])):
            with pytest.raises(tz.ShapeError):
                attend(rand((rows, 4)), starts, w2)

    def test_gradcheck_three_predecessors(self):
        store = tz.ParamStore()
        cell = make_cell(store, "c", 4, 4, 10)
        m = store.create("m", rand((3, 4), 11))
        h = tz.constant(rand((1, 4), 12))

        def build():
            preds = tz.take_rows(m, [0, 1, 2])
            return tz.mean_all(tz.space_update(preds, h, [0], None, [cell]))
        build().backward()
        fd = numeric_gradients(build, store)
        for name in store.names():
            assert relative_errors(store[name].grad, fd[name]).max() < 1e-8

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_grouped_gradcheck(self, k):
        # Segments of k in a three-space group: the neighbour rows, the own
        # rows and every cell parameter.
        store = tz.ParamStore()
        cells = make_cells(store, 2, 30)
        preds = store.create("p", rand((4 * k, 6), 21 + k))
        h = store.create("h", rand((4, 6), 31))
        c = tz.constant(rand((4, 6), 32))

        def build():
            out = tz.space_update(preds, h, csr([k] * 4), None, cells)
            return tensor_sum(tz.mul(out, c))
        build().backward()
        fd = numeric_gradients(build, store)
        for name in store.names():
            assert relative_errors(store[name].grad, fd[name]).max() < 1e-8, name

    def test_ragged_gradcheck(self):
        # Sets of sizes 1 to 9, with the structure space pinned; every pred
        # row, own row and cell parameter against central differences.
        store = tz.ParamStore()
        cells = make_cells(store, 2, 50, pinned=True)
        preds = store.create("p", rand((sum(RAGGED), 6), 50))
        h = store.create("h", rand((len(RAGGED), 6), 51))
        c = tz.constant(rand((len(RAGGED), 6), 52))

        def build():
            out = tz.space_update(preds, h, csr(RAGGED), None, cells)
            return tensor_sum(tz.mul(out, c))
        build().backward()
        fd = numeric_gradients(build, store, h=1e-6)
        for name in store.names():
            assert relative_errors(store[name].grad, fd[name]).max() < 1e-8, name

    def test_repeated_row_gradients_add(self):
        # Row 1 of m is a neighbour of both segments; its gradient is the
        # sum of both uses, gathered by take_rows.
        store = tz.ParamStore()
        cell = make_cell(store, "c", 4, 4, 61)
        m = store.create("m", rand((3, 4), 60))
        h = tz.constant(rand((2, 4), 63))
        c = tz.constant(rand((2, 4), 62))

        def build():
            preds = tz.take_rows(m, [0, 1, 1, 2])
            out = tz.space_update(preds, h, [0, 2], None, [cell])
            return tensor_sum(tz.mul(out, c))
        build().backward()
        fd = numeric_gradients(build, store, h=1e-6)
        assert np.abs(store["m"].grad[1]).max() > 0
        for name in store.names():
            assert relative_errors(store[name].grad, fd[name]).max() < 1e-8, name

    def test_grouped_one_tape_node(self):
        store = tz.ParamStore()
        cells = make_cells(store, 1, 44)
        preds = store.create("p", rand((6, 3), 41))
        h = store.create("h", rand((3, 3), 42))
        out = tz.space_update(preds, h, [0, 2, 5], None, cells)
        assert out.parents == (preds, h) + cells[0] + cells[1] + cells[2]
        assert out.shape == (3, 3)

    def test_grouped_shape_mismatch(self):
        with pytest.raises(tz.ShapeError):
            attend(rand((3, 4)), [0], rand((3, 1)))

    def test_unordered_starts_rejected(self):
        w2 = rand((4, 1))
        for starts in ([0, 3, 1], [1, 2], [0, 2, 2]):
            with pytest.raises(tz.ShapeError):
                attend(rand((4, 4)), starts, w2)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        store = tz.ParamStore()
        a = store.create("a", rand((2, 2), 1))
        before = a.data.copy()
        tz.adam_step(store, lr=0.1)
        assert np.array_equal(a.data, before)

    def test_first_step_hand_formula(self):
        # Constant gradient 1: bias correction cancels, so the step is
        # lr * 1 / (1 + eps).
        store = tz.ParamStore()
        a = store.create("a", [[1.0]])
        a.grad = np.array([[1.0]])
        tz.adam_step(store, lr=0.01, eps=1e-8)
        assert a.data[0, 0] == pytest.approx(1.0 - 0.01 / (1 + 1e-8), abs=1e-12)

    def test_deterministic_runs(self):
        def run():
            store = tz.ParamStore()
            a = store.create("a", rand((3, 3), 5))
            for step in range(10):
                loss = tz.mean_all(tz.mul(a, a))
                loss.backward()
                tz.adam_step(store, lr=0.05)
            return a.data.copy()
        assert np.array_equal(run(), run())

    def test_grads_cleared(self):
        store = tz.ParamStore()
        a = store.create("a", [[2.0]])
        a.grad = np.array([[3.0]])
        tz.adam_step(store, lr=0.1)
        assert a.grad is None


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        with tz.precision("float32"):
            store = tz.ParamStore()
            rng = np.random.default_rng(3)
            tz.init_mlp3(store, "head", 6, 6, 2, rng)
            tz.init_gru(store, "cell", 4, 6, rng)
            path = os.path.join(tmp_path, "w.bin")
            tz.save_checkpoint(path, store, extra={"dim": 6})
            loaded, extra = tz.load_checkpoint(path)
            assert extra == {"dim": 6}
            assert loaded.names() == store.names()
            for name in store.names():
                assert np.array_equal(loaded[name].data, store[name].data)

    def test_bad_magic(self, tmp_path):
        path = os.path.join(tmp_path, "x.bin")
        with open(path, "wb") as f:
            f.write(b"JUNKJUNKJUNK")
        with pytest.raises(ValueError):
            tz.load_checkpoint(path)

    @pytest.mark.parametrize("old, new", [(b'{"format', b'x"format'),
                                          (b'"shape"', b'"shapf"')])
    def test_unreadable_index_names_file(self, tmp_path, old, new):
        path = os.path.join(tmp_path, "w.bin")
        store = tz.ParamStore()
        tz.init_gru(store, "cell", 4, 6, np.random.default_rng(3))
        tz.save_checkpoint(path, store, extra={"dim": 6})
        with open(path, "rb") as f:
            data = f.read()
        with open(path, "wb") as f:
            f.write(data.replace(old, new, 1))
        with pytest.raises(ValueError, match=f"^checkpoint {path} has an "
                                             "unreadable index"):
            tz.load_checkpoint(path)

    def test_float32_mode_op_gradients(self):
        # Spec-level float32 check at h = 1e-3 on a small op graph.
        with tz.precision("float32"):
            store = tz.ParamStore()
            a = store.create("a", rand((5, 4), 3))
            b = store.create("b", rand((4, 2), 4))

            def build():
                return tz.mean_all(tz.sigmoid(tz.matmul(a, b)))
            build().backward()
            fd = numeric_gradients(build, store, h=1e-3)
            for name in store.names():
                worst = relative_errors(store[name].grad.astype(np.float64),
                                        fd[name].astype(np.float64)).max()
                assert worst < 1e-3
