"""Minimal dense reverse-mode autodiff core.

Eager 2-D float tensors with a taped backward pass: enough machinery for
MLPs, a fused attention-and-GRU update of a node group's embedding spaces,
in-place row tables for message passing, and an Adam optimizer.  Training
runs in float32; a float64 mode exists for tight gradient verification.
"""
from __future__ import annotations

import itertools
import json
import struct
import sys
from contextlib import contextmanager

import numpy as np

CHECKPOINT_MAGIC = b"SQCK"
CHECKPOINT_VERSION = 1

_dtype = np.float32


class NumericsError(ArithmeticError):
    """A forward op produced NaN/Inf or was fed an invalid domain."""


class ShapeError(ValueError):
    pass


_grad_enabled = True
_creation = itertools.count()


@contextmanager
def no_grad():
    """Skip tape construction (forward-only evaluation)."""
    global _grad_enabled
    old = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = old


def set_dtype(name: str):
    global _dtype
    if name not in ("float32", "float64"):
        raise ValueError(name)
    _dtype = np.dtype(name).type


def active_dtype():
    return _dtype


@contextmanager
def precision(name: str):
    """Temporarily switch the scalar type (used by 64-bit gradient checks)."""
    old = "float64" if _dtype == np.float64 else "float32"
    set_dtype(name)
    try:
        yield
    finally:
        set_dtype(old)


class Tensor:
    """A (rows, cols) array plus the tape hooks for reverse-mode gradients.

    ``seq`` numbers tensors in creation order; the backward pass runs in
    reverse of it.
    """

    __slots__ = ("data", "grad", "parents", "backward_fn", "requires", "seq")

    def __init__(self, data, parents=(), backward_fn=None, requires=False):
        arr = np.asarray(data, dtype=_dtype)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise NumericsError("non-finite tensor value")
        self.data = arr
        self.grad = None
        self.parents = parents
        self.backward_fn = backward_fn
        self.requires = requires or any(p.requires for p in parents)
        self.seq = next(_creation)

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError("item() wants a scalar tensor")
        return float(self.data[0, 0])

    def accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=_dtype)
        else:
            self.grad = self.grad + g

    def accumulate_rows(self, idx, g, cols: slice = slice(None)):
        """Add ``g`` into gradient rows ``idx`` (their ``cols``); repeats add up."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        np.add.at(self.grad[:, cols], idx, g)

    def backward(self):
        """Seed a scalar output with gradient 1 and sweep the tape.

        Nodes run in reverse creation order.  Any topological order would do
        for pure ops, but a ``RowTable`` needs this one: a read of a table
        must run its backward after every later write, ancestor or not.
        The sweep consumes the tape: each op node drops its gradient, its
        parents and its backward function once it has run, so memory falls
        as the sweep goes.  Leaves (parameters) keep their gradients.
        """
        if self.data.shape != (1, 1):
            raise ShapeError("backward() starts from a scalar loss")
        nodes = [self]
        seen = {id(self)}
        for node in nodes:
            for p in node.parents:
                if p.requires and id(p) not in seen:
                    seen.add(id(p))
                    nodes.append(p)
        nodes.sort(key=lambda t: t.seq, reverse=True)
        self.accumulate(np.ones((1, 1), dtype=_dtype))
        for i, node in enumerate(nodes):
            nodes[i] = None
            if node.backward_fn is None:
                continue
            if node.grad is not None:
                node.backward_fn(node.grad)
            node.grad, node.parents, node.backward_fn = None, (), None


def constant(data) -> Tensor:
    return Tensor(data)


def _out(data, parents, backward_fn):
    needs = _grad_enabled and any(p.requires for p in parents)
    try:
        return Tensor(data, parents=parents if needs else (),
                      backward_fn=backward_fn if needs else None,
                      requires=needs)
    except NumericsError:
        # Only a failure looks up the op: the function that called _out.
        op = sys._getframe(1).f_code.co_name
        raise NumericsError(f"non-finite tensor value in {op}") from None


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def bwd(g):
        a.accumulate(g @ b.data.T)
        b.accumulate(a.data.T @ g)
    return _out(out_data, (a, b), bwd)


def _binary_shapes(a, b):
    if a.shape == b.shape:
        return
    if b.shape == (1, 1) or (b.shape[0] == 1 and b.shape[1] == a.shape[1]):
        return
    if b.shape[1] == 1 and b.shape[0] == a.shape[0]:
        return
    if a.shape[1] == 1 and a.shape[0] == b.shape[0]:
        return
    raise ShapeError(f"incompatible shapes {a.shape} and {b.shape}")


def _reduce_to(g, shape):
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and out.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b)

    def bwd(g):
        a.accumulate(_reduce_to(g, a.shape))
        b.accumulate(_reduce_to(g, b.shape))
    return _out(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b)

    def bwd(g):
        a.accumulate(_reduce_to(g, a.shape))
        b.accumulate(-_reduce_to(g, b.shape))
    return _out(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b)

    def bwd(g):
        a.accumulate(_reduce_to(g * b.data, a.shape))
        b.accumulate(_reduce_to(g * a.data, b.shape))
    return _out(a.data * b.data, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b)
    if np.any(np.abs(b.data) < 1e-30):
        raise NumericsError("division by (near) zero")

    def bwd(g):
        a.accumulate(_reduce_to(g / b.data, a.shape))
        b.accumulate(_reduce_to(-g * a.data / (b.data ** 2), b.shape))
    return _out(a.data / b.data, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = _dtype(c)

    def bwd(g):
        a.accumulate(g * c)
    return _out(a.data * c, (a,), bwd)


def add_const(a: Tensor, c: float) -> Tensor:
    def bwd(g):
        a.accumulate(g)
    return _out(a.data + _dtype(c), (a,), bwd)


def _require_finite(op: str, *arrays):
    """Finiteness of a fused op's intermediates (its output is checked by Tensor)."""
    for arr in arrays:
        if not np.isfinite(arr).all():
            raise NumericsError(f"non-finite intermediate value in {op}")


def _sigmoid(x):
    """Logistic function without overflow: exp only ever sees non-positive values."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _segment_softmax(scores, starts, owner):
    """Softmax of 1-D ``scores`` within each segment; ``owner`` maps row to segment."""
    e = np.exp(scores - np.maximum.reduceat(scores, starts)[owner])
    return e / np.add.reduceat(e, starts)[owner]


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)

    def bwd(g):
        a.accumulate(g * y * (1.0 - y))
    return _out(y, (a,), bwd)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def bwd(g):
        a.accumulate(g * (1.0 - y * y))
    return _out(y, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def bwd(g):
        a.accumulate(g * mask)
    return _out(a.data * mask, (a,), bwd)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise NumericsError("log of non-positive value")

    def bwd(g):
        a.accumulate(g / a.data)
    return _out(np.log(a.data), (a,), bwd)


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0):
        raise NumericsError("sqrt of negative value")
    y = np.sqrt(a.data)

    def bwd(g):
        a.accumulate(g * 0.5 / np.maximum(y, _dtype(1e-20)))
    return _out(y, (a,), bwd)


def absolute(a: Tensor) -> Tensor:
    s = np.sign(a.data)

    def bwd(g):
        a.accumulate(g * s)
    return _out(np.abs(a.data), (a,), bwd)


def concat_cols(parts) -> Tensor:
    parts = list(parts)
    rows = parts[0].shape[0]
    if any(p.shape[0] != rows for p in parts):
        raise ShapeError("concat_cols row mismatch")
    splits = np.cumsum([p.shape[1] for p in parts])[:-1]

    def bwd(g):
        for p, piece in zip(parts, np.split(g, splits, axis=1)):
            p.accumulate(piece)
    return _out(np.concatenate([p.data for p in parts], axis=1), tuple(parts), bwd)


def take_rows(a: Tensor, idx, cols: slice = slice(None)) -> Tensor:
    """Rows ``idx`` of ``a``, or only their ``cols`` columns."""
    idx = np.asarray(idx, dtype=np.int64)

    def bwd(g):
        a.accumulate_rows(idx, g, cols)
    return _out(a.data[idx, cols], (a,), bwd)


class RowTable:
    """An (n, d) matrix that row-group updates overwrite in place.

    ``current`` is a tensor over the whole buffer.  ``scatter`` writes rows
    into the buffer and makes a new current version that shares it, so a
    sweep costs no n x d copy per update.  Read rows with
    ``take_rows(table.current, idx)``: an older version sees later writes.
    The buffer is a private copy of the initial data.

    All versions share one gradient buffer, through a holder that does not
    point back at the table, so a dropped table is freed without the cyclic
    garbage collector.  Since ``Tensor.backward`` runs in reverse creation
    order, when a scatter's backward runs the buffer holds the gradient of
    the table as that scatter left it; the scatter hands the rows it wrote
    to its ``rows`` input and zeroes them, and the reads made before it then
    add theirs.  Rows of one scatter must be distinct.
    """

    def __init__(self, data):
        self.data = np.array(data, dtype=_dtype)
        self._grad = _GradBuffer()
        self.current = _TableVersion(self.data, self._grad, (), None)

    def scatter(self, idx, rows: Tensor) -> Tensor:
        idx = np.asarray(idx, dtype=np.int64)
        if rows.shape != (len(idx), self.data.shape[1]):
            raise ShapeError(f"scatter of {rows.shape} into rows {len(idx)} "
                             f"of {self.data.shape}")
        self.data[idx] = rows.data
        prev = self.current

        def bwd(buf):
            rows.accumulate(buf[idx])
            buf[idx] = 0
            prev.grad = buf
        needs = _grad_enabled and (prev.requires or rows.requires)
        self.current = _TableVersion(self.data, self._grad,
                                     (prev, rows) if needs else (),
                                     bwd if needs else None)
        return self.current


class _GradBuffer:
    """The gradient buffer that the versions of one ``RowTable`` share;
    made on the first accumulation."""

    __slots__ = ("buf",)

    def __init__(self):
        self.buf = None


class _TableVersion(Tensor):
    """One version of a ``RowTable``; its gradient is the table's buffer."""

    __slots__ = ("shared",)

    def __init__(self, data, shared: _GradBuffer, parents, backward_fn):
        # Written rows were checked when their tensor was made, so the
        # buffer needs no finiteness scan here.
        self.shared = shared
        self.data = data
        self.grad = None
        self.parents = parents
        self.backward_fn = backward_fn
        self.requires = bool(parents)
        self.seq = next(_creation)

    def _buffer(self) -> np.ndarray:
        if self.shared.buf is None:
            self.shared.buf = np.zeros_like(self.data)
        self.grad = self.shared.buf
        return self.grad

    def accumulate(self, g):
        self._buffer()[...] += g

    def accumulate_rows(self, idx, g, cols: slice = slice(None)):
        np.add.at(self._buffer()[:, cols], idx, g)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def bwd(g):
        a.accumulate(np.full(a.shape, g[0, 0] / n, dtype=_dtype))
    return _out(a.data.mean().reshape(1, 1), (a,), bwd)


def sum_rows(a: Tensor) -> Tensor:
    """Row-wise sum: (n, m) -> (n, 1)."""
    def bwd(g):
        a.accumulate(np.repeat(g, a.shape[1], axis=1))
    return _out(a.data.sum(axis=1, keepdims=True), (a,), bwd)


# --- parameter store and optimizer -------------------------------------------

class ParamStore:
    """Named trainable tensors with paired Adam state."""

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.adam_m: dict[str, np.ndarray] = {}
        self.adam_v: dict[str, np.ndarray] = {}
        self.step_count = 0

    def create(self, name: str, data) -> Tensor:
        if name in self.params:
            raise ValueError(f"parameter {name!r} already exists")
        t = Tensor(data, requires=True)
        self.params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def names(self):
        return sorted(self.params)

    def zero_grads(self):
        for p in self.params.values():
            p.grad = None

    def scale_grads(self, c: float):
        for p in self.params.values():
            if p.grad is not None:
                p.grad = p.grad * _dtype(c)

    def clone(self) -> "ParamStore":
        out = ParamStore()
        for name, p in self.params.items():
            out.create(name, p.data.copy())
        out.adam_m = {k: v.copy() for k, v in self.adam_m.items()}
        out.adam_v = {k: v.copy() for k, v in self.adam_v.items()}
        out.step_count = self.step_count
        return out


def adam_step(store: ParamStore, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8):
    """Bias-corrected adaptive update; missing gradients count as zero.

    Gradients are cleared afterwards.
    """
    store.step_count += 1
    t = store.step_count
    for name in store.names():
        p = store.params[name]
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        g = g.astype(np.float64)
        m = store.adam_m.get(name)
        v = store.adam_v.get(name)
        if m is None:
            m = np.zeros_like(g)
            v = np.zeros_like(g)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        store.adam_m[name] = m
        store.adam_v[name] = v
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        upd = lr * mhat / (np.sqrt(vhat) + eps)
        p.data = (p.data.astype(np.float64) - upd).astype(p.data.dtype)
        p.grad = None


# --- building blocks ----------------------------------------------------------

def init_mlp3(store: ParamStore, prefix: str, d_in: int, d_hidden: int,
              d_out: int, rng: np.random.Generator):
    # Biases draw from the same uniform range as weights so no ReLU
    # preactivation starts exactly at the kink.
    dims = [(d_in, d_hidden), (d_hidden, d_hidden), (d_hidden, d_out)]
    for k, (a, b) in enumerate(dims, 1):
        bound = np.sqrt(6.0 / a)
        store.create(f"{prefix}.w{k}", rng.uniform(-bound, bound, size=(a, b)))
        store.create(f"{prefix}.b{k}", rng.uniform(-bound, bound, size=(1, b)))


def mlp3(x: Tensor, store: ParamStore, prefix: str, head: str = "sigmoid") -> Tensor:
    """Three affine layers with ReLU between; head is 'sigmoid' or 'identity'."""
    h = x
    for k in (1, 2, 3):
        h = add(matmul(h, store[f"{prefix}.w{k}"]), store[f"{prefix}.b{k}"])
        if k < 3:
            h = relu(h)
    if head == "sigmoid":
        return sigmoid(h)
    if head == "identity":
        return h
    raise ValueError(f"unknown head {head!r}")


def init_gru(store: ParamStore, prefix: str, d_in: int, d_state: int,
             rng: np.random.Generator):
    std = 1.0 / np.sqrt(d_state)
    store.create(f"{prefix}.wx", rng.uniform(-std, std, size=(d_in, 3 * d_state)))
    store.create(f"{prefix}.wh", rng.uniform(-std, std, size=(d_state, 3 * d_state)))
    store.create(f"{prefix}.b", rng.uniform(-std, std, size=(1, 3 * d_state)))


def init_attention(store: ParamStore, prefix: str, dim: int,
                   rng: np.random.Generator):
    std = 1.0 / np.sqrt(dim)
    # Draw and drop the block a query weight would take (a per-segment
    # score term cancels in the softmax), so every parameter drawn after
    # it keeps its initial value for a given seed.
    rng.uniform(-std, std, size=(dim, 1))
    store.create(f"{prefix}.w2", rng.uniform(-std, std, size=(dim, 1)))


def segment_owner(starts, n_rows: int) -> np.ndarray:
    """Segment index of each of ``n_rows`` rows split at ``starts``."""
    return np.repeat(np.arange(len(starts)), np.diff(starts, append=n_rows))


def space_update(preds: Tensor, h_prev: Tensor, starts, owner, cells) -> Tensor:
    """One node group's update of all S embedding spaces, as one tape node.

    ``h_prev`` (G, S d) holds the group's rows, one d-column block per space;
    ``preds`` (E, S d) its neighbour rows in CSR layout: segment i is rows
    ``starts[i]`` up to the next start (or E), and ``owner`` is
    ``segment_owner(starts, E)`` or None.  Space s with cell (w2, wx, wh, b)
    attends over the first (s + 1) d columns of ``preds`` (softmax of
    w2'pred within each segment weights a sum of its rows), then a GRU with
    that sum as input and block s as state makes the new block: z, r gates,
    a candidate that resets the recurrent term, (1-z)*n + z*h; gate columns
    are [z | r | n].  A space whose cell is None keeps its block.
    """
    starts = np.asarray(starts, dtype=np.int64)
    n_rows, width = preds.shape
    d = width // max(len(cells), 1)
    if (h_prev.shape != (len(starts), width) or not cells
            or width != d * len(cells) or starts.ndim != 1 or not len(starts)
            or starts[0] != 0 or starts[-1] >= n_rows
            or (starts[1:] <= starts[:-1]).any()
            or (owner is not None and owner.shape != (n_rows,))):
        raise ShapeError(f"space_update preds {preds.shape}, h {h_prev.shape}, "
                         f"starts {starts.tolist()}, {len(cells)} cells")
    if owner is None:
        owner = segment_owner(starts, n_rows)
    out = h_prev.data.copy()
    saved = []
    for s, (w2, wx, wh, b) in ((s, c) for s, c in enumerate(cells) if c):
        k = (s + 1) * d
        shapes = (w2.shape, wx.shape, wh.shape, b.shape)
        if shapes != ((k, 1), (k, 3 * d), (d, 3 * d), (1, 3 * d)):
            raise ShapeError(f"space_update cell {s} of d = {d}: {shapes}")
        p, h = preds.data[:, :k], h_prev.data[:, s * d:(s + 1) * d]
        scores = (p @ w2.data).ravel()
        _require_finite("space_update", scores)
        alpha = _segment_softmax(scores, starts, owner)
        x = np.add.reduceat(alpha[:, None] * p, starts, axis=0)
        gx, gh = x @ wx.data + b.data, h @ wh.data
        _require_finite("space_update", gx, gh)
        zr = _sigmoid(gx[:, :2 * d] + gh[:, :2 * d])
        z, r = zr[:, :d], zr[:, d:]
        hn = gh[:, 2 * d:]
        n = np.tanh(gx[:, 2 * d:] + r * hn)
        out[:, s * d:(s + 1) * d] = (1.0 - z) * n + z * h
        saved.append((s, (w2, wx, wh, b), p, h, alpha, x, zr, z, r, hn, n))

    def bwd(g):
        dpreds = np.zeros_like(preds.data)
        dh = g.copy()  # a kept block passes its gradient through
        # Later spaces first, so that a neighbour column sums its gradient
        # in the order of separate per-space ops.
        for s, (w2, wx, wh, b), p, h, alpha, x, zr, z, r, hn, n in reversed(saved):
            gs = g[:, s * d:(s + 1) * d]
            dpre_n = gs * (1.0 - z) * (1.0 - n * n)
            dzr = np.concatenate([gs * (h - n), dpre_n * hn], axis=1)
            dzr *= zr * (1.0 - zr)
            dgx = np.concatenate([dzr, dpre_n], axis=1)
            dgh = np.concatenate([dzr, dpre_n * r], axis=1)
            dh[:, s * d:(s + 1) * d] = gs * z + dgh @ wh.data.T
            wx.accumulate(x.T @ dgx)
            wh.accumulate(h.T @ dgh)
            b.accumulate(dgx.sum(axis=0, keepdims=True))
            dx = (dgx @ wx.data.T)[owner]
            dalpha = (dx * p).sum(axis=1)
            ds = alpha * (dalpha - np.add.reduceat(dalpha * alpha, starts)[owner])
            dpreds[:, :(s + 1) * d] += alpha[:, None] * dx + ds[:, None] * w2.data.T
            w2.accumulate(p.T @ ds[:, None])
        preds.accumulate(dpreds)
        h_prev.accumulate(dh)
    return _out(out, (preds, h_prev, *(t for c in cells if c for t in c)), bwd)


# --- checkpoint io ------------------------------------------------------------

def save_checkpoint(path, store: ParamStore, extra: dict | None = None):
    """JSON index plus a raw little-endian float32 blob, behind a tiny header."""
    entries = []
    blobs = []
    offset = 0
    for name in store.names():
        arr = store.params[name].data.astype("<f4")
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(arr.tobytes())
        offset += arr.nbytes
    index = {"format_version": CHECKPOINT_VERSION, "dtype": "float32",
             "entries": entries, "extra": extra or {}}
    payload = json.dumps(index).encode()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(payload)))
        f.write(payload)
        for b in blobs:
            f.write(b)


def load_checkpoint(path) -> tuple[ParamStore, dict]:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r}")
        version, size = struct.unpack("<II", f.read(8))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        index = json.loads(f.read(size).decode())
        blob = f.read()
    store = ParamStore()
    for e in index["entries"]:
        shape = tuple(e["shape"])
        count = int(np.prod(shape))
        arr = np.frombuffer(blob, dtype="<f4", count=count,
                            offset=e["offset"]).reshape(shape).copy()
        store.create(e["name"], arr)
    return store, index.get("extra", {})
