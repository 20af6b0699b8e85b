"""Minimal dense-tensor reverse-mode autodiff engine.

Everything is float64. Each forward op records a backward closure on the
result tensor; ``backward()`` topologically sorts the recorded graph and
propagates gradients, then frees the tape. A kernel output requires grad
when any of its inputs does; a kernel on constants only records no tape,
and no gradient is computed for a constant operand. Small by design: the
models built on top are desk-scale.
"""

import json

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform for a kernel."""


def _shape_fail(kernel, *shapes):
    raise ShapeError(f"{kernel}: incompatible shapes {', '.join(str(tuple(s)) for s in shapes)}")


class Tensor:
    """Dense float64 array plus an optional gradient slot.

    ``_parents`` / ``_backward`` form the tape; they are populated by the
    kernels below and cleared after ``backward()``.
    """

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    def item(self):
        if self.data.size != 1:
            _shape_fail("item", self.shape)
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"

    # Operator sugar; constants are wrapped on the fly.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _record(out, parents, backward):
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g, shape):
    """Sum gradient ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _broadcastable(sa, sb):
    for a, b in zip(sa[::-1], sb[::-1]):
        if a != b and a != 1 and b != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def add(a, b):
    if not _broadcastable(a.shape, b.shape):
        _shape_fail("add", a.shape, b.shape)
    out = Tensor(a.data + b.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _record(out, (a, b), backward)


def sub(a, b):
    if not _broadcastable(a.shape, b.shape):
        _shape_fail("sub", a.shape, b.shape)
    out = Tensor(a.data - b.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, -_unbroadcast(g, b.shape))

    return _record(out, (a, b), backward)


def mul(a, b):
    if not _broadcastable(a.shape, b.shape):
        _shape_fail("mul", a.shape, b.shape)
    out = Tensor(a.data * b.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _record(out, (a, b), backward)


def scale(a, c):
    c = float(c)
    out = Tensor(a.data * c)

    def backward(g):
        _accumulate(a, g * c)

    return _record(out, (a,), backward)


def matmul(a, b):
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        _shape_fail("matmul", a.shape, b.shape)
    out = Tensor(np.matmul(a.data, b.data))

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        if b.requires_grad:
            # a 2-D weight's gradient sums over the input's batch dims; one
            # GEMM over the folded batch replaces a [B, ...] stack and its sum
            if b.data.ndim == 2 and a.data.ndim > 2:
                gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
            _accumulate(b, gb)

    return _record(out, (a, b), backward)


def sigmoid(a):
    y = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(y)

    def backward(g):
        _accumulate(a, g * y * (1.0 - y))

    return _record(out, (a,), backward)


def tanh(a):
    y = np.tanh(a.data)
    out = Tensor(y)

    def backward(g):
        _accumulate(a, g * (1.0 - y * y))

    return _record(out, (a,), backward)


def relu(a):
    out = Tensor(np.maximum(a.data, 0.0))

    def backward(g):
        _accumulate(a, g * (a.data > 0.0))

    return _record(out, (a,), backward)


def row_softmax(a):
    """Softmax along the last axis."""
    if a.data.ndim < 1:
        _shape_fail("row_softmax", a.shape)
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accumulate(a, y * (g - dot))

    return _record(out, (a,), backward)


def concat(tensors, axis=-1):
    shapes = [t.shape for t in tensors]
    base = list(shapes[0])
    for s in shapes[1:]:
        if len(s) != len(base) or any(s[i] != base[i] for i in range(len(base)) if i != axis % len(base)):
            _shape_fail("concat", *shapes)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _record(out, tuple(tensors), backward)


def take(a, axis, index):
    """Select one slice along ``axis`` (the axis is squeezed out)."""
    if not (-a.data.ndim <= axis < a.data.ndim) or not (0 <= index < a.shape[axis]):
        _shape_fail("take", a.shape)
    out = Tensor(np.take(a.data, index, axis=axis))

    def backward(g):
        full = np.zeros_like(a.data)
        idx = [slice(None)] * a.data.ndim
        idx[axis] = index
        full[tuple(idx)] = g
        _accumulate(a, full)

    return _record(out, (a,), backward)


def gather_flat(a, indices):
    """Pick elements of ``a`` by flat (row-major) index; returns a 1-D tensor."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 1 or (indices.size and (indices.min() < 0 or indices.max() >= a.size)):
        _shape_fail("gather_flat", a.shape, indices.shape)
    flat = a.data.reshape(-1)
    out = Tensor(flat[indices])

    def backward(g):
        full = np.zeros(a.size)
        np.add.at(full, indices, g)
        _accumulate(a, full.reshape(a.shape))

    return _record(out, (a,), backward)


def tsum(a):
    out = Tensor(a.data.sum())

    def backward(g):
        _accumulate(a, np.broadcast_to(g, a.shape).copy() if a.data.ndim else np.asarray(g))

    return _record(out, (a,), backward)


def tmean(a):
    n = a.data.size
    out = Tensor(a.data.mean())

    def backward(g):
        _accumulate(a, np.full(a.shape, float(g) / n))

    return _record(out, (a,), backward)


def tabs(a):
    out = Tensor(np.abs(a.data))

    def backward(g):
        _accumulate(a, g * np.sign(a.data))

    return _record(out, (a,), backward)


def tlog(a):
    out = Tensor(np.log(a.data))

    def backward(g):
        _accumulate(a, g / a.data)

    return _record(out, (a,), backward)


def transpose(a, axes):
    out = Tensor(np.transpose(a.data, axes))
    inv = np.argsort(axes)

    def backward(g):
        _accumulate(a, np.transpose(g, inv))

    return _record(out, (a,), backward)


def reshape(a, shape):
    shape = tuple(shape)
    if int(np.prod(shape)) != a.size:
        _shape_fail("reshape", a.shape, shape)
    out = Tensor(a.data.reshape(shape))

    def backward(g):
        _accumulate(a, g.reshape(a.shape))

    return _record(out, (a,), backward)


def graph_gru(x_emb, adjacency, wu, bu, wr, br, wc, bc):
    """Graph-convolutional GRU over the history axis, as one kernel.

    The DCRNN recurrence (Li et al., ICLR 2018) with one propagation hop.
    ``x_emb`` is [..., H, N, C], ``adjacency`` [N, N], the gate weights
    [C + D, D] and biases [D]. From h = 0, each step t computes

        zin = [x_t, h]                   u = sigmoid((A zin) Wu + bu)
        r = sigmoid((A zin) Wr + br)     c = tanh((A [x_t, r h]) Wc + bc)
        h = u h + (1 - u) c

    and the final h [..., N, D] is returned. Forward caches each step's
    activations; backward is one reverse-time loop over them, with the
    batch and time axes folded into each weight-gradient GEMM.
    """
    x, a = x_emb.data, adjacency.data
    if x.ndim < 3 or a.shape != (x.shape[-2],) * 2:
        _shape_fail("graph_gru", x_emb.shape, adjacency.shape)
    steps, cx, d = x.shape[-3], x.shape[-1], wu.shape[-1]
    for w, b in ((wu, bu), (wr, br), (wc, bc)):
        if w.shape != (cx + d, d) or b.shape != (d,):
            _shape_fail("graph_gru", x_emb.shape, w.shape, b.shape)
    nodes = x.shape[:-3] + x.shape[-2:-1]  # [..., N], the rows of every per-step array
    grad_adjacency = adjacency.requires_grad  # zin and cin are kept only for dA
    # per-step activations, stacked on a leading time axis
    hs = np.empty((steps,) + nodes + (d,))
    azins = np.empty((steps,) + nodes + (cx + d,))
    acins = np.empty_like(azins)
    us, rs, cs = np.empty_like(hs), np.empty_like(hs), np.empty_like(hs)
    zins, cins = [], []
    h = np.zeros(nodes + (d,))
    for t in range(steps):
        x_t = x[..., t, :, :]
        hs[t] = h
        zin = np.concatenate([x_t, h], axis=-1)
        azin = np.matmul(a, zin, out=azins[t])
        u = np.divide(1.0, 1.0 + np.exp(-(np.matmul(azin, wu.data) + bu.data)), out=us[t])
        r = np.divide(1.0, 1.0 + np.exp(-(np.matmul(azin, wr.data) + br.data)), out=rs[t])
        cin = np.concatenate([x_t, r * h], axis=-1)
        c = np.tanh(np.matmul(np.matmul(a, cin, out=acins[t]), wc.data) + bc.data, out=cs[t])
        if grad_adjacency:
            zins.append(zin)
            cins.append(cin)
        h = u * h + (1.0 - u) * c
    out = Tensor(h)

    def backward(g):
        a_t = a.T
        w_ur_t = np.concatenate([wu.data, wr.data], axis=1).T
        dpre_ur = np.empty(us.shape[:-1] + (2 * d,))
        dpre_c = np.empty_like(cs)
        dx = np.empty_like(x) if x_emb.requires_grad else None
        da = np.zeros_like(a) if grad_adjacency else None
        batch_axes = list(range(len(nodes) - 1))
        dh = g
        for t in reversed(range(steps)):
            h_prev, u, r, c = hs[t], us[t], rs[t], cs[t]
            du = dh * h_prev - dh * c
            dh_prev = dh * u
            dpre = np.multiply(dh * (1.0 - u), 1.0 - c * c, out=dpre_c[t])
            # A^T (dpre Wc^T) taken as (A^T dpre) Wc^T: the [N, N] product gets D columns, not C + D
            dcin = np.matmul(np.matmul(a_t, dpre), wc.data.T)
            drh = dcin[..., cx:]
            dh_prev += drh * r
            np.multiply(du * u, 1.0 - u, out=dpre_ur[t, ..., :d])
            np.multiply(drh * h_prev * r, 1.0 - r, out=dpre_ur[t, ..., d:])
            dazin = np.matmul(dpre_ur[t], w_ur_t)
            dzin = np.matmul(a_t, dazin)
            if dx is not None:
                dx[..., t, :, :] = dcin[..., :cx] + dzin[..., :cx]
            if da is not None:
                da += np.tensordot(dpre, np.matmul(cins[t], wc.data), axes=(batch_axes + [-1],) * 2)
                da += np.tensordot(dazin, zins[t], axes=(batch_axes + [-1],) * 2)
            dh = dh_prev + dzin[..., cx:]
        if dx is not None:
            _accumulate(x_emb, dx)
        if da is not None:
            _accumulate(adjacency, da)
        dw_ur = azins.reshape(-1, cx + d).T @ dpre_ur.reshape(-1, 2 * d)
        db_ur = dpre_ur.reshape(-1, 2 * d).sum(axis=0)
        for w, b, cols in ((wu, bu, slice(0, d)), (wr, br, slice(d, 2 * d))):
            if w.requires_grad:
                _accumulate(w, dw_ur[:, cols])
            if b.requires_grad:
                _accumulate(b, db_ur[cols])
        if wc.requires_grad:
            _accumulate(wc, acins.reshape(-1, cx + d).T @ dpre_c.reshape(-1, d))
        if bc.requires_grad:
            _accumulate(bc, dpre_c.reshape(-1, d).sum(axis=0))

    return _record(out, (x_emb, adjacency, wu, bu, wr, br, wc, bc), backward)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def backward(loss):
    """Propagate d(loss)/d(t) into ``t.grad`` for every tensor on the tape.

    ``loss`` must be scalar. The tape is freed afterwards; intermediate
    gradients survive on the tensors until the next forward pass overwrites
    or re-zeroes them.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {tuple(loss.shape)}")

    order = []
    seen = set()
    stack = [(loss, iter(loss._parents))]
    seen.add(id(loss))
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()

    _accumulate(loss, np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)
    for node in order:
        node._parents = ()
        node._backward = None


# ---------------------------------------------------------------------------
# Parameters, optimizer, checkpoints
# ---------------------------------------------------------------------------

class ParameterTree:
    """Ordered, uniquely-named collection of trainable tensors."""

    def __init__(self):
        self._entries = {}

    def add(self, path, data):
        if path in self._entries:
            raise ValueError(f"duplicate parameter path {path!r}")
        t = Tensor(data, requires_grad=True)
        self._entries[path] = t
        return t

    def __getitem__(self, path):
        return self._entries[path]

    def __contains__(self, path):
        return path in self._entries

    def __len__(self):
        return len(self._entries)

    def paths(self):
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def zero_grad(self):
        for t in self._entries.values():
            t.zero_grad()

    def copy_values(self):
        """Snapshot of raw arrays, keyed by path."""
        return {p: t.data.copy() for p, t in self._entries.items()}

    def load_values(self, values):
        for path, t in self._entries.items():
            if path not in values:
                raise ValueError(f"checkpoint missing parameter {path!r}")
            arr = np.asarray(values[path], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise ValueError(
                    f"checkpoint shape mismatch for {path!r}: "
                    f"expected {tuple(t.data.shape)}, got {tuple(arr.shape)}"
                )
            t.data = arr.copy()

    def save(self, path):
        save_checkpoint(self, path)


def save_checkpoint(params, path):
    """Write a textual checkpoint: path -> shape -> float64 values.

    JSON float repr round-trips IEEE doubles exactly.
    """
    payload = {
        p: {"shape": list(t.data.shape), "values": t.data.reshape(-1).tolist()}
        for p, t in params.items()
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_checkpoint(path):
    """Read a checkpoint into a dict of arrays, keyed by parameter path."""
    with open(path) as fh:
        payload = json.load(fh)
    out = {}
    for p, entry in payload.items():
        arr = np.asarray(entry["values"], dtype=np.float64).reshape(entry["shape"])
        out[p] = arr
    return out


class Adam:
    """Adam with per-parameter moment state, keyed by parameter path."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, frozen=()):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.frozen = set(frozen)
        self.t = 0
        self.m = {p: np.zeros_like(t.data) for p, t in params.items()}
        self.v = {p: np.zeros_like(t.data) for p, t in params.items()}

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for path, tensor in self.params.items():
            if path in self.frozen:
                continue
            if tensor.grad is None:
                raise ValueError(f"adam_step: parameter {path!r} has no gradient")
            g = tensor.grad
            self.m[path] = self.beta1 * self.m[path] + (1.0 - self.beta1) * g
            self.v[path] = self.beta2 * self.v[path] + (1.0 - self.beta2) * g * g
            m_hat = self.m[path] / b1t
            v_hat = self.v[path] / b2t
            tensor.data = tensor.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def finite_diff_check(f, params, step=1e-5):
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps the current parameter values to a scalar Tensor and is called
    repeatedly; the error for each entry is
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    params.zero_grad()
    loss = f()
    if not np.isfinite(loss.data).all():
        raise ValueError("finite_diff_check: non-finite loss value")
    backward(loss)
    analytic = {p: t.grad.copy() for p, t in params.items()}

    worst = 0.0
    for path, tensor in params.items():
        flat = tensor.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f().item()
            flat[i] = orig - step
            lo = f().item()
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise ValueError("finite_diff_check: non-finite loss value")
            numeric = (hi - lo) / (2.0 * step)
            a = analytic[path].reshape(-1)[i]
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, err)
    return worst
