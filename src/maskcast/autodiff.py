"""Minimal dense-tensor reverse-mode autodiff engine.

Everything is float64. Each forward op records a backward closure on the
result tensor; ``backward()`` topologically sorts the recorded graph and
propagates gradients, freeing each node's closure, parents and gradient as
soon as its closure has run, so only leaves keep ``.grad``. A kernel output
requires grad when any of its inputs does; a kernel on constants only
records no tape, and no gradient is computed for a constant operand. A
forward pass on constant views of the parameters therefore keeps nothing
for a backward pass. Small by design: the models built on top are
desk-scale.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform for a kernel."""


def _shape_fail(kernel, *shapes):
    raise ShapeError(f"{kernel}: incompatible shapes {', '.join(str(tuple(s)) for s in shapes)}")


class Tensor:
    """Dense float64 array plus an optional gradient slot.

    ``_parents`` / ``_backward`` form the tape; they are populated by the
    kernels below and cleared node by node during ``backward()``.
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
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)

    def item(self):
        if self.data.size != 1:
            _shape_fail("item", self.shape)
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"


def _accumulate(t, g, owned=False):
    """Add ``g`` into ``t.grad``. ``owned`` says that nothing else holds
    ``g`` or shares its memory: the kernel allocated it for ``t`` alone, or
    it is the closure's upstream gradient, which ``backward`` drops after the
    closure, handed to one parent only."""
    if not t.requires_grad:
        return
    if t.grad is None:
        if owned and g.shape == t.data.shape and g.flags.c_contiguous and t.data.flags.c_contiguous:
            # handed over: zeros_like(t.data) + g in the same layout, with the
            # same bits except that a -0.0 of g stays -0.0
            t.grad = g
        else:
            # the bits and memory layout of zeros_like(t.data) + g, without
            # the zero fill; g + 0.0 alone would keep a transposed g's layout,
            # which changes the summation order of a later _unbroadcast
            t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
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
            _accumulate(a, _unbroadcast(g, a.shape), owned=True)
        if b.requires_grad:
            # a may hold g itself now
            _accumulate(b, _unbroadcast(g, b.shape), owned=not a.requires_grad)

    return _record(out, (a, b), backward)


def sub(a, b):
    if not _broadcastable(a.shape, b.shape):
        _shape_fail("sub", a.shape, b.shape)
    out = Tensor(a.data - b.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape), owned=True)
        if b.requires_grad:
            _accumulate(b, -_unbroadcast(g, b.shape), owned=True)

    return _record(out, (a, b), backward)


def mul(a, b):
    if not _broadcastable(a.shape, b.shape):
        _shape_fail("mul", a.shape, b.shape)
    out = Tensor(a.data * b.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape), owned=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape), owned=True)

    return _record(out, (a, b), backward)


def scale(a, c):
    c = float(c)
    out = Tensor(a.data * c)

    def backward(g):
        _accumulate(a, g * c, owned=True)

    return _record(out, (a,), backward)


def matmul(a, b):
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        _shape_fail("matmul", a.shape, b.shape)
    out = Tensor(np.matmul(a.data, b.data))

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape), owned=True)
        if b.requires_grad:
            # a 2-D weight's gradient sums over the input's batch dims; one
            # GEMM over the folded batch replaces a [B, ...] stack and its sum
            if b.data.ndim == 2 and a.data.ndim > 2:
                gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
            _accumulate(b, gb, owned=True)

    return _record(out, (a, b), backward)


def sigmoid(a):
    # 1 / (1 + exp(-x)), computed in one buffer
    y = np.negative(a.data, out=np.empty_like(a.data))
    np.exp(y, out=y)
    y += 1.0
    np.divide(1.0, y, out=y)
    out = Tensor(y)

    def backward(g):
        dy = g * y
        dy *= 1.0 - y
        _accumulate(a, dy, owned=True)

    return _record(out, (a,), backward)


def tanh(a):
    y = np.tanh(a.data)
    out = Tensor(y)

    def backward(g):
        _accumulate(a, g * (1.0 - y * y), owned=True)

    return _record(out, (a,), backward)


def relu(a):
    out = Tensor(np.maximum(a.data, 0.0))

    def backward(g):
        _accumulate(a, g * (a.data > 0.0), owned=True)

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
        _accumulate(a, y * (g - dot), owned=True)

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
        _accumulate(a, full, owned=True)

    return _record(out, (a,), backward)


def gather_flat(a, indices):
    """Pick elements of ``a`` by flat (row-major) index; returns a 1-D tensor."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 1 or (indices.size and (indices.min() < 0 or indices.max() >= a.size)):
        _shape_fail("gather_flat", a.shape, indices.shape)
    flat = a.data.reshape(-1)
    out = Tensor(flat[indices])

    def backward(g):
        full = np.bincount(indices, weights=g, minlength=a.size)
        _accumulate(a, full.reshape(a.shape), owned=True)

    return _record(out, (a,), backward)


def tsum(a):
    out = Tensor(a.data.sum())

    def backward(g):
        _accumulate(a, np.broadcast_to(g, a.shape).copy() if a.data.ndim else np.asarray(g), owned=True)

    return _record(out, (a,), backward)


def tmean(a):
    n = a.data.size
    out = Tensor(a.data.mean())

    def backward(g):
        _accumulate(a, np.full(a.shape, float(g) / n), owned=True)

    return _record(out, (a,), backward)


def tabs(a):
    out = Tensor(np.abs(a.data))

    def backward(g):
        _accumulate(a, g * np.sign(a.data), owned=True)

    return _record(out, (a,), backward)


def tlog(a):
    out = Tensor(np.log(a.data))

    def backward(g):
        _accumulate(a, g / a.data, owned=True)

    return _record(out, (a,), backward)


def softplus(a):
    """log(1 + exp(x)) elementwise, finite for every finite x."""
    # max(x, 0) + log1p(exp(-|x|)): exp never overflows, and a NaN stays NaN
    y = np.abs(a.data)
    np.negative(y, out=y)
    np.exp(y, out=y)
    np.log1p(y, out=y)
    y += np.maximum(a.data, 0.0)
    out = Tensor(y)

    def backward(g):
        # sigmoid(x) = exp(x - softplus(x)), which cannot overflow
        _accumulate(a, g * np.exp(a.data - y), owned=True)

    return _record(out, (a,), backward)


def transpose(a, axes):
    out = Tensor(np.transpose(a.data, axes))
    inv = np.argsort(axes)

    def backward(g):
        _accumulate(a, np.transpose(g, inv), owned=True)

    return _record(out, (a,), backward)


def reshape(a, shape):
    shape = tuple(shape)
    if int(np.prod(shape)) != a.size:
        _shape_fail("reshape", a.shape, shape)
    out = Tensor(a.data.reshape(shape))

    def backward(g):
        _accumulate(a, g.reshape(a.shape), owned=True)

    return _record(out, (a,), backward)


# graph_gru cuts its batch into contiguous ranges, one per CPU this process
# may run on, and runs the first on the calling thread and the others on a
# thread pool; numpy releases the GIL inside each call. A range is cut off
# only while every range keeps at least _MIN_RANGE_STEP elements of hidden
# state per step: below that, with one BLAS thread, the GIL hand-offs
# between the threads' many short numpy calls cost about what the second
# core saves. On a 2-vCPU x86 guest with one BLAS thread, forward plus
# backward split in two ran 0.85x as fast at [16, 20, 16], even at
# [128, 20, 16] and 1.5x as fast at [32, 100, 16] and [32, 200, 16]
# (shapes [B, N, D], 12 steps).
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # platforms without affinity masks
    _WORKERS = os.cpu_count() or 1
_MIN_RANGE_STEP = 24_000
_pool = None


def _batch_ranges(batch, item_step):
    """Contiguous [lo, hi) ranges over ``batch`` items whose hidden state has
    ``item_step`` elements per step."""
    count = max(1, min(_WORKERS, batch, batch * item_step // _MIN_RANGE_STEP))
    bounds = [batch * i // count for i in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _run_ranges(jobs):
    """Call every job of ``jobs``, a list of no-argument callables: the first
    on this thread, the others on the pool. Every job runs and is waited
    for; then the first error in job order is raised. Jobs must call only
    numpy: a span tracer may wrap this module's functions with a stack that
    is not thread-safe."""
    global _pool
    futures = []
    if len(jobs) > 1:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=_WORKERS - 1, thread_name_prefix="graph_gru")
        futures = [_pool.submit(job) for job in jobs[1:]]
    try:
        jobs[0]()
    finally:
        wait(futures)
    for f in futures:
        f.result()


def graph_gru(lift, m, adjacency, wu, bu, wr, br, wc, bc):
    """Graph-convolutional GRU over the history axis of an embedded window,
    as one kernel.

    The DCRNN recurrence (Li et al., ICLR 2018) with one propagation hop.
    The window comes lifted: ``lift`` [..., H, N, K] is data, an array that
    gets no gradient, and ``m`` [K, E] embeds step t as e_t = l_t M.
    ``adjacency`` is [N, N], the gate weights [E + D, D] and biases [D].
    From h = 0, each step computes

        u, r = sigmoid([A e_t, A h] [Wu|Wr] + [bu|br])
        c = tanh([A e_t, A (r h)] Wc + bc)
        h = u h + (1 - u) c

    and the final h [..., N, D] is returned.

    A e_t = (A l_t) M, so A need never multiply an E-channel array: A l is
    taken for all H steps in one product before the loop, at K columns.
    Each step writes its x-half (A l_t) M with one GEMM into the buffer
    whose h-half holds A h, then A (r h), so a step multiplies A only by h
    and by r h, 2D columns. Each gate GEMM contracts over all E + D rows at
    once, which keeps the output on an embedded window (M = I) bitwise
    equal to multiplying A by the concatenated [e_t, h]; a split into two
    K-halves would not. The update and reset gates are one GEMM on
    [Wu|Wr], built per call, so checkpoints keep the three separate gate
    weights.

    Backward is one reverse-time loop that applies A^T only to the h-side
    gradients, D columns each. Step t's pre-activation gradients dpre_t
    live in a one-step buffer, and every sum over steps that reads them is
    taken right there, per batch item, into a running sum per item. With
    W_x the gate weights' first E rows, the sums are the h-rows' gradients
    (A h)^T dpre_ur and (r h)^T (A^T dpre_c), the bias sums 1^T dpre, and
    P = (A l)^T dpre [K, 3D]. The candidate gate applies A^T to dpre_c
    itself: Q = A^T dpre_c gives both its h-rows' term and
    dL/d(r h) = Q Wc_h^T, so A (r h) is never kept. After the loop the gate
    weights' x-rows get M^T P and M gets P W_x^T. A learned adjacency gets
    sum_t (dL/d(A v_t)) v_t^T over its three products, v = r h, h and l,
    with dL/d(A l_t) = dpre_t (M W_x)^T: one [N, N] GEMM per item and step,
    over the three stacked side by side. No pass makes an [..., H, N, E]
    array, and backward keeps no array over all H steps beyond the
    forward's caches.

    The lead axes are flattened into one batch axis, whose items never
    interact. The batch is cut into contiguous ranges, one per CPU in the
    process's affinity mask, when each range keeps enough work per step; a
    single window is never cut. The calling thread runs the first range
    and a thread pool the others. Each range runs the A l product, the
    forward recurrence and the reverse-time loop on its own rows, in
    buffers allocated once per call, so the threads allocate nothing
    large. Each item's sums run over the steps in the same order whatever
    range holds it, and the calling thread adds the items up in index
    order once the ranges have joined. Outputs and gradients are therefore
    bitwise the same for any number of ranges, so for any number of CPUs.
    Under a multi-threaded BLAS, its own thread pool shares the same cores.

    The forward caches five per-step arrays [H, B, N, D]: h, A h, u, r and
    c, besides A l. They span all H steps only when a tensor input
    requires grad; a forward-only call writes every step into the same
    one-step buffers, which leaves its output bitwise unchanged.
    """
    lift, a, m_emb = np.asarray(lift, dtype=np.float64), adjacency.data, m.data
    if (lift.ndim < 3 or m_emb.ndim != 2 or m.shape[0] != lift.shape[-1]
            or a.shape != (lift.shape[-2],) * 2):
        _shape_fail("graph_gru", lift.shape, m.shape, adjacency.shape)
    hist, n, k = lift.shape[-3:]
    cx, d = m.shape[1], wu.shape[-1]
    gates = ((wu, bu), (wr, br), (wc, bc))
    for w, b in gates:
        if w.shape != (cx + d, d) or b.shape != (d,):
            _shape_fail("graph_gru", m.shape, w.shape, b.shape)
    lead = lift.shape[:-3]
    batch = int(np.prod(lead, dtype=np.int64))
    ranges = _batch_ranges(batch, n * d)
    w_ur = np.concatenate([wu.data, wr.data], axis=1)
    b_ur = np.concatenate([bu.data, br.data])
    w_c, b_c = wc.data, bc.data
    parents = (m, adjacency, wu, bu, wr, br, wc, bc)
    # per-step activations [steps, B, N, D], stacked over all H steps when
    # backward will read them and over one reused step otherwise
    taped = any(t.requires_grad for t in parents)
    lift = lift.reshape((batch, hist, n, k)).swapaxes(0, 1)  # [H, B, N, K]
    al = np.empty(lift.shape)
    hs = np.empty((hist, batch, n, d)) if taped else None
    ahs, us, rs, cs = (np.empty((hist if taped else 1, batch, n, d)) for _ in range(4))
    h_out = np.empty((batch, n, d))
    conv_ws = np.empty((batch, n, cx + d))  # [A e_t, A h], then [A e_t, A (r h)]
    gate_ws = np.empty((batch, n, 2 * d))
    tmp_ws = np.empty((batch, n, d))

    def forward_rows(lo, hi):
        np.matmul(a, lift[:, lo:hi], out=al[:, lo:hi])
        conv, e, tmp, h = conv_ws[lo:hi], gate_ws[lo:hi], tmp_ws[lo:hi], h_out[lo:hi]
        h.fill(0.0)
        for t in range(hist):
            i = t if taped else 0
            ah, u, r, c = (buf[i, lo:hi] for buf in (ahs, us, rs, cs))
            if taped:
                hs[t, lo:hi] = h
            np.matmul(al[t, lo:hi], m_emb, out=conv[..., :cx])
            conv[..., cx:] = np.matmul(a, h, out=ah)
            np.matmul(conv, w_ur, out=e)
            e += b_ur
            np.exp(np.negative(e, out=e), out=e)
            e += 1.0
            np.divide(1.0, e[..., :d], out=u)
            np.divide(1.0, e[..., d:], out=r)
            np.matmul(a, np.multiply(r, h, out=tmp), out=conv[..., cx:])
            np.matmul(conv, w_c, out=tmp)
            tmp += b_c
            np.tanh(tmp, out=c)
            np.subtract(1.0, u, out=tmp)
            tmp *= c
            h *= u
            h += tmp

    _run_ranges([partial(forward_rows, lo, hi) for lo, hi in ranges])
    conv_ws = gate_ws = tmp_ws = None
    if not adjacency.requires_grad:  # only a learned adjacency's gradient reads it
        lift = None
    out = Tensor(h_out.reshape(lead + (n, d)))

    def backward(g):
        a_t = a.T
        w_ur_h = w_ur[cx:].T  # [2D, D]
        wc_h = w_c[cx:].T
        w_x = np.concatenate([w_ur[:cx], w_c[:cx]], axis=1)  # [E, 3D]
        mw_x = (m_emb @ w_x).T  # dL/d(A l) = dpre (M W_x)^T
        learned = adjacency.requires_grad
        g = g.reshape(batch, n, d)
        # one step: the pre-activation gradients [update | reset | candidate],
        # dL/d[A (r h), A h, A l], whose outer two only a learned A reads,
        # and for a learned A [r h, h, l]
        dpre = np.empty((batch, n, 3 * d))
        dz = np.empty((batch, n, 2 * d + k))
        zv = np.empty((batch, n, 2 * d + k)) if learned else None
        work = np.empty((4, batch, n, d))
        ones = np.ones(n)
        # per-item sums over the steps and one step's terms: rows
        # [h-rows of dW (D) | P (K) | db (1)]; and for a learned A, each
        # item's dA and one [N, N] term per range
        sw = np.zeros((2, batch, d + k + 1, 3 * d))
        a_steps = [None] * len(ranges)
        if learned:
            sa, a_steps = np.zeros((batch, n, n)), np.empty((len(ranges), n, n))

        def reverse_rows(lo, hi, a_step):
            s1, s2, *spare = work[:, lo:hi]
            dp, z = dpre[lo:hi], dz[lo:hi]
            w_sum, w_step = sw[:, lo:hi]
            dh = g[lo:hi]
            for i, t in enumerate(reversed(range(hist))):
                h_prev, u, r, c = hs[t, lo:hi], us[t, lo:hi], rs[t, lo:hi], cs[t, lo:hi]
                dh_prev, rh = spare[i % 2], spare[1 - i % 2]
                np.multiply(dh, u, out=dh_prev)
                np.multiply(c, c, out=s1)
                np.subtract(1.0, s1, out=s1)
                np.subtract(dh, dh_prev, out=s2)
                dpre_c = np.multiply(s2, s1, out=dp[..., 2 * d:])
                np.subtract(h_prev, c, out=s1)
                s1 *= dh
                s1 *= u
                np.subtract(1.0, u, out=s2)
                np.multiply(s1, s2, out=dp[..., :d])
                # Q = A^T dpre_c gives the candidate's h-rows (r h)^T Q and
                # dL/d(r h) = Q Wc_h^T, so A (r h) is never cached
                qc = np.matmul(a_t, dpre_c, out=s1)
                drh = np.matmul(qc, wc_h, out=s2)
                np.matmul(np.multiply(r, h_prev, out=rh).swapaxes(1, 2), qc,
                          out=w_step[:, :d, 2 * d:])
                drh *= r
                dh_prev += drh
                drh *= h_prev
                np.multiply(drh, np.subtract(1.0, r, out=s1), out=dp[..., d:2 * d])
                dah = np.matmul(dp[..., :2 * d], w_ur_h, out=z[..., d:2 * d])
                dh_prev += np.matmul(a_t, dah, out=s1)
                dh = dh_prev
                # step t's other terms of every sum over steps, one product per item
                np.matmul(ahs[t, lo:hi].swapaxes(1, 2), dp[..., :2 * d], out=w_step[:, :d, :2 * d])
                np.matmul(al[t, lo:hi].swapaxes(1, 2), dp, out=w_step[:, d:d + k])
                np.matmul(ones, dp, out=w_step[:, d + k])
                w_sum += w_step
                if learned:
                    # dA sums (dL/d(A v)) v^T over the channels of every A product
                    v = zv[lo:hi]
                    np.matmul(dpre_c, wc_h, out=z[..., :d])
                    np.matmul(dp, mw_x, out=z[..., 2 * d:])
                    v[..., :d] = rh
                    v[..., d:2 * d] = h_prev
                    v[..., 2 * d:] = lift[t, lo:hi]
                    for j in range(hi - lo):
                        sa[lo + j] += np.matmul(z[j], v[j].T, out=a_step)

        _run_ranges([partial(reverse_rows, lo, hi, a_step)
                     for (lo, hi), a_step in zip(ranges, a_steps)])
        # the items' sums, added in index order
        total = sw[0].sum(axis=0)
        p = total[d:d + k]
        dw = np.concatenate([m_emb.T @ p, total[:d]])
        if learned:
            _accumulate(adjacency, sa.sum(axis=0), owned=True)
        _accumulate(m, p @ w_x.T, owned=True)
        for i, (w, b) in enumerate(gates):
            cols = slice(i * d, (i + 1) * d)
            _accumulate(w, dw[:, cols])
            _accumulate(b, total[d + k, cols])

    return _record(out, parents, backward)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def backward(loss):
    """Propagate d(loss)/d(t) into ``t.grad`` for every leaf on the tape.

    ``loss`` must be scalar. Nodes are visited in reverse topological order,
    and each recorded node is released right after its closure has run: its
    ``_backward`` and ``_parents`` are cleared and its ``grad`` is set back
    to None. The activations a closure captured and the gradients flowing
    through interior nodes are therefore freed as the walk proceeds. Leaves,
    the tensors no kernel produced (parameters and inputs), keep ``.grad``.
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

    _accumulate(loss, np.ones_like(loss.data), owned=True)
    while order:
        node = order.pop()
        if node._backward is not None:
            node._backward(node.grad)
            node._backward = None
            node._parents = ()
            node.grad = None


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

    def items(self):
        return self._entries.items()

    def zero_grad(self):
        for t in self._entries.values():
            t.zero_grad()

    def copy_values(self):
        """Snapshot of raw arrays, keyed by path."""
        return {p: t.data.copy() for p, t in self._entries.items()}

    def load_values(self, values):
        """Copy in a snapshot keyed by every path, with each path's shape."""
        for path, t in self._entries.items():
            t.data = values[path].copy()


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


def load_checkpoint(path, params):
    """Read a checkpoint into ``params``, whose paths and shapes it must match."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint {path}: expected an object of parameters")
    out = {}
    for p, entry in payload.items():
        if not isinstance(entry, dict):
            raise ValueError(f"checkpoint {path}: parameter {p!r} is not an object")
        missing = sorted({"shape", "values"} - set(entry))
        if missing:
            raise ValueError(f"checkpoint {path}: parameter {p!r} missing keys {missing}")
        shape = entry["shape"]
        # a JSON true is not a dimension, and numpy would infer a -1
        if not isinstance(shape, list) or any(type(d) is not int or d < 0 for d in shape):
            raise ValueError(f"checkpoint {path}: parameter {p!r} shape must be a list of "
                             f"non-negative integers, got {shape!r}")
        try:
            out[p] = np.asarray(entry["values"], dtype=np.float64).reshape(shape)
        except (TypeError, ValueError, OverflowError):  # OverflowError: an int past float64
            raise ValueError(f"checkpoint {path}: parameter {p!r} values are not "
                             f"{int(np.prod(shape))} numbers for shape {shape}")
        # numpy also converts "1.5" and true, and json reads NaN and Infinity
        bad = [v for v in np.asarray(entry["values"], dtype=object).reshape(-1)
               if type(v) not in (int, float) or not np.isfinite(v)]
        if bad:
            raise ValueError(f"checkpoint {path}: parameter {p!r} values must be finite "
                             f"numbers, got {bad[0]!r}")
    unknown = sorted(set(out) - {p for p, _ in params.items()})
    if unknown:
        raise ValueError(f"checkpoint {path}: unknown parameters {unknown}")
    for p, t in params.items():
        if p not in out:
            raise ValueError(f"checkpoint {path}: missing parameter {p!r}")
        if out[p].shape != t.data.shape:
            raise ValueError(f"checkpoint {path}: shape mismatch for {p!r}: "
                             f"expected {t.data.shape}, got {out[p].shape}")
    params.load_values(out)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


class Adam:
    """Adam with per-parameter moment state, keyed by parameter path.

    ``step`` updates the moments and each ``tensor.data`` in place.
    """

    def __init__(self, params, lr):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {p: np.zeros_like(t.data) for p, t in params.items()}
        self.v = {p: np.zeros_like(t.data) for p, t in params.items()}

    def step(self):
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        for path, tensor in self.params.items():
            if tensor.grad is None:
                raise ValueError(f"adam_step: parameter {path!r} has no gradient")
            g, m, v = tensor.grad, self.m[path], self.v[path]
            m *= ADAM_BETA1
            m += g * (1.0 - ADAM_BETA1)
            v *= ADAM_BETA2
            v += g * (1.0 - ADAM_BETA2) * g
            tensor.data -= m / b1t * self.lr / (np.sqrt(v / b2t) + ADAM_EPS)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

FD_STEP = 1e-5  # central-difference half-width


def finite_diff_check(f, params):
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
            flat[i] = orig + FD_STEP
            hi = f().item()
            flat[i] = orig - FD_STEP
            lo = f().item()
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise ValueError("finite_diff_check: non-finite loss value")
            numeric = (hi - lo) / (2.0 * FD_STEP)
            a = analytic[path].reshape(-1)[i]
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, err)
    return worst
