"""Minimal reverse-mode differentiation over numpy arrays.

Each :class:`Var` holds a float64 value, an adjoint, and a closure that
pushes its adjoint to its parents.  ``backward`` seeds the output
adjoint with 1 and walks the recorded graph in exact reverse
topological order.  The primitive set is what the CS-IB loss needs:
matmul, broadcast add/mul/div, elementwise exp/log/relu/square/pow,
axis and total sums, and a fused pairwise squared-distance op whose
hand-derived adjoint is O(N^2 d).

Everything is float64: the log-of-small-mean structure of CS losses is
too fragile at 32 bits for tight finite-difference agreement.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError


class Var:
    """Node in the differentiation graph."""

    __slots__ = ("value", "grad", "_parents", "_push")

    def __init__(self, value, parents=(), push=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = tuple(parents)
        self._push = push

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def as_var(x) -> Var:
    """Wrap a number or array as a constant leaf."""
    return x if isinstance(x, Var) else Var(x)


def _accumulate(node: Var, grad: np.ndarray) -> None:
    if node.grad is None:
        node.grad = np.array(grad, dtype=np.float64, copy=True)
    else:
        node.grad += grad


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    grad = np.asarray(grad, dtype=np.float64)
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.value + b.value, (a, b))

    def push(g):
        _accumulate(a, _unbroadcast(g, a.value.shape))
        _accumulate(b, _unbroadcast(g, b.value.shape))

    out._push = push
    return out


def sub(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.value - b.value, (a, b))

    def push(g):
        _accumulate(a, _unbroadcast(g, a.value.shape))
        _accumulate(b, _unbroadcast(-g, b.value.shape))

    out._push = push
    return out


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.value * b.value, (a, b))

    def push(g):
        _accumulate(a, _unbroadcast(g * b.value, a.value.shape))
        _accumulate(b, _unbroadcast(g * a.value, b.value.shape))

    out._push = push
    return out


def div(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.value / b.value, (a, b))

    def push(g):
        _accumulate(a, _unbroadcast(g / b.value, a.value.shape))
        _accumulate(b, _unbroadcast(-g * a.value / b.value**2, b.value.shape))

    out._push = push
    return out


def power(a, exponent: float) -> Var:
    a = as_var(a)
    exponent = float(exponent)
    out = Var(a.value**exponent, (a,))

    def push(g):
        _accumulate(a, g * exponent * a.value ** (exponent - 1.0))

    out._push = push
    return out


def exp(a) -> Var:
    a = as_var(a)
    value = np.exp(a.value)
    out = Var(value, (a,))

    # Captures the value, not ``out``: a closure over its own node is a
    # reference cycle that keeps the whole graph alive until the cyclic
    # garbage collector runs.
    def push(g):
        _accumulate(a, g * value)

    out._push = push
    return out


def log(a) -> Var:
    a = as_var(a)
    out = Var(np.log(a.value), (a,))

    def push(g):
        _accumulate(a, g / a.value)

    out._push = push
    return out


def relu(a) -> Var:
    a = as_var(a)
    out = Var(np.maximum(a.value, 0.0), (a,))

    def push(g):
        _accumulate(a, g * (a.value > 0.0))

    out._push = push
    return out


def square(a) -> Var:
    a = as_var(a)
    out = Var(a.value * a.value, (a,))

    def push(g):
        _accumulate(a, g * 2.0 * a.value)

    out._push = push
    return out


def vsum(a, axis=None) -> Var:
    """Total, row (axis=1), or column (axis=0) sum."""
    a = as_var(a)
    out = Var(a.value.sum(axis=axis), (a,))

    def push(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.value.shape))
        else:
            _accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.value.shape))

    out._push = push
    return out


def matmul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise DimensionError("matmul operands must be 2-D")
    if a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(
            f"matmul shapes {a.value.shape} and {b.value.shape} do not chain"
        )
    out = Var(a.value @ b.value, (a, b))

    def push(g):
        _accumulate(a, g @ b.value.T)
        _accumulate(b, a.value.T @ g)

    out._push = push
    return out


def pairwise_sqdist(a, b) -> Var:
    """Fused |a_i - b_j|^2 with a hand-derived O(N^2 d) adjoint."""
    from .kernels import pairwise_sqdist as _psd_value

    a, b = as_var(a), as_var(b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[1]:
        raise DimensionError("pairwise_sqdist operands must be 2-D with equal columns")
    out = Var(_psd_value(a.value, b.value), (a, b))

    def push(g):
        # d/da_i = sum_j g_ij 2 (a_i - b_j); d/db_j = sum_i g_ij 2 (b_j - a_i)
        _accumulate(a, 2.0 * (g.sum(axis=1, keepdims=True) * a.value - g @ b.value))
        _accumulate(b, 2.0 * (g.sum(axis=0)[:, None] * b.value - g.T @ a.value))

    out._push = push
    return out


def backward(loss: Var) -> None:
    """Populate ``grad`` on every node reachable from ``loss``.

    The loss must be scalar; its adjoint is seeded with 1.
    """
    if loss.value.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.value.shape}")
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        if node._push is not None and node.grad is not None:
            node._push(node.grad)


def grad_of(node: Var) -> np.ndarray:
    """Gradient of the last backward pass w.r.t. ``node`` (zeros if unused)."""
    if node.grad is None:
        return np.zeros_like(node.value)
    return node.grad
