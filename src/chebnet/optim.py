"""Optimizers over Parameter lists: Adam (decoupled weight decay) and SGD.

A step consumes the accumulated gradients and zeroes them afterwards.
Calling step before any backward pass has populated the gradients is a
state error.
"""

import numpy as np

from chebnet.layers import InvalidStateError


class _Optimizer:
    def __init__(self, params, lr, weight_decay=0.0):
        if lr <= 0.0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if weight_decay < 0.0:
            raise ValueError(f"weight decay must be nonnegative, got {weight_decay}")
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay

    def _check_populated(self):
        if not self.params:
            return
        if not all(p.touched for p in self.params):
            raise InvalidStateError(
                "optimizer step with unpopulated gradients; run backward first")

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self._check_populated()
        self._update()
        self.zero_grad()

    def _update(self):
        raise NotImplementedError


class SGD(_Optimizer):
    """Plain gradient descent with L2 weight decay."""

    def _update(self):
        for p in self.params:
            p.value -= self.lr * (p.grad + self.weight_decay * p.value)


class Adam(_Optimizer):
    """Adam with bias correction and decoupled weight decay.

    beta1 = 0.9, beta2 = 0.999, eps = 1e-8; the decay term multiplies the
    pre-step value and is not fed through the moment estimates.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params, lr, weight_decay=0.0):
        super().__init__(params, lr, weight_decay)
        self.t = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def _update(self):
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.EPS)
            if self.weight_decay:
                p.value *= 1.0 - self.lr * self.weight_decay
            p.value -= self.lr * update


OPTIMIZERS = {"adam": Adam, "sgd": SGD}


def make_optimizer(kind, params, lr, weight_decay=0.0):
    kind = kind.lower()
    if kind not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer kind {kind!r}")
    return OPTIMIZERS[kind](params, lr, weight_decay)
