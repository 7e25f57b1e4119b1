"""Tour of the tensor library: build a graph, run the reverse pass, and
check every gradient against central finite differences.

The whole package sits on this float64 autodiff core, so the first thing
worth seeing is that its gradients are trustworthy.
"""

import numpy as np

import promptlab.autodiff as ad
from promptlab.autodiff import Tensor

rng = np.random.default_rng(0)

# Trainable leaves and a constant input.
w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
b = Tensor(np.zeros(3), requires_grad=True)
gamma = Tensor(np.ones(3), requires_grad=True)
beta = Tensor(np.zeros(3), requires_grad=True)
x = Tensor(rng.normal(size=(5, 4)))

# A small computation: affine map, layer norm, softmax, scalar loss.
# Wrapped in a function because the finite-difference oracle below needs
# to re-run the forward pass after nudging each parameter entry.
def forward() -> Tensor:
    h = ad.layer_norm(ad.add(ad.matmul(x, w), b), gamma, beta)
    p = ad.softmax(h, axis=-1)
    return ad.mul(ad.mean(ad.log(ad.add(p, Tensor(np.full(p.shape, 1e-9))))),
                  Tensor(np.asarray(-1.0)))

loss = forward()
print(f"loss = {loss.item():.6f}")

# Reverse pass: populates .grad on every tensor that requires it.
record = ad.backward(loss)
print(f"recorded primitives behind the loss: {len(record)}")

# The built-in oracle re-evaluates the forward pass 2*numel times per leaf.
params = [w, b, gamma, beta]
fd = ad.finite_difference_gradient(lambda: forward().item(), params,
                                   step=1e-6)
for name, param, numeric in zip(["w", "b", "gamma", "beta"], params, fd):
    err = ad.max_relative_error(param.grad, numeric)
    print(f"d loss / d {name:5s}: max relative error vs FD = {err:.2e}")

# Masked attention is part of the core: a boolean mask forbids edges
# structurally (exact zero weight, not merely a small one).
q = Tensor(rng.normal(size=(6, 4)))
mask = np.zeros((6, 6), dtype=bool)
mask[5, 4] = mask[4, 5] = True          # tokens 4 and 5 cannot see each other
out, weights = ad.masked_attention(q, q, q, mask=mask, heads=2,
                                   return_weights=True)
print(f"attention weight 5->4 (masked): {weights.data[:, 5, 4].max():.1f}")
print(f"attention weight 5->3 (open):   {weights.data[:, 5, 3].max():.3f}")
