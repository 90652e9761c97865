"""Per-layer reference forms of the fused parameter updates.

`sfedkd.model.sgd_step` and `sfedkd.engine.weighted_average` each run once
over the flat parameter buffer. These are the straightforward per-layer
loops they replaced; the tests compare the two byte for byte. `param_sets`
draws their inputs, and `params_of` packs per-layer arrays into a set.
"""

import numpy as np
from hypothesis import strategies as st

from sfedkd.model import ModelParams

# finite values with both signed zeros drawn often
VALUES = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


def params_of(weights, biases) -> ModelParams:
    """The parameter set of per-layer (out, in) weight and (out,) bias arrays."""
    dims = (weights[0].shape[1], *(w.shape[0] for w in weights))
    return ModelParams(np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair],
                                      dtype=np.float64), dims)


@st.composite
def param_sets(draw, count: int) -> list[ModelParams]:
    """`count` parameter sets of one shape with 1-3 hidden layers."""
    dims = (draw(st.integers(1, 5)), *draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)),
            draw(st.integers(1, 4)))
    size = sum(i * o + o for i, o in zip(dims[:-1], dims[1:]))
    flat = st.lists(VALUES, min_size=size, max_size=size)
    return [ModelParams(np.array(draw(flat)), dims) for _ in range(count)]


def sgd_step_oracle(params: ModelParams, grads: ModelParams, eta: float,
                    weight_decay: float = 0.0) -> ModelParams:
    """w <- w - eta * (grad + weight_decay * w); biases skip the decay."""
    new_w = [w - eta * (g + weight_decay * w) for w, g in zip(params.weights, grads.weights)]
    new_b = [b - eta * g for b, g in zip(params.biases, grads.biases)]
    return params_of(new_w, new_b)


def weighted_average_oracle(params_list: list[ModelParams], weights) -> ModelParams:
    """Elementwise parameter average, accumulated layer by layer."""
    w = np.asarray(weights, dtype=np.float64)
    w = w / w.sum()
    avg_w = [np.zeros_like(x) for x in params_list[0].weights]
    avg_b = [np.zeros_like(x) for x in params_list[0].biases]
    for coeff, params in zip(w, params_list):
        for i in range(params.n_layers):
            avg_w[i] += coeff * params.weights[i]
            avg_b[i] += coeff * params.biases[i]
    return params_of(avg_w, avg_b)
