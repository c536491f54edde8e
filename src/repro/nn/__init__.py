"""A compact neural-network library over :mod:`repro.autograd`.

Provides exactly what PassFlow and its baselines need:

* :class:`Module` with automatic parameter/submodule registration and
  ``state_dict`` (de)serialization,
* :class:`Linear` layers with configurable initialization,
* activation modules, :class:`BatchNorm1d` / :class:`LayerNorm`,
* the residual MLP blocks used for the coupling layers' ``s`` and ``t``
  functions (Sec. III-A: "two residual blocks with a hidden size of 256"),
* optimizers (:class:`~repro.nn.optim.Adam` per Sec. IV-D, plus SGD) and
  learning-rate schedulers.

Names load their submodule on first use (:mod:`repro.utils.lazy`).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".module": ["Module", "Parameter"],
        ".linear": ["Linear"],
        ".activations": ["ReLU", "LeakyReLU", "Tanh", "Sigmoid", "Softplus"],
        ".normalization": ["BatchNorm1d", "LayerNorm"],
        ".residual": ["ResidualBlock", "ResidualMLP"],
        ".sequential": ["Sequential"],
        ".losses": ["mse_loss", "binary_cross_entropy_with_logits"],
        ".init": ["init"],
        ".optim": ["Optimizer", "SGD", "Adam", "StepDecay", "CosineDecay"],
    },
)
