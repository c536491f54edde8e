"""The PassFlow model: configuration, construction and training.

Architecture (Sec. III-A, IV-D): a dequantize+logit preprocessing bijector
followed by 18 affine coupling layers whose s/t nets are residual MLPs
(2 blocks, hidden 256), with alternating char-run-1 binary masks; trained
with Adam (lr 1e-3, batch 512) on exact NLL (Eq. 7).  All sizes are
configurable so tests and CPU-scale experiments can shrink the network; the
``paper()`` constructor pins the published values.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.autograd import Tensor
from repro.data.alphabet import Alphabet, default_alphabet
from repro.data.dataset import PasswordDataset
from repro.data.encoding import PasswordEncoder
from repro.flows import (
    ActNorm,
    AffineCoupling,
    Flow,
    LogitTransform,
    StandardNormalPrior,
    alternating_masks,
)
from repro.flows.priors import Prior
from repro.nn.optim import Adam
from repro.utils.logging import get_logger
from repro.utils.rng import RngStream
from repro.utils.serialization import load_checkpoint, save_checkpoint
from repro.utils.text import _clip

logger = get_logger("core.model")


class ModelLoadError(ValueError):
    """A checkpoint that cannot be loaded, as one ``cannot load model`` line."""


#: What reading, parsing and rebuilding an untrusted checkpoint can raise.
_LOAD_ERRORS = (OSError, EOFError, ValueError, KeyError, IndexError, TypeError,
                AttributeError, MemoryError, zipfile.BadZipFile)


@dataclass
class PassFlowConfig:
    """Hyper-parameters of the PassFlow architecture and training loop."""

    max_length: int = 10
    alphabet_chars: Optional[str] = None  # None -> library default alphabet
    num_couplings: int = 18
    hidden: int = 256
    num_blocks: int = 2
    coupling_type: str = "affine"  # "affine" (RealNVP, the paper) or "additive" (NICE)
    mask_strategy: str = "char-run-1"
    scale_clamp: float = 2.0
    logit_alpha: float = 0.05
    use_actnorm: bool = False
    learning_rate: float = 1e-3
    batch_size: int = 512
    epochs: int = 400
    grad_clip_norm: Optional[float] = 50.0
    seed: int = 0

    @classmethod
    def paper(cls) -> "PassFlowConfig":
        """Exactly the published configuration (Sec. IV-D)."""
        return cls()

    @classmethod
    def small(cls, seed: int = 0) -> "PassFlowConfig":
        """CPU-scale configuration for experiments in this repository."""
        return cls(num_couplings=8, hidden=48, epochs=30, batch_size=256, seed=seed)

    @classmethod
    def tiny(cls, seed: int = 0) -> "PassFlowConfig":
        """Smallest useful configuration, for unit tests."""
        return cls(num_couplings=4, hidden=24, epochs=5, batch_size=128, seed=seed)


@dataclass
class TrainingHistory:
    """Per-epoch records produced by :meth:`PassFlow.fit`."""

    nll: List[float] = field(default_factory=list)
    grad_norm: List[float] = field(default_factory=list)
    val_nll: List[float] = field(default_factory=list)

    @property
    def best_epoch(self) -> int:
        """Index of the lowest-NLL epoch ("we pick the best performing epoch").

        Uses validation NLL when it was tracked, training NLL otherwise.
        """
        series = self.val_nll if self.val_nll else self.nll
        if not series:
            raise ValueError("history is empty")
        return int(np.argmin(series))


class PassFlow:
    """Flow-based password guessing model.

    High-level API:

    * :meth:`fit` -- NLL training on a :class:`PasswordDataset` or raw list,
    * :meth:`sample_passwords` -- draw guesses (optionally under an
      alternative prior: this is the hook Dynamic Sampling uses),
    * :meth:`encode_passwords` / :meth:`decode_latents` -- the explicit
      latent mapping f / f^-1 that GANs lack (Sec. I),
    * :meth:`log_prob` -- exact per-password log-density,
    * :meth:`save` / :meth:`load` -- checkpointing.
    """

    def __init__(self, config: Optional[PassFlowConfig] = None) -> None:
        self.config = config or PassFlowConfig()
        chars = self.config.alphabet_chars
        self.alphabet = Alphabet(chars) if chars else default_alphabet()
        self.encoder = PasswordEncoder(self.alphabet, max_length=self.config.max_length)
        self.rng_streams = RngStream(self.config.seed)
        self.flow = self._build_flow()
        self.history = TrainingHistory()

    def _build_flow(self) -> Flow:
        cfg = self.config
        dim = cfg.max_length
        init_rng = self.rng_streams.get("weights")
        if cfg.coupling_type not in ("affine", "additive"):
            raise ValueError("coupling_type must be 'affine' or 'additive'")
        bijectors = [LogitTransform(alpha=cfg.logit_alpha)]
        masks = alternating_masks(cfg.mask_strategy, dim, cfg.num_couplings)
        for mask in masks:
            if cfg.use_actnorm:
                bijectors.append(ActNorm(dim))
            if cfg.coupling_type == "affine":
                bijectors.append(
                    AffineCoupling(
                        mask,
                        hidden=cfg.hidden,
                        num_blocks=cfg.num_blocks,
                        scale_clamp=cfg.scale_clamp,
                        rng=init_rng,
                    )
                )
            else:
                from repro.flows.additive import AdditiveCoupling

                bijectors.append(
                    AdditiveCoupling(
                        mask, hidden=cfg.hidden, num_blocks=cfg.num_blocks, rng=init_rng
                    )
                )
        return Flow(bijectors, prior=StandardNormalPrior(dim))

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(
        self,
        data: Union[PasswordDataset, Sequence[str]],
        epochs: Optional[int] = None,
        batch_size: Optional[int] = None,
        verbose: bool = False,
        keep_best: bool = False,
        validation: Optional[Sequence[str]] = None,
    ) -> TrainingHistory:
        """Train by minimizing Eq. 7's mean NLL; returns the epoch history.

        With ``keep_best=True`` the weights of the best epoch are restored
        at the end -- Sec. IV-D: "We pick the best performing epoch for our
        password generation task".  "Best" means lowest validation NLL when
        ``validation`` passwords are given, lowest training NLL otherwise.
        """
        dataset = self._as_dataset(data)
        epochs = epochs if epochs is not None else self.config.epochs
        batch_size = batch_size if batch_size is not None else self.config.batch_size
        optimizer = Adam(
            self.flow.parameters(),
            lr=self.config.learning_rate,
            clip_norm=self.config.grad_clip_norm,
        )
        train_rng = self.rng_streams.get("train")
        val_features = (
            self.encoder.encode_batch(list(validation)) if validation else None
        )
        best_metric = np.inf
        best_state = None
        self.flow.train()
        for epoch in range(epochs):
            losses: List[float] = []
            norms: List[float] = []
            for batch in dataset.batches(batch_size, train_rng):
                optimizer.zero_grad()
                loss = self.flow.nll(Tensor(batch))
                loss.backward()
                norms.append(optimizer.grad_global_norm())
                optimizer.step()
                losses.append(loss.item())
            epoch_nll = float(np.mean(losses))
            if not np.isfinite(epoch_nll):
                raise FloatingPointError(
                    f"training diverged at epoch {epoch + 1} (NLL={epoch_nll})"
                )
            self.history.nll.append(epoch_nll)
            self.history.grad_norm.append(float(np.mean(norms)))
            if val_features is not None:
                metric = -float(np.mean(self.flow.log_prob(val_features)))
                self.history.val_nll.append(metric)
            else:
                metric = epoch_nll
            if keep_best and metric < best_metric:
                best_metric = metric
                best_state = self.flow.state_dict()
            if verbose:
                logger.info("epoch %d/%d nll=%.4f", epoch + 1, epochs, epoch_nll)
        if keep_best and best_state is not None:
            self.flow.load_state_dict(best_state)
        self.flow.eval()
        return self.history

    def _as_dataset(self, data: Union[PasswordDataset, Sequence[str]]) -> PasswordDataset:
        if isinstance(data, PasswordDataset):
            return data
        return PasswordDataset(list(data), [], self.encoder)

    # ------------------------------------------------------------------
    # latent-space API
    # ------------------------------------------------------------------
    def encode_passwords(self, passwords: Sequence[str]) -> np.ndarray:
        """Passwords -> latent points z = f(x) (bin-center features)."""
        features = self.encoder.encode_batch(passwords)
        return self.flow.encode(features)

    def decode_latents(self, latents: np.ndarray) -> List[str]:
        """Latent points -> password strings via f^-1 and binning."""
        features = self.flow.decode(latents)
        return self.encoder.decode_batch(features)

    def decode_latents_to_features(self, latents: np.ndarray) -> np.ndarray:
        """Latent points -> raw data-space floats (pre-binning).

        Gaussian Smoothing perturbs these floats rather than the strings.
        """
        return self.flow.decode(latents)

    def sample_latents(
        self, count: int, rng: Optional[np.random.Generator] = None, prior: Optional[Prior] = None
    ) -> np.ndarray:
        rng = rng if rng is not None else self.rng_streams.get("latent")
        source = prior if prior is not None else self.flow.prior
        return source.sample(count, rng)

    def sample_passwords(
        self,
        count: int,
        rng: Optional[np.random.Generator] = None,
        prior: Optional[Prior] = None,
    ) -> List[str]:
        """Draw ``count`` password guesses from the generative process."""
        latents = self.sample_latents(count, rng=rng, prior=prior)
        return self.decode_latents(latents)

    def log_prob(self, passwords: Sequence[str]) -> np.ndarray:
        """Exact log p_theta per password (at bin centers)."""
        features = self.encoder.encode_batch(passwords)
        return self.flow.log_prob(features)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Persist weights + config + history to an ``.npz`` checkpoint."""
        metadata = {
            "config": asdict(self.config),
            "history_nll": self.history.nll,
            "history_grad_norm": self.history.grad_norm,
        }
        return save_checkpoint(path, self.flow.state_dict(), metadata)

    @classmethod
    def load(cls, path: str | Path) -> "PassFlow":
        """Restore a model saved by :meth:`save`.

        A checkpoint is untrusted input: whatever stops it loading -- a
        missing or non-``.npz`` file, no metadata, a config this build
        does not know, weights of the wrong shape -- raises
        :class:`ModelLoadError` as ``cannot load model <path>: <reason>``.
        """
        try:
            state, metadata = load_checkpoint(path)
            config = PassFlowConfig(**metadata["config"])
            model = cls(config)
            model.flow.load_state_dict(state)
            model.history = TrainingHistory(
                nll=list(metadata.get("history_nll", [])),
                grad_norm=list(metadata.get("history_grad_norm", [])),
            )
        except _LOAD_ERRORS as exc:
            # an OSError's text repeats the path; its strerror does not
            reason = getattr(exc, "strerror", None) or " ".join(str(exc).split())
            raise ModelLoadError(
                f"cannot load model {_clip(path)}: {_clip(reason or type(exc).__name__)}"
            ) from exc
        model.flow.eval()
        return model
