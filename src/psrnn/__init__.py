"""Recurrent intra prediction at desk scale.

A self-contained pipeline around a progressive spatial recurrent predictor:
batched float64 convolution and GRU-sweep kernels with exact manual
gradients, the tiled Hadamard SATD loss with its smoothed analytic gradient,
an HEVC-style 35-mode angular baseline, quantization-noise data preparation,
a deterministic trainer, and an RDO-lite evaluation harness that races the
network against the baseline under an SATD + lambda * bits cost.
"""

from .errors import (ConfigError, DivergenceError, FormatError, IntegrityError,
                     ModeError, PartitionError, ShapeError, SizeError,
                     UsageError, VersionError)
from .hadamard import SatdConfig, hadamard_matrix, satd, satd_batch, satd_loss_grad_batch
from .layers import AdamState, GruParams, adam_step, gru_sweep_backward, gru_sweep_forward
from .model import (NetworkConfig, PsRnnNetwork, backward_batch, build_network,
                    forward_batch, load_model, save_model)
from .training import EvalConfig, EvalReport, TrainConfig, evaluate, loss_and_grad, train

__version__ = "0.1.0"
