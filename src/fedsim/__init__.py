"""Deterministic federated-learning simulator with divergence-aware aggregation."""

from .aggregation import (
    AggregationSpec,
    ClientUpdate,
    STRATEGIES,
    aggregate,
    coefficient_matrix,
    coeffs_fedavg,
    coeffs_loss,
)
from .config import ExperimentConfig, parse_config
from .divergence import Divergence
from .engine import FederatedRunner, RunState, fedu_policy, run_experiment, sample_clients
from .evaluation import EvalSpec, accuracy, divergence_series, linear_probe
from .learners import (
    ModelSpec,
    TrainerSpec,
    forward,
    init_params,
    loss_barlow,
    loss_ntxent,
    loss_xent,
    make_views,
    sgd_step,
    train_clients,
)
from .params import ParamSet, load_checkpoint, save_checkpoint, weighted_sum
from .partition import Dataset, PartitionSpec, load_csv, make_blobs, partition

__version__ = "0.1.0"
