"""Deterministic federated-learning simulator with divergence-aware aggregation.

The re-exports below are resolved on first access (PEP 562), so ``import fedsim``
or ``import fedsim.aggregation`` loads no other submodule.
"""

_EXPORTS = {  # submodule -> the names the package re-exports from it
    "aggregation": ("AggregationSpec", "ClientUpdates", "STRATEGIES", "aggregate", "coefficient_matrix",
                    "coeffs_fedavg", "coeffs_loss"),
    "config": ("ExperimentConfig", "parse_config"),
    "divergence": ("Divergence",),
    "engine": ("FederatedRunner", "RunState", "fedu_start", "run_experiment", "sample_clients"),
    "evaluation": ("EvalSpec", "accuracy", "linear_probe"),
    "learners": ("ModelSpec", "TrainerSpec", "forward", "init_params", "loss_barlow", "loss_ntxent", "loss_xent",
                 "make_views", "sgd_step", "train_clients"),
    "params": ("ParamSet", "load_checkpoint", "save_checkpoint", "weighted_sum"),
    "partition": ("Dataset", "PartitionSpec", "load_csv", "make_blobs"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
