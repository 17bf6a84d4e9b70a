"""Helpers shared by test modules (pytest puts this directory on ``sys.path``)."""

from fedsim.evaluation import accuracy
from fedsim.learners import ModelSpec, forward
from fedsim.params import ParamSet
from fedsim.partition import Dataset


def classifier_accuracy(params: ParamSet, model_spec: ModelSpec, ds: Dataset) -> float:
    """Accuracy of a supervised model's own head on a dataset."""
    if model_spec.head_classes is None:
        raise ValueError("model has no classifier head")
    logits = forward(params, model_spec, ds.features).pre[-1]
    return accuracy(logits.argmax(axis=1), ds.labels)
