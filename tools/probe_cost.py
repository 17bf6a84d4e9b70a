"""Wall time of the linear probe at the cross-device shape, per probe and per head step.

Usage (from the repository root):

    PYTHONPATH=src python tools/probe_cost.py

Probes a fixed-seed random encoder (32, 64, 32) on 16 Gaussian classes
(``make_blobs``, spread 1.0): 12,800 training rows and 3,200 test rows,
every training row labelled, with ``EvalSpec(epochs=30, milestones=(20, 26),
lr=0.1)`` and its batch of 128, so the head takes 30 x 100 = 3,000 steps.
Runs ``linear_probe`` 5 times and prints the best wall time, that time
divided by the head's steps (which also spreads the encoding and the test
pass over them) and the accuracy, which is the same in every run. Public API only.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np

from fedsim.evaluation import EvalSpec, linear_probe
from fedsim.learners import ModelSpec, init_params
from fedsim.partition import make_blobs

CLASSES, FEATURES, TRAIN_PER_CLASS, TEST_PER_CLASS = 16, 32, 800, 200
SPEC = EvalSpec(epochs=30, milestones=(20, 26), lr=0.1)
REPEATS = 5


def main() -> int:
    encoder = ModelSpec((FEATURES, 64, 32))
    params = init_params(encoder, np.random.default_rng(0))
    train = make_blobs(CLASSES, TRAIN_PER_CLASS, FEATURES, spread=1.0, seed=1)
    test = make_blobs(CLASSES, TEST_PER_CLASS, FEATURES, spread=1.0, seed=2)
    steps = SPEC.epochs * math.ceil(len(train) / SPEC.batch_size)
    times, accs = [], set()
    for _ in range(REPEATS):
        start = time.perf_counter()
        accs.update(linear_probe(params, encoder, train, test, SPEC, [1.0]))
        times.append(time.perf_counter() - start)
    best = min(times)
    print(f"probe best_of_{REPEATS}_ms {best * 1e3:.1f} us_per_head_step {best / steps * 1e6:.1f} "
          f"steps {steps} accuracy {' '.join(f'{a:.4f}' for a in sorted(accs))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
