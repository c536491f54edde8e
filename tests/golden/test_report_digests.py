"""Golden report digests: checked-in SHA-256 pins on whole attack reports.

Executor-parity tests compare one live path with another, so a refactor
that moved every path together would pass them all.  These digests pin
the report bytes themselves -- ``json.dumps(report.as_dict(),
sort_keys=True)`` minus the run-varying ``kernel_backend`` stamp -- for
one ``markov:3`` attack over the session corpus, through the serial
engine and through both parallel schedules on every executor that can
run them.  The Markov stream is BLAS-free, so the bytes do not depend on
the machine.  PassFlow reports are deliberately not pinned: they depend
on the float bits of the session-trained model, which vary with BLAS.

A digest change means report bytes changed; that is never a side effect
of a refactor, so recompute a pin only for a deliberate change to the
attack, and review the new rows before committing it.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.runtime import ParallelAttackEngine, StrategySource
from repro.strategies import AttackEngine, build

BUDGETS = [1000, 4000, 12000]
SEED = 7

SERIAL_SHA256 = "4e773e9bbfdd09553c52b02f54725fb8cb343168401d6792f9e00d62be867d05"
STATIC_W2_SHA256 = "72f825897b4094c7b7b2d2808aa93ddcc071a24dafda5689cdf3ddfa1cb166a3"
ELASTIC_W2_SHA256 = "9650911a64858802e7e83f93caf8f8591136def0cc74ee966f095e97edfe0571"


def report_digest(report) -> str:
    """SHA-256 of the report's JSON form without the kernel-backend stamp."""
    payload = report.as_dict()
    payload.pop("kernel_backend")
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def markov_attack(corpus):
    return corpus[:1500], set(corpus[1500:])


def test_serial_engine(markov_attack):
    train, test_set = markov_attack
    report = AttackEngine(test_set, BUDGETS).run(
        build("markov:3", corpus=train), np.random.default_rng(SEED)
    )
    assert report_digest(report) == SERIAL_SHA256


@pytest.mark.parametrize("executor", [None, "local", "processpool"])
def test_two_worker_static(markov_attack, executor):
    """``None`` is the default executor a ``--workers 2`` attack gets."""
    train, test_set = markov_attack
    report = ParallelAttackEngine(
        test_set, BUDGETS, workers=2, executor=executor
    ).run(StrategySource("markov:3", corpus=train), seed=SEED)
    assert report_digest(report) == STATIC_W2_SHA256


@pytest.mark.parametrize("executor", ["processpool", "local", "worksteal"])
def test_two_worker_elastic(markov_attack, executor):
    train, test_set = markov_attack
    report = ParallelAttackEngine(
        test_set, BUDGETS, workers=2, schedule="elastic", executor=executor
    ).run(StrategySource("markov:3", corpus=train), seed=SEED)
    assert report_digest(report) == ELASTIC_W2_SHA256
