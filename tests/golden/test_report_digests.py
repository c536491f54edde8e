"""Golden report digests: checked-in SHA-256 pins on whole attack reports.

Executor-parity tests compare one live path with another, so a refactor
that moved every path together would pass them all.  These digests pin
the report bytes themselves -- ``json.dumps(report.as_dict(),
sort_keys=True)`` minus the run-varying ``kernel_backend`` stamp -- for
one ``markov:3`` attack over the session corpus, through the serial
engine and through both parallel schedules on every executor that can
run them, and for the other BLAS-free families (``pcfg``, ``rules``, a
``mangle`` and a ``policy`` wrapper) through the serial engine and both
schedules on the default executor.  These streams touch no BLAS, so the
bytes do not depend on the machine.  PassFlow reports are deliberately
not pinned: they depend on the float bits of the session-trained model,
which vary with BLAS.

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

#: spec -> (serial, ``--workers 2`` static, ``--workers 2`` elastic) pins
FAMILY_SHA256 = {
    "pcfg": (
        "99688273cdcd10c7b1da7bca1b51866ab222bbb3ecb9d2ae2729abb3e1a9a114",
        "aadb800f7107e57abdcf5760796410d2ceee6572c7c6175e085a5021b6213d48",
        "357c620f2cfbabcb06c354a12baae92bec31f124a827341fa87fb61d9a0102a2",
    ),
    "rules": (
        "18ae3680d7c621ca43f516f0961ae6a8ce1e7a9bb70498f7b16b751c424a3c66",
        "50b167cecbe5196f7121cbbf5a7bfee06690f1c8ee332b1fcf9569cbe1ec08c8",
        "ab33e995f326758ce27934dc6d6cbd758912011f0223183700095768dee2d85e",
    ),
    "mangle(markov:3)?rules=leet,capitalize": (
        "ded94ea7b59179d967b42bb80d750939c25bbbb073ce9c194a711523f0c2b028",
        "0ac6597958b48bc496da430a4dd73d46e6d529f566a61016f26038a6b77358ec",
        "328cd84b1d11238045e3f0159891a70978c973ae1d807e69651f2cb4f24c3362",
    ),
    "policy(markov:3)?min_len=6&classes=ld": (
        "5cf37ec04d7985a0503656e0c37deb42bc61144b83d5d67bb904596a02fcb663",
        "e74f6844d8782ad88a01b1c2c6f4538cea4aca365bf537e641ee5d8e06228184",
        "1da5e7f5bf788f9fa7b5a4db662920265ea432435148b3b23d770a29eab943df",
    ),
}


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


@pytest.mark.parametrize("executor", [None, "processpool", "local"])
def test_two_worker_elastic(markov_attack, executor):
    """``None`` is the default executor a ``--workers 2 --schedule elastic``
    attack gets."""
    train, test_set = markov_attack
    report = ParallelAttackEngine(
        test_set, BUDGETS, workers=2, schedule="elastic", executor=executor
    ).run(StrategySource("markov:3", corpus=train), seed=SEED)
    assert report_digest(report) == ELASTIC_W2_SHA256


@pytest.mark.parametrize("spec", sorted(FAMILY_SHA256))
def test_blas_free_family(markov_attack, spec):
    """Serial, then ``--workers 2`` static and elastic on the default
    executor, over the same corpus, budgets and seed as ``markov:3``."""
    train, test_set = markov_attack
    serial = AttackEngine(test_set, BUDGETS).run(
        build(spec, corpus=train), np.random.default_rng(SEED)
    )
    static, elastic = (
        ParallelAttackEngine(test_set, BUDGETS, workers=2, schedule=schedule).run(
            StrategySource(spec, corpus=train), seed=SEED
        )
        for schedule in ("static", "elastic")
    )
    digests = tuple(report_digest(r) for r in (serial, static, elastic))
    assert digests == FAMILY_SHA256[spec]
