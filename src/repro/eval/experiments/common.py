"""Shared attack runs reused by Table II and Table III drivers.

The five methods are plain strategy spec strings, each run once per
context through :meth:`repro.eval.harness.EvalContext.run_attack`.
"""

from __future__ import annotations

from typing import Dict

from repro.core.guesser import GuessingReport
from repro.eval.harness import EvalContext

METHODS = (
    "PassGAN",
    "CWAE",
    "PassFlow-Static",
    "PassFlow-Dynamic",
    "PassFlow-Dynamic+GS",
)


def dynamic_spec(ctx: EvalContext, smoothed: bool = False, with_phi: bool = True) -> str:
    """The context's Dynamic Sampling parameters as a strategy spec."""
    variant = "dynamic+gs" if smoothed else "dynamic"
    phi = "step" if with_phi else "none"
    return (
        f"passflow:{variant}?alpha={ctx.DYNAMIC_ALPHA}&batch=1024"
        f"&gamma={ctx.DYNAMIC_GAMMA}&phi={phi}&sigma={ctx.DYNAMIC_SIGMA}"
    )


def static_spec(ctx: EvalContext) -> str:
    """The context's static-sampling parameters as a strategy spec."""
    return f"passflow:static?temperature={ctx.STATIC_TEMPERATURE}"


def collect_reports(ctx: EvalContext) -> Dict[str, GuessingReport]:
    """Run (once per context) the five attacks of Tables II/III."""
    cached = getattr(ctx, "_table23_reports", None)
    if cached is not None:
        return cached

    runs = (
        ("PassGAN", "passgan", "passgan"),
        ("CWAE", "cwae", "cwae"),
        ("PassFlow-Static", static_spec(ctx), "static"),
        ("PassFlow-Dynamic", dynamic_spec(ctx), "dynamic"),
        ("PassFlow-Dynamic+GS", dynamic_spec(ctx, smoothed=True), "dynamic-gs"),
    )
    reports: Dict[str, GuessingReport] = {
        method: ctx.run_attack(spec, label, method=method)
        for method, spec, label in runs
    }

    ctx._table23_reports = reports
    return reports
