"""Evaluation harness: regenerates every table and figure of the paper.

* :mod:`repro.eval.harness` -- shared experiment context: scaled corpus,
  trained models (disk-cached), scale profiles,
* :mod:`repro.eval.metrics` -- match/unique/plausibility/cluster metrics,
* :mod:`repro.eval.reporting` -- text/markdown table rendering,
* :mod:`repro.eval.experiments` -- one driver per paper table/figure.

Names load on first use (:mod:`repro.utils.lazy`): ``format_table`` does not
import the harness.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".harness": ["EvalContext", "BenchmarkSettings"],
        ".metrics": [
            "match_rate",
            "uniqueness_rate",
            "plausibility_rate",
            "cluster_separation",
        ],
        ".reporting": ["ExperimentResult", "format_table"],
    },
)
