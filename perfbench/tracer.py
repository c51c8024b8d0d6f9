"""In-memory spans around nmixfit's public functions, and the per-layer
metrics derived from them.

The tracer patches each function in the namespace of the module that
calls it (``nmixfit.mle.table_loglik``, not ``nmixfit.likelihood``'s
own binding), so it sees exactly the calls one layer makes into the
next.  Spans are kept in a list and written out once, when the run
ends.  A layer's self time is its span minus the time its direct
children cover; the program is single-threaded, so children never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager, nullcontext

# (calling module, attribute, span name)
LAYER_FUNCTIONS = (
    ("nmixfit.mle", "table_loglik", "likelihood.table_loglik"),
    ("nmixfit.laplace", "table_loglik", "likelihood.table_loglik"),
    ("nmixfit.mle", "maximize_log_density", "fitcore.maximize_log_density"),
    ("nmixfit.laplace", "maximize_log_density", "fitcore.maximize_log_density"),
    ("nmixfit.mle", "covariance_from_log_density", "fitcore.covariance_from_log_density"),
    ("nmixfit.laplace", "covariance_from_log_density", "fitcore.covariance_from_log_density"),
    ("nmixfit.cli", "fit_ml", "mle.fit_ml"),
    ("nmixfit.cli", "fit_laplace", "laplace.fit_laplace"),
    ("nmixfit.experiments", "fit_laplace", "laplace.fit_laplace"),
    ("nmixfit.cli", "sample_posterior", "laplace.sample_posterior"),
    ("nmixfit.cli", "lambda_fitted", "laplace.lambda_fitted"),
    ("nmixfit.cli", "posterior_n", "laplace.posterior_n"),
    ("nmixfit.cli", "simulate", "simulate.simulate"),
    ("nmixfit.experiments", "simulate", "simulate.simulate"),
    ("nmixfit.cli", "read_dataset", "io.read_dataset"),
    ("nmixfit.cli", "build_designs", "io.build_designs"),
    ("nmixfit.cli", "fit_to_json", "io.write"),
    ("nmixfit.cli", "write_dataset", "io.write"),
    ("nmixfit.cli", "write_truth_csv", "io.write"),
    ("nmixfit.cli", "sim_to_datasets", "io.write"),
)

FIT_SPANS = ("mle.fit_ml", "laplace.fit_laplace")


class NullTracer:
    """Stands in for a tracer in timed runs: patches and records nothing."""

    def span(self, name, **attrs):
        return nullcontext()

    @contextmanager
    def installed(self):
        yield


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "error": None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if name in FIT_SPANS:
                record["iterations"] = result.iterations
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every function in LAYER_FUNCTIONS for the duration."""
        saved = []
        try:
            for module_name, attr, name in LAYER_FUNCTIONS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path):
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def _duration(span):
    return span["end"] - span["start"]


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans, probes):
    """Per-layer metrics over the spans inside traced rounds.

    ``probes`` carries the values measured outside spans: terms per row
    by regime, import time and tracing overhead.  Per-fit and per-call
    figures are means; ``*.self_s``, ``io.write_s`` and
    ``likelihood.failed_evals`` are per round.  A layer the workload
    does not run reports 0.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s

    rounds = [s for s in spans if s["name"] == "bench.round" and s.get("traced")]
    in_round = set()
    for r in rounds:
        stack = [r]
        while stack:
            node = stack.pop()
            in_round.add(node["id"])
            stack.extend(children.get(node["id"], []))
    timed = [s for s in spans if s["id"] in in_round]
    n_rounds = max(1, len(rounds))

    def named(*names):
        return [s for s in timed if s["name"] in names]

    def under(span_list, ancestor_names):
        return [s for s in span_list if any(a["name"] in ancestor_names for a in ancestors(s))]

    def self_time(span_list):
        return sum(
            _duration(s) - sum(_duration(c) for c in children.get(s["id"], [])) for s in span_list
        )

    fits = named(*FIT_SPANS)
    n_fits = len(fits)
    passes = named("likelihood.table_loglik")
    optimise = named("fitcore.maximize_log_density")
    covariance = named("fitcore.covariance_from_log_density")

    def per_fit(value):
        return value / n_fits if n_fits else 0.0

    metrics = {
        "likelihood.passes_per_fit": per_fit(len(under(passes, FIT_SPANS))),
        "likelihood.pass_ms": 1000.0 * statistics.median(map(_duration, passes)) if passes else 0.0,
        "likelihood.failed_evals": sum(
            1
            for s in named("likelihood.table_loglik", "likelihood.table_row_logliks")
            if s["error"] == "NumericError"
        )
        / n_rounds,
        "fitcore.optimise_passes_per_fit": per_fit(
            len(under(passes, ("fitcore.maximize_log_density",)))
        ),
        "fitcore.optimise_s_per_fit": per_fit(sum(map(_duration, optimise))),
        "fitcore.covariance_passes_per_fit": per_fit(
            len(under(passes, ("fitcore.covariance_from_log_density",)))
        ),
        "fitcore.covariance_s_per_fit": per_fit(sum(map(_duration, covariance))),
        "fitcore.iterations_per_fit": _mean([s["iterations"] for s in fits if "iterations" in s]),
        "mle.fit_s": _mean([_duration(s) for s in named("mle.fit_ml")]),
        "laplace.fit_s": _mean([_duration(s) for s in named("laplace.fit_laplace")]),
        "laplace.sample_posterior_s": _mean([_duration(s) for s in named("laplace.sample_posterior")]),
        "laplace.lambda_fitted_s": _mean([_duration(s) for s in named("laplace.lambda_fitted")]),
        "laplace.posterior_n_s": _mean([_duration(s) for s in named("laplace.posterior_n")]),
        # simulate runs in set-up on paper-analysis, so it is read from every span
        "simulate.dataset_s": _mean(
            [_duration(s) for s in spans if s["name"] == "simulate.simulate"]
        ),
        "experiments.self_s": self_time(named("experiments.run_bias_experiment")) / n_rounds,
        "io.read_dataset_s": _mean([_duration(s) for s in named("io.read_dataset")]),
        "io.build_designs_s": _mean([_duration(s) for s in named("io.build_designs")]),
        "io.write_s": sum(map(_duration, named("io.write"))) / n_rounds,
        "cli.self_s": self_time(named("cli.main")) / n_rounds,
    }
    for regime in ("typical", "sparse", "large"):
        calls = [s for s in named("likelihood.table_row_logliks") if s.get("regime") == regime]
        busy = sum(map(_duration, calls))
        metrics[f"likelihood.rows_per_s.{regime}"] = (
            sum(s["rows"] for s in calls) / busy if busy else 0.0
        )
    for regime in ("typical", "sparse", "large"):
        metrics[f"likelihood.terms_per_row.{regime}"] = 0.0
    metrics.update(probes)
    return metrics
