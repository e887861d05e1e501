"""Experiment runtime: registry, parallel runner, cache, manifests.

The subsystem that turns the 18 per-figure experiment modules into a
managed sweep::

    from repro.runtime import run_experiments

    report = run_experiments(jobs=4, out_dir="results")
    print(report.run_dir / "manifest.json")

or, from a shell::

    python -m repro.cli experiments run --all --jobs 4 --out results

Layers (see DESIGN.md "Experiment runtime"):

* :mod:`~repro.runtime.registry` -- auto-discovers every
  ``experiments.*.run(...)`` with its defaults and declared seed;
* :mod:`~repro.runtime.runner` -- ``ProcessPoolExecutor`` sweep with
  crash isolation, per-experiment timeouts and ordered collection;
* :mod:`~repro.runtime.cache` -- content-addressed result cache keyed
  on (module source, parameters, seed, library versions);
* :mod:`~repro.runtime.manifest` -- run-manifest schema + validator;
* :mod:`~repro.runtime.serialize` -- canonical dataclass-to-JSON;
* :mod:`~repro.runtime.goldens` -- scalar snapshots for the
  golden-regression test layer.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cache": (
        "CACHE_ENTRY_SCHEMA",
        "ResultCache",
        "cache_key",
        "library_versions",
    ),
    ".goldens": ("compare_snapshots", "flatten_scalars", "golden_snapshot"),
    ".manifest": (
        "MANIFEST_SCHEMA",
        "RESULT_SCHEMA",
        "SUPPORTED_MANIFEST_SCHEMAS",
        "git_revision",
        "load_manifest",
        "validate_manifest",
    ),
    ".registry": (
        "ExperimentSpec",
        "experiment_names",
        "experiment_registry",
        "get_spec",
    ),
    ".runner": (
        "DEFAULT_TIMEOUT_S",
        "ExperimentOutcome",
        "METRICS_FILENAME",
        "RunReport",
        "TRACE_FILENAME",
        "run_experiments",
    ),
    ".serialize": (
        "canonical_json",
        "read_json",
        "to_jsonable",
        "write_json_atomic",
    ),
})
