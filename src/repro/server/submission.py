"""The JSON submission protocol of the ``repro serve`` daemon.

A submission is the wire form of a :class:`~repro.api.scenario.Scenario` —
the *same* versioned payload :meth:`Scenario.from_dict` accepts, built and
consumed by one serializer shared with the CLI and the tests::

    {
      "v": 1,                                  # optional schema version
      "benchmarks": ["tiny"],                  # names, family tokens, "tiny"
      "cores": ["zipf:alpha=1.2", "streaming"],# multi-core mode (alternative)
      "interleave": [2, 1],                    # optional per-core quanta
      "policies": ["lru", "ship:shct_bits=3"], # optional; default baseline
      "config": "scaled",                      # optional; named configuration
      "track_reuse": false,                    # optional; reuse histograms
      "warmup_instructions": 2000,             # optional phase overrides
      "measure_instructions": 6000,
      "label": "my study"                      # optional free-form tag
    }

Validation is eager and total: unknown fields, unknown workloads/policies/
configurations and empty axes all fail here with a
:class:`SubmissionError` (HTTP 400) before anything is queued; when the
rejection is about one specific token, ``SubmissionError.token`` carries it
so the HTTP layer can echo it structurally.  Parsing also expands the
scenario into its :class:`~repro.api.scenario.RunPlan` and derives two kinds
of content hash from it:

* one store key per requested point — :func:`~repro.experiments.store.run_key`
  for single-core points, :func:`~repro.experiments.store.multicore_run_key`
  for interleaved multi-core points — the exact keys a direct
  ``repro run``/``repro sweep`` of the same grid would write, echoed in the
  result payload so clients can correlate served results with store entries;
* the **job key**: a stable hash over the ordered run keys.  Two
  submissions with equal job keys are served by one job (and therefore one
  set of simulations) — the in-flight dedup the job manager applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.api.scenario import (
    SCENARIO_SCHEMA_VERSION,
    TINY_TOKEN,
    RunPlan,
    Scenario,
    build_plan,
)
from repro.common.errors import ReproError
from repro.common.hashing import stable_hash
from repro.core.pipeline import PipelineOptions
from repro.sim.config import NAMED_CONFIGS

#: Submission schema version, folded into every job key.
SUBMISSION_SCHEMA = 1

#: The accepted top-level payload fields (the scenario wire fields).
FIELDS = (
    "v",
    "benchmarks",
    "cores",
    "interleave",
    "policies",
    "config",
    "track_reuse",
    "warmup_instructions",
    "measure_instructions",
    "label",
)


class SubmissionError(ReproError):
    """A submission payload failed validation (HTTP 400).

    ``token`` carries the offending workload/policy/core token when the
    rejection is about one specific token (``None`` for structural errors).
    """

    def __init__(self, message: str, token: Optional[str] = None) -> None:
        super().__init__(message)
        self.token = token


@dataclass(frozen=True)
class ParsedSubmission:
    """A validated submission, expanded and content-addressed."""

    #: Normalised echo of the payload (defaults filled in), JSON-safe.
    normalized: dict
    #: The scenario the job will execute.
    scenario: Scenario
    #: Its expanded, deduplicated plan (built eagerly: free, and it is what
    #: surfaces unknown-workload/policy errors before queueing).
    plan: RunPlan
    #: One result-store key per requested point, in request order.
    run_keys: tuple[str, ...]
    #: Content hash identifying the whole job (dedup coordinate).
    job_key: str

    @property
    def total_points(self) -> int:
        return len(self.plan.requests)

    @property
    def unique_points(self) -> int:
        return len(self.plan.unique)

    def wire(self) -> dict:
        """The submission's journal form: a re-parseable wire payload.

        Built from the *parsed* scenario's versioned serialization (not the
        raw client payload) so the journal always holds a normalized,
        schema-versioned document.  Fields :meth:`Scenario.to_dict` emits
        as empty/``None`` that :func:`parse_submission` would reject or
        treat differently are dropped; re-parsing the result yields the
        same job key — pinned by ``tests/test_server_durability.py``.
        """
        payload = self.scenario.to_dict()
        for field in ("benchmarks", "cores", "interleave"):
            if not payload.get(field):
                payload.pop(field, None)
        for field in ("warmup_instructions", "measure_instructions"):
            if payload.get(field) is None:
                payload.pop(field, None)
        return payload


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SubmissionError(message)


def _string_list(payload: dict, field: str) -> list[str]:
    values = payload.get(field)
    _require(isinstance(values, list) and values, f"{field!r} must be a non-empty list")
    for value in values:
        _require(
            isinstance(value, str) and value.strip(),
            f"{field!r} entries must be non-empty strings",
        )
    return [value.strip() for value in values]


def parse_submission(
    payload: object, default_config: str = "scaled"
) -> ParsedSubmission:
    """Validate a submission payload and expand it into a plan.

    Structural checks (field shapes, the protocol's error-message contract)
    happen here; scenario construction — token resolution included — goes
    through :meth:`Scenario.from_dict`, the one serializer the CLI and the
    tests also use.  Raises :class:`SubmissionError` on any problem, with
    ``token`` set when one submitted token caused the rejection.
    """
    _require(isinstance(payload, dict), "submission must be a JSON object")
    unknown = sorted(set(payload) - set(FIELDS))
    _require(
        not unknown,
        f"unknown submission field(s) {', '.join(map(repr, unknown))}; "
        f"expected a subset of {', '.join(FIELDS)}",
    )
    _require(
        "benchmarks" in payload or "cores" in payload,
        "submission needs a 'benchmarks' list (or 'cores' for multi-core)",
    )

    benchmark_tokens = (
        _string_list(payload, "benchmarks") if "benchmarks" in payload else []
    )
    core_tokens = _string_list(payload, "cores") if "cores" in payload else []
    policy_tokens = (
        _string_list(payload, "policies")
        if payload.get("policies") is not None
        else None
    )
    config_name = payload.get("config", default_config)
    _require(
        isinstance(config_name, str) and config_name in NAMED_CONFIGS,
        f"unknown configuration {config_name!r}; expected one of "
        f"{', '.join(NAMED_CONFIGS)}",
    )
    for field in ("warmup_instructions", "measure_instructions"):
        value = payload.get(field)
        if value is not None:
            _require(
                isinstance(value, int) and not isinstance(value, bool) and value > 0,
                f"{field!r} must be a positive integer",
            )

    wire = {
        "v": payload.get("v", SCENARIO_SCHEMA_VERSION),
        "benchmarks": benchmark_tokens,
        "cores": core_tokens,
        "interleave": payload.get("interleave"),
        "policies": policy_tokens,
        "config": config_name,
        "warmup_instructions": payload.get("warmup_instructions"),
        "measure_instructions": payload.get("measure_instructions"),
        "track_reuse": payload.get("track_reuse", False),
        "label": payload.get("label", ""),
    }
    try:
        scenario = Scenario.from_dict(wire)
        # Expansion resolves every workload/policy token eagerly — an
        # unknown name fails here, before the job exists.
        plan = build_plan((scenario,), options=PipelineOptions())
        # Policies that validate per-geometry (partition way layouts) are
        # built eagerly against the L2 they will run on, so a bad layout is
        # a 400 at submission, not a failed job later.
        _check_policy_geometry(scenario)
    except SubmissionError:
        raise
    except ReproError as error:
        raise SubmissionError(
            str(error), token=getattr(error, "token", None)
        ) from error

    run_keys = tuple(request.store_key() for request in plan.requests)
    job_key = stable_hash(
        {
            "schema": SUBMISSION_SCHEMA,
            "run_keys": list(run_keys),
            "track_reuse": scenario.track_reuse,
        }
    )
    normalized = {
        "benchmarks": benchmark_tokens,
        "policies": policy_tokens if policy_tokens is not None else [
            policy.canonical() for policy in scenario.policies
        ],
        "config": config_name,
        "track_reuse": scenario.track_reuse,
        "label": scenario.label,
    }
    if core_tokens:
        normalized["cores"] = core_tokens
        normalized["interleave"] = list(
            scenario.interleave or (1,) * len(scenario.cores)
        )
    for field in ("warmup_instructions", "measure_instructions"):
        if payload.get(field) is not None:
            normalized[field] = payload[field]
    return ParsedSubmission(
        normalized=normalized,
        scenario=scenario,
        plan=plan,
        run_keys=run_keys,
        job_key=job_key,
    )


def _check_policy_geometry(scenario: Scenario) -> None:
    """Instantiate each policy against the scenario's L2 geometry.

    Cheap (a few small policy objects) and surfaces geometry-dependent
    validation — a ``partition`` way layout that does not cover the L2 —
    as a :class:`SubmissionError` naming the policy token.
    """
    config = scenario.config
    if config is None:  # pragma: no cover - from_dict always sets one here
        return
    l2 = config.hierarchy.l2
    num_sets = l2.size_bytes // (l2.associativity * config.hierarchy.line_size)
    for policy in scenario.policies:
        try:
            policy.build(num_sets, l2.associativity)
        except ReproError as error:
            raise SubmissionError(
                str(error), token=policy.canonical()
            ) from error


__all__ = [
    "FIELDS",
    "ParsedSubmission",
    "SubmissionError",
    "SUBMISSION_SCHEMA",
    "TINY_TOKEN",
    "parse_submission",
]
