"""Factory that builds replacement policies from names or specs.

The canonical catalog — names, aliases, descriptions and typed parameters —
lives in :mod:`repro.cache.replacement.spec` (:data:`POLICY_REGISTRY`).
This module keeps the historical entry points on top of it:
:func:`create_policy` accepts either a plain name (``"srrip"``), a
parameterised CLI token (``"ship:shct_bits=3"``) or a
:class:`~repro.cache.replacement.spec.PolicySpec`, and raises
:class:`~repro.common.errors.ConfigurationError` — naming the offending
token and the valid choices — for anything it does not recognise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cache.replacement.spec import PolicySpec, policy_names

if TYPE_CHECKING:
    from repro.cache.replacement.base import ReplacementPolicy


def available_policies() -> tuple[str, ...]:
    """Canonical names accepted by :func:`create_policy`, sorted."""
    return tuple(sorted(policy_names()))


def create_policy(
    name: "str | PolicySpec", num_sets: int, num_ways: int, **kwargs
) -> ReplacementPolicy:
    """Instantiate a replacement policy by name, token or spec.

    ``kwargs`` are merged over the spec's own parameters and validated
    against the registry, so a typo in a parameter name fails loudly here
    instead of surfacing as a ``TypeError`` from the builder.
    """
    return PolicySpec.of(name).build(num_sets, num_ways, **kwargs)
