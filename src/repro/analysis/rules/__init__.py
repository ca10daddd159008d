"""Rule suite: importing this package populates ``RULE_REGISTRY``.

To add a rule, drop a module here with a ``@register``-decorated
:class:`repro.analysis.core.Rule` subclass and import it below.
"""

from repro.analysis.rules import (  # noqa: F401
    crypto_random,
    determinism,
    global_fallback,
    hotpath,
    key_serialization,
    lock_discipline,
    metrics_naming,
    nonce_reuse,
    protocol_complete,
)
