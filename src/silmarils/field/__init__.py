"""Prime-field arithmetic with a runtime-selectable modulus.

Two interchangeable backends provide the Prime/FieldElement types: a compiled
one (built from _fast.pyx, with a machine-word fast path for moduli below
2^63) and a pure-Python one.  The compiled backend is preferred when
importable; set SILMARILS_BACKEND=pure or =fast to force the choice.  Both
backends are always importable directly (silmarils.field._pure / ._fast) so
equivalence tests can run them side by side.
"""

import os as _os

from .counting import OpCounter, count_field_ops
from .primality import is_prime

_requested = _os.environ.get("SILMARILS_BACKEND", "")
if _requested == "pure":
    from . import _pure as _backend
elif _requested == "fast":
    from . import _fast as _backend
elif _requested:
    raise ImportError(f"unknown SILMARILS_BACKEND {_requested!r} (use 'pure' or 'fast')")
else:
    try:
        from . import _fast as _backend
    except ImportError:
        from . import _pure as _backend

Prime = _backend.Prime
FieldElement = _backend.FieldElement
BACKEND = "pure" if _backend.__name__.endswith("_pure") else "fast"

WIDE_BYTES = 64
SECURE_PRIME_VALUE = 2**255 - 19


def available_backends() -> dict:
    """Importable backend modules by name, for side-by-side benchmarks."""
    from . import _pure

    backends = {"pure": _pure}
    try:
        from . import _fast
    except ImportError:
        pass
    else:
        backends["fast"] = _fast
    return backends


__all__ = [
    "available_backends",
    "BACKEND",
    "FieldElement",
    "OpCounter",
    "Prime",
    "SECURE_PRIME_VALUE",
    "WIDE_BYTES",
    "count_field_ops",
    "is_prime",
]
