"""Rule modules of ``repro lint``.

Importing this package registers every check with the registry (the
``@rule`` decorators run at import time); :func:`repro.lint.run_lint`
does so lazily on first use.
"""

from . import determinism, fingerprint  # noqa: F401
