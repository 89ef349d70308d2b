"""Built-in checkers; importing this package registers them all."""

from . import (  # noqa: F401
    asyncio_rules,
    drift,
    exactness,
    heavy_import,
    locks,
    tracing,
)

__all__ = ["asyncio_rules", "drift", "exactness", "heavy_import", "locks",
           "tracing"]
