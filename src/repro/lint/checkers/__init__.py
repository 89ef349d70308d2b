"""Built-in checkers; importing this package registers them all."""

from . import (  # noqa: F401
    asyncio_rules,
    exactness,
    locks,
    ownership,
    tracing,
)
