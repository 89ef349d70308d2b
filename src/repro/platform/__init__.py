"""Platform substrate: the weighted digraph model of section 2 + generators,
topology discovery (section 5.3) and monitoring (section 5.5) simulations."""

from . import generators, serialization

__all__ = ["generators", "serialization"]
