# repro-lint: scope(drift)
"""A mini solution codec whose encoder and decoder agree: passes.  The
platform is bound from the caller's spec, so it is never encoded."""


class Widget:
    def __init__(self, platform, a, b):
        self.platform = platform
        self.a = a
        self.b = b


def solution_to_wire(solution):
    if isinstance(solution, Widget):
        return {"kind": "widget", "a": solution.a, "b": solution.b}
    raise ValueError("unknown solution")


def solution_from_wire(data, spec):
    kind = data.get("kind")
    if kind == "widget":
        return Widget(platform=spec.platform, a=data["a"], b=data["b"])
    raise ValueError("unknown kind")
