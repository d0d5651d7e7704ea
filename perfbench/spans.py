"""In-memory spans around calls into the package's layers.

A span records the name `<module>.<function>` of one call, its start and
end on the `time.perf_counter` clock, the span that was open when it
started, the item and pass it belongs to, and optional counts returned by
a hook that inspects the call's arguments and result.  Spans are only
recorded by the benchmark's own wrappers: the package is never edited, and
names are patched only inside the process that runs the benchmark.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import asdict, dataclass, field

# names `lo_dynamics.analysis` imports from other layers; the traced run
# wraps them there too, so that the self time of `analysis` excludes them
ANALYSIS_IMPORTS = ("detect_phi_hits", "to_profile", "rescale_profile")


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    item: str | None
    pass_no: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for one process; `item` and `pass_no` tag new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.item: str | None = None
        self.pass_no = -1

    def begin(self, name: str, start: float | None = None) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, parent, self.item, self.pass_no,
                    time.perf_counter() if start is None else start)
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, hooks: dict):
        """`fn` with a span named `<module>.<function>` around every call.
        `hooks[name](arguments, result)`, if present, returns the counts
        recorded on the span, outside its timed interval."""
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        hook = hooks.get(name)
        sig = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = hook(bound.arguments, result)
            return result

        return traced

    def patch(self, owner, attrs, hooks: dict) -> list:
        """Replace the functions `owner.<attr>` (a module or a namespace)
        by traced wrappers.  Returns what `unpatch` restores."""
        saved = []
        for attr in attrs:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, hooks))
        return saved

    @staticmethod
    def unpatch(saved: list) -> None:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]

    def adopt(self, rows: list[dict]) -> None:
        """Add spans another process wrote with `to_json`, renumbered and
        placed under the span open here.  `perf_counter` is the system-wide
        monotonic clock on Linux, so their times compare with ours."""
        first = len(self.spans)
        root = self._open[-1].id if self._open else None
        for row in rows:
            parent = row["parent"]
            self.spans.append(Span(row["id"] + first, row["name"],
                                   root if parent is None else parent + first,
                                   self.item, self.pass_no, row["start"], row["end"],
                                   row["counts"]))


def self_times(spans: list[Span], duration=lambda s: s.duration) -> dict[str, float]:
    """Time per layer not covered by the span's direct children, with each
    span's length taken from `duration`.

    Calls are sequential, so children of one span never overlap and the
    covered time is the sum of their durations."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + duration(s)
    out: dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + duration(s) - child_time.get(s.id, 0.0)
    return out
