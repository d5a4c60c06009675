"""In-memory span tracer that hooks a library from outside its code.

A hook swaps one attribute, a module-level function or a class method, for
a wrapper that records a span ``[name, start, end, parent, trace_id, tag]``
each time it is called.  ``parent`` is the index of the innermost hooked
call still open, so spans form a tree per call chain.  A hook marked
``starts_trace`` opens a new trace id when it is entered outside any other
span; the benchmark marks the plane-wave right-hand side, so every
right-hand side gets its own trace id and set-up spans keep id 0.

Only names the library looks up at call time can be hooked this way: a
module global read inside a function body, or a method found on the class.
A hook whose attribute no longer exists is skipped and listed in
``missing`` instead of raising.  Spans stay in memory until the caller
writes them out.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, TRACE, TAG = range(6)

Span = List[Any]


@dataclass(frozen=True)
class Hook:
    """One attribute to wrap and the span name its calls are recorded under.

    ``tag`` receives the call's positional arguments and its result and
    returns a small value kept on the span (an entry count, a level).
    """

    owner: Any
    attr: str
    span: str
    tag: Optional[Callable[[Tuple[Any, ...], Any], Any]] = None
    starts_trace: bool = False


class Tracer:
    """Installs hooks, records spans while installed, restores on exit."""

    def __init__(self, hooks: Sequence[Hook]) -> None:
        self.hooks = list(hooks)
        self.spans: List[Span] = []
        self.missing = sorted({h.span for h in self.hooks if h.attr not in vars(h.owner)})
        self._stack: List[int] = []
        self._trace_id = 0
        self._saved: List[Tuple[Any, str, Any]] = []

    def _wrap(self, hook: Hook, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack = self.spans, self._stack
        name, tag, starts_trace = hook.span, hook.tag, hook.starts_trace

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if starts_trace and not stack:
                self._trace_id += 1
            record: Span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._trace_id, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()
            if tag is not None:
                record[TAG] = tag(args, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        """Clear earlier spans and install every hook whose attribute exists."""
        self.spans.clear()
        self._stack.clear()
        self._trace_id = 0
        for hook in self.hooks:
            namespace = vars(hook.owner)
            if hook.attr not in namespace:
                continue
            original = namespace[hook.attr]
            self._saved.append((hook.owner, hook.attr, original))
            setattr(hook.owner, hook.attr, self._wrap(hook, original))
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Calls, total time and self time per span name."""
    out: Dict[str, Dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s[END] - s[START]
        row["self_s"] += own
    return out
