"""Layer spans from a profile hook: where the CPU of one run goes.

``LayerTracer`` installs a ``sys.setprofile`` hook for the duration of
one ``Cluster.run`` call.  It opens a span each time a call or a
generator resumption enters a layer (a ``repro`` package, see
:func:`layer_of`) from a *different* layer, and closes it when that
frame returns or yields.  Frames outside ``repro`` (the standard
library) are charged to the layer that called them.

Each span records its layer, start, end and parent span, in flat
arrays kept in memory; :meth:`LayerTracer.write` saves them once the
benchmark is done.  A layer's self time is the time of its spans minus
the time of their child spans, so the self shares of all layers sum to
one over the traced run.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path
from typing import Dict, List, Optional

#: every layer a span can name, in report order: the packages of
#: ``src/repro`` (``node.storage`` split from ``node``) plus ``cluster``
#: for the modules at the package root (``repro/cluster.py``)
LAYERS = ("sim", "net", "node", "node.storage", "core", "cc", "commit",
          "client", "shard", "audit", "analysis", "workload", "protocols",
          "obs", "cluster")

_MARK = "/repro/"


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to; None outside ``repro``."""
    cut = filename.rfind(_MARK)
    if cut < 0:
        return None
    parts = filename[cut + len(_MARK):].split("/")
    if len(parts) == 1:
        return "cluster"
    if parts[0] == "node" and parts[1] == "storage":
        return "node.storage"
    return parts[0] if parts[0] in LAYERS else None


class LayerTracer:
    """Span recorder for one traced run (see the module docstring)."""

    def __init__(self):
        self.layer = array("b")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")

    def run(self, fn, *args):
        """Call ``fn(*args)`` with the hook installed; returns its value."""
        layer_ids: Dict[object, int] = {}
        span_layer, span_parent = self.layer, self.parent
        span_start, span_end = self.start, self.end
        # one entry per live frame: the span it opened, or -1
        frames: List[int] = []
        # the open spans, innermost last, and their layers
        open_spans: List[int] = [-1]
        open_layers: List[int] = [-1]
        clock = time.perf_counter
        index_of = {name: i for i, name in enumerate(LAYERS)}

        def hook(frame, event, _arg):
            if event == "call":
                code = frame.f_code
                layer = layer_ids.get(code)
                if layer is None:
                    name = layer_of(code.co_filename)
                    layer = layer_ids[code] = (
                        -1 if name is None else index_of[name])
                if layer < 0 or layer == open_layers[-1]:
                    frames.append(-1)
                    return
                span = len(span_layer)
                span_layer.append(layer)
                span_parent.append(open_spans[-1])
                span_start.append(clock())
                span_end.append(0.0)
                frames.append(span)
                open_spans.append(span)
                open_layers.append(layer)
            elif event == "return" and frames:
                span = frames.pop()
                if span >= 0:
                    span_end[span] = clock()
                    open_spans.pop()
                    open_layers.pop()

        sys.setprofile(hook)
        try:
            return fn(*args)
        finally:
            sys.setprofile(None)

    @property
    def spans(self) -> int:
        return len(self.layer)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``self_share`` of the traced time and ``calls_in``."""
        self_time = [0.0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        for span in range(len(layer)):
            duration = end[span] - start[span]
            self_time[layer[span]] += duration
            calls[layer[span]] += 1
            if parent[span] >= 0:
                self_time[layer[parent[span]]] -= duration
        total = sum(self_time) or 1.0
        return {name: {"self_share": self_time[i] / total,
                       "calls_in": calls[i]}
                for i, name in enumerate(LAYERS)}

    def write(self, path: Path) -> None:
        """Save the spans: ``path`` gets the raw arrays, ``path.json`` a
        header naming their layout."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as out:
            for column in (self.layer, self.parent, self.start, self.end):
                column.tofile(out)
        header = {"spans": self.spans, "layers": list(LAYERS),
                  "columns": [["layer", "int8"], ["parent", "int32"],
                              ["start", "float64"], ["end", "float64"]],
                  "clock": "time.perf_counter seconds"}
        path.with_suffix(".json").write_text(json.dumps(header) + "\n")
