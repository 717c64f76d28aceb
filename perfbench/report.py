"""The result of one run and the JSON line that reports it."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any


@dataclass
class Report:
    correct: bool
    attempted: int
    failed: int
    #: metric name -> (value, unit)
    metrics: dict[str, tuple[float, str]]
    #: the traced pass's tracer, whose spans the caller writes out
    tracer: Any = None

    def json_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )
