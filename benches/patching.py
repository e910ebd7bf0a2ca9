"""Replace sttrack functions where they are looked up, and put them back.

Several sttrack modules import functions by name (`runtime` holds
`kalman.predict`, `cli` holds `model.extract_examples` and `sim.generate`),
so a module-level function is replaced in every sttrack module that holds
it; a method is replaced on its class.
"""

from __future__ import annotations

import sys


class Patches:
    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        """Replace `owner.attr` by `make_wrapper(original)` everywhere."""
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        modules = [m for name, m in sys.modules.items() if name.startswith("sttrack") and m]
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def __bool__(self) -> bool:
        return bool(self._saved)
