"""DET005 bad: RNG streams leaking across component boundaries."""

_HOLDER = {}


def stash(stream):
    _HOLDER["stream"] = stream  # the parameter escapes into module state


class DropModel:
    def __init__(self, rng):
        self.rng_source = rng


class Lan:
    def transmit(self):
        rng = self.rng("lan")
        if self.model.drops(rng):  # foreign method consumes the stream
            return

    def rebuild(self):
        gray = self.rng("gray")
        self.model = DropModel(gray)  # constructor captures the stream

    def leak(self):
        stash(self.rng("leak"))  # callee stores the stream beyond the call

    def fallback(self):
        return Random()  # OS-seeded generator can never replay

    def branch(self, cond):
        if cond:
            stream = self.rng("branch")
            self.model.consume(stream)  # aliased inside an `if`, consumed there

    def scoped(self, lock):
        with lock:
            stream = self.rng("scoped")
            self.model.consume(stream)  # aliased inside a `with`, consumed there

    def carried(self, batches):
        stream = None
        for _ in batches:
            if stream is not None:
                self.model.consume(stream)  # the previous iteration's stream
            stream = self.rng("carried")

    def relayed(self, batches):
        held = fresh = None
        for _ in batches:
            if held is not None:
                self.model.consume(held)  # drawn two iterations back
            held = fresh
            fresh = self.rng("relayed")
