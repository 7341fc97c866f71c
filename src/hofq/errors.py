"""Exception types shared across the package."""


class InvalidFSpec(ValueError):
    """An f-sequence spec has bad parameters or cannot produce the requested terms."""


class InvalidQ(ValueError):
    """A supplied q-sequence violates q(1) = 1 or 1 <= q(n) <= n."""


class CapExceeded(ValueError):
    """An exhaustive-enumeration request is beyond the configured cap."""


class SequenceDied(RuntimeError):
    """A computation needed a trace that exists, and the trace died.

    `outcome` is the trace's ExistenceOutcome.
    """

    def __init__(self, outcome):
        super().__init__(f"trace {outcome}")
        self.outcome = outcome
