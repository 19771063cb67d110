"""Learner-group topology."""

from __future__ import annotations

from repro.tensor.device import CPU, Device, as_device


class LearnerGroup:
    """``n`` fully-synchronous learners with one memory domain each.

    Learner 0's host domain is the given ``host`` device (default the plain
    ``"cpu"`` device), so all per-learner-0 measurements -- the numbers the
    paper reports per GPU node -- read from a single tracker.  Peers get
    devices named ``"{host}:peer{i}"``.
    """

    def __init__(self, n_learners: int, host: Device | str = CPU) -> None:
        if n_learners < 1:
            raise ValueError(f"need at least one learner, got {n_learners}")
        host = as_device(host)
        self.n_learners = n_learners
        self.devices: list[Device] = [host] + [
            as_device(f"{host.name}:peer{i}") for i in range(1, n_learners)
        ]

    @property
    def primary(self) -> Device:
        return self.devices[0]

    def __len__(self) -> int:
        return self.n_learners

    def __repr__(self) -> str:
        return f"LearnerGroup(n={self.n_learners}, primary={self.primary.name!r})"
