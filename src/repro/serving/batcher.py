"""Continuous batching: requests join and leave the decode batch per step.

:class:`ContinuousBatcher` owns the set of in-flight sequences.  Each
:meth:`ContinuousBatcher.step` aborts rows past their deadline, runs one
ragged K/V-cached forward over the survivors
(:func:`repro.llm.decode.decode_step`: a freshly admitted row feeds its
whole prompt, every other row its one new token), appends one token per
row, and retires rows that hit EOS or their token budget -- freeing
their slots for the next :meth:`ContinuousBatcher.admit` without
stalling the rest of the batch.  Every row's token stream equals a
single-prompt :func:`repro.llm.generate.generate` call -- which
recomputes the full prefix and shares no code with the cached step --
regardless of what other requests share its batch; logits agree to
``1e-4``, not bit for bit (see :mod:`repro.llm.decode`).

Each :class:`SequenceState` owns its sequence's K/V cache and every way
out of the batch -- retire, deadline abort, :meth:`ContinuousBatcher.
abort_all`, :meth:`ContinuousBatcher.release_kv` -- releases it.
"""

from __future__ import annotations

import numpy as np

from repro.llm.decode import SequenceCache, decode_step
from repro.llm.generate import _pick_next
from repro.llm.tokenizer import WordTokenizer
from repro.nn import Transformer
from repro.serving.config import ServingConfig
from repro.serving.queue import DeadlineExceeded, ServerRequest
from repro.serving.stats import ServerStats
from repro.tensor.device import Device
from repro.tensor.random import default_rng


class SequenceState:
    """One admitted request's decode-loop state."""

    def __init__(
        self,
        request: ServerRequest,
        prompt_ids: list[int],
        budget: int,
        rng: np.random.Generator,
        kv: SequenceCache,
    ) -> None:
        self.request = request
        self.ids = list(prompt_ids)
        self.generated: list[int] = []
        self.budget = budget
        self.rng = rng
        self.kv = kv


class ContinuousBatcher:
    """Decode-step engine over at most ``config.max_batch_size`` sequences."""

    def __init__(
        self,
        model: Transformer,
        tokenizer: WordTokenizer,
        config: ServingConfig,
        device: Device | None = None,
        stats: ServerStats | None = None,
    ) -> None:
        self.model = model
        self.tokenizer = tokenizer
        self.config = config
        self.device = device or model.embed.weight.device
        self.stats = stats if stats is not None else ServerStats()
        self.active: list[SequenceState] = []

    @property
    def free_slots(self) -> int:
        """Batch slots available for :meth:`admit` right now."""
        return self.config.max_batch_size - len(self.active)

    def admit(self, request: ServerRequest, now: float) -> None:
        """Add ``request`` to the running batch (a slot must be free)."""
        if self.free_slots <= 0:
            raise RuntimeError("admit() with no free batch slot")
        request.scheduled_at = now
        self.active.append(
            SequenceState(
                request,
                prompt_ids=self.tokenizer.encode(request.prompt, bos=True),
                budget=request.max_new_tokens,
                rng=default_rng(0),
                kv=SequenceCache(self.model),
            )
        )

    def step(self, now: float) -> int:
        """Run one decode step over the active batch.

        Returns the number of requests retired this step (completed,
        or aborted by their deadline).  A no-op returning 0 when the
        batch is empty.
        """
        if not self.active:
            return 0
        retired = 0
        survivors: list[SequenceState] = []
        for seq in self.active:
            if seq.request.expired(now):
                self._abort_deadline(seq, now)
                retired += 1
            else:
                survivors.append(seq)
        self.active = survivors
        if not self.active:
            self._note_kv_cache()
            return retired
        lasts = decode_step(
            self.model,
            [seq.ids for seq in self.active],
            [seq.kv for seq in self.active],
            device=self.device,
        )
        self.stats.note_step(len(self.active))
        self._note_kv_cache()  # the step's high-water mark, before rows retire
        survivors = []
        for seq, last in zip(self.active, lasts):
            next_id = _pick_next(last, self.config.temperature, seq.rng)
            if next_id == self.tokenizer.eos_id:
                self._finish(seq)
                retired += 1
                continue
            seq.ids.append(next_id)
            seq.generated.append(next_id)
            seq.request.tokens_generated = len(seq.generated)
            if len(seq.generated) >= seq.budget:
                self._finish(seq)
                retired += 1
                continue
            survivors.append(seq)
        self.active = survivors
        self._note_kv_cache()
        return retired

    def release_kv(self) -> None:
        """Release every in-flight sequence's K/V cache, leaving the batch as is.

        For other threads (watchdog, ``stop`` escalation) failing this
        batch while its loop may still be wedged mid-step: that step
        finishes on the blocks it holds and commits nothing.
        """
        for seq in list(self.active):
            seq.kv.release()
        self._note_kv_cache()

    def _note_kv_cache(self) -> None:
        self.stats.note_kv_cache(sum(seq.kv.nbytes for seq in list(self.active)))

    def abort_all(self, error: BaseException) -> int:
        """Fail every in-flight sequence (server shutdown); returns count.

        Only sequences whose request this call actually resolved are
        counted -- a request already failed by the step watchdog
        (idempotent futures, first resolution wins) is skipped.
        """
        aborted = 0
        for seq in self.active:
            seq.kv.release()
            if seq.request.fail(error):
                aborted += 1
        self.active = []
        self._note_kv_cache()
        return aborted

    def _finish(self, seq: SequenceState) -> None:
        seq.kv.release()  # before the client wakes: its bytes are back by then
        text = self.tokenizer.decode(seq.generated)
        if seq.request.complete(text):  # else the watchdog resolved it first
            self.stats.note_completed(len(seq.generated), len(text.encode("utf-8")))

    def _abort_deadline(self, seq: SequenceState, now: float) -> None:
        seq.kv.release()
        resolved = seq.request.fail(
            DeadlineExceeded(
                f"request {seq.request.id} missed its deadline mid-decode"
            ),
            now=now,
        )
        if resolved:
            self.stats.note_aborted_deadline()
