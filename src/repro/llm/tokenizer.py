"""Word-level tokenizer over a closed vocabulary.

The synthetic fact world (see :mod:`repro.data`) has a small closed lexicon,
so a word-level tokenizer gives the small substrate models a realistic
learning problem (facts, not spelling).  Special tokens follow LLM
conventions: BOS/EOS framing and PAD for batching.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class WordTokenizer:
    """Bidirectional word <-> id mapping with special tokens."""

    words: list[str]
    pad_token: str = "<pad>"
    bos_token: str = "<bos>"
    eos_token: str = "<eos>"
    unk_token: str = "<unk>"
    _word_to_id: dict[str, int] = field(init=False, repr=False)
    _id_to_word: list[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        specials = [self.pad_token, self.bos_token, self.eos_token, self.unk_token]
        seen = dict.fromkeys(specials)
        for word in self.words:
            if word not in seen:
                seen[word] = None
        self._id_to_word = list(seen)
        self._word_to_id = {w: i for i, w in enumerate(self._id_to_word)}

    @property
    def vocab_size(self) -> int:
        return len(self._id_to_word)

    @property
    def pad_id(self) -> int:
        return self._word_to_id[self.pad_token]

    @property
    def bos_id(self) -> int:
        return self._word_to_id[self.bos_token]

    @property
    def eos_id(self) -> int:
        return self._word_to_id[self.eos_token]

    @property
    def unk_id(self) -> int:
        return self._word_to_id[self.unk_token]

    def encode(self, text: str, bos: bool = False, eos: bool = False) -> list[int]:
        ids = [self._word_to_id.get(w, self.unk_id) for w in text.split()]
        if bos:
            ids.insert(0, self.bos_id)
        if eos:
            ids.append(self.eos_id)
        return ids

    def decode(self, ids: list[int], skip_special: bool = True) -> str:
        specials = {self.pad_id, self.bos_id, self.eos_id}
        words = []
        for token_id in ids:
            if skip_special and token_id in specials:
                continue
            if 0 <= token_id < len(self._id_to_word):
                words.append(self._id_to_word[token_id])
            else:
                words.append(self.unk_token)
        return " ".join(words)
