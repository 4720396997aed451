"""Scalar draws from a PCG64 Generator without numpy's per-call overhead.

A WordStream pulls the generator's raw 64-bit words in blocks and serves
the two scalar draws the hot loops make, random() and integers(n), in
pure Python. Each returns what the wrapped Generator would have returned
for the same call, and close() leaves the generator in the exact state
numpy would have left it in, so a wrapped stream changes no record.

This copies numpy's own arithmetic for PCG64:
- random() is next_double: (w >> 11) * 2**-53.
- integers(n) is numpy's 32-bit Lemire draw (Lemire 2019, "Fast random
  integer generation in an interval"). Its 32-bit halves follow PCG64's
  next_uint32: the low half of a fresh word is used and the high half is
  cached for the next 32-bit draw. n == 1 draws nothing.
random_raw and next_double never touch the cached half. The one hot-loop
function that takes an rng, qcore.select_action, calls only these two,
so it takes a stream in place of a Generator; demand draws are one
rng.random(n) call per episode and need no stream.
burst(k, n) returns a planning burst's n integers(k) draws and the n
random() draws interleaved with them, as two lists; every tabular and
det-net planning draw comes from it. A burst reads its pairs from a
cache that one numpy pass over a block of words fills with the next
_PAIRS pairs in draw order: each pair's 32-bit index half and its
uniform. A burst multiplies its slice of halves by k and tests Lemire's
rejection for the whole slice at once; a rejected pair returns the
stream to its words just before that pair, which integers(k) and
random() then draw. random(), integers() and close() first return the
stream to its words. borrow() lends the generator itself for numpy's
array draws, such as an MC-dropout burst's rows of uniforms, and the
stream resumes where those draws left it.
"""

from contextlib import contextmanager

import numpy as np

from .env import DomainError

_BLOCK = 256
# pairs per cache fill; even, so that a fill ends on whole [I, R, R] triples
_PAIRS = 512
_HALF = 1 << 32
_LOW = _HALF - 1
# uint64 operands, so that numpy 1.x's value-based casting keeps uint64 too
_LOW_U64 = np.uint64(_LOW)
_SHIFT_U64 = np.uint64(32)
_MANTISSA_SHIFT_U64 = np.uint64(11)


class WordStream:
    """random() and integers(n) of one PCG64 Generator, served from its words.

    Draw from the generator directly only inside a borrow() block or after
    close() (or the end of a with block), and wrap it again before drawing
    from a stream.
    """

    def __init__(self, rng: np.random.Generator):
        bit_generator = rng.bit_generator
        if type(bit_generator) is not np.random.PCG64:
            raise DomainError(
                f"a word stream copies PCG64's draws, got a {type(bit_generator).__name__} generator"
            )
        self.rng = rng
        self._read_half()
        # the unused words of the current block, the next one last
        self._words = []
        self._pop = self._words.pop
        # the pair cache (see _fill); its uniforms are empty whenever the
        # stream draws from its words instead
        self._uniforms = []
        self._block = self._halves = None
        self._lead = self._pos = 0

    def __enter__(self) -> "WordStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _read_half(self) -> None:
        state = self.rng.bit_generator.state
        self._cached, self._half = bool(state["has_uint32"]), state["uinteger"]

    def _refill(self) -> int:
        self._words[:] = self.rng.bit_generator.random_raw(_BLOCK)[::-1].tolist()
        return self._pop()

    def _fill(self) -> None:
        """Cache the next pairs of integers(k) and random() draws, from the buffered words on.

        A pending cached half is pair 0, and the next word is its uniform.
        Whole [I, R, R] triples follow: pair 2g takes I's low half and the
        first R, pair 2g+1 I's high half and the second R. The fill takes
        every buffered word, rounded up to whole triples, and at least
        _PAIRS pairs' worth of words from random_raw after them.
        """
        words = self._words
        lead = int(self._cached)
        triples = max(_PAIRS // 2, -(-(len(words) - lead) // 3))
        block = self.rng.bit_generator.random_raw(lead + 3 * triples - len(words))
        if words:
            block = np.concatenate((np.array(words[::-1], dtype=np.uint64), block))
            words.clear()
        index_words = block[lead::3]
        halves = np.empty(lead + 2 * triples, dtype=np.uint64)
        np.bitwise_and(index_words, _LOW_U64, out=halves[lead::2])
        np.right_shift(index_words, _SHIFT_U64, out=halves[lead + 1::2])
        doubles = (block >> _MANTISSA_SHIFT_U64) * 2**-53
        uniforms = doubles[lead:].reshape(triples, 3)[:, 1:].ravel().tolist()
        if lead:
            halves[0] = self._half
            uniforms.insert(0, float(doubles[0]))
        self._block, self._lead, self._halves, self._pos = block, lead, halves, 0
        self._uniforms = uniforms

    def _unpair(self) -> None:
        """Put the cache's unread words back on the buffer, with the cached half they leave."""
        pos, lead = self._pos, self._lead
        start = 0
        if pos >= lead:
            g, odd = divmod(pos - lead, 2)
            start = lead + 3 * g + 2 * odd
            if odd:
                self._cached, self._half = True, int(self._halves[pos])
            else:
                # numpy keeps the last high half drawn once it is spent
                self._cached = False
                if g:
                    self._half = int(self._halves[pos - 1])
        self._words[:] = self._block[start:][::-1].tolist()
        self._uniforms = []
        self._block = self._halves = None

    def random(self) -> float:
        if self._uniforms:
            self._unpair()
        try:
            w = self._pop()
        except IndexError:
            w = self._refill()
        return (w >> 11) * 2**-53

    def integers(self, n: int) -> int:
        """Uniform in [0, n) for 1 <= n <= 2**32, as Generator.integers(n)."""
        if not 1 < n <= _HALF:
            if n == 1:
                return 0
            raise DomainError(f"integers(n) needs 1 <= n <= 2**32, got {n}")
        if self._uniforms:
            self._unpair()
        while True:
            if self._cached:
                self._cached = False
                m = self._half * n
            else:
                try:
                    w = self._pop()
                except IndexError:
                    w = self._refill()
                self._cached, self._half = True, w >> 32
                m = (w & _LOW) * n
            # Lemire's rejection keeps the draw unbiased: a low half below
            # (2**32 - n) % n draws again, and the cheap test against n
            # settles almost every draw
            if m & _LOW >= n or m & _LOW >= (_HALF - n) % n:
                return m >> 32

    def burst(self, k: int, n: int) -> tuple[list[int], list[float]]:
        """n (integers(k), random()) draws, as n pairs of those calls would take them.

        They come back as two lists, the indices and the uniforms. A burst
        takes its pairs from the cache (see _fill), refilled as it runs
        out: for each slice of cached halves it computes m = half * k, tests
        Lemire's rejection on the low 32 bits of all of them at once, and
        keeps the high 32 bits as the indices. A rejected pair, which comes
        about k / 2**32 of the time, is drawn by integers(k) and random()
        from the words just before it, and the next slice fills the cache
        anew. k == 1 draws only the uniforms, with random().
        """
        if not 1 <= k <= _HALF:
            raise DomainError(f"burst(k, n) needs 1 <= k <= 2**32, got {k}")
        if k == 1:
            return [0] * n, [self.random() for _ in range(n)]
        # a low half at or above this settles Lemire's draw (see integers)
        floor = (_HALF - k) % k
        indices, uniforms = [], []
        while n > 0:
            if not self._uniforms:
                self._fill()
            pos, cache = self._pos, self._uniforms
            end = min(pos + n, len(cache))
            # a half is below 2**32 and k at most 2**32, so no product wraps
            m = self._halves[pos:end] * np.uint64(k)
            # the low 32 bits of each product: a cast to uint32 wraps
            low = m.astype(np.uint32)
            rejected = floor and low.min() < floor
            if rejected:
                end = pos + int((low < floor).argmax())
                m = m[:end - pos]
            indices += (m >> _SHIFT_U64).tolist()
            uniforms += cache[pos:end]
            n -= end - pos
            self._pos = end
            if rejected:
                # back to the words before the rejected pair, which draw it
                self._unpair()
                indices.append(self.integers(k))
                uniforms.append(self.random())
                n -= 1
            elif end == len(cache):
                self._unpair()
        return indices, uniforms

    def close(self) -> None:
        """Move the generator back over the unused words and hand back the cached half."""
        if self._uniforms:
            self._unpair()
        bit_generator = self.rng.bit_generator
        if self._words:
            # advance resets the cached half, which is written back below
            bit_generator.advance(2**128 - len(self._words))
            self._words.clear()
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = int(self._cached), self._half
        bit_generator.state = state

    @contextmanager
    def borrow(self):
        """Close the stream, yield the Generator, and take its cached half back after the block."""
        self.close()
        try:
            yield self.rng
        finally:
            self._read_half()
