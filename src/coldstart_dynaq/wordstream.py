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
random() draws interleaved with them, as two lists, in one pass with the
same arithmetic inline; every tabular and det-net planning draw comes
from it. A burst of _VECTOR_MIN pairs or more does that arithmetic with
numpy uint64 operations over one block of words, in the same
interleaving, and goes back to the Python loop over those same words if
any of its draws is rejected. borrow() lends
the generator itself for numpy's array draws, such as an MC-dropout
burst's rows of uniforms, and the stream resumes where those draws left
it.
"""

from contextlib import contextmanager

import numpy as np

from .env import DomainError

_BLOCK = 256
_HALF = 1 << 32
_LOW = _HALF - 1
# burst lengths from which numpy over one block of words beats the scalar
# loop: timed both ways on burst(150, n), they cross between 35 and 45 pairs
_VECTOR_MIN = 40
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
        # the unused words of the current block, the next one last; they
        # are the last len(_words) words of _raw, the block as drawn
        self._words = []
        self._raw = np.empty(0, dtype=np.uint64)
        self._pop = self._words.pop

    def __enter__(self) -> "WordStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _read_half(self) -> None:
        state = self.rng.bit_generator.state
        self._cached, self._half = bool(state["has_uint32"]), state["uinteger"]

    def _refill(self) -> int:
        self._raw = self.rng.bit_generator.random_raw(_BLOCK)
        self._words[:] = self._raw[::-1].tolist()
        return self._pop()

    def random(self) -> float:
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

        They come back as two lists, the indices and the uniforms. The
        arithmetic is that of integers and random, inline: a planning burst
        takes its draws in one pass with no method call per draw. A burst of
        _VECTOR_MIN pairs or more computes them from one block of words with
        numpy (_vector_pairs); the scalar loop serves shorter bursts, a
        cached half at the start, and a block in which a draw is rejected.
        """
        if not 1 <= k <= _HALF:
            raise DomainError(f"integers(n) needs 1 <= n <= 2**32, got {k}")
        if k == 1:
            return [0] * n, [self.random() for _ in range(n)]
        # a low half at or above this settles Lemire's draw (see integers)
        floor = (_HALF - k) % k
        indices, uniforms = [], []
        if n >= _VECTOR_MIN:
            if self._cached:
                self._scalar_pairs(k, 1, floor, indices, uniforms)
            if not self._cached:
                self._vector_pairs(k, n - len(indices), floor, indices, uniforms)
        self._scalar_pairs(k, n - len(indices), floor, indices, uniforms)
        return indices, uniforms

    def _scalar_pairs(self, k: int, n: int, floor: int, indices: list, uniforms: list) -> None:
        words, refill = self._words, self._refill
        pop = words.pop
        add_index, add_uniform = indices.append, uniforms.append
        cached, half = self._cached, self._half
        for _ in range(n):
            while True:
                if cached:
                    cached = False
                    m = half * k
                else:
                    w = pop() if words else refill()
                    cached, half = True, w >> 32
                    m = (w & _LOW) * k
                if m & _LOW >= floor:
                    break
            w = pop() if words else refill()
            add_index(m >> 32)
            add_uniform((w >> 11) * 2**-53)
        self._cached, self._half = cached, half

    def _vector_pairs(self, k: int, n: int, floor: int, indices: list, uniforms: list) -> None:
        """n pairs from no cached half, computed over one block of words; none if one rejects.

        With no rejection each two pairs take three words [I, R, R]: pair 2g
        takes I's low half and the first R, pair 2g+1 I's high half and the
        second R. An odd n ends on [I, R] and leaves I's high half cached.
        If any draw rejects, the block stays on the buffer, where it is the
        next words to draw and the most recent ones drawn, and the lists
        stay as they are, for the caller to take those words with the
        scalar loop.
        """
        need = (3 * n + 1) // 2
        words, raw = self._words, self._raw
        have = len(words)
        if have >= need:
            block = raw[len(raw) - have:len(raw) - have + need]
        else:
            block = np.concatenate(
                (raw[len(raw) - have:], self.rng.bit_generator.random_raw(need - have))
            )
        index_words = block[0::3]
        m = np.empty(n, dtype=np.uint64)
        m[0::2] = index_words & _LOW_U64
        m[1::2] = index_words[:n // 2] >> _SHIFT_U64
        # a half is below 2**32 and k at most 2**32, so no product wraps
        m *= np.uint64(k)
        if ((m & _LOW_U64) < floor).any():
            if have < need:
                self._raw = block
                words[:] = block[::-1].tolist()
            return
        del words[-need:]
        self._cached, self._half = bool(n & 1), int(index_words[-1] >> _SHIFT_U64)
        uniform_words = np.empty(n, dtype=np.uint64)
        uniform_words[0::2] = block[1::3]
        uniform_words[1::2] = block[2::3]
        indices += (m >> _SHIFT_U64).tolist()
        uniforms += ((uniform_words >> _MANTISSA_SHIFT_U64) * 2**-53).tolist()

    def close(self) -> None:
        """Move the generator back over the unused words and hand back the cached half."""
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
