"""E16 (§2.3 footnote): tag truncation across CPU generations.

SkyLake-family BTBs ignore address bits 33 and above (8 GiB alias
distance); IceLake ignores bit 34 and above (16 GiB).  Experiment 1
must observe collisions at each generation's own alias distance and
*no* collision when the aliased copy is placed at the other
generation's distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..analysis import ascii_table
from ..cpu.config import GENERATIONS, generation
from ..isa.assembler import Assembler
from ..memory.address import BLOCK_SIZE
from .common import CallHarness, RunRequest, register_experiment

F1 = 0x0040_0008


def _collides_at(config, distance: int, iterations: int = 5) -> bool:
    """Does a nop sled ``distance`` bytes above F1 deallocate F1's
    jmp entry?"""
    asm = Assembler(base=F1)
    asm.label("F1")
    asm.emit("jmp8", "L1")
    asm.align(BLOCK_SIZE)
    asm.nops(2)
    asm.label("L1")
    asm.emit("ret")
    asm.org(F1 + distance)
    asm.label("F2")
    asm.nops(8)
    asm.emit("ret")
    program = asm.assemble()
    harness = CallHarness(config)
    harness.load(program)
    hits = 0
    for _ in range(iterations):
        harness.flush_btb()
        harness.call(program.address_of("F1"))
        harness.call(program.address_of("F2"))
        harness.call(program.address_of("F1"))
        elapsed = harness.elapsed_after(program.address_of("F1"))
        if elapsed is not None and elapsed > config.squash_penalty / 2:
            hits += 1
    return hits > iterations / 2


@dataclass
class GenerationResult:
    """Per generation: tag bits, collides at 8 GiB, collides at
    16 GiB.  Any *multiple* of the truncation distance aliases, so the
    discriminator is 8 GiB: SkyLake-family (bits >= 33 ignored)
    collides there, IceLake (bits >= 34 ignored) does not."""

    table: Dict[str, Tuple[int, bool, bool]]

    @property
    def all_correct(self) -> bool:
        for keep_bits, at_8g, at_16g in self.table.values():
            if not at_16g:
                return False            # 16 GiB aliases everywhere
            if at_8g != (keep_bits == 33):
                return False
        return True


def run_generation_sweep() -> GenerationResult:
    table: Dict[str, Tuple[int, bool, bool]] = {}
    for name in GENERATIONS:
        config = generation(name)
        table[name] = (
            config.tag_keep_bits,
            _collides_at(config, 1 << 33),
            _collides_at(config, 1 << 34),
        )
    return GenerationResult(table)


@register_experiment("generations", "§2.3 footnote — tag truncation sweep")
def summarize_generation_sweep(request: RunRequest) -> str:
    result = run_generation_sweep()
    return ascii_table(
        ("generation", "tag bits", "@8GiB", "@16GiB"),
        [(name, keep, a, b)
         for name, (keep, a, b) in result.table.items()])
