"""Pages and page table entries with PBHA-style attribute bits.

The OS interface of TRRIP (Section 3.3) stores code temperature in
implementation-defined PTE bits that commercial ARM cores already forward with
memory requests (PBHA).  A :class:`PageTableEntry` therefore carries, besides
the physical frame and permissions, a two-bit ``attribute`` field decoded as a
:class:`~repro.common.temperature.Temperature`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.errors import LoaderError
from repro.common.temperature import Temperature

if TYPE_CHECKING:
    from repro.compiler.elf import ELFImage

#: Page sizes exercised by Table 5 of the paper.
PAGE_SIZE_4K = 4 * 1024
PAGE_SIZE_16K = 16 * 1024
PAGE_SIZE_2M = 2 * 1024 * 1024
SUPPORTED_PAGE_SIZES = (PAGE_SIZE_4K, PAGE_SIZE_16K, PAGE_SIZE_2M)


class OverlapPolicy(enum.Enum):
    """How to tag a page that overlaps sections of different temperature."""

    MAJORITY = "majority"
    DISABLE = "disable"
    FIRST = "first"


@dataclass
class PageTableEntry:
    """One PTE: translation, permissions and the PBHA temperature bits."""

    virtual_page: int
    physical_frame: int
    executable: bool = False
    writable: bool = True
    attribute_bits: int = 0

    def __post_init__(self) -> None:
        if self.virtual_page < 0 or self.physical_frame < 0:
            raise LoaderError("page numbers must be non-negative")
        if not 0 <= self.attribute_bits <= 3:
            raise LoaderError(
                f"attribute bits must fit in two bits, got {self.attribute_bits}"
            )

    @property
    def temperature(self) -> Temperature:
        """Decode the PBHA bits as a code temperature."""
        return Temperature.from_bits(self.attribute_bits)

    def set_temperature(self, temperature: Temperature) -> None:
        self.attribute_bits = temperature.to_bits()


def pages_spanned(start: int, size: int, page_size: int) -> int:
    """Number of pages touched by the byte range ``[start, start+size)``."""
    if size <= 0:
        return 0
    first = start // page_size
    last = (start + size - 1) // page_size
    return last - first + 1


def count_pages_by_temperature(
    image: ELFImage, page_size: int
) -> dict[Temperature, int]:
    """Pages needed per temperature section, rounded up (Table 5).

    Table 5 reports, per benchmark and page size, the number of pages used by
    the hot and warm text sections "rounded up to the nearest full page";
    each section is counted independently because sections of different
    temperature are never shared intentionally.
    """
    if page_size <= 0:
        raise LoaderError("page_size must be positive")
    counts: dict[Temperature, int] = {
        Temperature.HOT: 0,
        Temperature.WARM: 0,
        Temperature.COLD: 0,
        Temperature.NONE: 0,
    }
    for section in image.sections:
        if section.size_bytes == 0:
            continue
        full_pages = -(-section.size_bytes // page_size)  # ceil division
        counts[section.temperature] += max(full_pages, 1)
    return counts
