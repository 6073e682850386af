"""Program loader: map a compiled ELF image into pages and set PTE bits.

This models steps 6-8 of Figure 4: the loader reads the program headers of the
re-optimised ELF (which carry per-section temperature), calls into the OS to
allocate pages and PTEs, and populates the implementation-defined PTE bits
with each code page's temperature.

Section 4.9 of the paper discusses what happens when a page straddles two
sections of different temperature (increasingly likely with large pages).
:class:`OverlapPolicy` exposes the prevention mechanisms discussed there:

* ``MAJORITY`` — tag the page with the temperature covering most of its bytes
  (the paper's implicit default risk: a warm page may be treated as hot);
* ``DISABLE``  — leave straddling pages untagged (prevention mechanism 2);
* ``FIRST``    — tag with the lower-addressed section's temperature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import LoaderError
from repro.common.temperature import Temperature
from repro.compiler.elf import ELFImage
from repro.compiler.pgo import CompiledBinary
from repro.osmodel.page_table import PageTable
from repro.osmodel.pages import OverlapPolicy, pages_spanned


@dataclass
class LoaderConfig:
    """Loader behaviour knobs."""

    page_size: int = 4096
    overlap_policy: OverlapPolicy = OverlapPolicy.MAJORITY
    #: When False the loader ignores temperature entirely (baseline systems
    #: without TRRIP support: every page is untagged).
    propagate_temperature: bool = True

    def validate(self) -> None:
        if self.page_size <= 0:
            raise LoaderError("page_size must be positive")


@dataclass
class LoadedProgram:
    """Result of loading a binary: its page table plus accounting data."""

    binary: CompiledBinary
    page_table: PageTable
    page_size: int
    code_pages: int = 0
    tagged_pages: int = 0
    mixed_temperature_pages: int = 0
    pages_by_temperature: dict[Temperature, int] = field(default_factory=dict)


class ProgramLoader:
    """Maps ELF code sections (and the external region) into a page table."""

    def __init__(self, config: LoaderConfig | None = None) -> None:
        self.config = config or LoaderConfig()
        self.config.validate()

    def load(self, binary: CompiledBinary) -> LoadedProgram:
        """Allocate pages and PTEs for every code section of ``binary``."""
        page_size = self.config.page_size
        page_table = PageTable(page_size=page_size)
        image = binary.image

        page_temperatures = self._page_temperatures(image, page_size)
        mixed = sum(1 for temps in page_temperatures.values() if len(temps) > 1)

        pages_by_temperature: dict[Temperature, int] = {
            Temperature.HOT: 0,
            Temperature.WARM: 0,
            Temperature.COLD: 0,
            Temperature.NONE: 0,
        }
        tagged = 0
        for vpn, byte_counts in sorted(page_temperatures.items()):
            temperature = self._resolve_temperature(byte_counts)
            if not self.config.propagate_temperature:
                temperature = Temperature.NONE
            page_table.map_page(
                vpn, executable=True, writable=False, temperature=temperature
            )
            pages_by_temperature[temperature] += 1
            if temperature.is_tagged:
                tagged += 1

        self._map_external(image, page_table)

        return LoadedProgram(
            binary=binary,
            page_table=page_table,
            page_size=page_size,
            code_pages=len(page_temperatures),
            tagged_pages=tagged,
            mixed_temperature_pages=mixed,
            pages_by_temperature=pages_by_temperature,
        )

    # ------------------------------------------------------------- internals
    def _page_temperatures(
        self, image: ELFImage, page_size: int
    ) -> dict[int, dict[Temperature, int]]:
        """For every code page, how many bytes of each temperature it holds."""
        pages: dict[int, dict[Temperature, int]] = {}
        for section in image.sections:
            if section.size_bytes == 0:
                continue
            cursor = section.vaddr
            remaining = section.size_bytes
            while remaining > 0:
                vpn = cursor // page_size
                page_end = (vpn + 1) * page_size
                chunk = min(remaining, page_end - cursor)
                pages.setdefault(vpn, {})
                pages[vpn][section.temperature] = (
                    pages[vpn].get(section.temperature, 0) + chunk
                )
                cursor += chunk
                remaining -= chunk
        return pages

    def _resolve_temperature(self, byte_counts: dict[Temperature, int]) -> Temperature:
        tagged_counts = {
            temp: count for temp, count in byte_counts.items() if temp.is_tagged
        }
        if not tagged_counts:
            return Temperature.NONE
        if len(byte_counts) == 1:
            return next(iter(byte_counts))
        policy = self.config.overlap_policy
        if policy is OverlapPolicy.DISABLE:
            return Temperature.NONE
        if policy is OverlapPolicy.FIRST:
            # The lower-addressed section appears "first"; with the Figure 5
            # layout that is always the hotter of the overlapping sections.
            for temperature in Temperature.order():
                if temperature in byte_counts:
                    return temperature
            return Temperature.NONE
        # MAJORITY
        return max(byte_counts, key=lambda temp: (byte_counts[temp], -int(temp)))

    def _map_external(self, image: ELFImage, page_table: PageTable) -> None:
        """Map the external (non-compiled) code region without temperature."""
        if image.external_size <= 0:
            return
        page_size = self.config.page_size
        num_pages = pages_spanned(image.external_base, image.external_size, page_size)
        first = image.external_base // page_size
        for vpn in range(first, first + num_pages):
            page_table.map_page(
                vpn, executable=True, writable=False, temperature=Temperature.NONE
            )
