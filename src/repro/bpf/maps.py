"""BPF map model.

A BPF *map* is persistent key/value storage shared between the kernel and
user space.  Programs interact with maps exclusively through helper functions
(``bpf_map_lookup_elem``/``update``/``delete``) whose arguments are pointers
to memory holding the key and value (paper §2.1, §4.3, Appendix B).

This module provides:

* :class:`MapDef` — the compile-time definition (type, key/value sizes,
  maximum entries) referenced by ``LD_MAP_FD`` pseudo instructions.
* :class:`MapState` — the run-time contents of one map used by the
  interpreter, including the flat-address allocation of value cells so that
  the pointer returned by a lookup behaves like kernel memory.
* :class:`MapEnvironment` — the collection of maps available to a program,
  i.e. the analogue of the relocated map file descriptors in a loaded object
  file.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Iterable, Optional

from .regions import MAP_VALUE_BASE

__all__ = ["MapType", "MapDef", "MapState", "MapEnvironment"]


class MapType(enum.Enum):
    """The subset of kernel map types used by the benchmark corpus."""

    HASH = "hash"
    ARRAY = "array"
    PERCPU_ARRAY = "percpu_array"
    DEVMAP = "devmap"
    CPUMAP = "cpumap"
    LPM_TRIE = "lpm_trie"
    LRU_HASH = "lru_hash"


@dataclasses.dataclass(frozen=True)
class MapDef:
    """Compile-time map definition (the analogue of ``struct bpf_map_def``)."""

    fd: int
    name: str
    map_type: MapType
    key_size: int
    value_size: int
    max_entries: int

    def __post_init__(self) -> None:
        if self.key_size <= 0 or self.value_size <= 0:
            raise ValueError("key_size and value_size must be positive")
        if self.max_entries <= 0:
            raise ValueError("max_entries must be positive")


class MapState:
    """Runtime contents of a single map.

    Keys are stored as ``bytes`` of length ``key_size``; values are mutable
    ``bytearray`` objects of length ``value_size``.  Each value cell is
    assigned a stable flat address in the MAP_VALUE region so that lookups
    return genuine pointers the program can do arithmetic on.
    """

    #: Map types whose entries are pre-populated and cannot be deleted.
    _ARRAY_LIKE = (MapType.ARRAY, MapType.PERCPU_ARRAY, MapType.DEVMAP,
                   MapType.CPUMAP)

    def __init__(self, definition: MapDef, base_address: Optional[int] = None):
        self.definition = definition
        self._entries: Dict[bytes, bytearray] = {}
        self._addresses: Dict[bytes, int] = {}
        self._base = base_address if base_address is not None else (
            MAP_VALUE_BASE + definition.fd * 0x100_0000)
        self._next_slot = 0
        self._zero_value = bytes(definition.value_size)
        #: Keys whose value buffer may have been mutated since the last
        #: reset (update() or a handed-out value_buffer()); lets reset()
        #: skip re-zeroing untouched pre-populated entries.
        self._dirty: set = set()
        #: Pristine snapshot for dirty-aware snapshotting (array-like only):
        #: every non-dirty entry is zero by invariant, so a snapshot is this
        #: dict plus the dirty entries re-read.  The zero value object is
        #: immutable and safely shared across keys and snapshots.
        self._zero_snapshot: Dict[bytes, bytes] = {}
        #: Slot-indexed key/buffer tables (array-like only).  Valid forever:
        #: the key set is fixed at construction and every mutation path
        #: (update, restore_image, reset) writes the buffers in place.
        self._slot_keys: list = []
        self._slot_buffers: list = []
        if definition.map_type in self._ARRAY_LIKE:
            # Array-like maps are pre-populated with zeroed values, matching
            # kernel behaviour: lookups of any index < max_entries succeed.
            for index in range(definition.max_entries):
                key = index.to_bytes(definition.key_size, "little")
                self._allocate(key)
            self._zero_snapshot = dict.fromkeys(self._entries,
                                                self._zero_value)
            self._slot_keys = list(self._entries)
            self._slot_buffers = list(self._entries.values())

    def reset(self) -> None:
        """Restore the pristine post-construction state, reusing buffers.

        The reusable machine state of :mod:`repro.engine` calls this between
        test cases instead of re-instantiating every map.  The address
        allocation sequence is replayed in construction order, so the flat
        value addresses handed out after a reset are identical to those of a
        freshly built :class:`MapState`.
        """
        if self.definition.map_type not in self._ARRAY_LIKE:
            self._entries.clear()
            self._addresses.clear()
            self._next_slot = 0
            self._dirty.clear()
            return
        # Array-like maps can neither gain keys (an update of a novel key is
        # rejected as table-full, the table being pre-populated) nor lose
        # them (delete is refused), so the dict layout and addresses stay
        # pristine forever — only the touched value buffers need re-zeroing.
        zero = self._zero_value
        for key in self._dirty:
            self._entries[key][:] = zero
        self._dirty.clear()

    # ------------------------------------------------------------------ #
    # Reset images: O(touched-entries) state capture/rewind for the
    # engine's batched replay (reset + test.map_contents replayed once,
    # then restored per run instead of re-applied).
    # ------------------------------------------------------------------ #
    def export_image(self) -> tuple:
        """Capture the current contents as an immutable restore image.

        For pre-populated (array-like) maps only the dirty entries are
        recorded — everything else is pristine zeroes by invariant.  For
        hash-like maps the full entry dict is recorded in insertion order
        so that :meth:`restore_image` replays the exact address-allocation
        sequence of the captured state.
        """
        if self.definition.map_type in self._ARRAY_LIKE:
            return (
                {key: bytes(self._entries[key]) for key in self._dirty},
                None, self._next_slot, frozenset(self._dirty))
        return ({key: bytes(value) for key, value in self._entries.items()},
                dict(self._addresses), self._next_slot,
                frozenset(self._dirty))

    def restore_image(self, image: tuple) -> None:
        """Rewind to a state captured by :meth:`export_image`.

        Observably equivalent to ``reset()`` followed by replaying the
        updates that produced the image, but touches only entries that are
        dirty now or dirty in the image.
        """
        entries, addresses, next_slot, dirty = image
        if self.definition.map_type in self._ARRAY_LIKE:
            if not self._dirty and not dirty:
                return      # pristine now, pristine in the image: no-op
            zero = self._zero_value
            for key in self._dirty:
                if key not in entries:
                    self._entries[key][:] = zero
            own = self._entries
            for key, value in entries.items():
                own[key][:] = value
            self._dirty = set(dirty)
            return
        self._entries.clear()
        self._addresses.clear()
        for key, value in entries.items():
            self._entries[key] = bytearray(value)
        self._addresses.update(addresses)
        self._next_slot = next_slot
        self._dirty = set(dirty)

    # ------------------------------------------------------------------ #
    def _allocate(self, key: bytes) -> int:
        if key not in self._entries:
            self._entries[key] = bytearray(self.definition.value_size)
            self._addresses[key] = self._base + self._next_slot * self.definition.value_size
            self._next_slot += 1
        return self._addresses[key]

    def _check_key(self, key: bytes) -> bytes:
        if len(key) != self.definition.key_size:
            raise ValueError(
                f"map {self.definition.name}: key size {len(key)} != "
                f"{self.definition.key_size}")
        return bytes(key)

    # ------------------------------------------------------------------ #
    # The three map helper operations (paper §2.1)
    # ------------------------------------------------------------------ #
    def lookup(self, key: bytes) -> int:
        """Return the flat address of the value for ``key``, or 0 (NULL)."""
        key = self._check_key(key)
        # _entries and _addresses always hold the same keys (_allocate and
        # delete update both), so one probe answers both questions.
        return self._addresses.get(key, 0)

    def update(self, key: bytes, value: bytes) -> int:
        """Insert or overwrite ``key`` with ``value``; returns 0 on success."""
        key = self._check_key(key)
        if len(value) != self.definition.value_size:
            raise ValueError(
                f"map {self.definition.name}: value size {len(value)} != "
                f"{self.definition.value_size}")
        if (key not in self._entries
                and len(self._entries) >= self.definition.max_entries
                and self.definition.map_type not in (MapType.LRU_HASH,)):
            return -1  # -E2BIG, table full
        self._allocate(key)
        self._entries[key][:] = value
        self._dirty.add(key)
        return 0

    def delete(self, key: bytes) -> int:
        """Delete ``key``.  Returns 0 if it existed, -1 (-ENOENT) otherwise."""
        key = self._check_key(key)
        if self.definition.map_type in (MapType.ARRAY, MapType.PERCPU_ARRAY,
                                        MapType.DEVMAP, MapType.CPUMAP):
            return -1  # array map entries cannot be deleted
        if key not in self._entries:
            return -1
        del self._entries[key]
        del self._addresses[key]
        return 0

    # ------------------------------------------------------------------ #
    # Value memory access, used by the interpreter's load/store routing
    # ------------------------------------------------------------------ #
    def owns_address(self, address: int) -> bool:
        # Allocation is sequential from _base, so everything this map has
        # ever handed out lives in [_base, _base + next_slot * value_size);
        # outside that range the per-entry scan cannot match.
        if not self._base <= address < (
                self._base + self._next_slot * self.definition.value_size):
            return False
        if self.definition.map_type in self._ARRAY_LIKE:
            # Pre-populated and delete-proof: every slot in range is live.
            return True
        for key, base in self._addresses.items():
            if base <= address < base + self.definition.value_size:
                return True
        return False

    def value_access(self, address: int,
                     mark_dirty: bool = True) -> Optional[tuple]:
        """``(buffer, offset)`` if ``address`` falls inside a live value of
        this map, else ``None`` — :meth:`owns_address` and
        :meth:`value_buffer` fused into a single range computation for the
        engine's load/store routing hot path.
        """
        offset = address - self._base
        definition = self.definition
        value_size = definition.value_size
        if 0 <= offset < self._next_slot * value_size:
            if definition.map_type in self._ARRAY_LIKE:
                slot = offset // value_size
                if mark_dirty:
                    self._dirty.add(self._slot_keys[slot])
                return self._slot_buffers[slot], offset - slot * value_size
            for key, base in self._addresses.items():
                if base <= address < base + value_size:
                    if mark_dirty:
                        self._dirty.add(key)
                    return self._entries[key], address - base
        return None

    def value_buffer(self, address: int,
                     mark_dirty: bool = True) -> tuple[bytearray, int]:
        """Return ``(buffer, offset)`` for a flat address inside a value.

        The returned buffer is mutable; write paths keep ``mark_dirty``
        (reset() re-zeroes only dirty pre-populated entries, and the
        dirty-aware snapshot/image paths rely on non-dirty entries being
        pristine).  Read paths pass ``mark_dirty=False`` so read-only maps
        stay pristine across the batched-replay hot loop.
        """
        definition = self.definition
        if definition.map_type in self._ARRAY_LIKE:
            offset = address - self._base
            value_size = definition.value_size
            if 0 <= offset < self._next_slot * value_size:
                slot = offset // value_size
                if mark_dirty:
                    self._dirty.add(self._slot_keys[slot])
                return self._slot_buffers[slot], offset - slot * value_size
            raise KeyError(
                f"address {address:#x} not inside map {definition.name}")
        for key, base in self._addresses.items():
            if base <= address < base + definition.value_size:
                if mark_dirty:
                    self._dirty.add(key)
                return self._entries[key], address - base
        raise KeyError(f"address {address:#x} not inside map {definition.name}")

    # ------------------------------------------------------------------ #
    def items(self) -> Iterable[tuple[bytes, bytes]]:
        return ((k, bytes(v)) for k, v in self._entries.items())

    def snapshot(self) -> Dict[bytes, bytes]:
        return {k: bytes(v) for k, v in self._entries.items()}

    def snapshot_dirty(self) -> Dict[bytes, bytes]:
        """A snapshot equal to :meth:`snapshot` that skips pristine entries.

        Array-like maps are mostly zero-filled slots a program never
        touches; copying every one per execution dominates short-program
        output construction.  Non-dirty entries are zero by invariant, so
        the pristine base dict plus the dirty entries is the same mapping.
        A fully pristine map returns the shared base dict itself — callers
        (the engine's output construction) treat snapshots as
        immutable, which every in-tree consumer already does.
        """
        if self.definition.map_type in self._ARRAY_LIKE:
            if not self._dirty:
                return self._zero_snapshot
            snap = dict(self._zero_snapshot)
            for key in self._dirty:
                snap[key] = bytes(self._entries[key])
            return snap
        return {k: bytes(v) for k, v in self._entries.items()}

    def __len__(self) -> int:
        return len(self._entries)


class MapEnvironment:
    """All maps visible to a program, keyed by file descriptor."""

    def __init__(self, definitions: Iterable[MapDef] = ()):
        self._defs: Dict[int, MapDef] = {}
        for definition in definitions:
            self.add(definition)

    def add(self, definition: MapDef) -> None:
        if definition.fd in self._defs:
            raise ValueError(f"duplicate map fd {definition.fd}")
        self._defs[definition.fd] = definition

    def definition(self, fd: int) -> MapDef:
        return self._defs[fd]

    def __contains__(self, fd: int) -> bool:
        return fd in self._defs

    def fds(self) -> list[int]:
        return sorted(self._defs)

    def definitions(self) -> list[MapDef]:
        return [self._defs[fd] for fd in self.fds()]

    def instantiate(self) -> Dict[int, MapState]:
        """Create fresh runtime state for every map (used per test case)."""
        return {fd: MapState(self._defs[fd]) for fd in self.fds()}
