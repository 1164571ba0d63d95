"""Reusable machine state for the decode-once execution engine.

The legacy interpreter allocates a fresh :class:`~repro.interpreter.state.
MachineState` — registers, 512-byte stack, packet buffer, context struct and
every map's runtime state — for every test case it runs.  Inside the MCMC
hot loop that allocation happens tens of thousands of times per second and
dominates the cost of short programs.  :class:`ResettableMachine` allocates
those buffers once and rewinds them in place between runs:

* registers and initialization flags are cleared,
* the stack and its initialization shadow are zero-filled into the existing
  ``bytearray`` objects,
* the packet buffer is resized/refilled in place from the test's packet,
* maps are rewound through :meth:`repro.bpf.maps.MapState.reset`, which
  replays the address allocation sequence so flat value addresses are
  identical to a freshly instantiated map.

The reset observably matches construction: a machine reset for test *t*
behaves bit-for-bit like ``MachineState(hook, maps, t)`` (the differential
engine tests run both engines over batches to enforce this).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from ..bpf.hooks import Hook
from ..bpf.maps import MapEnvironment
from ..bpf.opcodes import STACK_SIZE
from ..bpf.regions import CTX_BASE, STACK_BASE
from ..interpreter.state import MachineState, PACKET_HEADROOM, ProgramInput

__all__ = ["ResettableMachine"]

_ZERO_STACK = bytes(STACK_SIZE)
_ZERO_HEADROOM = bytes(PACKET_HEADROOM)

#: Post-reset register file and init flags (ABI: r1 = ctx, r10 = frame
#: pointer), copied wholesale by the image-based fast reset.
_RESET_REGS = [0, CTX_BASE, 0, 0, 0, 0, 0, 0, 0, 0, STACK_BASE + STACK_SIZE]
_RESET_FLAGS = [False, True, False, False, False, False, False, False,
                False, False, True]

#: Capacity of the per-machine reset-image cache.  Hot-loop batches replay
#: the same (stable) test-suite objects thousands of times, so identity
#: hits dominate; the cap only bounds pathological churn.
_IMAGE_CACHE_SIZE = 1024


class ResettableMachine(MachineState):
    """A :class:`MachineState` whose buffers are reused across runs.

    Construction allocates everything once for a (hook, map environment)
    pair; :meth:`reset` rewinds the state for the next test case.  The
    machine is only valid for programs sharing that hook and map
    environment — the owning engine rebuilds it when they change.
    """

    def __init__(self, hook: Hook, maps: MapEnvironment):
        self.hook = hook
        self.maps_env = maps
        #: Definition snapshot: lets the engine detect in-place mutation of
        #: a shared MapEnvironment and rebuild the machine.
        self.map_defs = tuple(maps.definitions())
        self.test: Optional[ProgramInput] = None
        self.regs: List[int] = [0] * 11
        self.reg_initialized = [False] * 11
        self.stack = bytearray(STACK_SIZE)
        self.stack_initialized = bytearray(STACK_SIZE)
        self.packet_buffer = bytearray(PACKET_HEADROOM)
        self.packet_start = PACKET_HEADROOM
        self.packet_end = PACKET_HEADROOM
        self.ctx = bytearray(hook.ctx_size)
        self._zero_ctx = bytes(hook.ctx_size)
        self.maps = maps.instantiate()
        self._random_cursor = 0
        self.helper_trace: List[tuple] = []
        #: Set by the EXIT micro-op; read by the engine's run loop.
        self.exit_value: Optional[int] = None
        #: Identity-keyed cache of reset images (see :meth:`reset_cached`).
        self._image_cache: "OrderedDict[int, tuple]" = OrderedDict()
        #: True once anything may have written packet bytes this run (set
        #: by the store micro-op and the helper byte-write path); gates
        #: the image-cached packet output below.
        self.packet_dirty = False
        #: Post-reset packet output/extent of the restored image, letting
        #: the engine reuse the image's packet bytes when a run never
        #: touched the packet (None outside image-based resets).
        self._image_packet_out: Optional[bytes] = None
        self._image_packet_end = 0
        #: Cached all-pristine maps snapshot (see snapshot_maps_dirty).
        self._pristine_maps_snap: Optional[dict] = None

    # ------------------------------------------------------------------ #
    def reset(self, test: ProgramInput) -> None:
        """Rewind every buffer for ``test`` (same effect as reconstruction)."""
        self.test = test
        regs = self.regs
        initialized = self.reg_initialized
        for index in range(11):
            regs[index] = 0
            initialized[index] = False

        self.stack[:] = _ZERO_STACK
        self.stack_initialized[:] = _ZERO_STACK

        packet = test.packet
        buffer = self.packet_buffer
        buffer[:PACKET_HEADROOM] = _ZERO_HEADROOM
        buffer[PACKET_HEADROOM:] = packet       # resizes in place
        self.packet_start = PACKET_HEADROOM
        self.packet_end = PACKET_HEADROOM + len(packet)

        self.ctx[:] = self._zero_ctx
        self._populate_ctx()

        maps = self.maps
        for state in maps.values():
            state.reset()
        for fd, entries in test.map_contents.items():
            if fd not in maps:
                continue
            for key, value in entries.items():
                maps[fd].update(key, value)

        self._random_cursor = 0
        self.helper_trace = []
        self.exit_value = None
        self.packet_dirty = False
        self._image_packet_out = None

        # Register ABI: r1 = ctx pointer, r10 = frame pointer.
        regs[1] = CTX_BASE
        initialized[1] = True
        regs[10] = STACK_BASE + STACK_SIZE
        initialized[10] = True

    # ------------------------------------------------------------------ #
    def snapshot_maps_dirty(self) -> dict:
        """Per-fd map snapshots via the dirty-aware fast path.

        Equal to ``snapshot_maps()`` (the differential batteries compare
        them bit-for-bit); used by the engine's output construction.
        When every map is pristine the whole per-fd dict is served from a
        per-machine cache — snapshots are treated as immutable by every
        consumer, so sharing the mapping is safe.
        """
        maps = self.maps
        for state in maps.values():
            if state._dirty:
                return {fd: state.snapshot_dirty()
                        for fd, state in maps.items()}
        snap = self._pristine_maps_snap
        if snap is None:
            snap = {fd: state.snapshot_dirty() for fd, state in maps.items()}
            self._pristine_maps_snap = snap
        return snap

    # ------------------------------------------------------------------ #
    # Reset images: the batched-replay fast path.
    #
    # ``reset(test)`` spends most of its time in the two parts that depend
    # on the test case: populating the ctx struct field-by-field and
    # replaying ``test.map_contents`` through the map-helper path.  A reset
    # *image* captures the post-reset machine state once per test — the
    # fully built packet row, ctx row and per-map content images — so every
    # later rewind for the same test is a handful of buffer copies.
    # ------------------------------------------------------------------ #
    def reset_image(self, test: ProgramInput) -> tuple:
        """Reset for ``test`` and capture the state as a restore image.

        The machine is left in the freshly reset state, so a caller may run
        immediately; the returned image replays that exact state through
        :meth:`reset_from_image`.
        """
        self.reset(test)
        return (test, bytes(self.packet_buffer), bytes(self.ctx),
                tuple((fd, state.export_image())
                      for fd, state in self.maps.items()),
                self.packet_end, self.packet_bytes())

    def reset_cached(self, test: ProgramInput) -> None:
        """Rewind for ``test`` from its reset image, building it first.

        Hot-loop consumers replay stable test objects (the synthesis test
        suite) across thousands of candidates, so the images are cached
        keyed on ``id(test)`` with an identity check; the entry keeps the
        test object alive, so ids cannot be reused while cached.  An image
        is built only when a batch reaches its test, so a batch that stops
        early pays nothing for the tests it never ran.  Building it leaves
        the machine freshly reset, so a miss installs only the image's
        packet output and extent instead of restoring the whole image.
        """
        cache = self._image_cache
        entry = cache.get(id(test))
        if entry is not None and entry[0] is test:
            cache.move_to_end(id(test))
            self.reset_from_image(entry[1])
            return
        image = self.reset_image(test)
        cache[id(test)] = (test, image)
        if len(cache) > _IMAGE_CACHE_SIZE:
            cache.popitem(last=False)
        self._image_packet_out = image[5]
        self._image_packet_end = image[4]

    def reset_from_image(self, image: tuple) -> None:
        """Rewind to a captured image (bit-identical to ``reset(test)``)."""
        test, packet_image, ctx_image, map_images, packet_end, packet_out = \
            image
        self.test = test
        self.regs[:] = _RESET_REGS
        self.reg_initialized[:] = _RESET_FLAGS
        self.stack[:] = _ZERO_STACK
        self.stack_initialized[:] = _ZERO_STACK
        self.packet_buffer[:] = packet_image     # resizes in place
        self.packet_start = PACKET_HEADROOM
        self.packet_end = packet_end
        self.ctx[:] = ctx_image
        maps = self.maps
        for fd, map_image in map_images:
            state = maps[fd]
            # Pristine on both sides (no dirty entries now, none in the
            # image) means the restore is a no-op; skip the call.  For
            # hash-like maps an empty dirty set implies no entries at all
            # (updates always mark, deletes never unmark).
            if state._dirty or map_image[3]:
                state.restore_image(map_image)
        self._random_cursor = 0
        self.helper_trace = []
        self.exit_value = None
        self.packet_dirty = False
        self._image_packet_out = packet_out
        self._image_packet_end = packet_end
