"""Drop-in replacement of a BPF object file (paper §7 / Appendix D).

K2's output is not a bare instruction listing: it is a patched object file
that can be loaded in place of the original.  This example walks the full
round trip on the Facebook packet-counter benchmark:

1. build an object file (program text + map symbols + relocations) for the
   ``xdp_pktcntr`` corpus program, as a compiler front end would emit it;
2. load it (create maps, apply relocations) the way libbpf does;
3. optimize the loaded program with K2;
4. patch the optimized program back into the object file and check that the
   patched object loads, passes the kernel checker and behaves identically.

Run with::

    python examples/objfile_roundtrip.py
"""

from repro.api import K2Config
from repro.corpus import get_benchmark
from repro.interpreter import ProgramInput, run_program
from repro.objfile import BpfObjectFile, build_object, load_object, patch_object
from repro.verifier import KernelChecker


def main() -> None:
    source = get_benchmark("xdp_pktcntr").program()

    # 1. The "clang output": an object file with map symbols and relocations.
    object_file = build_object([source], maps=source.maps)
    blob = object_file.to_bytes()
    print(f"object file: {len(blob)} bytes, "
          f"{len(object_file.maps)} map symbol(s), "
          f"{len(object_file.programs[0].relocations)} relocation(s)")

    # 2. Load: create maps, assign fds, relocate LDDW map references.
    loaded = load_object(BpfObjectFile.from_bytes(blob))
    program = loaded.program("xdp_pktcntr")
    print(f"loaded {program.name!r}: {program.num_real_instructions} "
          f"instructions, map fds {loaded.map_fds}")

    # 3. Optimize with K2 (small search budget keeps the example quick).
    compiler = K2Config(goal="size", iterations=1500, settings=2,
                        seed=1).compiler()
    result = compiler.optimize(program)
    print(f"K2: {program.num_real_instructions} -> "
          f"{result.optimized.num_real_instructions} instructions "
          f"({result.compression_percent:.1f}% smaller)")

    # 4. Patch the optimized program back in as a drop-in replacement.
    patched = patch_object(object_file, "xdp_pktcntr", result.optimized,
                           map_fds=loaded.map_fds)
    replacement = load_object(patched).program("xdp_pktcntr")
    verdict = KernelChecker().load(replacement)
    print(f"patched object: kernel checker "
          f"{'accepted' if verdict else 'rejected'} the replacement")

    packet = bytes(range(64))
    original_out = run_program(program, ProgramInput(packet=packet))
    patched_out = run_program(replacement, ProgramInput(packet=packet))
    assert original_out.observable()[0] == patched_out.observable()[0]
    print("original and replacement return the same XDP action on a test "
          "packet — the patched object is a drop-in replacement")


if __name__ == "__main__":
    main()
