"""K2 reproduction: a program-synthesis-based compiler for BPF.

The pieces a downstream user typically needs:

* :class:`repro.bpf.BpfProgram` and the instruction builders,
* :mod:`repro.api` - the optimizer's facade: a :class:`~repro.api.K2Config`
  describes a search, :func:`~repro.api.optimize` runs it in-process and
  :func:`~repro.api.submit` on a ``k2 serve`` daemon,
* :class:`repro.interpreter.Interpreter` - the BPF interpreter,
* :class:`repro.equivalence.EquivalenceChecker` and
  :class:`repro.safety.SafetyChecker`.
"""

__version__ = "1.1.0"

__all__ = ["__version__"]
