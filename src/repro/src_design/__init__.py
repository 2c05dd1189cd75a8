"""The sample-rate converter at every abstraction level of the flow.

* :mod:`params` / :mod:`coefficients` / :mod:`schedule` -- the bit-exact
  design contract shared by all levels;
* :mod:`algorithmic` -- the C++ golden model (paper Section 4.1);
* :mod:`tlm` -- SystemC 2.0 with channels (Section 4.2);
* :mod:`behavioral` -- synthesisable behavioural, unoptimised and
  optimised (Sections 4.3/4.4);
* :mod:`rtl_design` -- hand-written RTL, unoptimised and optimised
  (Sections 4.5/4.6);
* :mod:`vhdl_ref` -- the series-production VHDL reference;
* :mod:`io_interfaces` -- the shared RTL front end;
* :mod:`testbench` -- TLM and clocked testbenches.
"""

from .algorithmic import (AlgorithmicSrc, InputBuffer, PolyphaseFilter,
                          RingReadIterator, filter_sample)
from .behavioral import (BehavioralDesign, BehavioralOptions,
                         BehavioralSimulation, build_behavioral_design,
                         build_main_program, round_saturate_expr)
from .coefficients import (PolyphaseCoefficientIterator, build_rom,
                           coefficient, full_prototype, rom_address)
from .interfaces import SampleReadIF, SampleWriteIF, SrcCtrlIF
from .io_interfaces import FrontEnd, FrontEndOptions
from .params import PAPER_PARAMS, SMALL_PARAMS, SrcMode, SrcParams
from .rtl_design import RtlDesign, build_rtl_design
from .schedule import (KIND_IN, KIND_MODE, KIND_OUT, SampleEvent,
                       clocked_stimulus, count_outputs, make_schedule)
from .serial_io import (SerialLink, add_serial_receiver,
                        add_serial_transmitter,
                        build_serial_receiver_module, build_serial_src,
                        build_serial_transmitter_module)
from .testbench import (BehavioralDutDriver, RtlDutDriver, TlmTestbench,
                        run_clocked, run_tlm)
from .tlm import SrcChannelMonolithic, SrcChannelRefined
from .vhdl_ref import VhdlReferenceDesign, build_vhdl_reference

__all__ = [
    "AlgorithmicSrc", "BehavioralDesign", "BehavioralDutDriver",
    "BehavioralOptions",
    "BehavioralSimulation", "FrontEnd", "FrontEndOptions", "InputBuffer",
    "KIND_IN", "KIND_MODE", "KIND_OUT", "PAPER_PARAMS",
    "PolyphaseCoefficientIterator", "PolyphaseFilter", "RingReadIterator",
    "RtlDesign", "RtlDutDriver", "SMALL_PARAMS", "SampleEvent",
    "SampleReadIF", "SampleWriteIF", "SerialLink", "SrcChannelMonolithic",
    "SrcChannelRefined", "SrcCtrlIF", "SrcMode", "SrcParams",
    "TlmTestbench", "VhdlReferenceDesign", "build_behavioral_design",
    "build_main_program", "build_rom", "build_rtl_design",
    "build_vhdl_reference", "clocked_stimulus", "coefficient",
    "count_outputs",
    "filter_sample", "full_prototype", "make_schedule", "rom_address",
    "round_saturate_expr", "run_clocked", "run_tlm",
]
