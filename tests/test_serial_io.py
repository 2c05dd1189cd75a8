"""Serial audio I/O interfaces: receiver, transmitter, full serial SRC."""

import pytest

from repro.datatypes import wrap_signed
from repro.rtl import RtlSimulator
from repro.src_design import AlgorithmicSrc, clocked_stimulus, make_schedule
from repro.src_design.serial_io import (SerialLink, build_serial_receiver_module,
                                        build_serial_transmitter_module,
                                        build_serial_src)
from tests.conftest import stereo_sine


def test_receiver_deserialises_frames(small_params):
    p = small_params
    sim = RtlSimulator(build_serial_receiver_module(p))
    link = SerialLink(p)
    mask = (1 << p.data_width) - 1
    frames = [(0x5A, 0x3C & mask), (0x01, 0x80 & mask), (0, mask)]
    got = []
    for left, right in frames:
        link.send_frame(sim, left, right)
        # the strobe fires on the cycle after the last bit
        assert sim.get("frame_valid") == 1
        got.append((sim.get("left"), sim.get("right")))
        sim.step()
        assert sim.get("frame_valid") == 0
    assert got == frames


def test_receiver_idle_without_enable(small_params):
    p = small_params
    sim = RtlSimulator(build_serial_receiver_module(p))
    sim.set_input("rx_en", 0)
    sim.set_input("rx_sd", 1)
    sim.step(3 * p.data_width)
    assert sim.get("frame_valid") == 0


def test_transmitter_serialises_frames(small_params):
    p = small_params
    sim = RtlSimulator(build_serial_transmitter_module(p))
    link = SerialLink(p)
    mask = (1 << p.data_width) - 1
    frame = (0xA5 & mask, 0x17)
    sim.set_input("frame_valid", 1)
    sim.set_input("left", frame[0])
    sim.set_input("right", frame[1])
    sim.step()
    sim.set_input("frame_valid", 0)
    assert link.receive_frame(sim) == frame


def test_transmitter_double_buffers(small_params):
    """A frame arriving while shifting is held and sent afterwards."""
    p = small_params
    sim = RtlSimulator(build_serial_transmitter_module(p))
    link = SerialLink(p)
    mask = (1 << p.data_width) - 1
    sim.set_input("frame_valid", 1)
    sim.set_input("left", 0x11)
    sim.set_input("right", 0x22)
    sim.step()
    # second frame arrives mid-shift
    sim.set_input("left", 0x33)
    sim.set_input("right", 0x44 & mask)
    sim.step()
    sim.set_input("frame_valid", 0)
    first = link.receive_frame(sim)
    second = link.receive_frame(sim)
    assert first == (0x11, 0x22)
    assert second == (0x33, 0x44 & mask)


def test_transmitter_ws_marks_words(small_params):
    p = small_params
    sim = RtlSimulator(build_serial_transmitter_module(p))
    sim.set_input("frame_valid", 1)
    sim.set_input("left", 0)
    sim.set_input("right", 0)
    sim.step()
    sim.set_input("frame_valid", 0)
    while not sim.get("tx_active"):
        sim.step()
    ws_values = []
    for _ in range(2 * p.data_width):
        ws_values.append(sim.get("tx_ws"))
        sim.step()
    dw = p.data_width
    assert ws_values[:dw] == [0] * dw
    assert ws_values[dw:] == [1] * dw


def test_serial_src_end_to_end(small_params):
    """Serial in -> SRC -> serial out matches the golden model.

    Serial bits are pre-staged so each frame's strobe lands exactly on
    the input's scheduled tick -- the serialisation is then transparent
    and the outputs must equal the golden model bit for bit.
    """
    p = small_params
    n_in = 24
    stim = stereo_sine(p, n_in)
    schedule = make_schedule(p, 0, n_in, quantized=True)
    golden = AlgorithmicSrc(p, 0).process_schedule(schedule, stim)

    sim = RtlSimulator(build_serial_src(p))
    link = SerialLink(p)
    frame_len = 2 * p.data_width
    stimulus = clocked_stimulus(p, schedule, stim)

    # stage serial bits: the frame_valid strobe fires the cycle after
    # the last bit, so bits occupy ticks [T - frame_len, T - 1]
    bits_at = {}
    for tick, (frame, _, _) in enumerate(stimulus):
        if frame is not None:
            start = tick - frame_len
            assert start >= 0, "first input too early for serial framing"
            for offset, (ws, sd) in enumerate(
                    link.frame_bits(frame[0], frame[1])):
                assert start + offset not in bits_at, "frame overlap"
                bits_at[start + offset] = (ws, sd)

    outputs = []
    dw = p.data_width
    for tick, (_, cfg, req) in enumerate(stimulus):
        bit = bits_at.get(tick)
        sim.set_input("rx_en", 1 if bit is not None else 0)
        if bit is not None:
            sim.set_input("rx_ws", bit[0])
            sim.set_input("rx_sd", bit[1])
        sim.set_input("out_req", 1 if req else 0)
        sim.set_input("cfg_valid", 0 if cfg is None else 1)
        if cfg is not None:
            sim.set_input("cfg_mode", cfg)
        sim.step()
        if sim.get("out_valid"):
            outputs.append((wrap_signed(sim.get("out_l"), dw),
                            wrap_signed(sim.get("out_r"), dw)))
        if len(outputs) == len(golden):
            break

    assert outputs == golden
