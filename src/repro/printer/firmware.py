"""Firmware simulator: executes G-code and produces a machine-state trace.

The :class:`Firmware` plays the role of the printer's controller board: it
consumes a :class:`~repro.printer.gcode.GcodeProgram`, plans every move with
the trapezoidal planner, applies the time-noise model (per-move jitter +
inter-instruction gaps), integrates a first-order thermal model, and samples
the full machine state onto a uniform grid.  The resulting
:class:`MachineTrace` is the single source every simulated sensor draws
from, so all side channels of one run share the same (noisy) timeline —
exactly the property the paper exploits in Fig. 10.

A *firmware attack* is modelled by giving the firmware a command transformer
that rewrites instructions at execution time, after the (benign) G-code has
been received.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .. import obs
from .gcode import GcodeCommand, GcodeProgram
from .machine import MachineConfig
from .motion import TrapezoidalProfile, plan_move
from .noise import NO_TIME_NOISE, TimeNoiseModel, TimeNoiseProcess

__all__ = ["MachineTrace", "Firmware", "simulate_print"]

CommandTransformer = Callable[[GcodeCommand], GcodeCommand]


@dataclass
class MachineTrace:
    """Uniformly sampled machine state over one printing process.

    All arrays share the first dimension (``n_samples`` at ``sim_rate``).
    Positions are tool coordinates in mm; joints are actuator coordinates
    (axes for a Cartesian machine, carriage heights for a delta).
    """

    sim_rate: float
    times: np.ndarray             # (n,)
    position: np.ndarray          # (n, 3) tool x, y, z
    velocity: np.ndarray          # (n, 3)
    acceleration: np.ndarray      # (n, 3)
    joint_position: np.ndarray    # (n, J)
    joint_velocity: np.ndarray    # (n, J)
    extrusion_rate: np.ndarray    # (n,) filament mm/s
    hotend_temp: np.ndarray       # (n,) degC
    bed_temp: np.ndarray          # (n,) degC
    fan: np.ndarray               # (n,) 0..1
    command_index: np.ndarray     # (n,) which program command was executing
    layer_index: np.ndarray       # (n,) current layer number (0-based)
    layer_change_times: List[float] = field(default_factory=list)

    @property
    def n_samples(self) -> int:
        return int(self.times.shape[0])

    @property
    def duration(self) -> float:
        return self.n_samples / self.sim_rate

    @property
    def n_joints(self) -> int:
        return int(self.joint_position.shape[1])

    # ------------------------------------------------------------------
    # Forensics: sample index <-> (instruction, print time) mapping.
    # ------------------------------------------------------------------
    def sample_index_at(self, t: float) -> int:
        """Sample index at print time ``t`` seconds (clamped into range)."""
        return int(np.clip(round(t * self.sim_rate), 0, self.n_samples - 1))

    def instruction_at(self, sample_index: int) -> int:
        """Program command index executing at ``sample_index``."""
        i = int(np.clip(sample_index, 0, self.n_samples - 1))
        return int(self.command_index[i])

    def time_of_sample(self, sample_index: int) -> float:
        """Print time in seconds of ``sample_index``."""
        i = int(np.clip(sample_index, 0, self.n_samples - 1))
        return float(self.times[i])

    def instruction_span(self, t_start: float, t_stop: float) -> Tuple[int, int]:
        """Half-open program-command span executing in ``[t_start, t_stop)``.

        This is the join an incident report needs: an alarm's analysis
        window maps to a time interval, and this maps the interval onto
        the G-code instructions that were executing then.  The interval is
        clamped to the trace; a degenerate interval collapses to the
        single instruction at ``t_start``.
        """
        lo = self.sample_index_at(min(t_start, t_stop))
        hi = self.sample_index_at(max(t_start, t_stop))
        window = self.command_index[lo : hi + 1]
        if window.size == 0:  # pragma: no cover - clamping prevents this
            cmd = self.instruction_at(lo)
            return cmd, cmd + 1
        return int(window.min()), int(window.max()) + 1


@dataclass
class _MoveSegment:
    """One planned move placed on the global timeline."""

    t_start: float
    duration: float          # actual (jittered) duration
    profile: TrapezoidalProfile
    start_xyz: np.ndarray
    direction: np.ndarray    # unit vector in tool space (zeros for E-only)
    e_start: float
    e_delta: float
    command_index: int
    layer_index: int


class Firmware:
    """G-code executor with a stochastic timing model.

    Parameters
    ----------
    machine:
        Static machine description (kinematics, limits, thermal constants).
    time_noise:
        The timing perturbation model; defaults to no noise so that unit
        tests of the kinematic pipeline stay deterministic.
    transformer:
        Optional command rewriter applied at execution time — the hook used
        to model firmware-level attacks.
    """

    def __init__(
        self,
        machine: MachineConfig,
        time_noise: TimeNoiseModel = NO_TIME_NOISE,
        transformer: Optional[CommandTransformer] = None,
    ) -> None:
        self.machine = machine
        self.time_noise = time_noise
        self.transformer = transformer

    # ------------------------------------------------------------------
    def run(
        self, program: GcodeProgram, rng: Optional[np.random.Generator] = None
    ) -> MachineTrace:
        """Execute ``program`` and return the sampled machine trace."""
        rng = rng if rng is not None else np.random.default_rng()
        noise = self.time_noise.start(rng)
        from .arcs import segment_arcs

        with obs.trace("repro.printer.firmware.run"):
            program = segment_arcs(program)  # no-op when there are no G2/G3
            with obs.trace("schedule"):
                segments, events = self._schedule(program, noise)
            with obs.trace("sample") as span:
                trace = self._sample(segments, events)
        if obs.enabled():
            obs.counter("repro.printer.firmware.runs").inc()
            obs.counter("repro.printer.firmware.segments").inc(len(segments))
            if span.wall > 0:
                obs.gauge("repro.printer.firmware.samples_per_s").set(
                    trace.n_samples / span.wall
                )
        return trace

    # ------------------------------------------------------------------
    # Scheduling: walk the program and lay segments on the timeline.
    # ------------------------------------------------------------------
    def _schedule(
        self, program: GcodeProgram, noise: "TimeNoiseProcess"
    ) -> Tuple[List[_MoveSegment], dict]:
        machine = self.machine
        pos = np.zeros(3)
        e_pos = 0.0
        feedrate = 30.0  # mm/s default until the first F parameter
        hotend_target = machine.ambient_temp
        bed_target = machine.ambient_temp
        fan = 0.0
        t = 0.0
        layer = 0
        current_z: Optional[float] = None
        relative_xyz = False  # G90 (absolute) is the power-on default
        relative_e = False    # M82 (absolute extruder) likewise

        segments: List[_MoveSegment] = []
        # Step events for the slow state (targets change instantaneously,
        # the thermal filter smooths them at sampling time).
        hotend_events: List[Tuple[float, float]] = [(0.0, hotend_target)]
        bed_events: List[Tuple[float, float]] = [(0.0, bed_target)]
        fan_events: List[Tuple[float, float]] = [(0.0, fan)]
        layer_changes: List[float] = []

        # Moves are queued and planned in chains so the optional look-ahead
        # planner can join them at nonzero junction speeds; the stop-to-stop
        # planner simply plans each queued move independently.
        pending: List[dict] = []

        def flush_moves() -> None:
            nonlocal t
            if not pending:
                return
            movers = [p for p in pending if p["path_length"] > 0]
            if machine.lookahead and len(movers) > 1 and movers == pending:
                from .lookahead import plan_chain

                profiles = plan_chain(
                    [p["direction"] for p in pending],
                    [p["path_length"] for p in pending],
                    [p["feedrate"] for p in pending],
                    machine.acceleration,
                    machine.junction_deviation,
                )
            else:
                profiles = [
                    plan_move(
                        p["path_length"], p["feedrate"], machine.acceleration
                    )
                    for p in pending
                ]
            for p, profile in zip(pending, profiles):
                if p["starts_layer"]:
                    layer_changes.append(t)
                duration = noise.perturb_duration(profile.duration)
                segments.append(
                    _MoveSegment(
                        t_start=t,
                        duration=duration,
                        profile=profile,
                        start_xyz=p["start"],
                        direction=p["direction"],
                        e_start=p["e_start"],
                        e_delta=p["e_delta"],
                        command_index=p["index"],
                        layer_index=p["layer"],
                    )
                )
                t += duration
                if not machine.lookahead:
                    t += noise.sample_gap()
            if machine.lookahead:
                # Joined moves flow through the planner buffer; the random
                # queueing gap appears once per chain, not per move.
                t += noise.sample_gap()
            pending.clear()

        for index, raw_command in enumerate(program):
            command = (
                self.transformer(raw_command) if self.transformer else raw_command
            )
            code = command.code

            if command.is_move:
                f = command.get("F")
                if f is not None:
                    feedrate = min(f / 60.0, machine.max_feedrate)
                target = pos.copy()
                for axis, k in enumerate("XYZ"):
                    value = command.get(k)
                    if value is not None:
                        target[axis] = pos[axis] + value if relative_xyz else value
                e_value = command.get("E")
                if e_value is None:
                    e_target = e_pos
                elif relative_e:
                    e_target = e_pos + e_value
                else:
                    e_target = e_value

                starts_layer = False
                z = command.get("Z")
                if z is not None and (current_z is None or z > current_z):
                    if current_z is not None:
                        layer += 1
                        starts_layer = True
                    current_z = z

                delta = target - pos
                distance = float(np.linalg.norm(delta))
                e_delta = float(e_target - e_pos)
                if distance > 0:
                    pending.append(
                        {
                            "direction": delta / distance,
                            "path_length": distance,
                            "feedrate": feedrate,
                            "start": pos.copy(),
                            "e_start": e_pos,
                            "e_delta": e_delta,
                            "index": index,
                            "layer": layer,
                            "starts_layer": starts_layer,
                        }
                    )
                elif abs(e_delta) > 0:
                    # Extruder-only move (retraction): the head stops, so it
                    # breaks any look-ahead chain.
                    flush_moves()
                    pending.append(
                        {
                            "direction": np.zeros(3),
                            "path_length": abs(e_delta),
                            "feedrate": feedrate,
                            "start": pos.copy(),
                            "e_start": e_pos,
                            "e_delta": e_delta,
                            "index": index,
                            "layer": layer,
                            "starts_layer": starts_layer,
                        }
                    )
                    flush_moves()
                elif starts_layer:
                    # A zero-length layer marker: record it in execution
                    # order by flushing what came before it first.
                    flush_moves()
                    layer_changes.append(t)
                pos = target
                e_pos = float(e_target)

            elif code == "G28":  # home: move to origin at a fixed rate
                flush_moves()
                distance = float(np.linalg.norm(pos))
                if distance > 0:
                    profile = plan_move(distance, 50.0, machine.acceleration)
                    duration = noise.perturb_duration(profile.duration)
                    segments.append(
                        _MoveSegment(
                            t_start=t,
                            duration=duration,
                            profile=profile,
                            start_xyz=pos.copy(),
                            direction=-pos / distance,
                            e_start=e_pos,
                            e_delta=0.0,
                            command_index=index,
                            layer_index=layer,
                        )
                    )
                    t += duration
                pos = np.zeros(3)
                current_z = None

            elif code == "G90":  # absolute positioning (XYZ and E)
                relative_xyz = False
                relative_e = False
            elif code == "G91":  # relative positioning (XYZ and E)
                relative_xyz = True
                relative_e = True
            elif code == "M82":  # absolute extruder
                relative_e = False
            elif code == "M83":  # relative extruder
                relative_e = True

            elif code == "G92":  # reset logical positions
                flush_moves()
                for axis, k in enumerate("XYZ"):
                    value = command.get(k)
                    if value is not None:
                        pos[axis] = value
                e = command.get("E")
                if e is not None:
                    e_pos = float(e)

            elif code == "G4":  # dwell: P (ms) or S (s)
                flush_moves()
                t += (command.get("P", 0.0) or 0.0) / 1000.0
                t += command.get("S", 0.0) or 0.0

            elif code in ("M104", "M109"):
                flush_moves()
                hotend_target = command.get("S", hotend_target)
                hotend_events.append((t, hotend_target))
                if code == "M109":
                    t += self._wait_time(machine.hotend_tau)
            elif code in ("M140", "M190"):
                flush_moves()
                bed_target = command.get("S", bed_target)
                bed_events.append((t, bed_target))
                if code == "M190":
                    t += self._wait_time(machine.bed_tau)
            elif code == "M106":
                flush_moves()
                fan = float(np.clip(command.get("S", 255.0) / 255.0, 0.0, 1.0))
                fan_events.append((t, fan))
            elif code == "M107":
                flush_moves()
                fan = 0.0
                fan_events.append((t, fan))
            # Unknown codes are ignored, as real firmwares do.

        flush_moves()

        events = {
            "hotend": hotend_events,
            "bed": bed_events,
            "fan": fan_events,
            "layer_changes": layer_changes,
            "total_time": t,
        }
        return segments, events

    def _wait_time(self, tau: float) -> float:
        """Time M109/M190 blocks, capped by the machine's wait limit."""
        # First-order system reaches ~95% of a step in 3 tau.
        return min(3.0 * tau, self.machine.max_temp_wait)

    # ------------------------------------------------------------------
    # Sampling: turn segments + events into uniform arrays.
    # ------------------------------------------------------------------
    def _sample(
        self, segments: List[_MoveSegment], events: dict
    ) -> MachineTrace:
        machine = self.machine
        fs = machine.sim_rate
        total = events["total_time"]
        n = max(2, int(np.ceil(total * fs)) + 1)
        times = np.arange(n) / fs

        position, velocity, acceleration, extrusion, command_index, layer_index = (
            self._motion_arrays(times, segments)
        )

        hotend = self._thermal_track(times, events["hotend"], machine.hotend_tau)
        bed = self._thermal_track(times, events["bed"], machine.bed_tau)
        fan = self._step_track(times, events["fan"])

        joint_pos = machine.kinematics.joint_positions(position)
        joint_vel = np.gradient(joint_pos, 1.0 / fs, axis=0)

        return MachineTrace(
            sim_rate=fs,
            times=times,
            position=position,
            velocity=velocity,
            acceleration=acceleration,
            joint_position=joint_pos,
            joint_velocity=joint_vel,
            extrusion_rate=extrusion,
            hotend_temp=hotend,
            bed_temp=bed,
            fan=fan,
            command_index=command_index,
            layer_index=layer_index,
            layer_change_times=list(events["layer_changes"]),
        )

    @staticmethod
    def _segment_bounds(
        times: np.ndarray, segments: List[_MoveSegment], fs: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched sample-index bounds ``[i0, i1)`` of every segment."""
        n = times.shape[0]
        starts = np.array([seg.t_start for seg in segments])
        ends = starts + np.array([seg.duration for seg in segments])
        i0s = np.minimum(np.ceil(starts * fs).astype(np.intp), n)
        i1s = np.minimum(np.ceil(ends * fs).astype(np.intp), n)
        return i0s, i1s

    def _motion_arrays(
        self, times: np.ndarray, segments: List[_MoveSegment]
    ) -> Tuple[np.ndarray, ...]:
        """Motion state on the sampling grid, batched over all segments.

        Instead of evaluating each segment's trapezoidal profile in a
        Python loop, every active sample of the whole print is gathered
        into one flat batch: per-segment parameters are repeated per
        sample, the piecewise closed form is evaluated once over the
        batch, and idle holds between moves are filled with
        ``searchsorted`` over the (monotone) segment boundaries.  The
        arithmetic is element-for-element the same as the per-segment loop
        of :class:`repro.eval.diff.ReferenceFirmware`, so outputs match it
        exactly.
        """
        n = times.shape[0]
        position = np.zeros((n, 3))
        velocity = np.zeros((n, 3))
        acceleration = np.zeros((n, 3))
        extrusion = np.zeros(n)
        command_index = np.zeros(n, dtype=np.intp)
        layer_index = np.zeros(n, dtype=np.intp)
        if not segments:
            return (
                position, velocity, acceleration, extrusion,
                command_index, layer_index,
            )

        fs = self.machine.sim_rate
        i0s, i1s = self._segment_bounds(times, segments, fs)

        # Per-segment parameter vectors.
        t_starts = np.array([seg.t_start for seg in segments])
        jit_durs = np.array([seg.duration for seg in segments])
        p_dist = np.array([seg.profile.distance for seg in segments])
        p_vpeak = np.array([seg.profile.v_peak for seg in segments])
        # Look-ahead chains produce GeneralProfile segments entered at a
        # nonzero junction speed; stop-to-stop TrapezoidalProfile has no
        # v_start attribute and starts from rest.
        p_vstart = np.array(
            [getattr(seg.profile, "v_start", 0.0) for seg in segments]
        )
        p_accel = np.array([seg.profile.accel for seg in segments])
        p_taccel = np.array([seg.profile.t_accel for seg in segments])
        p_tcruise = np.array([seg.profile.t_cruise for seg in segments])
        p_tdecel = np.array([seg.profile.t_decel for seg in segments])
        p_dur = p_taccel + p_tcruise + p_tdecel
        starts_xyz = np.stack([seg.start_xyz for seg in segments])
        directions = np.stack([seg.direction for seg in segments])
        e_deltas = np.array([seg.e_delta for seg in segments])
        cmd_ids = np.array(
            [seg.command_index for seg in segments], dtype=np.intp
        )
        layer_ids = np.array(
            [seg.layer_index for seg in segments], dtype=np.intp
        )
        end_positions = starts_xyz + directions * p_dist[:, np.newaxis]

        # Jitter stretches real time; the profile is defined over the
        # nominal duration, so active times map through the stretch factor.
        stretch = np.ones_like(jit_durs)
        np.divide(p_dur, jit_durs, out=stretch, where=jit_durs > 0)
        e_frac = np.zeros_like(e_deltas)
        np.divide(e_deltas, p_dist, out=e_frac, where=p_dist > 0)

        # Flatten every segment's [i0, i1) sample range into one batch.
        counts = i1s - i0s
        total = int(counts.sum())
        if total:
            offsets = np.cumsum(counts) - counts
            within = np.arange(total) - np.repeat(offsets, counts)
            active = np.repeat(i0s, counts) + within

            rep = lambda a: np.repeat(a, counts)  # noqa: E731
            tau = (times[active] - rep(t_starts)) * rep(stretch)
            r_dur, r_dist = rep(p_dur), rep(p_dist)
            r_vpeak, r_accel = rep(p_vpeak), rep(p_accel)
            r_vstart = rep(p_vstart)
            r_taccel, r_tcruise = rep(p_taccel), rep(p_tcruise)

            # position(tau), clamped exactly as the profile classes do;
            # the v_start terms are written first to mirror GeneralProfile
            # term order (they vanish exactly for v_start == 0).  t_accel
            # is squared with Python pow like the scalar attribute in the
            # profile methods — see the stretch_sq note below.
            taccel_sq = np.array([x**2 for x in p_taccel.tolist()])
            tc = np.clip(tau, 0.0, r_dur)
            d_accel = r_vstart * r_taccel + 0.5 * r_accel * rep(taccel_sq)
            d_cruise = r_vpeak * r_tcruise
            in_accel = tc < r_taccel
            in_cruise = (~in_accel) & (tc < r_taccel + r_tcruise)
            in_decel = ~(in_accel | in_cruise)
            s = np.empty_like(tc)
            s[in_accel] = (
                r_vstart[in_accel] * tc[in_accel]
                + 0.5 * r_accel[in_accel] * tc[in_accel] ** 2
            )
            s[in_cruise] = d_accel[in_cruise] + r_vpeak[in_cruise] * (
                tc[in_cruise] - r_taccel[in_cruise]
            )
            td = tc[in_decel] - r_taccel[in_decel] - r_tcruise[in_decel]
            s[in_decel] = (
                d_accel[in_decel]
                + d_cruise[in_decel]
                + r_vpeak[in_decel] * td
                - 0.5 * r_accel[in_decel] * td**2
            )
            s = np.minimum(s, r_dist)

            # velocity(tau) and acceleration(tau) on the *unclamped* tau,
            # mirroring the profile methods' phase masks.
            v = np.zeros_like(tau)
            in_move = (tau >= 0.0) & (tau <= r_dur)
            tm = tau[in_move]
            vm = np.empty_like(tm)
            m_taccel, m_tcruise = r_taccel[in_move], r_tcruise[in_move]
            m_vpeak, m_accel = r_vpeak[in_move], r_accel[in_move]
            m_vstart = r_vstart[in_move]
            accel_phase = tm < m_taccel
            cruise_phase = (~accel_phase) & (tm < m_taccel + m_tcruise)
            decel_phase = ~(accel_phase | cruise_phase)
            vm[accel_phase] = (
                m_vstart[accel_phase] + m_accel[accel_phase] * tm[accel_phase]
            )
            vm[cruise_phase] = m_vpeak[cruise_phase]
            tdv = (
                tm[decel_phase]
                - m_taccel[decel_phase]
                - m_tcruise[decel_phase]
            )
            vm[decel_phase] = np.maximum(
                m_vpeak[decel_phase] - m_accel[decel_phase] * tdv, 0.0
            )
            v[in_move] = vm

            a = np.zeros_like(tau)
            accel_sel = (tau >= 0.0) & (tau < r_taccel)
            a[accel_sel] = r_accel[accel_sel]
            lo = r_taccel + r_tcruise
            decel_sel = (tau >= lo) & (tau <= r_dur)
            a[decel_sel] = -r_accel[decel_sel]

            r_stretch = rep(stretch)
            # Python-pow squares to stay bit-exact with the loop reference
            # (numpy's array ** 2 can differ from scalar ** 2 by one ulp).
            stretch_sq = np.array([x**2 for x in stretch.tolist()])
            seg_of = np.repeat(np.arange(len(segments)), counts)
            r_dir = directions[seg_of]
            v_scaled = v * r_stretch
            position[active] = starts_xyz[seg_of] + s[:, np.newaxis] * r_dir
            velocity[active] = v_scaled[:, np.newaxis] * r_dir
            acceleration[active] = (
                a * rep(stretch_sq)
            )[:, np.newaxis] * r_dir
            extrusion[active] = v_scaled * rep(e_frac)
            command_index[active] = rep(cmd_ids)
            layer_index[active] = rep(layer_ids)

        # Idle samples: hold the end position of the last segment whose
        # sampling window closed at or before them (zeros before the first
        # move), and the most recent written command/layer value.
        coverage = np.zeros(n + 1, dtype=np.intp)
        np.add.at(coverage, i0s, 1)
        np.add.at(coverage, i1s, -1)
        written = np.cumsum(coverage[:-1]) > 0
        idle = np.flatnonzero(~written)
        if idle.size:
            last_done = np.searchsorted(i1s, idle, side="right") - 1
            has_prev = last_done >= 0
            position[idle[has_prev]] = end_positions[last_done[has_prev]]
            fill_from = np.maximum.accumulate(
                np.where(written, np.arange(n), 0)
            )
            command_index[idle] = command_index[fill_from[idle]]
            layer_index[idle] = layer_index[fill_from[idle]]

        return (
            position, velocity, acceleration, extrusion,
            command_index, layer_index,
        )

    def _thermal_track(
        self, times: np.ndarray, events: List[Tuple[float, float]], tau: float
    ) -> np.ndarray:
        """First-order response to a piecewise-constant target.

        The recursion ``out[i] = out[i-1] + alpha * (target[i] - out[i-1])``
        is a one-pole IIR filter, evaluated in C via ``scipy.signal.lfilter``
        (with the ambient temperature as the initial condition).
        """
        # Imported here, not at module load: scipy.signal is slow to import
        # and only the thermal track needs it.
        from scipy.signal import lfilter

        with obs.trace("thermal"):
            target = self._step_track(times, events)
            out = np.empty_like(target)
            out[0] = self.machine.ambient_temp
            alpha = (1.0 / self.machine.sim_rate) / max(tau, 1e-6)
            alpha = min(alpha, 1.0)
            if out.size > 1:
                out[1:], _ = lfilter(
                    [alpha],
                    [1.0, alpha - 1.0],
                    target[1:],
                    zi=np.array([(1.0 - alpha) * out[0]]),
                )
        return out

    @staticmethod
    def _step_track(
        times: np.ndarray, events: List[Tuple[float, float]]
    ) -> np.ndarray:
        """Piecewise-constant value track from (time, value) step events."""
        out = np.zeros_like(times)
        if not events:
            return out
        events = sorted(events)
        values = np.array([v for _, v in events])
        starts = np.array([t for t, _ in events])
        idx = np.searchsorted(starts, times, side="right") - 1
        idx = np.clip(idx, 0, len(events) - 1)
        return values[idx]


def simulate_print(
    program: GcodeProgram,
    machine: MachineConfig,
    time_noise: TimeNoiseModel = NO_TIME_NOISE,
    seed: Optional[int] = None,
    transformer: Optional[CommandTransformer] = None,
) -> MachineTrace:
    """One-call convenience wrapper around :class:`Firmware`."""
    rng = np.random.default_rng(seed)
    return Firmware(machine, time_noise, transformer).run(program, rng)
