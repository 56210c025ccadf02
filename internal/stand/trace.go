package stand

import (
	"strings"
	"time"

	"repro/internal/analog"
	"repro/internal/canbus"
	"repro/internal/event"
	"repro/internal/report"
	"repro/internal/script"
	"repro/internal/sigdef"
)

// TracePeriod is the sampling rate of the behavioural trace: while a
// step's dt elapses, an attached Observer sees the DUT outputs at this
// simulated-time interval. It is coarser than the get_t/get_f
// SamplePeriod because the trace feeds coverage models, not
// measurements — and the network solver's dirty-flag cache makes the
// extra solves nearly free between DUT ticks.
const TracePeriod = 50 * time.Millisecond

// OutputState is one observed DUT output level: the voltage of a
// declared electrical "out" signal, or the payload of a CAN "out"
// signal. High binarises electrical levels against half the supply so
// observers need not know the stand's ubatt.
type OutputState struct {
	// Signal is the declared (lower-case) script signal name.
	Signal string
	// CAN marks a bus signal; Value then carries the payload and Volts
	// is meaningless. Electrical signals carry Volts and High.
	CAN   bool
	Volts float64
	High  bool
	Value uint64
	// Valid is false when the level could not be observed (no CAN frame
	// received yet, solver failure).
	Valid bool
}

// Observer receives behavioural events while RunContext or RunCompiled
// executes a script. All callbacks run on the executing goroutine, in
// simulated time order; an observer attached to one Stand never sees
// concurrent calls. The coverage-guided exploration engine
// (comptest/explore) records output/CAN transitions through this hook.
//
// Attaching an observer changes neither the report nor the quiescence
// fast-forward: across a window the stand jumps, it reports the skipped
// samples itself, with the outputs it observed once for the window. The
// outputs slice passed to a callback may therefore be shared by
// consecutive samples; observers treat it as read-only.
//
// Every now argument is simulated time since RunStarted, so a run on a
// reused stand (AlignForReuse) reports exactly the times a run on a
// freshly built stand reports.
type Observer interface {
	// RunStarted is called once per run, after validation and reset,
	// before the init block is applied.
	RunStarted(sc *script.Script, ubattVolts float64)
	// OutputsSampled reports the DUT output levels at one sample point:
	// after the init settle (step = -1) and every TracePeriod while a
	// step's dt elapses (step = the step number).
	OutputsSampled(now time.Duration, step int, outputs []OutputState)
	// StepFinished reports the settled output levels at the end of a
	// step, after dt elapsed and before the step's measurements are
	// judged.
	StepFinished(step *script.Step, now time.Duration, outputs []OutputState)
	// RunFinished is called once with the completed report.
	RunFinished(rep *report.Report)
}

// SetObserver attaches a behavioural-trace observer to the stand, or
// detaches it with nil. It must not be called while a script is
// executing.
func (s *Stand) SetObserver(o Observer) { s.obs = o }

// runTime is the simulated time since the current run started: the
// clock every Observer callback reports.
func (s *Stand) runTime() time.Duration { return s.sched.Now() - s.runStart }

// Ubatt returns the stand's supply voltage.
func (s *Stand) Ubatt() float64 { return s.cfg.UbattVolts }

// observeOutputs samples every declared "out" signal of the script:
// electrical pins through the network solver, CAN signals through the
// monitor. Unobservable signals are reported with Valid == false rather
// than dropped, so traces always have a fixed shape per script.
func (s *Stand) observeOutputs(sc *script.Script) []OutputState {
	var sol *analog.Solution
	var solErr error
	solved := false

	out := make([]OutputState, 0, len(sc.Decls))
	for _, d := range sc.Decls {
		dir, err := sigdef.ParseDirection(d.Direction)
		if err != nil || dir != sigdef.Out {
			continue
		}
		st := OutputState{Signal: strings.ToLower(d.Name)}
		cls, err := sigdef.ParseClass(d.Class)
		if err == nil && cls == sigdef.CANSignal {
			st.CAN = true
			order, err := canbus.ParseByteOrder(d.ByteOrder)
			if err == nil {
				if v, err := s.monitor.SignalOrder(order, s.db, d.Message, d.StartBit, d.Length); err == nil {
					st.Value, st.Valid = v, true
				}
			}
		} else {
			if !solved {
				sol, solErr = s.net.Solve()
				solved = true
				if solErr == nil {
					s.Solves++
				}
			}
			if solErr == nil {
				hi := s.net.Node(d.Pin)
				lo := analog.Ground
				if d.PinRet != "" {
					lo = s.net.Node(d.PinRet)
				}
				st.Volts = sol.VoltageBetween(hi, lo)
				st.High = st.Volts > 0.5*s.cfg.UbattVolts
				st.Valid = true
			}
		}
		out = append(out, st)
	}
	return out
}

// MultiObserver fans one stand's behavioural events out to several
// observers, in argument order. Nil entries are skipped, so callers can
// compose optional hooks without branching; with zero (or only nil)
// observers it returns nil, which detaches observation entirely.
func MultiObserver(obs ...Observer) Observer {
	var active []Observer
	for _, o := range obs {
		if o != nil {
			active = append(active, o)
		}
	}
	switch len(active) {
	case 0:
		return nil
	case 1:
		return active[0]
	}
	return multiObserver(active)
}

type multiObserver []Observer

func (m multiObserver) RunStarted(sc *script.Script, ubattVolts float64) {
	for _, o := range m {
		o.RunStarted(sc, ubattVolts)
	}
}

func (m multiObserver) OutputsSampled(now time.Duration, step int, outputs []OutputState) {
	for _, o := range m {
		o.OutputsSampled(now, step, outputs)
	}
}

func (m multiObserver) StepFinished(step *script.Step, now time.Duration, outputs []OutputState) {
	for _, o := range m {
		o.StepFinished(step, now, outputs)
	}
}

func (m multiObserver) RunFinished(rep *report.Report) {
	for _, o := range m {
		o.RunFinished(rep)
	}
}

// traceSampler is the armed trace sampling of one step: a suspendable
// periodic series the fast-forward parks with the other drivers, plus
// what the skipped samples of a jumped window are reported against.
type traceSampler struct {
	p    *event.Periodic
	sc   *script.Script
	step int
}

// startTrace arms the periodic trace sampling of one step and returns
// its stop function (a no-op when no observer is attached).
func (s *Stand) startTrace(sc *script.Script, step *script.Step) func() {
	if s.obs == nil {
		return func() {}
	}
	tr := &traceSampler{sc: sc, step: step.Nr}
	tr.p = s.sched.Periodic(TracePeriod, func() {
		s.obs.OutputsSampled(s.runTime(), tr.step, s.observeOutputs(tr.sc))
	})
	s.trace = tr
	return func() {
		tr.p.Stop()
		s.trace = nil
	}
}

// sampleSkipped reports the trace samples a fast-forward jump to end
// crosses: every grid point of the parked sampler up to and including
// end (Resume drops a grid point equal to end, so it belongs to the
// window). The DUT promised constant outputs across the window, so one
// solve serves every sample, and they share one outputs slice.
func (s *Stand) sampleSkipped(end time.Duration) {
	tr := s.trace
	if tr == nil {
		return
	}
	var outs []OutputState
	for at := tr.p.Next(); at <= end; at += TracePeriod {
		if outs == nil {
			outs = s.observeOutputs(tr.sc)
		}
		s.obs.OutputsSampled(at-s.runStart, tr.step, outs)
	}
}
