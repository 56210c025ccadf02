package ecu

import (
	"time"

	"repro/internal/analog"
)

// WindowLifter models a third body ECU used by the extended examples: a
// door window lifter with a travel limit and a switch interlock.
//
// Requirements implemented:
//
//	R1  While the UP switch (low-active pin SW_UP) is pressed alone, the
//	    up motor output MOT_UP drives.
//	R2  While the DOWN switch is pressed alone, MOT_DOWN drives.
//	R3  Travel limit: continuous motion in one direction stops after 4 s
//	    (end stop reached); releasing the switch re-arms the limit.
//	R4  Interlock: if both switches are pressed, both motors stop.
//	R5  Thermal protection: after 30 s of accumulated motor-on time the
//	    motors are inhibited for 60 s.
type WindowLifter struct {
	Base

	swUp    *DigitalInput
	swDown  *DigitalInput
	motUp   *HighSideOutput
	motDown *HighSideOutput

	moveStart  time.Duration
	moving     int // 0 none, +1 up, -1 down
	motorOnAcc time.Duration
	inhibitTil time.Duration
	lastTick   time.Duration // -1 until the first tick after a reset
	// charging records that the previous tick ran a motor against the
	// thermal budget; the task ticks a fast-forward skipped since then
	// ran it too, because the outputs stayed constant across the jump.
	charging bool
}

// WindowLifterPins is the connector pinout.
var WindowLifterPins = []string{"SW_UP", "SW_DOWN", "MOT_UP", "MOT_DOWN"}

// TravelLimit is the R3 continuous-motion limit.
const TravelLimit = 4 * time.Second

// ThermalBudget and ThermalCooldown define R5.
const (
	ThermalBudget   = 30 * time.Second
	ThermalCooldown = 60 * time.Second
)

// NewWindowLifter creates the model.
func NewWindowLifter() *WindowLifter {
	m := &WindowLifter{}
	m.ModelName = "window_lifter"
	m.registerFaults(
		FaultInfo{Name: "no_interlock", Requirement: "R4",
			Doc:     "both motors drive when both switches are pressed",
			Signals: []string{"SW_UP", "SW_DOWN", "MOT_UP", "MOT_DOWN"}},
		FaultInfo{Name: "travel_8s", Requirement: "R3",
			Doc:     "end stop detected after 8 s instead of 4 s",
			Signals: []string{"MOT_UP", "MOT_DOWN"}},
		FaultInfo{Name: "no_thermal", Requirement: "R5",
			Doc:     "no thermal protection",
			Signals: []string{"MOT_UP", "MOT_DOWN"}},
		FaultInfo{Name: "stuck_up", Requirement: "R1",
			Doc:     "MOT_UP permanently on",
			Signals: []string{"MOT_UP"}},
	)
	return m
}

// PinNames implements ECU.
func (m *WindowLifter) PinNames() []string {
	out := make([]string, len(WindowLifterPins))
	copy(out, WindowLifterPins)
	return out
}

// Attach implements ECU.
func (m *WindowLifter) Attach(env *Env) error {
	if err := m.attachBase(env); err != nil {
		return err
	}
	m.swUp = m.AddInputPullUp("SW_UP", 1000)
	m.swDown = m.AddInputPullUp("SW_DOWN", 1000)
	m.motUp = m.AddOutputHighSide("MOT_UP", 0.2, 1000)
	m.motDown = m.AddOutputHighSide("MOT_DOWN", 0.2, 1000)
	m.Reset()
	return nil
}

// Reset implements ECU.
func (m *WindowLifter) Reset() {
	m.moveStart = 0
	m.moving = 0
	m.motorOnAcc = 0
	m.inhibitTil = 0
	m.lastTick = -1
	m.charging = false
	if m.motUp != nil {
		m.motUp.Set(false)
		m.motDown.Set(false)
	}
}

// QuiescentUntil implements Quiescer. While a motor runs, the travel
// limit and the thermal budget are the self-scheduled transitions; with
// the motors off, every change needs a switch edge. The stuck_up fault
// keeps the thermal accounting churning against a forced-on output, so
// no promise is made there.
func (m *WindowLifter) QuiescentUntil(now time.Duration) (time.Duration, bool) {
	if m.Fault("stuck_up") {
		return 0, false
	}
	if !m.motUp.On() && !m.motDown.On() {
		// Off stays off: re-engaging needs a switch edge, and a thermal
		// inhibit always outlasts the travel-limit window it froze.
		return Forever, true
	}
	limit := TravelLimit
	if m.Fault("travel_8s") {
		limit = 8 * time.Second
	}
	wake := m.moveStart + limit
	if !m.Fault("no_thermal") {
		// Accumulation is linear in elapsed time while a motor runs, so
		// the budget crossing is exactly predictable.
		if thermal := now + (ThermalBudget - m.motorOnAcc); thermal < wake {
			wake = thermal
		}
	}
	return wake, true
}

// Tick implements ECU.
func (m *WindowLifter) Tick(now time.Duration, sol *analog.Solution) {
	// skipped is the running time of the task ticks a fast-forward
	// jumped over since the previous tick; zero on a ticked run.
	var skipped time.Duration
	if m.charging {
		skipped = now - m.lastTick - TaskPeriod
	}
	m.lastTick = now

	up := m.swUp.Active(sol)
	down := m.swDown.Active(sol)

	want := 0
	switch {
	case up && down:
		if m.Fault("no_interlock") {
			want = +1 // R4 violated: up wins and both drive below
		}
	case up:
		want = +1
	case down:
		want = -1
	}

	if want != m.moving {
		m.moving = want
		m.moveStart = now
	}

	limit := TravelLimit
	if m.Fault("travel_8s") {
		limit = 8 * time.Second
	}
	runUp := want == +1 && now-m.moveStart < limit
	runDown := want == -1 && now-m.moveStart < limit

	// R5 thermal budget: every tick that runs a motor charges one task
	// period.
	if !m.Fault("no_thermal") {
		m.motorOnAcc += skipped
		if now < m.inhibitTil {
			runUp, runDown = false, false
		} else if runUp || runDown {
			m.motorOnAcc += TaskPeriod
			if m.motorOnAcc >= ThermalBudget {
				m.motorOnAcc = 0
				m.inhibitTil = now + ThermalCooldown
				runUp, runDown = false, false
			}
		}
		m.charging = runUp || runDown
	}

	if m.Fault("no_interlock") && up && down {
		runDown = runUp // both motors drive — the bug under test
	}
	if m.Fault("stuck_up") {
		runUp = true
	}
	m.motUp.Set(runUp)
	m.motDown.Set(runDown)
}

var _ ECU = (*WindowLifter)(nil)
var _ Quiescer = (*WindowLifter)(nil)
