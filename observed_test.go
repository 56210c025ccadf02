package repro

import (
	"context"
	"testing"
	"time"

	"repro/comptest"
	"repro/comptest/explore"
	"repro/internal/script"
	"repro/internal/stand"
)

// TestObserverKeepsFastForward pins the kernel's Skipped counter over
// the full builtin matrix: a run with a behavioural-trace observer
// attached crosses exactly as much simulated time by fast-forward jumps
// as the same run without one, a tick-by-tick run crosses none, and the
// paper's interior-light script does skip time — so observation costs
// no fast-forward.
func TestObserverKeepsFastForward(t *testing.T) {
	plans := compileBuiltin(t)
	ctx := context.Background()
	var paperSkipped time.Duration
	forEachPair(t, plans, func(t *testing.T, standName, dut string, plan *comptest.Plan, sc *script.Script) {
		run := func(obs stand.Observer, ff bool) time.Duration {
			st := freshStand(t, standName, dut, plan, sc)
			st.SetObserver(obs)
			st.SetFastForward(ff)
			st.RunCompiled(ctx, plan.Compiled(sc), stand.RunOptions{})
			return st.Skipped
		}
		plain := run(nil, true)
		if observed := run(&explore.Trace{}, true); observed != plain {
			t.Errorf("%s on %s (%s): observed run skipped %v, unobserved %v",
				sc.Name, standName, dut, observed, plain)
		}
		if ticked := run(&explore.Trace{}, false); ticked != 0 {
			t.Errorf("%s on %s (%s): tick-by-tick run skipped %v", sc.Name, standName, dut, ticked)
		}
		if dut == "interior_light" && standName == "paper_stand" && sc.Name == "InteriorIllumination" {
			paperSkipped = plain
		}
	})
	if paperSkipped <= 0 {
		t.Errorf("paper interior-light script skipped %v, want > 0", paperSkipped)
	}
}
