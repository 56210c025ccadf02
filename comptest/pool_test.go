package comptest

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"repro/internal/script"
)

// TestIdleStandsRetainNoScript pins the pool's lifetime rule: idle
// stands keep nothing from the scripts they ran, so once a campaign is
// over its scripts are garbage while the Runner — and its idle stands —
// are still alive, and no key holds more idle stands than the
// campaign's parallelism.
func TestIdleStandsRetainNoScript(t *testing.T) {
	r, err := NewRunner(WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	wb, err := BuiltinWorkbook("central_locking")
	if err != nil {
		t.Fatal(err)
	}
	// run compiles a fresh plan, runs it over every stand and returns
	// weak pointers to its scripts; nothing else outlives the call.
	run := func() []weak.Pointer[script.Script] {
		suite, err := LoadSuiteString(wb)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Compile(suite)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Campaign(context.Background(), plan.Units(StandNames(), "central_locking")); err != nil {
			t.Fatal(err)
		}
		ptrs := make([]weak.Pointer[script.Script], len(plan.Scripts))
		for i, sc := range plan.Scripts {
			ptrs[i] = weak.Make(sc)
		}
		return ptrs
	}
	var ptrs []weak.Pointer[script.Script]
	for range 3 {
		ptrs = run()
	}
	runtime.GC()
	for i, p := range ptrs {
		if p.Value() != nil {
			t.Errorf("script %d still reachable after its campaign", i+1)
		}
	}
	r.poolMu.Lock()
	for key, idle := range r.pools {
		if len(idle) > 2 {
			t.Errorf("key %q holds %d idle stands, want <= 2 at parallelism 2", key, len(idle))
		}
	}
	r.poolMu.Unlock()
	runtime.KeepAlive(r)
}
