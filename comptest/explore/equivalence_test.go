package explore

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/comptest"
	"repro/internal/paper"
	"repro/internal/report"
	"repro/internal/script"
	"repro/internal/stand"
	"repro/internal/workbooks"
)

// recorder is a stand.Observer that serialises every callback it sees,
// so two observer streams compare byte for byte.
type recorder struct{ buf bytes.Buffer }

func (r *recorder) RunStarted(sc *script.Script, ubattVolts float64) {
	fmt.Fprintf(&r.buf, "start %s %v\n", sc.Name, ubattVolts)
}

func (r *recorder) OutputsSampled(now time.Duration, step int, outputs []stand.OutputState) {
	fmt.Fprintf(&r.buf, "sample %d %d %v\n", now, step, outputs)
}

func (r *recorder) StepFinished(step *script.Step, now time.Duration, outputs []stand.OutputState) {
	fmt.Fprintf(&r.buf, "end %d %d %v\n", step.Nr, now, outputs)
}

func (r *recorder) RunFinished(rep *report.Report) { r.buf.WriteString("finished\n") }

// observedRun executes one script on a freshly built stand with a
// recorder (and the optional extra observer) attached, ticked or
// fast-forwarded, and returns the encoded report and observer stream.
func observedRun(t *testing.T, suite *comptest.Suite, standName string, f comptest.DUTFactory,
	sc *script.Script, ff bool, extra stand.Observer) (rep, stream []byte) {
	t.Helper()
	cfg, err := comptest.BuildStand(standName, suite.Registry, stand.HarnessFromScript(sc))
	if err != nil {
		t.Fatal(err)
	}
	st, err := stand.New(cfg, suite.Registry)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AttachDUT(f()); err != nil {
		t.Fatal(err)
	}
	c, err := script.Compile(sc, suite.Registry)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	st.SetObserver(stand.MultiObserver(rec, extra))
	st.SetFastForward(ff)
	rep, err = report.EncodeJSON(st.RunCompiled(context.Background(), c, stand.RunOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	return rep, rec.buf.Bytes()
}

// sameObserved runs sc ticked and fast-forwarded and requires identical
// reports and observer streams. It returns the ticked run's trace.
func sameObserved(t *testing.T, label string, suite *comptest.Suite, standName string,
	f comptest.DUTFactory, sc *script.Script) *Trace {
	t.Helper()
	tr := &Trace{}
	tickedRep, tickedObs := observedRun(t, suite, standName, f, sc, false, tr)
	fastRep, fastObs := observedRun(t, suite, standName, f, sc, true, nil)
	if !bytes.Equal(tickedRep, fastRep) {
		t.Errorf("%s: fast-forward report differs from tick-by-tick\nticked: %s\nfastfw: %s",
			label, tickedRep, fastRep)
	}
	if !bytes.Equal(tickedObs, fastObs) {
		t.Errorf("%s: fast-forward observer stream differs from tick-by-tick:\n%s",
			label, firstDiff(tickedObs, fastObs))
	}
	return tr
}

// firstDiff renders the first differing line of two observer streams.
func firstDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d\nticked: %s\nfastfw: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d lines", len(al), len(bl))
}

// TestObservedFastForwardEquivalence pins observation-free
// fast-forward: with an observer attached, a fast-forwarded run must
// produce the same report AND the same observer stream (every callback
// with its time, step and outputs) as the tick-by-tick ground truth.
// The builtin matrix is the fixed half; the generated half runs
// explore Generator walks of both C3 configurations, and the promoted
// script of each walk (which carries measurements), on the clean DUT
// and on every oracle fault — random scenarios cross the model
// transitions that the hand-written scripts never reach mid-window.
func TestObservedFastForwardEquivalence(t *testing.T) {
	t.Run("builtin_matrix", func(t *testing.T) {
		pairs := 0
		for _, dut := range comptest.DUTNames() {
			wb, err := comptest.BuiltinWorkbook(dut)
			if err != nil {
				t.Fatal(err)
			}
			suite := loadSuite(t, wb)
			scripts, err := suite.GenerateScripts()
			if err != nil {
				t.Fatal(err)
			}
			clean, err := comptest.FaultedFactory(dut)
			if err != nil {
				t.Fatal(err)
			}
			for _, standName := range comptest.StandNames() {
				for _, sc := range scripts {
					sameObserved(t, fmt.Sprintf("%s on %s (%s)", sc.Name, standName, dut),
						suite, standName, clean, sc)
					pairs++
				}
			}
		}
		if pairs == 0 {
			t.Fatal("builtin matrix is empty")
		}
	})

	const walks = 60
	for _, c := range []struct {
		workbook string
		opts     Options
	}{
		{workbooks.WindowLifter, lifterOpts()},
		{paper.Workbook, interiorOpts()},
	} {
		opts := c.opts.withDefaults()
		t.Run(opts.DUT, func(t *testing.T) {
			suite := loadSuite(t, c.workbook)
			gen, err := newGenerator(suite, rand.New(rand.NewSource(opts.Seed)),
				opts.MinSteps, opts.MaxSteps, opts.Durations)
			if err != nil {
				t.Fatal(err)
			}
			pin, err := newPinner(suite)
			if err != nil {
				t.Fatal(err)
			}
			clean, err := comptest.FaultedFactory(opts.DUT)
			if err != nil {
				t.Fatal(err)
			}
			faulted := make([]comptest.DUTFactory, len(opts.Oracle))
			for j, fault := range opts.Oracle {
				if faulted[j], err = comptest.FaultedFactory(opts.DUT, fault); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < walks; i++ {
				tc := gen.Next()
				sc, err := script.Generate(tc, suite.Signals, suite.Statuses)
				if err != nil {
					t.Fatal(err)
				}
				tr := sameObserved(t, tc.Name, suite, opts.Stand, clean, sc)
				promo, err := pin.pin(tc, tr)
				if err != nil {
					t.Fatalf("%s: %v", tc.Name, err)
				}
				sameObserved(t, tc.Name+"/promoted", suite, opts.Stand, clean, promo.Script)
				for j, fault := range opts.Oracle {
					sameObserved(t, tc.Name+"/"+fault, suite, opts.Stand, faulted[j], sc)
					sameObserved(t, tc.Name+"/promoted/"+fault, suite, opts.Stand, faulted[j], promo.Script)
				}
			}
		})
	}
}
