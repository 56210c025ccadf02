package explore

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/comptest"
	"repro/internal/ecu"
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

// faultedFactory returns a factory of fresh instances of a registered
// DUT model with the named faults injected; the names are checked up
// front, so the factory itself cannot fail.
func faultedFactory(dut string, faults ...string) (comptest.DUTFactory, error) {
	if err := comptest.CheckFaults(dut, faults...); err != nil {
		return nil, err
	}
	return func() ecu.ECU {
		d, _ := comptest.NewDUT(dut)
		for _, f := range faults {
			_ = d.InjectFault(f)
		}
		return d
	}, nil
}

// newStand builds the named stand profile for sc's harness with a DUT
// from f attached.
func newStand(t *testing.T, suite *comptest.Suite, standName string, f comptest.DUTFactory,
	sc *script.Script) *stand.Stand {
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
	return st
}

// observedRun executes one script on a freshly built stand with a
// recorder (and the optional extra observer) attached, ticked or
// fast-forwarded, and returns the encoded report and observer stream.
func observedRun(t *testing.T, suite *comptest.Suite, standName string, f comptest.DUTFactory,
	sc *script.Script, ff bool, extra stand.Observer) (rep, stream []byte) {
	t.Helper()
	return recordedRun(t, suite, newStand(t, suite, standName, f, sc), sc, ff, extra)
}

// recordedRun executes one script on st with a recorder (and the
// optional extra observer) attached and returns the encoded report and
// observer stream.
func recordedRun(t *testing.T, suite *comptest.Suite, st *stand.Stand,
	sc *script.Script, ff bool, extra stand.Observer) (rep, stream []byte) {
	t.Helper()
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
			label, firstDiff(tickedObs, fastObs, "ticked", "fastfw"))
	}
	return tr
}

// firstDiff renders the first differing line of two observer streams,
// labelled with the names of the runs that produced them.
func firstDiff(a, b []byte, aName, bName string) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d\n%s: %s\n%s: %s", i+1, aName, al[i], bName, bl[i])
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
			clean, err := faultedFactory(dut)
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
			clean, err := faultedFactory(opts.DUT)
			if err != nil {
				t.Fatal(err)
			}
			faulted := make([]comptest.DUTFactory, len(opts.Oracle))
			for j, fault := range opts.Oracle {
				if faulted[j], err = faultedFactory(opts.DUT, fault); err != nil {
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

// TestReusedStandObserverStream pins run-relative observer time, the
// property that lets observed units share pooled stands: on every
// builtin pair, a stand that already ran another script (observed, as
// a pooled traced unit would be) and was re-aligned for reuse
// (stand.AlignForReuse) gives the next run's observer the same report
// and stream a freshly built stand does.
func TestReusedStandObserverStream(t *testing.T) {
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
		clean, err := faultedFactory(dut)
		if err != nil {
			t.Fatal(err)
		}
		for _, standName := range comptest.StandNames() {
			for i, sc := range scripts {
				label := fmt.Sprintf("%s on %s (%s)", sc.Name, standName, dut)
				freshRep, freshObs := observedRun(t, suite, standName, clean, sc, true, nil)
				st := newStand(t, suite, standName, clean, sc)
				recordedRun(t, suite, st, scripts[(i+1)%len(scripts)], true, nil)
				st.AlignForReuse()
				reusedRep, reusedObs := recordedRun(t, suite, st, sc, true, nil)
				if !bytes.Equal(freshRep, reusedRep) {
					t.Errorf("%s: reused-stand report differs from fresh\nfresh:  %s\nreused: %s",
						label, freshRep, reusedRep)
				}
				if !bytes.Equal(freshObs, reusedObs) {
					t.Errorf("%s: reused-stand observer stream differs from fresh:\n%s",
						label, firstDiff(freshObs, reusedObs, "fresh", "reused"))
				}
				pairs++
			}
		}
	}
	if pairs == 0 {
		t.Fatal("builtin matrix is empty")
	}
}
