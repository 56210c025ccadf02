package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"repro/comptest"
	"repro/internal/method"
	"repro/internal/report"
	"repro/internal/stand"
)

// campaignParallelism is the Runner's worker-pool bound: nproc on the
// reference 2-core container.
const campaignParallelism = 2

// switchSink forwards to the current op's sink. The Runner's sinks are
// fixed at construction, and one Runner (with its stand pool) serves
// every op; ops run one at a time, so cur is only swapped between
// Campaign calls.
type switchSink struct{ cur comptest.Sink }

func (s *switchSink) Emit(r comptest.Result) { s.cur.Emit(r) }

// encodeSpan times each NDJSON emission — report.EncodeJSON plus the
// buffered write — as a report.encode span under the campaign span.
type encodeSpan struct {
	tr       *tracer
	op, camp int
	inner    comptest.Sink
	buf      *bytes.Buffer
	bytes    *int
}

func (e encodeSpan) Emit(r comptest.Result) {
	id := e.tr.begin(e.op, e.camp, "report.encode")
	n := e.buf.Len()
	e.inner.Emit(r)
	e.tr.end(id)
	*e.bytes += e.buf.Len() - n
}

// campaignInput is one op's generated input: the order in which the
// built-in workbooks are loaded and the stands are crossed. Every op
// covers the full DUT x stand matrix; the seed varies the unit order,
// and with it which pooled stands are reused when.
type campaignInput struct {
	duts, stands []string
}

func campaignInputFor(seed int64, n int, duts, stands []string) campaignInput {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(n)))
	in := campaignInput{duts: append([]string(nil), duts...), stands: append([]string(nil), stands...)}
	rng.Shuffle(len(in.duts), func(i, j int) { in.duts[i], in.duts[j] = in.duts[j], in.duts[i] })
	rng.Shuffle(len(in.stands), func(i, j int) { in.stands[i], in.stands[j] = in.stands[j], in.stands[i] })
	return in
}

func runCampaignLocal(cfg config) (*result, error) {
	ctx := context.Background()
	duts, stands := comptest.DUTNames(), comptest.StandNames()
	workbooks := map[string]string{}
	refs := map[string]*campaignRef{}
	for _, d := range duts {
		wb, err := comptest.BuiltinWorkbook(d)
		if err != nil {
			return nil, err
		}
		workbooks[d] = wb
		for _, s := range stands {
			ref, err := referenceCampaign(wb, s, d)
			if err != nil {
				return nil, err
			}
			refs[d+"/"+s] = ref
		}
	}
	res := &result{layers: map[string]float64{}}

	// expected lists the reference line of every unit of an op, in the
	// order plan.Units emits them, plus the op's simulated seconds.
	expected := func(in campaignInput) ([][]byte, float64) {
		var lines [][]byte
		sim := 0.0
		for _, d := range in.duts {
			for _, s := range in.stands {
				ref := refs[d+"/"+s]
				lines = append(lines, ref.lines...)
				sim += ref.simS
			}
		}
		return lines, sim
	}
	sink := &switchSink{}
	var runner *comptest.Runner
	var stream bytes.Buffer

	// op runs one campaign_local op; with a tracer it records the layer
	// spans and then replays the same units directly through
	// stand.build → stand.run → report.encode.
	op := func(tr *tracer, n int) opResult {
		in := campaignInputFor(cfg.seed, n, duts, stands)
		want, sim := expected(in)
		stream.Reset()
		encBytes := 0
		t0 := time.Now()
		root := tr.begin(n, -1, "op")
		var units []comptest.Unit
		for _, d := range in.duts {
			id := tr.begin(n, root, "sheet")
			suite, err := comptest.LoadSuiteString(workbooks[d])
			tr.end(id)
			if err != nil {
				return failOp(n, in, err)
			}
			id = tr.begin(n, root, "comptest.compile")
			plan, err := comptest.Compile(suite)
			tr.end(id)
			if err != nil {
				return failOp(n, in, err)
			}
			units = append(units, plan.Units(in.stands, d)...)
		}
		camp := tr.begin(n, root, "comptest.campaign")
		if tr != nil {
			sink.cur = comptest.Ordered(encodeSpan{tr: tr, op: n, camp: camp,
				inner: comptest.NDJSON(&stream), buf: &stream, bytes: &encBytes})
		} else {
			sink.cur = comptest.Ordered(comptest.NDJSON(&stream))
		}
		sum, err := runner.Campaign(ctx, units)
		tr.end(camp)
		tr.end(root)
		r := opResult{dur: time.Since(t0), units: len(units), simS: sim}
		if err != nil {
			return failOp(n, in, err)
		}
		r.ok = checkLines(n, in, stream.Bytes(), want)
		if tr != nil {
			t1 := time.Now()
			r.ok = driveUnits(tr, n, in, units, want, &encBytes) && r.ok
			r.aside = time.Since(t1)
			tr.bytes += encBytes
		}
		if sum.Units != len(units) || sum.Errored+sum.Skipped != 0 {
			fmt.Fprintf(os.Stderr, "MISMATCH campaign_local op %d %+v: summary %s\n", n, in, sum)
			r.ok = false
		}
		return r
	}

	// Set-up: build the Runner; repeated, median reported. The last
	// Runner is kept, and one untimed warm-up op fills its stand pool
	// before the window opens.
	newRunner := func() (*comptest.Runner, error) {
		return comptest.NewRunner(comptest.WithParallelism(campaignParallelism), comptest.WithSink(sink))
	}
	var err error
	if runner, err = timeSetups(res, newRunner, nil); err != nil {
		return nil, err
	}
	if r := op(nil, -1); !r.ok {
		return nil, fmt.Errorf("warm-up op failed")
	}

	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	res.main = loop(window, 1, 1, 0, func(_, n int) opResult { return op(nil, n) })
	if err := retimeSetups(res, newRunner, nil); err != nil {
		return nil, err
	}
	res.notef("mix: every op covers %d workbooks x %d stands = %d units/op; workbook share %.4f each, stand share %.4f each (seed-shuffled unit order)",
		len(duts), len(stands), res.main.units/max(1, len(res.main.opMS)), 1/float64(len(duts)), 1/float64(len(stands)))
	if !cfg.trace {
		return res, nil
	}

	tr := newTracer()
	traced := loop(window, 1, 1, tracedFirst, func(_, n int) opResult { return op(tr, n) })
	res.traced = &traced
	agg := tr.aggregate()
	for _, name := range []string{"sheet", "comptest.compile", "stand.build", "stand.run", "report.encode", "comptest.campaign"} {
		putLayer(res, agg, name)
	}
	res.layers["stand.run.sim_s"] = tr.simS
	res.layers["stand.run.host_us_per_sim_s"] = ratio(res.layers["stand.run.busy_ms"]*1e3, tr.simS)
	res.layers["report.encode.bytes"] = float64(tr.bytes)
	tr.whereTimeGoes(res, "campaign_local op (self time per layer; report.encode runs inside the campaign's sink)",
		func(root span) bool { return root.Name == "op" })
	tr.whereTimeGoes(res, "campaign_local units replayed directly, sequentially, one fresh stand per unit",
		func(root span) bool { return root.Name == "drive" })
	// Only the sink boundary of Runner.Campaign is visible from outside,
	// so its self time still contains the units it executed. Set it
	// against the same units' kernel and encoder time when driven
	// directly, spread over the campaign's workers.
	var unitWork time.Duration
	for _, s := range tr.spans {
		if s.Parent >= 0 && tr.spans[s.Parent].Name == "drive" && s.Name != "stand.build" {
			unitWork += s.dur()
		}
	}
	campBusy := res.layers["comptest.campaign.busy_ms"]
	perWorker := float64(unitWork) / 1e6 / campaignParallelism
	res.notef("  comptest.campaign busy %.3f ms vs direct stand.run + report.encode %.3f ms / %d workers = %.3f ms: "+
		"%.3f ms (%.2f%% of campaign busy) not explained by unit execution (runner, pool and parallel speed-up losses)",
		campBusy, float64(unitWork)/1e6, campaignParallelism, perWorker, campBusy-perWorker,
		100*ratio(campBusy-perWorker, campBusy))
	path, err := tr.write(cfg)
	if err != nil {
		return nil, err
	}
	res.notef("spans written to %s", path)
	return res, nil
}

// driveUnits replays an op's units one by one through the layers the
// Runner hides: stand construction, the event kernel and the report
// encoder, each timed as its own span under a "drive" root. Every
// encoded report must equal the reference line.
func driveUnits(tr *tracer, n int, in campaignInput, units []comptest.Unit, want [][]byte, encBytes *int) bool {
	ctx := context.Background()
	reg := method.Builtin()
	root := tr.begin(n, -1, "drive")
	defer tr.end(root)
	ok := true
	for i, u := range units {
		id := tr.begin(n, root, "stand.build")
		st, err := buildStand(reg, u)
		tr.end(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "MISMATCH campaign_local op %d %+v: unit %d: %v\n", n, in, i, err)
			return false
		}
		id = tr.begin(n, root, "stand.run")
		rep := st.RunCompiled(ctx, u.Compiled, stand.RunOptions{})
		tr.end(id)
		tr.simS += executedSimS(rep)
		id = tr.begin(n, root, "report.encode")
		line, err := report.EncodeJSON(rep)
		tr.end(id)
		*encBytes += len(line) + 1
		if err != nil || !bytes.Equal(append(line, '\n'), want[i]) {
			fmt.Fprintf(os.Stderr, "MISMATCH campaign_local op %d %+v: directly driven unit %d (%s on %s) differs from the reference\n",
				n, in, i, u.Compiled.Script.Name, u.Stand)
			ok = false
		}
	}
	return ok
}

// buildStand is what the Runner does for a unit without a pooled stand:
// the registered profile for the script's harness, a stand, the DUT.
func buildStand(reg *method.Registry, u comptest.Unit) (*stand.Stand, error) {
	cfg, err := comptest.BuildStand(u.Stand, reg, stand.HarnessFromScript(u.Compiled.Script))
	if err != nil {
		return nil, err
	}
	st, err := stand.New(cfg, reg)
	if err != nil {
		return nil, err
	}
	dut, err := comptest.NewDUT(u.DUT)
	if err != nil {
		return nil, err
	}
	return st, st.AttachDUT(dut)
}

// checkLines compares an op's NDJSON stream to the reference lines.
func checkLines(n int, in campaignInput, got []byte, want [][]byte) bool {
	for i, w := range want {
		if !bytes.HasPrefix(got, w) {
			fmt.Fprintf(os.Stderr, "MISMATCH campaign_local op %d %+v: NDJSON line %d differs from the reference\n", n, in, i)
			return false
		}
		got = got[len(w):]
	}
	if len(got) != 0 {
		fmt.Fprintf(os.Stderr, "MISMATCH campaign_local op %d %+v: %d extra NDJSON bytes\n", n, in, len(got))
		return false
	}
	return true
}

func failOp(n int, in campaignInput, err error) opResult {
	fmt.Fprintf(os.Stderr, "FAILED campaign_local op %d %+v: %v\n", n, in, err)
	return opResult{}
}
