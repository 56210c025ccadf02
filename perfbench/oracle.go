package main

import (
	"bytes"
	"context"
	"fmt"

	"repro/comptest"
	"repro/comptest/api"
	"repro/comptest/explore"
	"repro/comptest/mutation"
	"repro/internal/lint"
	"repro/internal/report"
)

// The output oracle: reference outputs computed in process before any
// timed op, by the most direct path each engine offers (parallelism 1,
// no caches shared with the timed runs). Every timed op must reproduce
// them exactly.

// campaignRef is the reference of one (workbook, stand, DUT) campaign:
// Compile + Campaign at parallelism 1 with a Tracer attached.
type campaignRef struct {
	lines  [][]byte // one NDJSON line per unit, newline included
	stream []byte   // the lines concatenated
	trace  []byte   // the span NDJSON
	sum    comptest.Summary
	simS   float64 // simulated seconds of executed steps, all units
}

func (r *campaignRef) verdict() string {
	if r.sum.Passed == r.sum.Units {
		return "green"
	}
	return "red"
}

func referenceCampaign(workbook, standName, dut string) (*campaignRef, error) {
	suite, err := comptest.LoadSuiteString(workbook)
	if err != nil {
		return nil, err
	}
	plan, err := comptest.Compile(suite)
	if err != nil {
		return nil, err
	}
	units := plan.Units([]string{standName}, dut)
	var stream, trace bytes.Buffer
	tracer := comptest.NewTracer(report.NewSpanWriter(&trace))
	tracer.Attach(units)
	coll := &comptest.Collector{}
	r, err := comptest.NewRunner(comptest.WithStand(standName), comptest.WithParallelism(1),
		comptest.WithSink(comptest.Ordered(comptest.NDJSON(&stream))),
		comptest.WithSink(tracer), comptest.WithSink(coll))
	if err != nil {
		return nil, err
	}
	sum, err := r.Campaign(context.Background(), units)
	if err != nil {
		return nil, err
	}
	tracer.Flush()
	ref := &campaignRef{stream: stream.Bytes(), trace: trace.Bytes(), sum: sum}
	for _, res := range coll.Results() {
		if res.Report != nil {
			ref.simS += executedSimS(res.Report)
		}
	}
	for rest := ref.stream; len(rest) > 0; {
		i := bytes.IndexByte(rest, '\n')
		ref.lines = append(ref.lines, rest[:i+1])
		rest = rest[i+1:]
	}
	if len(ref.lines) != len(units) {
		return nil, fmt.Errorf("reference %s on %s: %d lines for %d units", dut, standName, len(ref.lines), len(units))
	}
	return ref, nil
}

// executedSimS sums the simulated seconds (Dt) of the steps a run
// executed. Steps cut off by an early stop or a cancellation come last
// and carry only SKIP checks and no applied stimuli.
func executedSimS(rep *report.Report) float64 {
	s := 0.0
	for _, st := range rep.Steps {
		if len(st.Applied) == 0 && len(st.Checks) > 0 && allSkipped(st.Checks) {
			break
		}
		s += st.Dt
	}
	return s
}

func allSkipped(cs []report.Check) bool {
	for _, c := range cs {
		if c.Verdict != report.Skip {
			return false
		}
	}
	return true
}

// mutationRef is the reference of one DUT's built-in kill matrix.
type mutationRef struct {
	score   report.Score
	status  api.MutationStatus
	stream  []byte  // NDJSON of the early-kill run at parallelism 1: the service's mutate job
	units   int     // stand runs of that stream
	simS    float64 // simulated seconds of that stream
	planned int     // stand runs of the exhaustive matrix
	sidecar []byte  // strength JSON, as `comptest mutate` writes to <workbook>.kills.json
}

func referenceMutation(plan *mutation.Plan) (*mutationRef, error) {
	ctx := context.Background()
	var stream bytes.Buffer
	ref := &mutationRef{}
	sink := comptest.NDJSON(&stream)
	m, err := mutation.Run(ctx, plan, mutation.Options{Parallelism: 1,
		Sink: comptest.SinkFunc(func(res comptest.Result) {
			sink.Emit(res)
			ref.units++
			if res.Report != nil {
				ref.simS += executedSimS(res.Report)
			}
		})})
	if err != nil {
		return nil, err
	}
	ref.stream = stream.Bytes()
	ref.score = m.Score()
	ref.status.Mutants = len(m.Outcomes)
	for _, o := range m.Outcomes {
		switch {
		case o.Err != nil:
			ref.status.Errored++
		case o.Killed:
			ref.status.Killed++
		default:
			ref.status.Survived++
		}
	}
	findings := lint.Check(plan.Suite.Signals, plan.Suite.Statuses, plan.Suite.Tests)
	var side bytes.Buffer
	if err := report.WriteStrengthJSON(&side, &report.Strength{DUTs: []report.DUTStrength{m.Strength(findings)}}); err != nil {
		return nil, err
	}
	ref.sidecar = side.Bytes()

	// The exhaustive matrix gives the planned unit count, and its score
	// must agree with the early-kill run's.
	full, err := mutation.Run(ctx, plan, mutation.Options{Parallelism: 1, RunToCompletion: true,
		Sink: comptest.SinkFunc(func(comptest.Result) { ref.planned++ })})
	if err != nil {
		return nil, err
	}
	if full.Score() != ref.score {
		return nil, fmt.Errorf("reference %s: exhaustive score %s != early-kill score %s", plan.DUT, full.Score(), ref.score)
	}
	return ref, nil
}

// exploreCfg is one exploration configuration: a DUT/oracle pair of
// EXPERIMENTS.md C3 and an exploration seed.
type exploreCfg struct {
	dut, oracle string
	seed        int64
}

func (c exploreCfg) String() string {
	return fmt.Sprintf("%s/%s seed %d", c.dut, c.oracle, c.seed)
}

func (c exploreCfg) options(par int, sink comptest.Sink) explore.Options {
	return explore.Options{DUT: c.dut, Seed: c.seed, Budget: 16, Parallelism: par,
		Oracle: []string{c.oracle}, Sink: sink}
}

// referenceExplore returns the reference corpus fingerprint of one
// configuration.
func referenceExplore(c exploreCfg, suite *comptest.Suite) (string, error) {
	ex, err := explore.New(suite, c.options(1, nil))
	if err != nil {
		return "", err
	}
	res, err := ex.Run(context.Background())
	if err != nil {
		return "", err
	}
	return res.Corpus.Fingerprint()
}
