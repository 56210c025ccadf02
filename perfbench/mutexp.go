package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"repro/comptest"
	"repro/comptest/explore"
	"repro/comptest/mutation"
	"repro/internal/lint"
)

// mutexpParallelism is the campaign worker-pool bound of both engines:
// nproc on the reference 2-core container.
const mutexpParallelism = 2

// exploreConfigs are the two DUT/oracle pairs of EXPERIMENTS.md C3 at
// C3's seed 1 and a budget of 16 candidates, with the
// default walk parameters for both. Exploration cost differs
// several-fold between exploration seeds (and the window lifter's C3
// walks of 16-28 steps cost five times its default ones), while these
// two cost about the same — so op times stay unimodal and the workload
// seed varies which kill matrix and pair each op runs, and in which
// order.
func exploreConfigs() []exploreCfg {
	return []exploreCfg{
		{dut: "interior_light", oracle: "only_fl", seed: 1},
		{dut: "window_lifter", oracle: "no_thermal", seed: 1},
	}
}

// mutexpOp is one op's generated input: a built-in kill matrix and an
// exploration configuration.
type mutexpOp struct {
	Plan, Explore int
}

// mutexpDeck deals every (kill matrix, exploration) pairing once, in a
// seed-shuffled order.
func mutexpDeck(seed int64, k, plans, configs int) []mutexpOp {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(k)+2<<32))
	deck := make([]mutexpOp, 0, plans*configs)
	for p := 0; p < plans; p++ {
		for c := 0; c < configs; c++ {
			deck = append(deck, mutexpOp{Plan: p, Explore: c})
		}
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// mutexpState is what set-up builds: the enumerated plans with their
// kill statistics read from the `.kills.json` sidecars, and the
// explored suites.
type mutexpState struct {
	plans  []*mutation.Plan
	kills  []*lint.KillMatrix
	suites map[string]*comptest.Suite
}

func setupMutexp(sidecars map[string]string, cfgs []exploreCfg) (*mutexpState, error) {
	plans, err := mutation.EnumerateBuiltin()
	if err != nil {
		return nil, err
	}
	st := &mutexpState{plans: plans, suites: map[string]*comptest.Suite{}}
	for _, p := range plans {
		k, err := lint.ReadKillMatrixFile(sidecars[p.DUT])
		if err != nil {
			return nil, err
		}
		st.kills = append(st.kills, k)
	}
	for _, c := range cfgs {
		if st.suites[c.dut] != nil {
			continue
		}
		wb, err := comptest.BuiltinWorkbook(c.dut)
		if err != nil {
			return nil, err
		}
		if st.suites[c.dut], err = comptest.LoadSuiteString(wb); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// runCounter tallies the stand runs an engine streams to its sink.
type runCounter struct {
	units int
	simS  float64
}

func (c *runCounter) Emit(r comptest.Result) {
	c.units++
	if r.Report != nil {
		c.simS += executedSimS(r.Report)
	}
}

// layerTally accumulates the engine-level counts of the traced window.
type layerTally struct {
	mutants, unitsRun, unitsSkipped, mutantRuns, decided int
	candidates, executions, corpus, coverageKeys         int
}

func runMutateExplore(cfg config) (*result, error) {
	cfgs := exploreConfigs()
	plans, err := mutation.EnumerateBuiltin()
	if err != nil {
		return nil, err
	}
	// Each reference run's strength report is saved as the kill
	// sidecar `comptest mutate` would write next to the workbook.
	kills, err := cfg.scratchDir("kills")
	if err != nil {
		return nil, err
	}
	mutRefs := make([]*mutationRef, len(plans))
	sidecars := map[string]string{}
	for i, p := range plans {
		if mutRefs[i], err = referenceMutation(p); err != nil {
			return nil, err
		}
		sidecars[p.DUT] = filepath.Join(kills, p.DUT+".kills.json")
		if err := os.WriteFile(sidecars[p.DUT], mutRefs[i].sidecar, 0o644); err != nil {
			return nil, err
		}
	}
	expRefs := make([]string, len(cfgs))
	for i, c := range cfgs {
		wb, err := comptest.BuiltinWorkbook(c.dut)
		if err != nil {
			return nil, err
		}
		suite, err := comptest.LoadSuiteString(wb)
		if err != nil {
			return nil, err
		}
		if expRefs[i], err = referenceExplore(c, suite); err != nil {
			return nil, err
		}
	}
	deckSize := len(plans) * len(cfgs)
	opAt := func(n int) mutexpOp {
		return mutexpDeck(cfg.seed, n/deckSize, len(plans), len(cfgs))[n%deckSize]
	}
	res := &result{layers: map[string]float64{}}

	// Set-up: enumerate the built-in kill matrices, read their kill
	// sidecars, load the explored suites; repeated, median reported.
	var st *mutexpState
	newState := func() (*mutexpState, error) { return setupMutexp(sidecars, cfgs) }
	if st, err = timeSetups(res, newState, nil); err != nil {
		return nil, err
	}

	var tally layerTally
	op := func(tr *tracer, n int) opResult {
		in := opAt(n)
		plan, c := st.plans[in.Plan], cfgs[in.Explore]
		fail := func(format string, args ...any) opResult {
			fmt.Fprintf(os.Stderr, "FAILED mutate_explore op %d {plan %s, explore %s}: %s\n",
				n, plan.DUT, c, fmt.Sprintf(format, args...))
			return opResult{}
		}
		ctx := context.Background()
		var mc, ec runCounter
		t0 := time.Now()
		root := tr.begin(n, -1, "op")
		id := tr.begin(n, root, "mutation")
		m, merr := mutation.Run(ctx, plan, mutation.Options{Parallelism: mutexpParallelism,
			KillStats: st.kills[in.Plan], Sink: &mc})
		tr.end(id)
		var xres *explore.Result
		id = tr.begin(n, root, "explore")
		ex, xerr := explore.New(st.suites[c.dut], c.options(mutexpParallelism, &ec))
		if xerr == nil {
			xres, xerr = ex.Run(ctx)
		}
		tr.end(id)
		tr.end(root)
		r := opResult{dur: time.Since(t0), units: mc.units + ec.units, simS: mc.simS + ec.simS}
		switch {
		case merr != nil:
			return fail("mutation: %v", merr)
		case xerr != nil:
			return fail("explore: %v", xerr)
		case m.Score() != mutRefs[in.Plan].score:
			return fail("mutation score %s, reference %s", m.Score(), mutRefs[in.Plan].score)
		}
		fp, err := xres.Corpus.Fingerprint()
		if err != nil {
			return fail("explore fingerprint: %v", err)
		}
		if fp != expRefs[in.Explore] {
			return fail("explore corpus fingerprint differs from the reference (%d vs %d bytes)",
				len(fp), len(expRefs[in.Explore]))
		}
		if tr != nil {
			tally.mutants += len(plan.Mutants)
			tally.unitsRun += mc.units
			tally.unitsSkipped += mutRefs[in.Plan].planned - mc.units
			tally.mutantRuns += mc.units - len(plan.Baseline)
			s := m.Score()
			tally.decided += s.Total
			tally.candidates += xres.Candidates
			tally.executions += xres.Executions
			tally.corpus += xres.Corpus.Len()
			tally.coverageKeys += xres.Coverage.Len()
		}
		r.ok = true
		return r
	}

	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	res.main = loop(window, 1, deckSize, 0, func(_, n int) opResult { return op(nil, n) })
	if err := retimeSetups(res, newState, nil); err != nil {
		return nil, err
	}
	res.notef("mix: %s", mutexpMix(res.main.attempted, opAt, plans, cfgs))
	if !cfg.trace {
		return res, nil
	}
	tr := newTracer()
	traced := loop(window, 1, deckSize, tracedFirst, func(_, n int) opResult { return op(tr, n) })
	res.traced = &traced
	agg := tr.aggregate()
	putLayer(res, agg, "mutation")
	putLayer(res, agg, "explore")
	l := res.layers
	l["mutation.mutants"] = float64(tally.mutants)
	l["mutation.units_run"] = float64(tally.unitsRun)
	l["mutation.units_skipped"] = float64(tally.unitsSkipped)
	l["mutation.runs_per_decided_mutant"] = ratio(float64(tally.mutantRuns), float64(tally.decided))
	l["explore.candidates"] = float64(tally.candidates)
	l["explore.executions"] = float64(tally.executions)
	l["explore.corpus"] = float64(tally.corpus)
	l["explore.coverage_keys"] = float64(tally.coverageKeys)
	l["explore.executions_per_candidate"] = ratio(float64(tally.executions), float64(tally.candidates))
	res.notef("engine counts, traced window: %d mutants, %d mutation runs (%d planned, %d skipped by early kill), "+
		"%.4f runs per decided mutant (= %d mutant runs / %d decided); explore %d candidates, %d executions "+
		"(%.4f per candidate), corpus %d, %d coverage keys",
		tally.mutants, tally.unitsRun, tally.unitsRun+tally.unitsSkipped, tally.unitsSkipped,
		l["mutation.runs_per_decided_mutant"], tally.mutantRuns, tally.decided, tally.candidates,
		tally.executions, l["explore.executions_per_candidate"], tally.corpus, tally.coverageKeys)
	tr.whereTimeGoes(res, "mutate_explore op", func(root span) bool { return root.Name == "op" })
	path, err := tr.write(cfg)
	if err != nil {
		return nil, err
	}
	res.notef("spans written to %s", path)
	return res, nil
}

// mutexpMix prints the realised shares of the first n ops.
func mutexpMix(n int, opAt func(int) mutexpOp, plans []*mutation.Plan, cfgs []exploreCfg) string {
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		in := opAt(i)
		counts["mutate="+plans[in.Plan].DUT]++
		counts["explore="+cfgs[in.Explore].String()]++
	}
	return shares(counts, n)
}
