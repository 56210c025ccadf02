package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/comptest"
	"repro/comptest/serve"
)

// Mutate and explore jobs run on the campaign shard path as one open
// piece: their streams are in unit order at any parallelism, so the
// piece's line index is a sequence number the merger can dedup on.

const (
	mutateSpec  = `{"kind":"mutate","workbook_name":"central_locking","parallelism":2}`
	exploreSpec = `{"kind":"explore","dut":"interior_light","budget":8,"seed":1,"parallelism":2}`
)

// TestPieceStreamsByteIdentical: a mutate and an explore job at
// parallelism 2 give the same bytes on repeated single-node runs and
// through a coordinator with two workers.
func TestPieceStreamsByteIdentical(t *testing.T) {
	for _, spec := range []string{mutateSpec, exploreSpec} {
		want := singleNodeRaw(t, spec)
		if len(want) == 0 {
			t.Fatalf("%s: empty single-node stream", spec)
		}
		for run := 1; run < 3; run++ {
			if got := singleNodeRaw(t, spec); !bytes.Equal(got, want) {
				t.Fatalf("%s: single-node rerun %d differs from the first run", spec, run)
			}
		}
		h := newHarness(t, Options{})
		h.startWorker(t, WorkerOptions{Name: "alpha"})
		h.startWorker(t, WorkerOptions{Name: "beta"})
		st := h.submit(t, spec)
		if got := h.streamRaw(t, st.ID); !bytes.Equal(got, want) {
			t.Errorf("%s: coordinator stream differs from the single-node run", spec)
		}
		final := h.status(t, st.ID)
		if final.State != serve.StateDone || final.Verdict != "green" {
			t.Errorf("%s: final = %s/%s (%s)", spec, final.State, final.Verdict, final.Error)
		}
		if sh := final.Shards; sh == nil || sh.Total != 1 || sh.Completed != 1 || sh.Local != 0 {
			t.Errorf("%s: shard summary %+v, want one remote piece", spec, final.Shards)
		}
	}
}

// stallStub plays a worker that streams a fixed prefix of a job and
// then stalls in an open stream until the client goes away; its job
// status stays "running".
type stallStub struct {
	prefix []byte
}

func (p *stallStub) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"stall-1"}`)
	})
	mux.HandleFunc("GET /v1/jobs/stall-1/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		w.Write(p.prefix)
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		<-r.Context().Done()
	})
	mux.HandleFunc("DELETE /v1/jobs/stall-1", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
	})
	mux.HandleFunc("GET /v1/jobs/stall-1", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"id":"stall-1","state":"running"}`)
	})
	return mux
}

// lines counts a stream's NDJSON lines.
func lines(stream []byte) int { return bytes.Count(stream, []byte("\n")) }

// firstLine returns the stream's first line, newline included.
func firstLine(t *testing.T, stream []byte) []byte {
	t.Helper()
	i := bytes.IndexByte(stream, '\n')
	if i < 0 {
		t.Fatal("stream has no complete line")
	}
	return stream[:i+1]
}

// TestMutateCrashRecoveryByteIdentical: the coordinator dies after a
// mutate job relayed its first line, and the worker that held the job
// dies with it. The restarted coordinator re-runs the piece on a fresh
// worker, the journaled line dedups, and the stream is byte-identical
// to the single-node run.
func TestMutateCrashRecoveryByteIdentical(t *testing.T) {
	want := singleNodeRaw(t, mutateSpec)
	stateDir := t.TempDir()
	stub := httptest.NewServer((&stallStub{prefix: firstLine(t, want)}).handler())
	defer stub.Close()

	a := newHarness(t, Options{StateDir: stateDir})
	registerStub(t, a.url, stub.URL, 1)
	st := a.submit(t, mutateSpec)
	waitForJournal(t, stateDir, `"t":"dispatch"`, 1)
	waitForJournal(t, stateDir, `"t":"line"`, 1)
	a.c.journal.kill()
	a.ts.Close()
	a.c.Close()
	stub.Close() // the retained job is gone with its worker

	b := newHarness(t, Options{StateDir: stateDir})
	b.startWorker(t, WorkerOptions{Name: "phoenix"})
	if got := streamURL(t, b.url, st.ID); !bytes.Equal(got, want) {
		t.Errorf("recovered mutate stream differs from the single-node run (%d vs %d lines)", lines(got), lines(want))
	}
	final := b.status(t, st.ID)
	if final.State != serve.StateDone || final.Verdict != "green" {
		t.Fatalf("final = %s/%s (%s)", final.State, final.Verdict, final.Error)
	}
	if !final.Recovered {
		t.Error("recovered job not flagged Recovered")
	}
	if m := final.Mutation; m == nil || m.Mutants == 0 {
		t.Errorf("mutation summary after recovery: %+v", m)
	}
	if got := fleetSnap(t, b.url).Value(MetricJobsRecovered); got < 1 {
		t.Errorf("%s = %v, want >= 1", MetricJobsRecovered, got)
	}
}

// TestMutatePieceRequeuesOnWorkerLoss: the worker running a mutate job
// ends its stream after one line while the job still runs. The piece
// requeues on the survivor, whose re-delivery of that line dedups.
func TestMutatePieceRequeuesOnWorkerLoss(t *testing.T) {
	want := singleNodeRaw(t, mutateSpec)
	h := newHarness(t, Options{})
	flaky := &flakyWorker{firstLine: firstLine(t, want)}
	stub := httptest.NewServer(flaky.handler())
	defer stub.Close()
	registerStub(t, h.url, stub.URL, 1) // registered first: offered the piece first
	h.startWorker(t, WorkerOptions{Name: "survivor"})

	st := h.submit(t, mutateSpec)
	got := h.streamRaw(t, st.ID)
	final := h.status(t, st.ID)
	if final.State != serve.StateDone || final.Verdict != "green" {
		t.Fatalf("final = %s/%s (%s)", final.State, final.Verdict, final.Error)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("requeued mutate stream differs from the single-node run (%d vs %d lines)", lines(got), lines(want))
	}
	if sh := final.Shards; sh == nil || sh.Requeued < 1 || sh.Completed != 1 {
		t.Errorf("shard summary %+v, want one requeue", final.Shards)
	}
	if m := final.Mutation; m == nil || m.Mutants == 0 {
		t.Errorf("mutation summary not relayed: %+v", m)
	}
}

// TestLegacyWholeJobJournalReplays: journals from before the one
// dispatch path addressed a mutate job dispatched in one piece as shard
// -1. Such a journal, with a line relayed and the worker gone, replays
// without error and the job completes byte-identical.
func TestLegacyWholeJobJournalReplays(t *testing.T) {
	want := singleNodeRaw(t, mutateSpec)
	wb, err := comptest.BuiltinWorkbook("central_locking")
	if err != nil {
		t.Fatal(err)
	}
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	spec := serve.JobSpec{Kind: serve.KindMutate, WorkbookName: "central_locking",
		DUT: "central_locking", Stand: "full_lab", Parallelism: 2}
	var journal bytes.Buffer
	enc := json.NewEncoder(&journal)
	for _, rec := range []journalRec{
		{T: "job", Job: "job-000001", Spec: &spec, Workbook: wb},
		{T: "dispatch", Job: "job-000001", Shard: -1, Worker: "w-0001", URL: dead.URL, Remote: "job-000007"},
		{T: "line", Job: "job-000001", Line: string(bytes.TrimSuffix(firstLine(t, want), []byte("\n")))},
	} {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	stateDir := t.TempDir()
	if err := os.WriteFile(journalPath(stateDir), journal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	h := newHarness(t, Options{StateDir: stateDir})
	h.startWorker(t, WorkerOptions{Name: "phoenix"})
	if got := streamURL(t, h.url, "job-000001"); !bytes.Equal(got, want) {
		t.Errorf("legacy-journal job stream differs from the single-node run (%d vs %d lines)", lines(got), lines(want))
	}
	final := h.status(t, "job-000001")
	if final.State != serve.StateDone || final.Verdict != "green" || !final.Recovered {
		t.Fatalf("final = %s/%s recovered=%v (%s)", final.State, final.Verdict, final.Recovered, final.Error)
	}
	if sh := final.Shards; sh == nil || sh.Requeued != 1 || sh.Completed != 1 {
		t.Errorf("shard summary %+v, want the stale -1 address requeued once", final.Shards)
	}
}
