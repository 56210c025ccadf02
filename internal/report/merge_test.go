package report

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func line(i int) []byte { return []byte(fmt.Sprintf("line-%d\n", i)) }

// TestMergerOrdersOutOfOrderArrivals: lines landing in completion
// order from concurrent shards come out in sequence order.
func TestMergerOrdersOutOfOrderArrivals(t *testing.T) {
	var buf bytes.Buffer
	m := NewMerger(&buf)
	for _, seq := range []int{2, 0, 3, 1} {
		accepted, err := m.Add(seq, line(seq))
		if err != nil || !accepted {
			t.Fatalf("Add(%d) = %v, %v", seq, accepted, err)
		}
	}
	want := "line-0\nline-1\nline-2\nline-3\n"
	if buf.String() != want {
		t.Errorf("merged %q, want %q", buf.String(), want)
	}
	if m.Written() != 4 || m.Pending() != 0 || m.Duplicates() != 0 {
		t.Errorf("counters: written=%d pending=%d dupes=%d", m.Written(), m.Pending(), m.Duplicates())
	}
}

// TestMergerDropsDuplicateDeliveries models the requeue race: a shard
// delivered units 0–1, its worker died, and the requeued shard
// re-delivers 0–3. The re-deliveries of 0 and 1 must vanish.
func TestMergerDropsDuplicateDeliveries(t *testing.T) {
	var buf bytes.Buffer
	m := NewMerger(&buf)
	// First (doomed) delivery: units 0 and 1, with DIFFERENT bytes than
	// the retry will send, so the test catches which copy survives.
	m.Add(0, []byte("first-0\n"))
	m.Add(1, []byte("first-1\n"))
	// Requeued shard re-delivers everything.
	for seq := 0; seq < 4; seq++ {
		accepted, err := m.Add(seq, line(seq))
		if err != nil {
			t.Fatal(err)
		}
		if wantAccept := seq >= 2; accepted != wantAccept {
			t.Errorf("Add(%d) accepted = %v, want %v", seq, accepted, wantAccept)
		}
	}
	want := "first-0\nfirst-1\nline-2\nline-3\n"
	if buf.String() != want {
		t.Errorf("merged %q, want %q (first delivery wins, retry dedups)", buf.String(), want)
	}
	if m.Duplicates() != 2 {
		t.Errorf("duplicates = %d, want 2", m.Duplicates())
	}
}

// TestMergerMissingReportsGaps: a cancelled job leaves holes; Missing
// names exactly the undelivered sequences below the high-water mark.
func TestMergerMissingReportsGaps(t *testing.T) {
	m := NewMerger(&bytes.Buffer{})
	m.Add(0, line(0))
	m.Add(3, line(3))
	m.Add(5, line(5))
	got := m.Missing()
	want := []int{1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("missing = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("missing = %v, want %v", got, want)
		}
	}
	if m.Written() != 1 || m.Pending() != 2 {
		t.Errorf("written=%d pending=%d", m.Written(), m.Pending())
	}
}

type failAfter struct {
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("sink broke")
	}
	f.n--
	return len(p), nil
}

// TestMergerLatchesWriteError: the first sink failure sticks; later
// Adds surface it instead of silently dropping lines.
func TestMergerLatchesWriteError(t *testing.T) {
	m := NewMerger(&failAfter{n: 1})
	if _, err := m.Add(0, line(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add(1, line(1)); err == nil {
		t.Fatal("write failure not surfaced")
	}
	if _, err := m.Add(2, line(2)); err == nil || m.Err() == nil {
		t.Error("write failure not latched")
	}
}

// TestMergerConcurrentAdds hammers the merger from concurrent
// "shards" (with overlapping re-deliveries) and checks the output is
// one ordered, exactly-once sequence. Run with -race.
func TestMergerConcurrentAdds(t *testing.T) {
	const units = 200
	var buf bytes.Buffer
	m := NewMerger(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each goroutine delivers an overlapping slice, shuffled by
			// a fixed stride so arrivals interleave out of order.
			for i := 0; i < units; i++ {
				seq := (i*37 + w*13) % units
				m.Add(seq, line(seq))
			}
		}(w)
	}
	wg.Wait()
	if m.Written() != units || m.Pending() != 0 {
		t.Fatalf("written=%d pending=%d, want %d/0", m.Written(), m.Pending(), units)
	}
	var want bytes.Buffer
	for i := 0; i < units; i++ {
		want.Write(line(i))
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Error("concurrent merge is not the ordered exactly-once sequence")
	}
	if m.Duplicates() != 3*units {
		t.Errorf("duplicates = %d, want %d", m.Duplicates(), 3*units)
	}
}

// TestSequenceRandomInterleavings drives the shared release core with
// seeded random event orders mixing duplicates, a resume floor,
// below-floor re-deliveries, skips and gaps that never fill. Release
// must only ever emit a contiguous, increasing prefix; Flush must then
// drain the rest past the gaps in order. Together they emit exactly the
// sorted, unique, non-skipped sequences at or above the floor — the
// first delivery of each.
func TestSequenceRandomInterleavings(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		floor := rng.Intn(5)
		n := floor + rng.Intn(40)
		type event struct {
			seq, val int
			skip     bool
		}
		var events []event
		var want []int // first-delivered values, in sequence order
		gaps := map[int]bool{}
		for seq := floor; seq < n; seq++ {
			switch r := rng.Intn(10); {
			case r == 0: // a gap: never arrives
				gaps[seq] = true
			case r == 1: // skipped: never arrives, and says so
				events = append(events, event{seq: seq, skip: true})
			default: // delivered one to three times
				for dup := 0; dup <= rng.Intn(3); dup++ {
					events = append(events, event{seq: seq, val: seq*10 + dup})
				}
			}
		}
		for i := 0; i < floor; i++ { // re-deliveries below the floor
			events = append(events, event{seq: rng.Intn(floor), val: -1})
		}
		rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
		first := map[int]int{}
		for _, e := range events {
			if _, ok := first[e.seq]; !ok && !e.skip && e.seq >= floor {
				first[e.seq] = e.val
			}
		}
		for seq := floor; seq < n; seq++ {
			if v, ok := first[seq]; ok {
				want = append(want, v)
			}
		}

		s := NewSequence[int](floor)
		var got []int
		for _, e := range events {
			if e.skip {
				s.Skip(e.seq)
			} else if accepted := s.Offer(e.seq, e.val); accepted != (first[e.seq] == e.val && e.seq >= floor) {
				t.Fatalf("trial %d: Offer(%d, %d) = %v", trial, e.seq, e.val, accepted)
			}
			for v := range s.Release() {
				got = append(got, v)
			}
			if !slices.Equal(got, want[:len(got)]) {
				t.Fatalf("trial %d: Release emitted %v, not a prefix of %v", trial, got, want)
			}
		}
		// Before the flush, Missing names exactly the gaps below the
		// highest sequence that arrived or was skipped.
		top := -1
		for _, e := range events {
			top = max(top, e.seq)
		}
		var wantGaps []int
		for seq := range gaps {
			if seq < top {
				wantGaps = append(wantGaps, seq)
			}
		}
		slices.Sort(wantGaps)
		if missing := s.Missing(); !slices.Equal(missing, wantGaps) {
			t.Fatalf("trial %d: Missing = %v, want %v", trial, missing, wantGaps)
		}
		for v := range s.Flush() {
			got = append(got, v)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: released %v, want %v", trial, got, want)
		}
		if s.Pending() != 0 || (top >= floor && s.Offer(top, 0)) {
			t.Fatalf("trial %d: flushed sequence still buffers or re-accepts %d", trial, top)
		}
	}
}
