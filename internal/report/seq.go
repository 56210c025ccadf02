package report

import "iter"

// Sequence is the ordered, exactly-once release core behind every
// reorder point of the tool chain: the distributed result Merger and
// TraceMerger, and comptest's Ordered sink and Tracer. Values tagged
// with a sequence number arrive in any order. Offer accepts each
// sequence once, at or above the release point, and rejects
// duplicates; Skip marks a sequence that will never arrive; Release
// yields the contiguous run from the release point, in order; Flush
// drains whatever is still buffered in sequence order, past the gaps.
//
// Sequence does no locking of its own: every owner already serialises
// its callers.
type Sequence[T any] struct {
	next    int // release point: every lower sequence is released or skipped
	pending map[int]seqSlot[T]
	values  int // buffered values, skip marks excluded
}

type seqSlot[T any] struct {
	v    T
	skip bool
}

// NewSequence returns a Sequence whose release point is floor: lower
// sequences count as already released (a resumed merge).
func NewSequence[T any](floor int) *Sequence[T] {
	return &Sequence[T]{next: floor, pending: map[int]seqSlot[T]{}}
}

// Offer buffers v under seq. It returns false, keeping nothing, when seq
// is below the release point or was already offered or skipped.
func (s *Sequence[T]) Offer(seq int, v T) bool {
	if !s.open(seq) {
		return false
	}
	s.pending[seq] = seqSlot[T]{v: v}
	s.values++
	return true
}

// Skip marks seq as never arriving, so Release can pass it. Skipping a
// sequence that was already offered, skipped or released is a no-op.
func (s *Sequence[T]) Skip(seq int) {
	if s.open(seq) {
		s.pending[seq] = seqSlot[T]{skip: true}
	}
}

func (s *Sequence[T]) open(seq int) bool {
	if seq < s.next {
		return false
	}
	_, taken := s.pending[seq]
	return !taken
}

// Release yields the buffered values contiguous with the release point,
// in sequence order, advancing the point past each one (and past skip
// marks). Stopping the loop early leaves the rest buffered.
func (s *Sequence[T]) Release() iter.Seq[T] {
	return func(yield func(T) bool) {
		for {
			slot, ok := s.pending[s.next]
			if !ok {
				return
			}
			delete(s.pending, s.next)
			s.next++
			if slot.skip {
				continue
			}
			s.values--
			if !yield(slot.v) {
				return
			}
		}
	}
}

// Flush yields every buffered value in sequence order, jumping the gaps
// that will never fill (a cancelled or failed run), and moves the
// release point past the last one.
func (s *Sequence[T]) Flush() iter.Seq[T] {
	return func(yield func(T) bool) {
		for len(s.pending) > 0 {
			for _, ok := s.pending[s.next]; !ok; _, ok = s.pending[s.next] {
				s.next++
			}
			for v := range s.Release() {
				if !yield(v) {
					return
				}
			}
		}
	}
}

// Pending returns the number of buffered values waiting for a gap to
// fill.
func (s *Sequence[T]) Pending() int { return s.values }

// Missing lists the gaps between the release point and the highest
// buffered sequence, ascending — the sequences that neither arrived nor
// were skipped.
func (s *Sequence[T]) Missing() []int {
	top := s.next - 1
	for seq := range s.pending {
		top = max(top, seq)
	}
	var gaps []int
	for seq := s.next; seq < top; seq++ {
		if _, ok := s.pending[seq]; !ok {
			gaps = append(gaps, seq)
		}
	}
	return gaps
}
