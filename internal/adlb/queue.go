package adlb

import "slices"

// workQueue orders work items by descending priority, breaking ties by
// insertion order (FIFO), matching ADLB's delivery discipline. It is a
// binary heap of item pointers, sifted in place: nothing is boxed.
type workQueue struct {
	h   []*workItem
	seq uint64
}

// before reports whether a is delivered before b.
func before(a, b *workItem) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.seq < b.seq
}

func (q *workQueue) push(w *workItem) {
	q.seq++
	w.seq = q.seq
	q.h = append(q.h, w)
	h := q.h
	for i := len(h) - 1; i > 0 && before(h[i], h[(i-1)/2]); i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
	}
}

func (q *workQueue) pop() (*workItem, bool) {
	n := len(q.h) - 1
	if n < 0 {
		return nil, false
	}
	h := q.h
	w := h[0]
	h[0], h[n] = h[n], nil
	q.h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < n && before(h[c+1], h[c]) {
			c++
		}
		if c >= n || !before(h[c], h[i]) {
			return w, true
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// peek returns the item pop would return, leaving it queued.
func (q *workQueue) peek() (*workItem, bool) {
	if len(q.h) == 0 {
		return nil, false
	}
	return q.h[0], true
}

func (q *workQueue) len() int { return len(q.h) }

// drainHalf removes up to half the queued items (at least one if any are
// queued), lowest priority first, for transfer to a stealing server.
// Stealing low-priority work first preserves the local server's ability to
// dispatch its own high-priority items promptly, matching ADLB. Sorted in
// delivery order, the heap stays a heap, and its tail goes.
func (q *workQueue) drainHalf() []*workItem {
	n := q.len()
	if n == 0 {
		return nil
	}
	slices.SortFunc(q.h, func(a, b *workItem) int {
		if before(a, b) {
			return -1
		}
		return 1
	})
	keep := n - max(n/2, 1)
	given := slices.Clone(q.h[keep:])
	clear(q.h[keep:])
	q.h = q.h[:keep]
	return given
}
