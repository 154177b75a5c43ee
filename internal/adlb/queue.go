package adlb

import "container/heap"

// workQueue orders work items by descending priority, breaking ties by
// insertion order (FIFO), matching ADLB's delivery discipline.
type workQueue struct {
	h   itemHeap
	seq uint64
}

type heapEntry struct {
	item workItem
	seq  uint64
}

type itemHeap []heapEntry

func (h itemHeap) Len() int { return len(h) }
func (h itemHeap) Less(i, j int) bool {
	if h[i].item.Priority != h[j].item.Priority {
		return h[i].item.Priority > h[j].item.Priority
	}
	return h[i].seq < h[j].seq
}
func (h itemHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *itemHeap) Push(x any) { *h = append(*h, x.(heapEntry)) }

func (h *itemHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func (q *workQueue) push(w workItem) {
	q.seq++
	heap.Push(&q.h, heapEntry{item: w, seq: q.seq})
}

func (q *workQueue) pop() (workItem, bool) {
	if len(q.h) == 0 {
		return workItem{}, false
	}
	e := heap.Pop(&q.h).(heapEntry)
	return e.item, true
}

// peek returns the item pop would return, leaving it queued.
func (q *workQueue) peek() (workItem, bool) {
	if len(q.h) == 0 {
		return workItem{}, false
	}
	return q.h[0].item, true
}

func (q *workQueue) len() int { return len(q.h) }

// drainHalf removes up to half the queued items (at least one if any are
// queued), lowest priority first, for transfer to a stealing server.
// Stealing low-priority work first preserves the local server's ability to
// dispatch its own high-priority items promptly, matching ADLB.
func (q *workQueue) drainHalf() []workItem {
	n := q.len()
	if n == 0 {
		return nil
	}
	take := n / 2
	if take == 0 {
		take = 1
	}
	// Pop everything, give away the tail (lowest priority), re-push the rest.
	all := make([]heapEntry, 0, n)
	for len(q.h) > 0 {
		all = append(all, heap.Pop(&q.h).(heapEntry))
	}
	kept := all[:n-take]
	given := all[n-take:]
	for _, e := range kept {
		heap.Push(&q.h, e)
	}
	items := make([]workItem, len(given))
	for i, e := range given {
		items[i] = e.item
	}
	return items
}
