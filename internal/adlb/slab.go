package adlb

// arena is where a server's work items, their payloads and input ids
// come from: each is carved out of a block of its kind, one allocation a
// block. A block is never reused, and is freed once nothing carved from
// it is referenced (see the package doc).
type arena struct {
	items slab[workItem]
	bytes slab[byte]
	ids   slab[int64]
}

// slab carves runs of T out of blocks of block T. A run over a quarter
// of a block is allocated alone, so a large payload never strands a
// block; take(0) is nil. A run's capacity is its length, so an append
// moves it rather than writing over a neighbour.
type slab[T any] struct{ free []T }

func (s *slab[T]) take(n, block int) []T {
	switch {
	case n == 0:
		return nil
	case n > block/4:
		return make([]T, n)
	case n > len(s.free):
		s.free = make([]T, block)
	}
	v := s.free[:n:n]
	s.free = s.free[n:]
	return v
}

func (a *arena) workItem() *workItem { return &a.items.take(1, 128)[0] }
